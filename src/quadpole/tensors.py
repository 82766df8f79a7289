"""Cartesian polytensors via the symmetric-tensor / polynomial isomorphism.

An order-n supersymmetric tensor A is stored in reduced form as a map
from exponent triples (n1, n2, n3), n1+n2+n3 = n, to its distinct
components A[n1,n2,n3].  The associated homogeneous polynomial is

    a_n(r) = sum multinomial(n; n1,n2,n3) r_x^n1 r_y^n2 r_z^n3 A[n1,n2,n3]

and products/contractions reduce to polynomial multiplication and
differentiation of these coefficient maps.
"""
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, DomainError
from .expansion import SurfaceExpansion

__all__ = [
    "Polytensor",
    "triples",
    "multinomial",
    "double_factorial",
    "moments_from_charges",
    "directional_moment",
    "symmetric_product",
    "contract",
    "partial_contract",
    "detrace_directional",
    "polytensor_from_expansion",
    "expansion_from_polytensor",
    "polytensor_to_text",
    "polytensor_from_text",
]

MAX_ORDER = 16  # factorial/double-factorial tables stay well inside float range


def triples(n):
    """Exponent triples (n1, n2, n3) with n1+n2+n3 = n, lexicographic."""
    return [(a, b, n - a - b) for a in range(n, -1, -1) for b in range(n - a, -1, -1)]


def multinomial(n, t):
    """n! / (n1! n2! n3!)."""
    return math.comb(n, t[0]) * math.comb(n - t[0], t[1])


def double_factorial(n):
    """(n)!! with (-1)!! = 0!! = 1."""
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


@dataclass(frozen=True)
class Polytensor:
    """Monomial moments M[n1,n2,n3] for orders 0..p-1."""

    order: int
    coeffs: tuple    # one dict per order n

    def __post_init__(self):
        if not (1 <= self.order <= MAX_ORDER):
            raise DomainError("polytensor order must be in 1..%d" % MAX_ORDER)
        if len(self.coeffs) != self.order:
            raise DomainError("need one coefficient map per order 0..p-1")
        for n, c in enumerate(self.coeffs):
            if set(c) != set(triples(n)):
                raise DomainError("order-%d slice must cover all %d monomials"
                                  % (n, (n + 1) * (n + 2) // 2))

    def slice(self, n):
        return dict(self.coeffs[n])

    @staticmethod
    def zero(p):
        return Polytensor(p, tuple({t: 0.0 for t in triples(n)} for n in range(p)))


def moments_from_charges(sources, p):
    """Monomial moments M[n1,n2,n3] = sum_q q * x^n1 y^n2 z^n3, orders < p."""
    if p < 1:
        raise DomainError("order must be positive")
    x, y, z = sources.positions.T if len(sources) else (np.zeros(0),) * 3
    q = sources.charges
    coeffs = []
    for n in range(p):
        coeffs.append({t: float(np.sum(q * x ** t[0] * y ** t[1] * z ** t[2]))
                       for t in triples(n)})
    return Polytensor(p, tuple(coeffs))


def directional_moment(pt, r, n):
    """m_n(r) = sum multinomial(n; t) r^t M[t], the n-fold contraction with r."""
    if not 0 <= n < pt.order:
        raise DomainError("moment order out of range")
    r = np.asarray(r, dtype=float)
    out = 0.0
    for t, m in pt.coeffs[n].items():
        out = out + multinomial(n, t) * m \
            * r[..., 0] ** t[0] * r[..., 1] ** t[1] * r[..., 2] ** t[2]
    return out


def _poly_from_slice(a):
    """Tensor slice -> polynomial coefficient map (multinomials absorbed)."""
    n = sum(next(iter(a)))
    return {t: multinomial(n, t) * v for t, v in a.items()}, n


def _slice_from_poly(poly, n):
    out = {t: 0.0 for t in triples(n)}
    for t, v in poly.items():
        out[t] = v / multinomial(n, t)
    return out


def _order_of(a):
    return sum(next(iter(a)))


def symmetric_product(a, b):
    """Symmetrized outer product, via multiplication of the polynomials."""
    pa, n = _poly_from_slice(a)
    pb, m = _poly_from_slice(b)
    prod = {}
    for ta, va in pa.items():
        for tb, vb in pb.items():
            t = (ta[0] + tb[0], ta[1] + tb[1], ta[2] + tb[2])
            prod[t] = prod.get(t, 0.0) + va * vb
    return _slice_from_poly(prod, n + m)


def contract(a, b):
    """Full n-fold contraction of two order-n slices."""
    n, m = _order_of(a), _order_of(b)
    if n != m:
        raise ContractViolation("full contraction needs equal orders")
    return sum(multinomial(n, t) * v * b[t] for t, v in a.items())


def partial_contract(a, b):
    """Contract an order-n slice into an order-(n+m) slice, leaving order m.

    Implements m!/(n+m)! * a_n(d/dr) b_{n+m}(r) on polynomial coefficients.
    """
    pa, n = _poly_from_slice(a)
    pb, nm = _poly_from_slice(b)
    m = nm - n
    if m < 0:
        raise ContractViolation("second operand must have the higher order")
    out = {}
    for tb, vb in pb.items():
        for ta, va in pa.items():
            if all(tb[k] >= ta[k] for k in range(3)):
                t = tuple(tb[k] - ta[k] for k in range(3))
                fall = 1.0
                for k in range(3):
                    fall *= math.perm(tb[k], ta[k])
                out[t] = out.get(t, 0.0) + va * vb * fall
    scale = math.factorial(m) / math.factorial(nm)
    return _slice_from_poly({t: v * scale for t, v in out.items()}, m)


def _legendre_power_coeffs(n):
    """Coefficients c_k with P_n(t) = sum_k c_k t^k."""
    return np.polynomial.legendre.leg2poly([0.0] * n + [1.0])


def _detrace_poly_in_r(pt, n):
    """Coefficient map (in r) of the de-traced directional moment of order n.

    Uses |y|^n P_n(rhat . yhat) = sum_k c_k (r.y)^k (y.y)^{(n-k)/2} and
    contracts the y-monomials with the stored moments, leaving a
    polynomial in r of degree n scaled by n!/(2n-1)!!.
    """
    c = _legendre_power_coeffs(n)
    out = {}
    moments = pt.coeffs[n]
    for k in range(n % 2, n + 1, 2):
        if c[k] == 0.0:
            continue
        j = (n - k) // 2
        for ta in triples(k):
            acc = 0.0
            for tj in triples(j):
                full = (ta[0] + 2 * tj[0], ta[1] + 2 * tj[1], ta[2] + 2 * tj[2])
                acc += multinomial(j, tj) * moments[full]
            if acc != 0.0:
                out[ta] = out.get(ta, 0.0) + c[k] * multinomial(k, ta) * acc
    scale = math.factorial(n) / double_factorial(2 * n - 1)
    return {t: scale * v for t, v in out.items()}


def detrace_directional(pt, rhat, n):
    """De-traced directional moment rhat^(n) (.)n D_n M^(n) at unit rhat."""
    if not 0 <= n < pt.order:
        raise DomainError("moment order out of range")
    rhat = np.asarray(rhat, dtype=float)
    poly = _detrace_poly_in_r(pt, n)
    out = 0.0
    for t, v in poly.items():
        out = out + v * rhat[..., 0] ** t[0] * rhat[..., 1] ** t[1] * rhat[..., 2] ** t[2]
    return out


def polytensor_from_expansion(exp):
    """Moments of the surface weights, M^(n) = sum_i w_i (R rhat_i)^(n)."""
    if exp.kind != "outer":
        raise ContractViolation("outer expansion required")
    from .expansion import PointCharges
    if np.all(exp.surface_weights == 0.0):
        return Polytensor.zero(exp.order)
    pts = PointCharges(exp.surface_points - exp.center, exp.surface_weights)
    return moments_from_charges(pts, exp.order)


def expansion_from_polytensor(pt, R, rule):
    """Outer expansion whose de-traced moments reproduce the polytensor."""
    if rule.exactness_degree < 2 * pt.order - 2:
        raise DomainError("rule exactness inadequate for the polytensor order")
    sigma = np.zeros(len(rule))
    for n in range(pt.order):
        lead = (2 * n + 1) / (4.0 * np.pi) * double_factorial(2 * n - 1) / math.factorial(n)
        sigma += lead * detrace_directional(pt, rule.points, n) * R ** (-n)
    return SurfaceExpansion(center=np.zeros(3), radius=R, rule=rule,
                            surface_weights=rule.weights * sigma,
                            order=pt.order, kind="outer")


def polytensor_to_text(pt):
    """One line per (n, n1, n2, n3, value)."""
    lines = ["quadpole-polytensor p=%d" % pt.order]
    for n in range(pt.order):
        for t in triples(n):
            lines.append("%d %d %d %d %.17g" % (n, t[0], t[1], t[2], pt.coeffs[n][t]))
    return "\n".join(lines) + "\n"


def polytensor_from_text(text):
    """Parse the output of :func:`polytensor_to_text`.

    Malformed input raises a DomainError that names the offending line.
    """
    lines = [(n, ln.split()) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines or lines[0][1][0] != "quadpole-polytensor":
        raise DomainError("not a serialized polytensor")
    try:
        p = int(dict(item.split("=", 1) for item in lines[0][1][1:])["p"])
    except (KeyError, ValueError) as exc:
        raise DomainError("polytensor line %d: bad or missing order p (%s)"
                          % (lines[0][0], exc)) from exc
    if not 1 <= p <= MAX_ORDER:
        raise DomainError("polytensor line %d: order must be in 1..%d" % (lines[0][0], MAX_ORDER))
    values = {}
    for lineno, parts in lines[1:]:
        try:
            n, n1, n2, n3, value = parts
            n, t, value = int(n), (int(n1), int(n2), int(n3)), float(value)
        except ValueError as exc:
            raise DomainError("polytensor line %d: expected 'n n1 n2 n3 value'"
                              % lineno) from exc
        if not 0 <= n < p or min(t) < 0 or sum(t) != n:
            raise DomainError("polytensor line %d: no moment %s of degree %d in an order-%d "
                              "polytensor" % (lineno, t, n, p))
        if (n, t) in values:
            raise DomainError("polytensor line %d: moment %s of degree %d repeated"
                              % (lineno, t, n))
        values[n, t] = value
    for n in range(p):
        for t in triples(n):
            if (n, t) not in values:
                raise DomainError("polytensor: moment %s of degree %d missing" % (t, n))
    return Polytensor(p, tuple({t: values[n, t] for t in triples(n)} for n in range(p)))
