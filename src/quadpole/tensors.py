"""Cartesian polytensors via the symmetric-tensor / polynomial isomorphism.

An order-n supersymmetric tensor A is stored in reduced form as a map
from exponent triples (n1, n2, n3), n1+n2+n3 = n, to its distinct
components A[n1,n2,n3].  The associated homogeneous polynomial is

    a_n(r) = sum multinomial(n; n1,n2,n3) r_x^n1 r_y^n2 r_z^n3 A[n1,n2,n3]

and products and contractions are sums over exponent triples of these
components, each weighted by its multinomial.  De-tracing is the harmonic
projection of a_n sampled at the points of a Lebedev rule: one kernel
sum over the point set, with no expansion of P_n into powers.
"""
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, DomainError
from .expansion import (PointCharges, SurfaceExpansion, _lines, _numbers, _radius,
                        _require_kind)
from .legendre import _integer, _kernel_dot, _points, _real
from .quadrature import _double_factorial, rule_for_expansion

double_factorial = _double_factorial   # not in __all__; tests/test_acceptance.py imports it

__all__ = [
    "Polytensor",
    "triples",
    "multinomial",
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

# De-tracing projects the degree-n part out of the monomial moments, which
# amplifies their roundoff by about (2n-1)!!/n!.  Relative to
# n!/(2n-1)!! sum |q||y|^n the error is 8e-13 at n = 15, 1e-10 at n = 23
# and 9e-6 at n = 39, so orders stop at 16 (degrees up to 15).
MAX_ORDER = 16


def triples(n):
    """Exponent triples (n1, n2, n3) with n1+n2+n3 = n, lexicographic."""
    return [(a, b, n - a - b) for a in range(n, -1, -1) for b in range(n - a, -1, -1)]


def multinomial(n, t):
    """n! / (n1! n2! n3!)."""
    return math.comb(n, t[0]) * math.comb(n - t[0], t[1])


@dataclass(frozen=True)
class Polytensor:
    """Monomial moments M[n1,n2,n3] for orders 0..p-1."""

    order: int
    coeffs: tuple    # one dict per order n

    def __post_init__(self):
        _integer(self.order, "polytensor order", 1, MAX_ORDER)
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
    """Monomial moments M[n1,n2,n3] = sum_q q * x^n1 y^n2 z^n3, orders < p.

    A DomainError, naming the positions, where a moment leaves the range of
    float64, and one naming the sources where a term of nonzero factors, or
    a power or partial product on the way to it, falls below float64's
    normal range, as it then loses digits or underflows to 0.  A moment
    whose terms cancel to 0 is returned.
    """
    _integer(p, "order", 1, MAX_ORDER)
    x, y, z = sources.positions.T
    q = sources.charges
    tiny = np.finfo(float).tiny
    coeffs = []
    for n in range(p):
        lost = np.zeros(len(q), dtype=bool)   # sources with a term out of the normal range
        coeffs.append({})
        with np.errstate(over="ignore", invalid="ignore"):   # a moment out of range is refused
            for t in triples(n):
                # q * x ** t[0] * y ** t[1] * z ** t[2], one factor at a time
                term, nonzero, small = q, q != 0.0, np.abs(q) < tiny
                for v, k in zip((x, y, z), t):
                    if k:
                        power = v ** k
                        term = term * power
                        nonzero &= v != 0.0
                        small |= (np.abs(power) < tiny) | (np.abs(term) < tiny)
                lost |= nonzero & small
                coeffs[n][t] = float(np.sum(term))
        if not all(map(math.isfinite, coeffs[n].values())):
            raise DomainError("positions too large: their order-%d moments leave the range "
                              "of float64" % n)
        if lost.any():
            raise DomainError("positions too small: their order-%d moment terms leave the normal "
                              "range of float64 at sources %s" % (n, np.flatnonzero(lost).tolist()))
    return Polytensor(p, tuple(coeffs))


def directional_moment(pt, r, n):
    """m_n(r) = sum multinomial(n; t) r^t M[t], the n-fold contraction with r."""
    n, r = _integer(n, "moment order n", 0, pt.order - 1), _points(r, "directions r")
    out = 0.0
    for t, m in pt.coeffs[n].items():
        out = out + multinomial(n, t) * m \
            * r[..., 0] ** t[0] * r[..., 1] ** t[1] * r[..., 2] ** t[2]
    return out


def _slice_degree(a, name):
    """Degree of slice a, or a DomainError naming it unless nonempty, finite and of one degree."""
    if not isinstance(a, dict) or not a:
        raise DomainError("%s must be a nonempty dict of tensor components" % name)
    if not all(isinstance(t, tuple) and len(t) == 3 for t in a):
        raise DomainError("%s must be keyed by exponent triples" % name)
    degrees = {sum(_integer(i, "an exponent of %s" % name, 0) for i in t) for t in a}
    if len(degrees) > 1:
        raise DomainError("%s mixes the degrees %s" % (name, sorted(degrees)))
    if not np.all(np.isfinite(_real(list(a.values()), "components of %s" % name))):
        raise DomainError("components of %s must be finite" % name)
    return degrees.pop()


def symmetric_product(a, b):
    """Symmetrized outer product of an order-n and an order-m slice.

    C[t] = sum_{u+v=t} multinomial(n; u) A[u] multinomial(m; v) B[v] / multinomial(n+m; t).
    """
    n, m = _slice_degree(a, "a"), _slice_degree(b, "b")
    wb = [(v, multinomial(m, v) * y) for v, y in b.items()]
    acc = dict.fromkeys(triples(n + m), 0.0)
    for u, x in a.items():
        x = multinomial(n, u) * x
        for v, y in wb:
            acc[u[0] + v[0], u[1] + v[1], u[2] + v[2]] += x * y
    return {t: c / multinomial(n + m, t) for t, c in acc.items()}


def contract(a, b):
    """Full n-fold contraction of two order-n slices."""
    if _slice_degree(a, "a") != _slice_degree(b, "b"):
        raise ContractViolation("full contraction needs equal orders")
    return partial_contract(a, b)[0, 0, 0]


def partial_contract(a, b):
    """Contract an order-n slice into an order-(n+m) slice, leaving order m.

    C[s] = sum_t multinomial(n; t) A[t] B[t + s]; a component missing from
    b reads as zero.
    """
    n = _slice_degree(a, "a")
    m = _slice_degree(b, "b") - n
    if m < 0:
        raise ContractViolation("second operand must have the higher order")
    wa = [(t, multinomial(n, t) * x) for t, x in a.items()]
    return {s: sum(w * b.get((t[0] + s[0], t[1] + s[1], t[2] + s[2]), 0.0) for t, w in wa)
            for s in triples(m)}


def detrace_directional(pt, r, n):
    """De-traced directional moment r^(n) (.)n D_n M^(n), a solid harmonic in r.

    The degree-n harmonic projection of m_n at the points of a rule exact
    to degree 2n, (2n+1)/(4 pi) sum_k W_k L_n(r, rhat_k) m_n(rhat_k): for
    charges q at y it is n!/(2n-1)!! sum q |y|^n |r|^n P_n(rhat.yhat),
    homogeneous of degree n in r.
    """
    n, r = _integer(n, "moment order n", 0, pt.order - 1), _points(r, "directions r")
    rule = rule_for_expansion(n + 1)
    coef = np.zeros(n + 1)
    coef[n] = (2 * n + 1) / (4.0 * np.pi)
    moments = rule.weights * directional_moment(pt, rule.points, n)
    return _kernel_dot(r, rule.points, 1.0, coef, moments[None], False, 0.5, True)


def polytensor_from_expansion(exp):
    """Moments of the surface weights, M^(n) = sum_i w_i (R rhat_i)^(n)."""
    _require_kind(exp, "outer")
    pts = PointCharges(exp.surface_points - exp.center, exp.surface_weights)
    return moments_from_charges(pts, exp.order)


def expansion_from_polytensor(pt, R, rule):
    """Outer expansion whose de-traced moments reproduce the polytensor."""
    R = _radius(R)
    sigma = np.zeros(len(rule))
    for n in range(pt.order):
        lead = (2 * n + 1) / (4.0 * np.pi) * _double_factorial(2 * n - 1) / math.factorial(n)
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

    Text after a '#' and blank lines are ignored.  Malformed input raises
    a DomainError that names the offending line.
    """
    lines = list(_lines(text))
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
    for lineno, fields in lines[1:]:
        *ints, value = _numbers("polytensor", lineno, fields, 5)
        if any(v != int(v) for v in ints):
            raise DomainError("polytensor line %d: degree and exponents must be integers" % lineno)
        n, t = int(ints[0]), tuple(int(v) for v in ints[1:])
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
