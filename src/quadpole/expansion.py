"""Surface expansions: fitting, evaluation, and interaction energies.

An expansion is stored as per-point weights w_i = w0_i * sigma(R rhat_i)
on a scaled, centered quadrature rule.  Outer expansions represent the
far field of enclosed sources; inner expansions represent the field of
exterior sources inside the sphere.
"""
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (ContractViolation, DomainError, GeometryError, SingularityError,
                     UnsupportedOrderError)
from .legendre import _row_blocks, kernel_matrix, kernel_sum
from .quadrature import QuadratureRule, lebedev_rule, rule_for_expansion

__all__ = [
    "PointCharges",
    "SurfaceExpansion",
    "fit_outer",
    "fit_inner",
    "eval_outer_potential",
    "eval_inner_potential",
    "eval_point_charge_potential",
    "interaction_energy",
    "energy_between_outers",
    "direct_potential",
    "direct_energy",
    "expansion_to_text",
    "expansion_from_text",
]

# Tolerance, relative to the radius, for "on the sphere" in the geometry checks.
_SLACK = 1e-12


@dataclass(frozen=True)
class PointCharges:
    """3D source positions with signed charges."""

    positions: np.ndarray   # (M, 3)
    charges: np.ndarray     # (M,)

    def __post_init__(self):
        pos = np.atleast_2d(np.asarray(self.positions, dtype=float))
        q = np.atleast_1d(np.asarray(self.charges, dtype=float))
        if pos.shape != (len(q), 3):
            raise DomainError("positions must be (M, 3) matching M charges")
        if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(q))):
            raise DomainError("positions and charges must be finite")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "charges", q)

    def __len__(self):
        return len(self.charges)

    @staticmethod
    def empty():
        return PointCharges(np.zeros((0, 3)), np.zeros(0))


@dataclass(frozen=True)
class SurfaceExpansion:
    """Multipole expansion as surface weights on a bounding sphere."""

    center: np.ndarray
    radius: float
    rule: QuadratureRule
    surface_weights: np.ndarray
    order: int
    kind: str                   # "outer" or "inner"
    diagnostics: dict = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind not in ("outer", "inner"):
            raise DomainError("kind must be 'outer' or 'inner'")
        if not (isinstance(self.order, (int, np.integer)) and self.order >= 1):
            raise DomainError("order must be an integer >= 1")
        if not (np.isfinite(self.radius) and self.radius > 0.0):
            raise DomainError("radius must be finite and positive")
        if self.rule.exactness_degree < 2 * self.order - 2:
            raise DomainError("rule exactness inadequate for expansion order")
        w = np.asarray(self.surface_weights, dtype=float)
        if w.shape != (len(self.rule),) or not np.all(np.isfinite(w)):
            raise DomainError("one finite surface weight per quadrature point required")
        center = np.asarray(self.center, dtype=float)
        if center.shape != (3,) or not np.all(np.isfinite(center)):
            raise DomainError("center must be a finite 3-vector")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "surface_weights", w)

    @property
    def surface_points(self):
        """Absolute positions center + R rhat_i, shape (N, 3)."""
        return self.center + self.radius * self.rule.points

    def __add__(self, other):
        _require_same_geometry(self, other)
        if self.kind != other.kind:
            raise ContractViolation("cannot add outer and inner expansions")
        return replace(self, surface_weights=self.surface_weights + other.surface_weights)


def _require_kind(exp, kind):
    if exp.kind != kind:
        raise ContractViolation("expected an %s expansion, got %s" % (kind, exp.kind))


def _require_same_geometry(a, b):
    same_rule = a.rule is b.rule or (np.array_equal(a.rule.points, b.rule.points)
                                     and np.array_equal(a.rule.weights, b.rule.weights))
    if (a.order != b.order or not same_rule
            or abs(a.radius - b.radius) > 1e-12 * max(a.radius, b.radius)
            or np.any(np.abs(a.center - b.center) > 1e-12 * (1.0 + np.abs(a.center)))):
        raise ContractViolation("expansions do not share center, radius, rule, and order")


def fit_outer(sources, center, R, p, rule=None):
    """Project enclosed sources onto surface weights of an order-p outer expansion."""
    if R <= 0.0:
        raise DomainError("bounding radius must be positive")
    rule = rule or rule_for_expansion(p)
    center = np.asarray(center, dtype=float)
    rel = (sources.positions - center) / R
    dist = np.linalg.norm(rel, axis=1)
    diag = {
        "n_sources_outside": int(np.sum(dist > 1.0)),
        "max_source_radius": float(dist.max(initial=0.0) * R),
    }
    return SurfaceExpansion(center=center, radius=R, rule=rule,
                            surface_weights=_project("outer", rel, sources.charges, rule, p),
                            order=p, kind="outer", diagnostics=diag)


def fit_inner(sources, center, R, p, rule=None):
    """Project exterior sources onto surface weights of an order-p inner expansion."""
    if R <= 0.0:
        raise DomainError("bounding radius must be positive")
    rule = rule or rule_for_expansion(p)
    center = np.asarray(center, dtype=float)
    rel = (sources.positions - center) / R
    dist = np.linalg.norm(rel, axis=1)
    if np.any(np.abs(dist - 1.0) <= 1e-12):
        raise SingularityError("source lies on the bounding sphere")
    diag = {
        "n_sources_inside": int(np.sum(dist < 1.0)),
        "min_source_radius": float(dist.min(initial=np.inf) * R),
    }
    return SurfaceExpansion(center=center, radius=R, rule=rule,
                            surface_weights=_project("inner", rel, sources.charges, rule, p),
                            order=p, kind="inner", diagnostics=diag)


def _project(kind, rel, charges, rule, p):
    """Surface weights of an order-p expansion of charges at unit-scaled positions rel."""
    pts = rule.points
    if kind == "outer":   # K(y/R, rhat_i): sources in rows, surface points in columns
        return rule.weights * (charges @ kernel_matrix(rel[:, None, :], pts[None, :, :], p))
    return rule.weights * (kernel_matrix(pts[:, None, :], rel[None, :, :], p) @ charges)


def _side_checked(exp, x, outside):
    """x - c for point(s) x on the sphere or on its outside (inside) side, else a GeometryError."""
    rel = np.asarray(x, dtype=float) - exp.center
    r = np.linalg.norm(rel, axis=-1)
    if np.any(r < (1.0 - _SLACK) * exp.radius if outside else r > (1.0 + _SLACK) * exp.radius):
        raise GeometryError("evaluation point %s the sphere, where the series diverges"
                            % ("inside" if outside else "outside"))
    return rel


def _exterior_sum(exp, x, coef):
    """sum_i w_i sum_n coef[n] L_n(R rhat_i, x - c), for x on or outside the sphere."""
    rel = _side_checked(exp, x, outside=True)
    return kernel_sum(exp.radius * exp.rule.points, rel[..., None, :], coef) @ exp.surface_weights


def _interior_sum(exp, y, coef):
    """sum_i w_i sum_n coef[n] L_n(y - c, R rhat_i), for y on or inside the sphere."""
    rel = _side_checked(exp, y, outside=False)
    return kernel_sum(rel[..., None, :], exp.radius * exp.rule.points, coef) @ exp.surface_weights


def eval_outer_potential(exp, x):
    """Potential of an outer expansion at exterior point(s) x."""
    _require_kind(exp, "outer")
    return _exterior_sum(exp, x, np.ones(exp.order))


def eval_inner_potential(exp, y):
    """Potential of an inner expansion at interior point(s) y."""
    _require_kind(exp, "inner")
    return _interior_sum(exp, y, np.ones(exp.order))


def eval_point_charge_potential(exp, x):
    """Potential from the surface weights treated as literal point charges."""
    return _coulomb(x, exp.surface_points, exp.surface_weights)


def interaction_energy(outer, inner):
    """Energy between the sources of a shared-sphere outer/inner pair."""
    _require_kind(outer, "outer")
    _require_kind(inner, "inner")
    _require_same_geometry(outer, inner)
    rhat = outer.rule.points
    M = kernel_sum(rhat[:, None, :], rhat[None, :, :], np.ones(outer.order))
    return float(outer.surface_weights @ M @ inner.surface_weights) / outer.radius


def energy_between_outers(a, b):
    """Coulomb energy of two disjoint outer expansions via their point charges."""
    sep = np.linalg.norm(a.center - b.center)
    if sep <= a.radius + b.radius:
        raise GeometryError("bounding spheres overlap")
    return float(a.surface_weights @ _coulomb(a.surface_points, b.surface_points,
                                              b.surface_weights))


def direct_potential(sources, x):
    """Brute-force Coulomb sum over the sources at point(s) x."""
    return _coulomb(x, sources.positions, sources.charges)


def direct_energy(a, b):
    """Brute-force double Coulomb sum between two charge sets."""
    return float(a.charges @ _coulomb(a.positions, b.positions, b.charges))


def _coulomb(x, positions, charges):
    """sum_j charges[j] / |x - positions[j]| at each point of x, shape (..., 3).

    The targets are summed in the kernel sums' row blocks of about 2^14
    pairs, inside two block-sized buffers, so no (targets, M) array is built.
    The squared distance is summed one component at a time, in the order
    np.linalg.norm adds them, and each block is one GEMV against the
    charges, so a target's sum is that of one unblocked sum wherever the
    BLAS groups its rows alike (OpenBLAS sums rows in fours; a row outside
    a full group can differ by a fraction of an ulp of sum |q|/r).  Blocks
    cut only the targets: a single target against more than 2^14 sources
    stays one block, as splitting the sources would change the summation
    order.
    """
    x = np.asarray(x, dtype=float)
    (n, m), blocks = _row_blocks(x.reshape(-1, 1, 3), positions)
    out = np.empty(n)
    if blocks:
        r2_buf, d_buf = np.empty((2, len(blocks[0][1]), m))
    for rows, xb, yb in blocks:
        r2, d = r2_buf[:len(xb)], d_buf[:len(xb)]
        np.subtract(xb[..., 0], yb[:, 0], out=r2)
        r2 *= r2
        for k in (1, 2):
            np.subtract(xb[..., k], yb[:, k], out=d)
            d *= d
            r2 += d
        dist = np.sqrt(r2, out=r2)
        if dist.min(initial=np.inf) < 1e-12:
            raise SingularityError("evaluation point coincides with a source point")
        np.matmul(np.reciprocal(dist, out=dist), charges, out=out[rows])
    return out.reshape(x.shape[:-1])[()]


def expansion_to_text(exp):
    """Serialize to the documented text format."""
    lines = [
        "quadpole-expansion kind=%s p=%d R=%.17g rule_order=%d center=%.17g,%.17g,%.17g"
        % ((exp.kind, exp.order, exp.radius, exp.rule.exactness_degree) + tuple(exp.center))
    ]
    for (x, y, z), w in zip(exp.rule.points, exp.surface_weights):
        lines.append("%.17g %.17g %.17g %.17g" % (x, y, z, w))
    return "\n".join(lines) + "\n"


def _lines(text):
    """Yield (line number, fields) for each line left non-blank once its '#' comment is cut."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split("#", 1)[0].split()
        if fields:
            yield lineno, fields


def _numbers(kind, lineno, fields, k):
    """The k finite floats of one line's fields, or a DomainError naming the line."""
    where = "%s line %d: " % (kind, lineno)
    if len(fields) != k:
        raise DomainError(where + "expected %d numbers, got %d" % (k, len(fields)))
    try:
        values = [float(v) for v in fields]
    except ValueError as exc:
        raise DomainError(where + str(exc)) from exc
    if not np.all(np.isfinite(values)):
        raise DomainError(where + "numbers must be finite")
    return values


def expansion_from_text(text):
    """Parse the output of :func:`expansion_to_text`.

    Text after a '#' and blank lines are ignored.  Malformed input raises
    a DomainError that names the offending line.
    """
    lines = list(_lines(text))
    if not lines or lines[0][1][0] != "quadpole-expansion":
        raise DomainError("not a serialized surface expansion")
    head_no = lines[0][0]
    try:
        fields = dict(item.split("=", 1) for item in lines[0][1][1:])
        rule = lebedev_rule(int(fields["rule_order"]))
        header = dict(center=[float(v) for v in fields["center"].split(",")],
                      radius=float(fields["R"]), order=int(fields["p"]), kind=fields["kind"])
    except (KeyError, ValueError, UnsupportedOrderError) as exc:
        raise DomainError("expansion line %d: bad or missing header field (%s)"
                          % (head_no, exc)) from exc
    data = np.reshape([_numbers("expansion", n, f, 4) for n, f in lines[1:]], (-1, 4))
    if len(data) != len(rule):
        raise DomainError("expansion line %d: the rule of order %d has %d points, but %d surface "
                          "lines follow" % (head_no, rule.exactness_degree, len(rule), len(data)))
    off = np.flatnonzero(~np.isclose(data[:, :3], rule.points, atol=1e-12).all(axis=1))
    if off.size:
        raise DomainError("expansion line %d: surface point %d does not match the embedded rule"
                          % (lines[1 + off[0]][0], off[0] + 1))
    try:
        return SurfaceExpansion(rule=rule, surface_weights=data[:, 3].copy(), **header)
    except DomainError as exc:
        raise DomainError("expansion line %d: %s" % (head_no, exc)) from exc
