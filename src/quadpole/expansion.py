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
from .legendre import (_BLOCK_PAIRS, _aligned, _apart, _exponent, _integer, _kernel_dot,
                       _points, _real, _reproducing, _rescaled, _row_blocks, _source_dot, _top)
from .quadrature import QuadratureRule, _antipodal_reps, lebedev_rule, rule_for_expansion

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
        pos = np.atleast_2d(_real(self.positions, "positions"))
        q = np.atleast_1d(_real(self.charges, "charges"))
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
        _integer(self.order, "order", 1)
        object.__setattr__(self, "radius", _radius(self.radius))
        if self.rule.exactness_degree < 2 * self.order - 2:
            raise DomainError("rule exactness inadequate for expansion order")
        object.__setattr__(self, "center", _center(self.center))
        w = _real(self.surface_weights, "surface weights")
        if w.shape != (len(self.rule),) or not np.all(np.isfinite(w)):
            raise DomainError("one finite surface weight per quadrature point required")
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


def _center(center, name="center"):
    """center as a float array, or a DomainError that calls it name unless a finite 3-vector."""
    center = _real(center, name)
    if center.shape != (3,) or not np.all(np.isfinite(center)):
        raise DomainError("%s must be a finite 3-vector" % name)
    return center


def _radius(R, divisor=False):
    """R as a float, or a DomainError unless it is one finite, positive real number.

    A divisor, a radius that positions are divided by, as in fits and
    shifts, must have a finite reciprocal too: it is at least 2^-1024.
    """
    R = np.asarray(R)
    if R.shape != () or R.dtype.kind not in "iuf" or not (np.isfinite(R) and R > 0.0):
        raise DomainError("radius must be finite and positive")
    if divisor and R <= 2.0 ** -1024:   # 1 / R is 2^1024 or more
        raise DomainError("radius %r is too small: its reciprocal overflows float64" % float(R))
    return float(R)


def _in_radii(positions, center, R):
    """(positions - center) / R, or a DomainError naming R where a quotient leaves float64."""
    with np.errstate(over="ignore"):
        rel = (positions - center) / R
    if not np.all(np.isfinite(rel)):
        raise DomainError("radius %r is too small: positions divided by it leave float64" % R)
    return rel


def _require_kind(exp, kind):
    if exp.kind != kind:
        raise ContractViolation("expected an %s expansion, got %s" % (kind, exp.kind))


def _same_rule(a, b):
    return a is b or (np.array_equal(a.points, b.points) and np.array_equal(a.weights, b.weights))


def _require_same_geometry(a, b):
    if (a.order != b.order or not _same_rule(a.rule, b.rule)
            or abs(a.radius - b.radius) > 1e-12 * max(a.radius, b.radius)
            or np.any(np.abs(a.center - b.center) > 1e-12 * (1.0 + np.abs(a.center)))):
        raise ContractViolation("expansions do not share center, radius, rule, and order")


def fit_outer(sources, center, R, p, rule=None):
    """Project enclosed sources onto surface weights of an order-p outer expansion."""
    return _fit("outer", sources, center, R, [p], rule)[0]


def fit_inner(sources, center, R, p, rule=None):
    """Project exterior sources onto surface weights of an order-p inner expansion."""
    return _fit("inner", sources, center, R, [p], rule)[0]


def _fit(kind, sources, center, R, orders, rule=None, R_in=None):
    """Expansions of one kind of the sources at each of orders, all on one rule.

    The rule defaults to the one the largest order needs.  The orders share
    one kernel sum: order p's coefficients (2n+1)/(4 pi), n < p, zero-padded
    to the largest order, are one coefficient set of legendre._source_dot,
    so each order's weights equal those of a fit at that order alone to
    rounding.

    The kind "twin" fits the sources and their Kelvin inversion
    y -> c + R^2 (y - c) / |y - c|^2 in the sphere (center, R) in the same
    sum, and returns two lists: the outer expansions of the sources on that
    sphere and the inner expansions of the inversion on the sphere of
    radius R_in about c.  The inversion keeps each direction from c and puts
    a source at unit-scaled distance a = |y - c| / R at (R / R_in) / a in
    radii R_in, so its inner terms are the sources' (R_in / R)^(n+1)
    a^(n+1) P_n(t): coefficient sets (2n+1)/(4 pi) (R_in / R)^(n+1), with
    the radial factor "kelvin", beside the outer sets, which stay those of
    an outer fit alone bit for bit.  Each list keeps its kind's checks and
    diagnostics.
    """
    R = _radius(R, divisor=True)
    rule = rule or rule_for_expansion(max(orders))
    center = _center(center)
    rel = _in_radii(sources.positions, center, R)
    dist = _apart(sources.positions, center, R)
    degrees = np.arange(max(orders))[:, None]
    coef = np.where(degrees < orders, _reproducing(len(degrees))[:, None], 0.0)   # (p, K)
    if kind != "twin":
        fits = [(kind, R, _fit_diagnostics(kind, dist, R))]   # kind, radius, diagnostics
    else:
        R_in = _radius(R_in, divisor=True)
        with np.errstate(divide="ignore", over="ignore"):   # a source at c goes to infinity
            fits = [("outer", R, _fit_diagnostics("outer", dist, R)),
                    ("inner", R_in, _fit_diagnostics("inner", R / R_in / dist, R_in))]
        coef = np.hstack([coef, coef * (R_in / R) ** (degrees + 1.0)])
    del dist   # not held through the source sum
    radial = ("outer", "kelvin") if kind == "twin" else kind
    weights = _project(radial, rel, sources.charges, rule, coef)
    # each expansion owns its weights: a view would hold every set's rows
    out = [[SurfaceExpansion(center=center, radius=radius, rule=rule, surface_weights=w.copy(),
                             order=p, kind=k, diagnostics=dict(diag))
            for p, w in zip(orders, ws)]
           for (k, radius, diag), ws in zip(fits, np.split(weights, len(fits)))]
    return out if kind == "twin" else out[0]


def _fit_diagnostics(kind, dist, R):
    """The diagnostics of a fit of sources at distances dist, in radii R, or a
    SingularityError where an inner fit's source lies on the sphere."""
    if kind == "outer":
        return {"n_sources_outside": int(np.sum(dist > 1.0)),
                "max_source_radius": float(dist.max(initial=0.0) * R)}
    if np.any(np.abs(dist - 1.0) <= 1e-12):
        raise SingularityError("source lies on the bounding sphere")
    return {"n_sources_inside": int(np.sum(dist < 1.0)),
            "min_source_radius": float(dist.min(initial=np.inf) * R)}


def _project(radial, rel, charges, rule, coef, group=None, reps=None):
    """Surface weights W_j sum_i charges[i] K(rel_i, rhat_j) of a fit on rule.

    rel holds the sources' unit-scaled positions (M, 3) and charges (M,) their
    charges.  K is the kernel sum with the per-degree coefficients coef (p,),
    (2n+1)/(4 pi) for an order-p fit, or coefficient sets (p, K), which
    give K rows of weights (K, N), and radial names the radial factor of
    every set, or of each run of sets, as in legendre._source_dot: "outer",
    "inner" or "kelvin".  It is one legendre._source_dot, which contracts
    over the sources, at one point of each antipodal pair, whose antipode
    takes legendre's row fold.

    A shift, whose sources are the rule's own points, passes group, the
    indices of the symmetries that fix its offset, with reps one point per
    orbit (quadrature._orbits).  The charges are permuted by each
    symmetry's index map t, q_t(i) = charges[t(i)]: the sum at t(j) is the
    sum at j against q_t, so the kernel is summed at
    quadrature._antipodal_reps only and scattered to the orbits.  The
    maps (h, N) are let go before the kernel sum, which keeps only the
    permuted charges (h, N).
    """
    if group is None:
        maps, reps = np.arange(len(rule))[None], np.arange(len(rule))
    else:
        maps = rule.symmetries[1][group]
        charges = charges[maps]
    reps = _antipodal_reps(rule, maps, reps)
    at = maps[:, reps]
    del maps
    sums = _source_dot(rel, rule.points[reps], coef, charges, radial)
    # (2,) + sets + h + (reps,), as sets + at.shape
    sets = np.shape(coef)[1:]
    even, odd = sums.reshape((2,) + sets + at.shape)
    weights = np.empty(sets + (len(rule),))
    # the antipodes first, so that an orbit holding its own antipodes keeps even + odd
    weights[..., rule.antipodes[at]] = rule.weights[reps] * (even - odd)
    weights[..., at] = rule.weights[reps] * (even + odd)
    return weights


def _side_checked(exp, x, outside):
    """x - c for point(s) x on the sphere or on its outside (inside) side, else a GeometryError."""
    x = _points(x)
    _require_side(_apart(x, exp.center, exp.radius), _apart(exp.center, 0.0, exp.radius), outside)
    return x - exp.center


def _require_side(r, c, outside):
    """A GeometryError unless distances r, in radii, put points on the sphere or outside (inside).

    "On the sphere" allows the slack _SLACK plus the rounding of a point
    c + R rhat made in absolute coordinates, 4 eps (c + 1), with c = |c| / R.
    """
    band = _SLACK + 4.0 * np.finfo(float).eps * (c + 1.0)
    if np.any(r < 1.0 - band if outside else r > 1.0 + band):
        raise GeometryError("evaluation point %s the sphere, where the series diverges"
                            % ("inside" if outside else "outside"))


def _surface_sum(exp, x, coef, outside):
    """sum_i w_i sum_n coef[n] L_n at point(s) x and the surface points c + R rhat_i.

    L_n(R rhat_i, x - c) for x on or outside the sphere (outside), else
    L_n(x - c, R rhat_i) for x on or inside it.  coef may be K sets (p, K)
    (legendre._kernel_dot); the result then has shape (K,) + x.shape[:-1].
    """
    rel = _side_checked(exp, x, outside)
    pts, w = _surface_set(exp.rule, exp.surface_weights)
    return _kernel_dot(rel, pts, exp.radius, coef, w, outside, 0.5, True)


def _half(rule):
    """One point i of each antipodal pair i, rule.antipodes[i] of the rule, as indices."""
    return np.flatnonzero(rule.antipodes > np.arange(len(rule)))


def _surface_set(rule, weights):
    """The unit points rhat_i and weights (2, B) + h that the surface sums run over.

    weights holds h weights per rule point, shape (N,) + h.  The set is one
    point i of each antipodal pair i, i' = rule.antipodes[i], with the set
    fold's rows w_i + w_i' and w_i - w_i' (legendre): a row that overflows
    is an inf, which the kernel sum over the set refuses (legendre._rescaled).
    """
    half = _half(rule)
    w, w_anti = weights[half], weights[rule.antipodes[half]]
    folded = np.empty((2,) + w.shape)
    with np.errstate(over="ignore"):
        np.add(w, w_anti, out=folded[0])
        np.subtract(w, w_anti, out=folded[1])
    return rule.points[half], folded


def _sums_on_rule(exps, at, rho, coef=None):
    """Sums of expansions that share a rule, an order and a kind at c_k + rho R_k rhat_j.

    rhat_j runs over the points of the rule ``at``.  exps is an iterable
    of K expansions, read once, so that a caller may make them one at a
    time: only their weights are kept.  coef, by default ones (the
    potential), holds per-degree coefficients (p,) or sets (p,) + sets, as
    in legendre._kernel_dot, and the result has shape sets + (K, len(at)).

    As L_n(rho R e, R rhat) = L_n(rho e, rhat) / R, the K sums share one
    geometry, the unit points of their rule against rho rhat_j, and are
    one _kernel_dot with the K weight sets, set-folded (_surface_set), as
    weight columns, column k divided by R_k.  The call runs at one point of
    each antipodal pair of ``at``, whose antipode takes the row fold,
    even - odd, as in _project.  The targets are rho radii from the
    centers, as rule points are unit vectors, and rho must put them on the
    side of the sphere where the series converges, with the slack of
    _side_checked.
    """
    first, weights, radii = None, [], []
    for exp in exps:
        first = exp if first is None else first
        if (exp.order != first.order or exp.kind != first.kind
                or not _same_rule(exp.rule, first.rule)):
            raise ContractViolation("expansions summed together must share rule, order and kind")
        weights.append(exp.surface_weights)
        radii.append(exp.radius)
    if first is None:
        raise ContractViolation("no expansions to sum")
    outer = first.kind == "outer"
    _require_side(rho, 0.0, outer)
    pts, w = _surface_set(first.rule, np.stack(weights, axis=-1))   # w: (2, B, K)
    del weights
    half = _half(at)
    coef = np.ones(first.order) if coef is None else coef
    sums = _kernel_dot(rho * at.points[half], pts, 1.0, coef, w, outer)
    sums /= radii   # (2,) + sets + (len(half), K)
    even, odd = np.moveaxis(sums, -1, -2)
    out = np.empty(even.shape[:-1] + (len(at),))
    out[..., half] = even + odd
    out[..., at.antipodes[half]] = even - odd
    return out


def eval_outer_potential(exp, x):
    """Potential of an outer expansion at exterior point(s) x."""
    _require_kind(exp, "outer")
    return _surface_sum(exp, x, np.ones(exp.order), True)


def eval_inner_potential(exp, y):
    """Potential of an inner expansion at interior point(s) y."""
    _require_kind(exp, "inner")
    return _surface_sum(exp, y, np.ones(exp.order), False)


def eval_point_charge_potential(exp, x):
    """Potential from the surface weights treated as literal point charges."""
    return _coulomb(x, exp.surface_points, exp.surface_weights)


def interaction_energy(outer, inner):
    """Energy between the sources of a shared-sphere outer/inner pair: the inner
    expansion summed at the outer's weighted surface points, taken relative to
    the center (c + R rhat_i would round off the sphere), by _sums_on_rule, so
    folded on both sides: half the rule's points against half its points."""
    _require_kind(outer, "outer")
    _require_kind(inner, "inner")
    _require_same_geometry(outer, inner)
    return float(outer.surface_weights @ _sums_on_rule([inner], outer.rule, 1.0)[0])


def energy_between_outers(a, b):
    """Coulomb energy of two disjoint outer expansions via their point charges."""
    _require_kind(a, "outer")
    _require_kind(b, "outer")
    if _apart(a.center, b.center, 1.0) <= a.radius + b.radius:
        raise GeometryError("bounding spheres overlap")
    return float(a.surface_weights @ _coulomb(a.surface_points, b.surface_points,
                                              b.surface_weights))


def direct_potential(sources, x):
    """Brute-force Coulomb sum over the sources at point(s) x."""
    return _coulomb(x, sources.positions, sources.charges)


def direct_energy(a, b):
    """Brute-force double Coulomb sum between two charge sets."""
    return float(a.charges @ _coulomb(a.positions, b.positions, b.charges))


def _coulomb_scale(*arrays):
    """e, the coincidence distance and the arrays times 2^-e, as the Coulomb sums run on them.

    With s the largest |coordinate| of the arrays, the scale of the call, in
    [2^(e-1), 2^e) (legendre._exponent), no squared distance leaves
    float64, and a target within 1e-12 s 2^-e of a source at the scaled
    coordinates coincides with it.  The sums, times 2^e there, leave through
    legendre._rescaled.
    """
    e = _exponent(*arrays)
    scaled = [np.ldexp(a, -e) for a in arrays]
    return e, 1e-12 * max(map(_top, scaled)), scaled


def _coulomb(x, positions, charges):
    """sum_j charges[j] / |x - positions[j]| at each point of x, shape (..., 3).

    charges has shape (M,) or (M, h), for h charge sets at the same
    positions, and the result has shape x.shape[:-1] + charges.shape[1:].
    The targets are summed in the kernel sums' row blocks of about 2^14
    pairs, inside two block arrays from legendre._aligned, so no
    (targets, M) array is built.
    The squared distance is summed one component at a time, in the order
    np.linalg.norm adds them, from one contiguous (3, M) copy of the
    positions, and each block is one GEMV (GEMM for h sets) against the
    charges, so a target's sum is that of one unblocked sum wherever the
    BLAS groups its rows alike (OpenBLAS sums rows in fours; a row outside
    a full group, or a column of a GEMM, can differ by a fraction of an
    ulp of sum |q|/r).  Blocks cut only the targets: a single target
    against more than 2^14 sources stays one block, as splitting the
    sources would change the summation order.  A block costs 11 array
    passes; targets on rays r u from the origin are cheaper in
    :func:`_coulomb_rays`.  The sum runs on the coordinates scaled by
    2^-e (_coulomb_scale), and a target within 1e-12 of the call's
    coordinate scale of a source is a SingularityError.
    """
    e, tol, (x, positions) = _coulomb_scale(_points(x), positions)
    (n, m), blocks = _row_blocks(x.reshape(-1, 1, 3), positions)
    src = np.ascontiguousarray(np.transpose(positions), dtype=float)   # (3, M)
    out = np.empty((n,) + charges.shape[1:])
    if blocks:
        r2_buf, d_buf = _aligned(2, (len(blocks[0][1]), m))
    with np.errstate(over="ignore", invalid="ignore"):   # a sum out of range is refused below
        for rows, xb, _ in blocks:
            r2, d = r2_buf[:len(xb)], d_buf[:len(xb)]
            np.subtract(xb[..., 0], src[0], out=r2)
            r2 *= r2
            for k in (1, 2):
                np.subtract(xb[..., k], src[k], out=d)
                d *= d
                r2 += d
            dist = np.sqrt(r2, out=r2)
            if dist.min(initial=np.inf) <= tol:
                raise SingularityError("evaluation point coincides with a source point")
            np.matmul(np.reciprocal(dist, out=dist), charges, out=out[rows])
    out = _rescaled(out, -e, "Coulomb sums at coordinates near 2^%d" % e)
    return out.reshape(x.shape[:-1] + charges.shape[1:])[()]


def _coulomb_rays(directions, radii, positions, charges):
    """sum_j charges[j] / |r u - positions[j]| at targets r u on rays from the origin.

    The targets are each radius r of radii (K,) along each unit vector u of
    directions (D, 3); charges has shape (M,) or (M, h), as in
    :func:`_coulomb`, and the result has shape (K, D) + charges.shape[1:].
    With a = u.s, the squared distance of r u from a source s is
    (r - a)^2 + |s - a u|^2: the directions are taken in blocks, a is one
    matmul per block and |s - a u|^2 is summed once per block, one component
    at a time, so a radius costs six array passes, (r - a)^2 + |s - a u|^2,
    its square root and reciprocal, and one GEMV (GEMM for h sets) against
    the charges.  Neither term cancels, as |x|^2 + |s|^2 - 2 x.s would near
    a source.  The three block arrays, from legendre._aligned, hold
    2 * 2^14 / 3 pairs, so they take no more memory than _coulomb's two.
    The sums agree with _coulomb's at r u to rounding, not bit for bit.

    Next to a source, r - a cancels after a has rounded by an ulp of |s|,
    so a pair closer than 2^-16 max(r, |s|) is summed as |r u - s|, one
    component at a time, as _coulomb sums it.  As that distance is at least
    |s - a u| and |r - |s||, such a pair is looked for only in a block where
    some |s - a u| is that small, and only at a radius within a factor
    1 - 2^-16 of the range of |s|.  The distance is compared with the
    coincidence distance of _coulomb_scale, on the scale of the radii and the
    sources, only in a block where some |s - a u| is below it.  As in
    _coulomb, the sum runs on the radii and sources scaled by 2^-e.
    """
    charges = np.asarray(charges, dtype=float)
    e, tol, (radii, positions) = _coulomb_scale(radii, positions)   # directions are unit
    src = np.ascontiguousarray(np.transpose(positions), dtype=float)   # (3, M)
    m = src.shape[1]
    out = np.empty((len(radii), len(directions)) + charges.shape[1:])
    s2 = src[0] * src[0] + src[1] * src[1] + src[2] * src[2]
    # |r u - s| >= |r - |s||, so a pair is close only at a radius in (low, high)
    low = (1.0 - 2.0 ** -16) * np.sqrt(s2.min(initial=np.inf))
    high = np.sqrt(s2.max(initial=0.0)) / (1.0 - 2.0 ** -16)
    step = max(1, 2 * _BLOCK_PAIRS // (3 * max(1, m)))
    a_buf, perp_buf, d_buf = _aligned(3, (min(step, len(directions)), m))
    with np.errstate(over="ignore", invalid="ignore"):   # a sum out of range is refused below
        for start in range(0, len(directions), step):
            u = directions[start:start + step]
            a, perp, d = a_buf[:len(u)], perp_buf[:len(u)], d_buf[:len(u)]
            np.matmul(u, src, out=a)
            np.multiply(a, u[:, :1], out=perp)
            np.subtract(src[0], perp, out=perp)
            perp *= perp
            for k in (1, 2):
                np.multiply(a, u[:, k:k + 1], out=d)
                np.subtract(src[k], d, out=d)
                d *= d
                perp += d
            gap = perp.min(initial=np.inf)
            near, close = gap <= tol * tol, gap < (2.0 ** -16 * high) ** 2
            for k, r in enumerate(radii):
                np.subtract(r, a, out=d)
                d *= d
                d += perp
                if close and low < r < high:
                    i, j = np.nonzero(d < 2.0 ** -32 * np.maximum(r * r, s2))
                    d[i, j] = sum((r * u[i, c] - src[c, j]) ** 2 for c in range(3))
                dist = np.sqrt(d, out=d)
                if near and dist.min(initial=np.inf) <= tol:
                    raise SingularityError("evaluation point coincides with a source point")
                np.matmul(np.reciprocal(dist, out=dist), charges, out=out[k, start:start + len(u)])
    return _rescaled(out, -e, "Coulomb sums at coordinates near 2^%d" % e)


def expansion_to_text(exp):
    """Serialize to the documented text format."""
    header = ("quadpole-expansion kind=%s p=%d R=%.17g rule_order=%d center=%.17g,%.17g,%.17g\n"
              % ((exp.kind, exp.order, exp.radius, exp.rule.exactness_degree)
                 + tuple(exp.center)))
    rows = np.column_stack([exp.rule.points, exp.surface_weights]).ravel().tolist()
    return header + ("%.17g %.17g %.17g %.17g\n" * len(exp.rule)) % tuple(rows)


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
