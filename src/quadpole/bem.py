"""Boundary quadratures on spheres and a multi-sphere potential-flow solver.

The single/double layer sums are exact for polynomial surface densities
of degree < p.  The flow solver fits the normal-velocity boundary condition
with each sphere's surface weights, by weighted least squares on a finer
fit rule, solved on the p_j^2 harmonic columns of each sphere's weights
(_harmonic_basis), the system's rank, by its normal equations.  Each row
of that system is a normal-derivative kernel sum, one scalar n.grad L per
pair, summed once per offset class, at one row point per orbit and over
half of each source rule, the classes that share a source rule and an
order packed into shared calls of at most one row block (_orbit_blocks);
boundary_error builds no matrix.
"""
import math
from dataclasses import dataclass
from functools import cache
from types import SimpleNamespace

import numpy as np

from .errors import ContractViolation, DomainError, GeometryError, SolverError
from .expansion import (SurfaceExpansion, _center, _half, _lines, _numbers, _radius,
                        _require_kind, _side_checked, _surface_set, _surface_sum)
from .legendre import (_BLOCK_PAIRS, _apart, _exponent, _integer, _kernel_dot, _normal_sums,
                       _points, _rescaled, kernel_matrix)
from .quadrature import QuadratureRule, _offset_class, _orbits, rule_for_expansion

__all__ = [
    "SphereBoundary",
    "FlowSolution",
    "single_layer_ext",
    "double_layer_ext",
    "single_layer_int",
    "double_layer_int",
    "jump_check",
    "outer_gradient",
    "solve_potential_flow",
    "boundary_error",
    "parse_scene",
]


@dataclass(frozen=True)
class SphereBoundary:
    """Rigidly translating sphere with its collocation rule."""

    center: np.ndarray
    radius: float
    velocity: np.ndarray
    rule: QuadratureRule
    order: int

    def __post_init__(self):
        _integer(self.order, "order", 1)
        object.__setattr__(self, "center", _center(self.center))
        object.__setattr__(self, "radius", _radius(self.radius))
        object.__setattr__(self, "velocity", _center(self.velocity, "velocity"))
        if self.rule.exactness_degree < 2 * self.order - 2:
            raise DomainError("rule exactness inadequate for order")

    @staticmethod
    def make(center, radius, velocity, order):
        return SphereBoundary(center, radius, velocity, rule_for_expansion(order), order)


@dataclass(frozen=True)
class FlowSolution:
    """Solved singularity weights, one outer expansion per sphere."""

    expansions: tuple
    residual_report: np.ndarray   # per-sphere RMS residual on the fit rule
    rank: int                     # columns of the solved system, sum_j p_j^2 (full rank)
    cond: float                   # largest over smallest singular value of that system


def single_layer_ext(exp, x):
    """Exterior single-layer potential; identical to the outer-expansion sum."""
    return _surface_sum(exp, x, np.ones(exp.order), True)


def double_layer_ext(exp, x):
    """Exterior double-layer potential, sum of (m/R) L_m terms."""
    return _surface_sum(exp, x, np.arange(exp.order) / exp.radius, True)


def single_layer_int(exp, y):
    """Interior single-layer potential, sum of L_m(y, R rhat_i) terms."""
    return _surface_sum(exp, y, np.ones(exp.order), False)


def double_layer_int(exp, y):
    """Interior double-layer potential, sum of -(m+1)/R L_m terms."""
    return _surface_sum(exp, y, -(np.arange(exp.order) + 1.0) / exp.radius, False)


def jump_check(exp, yhat):
    """R^2 (F_ext - F_int) at a surface point; equals 4 pi sigma there."""
    yhat = _points(yhat)
    if np.any(np.abs(_apart(yhat, 0.0, 1.0) - 1.0) > 1e-12):
        raise DomainError("surface direction must be a unit vector")
    y = exp.center + exp.radius * yhat
    f_ext = double_layer_ext(exp, y)
    f_int = double_layer_int(exp, y)
    return exp.radius ** 2 * (f_ext - f_int)


def outer_gradient(exp, x):
    """Gradient of the outer-expansion potential at exterior point(s) x.

    With grad_x L_k(a, x) = T_(k-1)(a, x) a - T_k(a, x) x (normal_kernel_sum),
    it is one lambda = 3/2 kernel sum over the folded surface set: against
    w a for degrees below p - 1, minus x times the sum against w.  w a is
    odd in a, so its fold rows are swapped.
    """
    _require_kind(exp, "outer")
    rel = _side_checked(exp, x, outside=True)
    # rel and R times 2^-e, so that both sums are combined before the
    # gradient, a length^-2, is scaled back by 2^-2e
    e = _exponent(rel, exp.radius)
    rel, R = np.ldexp(rel, -e), math.ldexp(exp.radius, -e)
    pts, fold = _surface_set(exp.rule, exp.surface_weights)   # rows w + w', w - w'
    coef = np.ones((exp.order, 2))
    coef[-1, 0] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):   # a gradient out of range is refused below
        W = np.concatenate([fold[::-1, :, None] * (R * pts), fold[:, :, None]], axis=2)
        sums = _kernel_dot(rel, pts, R, coef, W, True, 1.5, True)
        grad = sums[0, ..., :3] - rel * sums[1, ..., 3:]
    return _rescaled(grad, -2 * e, "gradients at coordinates near 2^%d" % e)


def _orbit_blocks(spheres, sources, rule):
    """Yield (i, j, sums, rows, targets, cols): block (i, j) of the flow rows, one row per orbit.

    Block (i, j) maps source j's surface weights to n.grad(Phi) at sphere i's
    points s.center + R rhat, with normals rhat, rhat the points of ``rule``:
    entry (targets[k, m], cols[k, s, b]) of the block is sums[s, rows][m, b],
    one k per symmetry.  A block depends on d = s.center - src.center, the
    two radii, the two rules and src.order only, so the sums are made once
    per offset class (quadrature._offset_class), at its canonical offset c,
    at the reps of the symmetries that fix c (quadrature._orbits) and from
    both points of each antipodal source pair (legendre._normal_sums); each
    block of the class composes targets and cols with its own class maps.

    The classes that share a source rule and an order share the calls of
    the sum too.  By the homogeneity n.grad_x L_k(r u, x) = r^-2 n.grad L_k(u, x/r),
    the set is the unit half source rule, a class's rows are (c + R rhat)/r
    and its normals rhat/r^2, the sum being linear in n.  The classes are
    packed, in order, into calls of at most one row block of the sum
    (_BLOCK_PAIRS pairs), so that few blocks run nearly empty; a class
    larger than a block is summed alone, in the blocks it needs.  ``sums``
    is the output of one call, and ``rows`` the slice of it that holds the
    class.
    """
    groups = {}
    for i, s in enumerate(spheres):
        for j, src in enumerate(sources):
            c, row_map, col_map = _offset_class(rule, src.rule, s.center - src.center)
            classes = groups.setdefault((src.rule, src.order), {})
            classes.setdefault((c, s.radius, src.radius), []).append((i, j, row_map, col_map))
    normals = rule.points
    for (src_rule, p), classes in groups.items():
        classes = [(key, _orbits(rule, src_rule, np.array(key[0])), members)
                   for key, members in classes.items()]
        half = _half(src_rule)
        idx = np.stack([half, src_rule.antipodes[half]])
        sizes = [len(reps) for _, (*_, reps), _ in classes]
        for run in _packs(classes, sizes, _BLOCK_PAIRS // len(half)):
            # seen from the source's center in units of its radius, as
            # (c + R rhat)/r, which each symmetry maps exactly
            x = np.concatenate([(np.array(c) + R * normals[reps]) / r
                                for (c, R, r), (*_, reps), _ in run])
            n = np.concatenate([normals[reps] * r ** -2 for (*_, r), (*_, reps), _ in run])
            sums = _normal_sums(src_rule.points[half], x[:, None, :], n[:, None, :],
                                np.ones(p), pair=True)
            start = 0
            for _, (k, m, reps), members in run:
                rows, start = slice(start, start + len(reps)), start + len(reps)
                targets = rule.symmetries[1][k[:, None], reps]
                cols = src_rule.symmetries[1][m[:, None, None], idx]
                for i, j, row_map, col_map in members:
                    yield i, j, sums, rows, row_map[targets], col_map[cols]


def _packs(items, sizes, cap):
    """Runs of consecutive items whose sizes sum to at most cap, or of one larger item."""
    run, total = [], 0
    for item, size in zip(items, sizes):
        if run and total + size > cap:
            yield run
            run, total = [], 0
        run.append(item)
        total += size
    if run:
        yield run


def _boundary_system(spheres, sources, rule, bases):
    """Rows n.grad(Phi) times the sources' bases, and right-hand side -n.v0, times sqrt(w).

    Row blocks follow the spheres and column blocks the columns of the
    sources' bases P_j (N_j, m_j): block (i, j) is the map from source j's
    surface weights to the rows at sphere i, times P_j, so AP @ z - b is
    sqrt(w) times the mismatch n.v0 + n.grad(Phi) of the weights P_j z_j.
    Identity bases give the full system.  Each block is projected as it is
    made, by one matmul per slab of about 2^14 of its entries, into a
    preallocated AP: row t of the block is gathered from the orbit sums of
    _orbit_blocks, at the rep m of one symmetry k with targets[k, m] = t,
    the entry in column cols[k, s, b] being sums[s, m, b].  So no
    N_j-column block is made.
    """
    normals, sqw = rule.points, np.sqrt(rule.weights)
    n = len(normals)
    cols = np.cumsum([0] + [P.shape[1] for P in bases])
    AP = np.empty((n * len(spheres), cols[-1]))
    owner = np.empty(n, dtype=np.intp)
    for i, j, sums, rows, targets, where in _orbit_blocks(spheres, sources, rule):
        h, reps = targets.shape
        width = sums.shape[2]
        owner[targets] = np.arange(h * reps).reshape(h, reps)   # one (k, m) reaching each row
        # offset[k, c]: the flat index in sums of the entry in column c, less m * width
        offset = np.empty((h, len(bases[j])), dtype=np.intp)
        offset[np.arange(h)[:, None], where.reshape(h, -1)] = (
            np.arange(len(sums))[:, None] * sums[0].size + rows.start * width
            + np.arange(width)).ravel()
        block = AP[i * n:(i + 1) * n, cols[j]:cols[j + 1]]
        step = max(1, _BLOCK_PAIRS // len(bases[j]))
        for t in range(0, n, step):
            k, m = np.divmod(owner[t:t + step], reps)
            block[t:t + step] = np.take(sums, m[:, None] * width + offset[k]) @ bases[j]
        block *= sqw[:, None]
    return AP, np.concatenate([-(normals @ s.velocity) * sqw for s in spheres])


def _rms_per_sphere(resid, rule):
    """Weighted RMS of the mismatch on each sphere's block of sqrt(w)-scaled rows."""
    return np.sqrt(np.sum(resid.reshape(-1, len(rule)) ** 2, axis=1) / np.sum(rule.weights))


@cache
def _harmonic_basis(rule, p):
    """Orthonormal basis (N, p^2), read-only, of the degree < p harmonics at rule's points.

    Surface weights w on the rule reach an order-p field only through their
    moments sum_b w_b Y_lm(rhat_b), l < p, so a flow block's rows lie in the
    range of Y, that is of kernel_matrix(rhat, rhat, p) = Y Y^T (the
    addition theorem), of rank p^2.  The basis is the eigenvectors of that
    matrix whose eigenvalues exceed 1e-10 of the largest.  A rule whose
    points cannot carry p^2 independent harmonics, such as one labelled with
    more exactness than it has, is refused.
    """
    K = kernel_matrix(rule.points[:, None, :], rule.points[None, :, :], p)
    lam, vec = np.linalg.eigh(K)
    basis = vec[:, lam > 1e-10 * lam[-1]]
    if basis.shape[1] != p * p:
        raise SolverError("a rule of %d points carries %d independent harmonics of degree "
                          "< %d, not the %d that order %d needs"
                          % (len(rule), basis.shape[1], p, p * p, p))
    basis.setflags(write=False)
    return basis


def _prescaled(spheres):
    """e, the largest radius in [2^(e-1), 2^e), and the items, centers and radii times 2^-e,
    as plain attribute holders: the items were validated when they were made."""
    e = _exponent(*(s.radius for s in spheres))
    return e, [SimpleNamespace(**{**vars(s), "center": np.ldexp(s.center, -e),
                                  "radius": math.ldexp(s.radius, -e)}) for s in spheres]


def solve_potential_flow(spheres):
    """Solve for surface weights enforcing n.v0 = -n.grad(Phi) on every sphere.

    Unknowns are the surface weights on each sphere's own rule; their field
    depends only on their p^2 degree < p moments, so the condition is met by
    weighted least squares on a fit rule fine enough that raising p can only
    shrink the minimized mismatch, solved on p^2 columns per sphere: sphere
    j's weights are P_j z_j, P_j its rule's harmonic basis.  The system A P
    has full column rank sum_j p_j^2 and A = (A P) P^T, so z from its normal
    equations gives the minimum-norm solution of the full system.  The Gram
    matrix G = (A P)^T (A P) is factored once, by np.linalg.solve, after
    its eigenvalues give cond, the ratio of A P's extreme singular values;
    a G whose smallest eigenvalue is not positive is a SolverError.  cond
    stays below 20 on every scene tested (spheres 0.01 apart included), so
    forming G costs at most cond^2 * 1e-16 relative, far below the
    truncation error.  It is solved on the scene _prescaled by 2^-e, and the
    weights, a length squared, are _rescaled by 2^2e: exact at any scale.
    """
    spheres = list(spheres)
    if not spheres:
        raise DomainError("at least one sphere required")
    for i in range(len(spheres)):
        for j in range(i + 1, len(spheres)):
            a, b = spheres[i], spheres[j]
            if _apart(a.center, b.center, 1.0) <= a.radius + b.radius:
                raise GeometryError("spheres %d and %d overlap" % (i, j))
    bases = [_harmonic_basis(s.rule, s.order) for s in spheres]
    fit_rule = rule_for_expansion(max(s.order for s in spheres), min_order=29)
    e, scaled = _prescaled(spheres)
    AP, b = _boundary_system(scaled, scaled, fit_rule, bases)
    G = AP.T @ AP
    try:
        lam = np.linalg.eigvalsh(G)
        if not lam[0] > 0.0:
            raise np.linalg.LinAlgError("smallest eigenvalue %r" % lam[0])
        z = np.linalg.solve(G, AP.T @ b)
    except np.linalg.LinAlgError as exc:
        raise SolverError("normal equations of the flow system are singular: %s" % exc) from exc
    cond = np.sqrt(lam[-1] / lam[0])
    if not (np.all(np.isfinite(z)) and np.isfinite(cond)):
        raise SolverError("non-finite solution from the boundary solve")
    harm = np.cumsum([0] + [P.shape[1] for P in bases])
    scale = "flow weights of spheres of radius near 2^%d" % e
    expansions = tuple(SurfaceExpansion(s.center, s.radius, s.rule,
                                        _rescaled(P @ zj, 2 * e, scale), s.order, "outer")
                       for s, P, zj in zip(spheres, bases, np.split(z, harm[1:-1])))
    return FlowSolution(expansions, _rms_per_sphere(AP @ z - b, fit_rule), len(z), float(cond))


def boundary_error(sol, spheres, reference_rule):
    """Weighted RMS of |n.v0 + n.grad(Phi)| per sphere on a finer rule.

    sol must hold one expansion per sphere, with its center and radius.
    No matrix is built: the sums of each block (_orbit_blocks) are
    contracted with the source weights they index and scattered to the
    rows, on the scene _prescaled as in the solve, the weights by 2^-2e.
    """
    spheres = list(spheres)
    if len(sol.expansions) != len(spheres) or not all(
            np.array_equal(e.center, s.center) and e.radius == s.radius
            for e, s in zip(sol.expansions, spheres)):
        raise ContractViolation("the solution must hold one expansion per sphere, "
                                "with the sphere's center and radius")
    mismatch = np.stack([reference_rule.points @ s.velocity for s in spheres])
    part = np.empty(len(reference_rule))
    e, sources = _prescaled(sol.expansions)   # each on its sphere, as checked above
    for i, j, sums, rows, targets, cols in _orbit_blocks(sources, sources, reference_rule):
        w = np.ldexp(sources[j].surface_weights[cols], -2 * e).transpose(1, 2, 0)
        part[targets] = np.matmul(sums[:, rows], w).sum(axis=0).T
        mismatch[i] += part
    return _rms_per_sphere(mismatch * np.sqrt(reference_rule.weights), reference_rule)


def parse_scene(text):
    """Parse a flow scene: one 'cx cy cz radius vx vy vz' line per sphere."""
    rows = []
    for lineno, fields in _lines(text):
        vals = _numbers("scene", lineno, fields, 7)
        if vals[3] <= 0.0:
            raise DomainError("scene line %d: radius must be positive" % lineno)
        rows.append((np.array(vals[:3]), vals[3], np.array(vals[4:])))
    return rows
