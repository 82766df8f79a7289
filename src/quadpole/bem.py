"""Boundary quadratures on spheres and a multi-sphere potential-flow solver.

The single/double layer sums are exact for polynomial surface densities
of degree < p.  The flow solver fits the normal-velocity boundary condition
with each sphere's surface weights, by weighted least squares on a finer
fit rule, cut at the system's rank sum_j p_j^2.  Each row of that system
is a normal-derivative kernel sum, one scalar n.grad L per pair; on a
sphere's own block (the source shares its center) it is the plain kernel
sum with coefficients -(k+1)/R, like every other layer operator.
"""
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GeometryError, SolverError
from .expansion import (SurfaceExpansion, _exterior_sum, _interior_sum, _lines, _numbers,
                        _require_kind, _side_checked)
from .legendre import grad_kernel_sum, kernel_sum, normal_kernel_sum
from .quadrature import QuadratureRule, rule_for_expansion

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
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        object.__setattr__(self, "velocity", np.asarray(self.velocity, dtype=float))
        if self.center.shape != (3,) or self.velocity.shape != (3,) or np.ndim(self.radius):
            raise DomainError("center and velocity must be 3-vectors and radius a scalar")
        if not (np.isfinite(self.radius) and np.all(np.isfinite(self.center))
                and np.all(np.isfinite(self.velocity))):
            raise DomainError("center, radius and velocity must be finite")
        if self.radius <= 0.0:
            raise DomainError("radius must be positive")
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
    rank: int                     # rank of the solved least-squares system
    cond: float                   # largest over smallest kept singular value


def single_layer_ext(exp, x):
    """Exterior single-layer potential; identical to the outer-expansion sum."""
    return _exterior_sum(exp, x, np.ones(exp.order))


def double_layer_ext(exp, x):
    """Exterior double-layer potential, sum of (m/R) L_m terms."""
    return _exterior_sum(exp, x, np.arange(exp.order) / exp.radius)


def single_layer_int(exp, y):
    """Interior single-layer potential, sum of L_m(y, R rhat_i) terms."""
    return _interior_sum(exp, y, np.ones(exp.order))


def double_layer_int(exp, y):
    """Interior double-layer potential, sum of -(m+1)/R L_m terms."""
    return _interior_sum(exp, y, -(np.arange(exp.order) + 1.0) / exp.radius)


def jump_check(exp, yhat):
    """R^2 (F_ext - F_int) at a surface point; equals 4 pi sigma there."""
    yhat = np.asarray(yhat, dtype=float)
    if np.any(np.abs(np.linalg.norm(yhat, axis=-1) - 1.0) > 1e-12):
        raise DomainError("surface direction must be a unit vector")
    y = exp.center + exp.radius * yhat
    f_ext = double_layer_ext(exp, y)
    f_int = double_layer_int(exp, y)
    return exp.radius ** 2 * (f_ext - f_int)


def outer_gradient(exp, x):
    """Gradient of the outer-expansion potential at exterior point(s) x."""
    _require_kind(exp, "outer")
    rel = _side_checked(exp, x, outside=True)
    G = grad_kernel_sum(exp.radius * exp.rule.points, rel[..., None, :], np.ones(exp.order))
    return np.tensordot(G, exp.surface_weights, axes=(-2, 0))


def _boundary_system(spheres, sources, rule):
    """Rows n.grad(Phi) and right-hand side -n.v0 at rule's points, times sqrt(w).

    Row blocks follow the spheres and column blocks the sources' surface
    weights, so A @ weights - b is sqrt(w) times the mismatch n.v0 + n.grad(Phi);
    each block is written into one preallocated A as it is made.
    Each row is a normal-derivative kernel sum, one scalar per pair.  Where
    the source shares the sphere's center, n = xhat and L_k(a, x) is
    homogeneous of degree -(k+1) in x, so the block is the plain kernel sum
    with coefficients -(k+1)/R.
    """
    normals, sqw = rule.points, np.sqrt(rule.weights)

    def block(s, src):
        a = src.radius * src.rule.points
        rel = (s.center + s.radius * normals - src.center)[:, None, :]
        if np.array_equal(s.center, src.center):
            return kernel_sum(a, rel, -(np.arange(src.order) + 1.0) / s.radius)
        return normal_kernel_sum(a, rel, normals[:, None, :], np.ones(src.order))

    n = len(normals)
    cols = np.cumsum([0] + [len(src.rule) for src in sources])
    A = np.empty((n * len(spheres), cols[-1]))
    for i, s in enumerate(spheres):
        for j, src in enumerate(sources):
            # the block dies after its scaled copy, so one block at a time is alive
            np.multiply(block(s, src), sqw[:, None],
                        out=A[i * n:(i + 1) * n, cols[j]:cols[j + 1]])
    return A, np.concatenate([-(normals @ s.velocity) * sqw for s in spheres])


def _rms_per_sphere(resid, rule):
    """Weighted RMS of the mismatch on each sphere's block of sqrt(w)-scaled rows."""
    return np.sqrt(np.sum(resid.reshape(-1, len(rule)) ** 2, axis=1) / np.sum(rule.weights))


def solve_potential_flow(spheres):
    """Solve for surface weights enforcing n.v0 = -n.grad(Phi) on every sphere.

    Unknowns are the surface weights on each sphere's own rule; their field
    has rank p^2 per sphere, so the condition is met by weighted least
    squares on a fit rule fine enough that raising p can only shrink the
    minimized mismatch.
    """
    spheres = list(spheres)
    if not spheres:
        raise DomainError("at least one sphere required")
    for i in range(len(spheres)):
        for j in range(i + 1, len(spheres)):
            sep = np.linalg.norm(spheres[i].center - spheres[j].center)
            if sep <= spheres[i].radius + spheres[j].radius:
                raise GeometryError("spheres %d and %d overlap" % (i, j))
    fit_rule = rule_for_expansion(max(s.order for s in spheres), min_order=29)
    A, b = _boundary_system(spheres, spheres, fit_rule)
    try:
        # A's singular values are those of the rank sum_j p_j^2 field map
        # (>= 5e-2 of the largest on the three-sphere scene) and roundoff
        # (<= 1e-15 of it); a cut inside that gap drops the roundoff directions.
        w, _, rank, sv = np.linalg.lstsq(A, b, rcond=1e-10)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - SVD did not converge
        raise SolverError("least-squares solve failed: %s" % exc) from exc
    if not np.all(np.isfinite(w)):
        raise SolverError("non-finite solution from the boundary solve")
    split = np.split(w, np.cumsum([len(s.rule) for s in spheres])[:-1])
    expansions = tuple(SurfaceExpansion(s.center, s.radius, s.rule, ws, s.order, "outer")
                       for s, ws in zip(spheres, split))
    return FlowSolution(expansions, _rms_per_sphere(A @ w - b, fit_rule), int(rank),
                        float(sv[0] / sv[rank - 1]))


def boundary_error(sol, spheres, reference_rule):
    """Weighted RMS of |n.v0 + n.grad(Phi)| per sphere on a finer rule."""
    A, b = _boundary_system(list(spheres), sol.expansions, reference_rule)
    w = np.concatenate([exp.surface_weights for exp in sol.expansions])
    return _rms_per_sphere(A @ w - b, reference_rule)


def parse_scene(text):
    """Parse a flow scene: one 'cx cy cz radius vx vy vz' line per sphere."""
    rows = []
    for lineno, fields in _lines(text):
        vals = _numbers("scene", lineno, fields, 7)
        if vals[3] <= 0.0:
            raise DomainError("scene line %d: radius must be positive" % lineno)
        rows.append((np.array(vals[:3]), vals[3], np.array(vals[4:])))
    return rows
