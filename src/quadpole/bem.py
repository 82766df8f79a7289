"""Boundary quadratures on spheres and a multi-sphere potential-flow solver.

The single/double layer sums are exact for polynomial surface densities
of degree < p.  The flow solver collocates the normal-velocity boundary
condition at each sphere's quadrature points, with surface weights as
the unknowns.
"""
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DomainError, GeometryError, SolverError
from .expansion import SurfaceExpansion, _exterior_sum, _interior_sum
from .legendre import grad_scaled_legendre_stack
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
        if self.radius <= 0.0:
            raise DomainError("radius must be positive")
        if self.rule.exactness_degree < 2 * self.order - 2:
            raise DomainError("rule exactness inadequate for order")
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        object.__setattr__(self, "velocity", np.asarray(self.velocity, dtype=float))

    @staticmethod
    def make(center, radius, velocity, order, rule=None):
        return SphereBoundary(center, radius, velocity,
                              rule or rule_for_expansion(order), order)


@dataclass(frozen=True)
class FlowSolution:
    """Solved singularity weights, one outer expansion per sphere."""

    expansions: tuple
    residual_report: np.ndarray   # per-sphere RMS collocation residual


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
    x = np.asarray(x, dtype=float)
    rel = x - exp.center
    a = exp.radius * exp.rule.points
    G = grad_scaled_legendre_stack(a, rel[..., None, :], exp.order)  # (p,...,N,3)
    return np.tensordot(np.sum(G, axis=0), exp.surface_weights, axes=(-2, 0))


def _check_disjoint(spheres):
    for i in range(len(spheres)):
        for j in range(i + 1, len(spheres)):
            sep = np.linalg.norm(spheres[i].center - spheres[j].center)
            if sep <= spheres[i].radius + spheres[j].radius:
                raise GeometryError("spheres %d and %d overlap" % (i, j))


def solve_potential_flow(spheres, fit_rule=None):
    """Solve for surface weights enforcing n.v0 = -n.grad(Phi) on every sphere.

    Unknowns are the surface weights on each sphere's own rule.  The
    boundary condition is enforced in the quadrature-weighted
    least-squares sense on ``fit_rule`` points scaled onto each sphere
    (the weight-to-field map has rank p^2 per sphere, so an exact
    square collocation solve does not exist in general).  The default
    fit rule is fine enough that enlarging the expansion order can only
    shrink the minimized boundary mismatch.
    """
    spheres = list(spheres)
    if not spheres:
        raise DomainError("at least one sphere required")
    _check_disjoint(spheres)
    if fit_rule is None:
        fit_rule = rule_for_expansion(max(s.order for s in spheres), min_order=29)
    counts = [len(s.rule) for s in spheres]
    offsets = np.concatenate([[0], np.cumsum(counts)])
    total = offsets[-1]
    nfit = len(fit_rule)
    A = np.empty((nfit * len(spheres), total))
    b = np.empty(nfit * len(spheres))
    sqw = np.sqrt(fit_rule.weights)
    normals = fit_rule.points
    for si, s in enumerate(spheres):
        r0, r1 = si * nfit, (si + 1) * nfit
        pts = s.center + s.radius * fit_rule.points
        b[r0:r1] = -(normals @ s.velocity) * sqw
        for sj, src in enumerate(spheres):
            a = src.radius * src.rule.points
            rel = pts[:, None, :] - src.center
            G = grad_scaled_legendre_stack(a, rel, src.order)   # (p, Ni, Nj, 3)
            block = np.einsum("nijk,ik->ij", G, normals)
            A[r0:r1, offsets[sj]:offsets[sj + 1]] = block * sqw[:, None]
    try:
        w, _, _, _ = scipy.linalg.lstsq(A, b, lapack_driver="gelsd")
    except Exception as exc:  # pragma: no cover - LAPACK failure
        raise SolverError("least-squares solve failed: %s" % exc) from exc
    if not np.all(np.isfinite(w)):
        raise SolverError("non-finite solution from the boundary solve")
    resid = A @ w - b
    report = np.array([
        np.sqrt(np.sum(resid[i * nfit:(i + 1) * nfit] ** 2) / np.sum(fit_rule.weights))
        for i in range(len(spheres))
    ])
    expansions = []
    for si, s in enumerate(spheres):
        expansions.append(SurfaceExpansion(
            center=s.center, radius=s.radius, rule=s.rule,
            surface_weights=w[offsets[si]:offsets[si + 1]].copy(),
            order=s.order, kind="outer"))
    return FlowSolution(expansions=tuple(expansions), residual_report=report)


def boundary_error(sol, spheres, reference_rule):
    """Weighted RMS of |n.v0 + n.grad(Phi)| per sphere on a finer rule."""
    spheres = list(spheres)
    errs = []
    for s in spheres:
        pts = s.center + s.radius * reference_rule.points
        normals = reference_rule.points
        grad = np.zeros_like(pts)
        for exp in sol.expansions:
            grad += outer_gradient(exp, pts)
        mismatch = normals @ s.velocity + np.sum(normals * grad, axis=1)
        errs.append(np.sqrt(np.sum(reference_rule.weights * mismatch ** 2)
                            / np.sum(reference_rule.weights)))
    return np.array(errs)


def parse_scene(text):
    """Parse a flow scene: one 'cx cy cz radius vx vy vz' line per sphere."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        parts = stripped.split()
        if len(parts) != 7:
            raise DomainError("scene line %d: expected 7 numbers, got %d"
                              % (lineno, len(parts)))
        try:
            vals = [float(v) for v in parts]
        except ValueError as exc:
            raise DomainError("scene line %d: %s" % (lineno, exc)) from exc
        if vals[3] <= 0.0:
            raise DomainError("scene line %d: radius must be positive" % lineno)
        rows.append((np.array(vals[:3]), vals[3], np.array(vals[4:])))
    return rows
