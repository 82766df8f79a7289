"""Shift operators between expansion centers and radii.

Every shift refits the old expansion's surface weights, taken as point
charges at its surface points, onto the new sphere: the same kernel
projection that ``fit_outer`` and ``fit_inner`` apply to point charges.
"""
from dataclasses import replace

import numpy as np

from .errors import ContractViolation, GeometryError
from .expansion import _project

__all__ = ["shift_outer", "outer_to_inner", "shift_inner"]

_SLACK = 1e-12


def _require_kind(src, kind):
    if src.kind != kind:
        raise ContractViolation("expected a %s expansion, got %s" % (kind, src.kind))


def _refit(src, kind, new_center, new_R):
    """Fit the old weights, as charges at the old surface points, on the new sphere."""
    rel = (src.surface_points - new_center) / new_R
    weights = _project(kind, rel, src.surface_weights, src.rule, src.order)
    return replace(src, center=new_center, radius=new_R, surface_weights=weights,
                   kind=kind, diagnostics=None)


def shift_outer(src, new_center, new_R):
    """Outer -> outer shift; the source sphere must fit inside the new one."""
    _require_kind(src, "outer")
    new_center = np.asarray(new_center, dtype=float)
    t = np.linalg.norm(new_center - src.center)
    if t + src.radius > new_R + _SLACK:
        raise GeometryError("source sphere not contained in the new sphere")
    return _refit(src, "outer", new_center, new_R)


def outer_to_inner(src, new_center, new_R):
    """Outer -> inner shift (multipole-to-local translation)."""
    _require_kind(src, "outer")
    new_center = np.asarray(new_center, dtype=float)
    dist = np.linalg.norm(src.surface_points - new_center, axis=1) / new_R
    bad = np.nonzero(dist <= 1.0 + 1e-9)[0]
    if bad.size:
        raise GeometryError(
            "kernel argument reaches the unit sphere at source points %s" % bad.tolist()
        )
    return _refit(src, "inner", new_center, new_R)


def shift_inner(src, new_center, new_R):
    """Inner -> inner shift; the new sphere must fit inside the old one."""
    _require_kind(src, "inner")
    new_center = np.asarray(new_center, dtype=float)
    t = np.linalg.norm(new_center - src.center)
    if t + new_R > src.radius + _SLACK:
        raise GeometryError("new sphere not contained in the old sphere")
    return _refit(src, "inner", new_center, new_R)
