"""Shift operators between expansion centers and radii.

Every shift refits the old expansion's surface weights, taken as point
charges at its surface points, onto the new sphere: the same kernel
projection that ``fit_outer`` and ``fit_inner`` apply to point charges,
summed once per symmetry orbit (see ``_refit``).
"""
from dataclasses import replace

import numpy as np

from .errors import GeometryError
from .expansion import _SLACK, _center, _in_radii, _project, _radius, _require_kind
from .legendre import _apart, _reproducing
from .quadrature import _orbits

__all__ = ["shift_outer", "outer_to_inner", "shift_inner"]


def _refit(src, kind, new_center, new_R):
    """Fit the old weights, as charges at the old surface points, on the new sphere.

    The old points seen from the new center are rel_i = d + R rhat_i, with
    d = src.center - new_center.  The kernel is summed once per orbit of
    the symmetries that fix d (quadrature._orbits) and the antipode,
    against the weights permuted by each symmetry (expansion._project).
    """
    k, _, reps = _orbits(src.rule, src.rule, src.center - new_center)
    rel = _in_radii(src.surface_points, new_center, new_R)
    weights = _project(kind, rel, src.surface_weights, src.rule, _reproducing(src.order), k, reps)
    return replace(src, center=new_center, radius=new_R, surface_weights=weights,
                   kind=kind, diagnostics=None)


def shift_outer(src, new_center, new_R):
    """Outer -> outer shift; the source sphere must fit inside the new one."""
    _require_kind(src, "outer")
    new_center, new_R = _center(new_center), _radius(new_R, divisor=True)
    if _apart(new_center, src.center, 1.0) + src.radius > (1.0 + _SLACK) * new_R:
        raise GeometryError("source sphere not contained in the new sphere")
    return _refit(src, "outer", new_center, new_R)


def outer_to_inner(src, new_center, new_R):
    """Outer -> inner shift (multipole-to-local translation)."""
    _require_kind(src, "outer")
    new_center, new_R = _center(new_center), _radius(new_R, divisor=True)
    # a point too far to divide by new_R is far outside: _refit refuses it
    bad = np.nonzero(_apart(src.surface_points, new_center, new_R) <= 1.0 + _SLACK)[0]
    if bad.size:
        raise GeometryError(
            "kernel argument reaches the unit sphere at source points %s" % bad.tolist()
        )
    return _refit(src, "inner", new_center, new_R)


def shift_inner(src, new_center, new_R):
    """Inner -> inner shift; the new sphere must fit inside the old one."""
    _require_kind(src, "inner")
    new_center, new_R = _center(new_center), _radius(new_R, divisor=True)
    if _apart(new_center, src.center, 1.0) + new_R > (1.0 + _SLACK) * src.radius:
        raise GeometryError("new sphere not contained in the old sphere")
    return _refit(src, "inner", new_center, new_R)
