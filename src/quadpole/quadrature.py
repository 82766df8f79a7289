"""Lebedev quadrature rules on the unit sphere.

Rules are loaded from text tables embedded in the package data (see
data/lebedev/README.md for the layout).  Weights are rescaled at load
time to sum to 4 pi, the measure of the unit sphere, so quadrature sums
directly approximate surface integrals.
"""
import itertools
from dataclasses import dataclass
from functools import cache, cached_property
from importlib import resources

import numpy as np

from .errors import CapacityError, DomainError, UnsupportedOrderError

__all__ = [
    "QuadratureRule",
    "available_orders",
    "lebedev_rule",
    "rule_for_expansion",
    "verify_exactness",
    "sphere_monomial_integral",
]

# orders of the embedded Lebedev-Laikov rules; 13, 25, and 27 are omitted
# because their published weights are not all positive
_ORDERS = (3, 5, 7, 9, 11, 15, 17, 19, 21, 23, 29, 31, 35, 41, 47, 53, 59, 131)

# highest degree verify_exactness probes: one past the highest embedded rule
MAX_PROBE_DEGREE = _ORDERS[-1] + 1

_cache = {}


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Unit-sphere point set with weights summing to 4 pi."""

    points: np.ndarray          # (N, 3) unit vectors
    weights: np.ndarray         # (N,) positive, sum 4 pi
    exactness_degree: int

    def __post_init__(self):
        self.points.setflags(write=False)
        self.weights.setflags(write=False)

    def __len__(self):
        return len(self.weights)

    @cached_property
    def symmetries(self):
        """Signed axis permutations that map the rule onto itself, and their index maps.

        Returns (S, maps): S (h, 3, 3) holds the matrices, the identity first,
        and row k of maps (h, N) is the permutation of the points with
        points[maps[k]] == points @ S[k].T and weights[maps[k]] == weights,
        both compared exactly.  The embedded rules have all 48; a rule built
        by hand keeps those that hold exactly, perhaps only the identity.
        Built on first use, one of the 48 images at a time, so the peak is
        the kept maps and one (N, 3) image: each point and each image point
        gets one integer key, its coordinates to 2^-19, and the image sorted
        by key lines up with the points sorted by key.
        """
        order = np.argsort(_keys(self.points))
        kept, maps = [], []
        for axes in itertools.permutations(range(3)):
            for signs in itertools.product((1.0, -1.0), repeat=3):
                s = np.diag(signs)[list(axes)]
                image = self.points @ s.T                   # exact: entries are 0 and +-1
                m = np.empty(len(self), dtype=np.intp)
                m[np.argsort(_keys(image))] = order
                if (np.array_equal(self.points[m], image)
                        and np.array_equal(self.weights[m], self.weights)):
                    kept.append(s)
                    maps.append(m)
        return np.array(kept), np.array(maps)


def _keys(x):
    """One integer key per point of x (N, 3), coordinates in [-1, 1]: those coordinates to 2^-19."""
    digits = np.rint((x + 1.0) * 2.0 ** 19).astype(np.int64)   # 0..2^20 each
    return (digits[:, 0] << 42) | (digits[:, 1] << 21) | digits[:, 2]


@cache
def _antipodes(rule):
    """Index of the point -rhat_i for each point rhat_i of rule, read-only, or None.

    None unless every point's antipode is a point of the rule with an equal
    weight, both compared exactly, and no point is its own antipode; every
    embedded rule is centrally symmetric.  Found as QuadratureRule.symmetries
    finds its maps, by one key sort of the points and of their negatives,
    but without building the 48 maps: the cache keeps N integers per rule.
    """
    anti = np.empty(len(rule), dtype=np.intp)
    anti[np.argsort(_keys(-rule.points))] = np.argsort(_keys(rule.points))
    if not (np.array_equal(rule.points[anti], -rule.points)
            and np.array_equal(rule.weights[anti], rule.weights)
            and np.all(anti != np.arange(len(rule)))):
        return None
    anti.setflags(write=False)
    return anti


def _antipodal_reps(rule, maps, reps):
    """One point of each orbit of a symmetry group joined with the antipode, and the antipode map.

    maps (h, N) are the index maps of signed axis permutations on the points
    of rule, closed under composition, and reps the smallest index of each
    of their orbits, as _orbits returns them; the identity alone is
    maps = arange(N)[None], reps = arange(N).  The antipode -I commutes with
    every signed axis permutation, so the orbit of a rep j under the group
    and -I is its own orbit joined to that of anti[j], and j is kept if it
    is the smaller of the two reps: of the N/h points, about N/2h remain,
    unless an orbit already holds its antipodes, as every orbit does where
    -I is in the group.  Returns (reps, anti), or (reps, None) unchanged for
    a rule without exact antipodes (_antipodes).
    """
    anti = _antipodes(rule)
    if anti is None:
        return reps, None
    first = np.empty(len(rule), dtype=np.intp)
    first[maps[:, reps]] = reps   # the rep of each point's orbit
    return reps[first[anti[reps]] >= reps], anti


@cache
def _shared(rows, cols):
    """Index pairs (k, m) of the symmetry matrices that rows and cols share."""
    return np.nonzero((rows.symmetries[0][:, None] == cols.symmetries[0][None]).all(axis=(2, 3)))


@cache
def _reps(rows, k):
    """Smallest point index of each orbit of rows' symmetries k (a tuple), read-only."""
    reps = np.flatnonzero(rows.symmetries[1][list(k)].min(axis=0) == np.arange(len(rows)))
    reps.setflags(write=False)
    return reps


def _orbits(rows, cols, d):
    """Signed axis permutations that two rules share and that fix d, and their orbits.

    Returns (row_maps, col_maps, reps).  Row k of row_maps and of col_maps is
    the index map (QuadratureRule.symmetries) of one permutation S_k on the
    points of ``rows`` and of ``cols``, one row per S_k that both rules hold
    and that fixes the offset d, compared exactly, the identity first.  S_k
    maps d + a rows.points[i] onto d + a rows.points[row_maps[k, i]] and
    b cols.points[j] onto b cols.points[col_maps[k, j]] and keeps inner
    products, so an operator whose entry (i, j) depends on these points and on
    the normals rows.points[i] only through inner products, as the kernel sums
    of the shifts and the flow rows do, has entry (row_maps[k, i],
    col_maps[k, j]) equal to entry (i, j): it need only be summed at reps, the
    smallest index of each orbit, ascending.  The embedded rules hold all 48,
    so d = 0 (a sphere's own block) keeps 48, an offset along an axis 8, a
    body diagonal 6, a face diagonal 4, elsewhere in a coordinate plane 2 and
    anywhere else 1; a rule built by hand may hold fewer.  The shifts join
    the antipode of the rows to these (_antipodal_reps), which does not fix
    d but only flips the sign of the odd degrees: 8 -> 16, 6 -> 12, 4 -> 8,
    2 -> 4 and 1 -> 2, while d = 0 keeps 48.  On the 1202 points of the
    p = 30 rule the kernel is then summed at 91, 116, 171, 311 and 601 rows
    instead of 176, 231, 326, 621 and 1202, and at 36 for d = 0.  The flow
    rows (bem._orbit_blocks) sum each block once per offset class
    (_offset_class), at the class's canonical offset, over one source point
    of each antipodal pair: the three spheres of demos/three_spheres.txt
    make 9 blocks in 5 classes, summed at 1490 rows of the 1202-point
    reference rule instead of 2944 and at 397 of the 302-point fit rule
    instead of 782, and 1.83 M pair-degrees over p = 2..8 instead of
    7.22 M.  Rules hash by identity; the caches, which keep them alive,
    match the matrices once per pair of rules and build reps once per
    subgroup.  The maps are gathered on each call: holding every
    subgroup's (h, N) maps would take 7 MB over the three-sphere flow at
    p = 2..8, more than that pass's 3.9 MB peak.
    """
    S, row_maps = rows.symmetries
    k, m = _shared(rows, cols)
    fix = np.all(S[k] @ d == d, axis=1)
    k, m = k[fix], m[fix]
    return row_maps[k], cols.symmetries[1][m], _reps(rows, tuple(k.tolist()))


def _offset_class(rows, cols, d):
    """The canonical offset of d for two rules, and the index maps that carry it back to d.

    Returns (c, row_map, col_map).  c is the largest image of d, in
    lexicographic order, under the signed axis permutations that both rules
    hold, compared exactly, as a tuple; row_map and col_map are the index
    maps on rows and cols of the inverse of the first of them with S d = c.
    An operator whose entry (i, j) at offset d depends on d + a rows.points[i],
    rows.points[i] and b cols.points[j] only through inner products (see
    _orbits) then has entry (row_map[i], col_map[j]) at d equal to entry
    (i, j) at c: blocks at the offsets of one class are index permutations
    of the block at c, and need only be summed at c.  A rule built by hand
    shares fewer symmetries, perhaps only the identity, whose classes hold
    one offset each.
    """
    S = rows.symmetries[0]
    k, m = _shared(rows, cols)
    images = (S[k] @ d).tolist()
    c = max(images)
    g = images.index(c)
    return tuple(c), _inverse(rows.symmetries[1][k[g]]), _inverse(cols.symmetries[1][m[g]])


def _inverse(perm):
    """The inverse of an index permutation."""
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm))
    return inv


def available_orders():
    """Orders of the embedded rules, ascending."""
    return _ORDERS


def lebedev_rule(order):
    """Load the embedded Lebedev rule with the given exactness degree."""
    if order not in _ORDERS:
        raise UnsupportedOrderError(
            "no embedded Lebedev rule of order %r; supported orders: %s"
            % (order, ", ".join(map(str, _ORDERS)))
        )
    if order not in _cache:
        name = "lebedev_%03d.txt" % order
        ref = resources.files("quadpole.data") / "lebedev" / name
        table = np.loadtxt(str(ref)).reshape(-1, 4)
        points = np.ascontiguousarray(table[:, :3])
        weights = table[:, 3] * (4.0 * np.pi)  # tables are normalized to 1
        if weights.min() <= 0.0:
            raise DomainError("embedded table for order %d has non-positive weights" % order)
        _cache[order] = QuadratureRule(points=points, weights=weights, exactness_degree=order)
    return _cache[order]


def rule_for_expansion(p, min_order=None):
    """Smallest embedded rule exact to degree >= 2p-2.

    ``min_order`` pins the rule to at least that order, for experiments
    that fix one grid across several expansion orders.
    """
    if p < 1:
        raise DomainError("expansion order must be positive")
    need = max(2 * p - 2, min_order or 0)
    for order in _ORDERS:
        if order >= need:
            return lebedev_rule(order)
    raise CapacityError(
        "no embedded rule of degree >= %d; maximum supported expansion order is %d"
        % (need, (_ORDERS[-1] + 2) // 2)
    )


def sphere_monomial_integral(a, b, c):
    """Closed-form integral of x^a y^b z^c over the unit sphere surface.

    Zero when any exponent is odd; otherwise
    4 pi (a-1)!! (b-1)!! (c-1)!! / (a+b+c+1)!!.  Elementwise over
    broadcast arrays of non-negative integer exponents.
    """
    total = np.add(np.add(a, b), c)
    dfac = np.array([_double_factorial(k - 1) for k in range(np.max(total, initial=0) + 3)])
    even = np.where(np.arange(len(dfac)) % 2, 0.0, dfac)   # dfac[k] = (k-1)!!, 0 for odd k
    return (4.0 * np.pi * (even[a] * even[b] * even[c]) / dfac[total + 2])[()]


@cache
def _double_factorial(n):
    """(n)!! as a float, with (-1)!! = 0!! = 1; exact in float64 up to 29!!."""
    out = 1.0
    while n > 1:
        out *= n
        n -= 2
    return out


def verify_exactness(rule, degree):
    """Max absolute quadrature error over all monomials of total degree <= degree.

    The degree may reach one past the highest embedded rule, MAX_PROBE_DEGREE.
    """
    if not 0 <= degree <= MAX_PROBE_DEGREE:
        raise DomainError("degree must be in 0..%d" % MAX_PROBE_DEGREE)
    x, y, z = rule.points.T
    expo = np.arange(degree + 1)
    px = x ** expo[:, None]          # (degree+1, N) power tables
    py = y ** expo[:, None]
    pz = z ** expo[:, None]
    worst = 0.0
    for a in range(degree + 1):
        d = degree - a
        wa = rule.weights * px[a]
        approx = (py[:d + 1] * wa) @ pz[:d + 1].T        # (b, c) table
        b, c = expo[:d + 1, None], expo[:d + 1]
        exact = sphere_monomial_integral(a, b, c)
        mask = b + c <= d
        worst = max(worst, np.max(np.abs(approx - exact)[mask]))
    return worst
