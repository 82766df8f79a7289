"""Lebedev quadrature rules on the unit sphere.

Rules are loaded from text tables embedded in the package data (see
data/lebedev/README.md for the layout).  Weights are rescaled at load
time to sum to 4 pi, the measure of the unit sphere, so quadrature sums
directly approximate surface integrals.
"""
import itertools
from dataclasses import dataclass, field
from functools import cache, cached_property
from importlib import resources
from numbers import Integral

import numpy as np

from .errors import CapacityError, DomainError, UnsupportedOrderError
from .legendre import _integer, _real

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
    """Centrally symmetric unit-sphere point set with positive weights summing to 4 pi.

    The constructor checks the contract that every kernel sum relies on and
    raises a DomainError for any breach: real numbers (legendre._real), not
    strings, bools or complex numbers; points (N, 3), finite, each of norm 1
    within 1e-12; weights (N,), finite and positive, summing to 4 pi
    within 1e-12 relative; for every point an exact antipode with a
    bit-equal weight, which the kernel sums' folds rely on (legendre); and
    an integer exactness degree >= 0, kept as an int.  ``antipodes`` maps
    each point to its antipode, points[antipodes] == -points, matched by
    exact lexicographic sorts as in symmetries, so points however close are
    told apart.  Points, weights and antipodes are read-only.
    """

    points: np.ndarray          # (N, 3) unit vectors
    weights: np.ndarray         # (N,) positive, sum 4 pi
    exactness_degree: int
    antipodes: np.ndarray = field(init=False, repr=False)   # (N,) index of -points[i]

    def __post_init__(self):
        degree = _integer(self.exactness_degree, "rule exactness degree", 0)
        object.__setattr__(self, "exactness_degree", int(degree))
        points, weights = _real(self.points, "rule points"), _real(self.weights, "rule weights")
        if points.shape[1:] != (3,) or weights.shape != points.shape[:1]:
            raise DomainError("a rule needs points (N, 3) and weights (N,)")
        if not (np.all(np.isfinite(points)) and np.all(np.isfinite(weights))):
            raise DomainError("rule points and weights must be finite")
        with np.errstate(over="ignore"):   # huge points or weights fail the checks below
            off_sphere = np.any(np.abs(np.linalg.norm(points, axis=1) - 1.0) > 1e-12)
            total = weights.sum()
        if off_sphere:
            raise DomainError("rule points must be unit vectors")
        if not (np.all(weights > 0.0) and abs(total - 4.0 * np.pi) <= 4e-12 * np.pi):
            raise DomainError("rule weights must be positive and sum to 4 pi")
        anti = np.empty(len(points), dtype=np.intp)
        anti[_lexsort(-points)] = _lexsort(points)
        if not (np.array_equal(points[anti], -points) and np.array_equal(weights[anti], weights)):
            raise DomainError("every rule point needs an antipode with an equal weight")
        for name, value in (("points", points), ("weights", weights), ("antipodes", anti)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __len__(self):
        return len(self.weights)

    @cached_property
    def symmetries(self):
        """Signed axis permutations that map the rule onto itself, and their index maps.

        Returns (S, maps): S (h, 3, 3) holds the matrices, the identity first,
        and row k of maps (h, N) is the permutation of the points with
        points[maps[k]] == points @ S[k].T and weights[maps[k]] == weights,
        both compared exactly.  The embedded rules have all 48; a rule built
        by hand keeps those that hold exactly, at least {I, -I}.
        Built on first use, one of the 48 images at a time, so the peak is
        the kept maps and one (N, 3) image: the image sorted by its exact
        coordinates, lexicographically, lines up with the points so sorted.
        """
        order = _lexsort(self.points)
        kept, maps = [], []
        for axes in itertools.permutations(range(3)):
            for signs in itertools.product((1.0, -1.0), repeat=3):
                s = np.diag(signs)[list(axes)]
                image = self.points @ s.T                   # exact: entries are 0 and +-1
                m = np.empty(len(self), dtype=np.intp)
                m[_lexsort(image)] = order
                if (np.array_equal(self.points[m], image)
                        and np.array_equal(self.weights[m], self.weights)):
                    kept.append(s)
                    maps.append(m)
        return np.array(kept), np.array(maps)


def _lexsort(x):
    """The order of the points x (N, 3) sorted by x[:, 0], then x[:, 1], then x[:, 2], exactly."""
    return np.lexsort(x.T[::-1])


def _antipodal_reps(rule, maps, reps):
    """The reps of a symmetry group's orbits that stay reps once the antipode joins it.

    maps (h, N) and reps are the group's index maps and orbit reps, as
    _orbits gives them, or arange(N)[None] and arange(N) for the identity
    alone.  -I commutes with every signed axis permutation, so the joined
    orbit of rep j is its orbit and that of rule.antipodes[j], and j is
    kept if it is the smaller of the two reps.
    """
    first = np.empty(len(rule), dtype=np.intp)
    first[maps[:, reps]] = reps   # the rep of each point's orbit
    return reps[first[rule.antipodes[reps]] >= reps]


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

    Returns (k, m, reps).  rows.symmetries[1][k[t]] and cols.symmetries[1][m[t]]
    are the index maps (QuadratureRule.symmetries) of one permutation S_t on
    the points of ``rows`` and of ``cols``, one t per S_t that both rules
    hold and that fixes the offset d, compared exactly, the identity first.
    S_t maps d + a rows.points[i] onto d + a rows.points[row_map[i]] and
    b cols.points[j] onto b cols.points[col_map[j]] and keeps inner
    products, so an operator whose entry (i, j) depends on these points and on
    the normals rows.points[i] only through inner products, as the shifts
    and the flow rows do, has entry (row_map[i], col_map[j]) equal to entry
    (i, j): it need only be summed at reps, the smallest index of each
    orbit, ascending.  The embedded rules hold all 48, so d = 0 keeps 48,
    an offset along an axis 8, a body diagonal 6, a face diagonal 4,
    elsewhere in a coordinate plane 2 and anywhere else 1; a rule built by
    hand holds at least {I, -I}, and -I fixes d = 0 only.  The antipode,
    which flips only the sign of the odd degrees (legendre's row fold), joins
    these in the fits and shifts (_antipodal_reps) and doubles each group
    but that of d = 0, which holds it already.  Rules hash by identity; the caches,
    which keep them alive, match the matrices once per pair of rules and
    build reps once per subgroup.  No map is gathered here: each caller
    gathers the columns it needs, as holding every subgroup's (h, N) maps
    at once can take more memory than the rest of a flow solve.
    """
    k, m = _shared(rows, cols)
    fix = np.all(rows.symmetries[0][k] @ d == d, axis=1)
    k, m = k[fix], m[fix]
    return k, m, _reps(rows, tuple(k.tolist()))


def _offset_class(rows, cols, d):
    """The canonical offset of d for two rules, and the index maps that carry it back to d.

    Returns (c, row_map, col_map).  c is the largest image of d, in
    lexicographic order, under the signed axis permutations that both rules
    hold, compared exactly, as a tuple; row_map and col_map are the index
    maps on rows and cols of the first of them with S c = d.
    An operator as in _orbits then has entry (row_map[i], col_map[j]) at d
    equal to entry (i, j) at c: the blocks at the offsets of one class are
    index permutations of the block at c, and need only be summed at c.
    Rules that share only {I, -I} have the classes {d, -d}.
    """
    k, m = _shared(rows, cols)
    # the shared symmetries are a group, closed under inverses S^T, so d @ S,
    # the images S^T d, are all the images of d, and S c = d where S^T d = c
    images = (d @ rows.symmetries[0][k]).tolist()
    c = max(images)
    g = images.index(c)
    return tuple(c), rows.symmetries[1][k[g]], cols.symmetries[1][m[g]]


def available_orders():
    """Orders of the embedded rules, ascending."""
    return _ORDERS


def lebedev_rule(order):
    """Load the embedded Lebedev rule with the given exactness degree.

    An order that is not the integer order of an embedded rule, such as a
    float, a bool or an array, is an UnsupportedOrderError.
    """
    if not isinstance(order, Integral) or isinstance(order, bool) or order not in _ORDERS:
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
        _cache[order] = QuadratureRule(points=points, weights=weights, exactness_degree=order)
    return _cache[order]


def rule_for_expansion(p, min_order=None):
    """Smallest embedded rule exact to degree >= 2p-2.

    ``min_order`` pins the rule to at least that order, for experiments
    that fix one grid across several expansion orders.  p and min_order,
    when given, must be integers >= 1 (a DomainError otherwise).
    """
    need = max(2 * _integer(p, "order", 1) - 2,
               0 if min_order is None else _integer(min_order, "min_order", 1))
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
    broadcast arrays of non-negative integer exponents; any other exponent,
    a bool or a float included, is a DomainError that names it.
    """
    a, b, c = (_natural(name, e) for name, e in zip("abc", (a, b, c)))
    total = np.add(np.add(a, b), c)
    dfac = np.array([_double_factorial(k - 1) for k in range(np.max(total, initial=0) + 3)])
    even = np.where(np.arange(len(dfac)) % 2, 0.0, dfac)   # dfac[k] = (k-1)!!, 0 for odd k
    return (4.0 * np.pi * (even[a] * even[b] * even[c]) / dfac[total + 2])[()]


def _natural(name, value):
    """value as an integer array, or a DomainError naming it unless each entry is an integer >= 0.

    A bool, a float or a string is refused even where it compares equal to an integer.
    """
    e = np.asarray(value)
    if e.dtype.kind not in "iu" or np.any(e < 0):
        raise DomainError("exponent %s must be an integer >= 0, or an array of them, not %r"
                          % (name, value))
    return e


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
    if not isinstance(degree, Integral) or isinstance(degree, bool):
        raise DomainError("degree must be an integer, not %r" % (degree,))
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
