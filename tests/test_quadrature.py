import hashlib
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import quadpole as qp
from quadpole.quadrature import _antipodal_reps, _orbits, sphere_monomial_integral


def test_rule_point_counts():
    assert len(qp.lebedev_rule(15)) == 86
    assert len(qp.lebedev_rule(59)) == 1202
    assert len(qp.lebedev_rule(3)) == 6


def test_order3_is_octahedron():
    rule = qp.lebedev_rule(3)
    assert np.allclose(np.sort(np.abs(rule.points).max(axis=1)), 1.0)
    assert np.allclose(rule.weights, 4 * np.pi / 6)
    assert qp.verify_exactness(rule, 3) < 1e-12


def test_rule_invariants():
    for order in qp.available_orders():
        rule = qp.lebedev_rule(order)
        assert np.allclose(np.linalg.norm(rule.points, axis=1), 1.0, atol=1e-12)
        assert abs(rule.weights.sum() - 4 * np.pi) < 1e-10
        assert rule.weights.min() > 0.0


def test_sha256sums_match_shipped_tables():
    # the manifest is the tables' provenance: it must cover exactly the
    # shipped rules and match every file byte for byte
    root = resources.files("quadpole.data") / "lebedev"
    lines = (root / "SHA256SUMS").read_text().splitlines()
    manifest = {name: digest for digest, name in map(str.split, lines)}
    expected = ["lebedev_%03d.txt" % order for order in qp.available_orders()]
    shipped = sorted(f.name for f in root.iterdir() if f.name.startswith("lebedev_"))
    assert sorted(manifest) == shipped == expected
    for name in shipped:
        assert hashlib.sha256((root / name).read_bytes()).hexdigest() == manifest[name], name


def test_unsupported_order():
    with pytest.raises(qp.UnsupportedOrderError, match="59"):
        qp.lebedev_rule(60)


@pytest.mark.parametrize("order", [np.array([15]), np.array([15, 17]), np.array(15), 15.0,
                                   True, "15", None])
def test_lebedev_rule_refuses_an_order_that_is_not_an_integer(order):
    # arrays, floats, bools and strings are a typed error, not a TypeError
    # (unhashable) or a ValueError (ambiguous truth value) from the lookup
    with pytest.raises(qp.UnsupportedOrderError, match="no embedded Lebedev rule"):
        qp.lebedev_rule(order)
    assert qp.lebedev_rule(np.int64(15)) is qp.lebedev_rule(15)


def test_rule_for_expansion():
    assert qp.rule_for_expansion(1).exactness_degree == 3
    assert qp.rule_for_expansion(8).exactness_degree == 15
    assert len(qp.rule_for_expansion(8)) == 86
    assert qp.rule_for_expansion(9).exactness_degree == 17
    with pytest.raises(qp.CapacityError):
        qp.rule_for_expansion(80)
    with pytest.raises(qp.DomainError):
        qp.rule_for_expansion(0)


def test_rule_for_expansion_min_order_override():
    assert qp.rule_for_expansion(3, min_order=15).exactness_degree == 15


@pytest.mark.parametrize("bad", [2.5, True, "3", None, 0, -1],
                         ids=["float", "bool", "str", "none", "zero", "negative"])
def test_rule_for_expansion_refuses_an_order_that_is_not_an_integer(bad):
    # p, and min_order when given, are checked like every other order
    with pytest.raises(qp.DomainError, match="integer >= 1"):
        qp.rule_for_expansion(bad)
    if bad is not None:
        with pytest.raises(qp.DomainError, match="integer >= 1"):
            qp.rule_for_expansion(3, min_order=bad)
    assert qp.rule_for_expansion(np.int64(3), min_order=np.int64(15)).exactness_degree == 15


@pytest.mark.parametrize("bad", [2.5, True, "3", None], ids=["float", "bool", "str", "none"])
def test_verify_exactness_refuses_a_degree_that_is_not_an_integer(bad):
    with pytest.raises(qp.DomainError, match="degree must be an integer"):
        qp.verify_exactness(qp.lebedev_rule(3), bad)
    assert qp.verify_exactness(qp.lebedev_rule(3), np.int64(3)) < 1e-12


def test_point_count_scaling():
    for p in range(1, 17):
        assert len(qp.rule_for_expansion(p)) <= 2 * p * p + 6


def test_monomial_integral_closed_form():
    assert sphere_monomial_integral(0, 0, 0) == pytest.approx(4 * np.pi)
    assert sphere_monomial_integral(1, 0, 0) == 0.0
    assert sphere_monomial_integral(2, 0, 0) == pytest.approx(4 * np.pi / 3)
    assert sphere_monomial_integral(2, 2, 2) == pytest.approx(4 * np.pi / 105)


@pytest.mark.parametrize("exponents, name", [
    ((-1, 0, 0), "a"), ((0, -2, 2), "b"), ((0, 0, 1.5), "c"), ((True, 0, 0), "a"),
    ((2, 2.0, 0), "b"), ((np.array([2, -1]), 0, 0), "a"), ((0, 0, np.array([2.0])), "c"),
    ((0, "2", 0), "b"), ((0, None, 0), "b"),
])
def test_monomial_integral_refuses_an_exponent_that_is_not_a_natural_number(exponents, name):
    # a negative exponent would index the factorial table from its end
    # (4 pi for (-1, 0, 0), 0 for (-2, 2, 0)); a float, a bool or a string
    # is refused too, each as a DomainError that names the exponent
    with pytest.raises(qp.DomainError, match="exponent %s must be an integer >= 0" % name):
        sphere_monomial_integral(*exponents)
    assert sphere_monomial_integral(np.int64(2), np.uint8(0), 0) \
        == sphere_monomial_integral(2, 0, 0)


def test_monomial_integral_is_elementwise():
    # every exponent triple of total degree <= 12, as arrays and one triple at a time
    a, b, c = np.array([(i, j, n - i - j) for n in range(13)
                        for i in range(n + 1) for j in range(n + 1 - i)]).T
    want = [sphere_monomial_integral(int(i), int(j), int(k)) for i, j, k in zip(a, b, c)]
    assert sphere_monomial_integral(a, b, c).tolist() == want
    assert sphere_monomial_integral(a[:, None], b[:, None], c[:, None]).tolist() \
        == [[w] for w in want]
    # a rule exact to degree 15 integrates them to roundoff
    rule = qp.lebedev_rule(15)
    x, y, z = rule.points.T
    quad = (x ** a[:, None] * y ** b[:, None] * z ** c[:, None]) @ rule.weights
    assert np.max(np.abs(quad - want)) <= 1e-13


def test_exactness_at_design_degree():
    assert qp.verify_exactness(qp.lebedev_rule(3), 0) <= 1e-12
    assert qp.verify_exactness(qp.lebedev_rule(15), 14) <= 1e-10


def test_exactness_fails_beyond_design_degree():
    assert qp.verify_exactness(qp.lebedev_rule(15), 16) > 1e-6


def test_exactness_degree_is_capped():
    # the probe degree reaches one past the highest embedded rule, and no further
    top = max(qp.available_orders()) + 1
    assert np.isfinite(qp.verify_exactness(qp.lebedev_rule(3), top))
    for degree in (-1, top + 1, 100000000):
        with pytest.raises(qp.DomainError, match="^degree must be in 0..%d$" % top):
            qp.verify_exactness(qp.lebedev_rule(15), degree)


@pytest.mark.parametrize("order", qp.available_orders())
def test_embedded_rules_have_48_exact_symmetries(order):
    rule = qp.lebedev_rule(order)
    S, maps = rule.symmetries
    assert S.shape == (48, 3, 3) and maps.shape == (48, len(rule))
    assert len({m.tobytes() for m in S}) == 48
    assert np.all(np.sort(np.abs(S), axis=1) == [[0, 0, 0], [0, 0, 0], [1, 1, 1]])
    assert np.array_equal(S[0], np.eye(3)) and np.array_equal(maps[0], np.arange(len(rule)))
    assert np.all(np.sort(maps, axis=1) == np.arange(len(rule)))   # each row a permutation
    for s, m in zip(S, maps):
        assert np.array_equal(rule.points[m], rule.points @ s.T)
        assert np.array_equal(rule.weights[m], rule.weights)


@pytest.mark.parametrize("order", qp.available_orders()[:-1])
def test_symmetry_maps_match_a_brute_force_search(order):
    # every image point against every point, compared exactly: each image
    # point of the 6- to 1202-point rules has exactly one match
    rule = qp.lebedev_rule(order)
    S, maps = rule.symmetries
    for s, m in zip(S, maps):
        match = rule.weights[:, None] == rule.weights
        for image_x, x in zip((rule.points @ s.T).T, rule.points.T):
            match &= image_x[:, None] == x
        assert np.all(match.sum(axis=1) == 1)
        assert np.array_equal(m, np.argmax(match, axis=1))


def test_symmetries_peak_memory_is_the_maps():
    # one image at a time: the peak is the kept maps and their stacking,
    # not the 49 images, keys and sorts of the 5810-point rule at once
    import tracemalloc
    rule = qp.lebedev_rule(131)
    fresh = qp.QuadratureRule(rule.points.copy(), rule.weights.copy(), 131)
    tracemalloc.start()
    try:
        S, maps = fresh.symmetries
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert maps.shape == (48, 5810)
    assert peak <= 3 * maps.nbytes


def lone_pair_rule(rule):
    """rule with the weights of a point that only the identity fixes and of its antipode
    scaled by 1.5, and every weight rescaled to sum to 4 pi."""
    a = np.abs(rule.points)
    lone = np.flatnonzero((a > 0).all(axis=1) & (a[:, 0] != a[:, 1]) & (a[:, 1] != a[:, 2])
                          & (a[:, 0] != a[:, 2]))[0]
    weights = rule.weights.copy()
    weights[[lone, rule.antipodes[lone]]] *= 1.5
    weights *= 4.0 * np.pi / weights.sum()
    return qp.QuadratureRule(rule.points.copy(), weights, rule.exactness_degree)


def test_hand_built_rules_keep_only_their_exact_symmetries():
    rule = qp.lebedev_rule(19)
    # turned about a generic axis, only the inversion, which commutes with
    # every rotation, still maps the points onto themselves exactly
    axis = np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0)
    k = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]], [-axis[1], axis[0], 0.0]])
    turn = np.eye(3) + np.sin(0.3) * k + (1.0 - np.cos(0.3)) * k @ k
    # summed per row alike, so that -x turns into exactly minus the turned x
    rotated = qp.QuadratureRule((rule.points[:, None, :] * turn).sum(axis=-1),
                                rule.weights.copy(), 19)
    S, maps = rotated.symmetries
    assert np.array_equal(S, [np.eye(3), -np.eye(3)])
    assert np.array_equal(rotated.points[maps[1]], -rotated.points)
    # a changed weight pair at a point that no symmetry but the identity
    # fixes and at its antipode leaves only {I, -I}
    S, maps = lone_pair_rule(rule).symmetries
    assert np.array_equal(S, [np.eye(3), -np.eye(3)])
    assert np.array_equal(maps, [np.arange(len(rule)), rule.antipodes])


def renormalised(weights):
    return weights * (4.0 * np.pi / weights.sum())


# (points, weights) of the 26-point rule -> an input that breaks the rule contract
MALFORMED = {
    "negated weights": lambda x, w: (x, -w),
    "a zero weight pair": lambda x, w: (x, renormalised(np.where(np.abs(x[:, 0]) == 1.0, 0.0, w))),
    "weights not summing to 4 pi": lambda x, w: (x, w * (1.0 + 1e-11)),
    "a NaN point": lambda x, w: (np.where(np.arange(len(x))[:, None] == 2, np.nan, x), w),
    "a NaN weight": lambda x, w: (x, np.where(np.arange(len(w)) == 2, np.nan, w)),
    "points (N, 2)": lambda x, w: (x[:, :2], w),
    "points (N, 3, 1)": lambda x, w: (x[..., None], w),
    "one weight too few": lambda x, w: (x, w[:-1]),
    "weights (N, 1)": lambda x, w: (x, w[:, None]),
    "no points": lambda x, w: (x[:0], w[:0]),
    "points off the sphere": lambda x, w: (x * (1.0 + 1e-11), w),
    "an odd point out": lambda x, w: (x[1:], renormalised(w[1:])),
    "an unequal weight pair": lambda x, w: (x, renormalised(w * np.where(np.arange(len(w)) == 0,
                                                                         1.5, 1.0))),
    "a point moved without its antipode": lambda x, w: (
        np.where(np.arange(len(x))[:, None] == 0, x[[0]] @ np.array([[0.6, 0.8, 0.0],
                                                                     [-0.8, 0.6, 0.0],
                                                                     [0.0, 0.0, 1.0]]), x), w),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_rules_that_break_the_contract_are_refused(case):
    # a rule is unit points with positive weights summing to 4 pi, each point
    # with an exact antipode of equal weight: the kernel sums fold every
    # point into its antipode, so anything else would be a silent wrong answer
    rule = qp.lebedev_rule(7)
    points, weights = MALFORMED[case](rule.points.copy(), rule.weights.copy())
    with pytest.raises(qp.DomainError):
        qp.QuadratureRule(points, weights, 7)


@pytest.mark.parametrize("case", ["string weights", "complex points", "bool points"])
def test_rules_take_real_numbers_only(case):
    # numeric strings would be parsed and complex points cast to their real
    # parts: each is refused, and the message names the argument
    rule = qp.lebedev_rule(7)
    points, weights, name = {
        "string weights": (rule.points, rule.weights.astype(str), "rule weights"),
        "complex points": (rule.points + 0j, rule.weights, "rule points"),
        "bool points": (rule.points != 0.0, rule.weights, "rule points"),
    }[case]
    with pytest.raises(qp.DomainError, match="^%s must be real numbers" % name):
        qp.QuadratureRule(points, weights, 7)


@pytest.mark.parametrize("degree", [2.5, "abc", True, False, -1, None, 7.0, np.float64(7)])
def test_exactness_degree_must_be_a_non_negative_integer(degree):
    # the degree decides which orders a rule may carry: a fraction, a word
    # or a bool would be compared as a number, or fail with a bare TypeError
    rule = qp.lebedev_rule(7)
    with pytest.raises(qp.DomainError, match="exactness degree"):
        qp.QuadratureRule(rule.points, rule.weights, degree)


@pytest.mark.parametrize("degree", [0, 7, np.int64(7), np.uint8(7), np.int32(0)])
def test_exactness_degree_may_be_a_numpy_integer(degree):
    rule = qp.lebedev_rule(7)
    built = qp.QuadratureRule(rule.points, rule.weights, degree)
    assert built.exactness_degree == degree and type(built.exactness_degree) is int


def test_rules_are_built_from_plain_lists():
    rule = qp.lebedev_rule(5)
    listed = qp.QuadratureRule(rule.points.tolist(), rule.weights.tolist(), 5)
    for name in ("points", "weights", "antipodes"):
        got = getattr(listed, name)
        assert np.array_equal(got, getattr(rule, name)) and not got.flags.writeable
    assert listed.points.dtype == listed.weights.dtype == float


def contract_holds(points, weights):
    """Whether (points, weights) meet the rule contract, checked apart from the code: the
    rows (x, y, z, w) sorted equal the rows (-x, -y, -z, w) sorted."""
    points, weights = np.asarray(points, dtype=float), np.asarray(weights, dtype=float)
    if points.shape[1:] != (3,) or weights.shape != points.shape[:1]:
        return False
    if not (np.all(np.isfinite(points)) and np.all(np.isfinite(weights))):
        return False
    rows = np.column_stack([points, weights])
    flipped = np.column_stack([-points, weights])
    return (np.all(np.abs(np.linalg.norm(points, axis=1) - 1.0) <= 1e-12)
            and np.all(weights > 0.0)
            and abs(weights.sum() / (4.0 * np.pi) - 1.0) <= 1e-12
            and np.array_equal(rows[np.lexsort(rows.T)], flipped[np.lexsort(flipped.T)]))


EDITS = st.sampled_from(["scale point", "set weight", "drop point", "negate point",
                         "swap points", "turn", "scale weights"])
FACTORS = st.sampled_from([1.0, -1.0, 0.0, 1.0 + 1e-13, 1.0 + 1e-11, 1.5, 1e308, np.nan, np.inf])


@settings(max_examples=150, deadline=None)
@np.errstate(over="ignore", invalid="ignore")   # inf * 0 and overflows are inputs too
def edited(rule, edits):
    """rule's points and weights, copied, after each (edit, index, factor) of edits, and
    whether they meet the contract."""
    points, weights = rule.points.copy(), rule.weights.copy()
    for edit, i, f in edits:
        i %= len(weights)
        if edit == "scale point":
            points[i] *= f
        elif edit == "set weight":
            weights[i] = f * weights[i]
        elif edit == "drop point":
            points, weights = np.delete(points, i, axis=0), np.delete(weights, i)
        elif edit == "negate point":
            points[i] = -points[i]
        elif edit == "swap points":
            points[[0, i]], weights[[0, i]] = points[[i, 0]], weights[[i, 0]]
        elif edit == "turn":   # a signed axis permutation keeps the contract
            points = -points[:, [1, 2, 0]] if f < 0 else points[:, [2, 0, 1]]
        else:
            weights = weights * f
    return points, weights, contract_holds(points, weights)


@settings(max_examples=150, deadline=None)
@given(order=st.sampled_from([3, 5, 7, 9]), edits=st.lists(st.tuples(EDITS, st.integers(0, 37),
                                                                     FACTORS), max_size=3),
       as_lists=st.booleans())
def test_random_rules_are_built_whole_or_refused(order, edits, as_lists):
    # an embedded rule edited at random: the rule is built, meeting every
    # invariant, exactly when the input meets the contract, and otherwise
    # refused with a DomainError
    points, weights, holds = edited(qp.lebedev_rule(order), edits)
    if as_lists:
        points, weights = points.tolist(), weights.tolist()
    try:
        built = qp.QuadratureRule(points, weights, order)
    except qp.DomainError:
        assert not holds
        return
    assert holds
    n = len(built.weights)
    assert built.points.shape == (n, 3) and built.antipodes.shape == (n,)
    assert np.all(np.abs(np.linalg.norm(built.points, axis=1) - 1.0) <= 1e-12)
    assert np.all(built.weights > 0.0)
    assert abs(built.weights.sum() - 4.0 * np.pi) <= 4e-12 * np.pi
    assert np.array_equal(built.points[built.antipodes], -built.points)
    assert np.array_equal(built.weights[built.antipodes], built.weights)
    assert not (built.points.flags.writeable or built.weights.flags.writeable
                or built.antipodes.flags.writeable)


def test_rules_compare_and_hash_by_identity():
    # the orbit caches key on rules, which hold arrays: == must not compare them
    rule = qp.lebedev_rule(7)
    copy = qp.QuadratureRule(rule.points.copy(), rule.weights.copy(), 7)
    assert rule == rule and rule != copy
    assert hash(rule) == hash(rule) and len({rule, copy}) == 2


def test_orbits_are_matched_once_per_rule_pair_and_subgroup():
    rows, cols = qp.lebedev_rule(29), qp.lebedev_rule(19)
    d = np.array([0.0, 2.0, 0.0])
    k, m, reps = axis = _orbits(rows, cols, d)
    assert len(k) == len(m) == 8
    # k and m index the same matrices in each rule's symmetries, each fixing d
    assert np.array_equal(rows.symmetries[0][k], cols.symmetries[0][m])
    assert np.all(rows.symmetries[0][k] @ d == d)
    # another offset fixed by the same 8 symmetries gets the same indices and
    # the same cached orbit representatives, which are read-only
    again = _orbits(rows, cols, np.array([0.0, 0.5, 0.0]))
    assert all(np.array_equal(a, b) for a, b in zip(axis, again)) and again[2] is reps
    with pytest.raises(ValueError):
        reps[0] = 1
    plane = _orbits(rows, cols, np.array([1.0, 2.0, 0.0]))
    assert len(plane[0]) == 2 and len(plane[2]) > len(reps)
    # a hand-built column rule with the embedded points is matched on its own:
    # a changed weight pair at a point that only the identity fixes and its
    # antipode leaves {I, -I}, and -I fixes only d = 0
    changed = lone_pair_rule(cols)
    assert len(_orbits(rows, cols, np.zeros(3))[0]) == 48
    k, m, _ = _orbits(rows, changed, np.zeros(3))
    assert np.array_equal(rows.symmetries[0][k], [np.eye(3), -np.eye(3)])
    assert np.array_equal(changed.symmetries[0][m], [np.eye(3), -np.eye(3)])
    assert len(_orbits(rows, changed, d)[0]) == 1


def test_every_embedded_rule_has_exact_antipodes():
    for order in qp.available_orders():
        rule = qp.lebedev_rule(order)
        anti = rule.antipodes
        assert anti.shape == (len(rule),) and anti.dtype == np.intp
        assert np.array_equal(rule.points[anti], -rule.points)
        assert np.array_equal(rule.weights[anti], rule.weights)
        assert np.array_equal(anti[anti], np.arange(len(rule)))
        assert np.all(anti != np.arange(len(rule)))
        # the map of -I among the symmetries, which the rule keeps read-only
        S, maps = rule.symmetries
        assert np.array_equal(maps[(S == -np.eye(3)).all(axis=(1, 2))], [anti])
        with pytest.raises(ValueError):
            anti[0] = 1


def test_points_however_close_are_matched_to_their_exact_antipodes():
    # the 26-point rule with one more antipodal pair 1e-8 from one of its
    # points, weights renormalised, in 20 point orders: coordinates rounded to
    # a grid would give the near pair one key and refuse the rule in most orders
    rule = qp.lebedev_rule(7)
    near = rule.points[3] + np.array([1e-8, -2e-8, 0.5e-8])
    near /= np.linalg.norm(near)
    points = np.concatenate([rule.points, [near, -near]])
    weights = np.append(rule.weights, [rule.weights[3]] * 2)
    weights *= 4.0 * np.pi / weights.sum()
    rng = np.random.default_rng(113)
    for _ in range(20):
        order = rng.permutation(len(points))
        built = qp.QuadratureRule(points[order], weights[order], 7)
        # each point against every point, compared exactly
        match = (-built.points[:, None, :] == built.points).all(axis=2)
        assert np.all(match.sum(axis=1) == 1)
        assert np.array_equal(built.antipodes, np.argmax(match, axis=1))


def test_fits_find_antipodes_without_the_symmetry_maps():
    # a rule keeps N integers for its antipodes, not the 48 maps of
    # QuadratureRule.symmetries, which fits and evaluations never build
    rule = qp.rule_for_expansion(9)
    copy = qp.QuadratureRule(rule.points.copy(), rule.weights.copy(), rule.exactness_degree)
    cloud = qp.PointCharges(np.array([[0.1, 0.2, -0.3]]), np.array([1.0]))
    exp = qp.fit_outer(cloud, np.zeros(3), 1.0, 9, rule=copy)
    qp.eval_outer_potential(exp, np.array([2.0, 0.0, 0.0]))
    assert np.array_equal(copy.antipodes, rule.antipodes) and "symmetries" not in vars(copy)


# shift vectors d and (points per orbit of the symmetries that fix d, the same
# with the antipode) on the 1202 points of the p = 30 rule
ORBIT_COUNTS = {"zero": ([0.0, 0.0, 0.0], 36, 36), "axis": ([0.0, -0.375, 0.0], 176, 91),
                "body": ([0.25, -0.25, 0.25], 231, 116), "face": ([0.25, 0.0, -0.25], 326, 171),
                "plane": ([0.3, 0.1, 0.0], 621, 311), "generic": ([0.3, -0.1, 0.2], 1202, 601)}


@pytest.mark.parametrize("shift", ORBIT_COUNTS)
def test_the_antipode_halves_the_orbit_reps_unless_the_group_holds_it(shift):
    d, count, folded = ORBIT_COUNTS[shift]
    rule = qp.lebedev_rule(59)
    k, _, reps = _orbits(rule, rule, np.array(d))
    maps = rule.symmetries[1][k]
    kept = _antipodal_reps(rule, maps, reps)
    assert (len(reps), len(kept)) == (count, folded)
    # the kept points, their images and the images' antipodes are every point,
    # each reached from one kept point only
    reached = np.union1d(maps[:, kept], rule.antipodes[maps[:, kept]])
    assert np.array_equal(reached, np.arange(len(rule)))
    assert sum(len(np.union1d(maps[:, j], rule.antipodes[maps[:, j]])) for j in kept) \
        == len(rule)


def test_orthogonality_identity():
    # quadrature form of the Legendre orthogonality relation on the sphere
    rng = np.random.default_rng(31)
    for p in (4, 8, 12):
        rule = qp.rule_for_expansion(p)
        for _ in range(20):
            xh, yh = rng.standard_normal((2, 3))
            xh /= np.linalg.norm(xh)
            yh /= np.linalg.norm(yh)
            px = np.stack([qp.legendre_poly(n, rule.points @ xh) for n in range(p)])
            py = np.stack([qp.legendre_poly(n, rule.points @ yh) for n in range(p)])
            gram = (px * rule.weights) @ py.T
            expect = np.zeros((p, p))
            for n in range(p):
                expect[n, n] = 4 * np.pi / (2 * n + 1) * qp.legendre_poly(n, xh @ yh)
            assert np.max(np.abs(gram - expect)) < 1e-9


def test_reproducing_property():
    # K acts as the identity on degree-<p polynomials sampled at the rule
    rng = np.random.default_rng(37)
    p = 8
    rule = qp.rule_for_expansion(p)
    for _ in range(20):
        dirs = rng.standard_normal((3, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        coefs = rng.standard_normal(3)
        degs = rng.integers(0, p, 3)

        def sigma(rh):
            return sum(c * qp.legendre_poly(int(n), rh @ d)
                       for c, n, d in zip(coefs, degs, dirs))

        xh = rng.standard_normal(3)
        xh /= np.linalg.norm(xh)
        approx = np.sum(rule.weights * sigma(rule.points)
                        * qp.kernel_matrix(xh, rule.points, p))
        assert approx == pytest.approx(sigma(xh[None, :])[0], abs=1e-9)
