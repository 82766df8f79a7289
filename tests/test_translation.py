import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from test_bem import hand_built_scene, nudged_rule, three_sphere_scene

import quadpole as qp
from quadpole import legendre
from quadpole.expansion import _fit, _sums_on_rule
from quadpole.legendre import _reproducing, _source_dot, _terms
from quadpole.quadrature import _orbits


def random_cloud(rng, n, scale=0.5, offset=(0.0, 0.0, 0.0)):
    pos = rng.uniform(-scale, scale, (n, 3)) + np.asarray(offset)
    return qp.PointCharges(pos, rng.uniform(-1, 1, n))


def eval_dirs():
    return qp.lebedev_rule(15).points


def test_shift_outer_identity():
    rng = np.random.default_rng(83)
    cloud = random_cloud(rng, 30)
    e = qp.fit_outer(cloud, np.zeros(3), 1.0, 8)
    same = qp.shift_outer(e, e.center, e.radius)
    assert np.allclose(same.surface_weights, e.surface_weights, atol=1e-10)


def test_shift_inner_identity():
    rng = np.random.default_rng(89)
    cloud = random_cloud(rng, 30, offset=(5.0, 0.0, 0.0))
    e = qp.fit_inner(cloud, np.zeros(3), 1.0, 8)
    same = qp.shift_inner(e, e.center, e.radius)
    assert np.allclose(same.surface_weights, e.surface_weights, atol=1e-10)


def test_shift_outer_vs_direct_fit():
    rng = np.random.default_rng(97)
    p = 8
    t = np.array([0.4, 0.0, 0.0])
    cloud = random_cloud(rng, 50, scale=0.3, offset=t)
    moved = qp.fit_outer(cloud, t, 0.6, p)
    shifted = qp.shift_outer(moved, np.zeros(3), 1.0)
    direct = qp.fit_outer(cloud, np.zeros(3), 1.0, p, rule=moved.rule)
    x = 3.0 * eval_dirs()
    exact = qp.direct_potential(cloud, x)
    err_shift = np.mean(np.abs(qp.eval_outer_potential(shifted, x) - exact))
    err_direct = np.mean(np.abs(qp.eval_outer_potential(direct, x) - exact))
    assert err_shift <= 2.0 * err_direct + 1e-14


def test_shift_outer_containment():
    e = qp.fit_outer(qp.PointCharges.empty(), np.zeros(3), 1.0, 4)
    with pytest.raises(qp.GeometryError):
        qp.shift_outer(e, np.array([0.5, 0.0, 0.0]), 1.0)
    qp.shift_outer(e, np.array([0.5, 0.0, 0.0]), 1.5)  # touching is allowed


def test_outer_to_inner_two_charge():
    d = 6.0
    src = qp.PointCharges(np.array([[0.0, 0.0, 0.0]]), np.array([1.0]))
    p = 8
    outer = qp.fit_outer(src, np.zeros(3), 1.0, p)
    inner = qp.outer_to_inner(outer, np.array([0.0, 0.0, d]), 1.0)
    x = np.array([0.0, 0.0, d]) + 0.5 * eval_dirs()
    exact = qp.direct_potential(src, x)
    err = np.max(np.abs(qp.eval_inner_potential(inner, x) - exact))
    assert err < 2.0 * (1.5 / (d - 1.0)) ** p


def test_outer_to_inner_rejects_overlap():
    outer = qp.fit_outer(qp.PointCharges.empty(), np.zeros(3), 1.0, 4)
    with pytest.raises(qp.GeometryError):
        qp.outer_to_inner(outer, np.array([1.5, 0.0, 0.0]), 1.0)
    with pytest.raises(qp.GeometryError):   # tangent spheres
        qp.outer_to_inner(outer, np.array([2.0, 0.0, 0.0]), 1.0)
    # a gap of 1e-10 of the radius is enough
    qp.outer_to_inner(outer, np.array([2.0 + 1e-10, 0.0, 0.0]), 1.0)


def test_shift_inner_converges_with_order():
    # the shift aliases the parent's discarded degrees, so its accuracy is set
    # by the touching-sphere geometry; it should still converge rapidly in p
    rng = np.random.default_rng(101)
    cloud = random_cloud(rng, 40, scale=0.4, offset=(6.0, 0.0, 0.0))
    t = np.array([0.3, 0.0, 0.0])
    errs = []
    for p in (3, 6, 9):
        big = qp.fit_inner(cloud, np.zeros(3), 1.0, p)
        small = qp.shift_inner(big, t, 0.5)
        x = t + 0.4 * eval_dirs()
        exact = qp.direct_potential(cloud, x)
        errs.append(np.mean(np.abs(qp.eval_inner_potential(small, x) - exact)))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-4


def test_shift_inner_containment():
    e = qp.fit_inner(qp.PointCharges.empty(), np.zeros(3), 1.0, 4)
    with pytest.raises(qp.GeometryError):
        qp.shift_inner(e, np.array([0.8, 0.0, 0.0]), 0.5)
    qp.shift_inner(e, np.array([0.5, 0.0, 0.0]), 0.5)  # touching is allowed


def test_shift_preserves_kind_and_order():
    e = qp.fit_outer(qp.PointCharges.empty(), np.zeros(3), 1.0, 5)
    s = qp.shift_outer(e, np.zeros(3), 2.0)
    assert s.kind == "outer" and s.order == 5 and s.radius == 2.0
    i = qp.outer_to_inner(e, np.array([4.0, 0.0, 0.0]), 1.0)
    assert i.kind == "inner" and i.order == 5


def test_kind_mismatch_rejected():
    e = qp.fit_inner(qp.PointCharges.empty(), np.zeros(3), 1.0, 5)
    with pytest.raises(qp.ContractViolation):
        qp.shift_outer(e, np.zeros(3), 2.0)
    o = qp.fit_outer(qp.PointCharges.empty(), np.zeros(3), 1.0, 5)
    with pytest.raises(qp.ContractViolation):
        qp.shift_inner(o, np.zeros(3), 0.5)
    with pytest.raises(qp.ContractViolation):
        qp.outer_to_inner(e, np.array([4.0, 0.0, 0.0]), 1.0)


def test_error_grows_with_shift():
    rng = np.random.default_rng(103)
    p = 4
    errs = []
    for s in (0.2, 0.5, 0.8):
        cloud = random_cloud(rng, 50, scale=(1 - s) * 0.5, offset=(s, 0.0, 0.0))
        moved = qp.fit_outer(cloud, np.array([s, 0.0, 0.0]), 1.0 - s, p)
        shifted = qp.shift_outer(moved, np.zeros(3), 1.0)
        x = np.array([[2.0, 0.0, 0.0]])
        errs.append(abs(qp.eval_outer_potential(shifted, x)[0]
                        - qp.direct_potential(cloud, x)[0]))
    assert errs[0] < errs[1] < errs[2]


@pytest.mark.parametrize("center", [[np.nan, 0.0, 0.0], [0.0, 0.0]], ids=["nan", "2-vector"])
def test_centers_must_be_finite_3_vectors(center):
    near = qp.PointCharges(np.array([[0.1, 0.0, 0.0]]), np.array([1.0]))
    far = qp.PointCharges(np.array([[3.0, 0.0, 0.0]]), np.array([1.0]))
    outer = qp.fit_outer(near, np.zeros(3), 1.0, 4)
    inner = qp.fit_inner(far, np.zeros(3), 1.0, 4)
    nan_weights = np.full(len(outer.rule), np.nan)
    calls = [lambda c: qp.fit_outer(near, c, 1.0, 4),
             lambda c: qp.fit_inner(far, c, 1.0, 4),
             lambda c: qp.shift_outer(outer, c, 2.0),
             lambda c: qp.outer_to_inner(outer, c, 1.0),
             lambda c: qp.shift_inner(inner, c, 0.5),
             # the center is checked before the weights
             lambda c: qp.SurfaceExpansion(c, 1.0, outer.rule, nan_weights, 4, "outer")]
    for call in calls:
        with pytest.raises(qp.DomainError, match="^center must be a finite 3-vector$"):
            call(np.array(center))


@pytest.mark.parametrize("radius", [0.0, -2.0, np.nan, [1.0], np.array([1.0]), None, "1"],
                         ids=["zero", "negative", "nan", "list", "array", "none", "string"])
def test_radii_must_be_finite_and_positive(radius):
    near = qp.PointCharges(np.array([[0.1, 0.0, 0.0]]), np.array([1.0]))
    far = qp.PointCharges(np.array([[3.0, 0.0, 0.0]]), np.array([1.0]))
    outer = qp.fit_outer(near, np.zeros(3), 1.0, 4)
    inner = qp.fit_inner(far, np.zeros(3), 1.0, 4)
    calls = [lambda R: qp.fit_outer(near, np.zeros(3), R, 4),
             lambda R: qp.fit_inner(far, np.zeros(3), R, 4),
             # checked before the containment and overlap checks
             lambda R: qp.shift_outer(outer, np.zeros(3), R),
             lambda R: qp.outer_to_inner(outer, np.array([4.0, 0.0, 0.0]), R),
             lambda R: qp.shift_inner(inner, np.zeros(3), R),
             lambda R: qp.expansion_from_polytensor(qp.moments_from_charges(near, 4), R,
                                                    outer.rule)]
    for call in calls:
        with pytest.raises(qp.DomainError, match="^radius must be finite and positive$"):
            call(radius)


@pytest.mark.parametrize("radius", [1e-320, 2.0 ** -1024])
def test_radii_whose_reciprocal_overflows_are_refused(radius):
    # fits and shifts divide positions by the radius: at 2^-1024 or below, a
    # subnormal, that overflows, and the radius is refused by name before
    # any warning; the next radius up is the smallest taken.  An expansion
    # only stores its radius, and keeps any finite positive one.
    near = qp.PointCharges(np.array([[0.0, 0.0, 0.0]]), np.array([1.0]))
    far = qp.PointCharges(np.array([[3.0, 0.0, 0.0]]), np.array([1.0]))
    outer = qp.fit_outer(near, np.zeros(3), 1.0, 4)
    inner = qp.fit_inner(far, np.zeros(3), 1.0, 4)
    calls = [lambda R: qp.fit_outer(near, np.zeros(3), R, 4),
             lambda R: qp.fit_inner(far, np.zeros(3), R, 4),
             lambda R: qp.shift_outer(outer, np.zeros(3), R),
             lambda R: qp.outer_to_inner(outer, np.array([4.0, 0.0, 0.0]), R),
             lambda R: qp.shift_inner(inner, np.zeros(3), R)]
    for call in calls:
        with pytest.raises(qp.DomainError, match="^radius %r is too small" % radius):
            call(radius)
    smallest = np.nextafter(2.0 ** -1024, 1.0)
    assert qp.fit_outer(near, np.zeros(3), smallest, 4).radius == smallest
    assert qp.SurfaceExpansion(np.zeros(3), radius, outer.rule, outer.surface_weights, 4,
                               "outer").radius == radius


def test_positions_that_leave_float64_in_radii_are_refused():
    # fits and shifts that divide positions of size 1e10 by R = 1e-300
    # overflow: the radius is refused by name, before any warning and not as
    # a sum "near 2^0".  At R = 1e-150 the quotients fit, and a fit's
    # diagnostics give the source's radius in absolute units.
    far = qp.PointCharges(np.array([[1e10, 0.0, 0.0]]), np.array([1.0]))
    near = qp.PointCharges(np.array([[0.1, 0.0, 0.0]]), np.array([1.0]))
    outer = qp.fit_outer(near, np.zeros(3), 1.0, 4)
    big = qp.fit_inner(far, np.zeros(3), 1e9, 4)
    calls = [lambda: qp.fit_outer(far, np.zeros(3), 1e-300, 4),
             lambda: qp.fit_inner(far, np.zeros(3), 1e-300, 4),
             lambda: qp.outer_to_inner(outer, np.array([1e10, 0.0, 0.0]), 1e-300),
             lambda: qp.shift_inner(big, np.zeros(3), 1e-300)]
    for call in calls:
        with pytest.raises(qp.DomainError, match="^radius 1e-300 is too small"):
            call()
    diagnostics = qp.fit_inner(far, np.zeros(3), 1e-150, 4).diagnostics
    assert diagnostics["min_source_radius"] == pytest.approx(1e10, rel=1e-15)


@pytest.mark.parametrize("k", [-600, -300, 300, 600])
def test_shifts_energies_and_flow_are_scale_free(k):
    # every length scaled by 2^k, under warnings as errors.  The three shifts
    # keep their weights and scale their spheres, and interaction_energy is
    # 2^-k times the unit-scale energy, bit for bit at every k.  The Coulomb
    # energy, summed prescaled by a power of two, does so too; the flow
    # weights, a length squared, are 2^2k times, or refused where that
    # leaves float64's normal range; and boundary_error of zero weights
    # is the unit-scale error, bit for bit.
    rng = np.random.default_rng(53)
    c, d = np.array([0.25, -0.5, 0.125]), np.array([8.0, 0.5, -0.25])
    clouds = random_cloud(rng, 300, offset=c), random_cloud(rng, 300, offset=d)

    def scene(k):
        def up(v):
            return np.ldexp(v, k)

        a, b = (qp.fit_outer(qp.PointCharges(up(s.positions), s.charges), up(o), up(1.0), 10)
                for s, o in zip(clouds, (c, d)))
        shifted = qp.shift_outer(a, up(c + [0.5, 0.0, 0.0]), up(2.0))
        local = qp.outer_to_inner(b, up(c + [0.5, 0.0, 0.0]), up(2.0))
        moved = qp.shift_inner(local, up(c + [0.25, 0.0, 0.0]), up(1.0))
        return a, b, shifted, local, moved

    (a0, b0, *shifts0), (a, b, *shifts) = scene(0), scene(k)
    for got, want in zip(shifts, shifts0):
        assert np.array_equal(got.surface_weights, want.surface_weights)
        assert np.array_equal(got.center, np.ldexp(want.center, k))
        assert got.radius == np.ldexp(want.radius, k)
    assert qp.interaction_energy(*shifts[:2]) == np.ldexp(qp.interaction_energy(*shifts0[:2]), -k)
    assert qp.energy_between_outers(a, b) == np.ldexp(qp.energy_between_outers(a0, b0), -k)

    def flow(k):
        spheres = [qp.SphereBoundary.make(np.ldexp(s.center, k), np.ldexp(s.radius, k),
                                          s.velocity, 4) for s in three_sphere_scene(4)]
        still = qp.FlowSolution(tuple(qp.SurfaceExpansion(s.center, s.radius, s.rule,
                                                          np.zeros(len(s.rule)), 4, "outer")
                                      for s in spheres), np.zeros(3), 48, 1.0)
        return spheres, qp.boundary_error(still, spheres, qp.lebedev_rule(29))

    (spheres0, still0), (spheres, still) = flow(0), flow(k)
    assert np.array_equal(still, still0)
    if abs(k) > 500:   # the largest radius, 3 2^k, is in [2^(k+1), 2^(k+2))
        with pytest.raises(qp.DomainError, match="^flow weights of spheres of radius near "
                                                 "2\\^%d leave the normal range" % (k + 2)):
            qp.solve_potential_flow(spheres)
    else:
        for got, want in zip(qp.solve_potential_flow(spheres).expansions,
                             qp.solve_potential_flow(spheres0).expansions):
            assert np.array_equal(got.surface_weights, np.ldexp(want.surface_weights, 2 * k))


# shift vectors d = src.center - new_center and the number of the rules' 48
# signed axis permutations that fix them
SHIFT_DIRECTIONS = {
    "axis": ([0.0, -0.375, 0.0], 8),
    "face": ([0.25, 0.0, -0.25], 4),
    "face-minus-zero": ([0.25, 0.25, -0.0], 4),
    "body": ([0.25, -0.25, 0.25], 6),
    "generic": ([0.3, -0.1, 0.2], 1),
}


@pytest.mark.parametrize("p", [4, 16, 30])
@pytest.mark.parametrize("direction", SHIFT_DIRECTIONS)
def test_reduced_shifts_match_full_projection(p, direction):
    # each shift sums the kernel at one new rule point per orbit of the
    # symmetries that fix d and the antipode; the full projection
    # W_j sum_i w_i K(rel_i, rhat_j) is computed here with one kernel_matrix
    # over every pair.  (On a rule whose only symmetries are I and -I a
    # generic shift is one contracted sum over half the points, checked bit
    # for bit in test_shifts_on_a_rule_with_only_the_antipode_are_one_folded_sum.)
    d, fixing = SHIFT_DIRECTIONS[direction]
    d = np.array(d)
    rule = qp.rule_for_expansion(p)
    S, _ = rule.symmetries
    assert np.sum(np.all(S @ d == d, axis=1)) == fixing
    rng = np.random.default_rng(p)
    weights = rng.uniform(-1.0, 1.0, len(rule))
    origin = np.zeros(3)
    # (shift, source kind, source center, source radius, new radius), all
    # with the new center at the origin, so the shift vector is exactly the
    # source center (a -0.0 component included)
    cases = [(qp.shift_outer, "outer", d, 0.5, 1.0),
             (qp.outer_to_inner, "outer", 8.0 * d, 1.0, 1.0),
             (qp.shift_inner, "inner", d, 1.0, 0.5)]
    for shift, kind, center, radius, new_R in cases:
        src = qp.SurfaceExpansion(center, radius, rule, weights, p, kind)
        out = shift(src, origin, new_R)
        rel = (src.surface_points - origin) / new_R
        if out.kind == "outer":
            K = qp.kernel_matrix(rel[:, None, :], rule.points[None, :, :], p)
            full = rule.weights * (weights @ K)
            scale = rule.weights * (np.abs(weights) @ np.abs(K))
        else:
            K = qp.kernel_matrix(rule.points[:, None, :], rel[None, :, :], p)
            full = rule.weights * (K @ weights)
            scale = rule.weights * (np.abs(K) @ np.abs(weights))
        assert np.all(np.abs(out.surface_weights - full) <= 1e-13 * scale), shift.__name__


def unreduced_fit(kind, rel, weights, bound, rule, p):
    """W_j sum_i weights_i K(rel_i, rhat_j) at every point of rule (K(rhat_j, rel_i) for an
    inner fit), by one kernel_matrix over every pair, with W_j sum_i bound_i |K|: the
    scale of the roundoff it carries, for bound = |weights| or an earlier stage's scale."""
    if kind == "outer":
        K = qp.kernel_matrix(rel[:, None, :], rule.points[None, :, :], p)
        return rule.weights * (weights @ K), rule.weights * (bound @ np.abs(K))
    K = qp.kernel_matrix(rule.points[:, None, :], rel[None, :, :], p)
    return rule.weights * (K @ weights), rule.weights * (np.abs(K) @ bound)


def unreduced_eval(exp, x, weights, bound):
    """The expansion's potential at x over every pair by one kernel_sum, and its scale."""
    pts, rel = exp.radius * exp.rule.points, x - exp.center
    pairs = (pts[None], rel[:, None]) if exp.kind == "outer" else (rel[:, None], pts[None])
    K = qp.kernel_sum(*pairs, np.ones(exp.order))
    return K @ weights, np.abs(K) @ bound


def rotated_rule(p):
    """The order-p rule turned about a generic axis: it keeps only {I, -I}."""
    return hand_built_scene(p)[0].rule


def unequal_weight_rule(p):
    """The order-p rule with one antipodal pair's weights changed by 1e-6 and every weight
    rescaled to sum to 4 pi: it keeps fewer symmetries than the embedded rule."""
    rule = qp.rule_for_expansion(p)
    weights = rule.weights.copy()
    weights[[3, rule.antipodes[3]]] *= 1.0 + 1e-6
    weights *= 4.0 * np.pi / weights.sum()
    return qp.QuadratureRule(rule.points.copy(), weights, rule.exactness_degree)


HAND_BUILT_RULES = {"nudged point": nudged_rule, "rotated": rotated_rule,
                    "unequal weights": unequal_weight_rule}


def shift_cases(d):
    """(shift, source kind, source center, source radius, new radius) for a shift by d to the
    origin, as in test_reduced_shifts_match_full_projection."""
    return [(qp.shift_outer, "outer", d, 0.5, 1.0),
            (qp.outer_to_inner, "outer", 8.0 * d, 1.0, 1.0),
            (qp.shift_inner, "inner", d, 1.0, 0.5)]


@pytest.mark.parametrize("p", [4, 16])
@pytest.mark.parametrize("case", HAND_BUILT_RULES)
def test_hand_built_rules_match_the_unreduced_oracle(case, p):
    # rules built by hand keep fewer symmetries than the embedded ones, but
    # every point's antipode: fits, the three shifts and both evaluations,
    # folded over the antipodes, match the sums over every pair within 1e-13
    # of their scale
    rule = HAND_BUILT_RULES[case](p)
    assert len(rule.symmetries[0]) < 48
    rng = np.random.default_rng(401 + p)
    center, R = np.array([0.2, -0.1, 0.3]), 1.5
    near = random_cloud(rng, 60, scale=0.5, offset=center)
    far = qp.PointCharges(center + 3.0 * rng.standard_normal((60, 3)) + [4.0, 0.0, 0.0],
                          rng.uniform(-1.0, 1.0, 60))
    dirs = eval_dirs()
    for fit, cloud, x in ((qp.fit_outer, near, center + 2.0 * R * dirs),
                          (qp.fit_inner, far, center + 0.5 * R * dirs)):
        exp = fit(cloud, center, R, p, rule=rule)
        want, bound = unreduced_fit(exp.kind, (cloud.positions - center) / R, cloud.charges,
                                    np.abs(cloud.charges), rule, p)
        assert np.all(np.abs(exp.surface_weights - want) <= 1e-13 * bound), fit.__name__
        evaluate = qp.eval_outer_potential if exp.kind == "outer" else qp.eval_inner_potential
        want, bound = unreduced_eval(exp, x, exp.surface_weights, np.abs(exp.surface_weights))
        assert np.all(np.abs(evaluate(exp, x) - want) <= 1e-13 * bound), fit.__name__
    weights = rng.uniform(-1.0, 1.0, len(rule))
    for shift, kind, src_center, radius, new_R in shift_cases(np.array([0.3, -0.1, 0.2])):
        src = qp.SurfaceExpansion(src_center, radius, rule, weights, p, kind)
        out = shift(src, np.zeros(3), new_R)
        want, bound = unreduced_fit(out.kind, src.surface_points / new_R, weights,
                                    np.abs(weights), rule, p)
        assert np.all(np.abs(out.surface_weights - want) <= 1e-13 * bound), shift.__name__


@pytest.mark.parametrize("p", [4, 16, 30])
def test_shifts_on_a_rule_with_only_the_antipode_are_one_folded_sum(p):
    # the nudged rule keeps only I and -I, and -I fixes no shift but zero, so
    # each generic shift is one source sum at the first point of each
    # antipodal pair, and must equal that sum, made with the call shape the
    # shift uses (the weights as one row of charges), bit for bit: the
    # even- plus the odd-degree total at that point, minus at its antipode
    rule = nudged_rule(p)
    d = np.array([0.3, -0.1, 0.2])
    assert len(rule.symmetries[0]) == 2 and len(_orbits(rule, rule, d)[0]) == 1
    weights = np.random.default_rng(p).uniform(-1.0, 1.0, len(rule))
    coef = (2.0 * np.arange(p) + 1.0) / (4.0 * np.pi)
    half = np.flatnonzero(rule.antipodes > np.arange(len(rule)))
    for shift, kind, center, radius, new_R in shift_cases(d):
        src = qp.SurfaceExpansion(center, radius, rule, weights, p, kind)
        out = shift(src, np.zeros(3), new_R)
        rel = src.surface_points / new_R
        even, odd = _source_dot(rel, rule.points[half], coef, weights[None], out.kind == "inner")
        oracle = np.empty(len(rule))
        oracle[half] = rule.weights[half] * (even + odd)[0]
        oracle[rule.antipodes[half]] = rule.weights[half] * (even - odd)[0]
        assert np.array_equal(out.surface_weights, oracle), shift.__name__


@pytest.mark.parametrize("h", [(), (8,)], ids=["one charge set", "8 charge sets"])
@pytest.mark.parametrize("kind", ["outer", "inner"])
@pytest.mark.parametrize("p", [1, 4, 16, 30])
def test_source_sum_matches_the_dense_projection(p, kind, h):
    # legendre._source_dot at one point of each antipodal pair, even + odd
    # there and even - odd at the antipode, times the rule weights, against
    # the fit over every pair by kernel_matrix (unreduced_fit) within 1e-13
    # of its roundoff scale, with sources on the side of the unit sphere
    # where the series converges and on the other, and two coefficient sets:
    # the order-p fit's and one drawn at random, whose oracle is kernel_sum.
    # Inner sources inside the sphere stay beyond radius 0.8: there the
    # oracle's own recurrence, with x.x/y.y > 1, loses digits as the powers
    # grow, 1e-13 of its scale at p = 30 and radius 0.7.  No sources sum to
    # zero.
    rule = qp.rule_for_expansion(p)
    rng = np.random.default_rng(503 + p)
    half = np.flatnonzero(rule.antipodes > np.arange(len(rule)))
    coef = np.stack([_reproducing(p), rng.standard_normal(p)], axis=1)
    bands = {"outer": [(0.05, 0.95), (1.05, 3.0)], "inner": [(1.05, 3.0), (0.8, 0.95)]}
    for r_min, r_max in bands[kind]:
        d = rng.standard_normal((150, 3))
        rel = d * (rng.uniform(r_min, r_max, 150) / np.linalg.norm(d, axis=1))[:, None]
        q = rng.uniform(-1.0, 1.0, h + (150,))
        even, odd = _source_dot(rel, rule.points[half], coef, q, kind == "inner")
        assert even.shape == odd.shape == (2,) + h + (len(half),)
        got = np.empty((2,) + h + (len(rule),))
        got[..., half] = rule.weights[half] * (even + odd)
        got[..., rule.antipodes[half]] = rule.weights[half] * (even - odd)
        pairs = ((rel[:, None], rule.points[None]) if kind == "outer"
                 else (rule.points[:, None], rel[None]))
        K = qp.kernel_sum(*pairs, coef[:, 1])
        K = K if kind == "outer" else K.T   # (sources, points)
        for charges, fitted, drawn in zip(q.reshape(-1, 150), got[0].reshape(-1, len(rule)),
                                          got[1].reshape(-1, len(rule))):
            want, bound = unreduced_fit(kind, rel, charges, np.abs(charges), rule, p)
            assert np.all(np.abs(fitted - want) <= 1e-13 * bound)
            want, bound = rule.weights * (charges @ K), rule.weights * (np.abs(charges) @ np.abs(K))
            assert np.all(np.abs(drawn - want) <= 1e-13 * bound)
    none = _source_dot(np.zeros((0, 3)), rule.points[half], coef, np.zeros(h + (0,)),
                       kind == "inner")
    assert none.shape == (2, 2) + h + (len(half),) and np.all(none == 0.0)


def test_fits_and_shifts_run_the_recurrence_on_cosines_alone(monkeypatch):
    # every recurrence that a fit, a shift or a sum over a surface runs (the
    # evaluations, the four layers, the energy, the sums on a rule, the
    # outer gradient and de-tracing) has x.x/y.y = 1 and G_0 = 1 as
    # numbers: its steps are numbers, and no degree multiplies a block by
    # one value per source or per set point
    seen = []

    def recorded(u, v, g0, p, lam=0.5, work=None):
        seen[-1].append((np.ndim(v), np.ndim(g0)))
        return _terms(u, v, g0, p, lam, work)

    rng = np.random.default_rng(509)
    near, far = random_cloud(rng, 80), random_cloud(rng, 80, offset=(4.0, 0.0, 0.0))
    origin = np.zeros(3)
    outer, inner = qp.fit_outer(near, origin, 1.0, 16), qp.fit_inner(far, origin, 1.0, 16)
    calls = [lambda: qp.fit_outer(near, origin, 1.0, 16),
             lambda: qp.fit_inner(far, origin, 1.0, 16),
             lambda: _fit("outer", near, origin, 1.0, [3, 6, 9]),
             lambda: _fit("inner", far, origin, 1.0, [3, 6, 9]),
             lambda: qp.shift_outer(outer, np.array([0.2, 0.0, 0.0]), 1.5),
             lambda: qp.outer_to_inner(outer, np.array([5.0, 1.0, 0.0]), 1.0),
             lambda: qp.shift_inner(inner, np.array([0.1, 0.2, 0.3]), 0.5)]
    x_out, x_in = np.array([[3.0, 0.5, -1.0], [0.0, 2.0, 2.0]]), np.array([0.3, -0.2, 0.1])
    calls += [lambda: qp.eval_outer_potential(outer, x_out),
              lambda: qp.eval_inner_potential(inner, x_in)]
    calls += [lambda f=f, x=x: f(outer, x)
              for f, x in ((qp.single_layer_ext, x_out), (qp.double_layer_ext, x_out),
                           (qp.single_layer_int, x_in), (qp.double_layer_int, x_in))]
    calls += [lambda: qp.interaction_energy(outer, inner),
              lambda: _sums_on_rule([inner, inner], qp.lebedev_rule(15), 0.5, np.ones((16, 3))),
              lambda: qp.outer_gradient(outer, x_out),
              lambda: qp.detrace_directional(qp.moments_from_charges(near, 6), x_in, 5)]
    monkeypatch.setattr(legendre, "_terms", recorded)
    for call in calls:
        seen.append([])
        call()
    assert all(seen) and all(s == (0, 0) for calls in seen for s in calls)


# shift vectors of each class, up to a signed axis permutation drawn with them
SHIFT_CLASSES = {"axis": (0.0, 1.0, 0.0), "body": (1.0, -1.0, 1.0), "face": (1.0, 0.0, -1.0),
                 "plane": (0.75, -0.25, 0.0), "generic": (0.3, -0.1, 0.2), "zero": (0.0, 0.0, 0.0)}


@settings(max_examples=40)
@given(p=st.integers(1, 30), shift_class=st.sampled_from(sorted(SHIFT_CLASSES)),
       axes=st.permutations([0, 1, 2]), signs=st.tuples(*[st.sampled_from([1.0, -1.0])] * 3),
       kind=st.sampled_from(["shift_outer", "outer_to_inner", "shift_inner"]),
       size=st.floats(0.05, 0.9), slack=st.floats(1.0, 2.0))
def test_fit_shift_evaluate_matches_the_unreduced_oracle(p, shift_class, axes, signs, kind,
                                                         size, slack):
    # fit -> shift -> evaluate against the same three steps summed over every
    # pair, each step's roundoff scale carried to the next: the folds of
    # antipodal points and the symmetry orbits change only roundoff.  Scaling
    # a class vector keeps its equal and zero components exact.
    assume(not (kind == "outer_to_inner" and shift_class == "zero"))
    unit = np.array(signs) * np.array(SHIFT_CLASSES[shift_class])[list(axes)]
    rule, dirs, rng = qp.rule_for_expansion(p), eval_dirs(), np.random.default_rng(p)
    if kind == "shift_outer":        # the unit source sphere inside the new one
        d = size * unit
        new_R = slack * (np.linalg.norm(d) + 1.0)
        x = 2.0 * new_R * dirs
    elif kind == "outer_to_inner":   # the new sphere clear of the unit source sphere
        new_R = size
        d = unit * (1.01 * slack * (1.0 + new_R) / np.linalg.norm(unit))
        x = 0.5 * new_R * dirs
    else:                            # the new sphere inside the unit source sphere
        d = size * unit / max(np.linalg.norm(unit), 1.0)
        new_R = (1.0 - np.linalg.norm(d)) / slack
        x = 0.5 * new_R * dirs
    if kind == "shift_inner":        # charges outside the unit sphere
        pos = rng.standard_normal((40, 3))
        pos *= (rng.uniform(1.5, 4.0, 40) / np.linalg.norm(pos, axis=1))[:, None]
        cloud, fit = qp.PointCharges(pos, rng.uniform(-1.0, 1.0, 40)), qp.fit_inner
    else:
        cloud, fit = random_cloud(rng, 40), qp.fit_outer
    src = fit(cloud, np.zeros(3), 1.0, p, rule=rule)
    new_center = -d                  # so the shift vector src.center - new_center is d
    out = getattr(qp, kind)(src, new_center, new_R)
    want, bound = unreduced_fit(src.kind, cloud.positions, cloud.charges, np.abs(cloud.charges),
                                rule, p)
    want, bound = unreduced_fit(out.kind, (src.surface_points - new_center) / new_R, want,
                                bound, rule, p)
    want, bound = unreduced_eval(out, new_center + x, want, bound)
    evaluate = qp.eval_outer_potential if out.kind == "outer" else qp.eval_inner_potential
    assert np.all(np.abs(evaluate(out, new_center + x) - want) <= 1e-13 * bound)
