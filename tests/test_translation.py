import numpy as np
import pytest

import quadpole as qp
from quadpole.legendre import _kernel_dot


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
    # symmetries that fix d; the full projection W_j sum_i w_i K(rel_i, rhat_j)
    # is computed here with one kernel_matrix over every pair.  Where only the
    # identity fixes d, the shift is one contracted kernel sum over every
    # pair, so it must equal that sum, made with the call shape the shift
    # uses (one row of weights, as a column), bit for bit.
    d, fixing = SHIFT_DIRECTIONS[direction]
    d = np.array(d)
    rule = qp.rule_for_expansion(p)
    S, _ = rule.symmetries
    assert np.sum(np.all(S @ d == d, axis=1)) == fixing
    rng = np.random.default_rng(p)
    weights = rng.uniform(-1.0, 1.0, len(rule))
    origin = np.zeros(3)
    coef = (2.0 * np.arange(p) + 1.0) / (4.0 * np.pi)
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
            args = (rel, rule.points[:, None, :])
        else:
            K = qp.kernel_matrix(rule.points[:, None, :], rel[None, :, :], p)
            full = rule.weights * (K @ weights)
            scale = rule.weights * (np.abs(K) @ np.abs(weights))
            args = (rule.points[:, None, :], rel)
        if fixing == 1:
            oracle = rule.weights * _kernel_dot(*args, coef, weights[None].T)[:, 0]
            assert np.array_equal(out.surface_weights, oracle), shift.__name__
        assert np.all(np.abs(out.surface_weights - full) <= 1e-13 * scale), shift.__name__
