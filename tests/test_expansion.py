from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import quadpole as qp


def unit_charge_at(pos):
    return qp.PointCharges(np.array([pos]), np.array([1.0]))


def random_cloud(rng, n, scale=0.5, offset=(0.0, 0.0, 0.0)):
    pos = rng.uniform(-scale, scale, (n, 3)) + np.asarray(offset)
    return qp.PointCharges(pos, rng.uniform(-1, 1, n))


def test_fit_outer_monopole():
    e = qp.fit_outer(unit_charge_at([0.0, 0.0, 0.0]), np.zeros(3), 1.0, 4)
    sigma = e.surface_weights / e.rule.weights
    assert np.allclose(sigma, 1.0 / (4 * np.pi))


def test_fit_outer_total_charge():
    rng = np.random.default_rng(41)
    cloud = random_cloud(rng, 50)
    for p in (2, 5, 9):
        e = qp.fit_outer(cloud, np.zeros(3), 1.0, p)
        assert e.surface_weights.sum() == pytest.approx(cloud.charges.sum(), abs=1e-9)


def test_fit_outer_empty_and_errors():
    e = qp.fit_outer(qp.PointCharges.empty(), np.zeros(3), 1.0, 3)
    assert np.all(e.surface_weights == 0.0)
    assert e.diagnostics == {"n_sources_outside": 0, "max_source_radius": 0.0}
    with pytest.raises(qp.DomainError):
        qp.fit_outer(qp.PointCharges.empty(), np.zeros(3), -1.0, 3)



def test_order_and_radius_must_not_be_bools():
    # True is an int to Python, but as an order or a radius it is refused,
    # by the checks and with the messages that SphereBoundary uses
    rule = qp.lebedev_rule(7)
    with pytest.raises(qp.DomainError, match="^order must be an integer >= 1"):
        qp.fit_outer(qp.PointCharges.empty(), np.zeros(3), 1.0, True)
    with pytest.raises(qp.DomainError, match="^order must be an integer >= 1"):
        qp.SurfaceExpansion(np.zeros(3), 1.0, rule, np.zeros(len(rule)), True, "outer")
    with pytest.raises(qp.DomainError, match="^radius must be finite and positive$"):
        qp.SurfaceExpansion(np.zeros(3), True, rule, np.zeros(len(rule)), 4, "outer")
    with pytest.raises(qp.DomainError, match="^radius must be finite and positive$"):
        qp.SphereBoundary(np.zeros(3), True, [1.0, 0.0, 0.0], rule, 4)
    assert qp.SurfaceExpansion(np.zeros(3), 1, rule, np.zeros(len(rule)), np.int64(4),
                               "outer").radius == 1.0


# clouds of 1 to 20 positive charges in the cube |y_k| <= 1/2, inside the unit
# sphere; positive, so that no cancellation between sources makes max |w| small
# beside the roundoff of the sums
COORD = st.floats(-0.5, 0.5)
CHARGE = st.tuples(COORD, COORD, COORD, st.floats(0.125, 1.0))
CLOUD = st.lists(CHARGE, min_size=1, max_size=20)


def _cloud(rows):
    rows = np.array(rows)
    return qp.PointCharges(rows[:, :3], rows[:, 3])


@settings(max_examples=50)
@given(rows=CLOUD, t=st.tuples(*[st.floats(-2.0, 2.0)] * 3), lam=st.floats(0.25, 4.0),
       p=st.integers(1, 30))
def test_fit_outer_is_similarity_invariant(rows, t, lam, p):
    # t + lam y seen from t at radius lam is y seen from 0 at radius 1
    cloud, t = _cloud(rows), np.array(t)
    want = qp.fit_outer(cloud, np.zeros(3), 1.0, p).surface_weights
    moved = qp.PointCharges(t + lam * cloud.positions, cloud.charges)
    got = qp.fit_outer(moved, t, lam, p).surface_weights
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@settings(max_examples=50)
@given(rows=st.lists(CHARGE.filter(lambda r: r[0] ** 2 + r[1] ** 2 + r[2] ** 2 >= 0.05 ** 2),
                     min_size=1, max_size=20),
       p=st.integers(1, 30))
def test_fit_inner_is_kelvin_inverted_fit_outer(rows, p):
    # L_n(rhat, y / |y|^2) = |y|^(n+1) P_n(rhat.yhat) = |y| L_n(y, rhat)
    cloud = _cloud(rows)
    r2 = np.sum(cloud.positions ** 2, axis=1)
    rule = qp.rule_for_expansion(p)
    inverted = qp.PointCharges(cloud.positions / r2[:, None], cloud.charges)
    got = qp.fit_inner(inverted, np.zeros(3), 1.0, p, rule=rule).surface_weights
    scaled = qp.PointCharges(cloud.positions, cloud.charges * np.sqrt(r2))
    want = qp.fit_outer(scaled, np.zeros(3), 1.0, p, rule=rule).surface_weights
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_fit_outer_diagnostics_flags_outside_sources():
    e = qp.fit_outer(unit_charge_at([2.0, 0.0, 0.0]), np.zeros(3), 1.0, 3)
    assert e.diagnostics["n_sources_outside"] == 1
    assert e.diagnostics["max_source_radius"] == pytest.approx(2.0)


def test_fit_inner_diagnostics_flags_inside_sources():
    e = qp.fit_inner(unit_charge_at([0.1, 0.0, 0.0]), np.zeros(3), 1.0, 3)
    assert e.diagnostics["n_sources_inside"] == 1
    assert e.diagnostics["min_source_radius"] == pytest.approx(0.1)
    empty = qp.fit_inner(qp.PointCharges.empty(), np.zeros(3), 1.0, 3)
    assert empty.diagnostics["n_sources_inside"] == 0
    assert empty.diagnostics["min_source_radius"] == np.inf


def test_eval_outer_monopole_exact():
    e = qp.fit_outer(unit_charge_at([0.0, 0.0, 0.0]), np.zeros(3), 1.0, 1)
    x = np.array([3.0, 4.0, 0.0])
    assert qp.eval_outer_potential(e, x) == pytest.approx(0.2, abs=1e-12)


def test_eval_on_the_wrong_side_rejected():
    outer = qp.fit_outer(unit_charge_at([0.1, 0.0, 0.0]), np.zeros(3), 1.0, 4)
    with pytest.raises(qp.GeometryError):
        qp.eval_outer_potential(outer, np.array([0.2, 0.0, 0.0]))
    qp.eval_outer_potential(outer, outer.surface_points)   # on the sphere is allowed
    inner = qp.fit_inner(unit_charge_at([3.0, 0.0, 0.0]), np.zeros(3), 1.0, 4)
    with pytest.raises(qp.GeometryError):
        qp.eval_inner_potential(inner, np.array([[0.0, 0.0, 0.0], [0.0, 1.5, 0.0]]))
    qp.eval_inner_potential(inner, inner.surface_points)


@pytest.mark.parametrize("k", [-600, -300, 300, 600])
def test_evaluation_is_scale_free(k):
    # 200 charges, the fit's radius and center and the targets all scaled by
    # 2^k: every potential is 2^-k times the unit-scale one.  At 2^600 the
    # squared distances of the kernel sum overflow and at 2^-600 those of
    # the side check underflow, so both test at a scale near 1.  The direct
    # sum runs prescaled by a power of two, so it is exact at every scale.
    rng = np.random.default_rng(97)
    cloud = random_cloud(rng, 200)
    exterior = random_cloud(rng, 50, scale=0.5, offset=(4.0, 0.0, 0.0))
    c, x, y = np.array([0.25, -0.5, 0.0]), np.array([3.0, 1.0, 0.5]), np.array([0.5, 0.25, 0.0])

    def scaled(charges):
        return qp.PointCharges(np.ldexp(charges.positions, k), charges.charges)

    for evaluate, sources, target in ((qp.eval_outer_potential, cloud, x),
                                      (qp.eval_inner_potential, exterior, y)):
        fit = qp.fit_outer if evaluate is qp.eval_outer_potential else qp.fit_inner
        want = np.ldexp(evaluate(fit(sources, c, 1.0, 12), c + target), -k)
        got = evaluate(fit(scaled(sources), np.ldexp(c, k), 2.0 ** k, 12),
                       np.ldexp(c + target, k))
        assert abs(got - want) <= 1e-15 * abs(want)
    want = np.ldexp(qp.direct_potential(cloud, x), -k)
    assert qp.direct_potential(scaled(cloud), np.ldexp(x, k)) == want


def test_coulomb_coincidence_is_relative_to_the_scale():
    # a target 3 2^-500 from a unit charge is no coincidence, and one 3 2^600
    # away, whose squared distance would overflow, is summed prescaled, to
    # 2^-600 / 3 exactly; a target within 1e-12 of the scale of a source
    # coincides with it at any scale
    from quadpole.expansion import _coulomb_rays
    charge = unit_charge_at([0.0, 0.0, 0.0])
    near = np.array([3.0 * 2.0 ** -500, 0.0, 0.0])
    assert qp.direct_potential(charge, near) == 2.0 ** 500 / 3.0
    assert _coulomb_rays(np.eye(3), [3.0 * 2.0 ** -500], np.zeros((1, 3)), [1.0])[0, 0] \
        == 2.0 ** 500 / 3.0
    assert qp.direct_potential(charge, np.ldexp(near, 1100)) == 2.0 ** -600 / 3.0
    assert _coulomb_rays(np.eye(3), [3.0 * 2.0 ** 600], np.zeros((1, 3)), [1.0])[0, 0] \
        == 2.0 ** -600 / 3.0
    for k in (-300, 0, 300):
        source = np.ldexp(np.array([[1.0, 2.0, 3.0]]), k)
        off = source[0] * (1.0 + 1e-14)
        with pytest.raises(qp.SingularityError):
            qp.direct_potential(qp.PointCharges(source, [1.0]), np.stack([source[0] * 2, off]))
        u = source[0] / np.linalg.norm(source[0])
        with pytest.raises(qp.SingularityError):
            _coulomb_rays(u[None], [np.linalg.norm(off)], source, [1.0])


@pytest.mark.parametrize("distance", [1.0, 1e3, 1e5, 1e6])
def test_own_surface_points_are_on_the_sphere_far_from_the_origin(distance):
    # c + R rhat rounds off the sphere by about eps |c|, far more than the
    # 1e-12 R slack once |c| / R reaches 1e5; a point 1e-6 R on the wrong
    # side is still rejected
    rng = np.random.default_rng(89)
    directions = rng.normal(size=(10, 3))
    for c in distance * directions / np.linalg.norm(directions, axis=1)[:, None]:
        outer = qp.fit_outer(unit_charge_at(c + [0.1, 0.0, 0.0]), c, 1.0, 6)
        inner = qp.fit_inner(unit_charge_at(c + [3.0, 0.0, 0.0]), c, 1.0, 6)
        assert np.all(np.isfinite(qp.eval_outer_potential(outer, outer.surface_points)))
        assert np.all(np.isfinite(qp.eval_inner_potential(inner, inner.surface_points)))
        with pytest.raises(qp.GeometryError):
            qp.eval_outer_potential(outer, c + (1.0 - 1e-6) * outer.rule.points[:1])
        with pytest.raises(qp.GeometryError):
            qp.eval_inner_potential(inner, c + (1.0 + 1e-6) * inner.rule.points[:1])


@pytest.mark.parametrize("point", [[np.nan, 0.0, 3.0], [0.0, 3.0]], ids=["nan", "2-vector"])
@pytest.mark.parametrize("name", [
    "eval_outer_potential", "eval_inner_potential", "eval_point_charge_potential",
    "single_layer_ext", "double_layer_ext", "single_layer_int", "double_layer_int",
    "outer_gradient", "jump_check", "direct_potential",
])
def test_evaluation_points_must_be_finite_3_vectors(name, point):
    outer = qp.fit_outer(unit_charge_at([0.1, 0.0, 0.0]), np.zeros(3), 1.0, 4)
    inner = qp.fit_inner(unit_charge_at([3.0, 0.0, 0.0]), np.zeros(3), 1.0, 4)
    first = {"eval_inner_potential": inner, "single_layer_int": inner,
             "double_layer_int": inner, "direct_potential": unit_charge_at([0.1, 0.0, 0.0])}
    with pytest.raises(qp.DomainError, match="^evaluation points must be finite 3-vectors$"):
        getattr(qp, name)(first.get(name, outer), np.array(point))


def test_eval_outer_vs_direct_sum():
    rng = np.random.default_rng(43)
    cloud = random_cloud(rng, 100)
    x = rng.standard_normal((30, 3))
    x *= (rng.uniform(4, 10, 30) / np.linalg.norm(x, axis=1))[:, None]
    for p in (4, 8):
        e = qp.fit_outer(cloud, np.zeros(3), 1.0, p)
        err = np.abs(qp.eval_outer_potential(e, x) - qp.direct_potential(cloud, x))
        assert np.max(err) < (1.0 / 4.0) ** p


def test_far_field_decay_slope():
    rng = np.random.default_rng(47)
    cloud = random_cloud(rng, 200)
    p = 5
    e = qp.fit_outer(cloud, np.zeros(3), 1.0, p)
    dirs = qp.lebedev_rule(15).points
    radii = np.geomspace(3, 30, 8)
    errs = [np.mean(np.abs(qp.eval_outer_potential(e, r * dirs)
                           - qp.direct_potential(cloud, r * dirs))) for r in radii]
    slope = np.polyfit(np.log(radii), np.log(errs), 1)[0]
    assert slope == pytest.approx(-(p + 1), abs=0.15)


def test_fit_inner_single_source_coulomb():
    d = 4.0
    src = unit_charge_at([0.0, 0.0, d])
    for p in (2, 4, 6):
        e = qp.fit_inner(src, np.zeros(3), 1.0, p)
        val = qp.eval_inner_potential(e, np.zeros(3))
        assert abs(val - 1.0 / d) <= (1.0 / d) ** p


def test_fit_inner_empty_and_singular():
    e = qp.fit_inner(qp.PointCharges.empty(), np.zeros(3), 1.0, 3)
    assert np.all(e.surface_weights == 0.0)
    assert qp.eval_inner_potential(e, np.zeros(3)) == 0.0
    with pytest.raises(qp.SingularityError):
        qp.fit_inner(unit_charge_at([1.0, 0.0, 0.0]), np.zeros(3), 1.0, 3)


@pytest.mark.parametrize("kind", ["outer", "inner"])
def test_orders_fitted_together_match_fits_at_each_order(kind):
    # one kernel sum for the orders 3, 6 and 9 on one rule, against one fit
    # per order, within 1e-14 of the largest weight; the cloud and its
    # inversion are those of racc, and each expansion keeps its diagnostics
    from quadpole.expansion import _fit
    rng = np.random.default_rng(127)
    half = np.sqrt(3.0) / 3.0
    cloud = qp.PointCharges(rng.uniform(-half, half, (300, 3)), rng.uniform(-1.0, 1.0, 300))
    if kind == "inner":
        cloud = qp.PointCharges(cloud.positions / np.sum(cloud.positions ** 2, axis=1)[:, None],
                                cloud.charges)
    fit = qp.fit_outer if kind == "outer" else qp.fit_inner
    rule = qp.lebedev_rule(17)
    together = _fit(kind, cloud, np.zeros(3), 1.0, [3, 6, 9], rule)
    for p, got in zip((3, 6, 9), together):
        alone = fit(cloud, np.zeros(3), 1.0, p, rule=rule)
        assert (got.order, got.kind, got.rule) == (p, kind, rule)
        assert got.diagnostics == alone.diagnostics
        w = alone.surface_weights
        assert np.max(np.abs(got.surface_weights - w)) <= 1e-14 * np.max(np.abs(w))


def test_twin_fit_is_the_outer_fit_and_the_inner_fit_of_the_inversion():
    # one source sum for the cloud and its inversion y -> c + R^2 (y - c)/|y - c|^2
    # in the sphere (c, R), at the orders 3, 6 and 9 on one rule: the outer
    # expansions are those of _fit("outer") bit for bit, and the inner ones,
    # on the sphere (c, R_in), those of _fit("inner") of the inverted cloud
    # within 1e-14 of the largest weight, with its diagnostics
    from quadpole.expansion import _fit
    rng = np.random.default_rng(131)
    center, R, rule = np.array([0.3, -0.2, 0.1]), 1.5, qp.lebedev_rule(17)
    cloud = random_cloud(rng, 300, scale=0.8, offset=center)
    rel = cloud.positions - center
    inverted = qp.PointCharges(center + R * R * rel / np.sum(rel ** 2, axis=1)[:, None],
                               cloud.charges)
    for R_in in (R, 0.5 * R, 0.7):
        outers, inners = _fit("twin", cloud, center, R, [3, 6, 9], rule, R_in)
        alone = _fit("outer", cloud, center, R, [3, 6, 9], rule)
        for p, got, want in zip((3, 6, 9), outers, alone):
            assert (got.order, got.kind, got.radius) == (p, "outer", R)
            assert np.array_equal(got.surface_weights, want.surface_weights)
            assert got.diagnostics == want.diagnostics
        for p, got, want in zip((3, 6, 9), inners,
                                _fit("inner", inverted, center, R_in, [3, 6, 9], rule)):
            assert (got.order, got.kind, got.radius, got.rule) == (p, "inner", R_in, rule)
            assert got.diagnostics["n_sources_inside"] == want.diagnostics["n_sources_inside"]
            assert got.diagnostics["min_source_radius"] == pytest.approx(
                want.diagnostics["min_source_radius"], rel=1e-15)
            w = want.surface_weights
            assert np.max(np.abs(got.surface_weights - w)) <= 1e-14 * np.max(np.abs(w))


def test_twin_fit_refuses_an_inverted_source_on_the_sphere():
    # a source at 2 from the center inverts, in the unit sphere, to radius
    # 0.5: on the inner sphere at R_in = 0.5, as fit_inner refuses it.  A
    # source at the center inverts to infinity and adds nothing inside
    from quadpole.expansion import _fit
    rng = np.random.default_rng(137)
    cloud = random_cloud(rng, 20)
    on = qp.PointCharges(np.vstack([cloud.positions, [[0.0, 2.0, 0.0]]]),
                         np.append(cloud.charges, 1.0))
    with pytest.raises(qp.SingularityError, match="on the bounding sphere"):
        _fit("twin", on, np.zeros(3), 1.0, [4], None, 0.5)
    (outer,), (inner,) = _fit("twin", on, np.zeros(3), 1.0, [4], None, 0.6)
    assert outer.diagnostics["n_sources_outside"] == 1 and inner.diagnostics == {
        "n_sources_inside": 1, "min_source_radius": pytest.approx(0.5)}
    at_center = qp.PointCharges(np.vstack([cloud.positions, np.zeros((1, 3))]),
                                np.append(cloud.charges, 1.0))
    (_,), (inner,) = _fit("twin", at_center, np.zeros(3), 1.0, [4], None, 0.5)
    (_,), (want,) = _fit("twin", cloud, np.zeros(3), 1.0, [4], None, 0.5)
    assert inner.diagnostics == want.diagnostics
    assert np.allclose(inner.surface_weights, want.surface_weights, rtol=0.0,
                       atol=1e-15 * np.max(np.abs(want.surface_weights)))


def test_inner_decay_slope():
    rng = np.random.default_rng(53)
    inside = random_cloud(rng, 150, scale=0.55)
    r2 = np.sum(inside.positions ** 2, axis=1)
    outside = qp.PointCharges(inside.positions / r2[:, None], inside.charges)
    p = 5
    e = qp.fit_inner(outside, np.zeros(3), 1.0, p)
    dirs = qp.lebedev_rule(15).points
    radii = 1.0 / np.geomspace(3, 30, 8)
    errs = [np.mean(np.abs(qp.eval_inner_potential(e, r * dirs)
                           - qp.direct_potential(outside, r * dirs))) for r in radii]
    slope = np.polyfit(np.log(radii), np.log(errs), 1)[0]
    assert slope == pytest.approx(p, abs=0.15)


def test_point_charge_evaluation():
    e = qp.fit_outer(unit_charge_at([0.0, 0.0, 0.0]), np.zeros(3), 1.0, 6)
    x = np.array([10.0, 0.0, 0.0])
    assert qp.eval_point_charge_potential(e, x) == pytest.approx(0.1, rel=1e-6)
    zero = qp.fit_outer(qp.PointCharges.empty(), np.zeros(3), 1.0, 3)
    assert qp.eval_point_charge_potential(zero, x) == 0.0
    with pytest.raises(qp.SingularityError):
        qp.eval_point_charge_potential(e, e.surface_points[0])
    cloud = unit_charge_at([1.0, 2.0, 3.0])
    with pytest.raises(qp.SingularityError):
        qp.direct_potential(cloud, np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]]))
    with pytest.raises(qp.SingularityError):
        qp.direct_energy(cloud, cloud)


def test_coulomb_sum_shapes_and_empty_sets():
    from quadpole.expansion import _coulomb
    rng = np.random.default_rng(67)
    y = rng.standard_normal((7, 3))
    q = rng.uniform(-1, 1, 7)
    for shape in ((3,), (5, 3), (4, 2, 3)):
        x = 4.0 + rng.standard_normal(shape)
        ref = (1.0 / np.linalg.norm(x[..., None, :] - y, axis=-1)) @ q
        got = _coulomb(x, y, q)
        assert np.shape(got) == shape[:-1]
        assert np.allclose(got, ref, rtol=1e-15, atol=0.0)
    cloud = qp.PointCharges(y, q)
    assert qp.direct_energy(qp.PointCharges.empty(), cloud) == 0.0
    assert qp.direct_energy(cloud, qp.PointCharges.empty()) == 0.0
    assert qp.direct_potential(qp.PointCharges.empty(), np.ones((2, 3))).shape == (2,)
    assert _coulomb(np.zeros((0, 3)), y, q).shape == (0,)
    assert _coulomb(np.zeros((2, 0, 3)), y, q).shape == (2, 0)
    none = _coulomb(np.ones((2, 4, 3)), np.zeros((0, 3)), np.zeros(0))
    assert none.shape == (2, 4) and np.all(none == 0.0)
    assert _coulomb(np.ones(3), np.zeros((0, 3)), np.zeros(0)) == 0.0
    assert _coulomb(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0)).shape == (0,)


def _coulomb_oracle(x, y, q):
    """The unblocked Coulomb sum: the full (targets, M) distance array, then one product."""
    x = np.asarray(x, dtype=float)
    return ((1.0 / np.sqrt(sum((x[..., k, None] - y[:, k]) ** 2 for k in range(3)))) @ q)[()]


def _coulomb_case(rng, shape, m):
    return 5.0 + rng.standard_normal(shape), rng.standard_normal((m, 3)), rng.uniform(-1, 1, m)


def _stitched(x, y, q, rows):
    """_coulomb over consecutive slices of `rows` targets, put back in x's shape."""
    from quadpole.expansion import _coulomb
    flat = x.reshape(-1, 3)
    parts = [_coulomb(flat[i:i + rows], y, q) for i in range(0, len(flat), rows)]
    return np.concatenate(parts).reshape(x.shape[:-1])


def test_coulomb_sum_blocked_matches_unblocked():
    # 800 x 2000 runs in 100 blocks of 8 targets; (4, 300) x 700 in 52
    # blocks of 23 and a partial block of 4; one target against 20000
    # sources is one block.  The GEMV of a BLAS may sum rows in groups (of
    # four in OpenBLAS), and a row outside a full group is summed in another
    # order, so a target's sum is bit-identical only where the row groups of
    # the two calls coincide; elsewhere it agrees within an ulp of sum |q|/r.
    from quadpole.expansion import _coulomb
    rng = np.random.default_rng(71)
    eps = np.finfo(float).eps
    for shape, m in (((800, 3), 2000), ((4, 300, 3), 700), ((3,), 20000)):
        x, y, q = _coulomb_case(rng, shape, m)
        got = _coulomb(x, y, q)
        assert np.shape(got) == shape[:-1]
        bound = eps * _coulomb_oracle(x, y, np.abs(q))
        for want in (_coulomb_oracle(x, y, q), _stitched(x, y, q, 97)):
            assert np.all(np.abs(got - want) <= bound)
    # groups coincide: 8-target blocks against one 800-row product, and
    # block-aligned slices of 96 targets; one target is one row either way
    x, y, q = _coulomb_case(rng, (800, 3), 2000)
    got = _coulomb(x, y, q)
    assert np.array_equal(got, _coulomb_oracle(x, y, q))
    assert np.array_equal(got, _stitched(x, y, q, 96))
    x, y, q = _coulomb_case(rng, (3,), 20000)
    assert np.array_equal(_coulomb(x, y, q), _coulomb_oracle(x, y, q))


def test_coulomb_sum_singular_in_last_block():
    from quadpole.expansion import _coulomb
    rng = np.random.default_rng(73)
    for shape, m in (((800, 3), 2000), ((4, 300, 3), 700)):
        x, y, q = _coulomb_case(rng, shape, m)
        x[(-1,) * (len(shape) - 1)] = y[m // 2]
        with pytest.raises(qp.SingularityError):
            _coulomb(x, y, q)


def test_coulomb_sum_charge_columns():
    # h charge sets at the same positions: each column is the one-set sum,
    # within the ulp by which a GEMM column and a GEMV may group rows apart
    from quadpole.expansion import _coulomb
    rng = np.random.default_rng(89)
    eps = np.finfo(float).eps
    for shape, m, h in (((800, 3), 2000, 2), ((4, 300, 3), 700, 3), ((3,), 20000, 2),
                        ((5, 3), 7, 1)):
        x, y, _ = _coulomb_case(rng, shape, m)
        q = rng.uniform(-1, 1, (m, h))
        got = _coulomb(x, y, q)
        assert got.shape == shape[:-1] + (h,)
        for k in range(h):
            bound = eps * _coulomb_oracle(x, y, np.abs(q[:, k]))
            assert np.all(np.abs(got[..., k] - _coulomb(x, y, q[:, k])) <= bound)
        x[(-1,) * (len(shape) - 1)] = y[m // 2]
        with pytest.raises(qp.SingularityError):
            _coulomb(x, y, q)
    y, q = rng.standard_normal((7, 3)), rng.uniform(-1, 1, (7, 2))
    assert _coulomb(np.zeros((0, 3)), y, q).shape == (0, 2)
    assert _coulomb(np.zeros((2, 0, 3)), y, q).shape == (2, 0, 2)
    none = _coulomb(np.ones((2, 4, 3)), np.zeros((0, 3)), np.zeros((0, 2)))
    assert none.shape == (2, 4, 2) and np.all(none == 0.0)
    assert np.array_equal(_coulomb(np.ones(3), np.zeros((0, 3)), np.zeros((0, 2))), [0.0, 0.0])
    assert _coulomb(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 2))).shape == (0, 2)


@settings(max_examples=50)
@given(rows=st.lists(CHARGE.filter(lambda r: r[0] ** 2 + r[1] ** 2 + r[2] ** 2 >= 0.05 ** 2),
                     min_size=1, max_size=20),
       targets=st.lists(st.tuples(*[st.floats(-30.0, 30.0)] * 3).filter(
           lambda v: v[0] ** 2 + v[1] ** 2 + v[2] ** 2 >= 1.5 ** 2), min_size=1, max_size=10))
def test_direct_sum_is_kelvin_inverted(rows, targets):
    # |x/|x|^2 - s/|s|^2| = |x - s| / (|x| |s|): the inverted cloud's potential
    # at x/|x|^2 is |x| times that of the charges q|s| at x
    from quadpole.expansion import _coulomb
    cloud, x = _cloud(rows), np.array(targets)
    r = np.linalg.norm(x, axis=1)
    s = np.linalg.norm(cloud.positions, axis=1)
    inverted = qp.PointCharges(cloud.positions / s[:, None] ** 2, cloud.charges)
    got = r * _coulomb(x, cloud.positions, cloud.charges * s)
    want = qp.direct_potential(inverted, x / r[:, None] ** 2)
    assert np.all(np.abs(got - want) <= 1e-13 * want)   # positive charges: want > 0


def test_coulomb_sum_memory_is_block_sized():
    import tracemalloc
    from quadpole.expansion import _coulomb
    x, y, q = _coulomb_case(np.random.default_rng(79), (800, 3), 2000)
    _coulomb(x, y, q)
    tracemalloc.start()
    try:
        _coulomb(x, y, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6   # the unblocked sum holds 800 x 2000 doubles (12.8 MB) per array


def _ray_case(rng, m, h=()):
    """The racc geometry: the 86 directions of the order-15 rule and m charges in the
    cube inscribed in the unit sphere, with one set of charges per entry of h."""
    half = np.sqrt(3.0) / 3.0
    return (qp.lebedev_rule(15).points, rng.uniform(-half, half, (m, 3)),
            rng.uniform(-1.0, 1.0, (m,) + h))


def _ray_sums(u, radii, y, q):
    """_coulomb_rays(u, radii, y, q) and _coulomb at the points r_k u_d."""
    from quadpole.expansion import _coulomb, _coulomb_rays
    return (_coulomb_rays(u, np.asarray(radii), y, q),
            _coulomb(np.asarray(radii)[:, None, None] * u, y, q))


@pytest.mark.parametrize("h", [(), (1,), (2,)], ids=["vector", "h=1", "h=2"])
def test_coulomb_rays_match_coulomb(h):
    # the ray sum against _coulomb at r_k u_d, within 1e-14 sum |q| / (the
    # smallest distance): at racc's radii, at 1 + 1e-6 with a source 1e-3 inside
    # the cube corner on one of the rule's directions, and at 1e35; 2000
    # sources make 18 blocks of 5 directions, the last one partial
    rng = np.random.default_rng(97)
    u, y, q = _ray_case(rng, 2000, h)
    y[0] = (1.0 - 1e-3) * np.sqrt(3.0) / 3.0
    for radii in (np.geomspace(1.5, 30.0, 16), [1.0 + 1e-6, 2.0], [1e35]):
        got, want = _ray_sums(u, radii, y, q)
        assert got.shape == want.shape == (len(radii), len(u)) + h
        targets = np.asarray(radii)[:, None, None] * u
        gap = np.min(np.linalg.norm(targets[..., None, :] - y, axis=-1))
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(q).sum(axis=0) / gap)
    # no sources: zero sums of the targets' shape; no directions or no
    # radii: empty sums, with or without sources
    got, want = _ray_sums(u, [1.5, 3.0], y[:0], q[:0])
    assert got.shape == want.shape == (2, len(u)) + h and np.all(got == 0.0)
    for directions, radii in ((u[:0], [1.5, 3.0]), (u, []), (u[:0], [])):
        for sources in ((y, q), (y[:0], q[:0])):
            got, want = _ray_sums(directions, radii, *sources)
            assert got.shape == want.shape == (len(radii), len(directions)) + h


def test_coulomb_rays_near_a_source_are_as_accurate_as_the_geometry_allows():
    # a source at the cube corner, 1e-6 from the target (1 + 1e-6) u on its ray:
    # an ulp in a target or source moves the term q/d by eps |x| q / d^2, so
    # both sums are checked against an exact one, within eps sum |q| (r + |s|) / d^2
    from fractions import Fraction
    from decimal import Decimal, localcontext
    rng = np.random.default_rng(101)
    u, y, q = _ray_case(rng, 40)
    y[0] = np.sqrt(3.0) / 3.0
    r = 1.0 + 1e-6
    got, want = _ray_sums(u, [r], y, q)
    with localcontext() as ctx:
        ctx.prec = 40
        exact, bound = np.empty(len(u)), np.empty(len(u))
        for d, direction in enumerate(u):
            dist = [(sum((Fraction(r) * Fraction(a) - Fraction(b)) ** 2
                         for a, b in zip(direction, s)))
                    for s in y]
            dist = [(Decimal(f.numerator) / Decimal(f.denominator)).sqrt() for f in dist]
            exact[d] = float(sum(Decimal(c) / g for c, g in zip(q, dist)))
            bound[d] = np.finfo(float).eps * float(sum(
                Decimal(abs(c) * (r + np.linalg.norm(s))) / g ** 2
                for c, s, g in zip(q, y, dist)))
    assert np.min(bound) > 0.0 and np.max(np.abs(want[0] - exact) / bound) < 1.0
    assert np.max(np.abs(got[0] - exact) / bound) < 1.0


def test_coulomb_rays_next_to_a_source_are_as_accurate_as_coulomb():
    # a source at the cube corner, 1e-6 from the target (1 + 1e-6) u on the
    # body diagonal, among 500 charges: a = u.s rounds by an ulp of |s| before
    # r - a cancels, so that pair is summed as |r u - s|, as _coulomb sums it;
    # both sums against an exact one at that target
    from fractions import Fraction
    from decimal import Decimal, localcontext
    rng = np.random.default_rng(109)
    u, y, q = _ray_case(rng, 500)
    y[0] = np.sqrt(3.0) / 3.0
    r = 1.0 + 1e-6
    d = np.argmax(u @ np.ones(3))
    got, want = _ray_sums(u, [r], y, q)
    x = r * u[d]   # the target as _coulomb takes it
    with localcontext() as ctx:
        ctx.prec = 40
        dist = [sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(x, s)) for s in y]
        dist = [(Decimal(f.numerator) / Decimal(f.denominator)).sqrt() for f in dist]
        exact = float(sum(Decimal(c) / g for c, g in zip(q, dist)))
    assert abs(got[0, d] - exact) <= 2.0 * abs(want[0, d] - exact)


def test_coulomb_rays_raise_on_a_source_at_a_target():
    # a source on a target in the last block of directions, at the last radius
    from quadpole.expansion import _coulomb_rays
    rng = np.random.default_rng(103)
    for h in ((), (2,)):
        u, y, q = _ray_case(rng, 2000, h)
        y[7] = 4.0 * u[-1]
        with pytest.raises(qp.SingularityError):
            _coulomb_rays(u, np.array([1.5, 4.0]), y, q)
        assert np.all(np.isfinite(_coulomb_rays(u, np.array([1.5, 3.0]), y, q)))


@pytest.mark.parametrize("m, h", [(2000, (2,)), (110, ())], ids=["cloud", "surface"])
def test_coulomb_rays_memory_is_at_most_coulombs(m, h):
    # at the racc configuration, the cloud's two-column reference and a
    # point-charge sum on the 110-point rule: the three ray buffers hold no
    # more than _coulomb's two, and no (radii, directions, 3) targets are built
    import tracemalloc
    from quadpole.expansion import _coulomb, _coulomb_rays
    u, y, q = _ray_case(np.random.default_rng(107), m, h)
    radii = np.geomspace(1.5, 30.0, 16)
    x = radii[:, None, None] * u
    peaks = []
    for call in (lambda: _coulomb_rays(u, radii, y, q), lambda: _coulomb(x, y, q)):
        call()
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1]


def test_fit_builds_no_kernel_matrix():
    import tracemalloc
    rng = np.random.default_rng(83)
    cloud = qp.PointCharges(rng.uniform(-0.5, 0.5, (500, 3)), rng.uniform(-1.0, 1.0, 500))
    rule = qp.lebedev_rule(59)
    qp.fit_outer(cloud, np.zeros(3), 1.0, 30, rule)
    tracemalloc.start()
    try:
        qp.fit_outer(cloud, np.zeros(3), 1.0, 30, rule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the kernel is contracted with the charges block by block, so the peak
    # stays below one 500 x 1202 float64 matrix (4.8 MB)
    assert peak < 8 * len(cloud) * len(rule)


def test_point_charge_tracks_series():
    rng = np.random.default_rng(59)
    cloud = random_cloud(rng, 100)
    e = qp.fit_outer(cloud, np.zeros(3), 1.0, 6)
    for r in (4.0, 10.0):
        x = r * qp.lebedev_rule(15).points
        series = qp.eval_outer_potential(e, x)
        points = qp.eval_point_charge_potential(e, x)
        exact = qp.direct_potential(cloud, x)
        assert np.mean(np.abs(series - points)) < np.mean(np.abs(series - exact))


def test_linearity_of_fit():
    rng = np.random.default_rng(61)
    a = random_cloud(rng, 20)
    b = random_cloud(rng, 20)
    both = qp.PointCharges(np.vstack([a.positions, b.positions]),
                           np.concatenate([a.charges, b.charges]))
    ea = qp.fit_outer(a, np.zeros(3), 1.0, 5)
    eb = qp.fit_outer(b, np.zeros(3), 1.0, 5)
    eab = qp.fit_outer(both, np.zeros(3), 1.0, 5)
    assert np.allclose((ea + eb).surface_weights, eab.surface_weights, atol=1e-13)


@pytest.mark.parametrize("at", [3, 15], ids=["6 points", "86 points"])
@pytest.mark.parametrize("sets", [None, 16], ids=["potential", "16 coefficient sets"])
def test_sums_on_rule_match_the_evaluations(at, sets):
    # expansions of one rule, order and kind summed together at c + rho R rhat_j,
    # rhat_j the points of an evaluation rule, against each one's evaluation
    # there (coefficient sets: the sums that racc makes), within 1e-14 of
    # sum |w| / R, the size of the potential on the sphere
    from quadpole.expansion import _sums_on_rule, _surface_sum
    rng = np.random.default_rng(101)
    at, p = qp.lebedev_rule(at), 8
    rule = qp.rule_for_expansion(p)
    coef = None if sets is None else rng.standard_normal((p, sets))
    outer = [qp.fit_outer(random_cloud(rng, 40), [0.5, 0.0, -1.0], 0.8, p, rule=rule)]
    inner = [qp.fit_inner(random_cloud(rng, 30, offset=(5.0, 0.0, 0.0)), c, R, p, rule=rule)
             for c, R in (([0.0, 0.0, 0.0], 1.0), ([0.5, 0.5, 0.0], 2.0),
                          ([-1.0, 0.0, 0.3], 0.25), ([0.0, 1.0, 1.0], 1.5))]
    for exps, rho, evaluate, outside in (
            (outer, 1.0, qp.eval_outer_potential, True),
            (outer, 2.5, qp.eval_outer_potential, True),
            (inner, 1.0, qp.eval_inner_potential, False),
            (inner, 0.6, qp.eval_inner_potential, False)):
        got = _sums_on_rule(iter(exps), at, rho, coef)
        assert got.shape == (() if sets is None else (sets,)) + (len(exps), len(at))
        for k, e in enumerate(exps):
            targets = e.center + rho * e.radius * at.points
            want = (evaluate(e, targets) if sets is None
                    else _surface_sum(e, targets, coef, outside))
            tol = 1e-14 * np.sum(np.abs(e.surface_weights)) / e.radius
            assert np.all(np.abs(got[..., k, :] - want) <= tol)


def test_sums_on_rule_contract():
    from quadpole.expansion import _sums_on_rule
    at = qp.lebedev_rule(15)
    empty = qp.fit_inner(qp.PointCharges.empty(), [1.0, 0.0, 0.0], 2.0, 6)
    assert np.all(_sums_on_rule([empty, empty], at, 1.0) == 0.0)
    outer = qp.fit_outer(unit_charge_at([0.1, 0.0, 0.0]), np.zeros(3), 1.0, 6, rule=empty.rule)
    with pytest.raises(qp.GeometryError, match="inside the sphere"):
        _sums_on_rule([outer], at, 1.0 - 1e-6)
    with pytest.raises(qp.GeometryError, match="outside the sphere"):
        _sums_on_rule([empty], at, 1.0 + 1e-6)
    for mixed in ([outer, qp.fit_outer(unit_charge_at([0.1, 0.0, 0.0]), np.zeros(3), 1.0, 5,
                                       rule=empty.rule)],
                  [outer, qp.fit_outer(unit_charge_at([0.1, 0.0, 0.0]), np.zeros(3), 1.0, 6,
                                       rule=qp.rule_for_expansion(12))],
                  [empty, outer], []):
        with pytest.raises(qp.ContractViolation):
            _sums_on_rule(mixed, at, 1.0)


def test_interaction_energy_two_charges():
    d = 5.0
    outer = qp.fit_outer(unit_charge_at([0.0, 0.0, 0.0]), np.zeros(3), 1.0, 4)
    inner = qp.fit_inner(unit_charge_at([0.0, 0.0, d]), np.zeros(3), 1.0, 4,
                         rule=outer.rule)
    val = qp.interaction_energy(outer, inner)
    assert abs(val - 1.0 / d) <= (1.0 / d) ** 4


def test_interaction_energy_cloud_vs_double_sum():
    rng = np.random.default_rng(67)
    inside = random_cloud(rng, 40)
    outside = random_cloud(rng, 30, scale=0.4, offset=(6.0, 0.0, 0.0))
    p = 8
    outer = qp.fit_outer(inside, np.zeros(3), 1.0, p)
    inner = qp.fit_inner(outside, np.zeros(3), 1.0, p, rule=outer.rule)
    val = qp.interaction_energy(outer, inner)
    ref = qp.direct_energy(inside, outside)
    assert val == pytest.approx(ref, abs=5e-6)
    # the folded sum against the inner expansion evaluated at each surface point
    unfolded = outer.surface_weights @ qp.eval_inner_potential(inner, outer.surface_points)
    assert val == pytest.approx(unfolded, rel=1e-13)


def test_interaction_energy_contract_checks():
    outer = qp.fit_outer(unit_charge_at([0.0, 0.0, 0.0]), np.zeros(3), 1.0, 4)
    inner = qp.fit_inner(unit_charge_at([0.0, 0.0, 5.0]), np.zeros(3), 2.0, 4,
                         rule=outer.rule)
    with pytest.raises(qp.ContractViolation):
        qp.interaction_energy(outer, inner)
    zero = qp.fit_inner(qp.PointCharges.empty(), np.zeros(3), 1.0, 4, rule=outer.rule)
    assert qp.interaction_energy(outer, zero) == 0.0


@pytest.mark.parametrize("R, offset", [(1.0, 0.0), (0.01, 1e-13)], ids=["far", "small"])
def test_interaction_energy_is_independent_of_where_the_pair_sits(R, offset):
    # A pair about a center at |c| = 1e6 (R = 1), or of radius 0.01 whose
    # centers differ by 1e-13 (within the shared-geometry tolerance, but ten
    # times 1e-12 R), has the energy of the same pair at the origin, scaled
    # by 1 / R: absolute positions c + R rhat of the outer's points would lie
    # off the inner's sphere by more than its 1e-12 R slack.
    rng = np.random.default_rng(83)
    inside = random_cloud(rng, 20, scale=0.4)
    outside = random_cloud(rng, 15, scale=0.4, offset=(4.0, 0.0, 0.0))
    rule = qp.rule_for_expansion(8)

    def energy(c, shift, R):
        outer = qp.fit_outer(qp.PointCharges(c + R * inside.positions, inside.charges),
                             c, R, 8, rule=rule)
        inner = qp.fit_inner(qp.PointCharges(c + R * outside.positions, outside.charges),
                             c + shift, R, 8, rule=rule)
        return qp.interaction_energy(outer, inner)

    ref = energy(np.zeros(3), 0.0, 1.0)
    directions = rng.normal(size=(4, 3))
    for d in directions / np.linalg.norm(directions, axis=1)[:, None]:
        c = 1e6 * d if offset == 0.0 else np.zeros(3)
        assert energy(c, offset * d, R) == pytest.approx(ref / R, rel=1e-10)


def test_rules_of_equal_size_must_be_equal():
    # a copy of a rule is the same rule; the rule rotated is not, though it
    # has as many points
    rule = qp.lebedev_rule(7)
    c, s = np.cos(0.3), np.sin(0.3)
    turn = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    copy = qp.QuadratureRule(rule.points.copy(), rule.weights.copy(), 7)
    rotated = qp.QuadratureRule(rule.points @ turn.T, rule.weights.copy(), 7)
    inside, outside = unit_charge_at([0.1, 0.2, 0.3]), unit_charge_at([0.0, 0.5, 4.0])
    x = np.array([[3.0, 0.0, 0.0]])
    a = qp.fit_outer(inside, np.zeros(3), 1.0, 4, rule=rule)
    b = qp.fit_outer(inside, np.zeros(3), 1.0, 4, rule=copy)
    assert qp.eval_outer_potential(a + b, x) == 2 * qp.eval_outer_potential(a, x)
    assert qp.interaction_energy(a, qp.fit_inner(outside, np.zeros(3), 1.0, 4, rule=copy)) \
        == qp.interaction_energy(a, qp.fit_inner(outside, np.zeros(3), 1.0, 4, rule=rule))
    b = qp.fit_outer(inside, np.zeros(3), 1.0, 4, rule=rotated)
    with pytest.raises(qp.ContractViolation):
        qp.eval_outer_potential(a + b, x)
    with pytest.raises(qp.ContractViolation):
        qp.interaction_energy(a, qp.fit_inner(outside, np.zeros(3), 1.0, 4, rule=rotated))


def test_kind_checks_share_one_message():
    outer = qp.fit_outer(qp.PointCharges.empty(), np.zeros(3), 1.0, 4)
    inner = qp.fit_inner(qp.PointCharges.empty(), np.zeros(3), 1.0, 4, rule=outer.rule)
    far, near = np.array([3.0, 0.0, 0.0]), np.zeros(3)
    wrong_outer = [lambda: qp.eval_outer_potential(inner, far),
                   lambda: qp.interaction_energy(inner, inner),
                   lambda: qp.outer_gradient(inner, far),
                   lambda: qp.polytensor_from_expansion(inner),
                   lambda: qp.shift_outer(inner, near, 2.0),
                   lambda: qp.outer_to_inner(inner, np.array([4.0, 0.0, 0.0]), 1.0),
                   lambda: qp.energy_between_outers(inner, outer),
                   lambda: qp.energy_between_outers(outer, inner)]
    wrong_inner = [lambda: qp.eval_inner_potential(outer, near),
                   lambda: qp.interaction_energy(outer, outer),
                   lambda: qp.shift_inner(outer, near, 0.5)]
    for calls, want, got in ((wrong_outer, "outer", "inner"), (wrong_inner, "inner", "outer")):
        for call in calls:
            with pytest.raises(qp.ContractViolation,
                               match="^expected an %s expansion, got %s$" % (want, got)):
                call()


def test_energy_between_outers():
    d = 7.0
    a = qp.fit_outer(unit_charge_at([0.0, 0.0, 0.0]), np.zeros(3), 1.0, 6)
    b = qp.fit_outer(unit_charge_at([d, 0.0, 0.0]), np.array([d, 0, 0]), 1.0, 6,
                     rule=a.rule)
    assert qp.energy_between_outers(a, b) == pytest.approx(1.0 / d, rel=1e-5)
    with pytest.raises(qp.GeometryError):
        qp.energy_between_outers(a, qp.fit_outer(
            unit_charge_at([1.5, 0.0, 0.0]), np.array([1.5, 0, 0]), 1.0, 6, rule=a.rule))


def test_energy_between_outers_clouds():
    rng = np.random.default_rng(71)
    ca = random_cloud(rng, 25)
    cb = random_cloud(rng, 25, offset=(9.0, 0.0, 0.0))
    a = qp.fit_outer(ca, np.zeros(3), 1.0, 8)
    b = qp.fit_outer(cb, np.array([9.0, 0, 0]), 1.0, 8, rule=a.rule)
    assert qp.energy_between_outers(a, b) == pytest.approx(qp.direct_energy(ca, cb),
                                                           abs=1e-7)


def test_energy_exchange_symmetry():
    # symmetric two-charge geometry: either cloud may play the outer role
    d = 5.0
    rule = qp.rule_for_expansion(6)
    at0 = unit_charge_at([0.0, 0.0, 0.0])
    atd = unit_charge_at([0.0, 0.0, d])
    e1 = qp.interaction_energy(qp.fit_outer(at0, np.zeros(3), 1.0, 6, rule=rule),
                               qp.fit_inner(atd, np.zeros(3), 1.0, 6, rule=rule))
    e2 = qp.interaction_energy(qp.fit_outer(atd, np.array([0, 0, d]), 1.0, 6, rule=rule),
                               qp.fit_inner(at0, np.array([0, 0, d]), 1.0, 6, rule=rule))
    assert e1 == pytest.approx(e2, abs=1e-9)


def test_moment_matching_against_tensors():
    rng = np.random.default_rng(73)
    cloud = random_cloud(rng, 30)
    p = 6
    e = qp.fit_outer(cloud, np.zeros(3), 1.0, p)
    pt = qp.moments_from_charges(cloud, p)
    pte = qp.polytensor_from_expansion(e)
    for n in range(p):
        for _ in range(10):
            rh = rng.standard_normal(3)
            rh /= np.linalg.norm(rh)
            a = qp.detrace_directional(pt, rh, n)
            b = qp.detrace_directional(pte, rh, n)
            assert a == pytest.approx(b, rel=1e-8, abs=1e-10)


def test_serialization_round_trip():
    rng = np.random.default_rng(79)
    cloud = random_cloud(rng, 10)
    e = qp.fit_outer(cloud, np.array([0.5, -0.25, 1.0]), 2.0, 5)
    text = qp.expansion_to_text(e)
    back = qp.expansion_from_text(text)
    assert back.kind == "outer" and back.order == 5
    assert np.allclose(back.center, e.center)
    assert back.radius == e.radius
    assert np.array_equal(back.surface_weights, e.surface_weights)


@pytest.mark.parametrize("order", [3, 15, 59])
def test_text_is_formatted_row_by_row(order):
    # the text as a row-by-row "%.17g" format of each point and weight makes it
    rule = qp.lebedev_rule(order)
    rng = np.random.default_rng(order)
    e = qp.fit_outer(random_cloud(rng, 20), np.array([0.5, -0.25, 1.0]), 2.0,
                     order // 2 + 1, rule)
    lines = ["quadpole-expansion kind=outer p=%d R=2 rule_order=%d center=0.5,-0.25,1"
             % (order // 2 + 1, order)]
    for (x, y, z), w in zip(rule.points, e.surface_weights):
        lines.append("%.17g %.17g %.17g %.17g" % (x, y, z, w))
    assert qp.expansion_to_text(e) == "\n".join(lines) + "\n"


def test_surface_line_count_names_both_counts():
    text = qp.expansion_to_text(qp.fit_outer(unit_charge_at([0.1, 0.2, 0.3]), np.zeros(3),
                                             1.0, 3))
    with pytest.raises(qp.DomainError, match=r"line 1: .* 14 points, but 13 surface lines"):
        qp.expansion_from_text(text.rsplit("\n", 2)[0] + "\n")
    with pytest.raises(qp.DomainError, match=r"line 1: .* 14 points, but 15 surface lines"):
        qp.expansion_from_text(text + "0 0 1 0\n")


def _retyped(value, kind):
    """The real value as an array of the given dtype kind."""
    a = np.asarray(value, dtype=float)
    return {"complex": a + 1j, "bool": a != 0.0, "str": a.astype(str),
            "object": a.astype(object)}[kind]


def _entry_points():
    """(call of one argument, a real value that it takes, the argument's name) by entry point."""
    sources = qp.PointCharges(np.array([[0.1, 0.0, 0.0]]), np.array([1.0]))
    exp = qp.fit_outer(sources, np.zeros(3), 1.0, 4)
    pt = qp.moments_from_charges(sources, 4)
    return {
        "eval_outer_potential": (lambda v: qp.eval_outer_potential(exp, v), [2.0, 0.0, 5.0],
                                 "evaluation points"),
        "direct_potential": (lambda v: qp.direct_potential(sources, v), [2.0, 0.0, 5.0],
                             "evaluation points"),
        "kernel_sum x": (lambda v: qp.kernel_sum(v, [0.0, 0.0, 2.0], [1.0, 1.0]), [1.0, 0.0, 0.0],
                         "x"),
        "kernel_sum coef": (lambda v: qp.kernel_sum([1.0, 0.0, 0.0], [0.0, 0.0, 2.0], v),
                            [1.0, 1.0], "coefficients"),
        "PointCharges positions": (lambda v: qp.PointCharges(v, [1.0]), [[0.0, 0.0, 1.0]],
                                   "positions"),
        "PointCharges charges": (lambda v: qp.PointCharges([[0.0, 0.0, 1.0]], v), [1.0],
                                 "charges"),
        "fit_outer center": (lambda v: qp.fit_outer(sources, v, 1.0, 4), [0.0, 0.0, 0.0],
                             "center"),
        "SurfaceExpansion weights": (lambda v: replace(exp, surface_weights=v),
                                     exp.surface_weights, "surface weights"),
        "detrace_directional": (lambda v: qp.detrace_directional(pt, v, 2), [1.0, 0.0, 0.0],
                                "directions r"),
        "legendre_poly": (lambda v: qp.legendre_poly(3, v), 0.5, "t"),
    }


@pytest.mark.parametrize("kind", ["complex", "bool", "str", "object"])
@pytest.mark.parametrize("entry", sorted(_entry_points()))
def test_arrays_that_are_not_real_numbers_are_refused(entry, kind):
    # a complex, bool, string or object array is a DomainError that names
    # the argument, not a number with its imaginary part dropped (a
    # ComplexWarning) or a bare TypeError; the same values as floats pass
    call, value, name = _entry_points()[entry]
    call(value)
    with pytest.raises(qp.DomainError, match="^%s must be real numbers" % name):
        call(_retyped(value, kind))
