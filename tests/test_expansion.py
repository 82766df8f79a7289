import numpy as np
import pytest

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


def test_interaction_energy_contract_checks():
    outer = qp.fit_outer(unit_charge_at([0.0, 0.0, 0.0]), np.zeros(3), 1.0, 4)
    inner = qp.fit_inner(unit_charge_at([0.0, 0.0, 5.0]), np.zeros(3), 2.0, 4,
                         rule=outer.rule)
    with pytest.raises(qp.ContractViolation):
        qp.interaction_energy(outer, inner)
    zero = qp.fit_inner(qp.PointCharges.empty(), np.zeros(3), 1.0, 4, rule=outer.rule)
    assert qp.interaction_energy(outer, zero) == 0.0


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
                   lambda: qp.outer_to_inner(inner, np.array([4.0, 0.0, 0.0]), 1.0)]
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


def test_surface_line_count_names_both_counts():
    text = qp.expansion_to_text(qp.fit_outer(unit_charge_at([0.1, 0.2, 0.3]), np.zeros(3),
                                             1.0, 3))
    with pytest.raises(qp.DomainError, match=r"line 1: .* 14 points, but 13 surface lines"):
        qp.expansion_from_text(text.rsplit("\n", 2)[0] + "\n")
    with pytest.raises(qp.DomainError, match=r"line 1: .* 14 points, but 15 surface lines"):
        qp.expansion_from_text(text + "0 0 1 0\n")
