import numpy as np
import pytest

import quadpole as qp
import quadpole.bem as bem
from quadpole.bem import _boundary_system, _harmonic_basis
from quadpole.legendre import kernel_sum, normal_kernel_sum
from quadpole.quadrature import _offset_class, _orbits


def uniform_density_expansion(p=5, R=1.0, sigma0=1.0):
    rule = qp.rule_for_expansion(p)
    return qp.SurfaceExpansion(center=np.zeros(3), radius=R, rule=rule,
                               surface_weights=sigma0 * rule.weights,
                               order=p, kind="outer")


def harmonic_density_expansion(p=6, R=1.0):
    rule = qp.rule_for_expansion(p)
    sigma = 1.0 + rule.points[:, 2] + (3 * rule.points[:, 2] ** 2 - 1) / 2
    return qp.SurfaceExpansion(center=np.zeros(3), radius=R, rule=rule,
                               surface_weights=sigma * rule.weights,
                               order=p, kind="outer"), sigma


def test_single_layer_ext_uniform():
    # uniform density sigma0 on radius R: potential 4 pi R^2 sigma0 / |x|
    exp = uniform_density_expansion(sigma0=0.25)
    x = np.array([[3.0, 0.0, 0.0], [0.0, -5.0, 1.0]])
    r = np.linalg.norm(x, axis=1)
    want = 4 * np.pi * 0.25 / r
    assert np.allclose(qp.single_layer_ext(exp, x), want, atol=1e-13)


def test_single_layer_int_uniform():
    # weights carry solid-angle measure: total charge 4 pi sigma0, so the
    # shell interior potential is 4 pi sigma0 / R
    exp = uniform_density_expansion(R=2.0, sigma0=0.5)
    y = np.array([[0.1, 0.2, -0.3], [1.0, 0.0, 0.0]])
    want = 4 * np.pi * 0.5 / 2.0
    assert np.allclose(qp.single_layer_int(exp, y), want, atol=1e-13)


def test_double_layer_uniform():
    # uniform double layer: 0 outside, -4 pi sigma0 / R^2 ... check both signs
    exp = uniform_density_expansion(sigma0=1.0)
    x = np.array([[4.0, 0.0, 0.0]])
    assert qp.double_layer_ext(exp, x)[0] == pytest.approx(0.0, abs=1e-13)
    y = np.array([[0.2, 0.1, 0.0]])
    want = -4 * np.pi / 1.0 ** 2
    assert qp.double_layer_int(exp, y)[0] == pytest.approx(want, abs=1e-12)


def test_layers_vs_harmonic_closed_form():
    # density P_n(cos theta) on the unit sphere: exterior single layer is
    # 4 pi / (2n+1) r^{-(n+1)} P_n, interior is 4 pi / (2n+1) r^n P_n
    exp, _ = harmonic_density_expansion()
    for x, inside in ((np.array([[0.0, 0.0, 3.0]]), False),
                      (np.array([[0.0, 0.0, 0.4]]), True)):
        r = np.linalg.norm(x[0])
        want = 0.0
        for n in range(3):   # sigma = P_0 + P_1 + P_2 on the z axis
            radial = r ** n if inside else r ** -(n + 1)
            want += 4 * np.pi / (2 * n + 1) * radial
        got = (qp.single_layer_int(exp, x) if inside else qp.single_layer_ext(exp, x))[0]
        assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("layer, wrong_side", [
    (qp.single_layer_ext, [0.3, 0.0, 0.0]),
    (qp.double_layer_ext, [0.0, -0.999, 0.0]),
    (qp.single_layer_int, [5.0, 0.0, 0.0]),
    (qp.double_layer_int, [0.0, 0.0, -1.001]),
])
def test_layers_reject_the_wrong_side(layer, wrong_side):
    # each layer sum stands for a series that diverges past its sphere
    exp = qp.fit_outer(qp.PointCharges(np.array([[0.1, 0.0, 0.0]]), np.array([1.0])),
                       np.zeros(3), 1.0, 6)
    assert np.all(np.isfinite(layer(exp, exp.surface_points)))   # on the sphere is allowed
    with pytest.raises(qp.GeometryError):
        layer(exp, np.vstack([exp.surface_points, wrong_side]))


def test_jump_condition():
    exp, sigma = harmonic_density_expansion()
    jump = qp.jump_check(exp, exp.rule.points)
    assert np.allclose(jump, 4 * np.pi * sigma, atol=1e-8)


def test_jump_requires_unit_vector():
    exp, _ = harmonic_density_expansion()
    with pytest.raises(qp.DomainError):
        qp.jump_check(exp, np.array([0.0, 0.0, 2.0]))


def test_outer_gradient_vs_finite_difference():
    rng = np.random.default_rng(163)
    exp, _ = harmonic_density_expansion()
    x = np.array([1.5, -2.0, 0.7])
    g = qp.outer_gradient(exp, x)
    h = 1e-6
    for k in range(3):
        dx = np.zeros(3)
        dx[k] = h
        num = (qp.single_layer_ext(exp, x + dx) - qp.single_layer_ext(exp, x - dx)) / (2 * h)
        assert g[k] == pytest.approx(num, rel=1e-5, abs=1e-8)


def test_outer_gradient_contract():
    exp, _ = harmonic_density_expansion(p=4)
    # on the sphere is allowed; inside, the series diverges
    assert np.all(np.isfinite(qp.outer_gradient(exp, exp.rule.points)))
    with pytest.raises(qp.GeometryError):
        qp.outer_gradient(exp, np.array([0.2, 0.0, 0.0]))
    inner = qp.SurfaceExpansion(exp.center, exp.radius, exp.rule, exp.surface_weights,
                                exp.order, "inner")
    with pytest.raises(qp.ContractViolation):
        qp.outer_gradient(inner, np.array([3.0, 0.0, 0.0]))


@pytest.mark.parametrize("scale", [1.0, 1e-8, 1e8])
@pytest.mark.parametrize("p", [1, 2, 8, 30])
def test_outer_gradient_matches_the_pairwise_sums(p, scale):
    # the contracted lambda = 3/2 sum against the pairwise gradients
    # normal_kernel_sum(a, x, eye(3), ones(p)) times the weights, within
    # 1e-13 of sum_b |w_b| sum_k |grad L_k(a_b, x)|: targets on the sphere,
    # near it and far, in two row blocks at p = 30, and a single point
    rng = np.random.default_rng(71 + p)
    rule = qp.rule_for_expansion(p)
    exp = qp.SurfaceExpansion(scale * np.array([0.3, -1.2, 0.5]), 1.7 * scale, rule,
                              rng.standard_normal(len(rule)), p, "outer")
    d = rng.standard_normal((40, 3))
    d /= np.linalg.norm(d, axis=1)[:, None]
    rel = d * exp.radius * np.concatenate([[1.0], rng.uniform(1.0, 1.1, 19),
                                           rng.uniform(1.1, 5.0, 20)])[:, None]
    a = (exp.surface_points - exp.center)[:, None, :]

    def pairwise(c):
        return normal_kernel_sum(a, rel[:, None, None, :], np.eye(3), c)

    expect = np.einsum("mbi,b->mi", pairwise(np.ones(p)), exp.surface_weights)
    scale_of = sum(np.einsum("mbi,b->mi", np.abs(pairwise(c)), np.abs(exp.surface_weights))
                   for c in np.eye(p))
    for rows in (slice(None), slice(0, 1), 0):
        got = qp.outer_gradient(exp, exp.center + rel[rows])
        assert got.shape == expect[rows].shape
        assert np.all(np.abs(got - expect[rows]) <= 1e-13 * scale_of[rows])


def test_outer_gradient_builds_no_pairwise_array():
    # the gradient is contracted as the recurrence runs: at p = 30 on the
    # 1202-point rule, 3000 targets would need a (2, 3000, 601, 3) array of
    # pairwise sums, 86.5 MB; the peak stays below 5% of it
    import tracemalloc
    p, m = 30, 3000
    rng = np.random.default_rng(7)
    rule = qp.rule_for_expansion(p)
    exp = qp.SurfaceExpansion(np.zeros(3), 1.0, rule, rng.standard_normal(len(rule)), p, "outer")
    x = rng.standard_normal((m, 3))
    x *= 1.5 / np.linalg.norm(x, axis=1)[:, None]
    qp.outer_gradient(exp, x[:10])
    tracemalloc.start()
    try:
        grad = qp.outer_gradient(exp, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grad.shape == (m, 3) and np.all(np.isfinite(grad))
    assert peak < 0.05 * 2 * m * (len(rule) // 2) * 3 * 8


def test_sphere_boundary_validation():
    with pytest.raises(qp.DomainError):
        qp.SphereBoundary.make(np.zeros(3), -1.0, np.array([1.0, 0, 0]), 4)
    for center, radius, velocity in ((np.zeros(3), np.nan, [1.0, 0, 0]),
                                     (np.zeros(3), np.inf, [1.0, 0, 0]),
                                     ([0.0, np.nan, 0.0], 1.0, [1.0, 0, 0]),
                                     (np.zeros(3), 1.0, [np.inf, 0, 0])):
        with pytest.raises(qp.DomainError, match="finite"):
            qp.SphereBoundary.make(center, radius, velocity, 4)
    # the checks that SurfaceExpansion makes, with their messages
    for center, radius, velocity, message in (
            ([0.0, 0.0], 1.0, [1.0, 0, 0], "^center must be a finite 3-vector$"),
            (np.zeros(3), 1.0, [1.0, 0], "^velocity must be a finite 3-vector$"),
            (np.zeros(3), [1.0], [1.0, 0, 0], "^radius must be finite and positive$"),
            (np.zeros((1, 3)), 1.0, [1.0, 0, 0], "^center must be a finite 3-vector$"),
            (np.zeros(3), True, [1.0, 0, 0], "^radius must be finite and positive$")):
        with pytest.raises(qp.DomainError, match=message):
            qp.SphereBoundary.make(center, radius, velocity, 3)
    s = qp.SphereBoundary.make(np.zeros(3), 1.0, np.array([1.0, 0, 0]), 4)
    assert s.rule.exactness_degree >= 6
    # the order is an integer >= 1, checked before a rule is chosen for it
    rule = qp.lebedev_rule(15)
    for order in (0, -1, 2.5, True, np.float64(3.0), "3", None):
        with pytest.raises(qp.DomainError, match="order must be an integer >= 1"):
            qp.SphereBoundary.make(np.zeros(3), 1.0, [1.0, 0, 0], order)
        with pytest.raises(qp.DomainError, match="order must be an integer >= 1"):
            qp.SphereBoundary(np.zeros(3), 1.0, [1.0, 0, 0], rule, order)
    assert qp.SphereBoundary.make(np.zeros(3), 1.0, [1.0, 0, 0], np.int64(4)).order == 4


def test_single_sphere_flow_analytic():
    # rigid sphere in potential flow: Phi = R^3 (v.x) / (2 |x|^3)
    v = np.array([1.0, 0.0, 0.0])
    s = qp.SphereBoundary.make(np.zeros(3), 1.0, v, 5)
    sol = qp.solve_potential_flow([s])
    x = 2.5 * qp.lebedev_rule(15).points
    got = qp.single_layer_ext(sol.expansions[0], x)
    want = (x @ v) / (2 * np.linalg.norm(x, axis=1) ** 3)
    assert np.allclose(got, want, rtol=1e-8, atol=1e-10)
    assert np.all(sol.residual_report < 1e-10)


def test_flow_rejects_overlap_and_empty():
    v = np.array([1.0, 0.0, 0.0])
    a = qp.SphereBoundary.make(np.zeros(3), 1.0, v, 4)
    b = qp.SphereBoundary.make(np.array([1.5, 0.0, 0.0]), 1.0, v, 4)
    with pytest.raises(qp.GeometryError):
        qp.solve_potential_flow([a, b])
    with pytest.raises(qp.DomainError):
        qp.solve_potential_flow([])


def three_sphere_scene(p):
    return [
        qp.SphereBoundary.make(np.array([-1.0, 1.5, 0.0]), 1.0,
                               np.array([1.0, 0.0, 0.0]), p),
        qp.SphereBoundary.make(np.array([-1.0, -1.5, 0.0]), 1.0,
                               np.array([1.0, 0.0, 0.0]), p),
        qp.SphereBoundary.make(np.array([4.0, 0.0, 0.0]), 3.0,
                               np.array([-1.0, 0.0, 0.0]), p),
    ]


def test_three_sphere_flow_converges():
    ref = qp.lebedev_rule(59)
    errs = []
    for p in (3, 5, 7):
        sol = qp.solve_potential_flow(three_sphere_scene(p))
        err = qp.boundary_error(sol, three_sphere_scene(p), ref)
        # rank p^2 per sphere; spheres 0 and 1 are mirror images in y = 0
        assert sol.rank == 3 * p * p
        assert np.isfinite(sol.cond) and sol.cond < 20
        assert err[1] == pytest.approx(err[0], rel=1e-10)
        errs.append(np.max(err))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 2e-2


@pytest.mark.parametrize("p", [3, 7])
def test_boundary_error_matches_gradient_oracle(p):
    # the same mismatch n.v0 + n.grad(Phi), from the 3-vector gradient of
    # each expansion at the reference points, covers both the same-center
    # radial-derivative blocks and the normal sums between spheres
    spheres = three_sphere_scene(p)
    sol = qp.solve_potential_flow(spheres)
    ref = qp.lebedev_rule(59)
    n = ref.points
    want = []
    for s in spheres:
        x = s.center + s.radius * n
        grad = sum(qp.outer_gradient(exp, x) for exp in sol.expansions)
        mismatch = n @ s.velocity + np.sum(n * grad, axis=1)
        want.append(np.sqrt(np.sum(ref.weights * mismatch ** 2) / np.sum(ref.weights)))
    got = qp.boundary_error(sol, spheres, ref)
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def identity_bases(spheres):
    """Each sphere's identity basis: _boundary_system then gives the full system."""
    return [np.eye(len(s.rule)) for s in spheres]


def test_boundary_system_memory():
    # each block is projected onto its basis and written into the
    # preallocated matrix as it is made, so the peak is the projected matrix
    # plus the kernel sums' row blocks, with no matrix over every weight
    import tracemalloc
    spheres = three_sphere_scene(8)
    ref = qp.lebedev_rule(59)
    bases = [_harmonic_basis(s.rule, s.order) for s in spheres]
    _boundary_system(spheres, spheres, ref, bases)
    tracemalloc.start()
    try:
        AP, _ = _boundary_system(spheres, spheres, ref, bases)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert AP.shape == (3 * len(ref), 3 * 64)
    assert peak <= 1.5 * AP.nbytes


@pytest.mark.parametrize("distance", [1e3, 1e6])
def test_flow_does_not_depend_on_where_the_scene_sits(distance):
    # each block takes its row points from the source's center, d + R rhat,
    # so the scene moved far from the origin solves and checks alike
    ref = qp.lebedev_rule(59)

    def errors(shift):
        spheres = [qp.SphereBoundary.make(s.center + shift, s.radius, s.velocity, 6)
                   for s in three_sphere_scene(6)]
        return qp.boundary_error(qp.solve_potential_flow(spheres), spheres, ref)

    moved = errors(distance * np.array([1.0, -1.0, 1.0]))
    assert np.allclose(moved, errors(np.zeros(3)), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("k", [-300, 300])
def test_flow_solve_is_scale_free(k):
    # the scene scaled by 2^k solves on the same prescaled system: cond,
    # rank, residuals and boundary errors are those at k = 0 bit for bit,
    # and the weights, which carry a length squared, are 2^(2k) theirs
    ref = qp.lebedev_rule(59)

    def solve(k):
        spheres = [qp.SphereBoundary.make(np.ldexp(s.center, k), np.ldexp(s.radius, k),
                                          s.velocity, 6) for s in three_sphere_scene(6)]
        sol = qp.solve_potential_flow(spheres)
        return sol, qp.boundary_error(sol, spheres, ref)

    (sol0, err0), (sol, err) = solve(0), solve(k)
    assert sol.cond == sol0.cond and sol.rank == sol0.rank
    assert np.array_equal(sol.residual_report, sol0.residual_report)
    assert np.array_equal(err, err0)
    for e, e0 in zip(sol.expansions, sol0.expansions):
        assert np.array_equal(e.surface_weights, np.ldexp(e0.surface_weights, 2 * k))


def unreduced_flow_blocks(spheres, sources, rule):
    """Each flow block over every rule point, and per entry the sum of |terms| over degrees."""
    blocks, scales = {}, {}
    for i, s in enumerate(spheres):
        for j, src in enumerate(sources):
            a = src.radius * src.rule.points
            rel = (s.center - src.center + s.radius * rule.points)[:, None, :]
            if np.array_equal(s.center, src.center):
                coef = -(np.arange(src.order) + 1.0) / s.radius

                def block(c):
                    return kernel_sum(a, rel, c)
            else:
                coef = np.ones(src.order)

                def block(c):
                    return normal_kernel_sum(a, rel, rule.points[:, None, :], c)
            blocks[i, j] = block(coef)
            scales[i, j] = sum(np.abs(block(c)) for c in np.diag(coef))
    return blocks, scales


def assert_flow_matches_unreduced(spheres, expansions, fit_rule, ref_rule):
    # the solve's matrix, block by block: within 1e-13 of the sum of |terms|
    # of each entry
    n = len(fit_rule)
    cols = np.cumsum([0] + [len(s.rule) for s in spheres])
    sqw = np.sqrt(fit_rule.weights)[:, None]
    A, _ = _boundary_system(spheres, spheres, fit_rule, identity_bases(spheres))
    full, scale = unreduced_flow_blocks(spheres, spheres, fit_rule)
    for (i, j), block in full.items():
        got = A[i * n:(i + 1) * n, cols[j]:cols[j + 1]]
        assert np.all(np.abs(got - block * sqw) <= 1e-13 * scale[i, j] * sqw), (i, j)
    # boundary_error: each row's mismatch within 1e-13 of its sum of |terms|,
    # so each weighted RMS within 1e-13 of the RMS of those sums
    full, scale = unreduced_flow_blocks(spheres, expansions, ref_rule)

    def rms(rows):
        return np.sqrt(np.sum(ref_rule.weights * rows ** 2) / np.sum(ref_rule.weights))

    sol = qp.FlowSolution(tuple(expansions), None, 0, 0.0)
    got = qp.boundary_error(sol, spheres, ref_rule)
    for i, s in enumerate(spheres):
        nv = ref_rule.points @ s.velocity
        want = nv + sum(full[i, j] @ e.surface_weights for j, e in enumerate(expansions))
        bound = np.abs(nv) + sum(scale[i, j] @ np.abs(e.surface_weights)
                                 for j, e in enumerate(expansions))
        assert abs(got[i] - rms(want)) <= 1e-13 * rms(bound), i


def random_expansions(spheres, seed):
    """Outer expansions of random surface weights on the spheres."""
    rng = np.random.default_rng(seed)
    return [qp.SurfaceExpansion(s.center, s.radius, s.rule,
                                rng.uniform(-1.0, 1.0, len(s.rule)), s.order, "outer")
            for s in spheres]


# offset of the second sphere's center, and how many of the 48 signed axis
# permutations fix it
FLOW_OFFSETS = {
    "axis": ((0.0, 3.0, 0.0), 8),
    "face-diagonal": ((2.0, 2.0, 0.0), 4),
    "plane": ((-2.5, 1.5, 0.0), 2),
    "general": ((2.5, -1.5, 1.0), 1),
}


@pytest.mark.parametrize("offset", list(FLOW_OFFSETS))
@pytest.mark.parametrize("p", [2, 5, 8])
def test_reduced_flow_blocks_match_full_rows(p, offset):
    # each block sums the kernel at one row point per orbit of the shared
    # symmetries that fix the offset between the centers; the full rows are
    # summed here at every rule point
    d, fixing = FLOW_OFFSETS[offset]
    spheres = [qp.SphereBoundary.make(np.zeros(3), 1.0, np.array([1.0, 0.0, 0.0]), p),
               qp.SphereBoundary.make(np.array(d), 0.5, np.array([0.0, -1.0, 0.5]), p)]
    fit_rule = qp.rule_for_expansion(p, min_order=29)
    ref_rule = qp.lebedev_rule(59)
    for rule in (fit_rule, ref_rule):
        for i, j, count in ((0, 0, 48), (1, 1, 48), (0, 1, fixing), (1, 0, fixing)):
            d_ij = spheres[i].center - spheres[j].center
            assert len(_orbits(rule, spheres[j].rule, d_ij)[0]) == count
    assert_flow_matches_unreduced(spheres, random_expansions(spheres, p), fit_rule, ref_rule)


def hand_built_scene(p):
    """A sphere on the order-p rule turned about a generic axis, and a sphere beside it."""
    rule = qp.rule_for_expansion(p)
    axis = np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0)
    k = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]], [-axis[1], axis[0], 0.0]])
    turn = np.eye(3) + np.sin(0.3) * k + (1.0 - np.cos(0.3)) * k @ k
    rotated = qp.QuadratureRule((rule.points[:, None, :] * turn).sum(axis=-1),
                                rule.weights.copy(), rule.exactness_degree)
    return [qp.SphereBoundary(np.zeros(3), 1.0, np.array([1.0, 0.0, 0.0]), rotated, p),
            qp.SphereBoundary.make(np.array([0.0, 3.0, 0.0]), 1.0,
                                   np.array([-1.0, 0.0, 0.0]), p)]


def nudged_rule(p):
    """The order-p rule with one point moved 1e-6 and its antipode moved with it (its
    exactness label kept): centrally symmetric, with no symmetry but {I, -I}."""
    rule = qp.rule_for_expansion(p)
    points = rule.points.copy()
    points[3] += 1e-6 * np.array([0.3, -0.2, 0.1])
    points[3] /= np.linalg.norm(points[3])
    points[rule.antipodes[3]] = -points[3]
    return qp.QuadratureRule(points, rule.weights.copy(), rule.exactness_degree)


def square_scene(p):
    """Four unit spheres at the corners of a square of side 3 in the z = 0 plane."""
    return [qp.SphereBoundary.make(np.array([x, y, 0.0]), 1.0, np.array([1.0, 0.5, 0.0]), p)
            for x in (0.0, 3.0) for y in (0.0, 3.0)]


def count_recurrences(monkeypatch):
    """Record the rows of each call of the flow blocks' kernel recurrence."""
    calls = []
    original = bem._normal_sums

    def counted(a, x, n, coef, pair):
        calls.append(len(x))
        return original(a, x, n, coef, pair)

    monkeypatch.setattr(bem, "_normal_sums", counted)
    return calls


def class_reps(spheres, rule):
    """The offset classes of the blocks of spheres' rows on rule, and their reps in all."""
    classes = {(_offset_class(rule, src.rule, s.center - src.center)[0], s.radius, src.radius,
                src.rule, src.order) for s in spheres for src in spheres}
    return len(classes), sum(len(_orbits(rule, key[3], np.array(key[0]))[2]) for key in classes)


@pytest.mark.parametrize("scene, classes", [(square_scene, 3), (three_sphere_scene, 5),
                                            (lambda p: two_sphere_scene(1.0, p), 4)],
                         ids=["square", "three spheres", "unequal radii"])
@pytest.mark.parametrize("p", [3, 8])
def test_flow_blocks_are_summed_once_per_offset_class(scene, classes, p, monkeypatch):
    # the square's 16 blocks fall into 3 classes: own, side and diagonal
    # offsets.  The three spheres' 9 blocks into 5, spheres 0 and 1 being
    # mirror images in y.  Two spheres of radii 1 and 0.5 make 4: the two
    # blocks between them have opposite offsets, one canonical offset, but
    # unequal radii.  Each rule sums each class once, at one row per orbit:
    # the classes share calls, packed into row blocks, so the rows summed
    # are the reps of the classes exactly, in at most one call per class.
    # Every block matches the unreduced oracle.
    spheres = scene(p)
    fit_rule = qp.rule_for_expansion(p, min_order=29)
    ref_rule = qp.lebedev_rule(59)
    calls = count_recurrences(monkeypatch)
    _boundary_system(spheres, spheres, fit_rule, identity_bases(spheres))
    assert class_reps(spheres, fit_rule) == (classes, sum(calls))
    assert 1 <= len(calls) <= classes
    fit_calls = calls[:]
    del calls[:]
    sol = qp.FlowSolution(tuple(random_expansions(spheres, p)), None, 0, 0.0)
    qp.boundary_error(sol, spheres, ref_rule)
    assert class_reps(spheres, ref_rule) == (classes, sum(calls))
    assert 1 <= len(calls) <= classes
    if scene is three_sphere_scene and p == 8:
        assert (sum(fit_calls), sum(calls)) == (397, 1490)
    monkeypatch.undo()
    assert_flow_matches_unreduced(spheres, sol.expansions, fit_rule, ref_rule)


def test_offset_classes_use_only_the_shared_symmetries():
    # the canonical offset is the largest image under the symmetries both
    # rules hold, and the maps returned carry it back to d
    rule = qp.lebedev_rule(29)
    d = np.array([-2.5, 1.5, -1.0])
    c, row_map, col_map = _offset_class(rule, rule, d)
    assert c == (2.5, 1.5, 1.0)
    S = rule.symmetries[0]
    g = [k for k in range(len(S)) if np.array_equal(S[k] @ np.array(c), d)]
    assert any(np.array_equal(row_map, rule.symmetries[1][k]) for k in g)
    assert np.array_equal(col_map, row_map)
    # the nudged and the turned rule hold only {I, -I}: an offset goes to the
    # larger of d and -d, and the maps carry it back
    for hand_built in (nudged_rule(5), hand_built_scene(5)[0].rule):
        c, row_map, col_map = _offset_class(rule, hand_built, d)
        assert c == (2.5, -1.5, 1.0)
        assert np.array_equal(rule.points[row_map], -rule.points)
        assert np.array_equal(hand_built.points[col_map], -hand_built.points)
    assert _offset_class(rule, hand_built, -d)[0] == (2.5, -1.5, 1.0)


def test_flow_on_a_hand_built_rule_uses_only_shared_symmetries():
    # a rule turned about a generic axis keeps only {I, -I}: its own block
    # against the embedded fit and reference rules has two symmetries, its
    # blocks with the other sphere only the identity
    p = 5
    spheres = hand_built_scene(p)
    rotated = spheres[0].rule
    fit_rule = qp.rule_for_expansion(p, min_order=29)
    ref_rule = qp.lebedev_rule(59)
    for rows in (fit_rule, ref_rule):
        k, m, _ = _orbits(rows, rotated, np.zeros(3))
        assert len(k) == 2
        assert np.array_equal(rows.points[rows.symmetries[1][k[1]]], -rows.points)
        assert np.array_equal(rotated.points[rotated.symmetries[1][m[1]]], -rotated.points)
        assert len(_orbits(rows, rotated, spheres[1].center)[0]) == 1
        assert len(_orbits(rows, spheres[1].rule, -spheres[1].center)[0]) == 8
    sol = qp.solve_potential_flow(spheres)
    assert sol.rank == 2 * p * p
    assert_flow_matches_unreduced(spheres, sol.expansions, fit_rule, ref_rule)


def full_matrix_solution(spheres):
    """The solve on every surface weight: the minimum-norm least-squares solution of the
    full system, its per-sphere RMS residual, rank and cond, and the system's matrix."""
    fit_rule = qp.rule_for_expansion(max(s.order for s in spheres), min_order=29)
    A, b = _boundary_system(spheres, spheres, fit_rule, identity_bases(spheres))
    w, _, rank, sv = np.linalg.lstsq(A, b, rcond=1e-10)
    resid = (A @ w - b).reshape(len(spheres), -1)
    report = np.sqrt(np.sum(resid ** 2, axis=1) / np.sum(fit_rule.weights))
    return w, report, rank, sv[0] / sv[rank - 1], A


def two_sphere_scene(gap, p):
    """Spheres of radii 1 and 0.5, gap apart along the x axis."""
    return [qp.SphereBoundary.make(np.zeros(3), 1.0, np.array([1.0, 0.0, 0.0]), p),
            qp.SphereBoundary.make(np.array([1.5 + gap, 0.0, 0.0]), 0.5,
                                   np.array([0.0, -1.0, 0.5]), p)]


@pytest.mark.parametrize("scene", [lambda: three_sphere_scene(3), lambda: three_sphere_scene(8),
                                   lambda: hand_built_scene(5), lambda: two_sphere_scene(0.01, 8)],
                         ids=["three spheres p=3", "three spheres p=8", "hand-built rule",
                              "near contact p=8"])
def test_flow_on_harmonic_columns_matches_the_full_solve(scene):
    # the normal equations on p^2 columns per sphere against lstsq (gelsd) on
    # every surface weight: the same minimum-norm solution, residual, rank and cond
    spheres = scene()
    w, report, rank, cond, A = full_matrix_solution(spheres)
    sol = qp.solve_potential_flow(spheres)
    got = np.concatenate([e.surface_weights for e in sol.expansions])
    assert sol.rank == rank == sum(s.order ** 2 for s in spheres)
    assert np.max(np.abs(got - w)) <= 1e-12 * np.max(np.abs(w))
    assert np.allclose(sol.residual_report, report, rtol=1e-12, atol=0.0)
    assert sol.cond == pytest.approx(cond, rel=1e-12)
    # each sphere's basis is orthonormal and spans the rows of its columns of A
    cols = np.cumsum([0] + [len(s.rule) for s in spheres])
    for j, s in enumerate(spheres):
        P = _harmonic_basis(s.rule, s.order)
        assert P.shape == (len(s.rule), s.order ** 2) and not P.flags.writeable
        assert np.max(np.abs(P.T @ P - np.eye(s.order ** 2))) <= 1e-13
        block = A[:, cols[j]:cols[j + 1]]
        assert np.linalg.norm(block - block @ P @ P.T) <= 1e-13 * np.linalg.norm(block)


@pytest.mark.parametrize("p", [4, 8, 12, 16])
@pytest.mark.parametrize("gap", [1.0, 0.1, 0.01])
def test_flow_system_stays_well_conditioned_near_contact(gap, p):
    # the solve forms the normal equations, which square cond: below 20,
    # they lose at most about 400 ulps, far below the truncation error
    sol = qp.solve_potential_flow(two_sphere_scene(gap, p))
    assert sol.rank == 2 * p * p
    assert 1.0 <= sol.cond < 20


def test_flow_refuses_a_singular_system(monkeypatch):
    # a system whose Gram matrix has no positive smallest eigenvalue is a
    # SolverError, not a LinAlgError
    import quadpole.bem as bem
    monkeypatch.setattr(bem, "_boundary_system",
                        lambda spheres, sources, rule, bases:
                        (np.zeros((len(rule), bases[0].shape[1])), np.ones(len(rule))))
    with pytest.raises(qp.SolverError, match="singular"):
        qp.solve_potential_flow(three_sphere_scene(3)[:1])


@pytest.mark.parametrize("order, kept", [(3, 6), (11, 49)])
def test_flow_refuses_a_rule_labelled_beyond_its_points(order, kept):
    # a rule claiming exactness 15 passes SphereBoundary at p = 8, but its
    # points carry fewer than the 64 harmonics the solve needs
    rule = qp.lebedev_rule(order)
    claimed = qp.QuadratureRule(rule.points, rule.weights, 15)
    sphere = qp.SphereBoundary(np.zeros(3), 1.0, np.array([1.0, 0.0, 0.0]), claimed, 8)
    with pytest.raises(qp.SolverError, match="carries %d independent .* order 8" % kept):
        qp.solve_potential_flow([sphere])


def test_boundary_error_refuses_a_solution_of_another_scene():
    # the mismatch is summed at the spheres' points from the solution's
    # expansions, so a solution whose spheres differ from the scene's in
    # number, center or radius is refused, not measured
    spheres = three_sphere_scene(3)
    sol = qp.solve_potential_flow(spheres)
    ref = qp.lebedev_rule(59)
    assert np.all(qp.boundary_error(sol, spheres, ref) < 0.1)
    moved = [qp.SphereBoundary.make(s.center + [0.0, 0.0, 0.5], s.radius, s.velocity, 3)
             for s in spheres]
    grown = [qp.SphereBoundary.make(s.center, 1.01 * s.radius, s.velocity, 3) for s in spheres]
    for scene in (moved, grown, spheres[:2], spheres + spheres[:1]):
        with pytest.raises(qp.ContractViolation, match="one expansion per sphere"):
            qp.boundary_error(sol, scene, ref)


def test_boundary_error_memory():
    # boundary_error multiplies each block's orbit rows by the permuted
    # weights and builds no matrix: its peak is well under the 3606 x 258
    # matrix of the full system on the reference rule
    import tracemalloc
    spheres = three_sphere_scene(8)
    ref = qp.lebedev_rule(59)
    sol = qp.solve_potential_flow(spheres)
    qp.boundary_error(sol, spheres, ref)
    matrix_bytes = len(spheres) * len(ref) * sum(len(s.rule) for s in spheres) * 8
    tracemalloc.start()
    try:
        qp.boundary_error(sol, spheres, ref)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert matrix_bytes == 3606 * 258 * 8
    assert peak <= 0.5 * matrix_bytes


def test_parse_scene():
    text = """
    # comment line
    0 0 0  1.0  1 0 0
    4 0 0  3.0  -1 0 0   # trailing comment
    """
    rows = qp.parse_scene(text)
    assert len(rows) == 2
    assert rows[1][1] == 3.0
    assert np.allclose(rows[1][2], [-1.0, 0.0, 0.0])


def test_parse_scene_errors():
    with pytest.raises(qp.DomainError, match="line 1"):
        qp.parse_scene("1 2 3 4 5\n")
    with pytest.raises(qp.DomainError, match="line 2"):
        qp.parse_scene("0 0 0 1 1 0 0\n0 0 0 frog 1 0 0\n")
    with pytest.raises(qp.DomainError, match="radius"):
        qp.parse_scene("0 0 0 -1 1 0 0\n")
    for bad in ("-1 1.5 0 nan 1 0 0", "inf 1.5 0 1 1 0 0", "0 0 0 1 -inf 0 0"):
        with pytest.raises(qp.DomainError, match="line 2: numbers must be finite"):
            qp.parse_scene("0 0 0 1 1 0 0\n%s\n" % bad)
