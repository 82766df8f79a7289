import math
import tracemalloc

import numpy as np
import pytest
from oracle import LONG, legendre as long_legendre, require_long

import quadpole as qp
from quadpole import legendre
from quadpole.legendre import (
    _aligned,
    _chebyshev,
    _chebyshev_terms,
    _kernel_dot,
    _leading,
    _normal_sums,
    _source_dot,
    _terms,
    grad_scaled_legendre_stack,
    kernel_matrix,
    kernel_sum,
    normal_kernel_sum,
    scaled_legendre_stack,
)


def test_legendre_poly_trivial():
    assert qp.legendre_poly(0, 0.3) == 1.0
    assert qp.legendre_poly(2, 1.0) == 1.0
    assert qp.legendre_poly(2, 0.5) == pytest.approx(-0.125, abs=1e-15)


def test_legendre_poly_p_n_at_one():
    for n in range(20):
        assert qp.legendre_poly(n, 1.0) == pytest.approx(1.0, abs=1e-13)


def test_legendre_poly_domain():
    qp.legendre_poly(3, 1.0 + 5e-13)   # inside the clamp band
    with pytest.raises(qp.DomainError):
        qp.legendre_poly(3, 1.001)
    with pytest.raises(qp.DomainError):
        qp.legendre_poly(-1, 0.0)
    # degrees stop at 1000, where the monic terms still fit in float64
    assert qp.legendre_poly(1000, 1.0) == pytest.approx(1.0, abs=1e-11)
    with pytest.raises(qp.DomainError):
        qp.legendre_poly(1001, 0.0)


@pytest.mark.parametrize("n, t", [(2, np.nan), (2, [0.5, np.nan]), (2.5, 0.5), (True, 0.5),
                                  ("2", 0.5), (np.float64(2.0), 0.5), (None, 0.5)])
def test_legendre_poly_refuses_malformed_input(n, t):
    # a NaN argument and a degree that is not an integer (or is a bool)
    # are domain errors, not a NaN result or a bare TypeError
    with pytest.raises(qp.DomainError):
        qp.legendre_poly(n, t)
    assert qp.legendre_poly(np.int64(2), 0.5) == qp.legendre_poly(2, 0.5)


def test_f_sequence_paper_values():
    x = np.array([1.0, 0.0, 0.0])
    assert scaled_legendre_stack(x, np.array([0.0, 0.0, 2.0]), 1) == pytest.approx([0.5])
    vals = scaled_legendre_stack(x, np.array([2.0, 0.0, 0.0]), 2)
    assert vals == pytest.approx([0.5, 0.25])
    vals = scaled_legendre_stack(x, np.array([0.0, 0.0, 2.0]), 3)
    assert vals == pytest.approx([0.5, 0.0, -0.0625], abs=1e-15)


def test_f_sequence_singularity():
    with pytest.raises(qp.SingularityError):
        scaled_legendre_stack(np.ones(3), np.zeros(3), 3)


def test_scaled_legendre_zero_x():
    y = np.array([0.3, -1.2, 0.4])
    vals = scaled_legendre_stack(np.zeros(3), y, 2)
    assert vals == pytest.approx([1.0 / np.linalg.norm(y), 0.0])


def test_scaled_legendre_matches_closed_form():
    rng = np.random.default_rng(7)
    x = np.array([0.3, 0.1, -0.2])
    y = np.array([1.5, 0.5, 2.0])
    vals = scaled_legendre_stack(x, y, 6)
    nx, ny = np.linalg.norm(x), np.linalg.norm(y)
    t = x @ y / (nx * ny)
    for n in range(6):
        assert vals[n] == pytest.approx(nx ** n / ny ** (n + 1) * qp.legendre_poly(n, t),
                                        rel=1e-12)


def test_route_equivalence_random():
    # recurrence vs closed form over random pairs and orders
    rng = np.random.default_rng(11)
    p = 16
    for _ in range(500):
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        x *= rng.uniform(0.1, 10) / np.linalg.norm(x)
        y *= rng.uniform(0.1, 10) / np.linalg.norm(y)
        vals = scaled_legendre_stack(x, y, p)
        nx, ny = np.linalg.norm(x), np.linalg.norm(y)
        t = np.clip(x @ y / (nx * ny), -1, 1)
        for n in range(p):
            ref = nx ** n / ny ** (n + 1) * qp.legendre_poly(n, t)
            assert abs(vals[n] - ref) <= 1e-10 * max(abs(ref), nx ** n / ny ** (n + 1))


def test_exchange_symmetry():
    rng = np.random.default_rng(13)
    for _ in range(50):
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        lx = scaled_legendre_stack(x, y, 8)
        ly = scaled_legendre_stack(y, x, 8)
        ny, nx = np.linalg.norm(y), np.linalg.norm(x)
        for n in range(8):
            assert lx[n] * ny ** (2 * n + 1) == pytest.approx(ly[n] * nx ** (2 * n + 1),
                                                              rel=1e-10, abs=1e-12)


def test_series_converges_to_coulomb():
    rng = np.random.default_rng(17)
    for _ in range(20):
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        x *= 0.4 / np.linalg.norm(x)
        y *= 2.0 / np.linalg.norm(y)
        ratio = np.linalg.norm(x) / np.linalg.norm(y)
        for p in (4, 8, 12):
            partial = scaled_legendre_stack(x, y, p).sum()
            resid = abs(partial - 1.0 / np.linalg.norm(x - y))
            assert resid <= 5.0 * ratio ** p / np.linalg.norm(y)


def test_kernel_trivial_and_closed_form():
    xh = np.array([1.0, 0.0, 0.0])
    yh = np.array([0.0, 1.0, 0.0])
    assert kernel_matrix(xh, yh, 1) == pytest.approx(1.0 / (4 * np.pi))
    rng = np.random.default_rng(19)
    for _ in range(10):
        a, b = rng.standard_normal((2, 3))
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        t = a @ b
        assert kernel_matrix(a, b, 2) == pytest.approx((1 + 3 * t) / (4 * np.pi), rel=1e-12)


def test_kernel_term_by_term():
    x = np.array([0.5, 0.0, 0.0])
    y = np.array([0.0, 1.0, 0.0])
    expect = sum((2 * n + 1) / (4 * np.pi) * scaled_legendre_stack(x, y, 3)[n]
                 for n in range(3))
    assert kernel_matrix(x, y, 3) == pytest.approx(expect, rel=1e-14)


def test_stack_and_matrix_broadcast():
    rng = np.random.default_rng(23)
    xs = rng.standard_normal((4, 3))
    ys = rng.standard_normal((5, 3)) * 2
    L = scaled_legendre_stack(xs[:, None, :], ys[None, :, :], 6)
    assert L.shape == (6, 4, 5)
    K = kernel_matrix(xs[:, None, :], ys[None, :, :], 6)
    assert K[2, 3] == pytest.approx(kernel_matrix(xs[2], ys[3], 6), rel=1e-13)


@pytest.mark.parametrize("p", [2.5, 3.0, True, False, 0, -1, None, "3"])
def test_kernel_matrix_order_must_be_a_positive_integer(p):
    # a fractional order summed ceil(p) degrees, and True one
    x, y = np.array([0.3, 0.1, 0.0]), np.array([0.0, 1.0, 0.5])
    with pytest.raises(qp.DomainError, match="order must be an integer >= 1"):
        kernel_matrix(x, y, p)
    assert kernel_matrix(x, y, np.int64(3)) == kernel_matrix(x, y, 3)


def _stitched(fn, coef, *arrays, rows=97):
    """fn(*arrays, coef) on slices of `rows` rows of the first batch axis, concatenated.

    97 rows of these batches are fewer pairs than one block, so each call is
    an unblocked sum, and the slices do not line up with the block grid.
    """
    batch = np.broadcast_shapes(*(a.shape[:-1] for a in arrays))

    def cut(a, i):
        return a[i:i + rows] if a.ndim > len(batch) and a.shape[0] > 1 else a

    return np.concatenate([fn(*(cut(a, i) for a in arrays), coef)
                           for i in range(0, batch[0], rows)])


@pytest.mark.parametrize("p", [1, 2, 30])
@pytest.mark.parametrize("shapes", [((3,), (3,)), ((4, 1, 3), (1, 5, 3))])
def test_kernel_sum_matches_weighted_stack(p, shapes):
    rng = np.random.default_rng(41 + p)
    coef = rng.standard_normal(p)
    x = rng.standard_normal(shapes[0])
    y = 3.0 * rng.standard_normal(shapes[1])
    expect = np.tensordot(coef, scaled_legendre_stack(x, y, p), axes=(0, 0))
    got = kernel_sum(x, y, coef)
    assert np.shape(got) == np.shape(expect)
    assert np.allclose(got, expect, rtol=1e-14, atol=0.0)
    # the gradient is the normal derivative along the three axes; the sum
    # reassociates its terms, and its components can cancel to near zero,
    # so it is compared relative to the largest component
    expect = np.tensordot(coef, grad_scaled_legendre_stack(x, y, p), axes=(0, 0))
    got = normal_kernel_sum(x[..., None, :], y[..., None, :], np.eye(3), coef)
    assert np.shape(got) == np.shape(expect)
    assert np.max(np.abs(got - expect)) <= 1e-14 * np.max(np.abs(expect))
    # the normal derivative along random n, shaped like y
    n = rng.standard_normal(shapes[1])
    expect = np.einsum("...k,...k->...", n, expect)
    got = normal_kernel_sum(x, y, n, coef)
    assert np.shape(got) == np.shape(expect)
    assert np.max(np.abs(got - expect)) <= 1e-14 * np.max(np.abs(expect))


@pytest.mark.parametrize("p", [1, 2, 8, 30])
@pytest.mark.parametrize("shapes", [((3,), (3,)), ((5, 1, 3), (1, 4, 3)), ((40, 3), (7, 1, 3))],
                         ids=["scalar", "batched", "set against rows"])
def test_normal_pair_with_constant_coefficients(p, shapes):
    # a constant coef, as the flow rows have, adds each degree to S_B alone
    # and to S_A - S_B only at the last degree (at p = 1, S_A = 0): both
    # P + Q, the sum at a, and P - Q, the sum at -a, match the gradient
    # stack within 1e-14 of its largest component, and a scalar batch is a
    # numpy scalar.  The sources lie inside the rows' shell, as a flow's do.
    rng = np.random.default_rng(67 + p)
    a = _shell(rng, shapes[0][:-1], 0.0, 1.0)
    x = _shell(rng, shapes[1][:-1], 1.5, 3.0)
    n = _shell(rng, shapes[1][:-1], 1.0, 1.0)
    coef = np.full(p, 1.7)
    got = normal_kernel_sum(a, x, n, coef)
    pair = _normal_sums(a, x, n, coef, pair=True)
    for sums, sign in zip(pair, (1.0, -1.0)):
        grad = np.tensordot(coef, grad_scaled_legendre_stack(sign * a, x, p), axes=(0, 0))
        expect = np.einsum("...k,...k->...", n, grad)
        assert sums.shape == expect.shape
        assert np.max(np.abs(sums - expect)) <= 1e-14 * np.max(np.abs(grad))
    assert np.array_equal(got, pair[0])
    if shapes[0] == (3,):
        assert isinstance(got, np.float64) and got.shape == ()
    else:
        assert isinstance(got, np.ndarray) and got.shape == pair.shape[1:]


POINTS = np.array([[0.1, 0.2, 0.3], [0.0, 0.5, 0.0]])
SOURCES = np.array([[2.0, 0.0, 1.0], [0.0, -3.0, 0.0]])


@pytest.mark.parametrize("name, value, match", [
    ("x", [[0.1, np.nan, 0.3], [0.0, 0.5, 0.0]], "x must be finite 3-vectors"),
    ("y", [[2.0, 0.0, np.inf], [0.0, -3.0, 0.0]], "y must be finite 3-vectors"),
    ("coef", [1.0, np.nan, 1.0], "coefficients must be finite, shape"),
    ("x", [[0.1, 0.2], [0.0, 0.5]], "x must be finite 3-vectors"),
    ("y", np.ones((2, 4)), "y must be finite 3-vectors"),
    ("x", 0.5, "x must be finite 3-vectors"),
    ("coef", np.ones((4, 1)), "coefficients must be finite, shape"),
    ("coef", [], "coefficients must be finite, shape"),
])
def test_kernel_sum_refuses_non_finite_or_malformed_input(name, value, match):
    # a NaN or an infinity is a domain error, not a NaN result, and a vector
    # that is not a 3-vector one too, not an IndexError
    args = {"x": POINTS, "y": SOURCES, "coef": np.ones(4)}
    assert np.all(np.isfinite(kernel_sum(**args)))
    args[name] = value
    with pytest.raises(qp.DomainError, match=match):
        kernel_sum(**args)
    if name != "coef":
        with pytest.raises(qp.DomainError, match=match):
            kernel_matrix(args["x"], args["y"], 4)


@pytest.mark.parametrize("name, value, match", [
    ("a", [[0.1, 0.2, np.nan], [0.0, 0.5, 0.0]], "a must be finite 3-vectors"),
    ("x", [[2.0, -np.inf, 1.0], [0.0, -3.0, 0.0]], "x must be finite 3-vectors"),
    ("n", [[1.0, 0.0, 0.0], [np.nan, 0.0, 1.0]], "n must be finite 3-vectors"),
    ("coef", [1.0, 1.0, np.inf], "coefficients must be finite, shape"),
    ("a", [[0.1, 0.2], [0.0, 0.5]], "a must be finite 3-vectors"),
    ("x", np.ones((2, 4)), "x must be finite 3-vectors"),
    ("n", [1.0, 0.0], "n must be finite 3-vectors"),
    ("n", 1.0, "n must be finite 3-vectors"),
    ("coef", 1.0, "coefficients must be finite, shape"),
])
def test_normal_kernel_sum_refuses_non_finite_or_malformed_input(name, value, match):
    args = {"a": POINTS, "x": SOURCES, "n": np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
            "coef": np.ones(4)}
    assert np.all(np.isfinite(normal_kernel_sum(**args)))
    args[name] = value
    with pytest.raises(qp.DomainError, match=match):
        normal_kernel_sum(**args)


@pytest.mark.parametrize("call, match", [
    (lambda: legendre.f_sequence_raw(0.5, 0.25, 1.0, 2.5), "order must be an integer >= 1"),
    (lambda: legendre.f_sequence_raw(0.5, 0.25, 1.0, 0), "order must be an integer >= 1"),
    (lambda: legendre.f_sequence_raw(0.5, 0.25, 1.0, True), "order must be an integer >= 1"),
    (lambda: legendre.f_sequence_raw([0.5, np.nan], 0.25, 1.0, 3), "inner products must be finite"),
    (lambda: legendre.f_sequence_raw(0.5, 0.25, np.inf, 3), "inner products must be finite"),
    (lambda: legendre.f_sequence_raw(0.5j, 0.25, 1.0, 3), "x.y must be real numbers"),
    (lambda: scaled_legendre_stack(POINTS, SOURCES, 2.5), "order must be an integer >= 1"),
    (lambda: scaled_legendre_stack(POINTS, SOURCES, 0), "order must be an integer >= 1"),
    (lambda: scaled_legendre_stack([0.1, np.nan, 0.3], SOURCES, 3), "x must be finite 3-vectors"),
    (lambda: scaled_legendre_stack(POINTS, [2.0, 0.0], 3), "y must be finite 3-vectors"),
    (lambda: grad_scaled_legendre_stack(POINTS, SOURCES, 2.5), "order must be an integer >= 1"),
    (lambda: grad_scaled_legendre_stack(POINTS, SOURCES, 0), "order must be an integer >= 1"),
], ids=["raw-fractional-p", "raw-p0", "raw-bool-p", "raw-nan", "raw-inf", "raw-complex",
        "stack-fractional-p", "stack-p0", "stack-nan-x", "stack-2-vector-y",
        "grad-fractional-p", "grad-p0"])
def test_test_only_stacks_refuse_malformed_input(call, match):
    # the reference stacks check their arguments as every other entry does:
    # a DomainError that names the argument, not a TypeError, an IndexError
    # or NaN terms
    with pytest.raises(qp.DomainError, match=match):
        call()


@pytest.mark.parametrize("p", [1, 2, 30])
@pytest.mark.parametrize("shapes", [
    # more pairs than one block, ending in a partial block, blocked along x,
    # along y, and along a 1-D batch
    ((1203, 1, 3), (1, 50, 3)),
    ((1, 50, 3), (1203, 1, 3)),
    ((20000, 3), (3,)),
])
def test_blocked_sums_match_unblocked_slices(p, shapes):
    rng = np.random.default_rng(41 + p)
    coef = rng.standard_normal(p)
    x = rng.standard_normal(shapes[0])
    y = 3.0 * rng.standard_normal(shapes[1])
    batch = np.broadcast_shapes(shapes[0][:-1], shapes[1][:-1])
    got = kernel_sum(x, y, coef)
    assert got.shape == batch
    assert np.array_equal(got, _stitched(kernel_sum, coef, x, y))
    # the gradient: the normal derivative along the three axis normals
    grad = normal_kernel_sum(x[..., None, :], y[..., None, :], np.eye(3), coef)
    assert grad.shape == batch + (3,)
    assert np.array_equal(
        grad, _stitched(normal_kernel_sum, coef, x[..., None, :], y[..., None, :], np.eye(3)))
    n = rng.standard_normal(shapes[1])
    normal = normal_kernel_sum(x, y, n, coef)
    assert normal.shape == batch
    assert np.array_equal(normal, _stitched(normal_kernel_sum, coef, x, y, n))


def test_blocked_sums_raise_on_a_zero_in_the_last_block():
    x = np.random.default_rng(3).standard_normal((1, 50, 3))
    y = np.ones((1203, 1, 3))
    y[-1] = 0.0
    with pytest.raises(qp.SingularityError):
        kernel_sum(x, y, np.ones(4))
    with pytest.raises(qp.SingularityError):
        normal_kernel_sum(x[..., None, :], y[..., None, :], np.eye(3), np.ones(4))
    with pytest.raises(qp.SingularityError):
        normal_kernel_sum(x, y, np.ones((1203, 1, 3)), np.ones(4))


@pytest.mark.parametrize("call", [
    lambda pts: kernel_matrix(pts[:, None, :], 1.5 * pts[None, :, :], 30),
    lambda pts: normal_kernel_sum(pts[:, None, :], 2 * pts[:, None, None, :], np.eye(3),
                                  np.ones(8)),
    lambda pts: normal_kernel_sum(pts, 2 * pts[:, None, :], pts[:, None, :], np.ones(8)),
], ids=["kernel_matrix", "gradient", "normal_kernel_sum"])
def test_blocked_sums_peak_memory(call):
    pts = qp.lebedev_rule(59).points
    assert len(pts) == 1202
    tracemalloc.start()
    try:
        out = call(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the output plus block-sized working arrays, not batch-sized ones
    assert peak <= 1.5 * out.nbytes


def _shell(rng, shape, r_min, r_max):
    """Points of the given batch shape with radii uniform in [r_min, r_max]."""
    d = rng.standard_normal(shape + (3,))
    return d * (rng.uniform(r_min, r_max, shape) / np.linalg.norm(d, axis=-1))[..., None]


@pytest.mark.parametrize("g0", ["number", "per set point", "per row"])
@pytest.mark.parametrize("p", [1, 2, 3, 30])
def test_terms_start_from_the_given_g0(p, g0):
    # the monic terms G_n = L_n / kappa_n of rows against a set from u = x.y/y.y,
    # v = x.x/y.y and G_0 = 1/|y| given as one number (a set on the unit
    # sphere), one value per set point or one per row; G_0 comes back as given
    rng = np.random.default_rng(53 + p)
    rows, pts = _shell(rng, (7, 1), 0.1, 3.0), _shell(rng, (40,), 0.1, 3.0)
    x, y = {"number": (rows, pts / np.linalg.norm(pts, axis=-1)[:, None]),
            "per set point": (rows, pts), "per row": (pts, rows)}[g0]
    xy, xx, yy = (np.sum(x * y, axis=-1), np.sum(x * x, axis=-1), np.sum(y * y, axis=-1))
    given = 1.0 if g0 == "number" else yy ** -0.5
    terms = _terms(xy / yy, xx / yy, given, p)
    assert next(terms) is given
    got = [given] + [g.copy() for g in terms]
    assert len(got) == p
    expect = scaled_legendre_stack(x, y, p) / _leading(p).reshape((p,) + (1,) * xy.ndim)
    for g, e in zip(got, expect):
        assert np.all(np.abs(np.broadcast_to(g, e.shape) - e) <= 1e-14 * np.abs(expect).max())


@pytest.mark.parametrize("lam", [0.5, 1.5])
@pytest.mark.parametrize("p", [1, 2, 3, 30])
def test_terms_with_number_steps_match_array_steps(p, lam):
    # v = 1 and G_0 = 1 as numbers, as the source sums give them: each step
    # is then a number, and every term equals, bit for bit, the term made
    # with v and G_0 as arrays of ones
    t = np.random.default_rng(67 + p).uniform(-1.0, 1.0, (13, 40))
    ones = np.ones(40)
    pairs = list(zip(*([np.copy(g) for g in _terms(t, v, v, p, lam)] for v in (1.0, ones))))
    assert len(pairs) == p
    for a, b in pairs:
        assert np.array_equal(np.broadcast_to(a, b.shape), b)


@pytest.mark.parametrize("p", [1, 2, 3, 30, 66])
def test_chebyshev_change_of_basis_is_nonnegative_and_keeps_parity(p):
    # A[n, m] > 0 for m <= n of n's parity and 0 elsewhere, read-only, and
    # each order's A is the leading block of the largest order's
    a = _chebyshev(p)
    n, m = np.indices((p, p))
    assert a.shape == (p, p) and not a.flags.writeable
    assert np.all(a >= 0.0)
    assert np.all(a[(m <= n) & ((n - m) % 2 == 0)] > 0.0)
    assert np.all(a[(m > n) | ((n - m) % 2 == 1)] == 0.0)
    assert np.array_equal(a, _chebyshev(66)[:p, :p])


def test_chebyshev_change_of_basis_rows_sum_to_one():
    # P_n(1) = 1 = sum_m A[n, m] T_m(1), up to p = 66, the largest order
    # rule_for_expansion serves: each row of rounded entries sums to 1
    # within 1 ulp
    for row in _chebyshev(66):
        assert abs(np.sum(row) - 1.0) <= np.spacing(1.0)


def test_chebyshev_change_of_basis_gives_the_legendre_polynomials():
    # sum_m A[n, m] cos(m theta) = P_n(cos theta), n < 66, within 2 eps of
    # the longdouble Legendre recurrence: the entries are rounded once, and
    # sum_m A[n, m] |cos(m theta)| <= 1
    require_long()
    theta = np.linspace(0.0, np.pi, 181).astype(LONG)
    want = np.array(list(long_legendre(np.cos(theta), 66)))
    got = _chebyshev(66).astype(LONG) @ np.cos(np.arange(66)[:, None] * theta)
    assert np.all(np.abs(got - want) <= 2 * np.finfo(float).eps)


@pytest.mark.parametrize("p", [1, 2, 3, 30])
def test_chebyshev_terms_are_the_chebyshev_polynomials(p):
    # T_1..T_{p-1} at cosines t against cos(m arccos t) in longdouble,
    # within 3e-14 (1.7e-14 the most seen over 20 draws at p = 30); t itself
    # is T_1, and every term is made in t's array or in the three work arrays
    require_long()
    t = np.cos(np.random.default_rng(71 + p).uniform(0.0, np.pi, (13, 40)))
    work = [np.empty((13, 40)) for _ in range(3)]
    want = np.cos(np.arange(1, p)[:, None, None] * np.arccos(t.astype(LONG)))
    seen = [(g is t, any(g is a for a in [t, *work]), g.copy())
            for g in _chebyshev_terms(t, p, work)]
    assert len(seen) == p - 1 and all(own for _, own, _ in seen)
    assert p < 2 or seen[0][0]
    for (_, _, g), w in zip(seen, want):
        assert np.all(np.abs(g - w) <= 3e-14)


@pytest.mark.parametrize("p", [1, 2, 3, 30])
@pytest.mark.parametrize("targets", [(), (40,), (4, 2)], ids=["scalar", "1-D", "4x2"])
@pytest.mark.parametrize("h", [(), (1,), (8,)], ids=["vector", "h=1", "h=8"])
def test_kernel_dot_matches_kernel_sum(p, targets, h):
    # the contracted sum against the kernel sum times the weights, within
    # 1e-14 of sum |K||w|: the set R rhat_b, rhat_b unit vectors, as the
    # first argument with the targets outside it, as in an exterior sum, and
    # as the second with the targets inside it, as in an interior sum; a
    # target sits at the origin, and 40 targets make two row blocks.
    # Three coefficient sets are each held to the same bound.
    rng = np.random.default_rng(17 + p)
    coef = rng.standard_normal(p)
    sets = rng.standard_normal((p, 3))
    pts = _shell(rng, (700,), 1.0, 1.0)
    far = _shell(rng, targets, 1.2, 4.0)
    near = _shell(rng, targets, 0.0, 0.9)
    near.reshape(-1, 3)[0] = 0.0
    for rows, R, outside in ((far, 0.8, True), (near, 1.7, False)):
        args = _pair(rows, pts, R, outside)
        w = rng.standard_normal((700,) + h)
        K = kernel_sum(*args, coef)
        expect, scale = K @ w, np.abs(K) @ np.abs(w)
        # the even- plus the odd-degree total
        got = np.add(*_kernel_dot(rows, pts, R, coef, w[None], outside))
        assert np.shape(got) == np.shape(expect) == targets + h
        assert np.all(np.abs(got - expect) <= 1e-14 * scale)
        got = np.add(*_kernel_dot(rows, pts, R, sets, w[None], outside))
        assert got.shape == (3,) + targets + h
        for k, c in enumerate(sets.T):
            K = kernel_sum(*args, c)
            assert np.all(np.abs(got[k] - K @ w) <= 1e-14 * (np.abs(K) @ np.abs(w)))
        # no sources: zero sums of the same shape
        got = _kernel_dot(rows, pts[:0], R, coef, w[None, :0], outside)
        assert np.shape(got) == (2,) + targets + h and np.all(got == 0.0)
        got = _kernel_dot(rows, pts[:0], R, sets, w[None, :0], outside)
        assert np.shape(got) == (2, 3) + targets + h and np.all(got == 0.0)
    # a zero second argument, a target outside the set, is singular
    with pytest.raises(qp.SingularityError):
        _kernel_dot(np.zeros(targets + (3,)), pts, 0.8, coef, np.ones((1, 700)), True)


def _pair(rows, pts, R, outside):
    """kernel_sum's arguments for _kernel_dot(rows, pts, R, ..., outside), rows as (..., 1, 3)."""
    rows = rows[..., None, :]
    return (R * pts, rows) if outside else (rows, R * pts)


def _three_halves_terms(x, y, p):
    """T_m(x, y) = |x|^m / |y|^(m+3) P'_(m+1)(xhat.yhat), m < p, from numpy's Legendre series."""
    nx, ny = np.linalg.norm(x, axis=-1), np.linalg.norm(y, axis=-1)
    t = np.clip(np.sum(x * y, axis=-1) / (nx * ny), -1.0, 1.0)
    return np.stack([nx ** m / ny ** (m + 3)
                     * np.polynomial.legendre.legval(t, np.polynomial.legendre.legder(
                         np.eye(m + 2)[m + 1])) for m in range(p)])


@pytest.mark.parametrize("scale", [1.0, 1e-8, 1e8])
@pytest.mark.parametrize("p", [1, 2, 9, 30])
def test_kernel_dot_at_three_halves_matches_legendre_derivatives(p, scale):
    # at lambda = 3/2 the contracted sum is that of the terms of |x-y|^-3,
    # C^(3/2)_m = P'_(m+1), within 1e-13 of sum |terms||w|: the set as the
    # first argument with the rows outside it (the outer gradient) and as
    # the second with the rows inside it, at three scales
    rng = np.random.default_rng(29 + p)
    coef = rng.standard_normal(p)
    pts = _shell(rng, (300,), 1.0, 1.0)
    far = _shell(rng, (40,), 1.2, 4.0) * scale
    near = _shell(rng, (40,), 0.1, 0.9) * scale
    w = rng.standard_normal((300, 2))
    for rows, R, outside in ((far, 0.8 * scale, True), (near, 1.7 * scale, False)):
        terms = _three_halves_terms(*_pair(rows, pts, R, outside), p)
        expect = np.tensordot(coef, terms, axes=(0, 0)) @ w
        bound = np.tensordot(np.abs(coef), np.abs(terms), axes=(0, 0)) @ np.abs(w)
        got = np.add(*_kernel_dot(rows, pts, R, coef, w[None], outside, 1.5))
        assert got.shape == (40, 2)
        assert np.all(np.abs(got - expect) <= 1e-13 * bound)


@pytest.mark.parametrize("p", [1, 2, 9, 30])
@pytest.mark.parametrize("targets", [(), (120,), (4, 2)], ids=["scalar", "1-D", "4x2"])
@pytest.mark.parametrize("h", [(), (1,), (3,)], ids=["vector", "h=1", "h=3"])
def test_kernel_dot_coefficient_sets_match_single_sets(p, targets, h):
    # K coefficient sets (p, K) against K calls with one set each, bit for
    # bit: the set as the first argument with the rows outside it and as the
    # second with the rows inside it, with one weight row (P = 1) and with
    # two (P = 2); 120 rows against 300 points make three row blocks
    rng = np.random.default_rng(43 + p)
    coef = rng.standard_normal((p, 5))
    pts = _shell(rng, (300,), 1.0, 1.0)
    far = _shell(rng, targets, 1.2, 4.0)
    near = _shell(rng, targets, 0.0, 0.9)
    for rows, R, outside in ((far, 0.8, True), (near, 1.7, False)):
        w = rng.standard_normal((300,) + h)
        for weights in (w[None], np.stack([w, rng.standard_normal((300,) + h)])):
            got = _kernel_dot(rows, pts, R, coef, weights, outside)
            assert got.shape == (2, 5) + targets + h
            for k in range(5):
                assert np.array_equal(got[:, k],
                                      _kernel_dot(rows, pts, R, coef[:, k], weights, outside))
            assert np.array_equal(_kernel_dot(rows, pts, R, coef[:, :1], weights, outside),
                                  got[:, :1])


@pytest.mark.parametrize("p", [2, 9])
def test_kernel_dot_sets_on_two_axes_keep_their_order(p):
    # coefficient sets (p, 2, 3) against one call per set, bit for bit,
    # with the set as the first argument and as the second
    rng = np.random.default_rng(59 + p)
    coef = rng.standard_normal((p, 2, 3))
    pts = _shell(rng, (300,), 1.0, 1.0)
    far, near = _shell(rng, (40,), 1.2, 4.0), _shell(rng, (40,), 0.0, 0.9)
    w = rng.standard_normal((1, 300))
    for rows, R, outside in ((far, 0.8, True), (near, 1.7, False)):
        got = _kernel_dot(rows, pts, R, coef, w, outside)
        assert got.shape == (2, 2, 3, 40)
        for i, j in np.ndindex(2, 3):
            one = _kernel_dot(rows, pts, R, coef[:, i, j], w, outside)
            assert np.array_equal(got[:, i, j], one)


@pytest.mark.parametrize("side", ["outside", "inside"])
def test_kernel_dot_weights_per_degree_fold_shells(side):
    # 40 shells of radii R_s on the 302-point rule with weights w[s, j], at
    # p = 12, as in a volume potential.  L_n(R u, x) = R^n L_n(u, x) and
    # L_n(x, R u) = R^-(n+1) L_n(x, u), so for targets outside all shells
    # they fold into one weight per degree m[n, j] = sum_s w[s, j] R_s^n,
    # and inside all shells into sum_s w[s, j] R_s^-(n+1): one call with
    # these P = p weights equals the shell-by-shell sum within 1e-14 of
    # sum |terms|.  Degree n takes w[n % P], so two equal rows are one row,
    # bit for bit.
    p, rule = 12, qp.lebedev_rule(29)
    assert len(rule) == 302
    rng = np.random.default_rng(61)
    radii = rng.uniform(1.0, 2.0, 40)
    w = rng.standard_normal((40, len(rule)))
    coef, n = np.ones(p), np.arange(p)[:, None]
    outside = side == "outside"
    if outside:
        x = _shell(rng, (25,), 2.5, 5.0)
        moments = radii ** n @ w
    else:
        x = _shell(rng, (25,), 0.0, 0.8)
        moments = radii ** -(n + 1.0) @ w
    got = np.add(*_kernel_dot(x, rule.points, 1.0, coef, moments, outside))
    expect = sum(np.add(*_kernel_dot(x, rule.points, R, coef, ws[None], outside))
                 for R, ws in zip(radii, w))
    scale = sum(np.abs(kernel_sum(*_pair(x, rule.points, R, outside), coef)) @ np.abs(ws)
                for R, ws in zip(radii, w))
    assert got.shape == (25,)
    assert np.all(np.abs(got - expect) <= 1e-14 * scale)
    args = (x, rule.points, radii[0], coef)
    assert np.array_equal(_kernel_dot(*args, np.stack([w[0], w[0]]), outside),
                          _kernel_dot(*args, w[:1], outside))


@pytest.mark.parametrize("scale", [1e-8, 1e8])
def test_kernel_dot_is_homogeneous_far_from_unit_scale(scale):
    # L_n(a x, a y) = L_n(x, y) / a: at p = 60 the powers |x|^n alone would
    # leave float64 at these scales, so the recurrence runs on scaled points
    rng = np.random.default_rng(23)
    coef = rng.standard_normal(60)
    pts = _shell(rng, (300,), 1.0, 1.0)
    far, near = _shell(rng, (9,), 1.2, 4.0), _shell(rng, (9,), 0.0, 0.9)
    w = rng.standard_normal(300)
    for rows, R, outside in ((far, 0.8, True), (near, 1.7, False)):
        expect = np.add(*_kernel_dot(rows, pts, R, coef, w[None], outside))
        bound = np.abs(kernel_sum(*_pair(rows, pts, R, outside), coef)) @ np.abs(w)
        got = scale * np.add(*_kernel_dot(scale * rows, pts, scale * R, coef, w[None], outside))
        assert np.all(np.abs(got - expect) <= 1e-13 * bound)


@pytest.mark.parametrize("lam", [0.5, 1.5])
@pytest.mark.parametrize("k", [-600, -300, 300, 600])
def test_kernel_dot_is_scale_free_by_powers_of_two(k, lam):
    # T_n(2^k x, 2^k y) = 2^(-2 lam k) T_n(x, y).  At these scales x.x and
    # R^2 leave float64, so the sum runs on x and R scaled back by a power of
    # two; every step at lambda = 1/2 is then exact, so the result is 2^(-k)
    # times the unit-scale one bit for bit.  At 3/2, r^3 is a pow call, within
    # an ulp; at 2^-600 and 2^600 the results, near 2^(-+1800), are no
    # normal float64 numbers: a DomainError.
    rng = np.random.default_rng(37)
    coef = rng.standard_normal(30)
    pts = _shell(rng, (300,), 1.0, 1.0)
    far, near = _shell(rng, (9,), 1.2, 4.0), _shell(rng, (9,), 0.0, 0.9)
    w = rng.standard_normal((1, 300, 2))
    power = round(2 * lam)
    for rows, R, outside in ((far, 0.8, True), (near, 1.7, False)):
        scaled = (np.ldexp(rows, k), pts, math.ldexp(R, k), coef, w, outside, lam)
        if power * abs(k) > 1022:
            with pytest.raises(qp.DomainError, match="normal range of float64"):
                _kernel_dot(*scaled)
            continue
        expect = np.ldexp(_kernel_dot(rows, pts, R, coef, w, outside, lam), -power * k)
        got = _kernel_dot(*scaled)
        if lam == 0.5:
            assert np.array_equal(got, expect)
        assert np.all(np.abs(got - expect) <= 1e-15 * np.abs(expect))


@pytest.mark.parametrize("scale", [1.0, 1e-8, 1e8])
@pytest.mark.parametrize("p", [1, 2, 30, 200])
def test_kernel_dot_keeps_the_parities_apart(p, scale):
    # the even- and odd-degree totals against kernel_sum with the other
    # parity's coefficients zeroed, within 1e-13 of sum |K||w| as in the
    # homogeneity tests, with the set as the first argument (rows outside
    # it) and as the second (rows inside it, one of them zero).  L_n has the
    # parity of n, so the sum at the rows -x is even - odd, and a set
    # holding -y_b beside y_b is summed over one point of each pair with the
    # weights w_b + w_b' for the even degrees and w_b - w_b' for the odd.
    # At p = 1 there is no odd degree: its total is zero.
    rng = np.random.default_rng(31 + p)
    coef = rng.standard_normal(p)
    odd = np.arange(p) % 2 == 1
    pts = _shell(rng, (300,), 1.0, 1.0)
    far, near = _shell(rng, (40,), 1.2, 4.0), _shell(rng, (40,), 0.0, 0.9)
    near[0] = 0.0
    w = rng.standard_normal((300, 2))
    for rows, R, outside in ((far, 0.8, True), (near, 1.7, False)):
        rows, R = scale * rows, scale * R
        args = _pair(rows, pts, R, outside)
        parts = _kernel_dot(rows, pts, R, coef, w[None], outside)
        assert parts.shape == (2, 40, 2)
        bound = np.abs(kernel_sum(*args, coef)) @ np.abs(w)
        for part, c in zip(parts, (np.where(odd, 0.0, coef), np.where(odd, coef, 0.0))):
            assert np.all(np.abs(part - kernel_sum(*args, c) @ w) <= 1e-13 * bound)
        assert p > 1 or np.all(parts[1] == 0.0)
        flipped = _kernel_dot(-rows, pts, R, coef, w[None], outside)
        assert np.all(np.abs(np.add(*flipped) - (parts[0] - parts[1])) <= 1e-13 * bound)
        # the set of antipodal pairs (z_b, -z_b), b < 150, folded
        half = pts[:150]
        pairs = np.concatenate([half, -half])
        folded = np.stack([w[:150] + w[150:], w[:150] - w[150:]])
        bound = np.abs(kernel_sum(*_pair(rows, pairs, R, outside), coef)) @ np.abs(w)
        unfolded = np.add(*_kernel_dot(rows, pairs, R, coef, w[None], outside))
        error = np.add(*_kernel_dot(rows, half, R, coef, folded, outside)) - unfolded
        assert np.all(np.abs(error) <= 1e-13 * bound)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(29)
    for _ in range(20):
        a = rng.standard_normal(3)
        x = rng.standard_normal(3) * 3 + np.array([4.0, 0, 0])
        G = grad_scaled_legendre_stack(a, x, 6)
        h = 1e-6
        for n in range(6):
            for k in range(3):
                e = np.zeros(3)
                e[k] = h
                fd = (scaled_legendre_stack(a, x + e, 6)[n]
                      - scaled_legendre_stack(a, x - e, 6)[n]) / (2 * h)
                assert G[n, k] == pytest.approx(fd, rel=2e-5, abs=1e-10)




def _normal_gradient_terms(a, x, n, p, products=None):
    """n.grad_x L_k(a, x), k < p, and a scale for its rounding, each shape (p,) + batch.

    An oracle independent of the lambda = 3/2 recurrence: with s = x.x,
    u = a.x and G_k = L_k / kappa_k from the monic Legendre recurrence,
    H_k = s dG_k/du follows its own recurrence,

        H_0 = 0,  H_k = G_{k-1} + (u/s) H_{k-1} - [(k-1)^2/((2k-1)(2k-3))] (a.a/s) H_{k-2},

    and L_k is homogeneous of degree -(k+1) in x, so
    grad_x L_k = D_k a - D_{k+1} x with D_k = kappa_k H_k / s and
    D_{k+1} = kappa_k ((k+1) G_k + (u/s) H_k) / s.  The scale is
    |n| (|a| |D_k| + |x| |D_{k+1}|): the two parts, which can cancel, with
    n.a and n.x at the size to which they round.  ``products`` replaces the
    inner products a.x and n.a, summed here in the order of np.sum.
    """
    a, x, n = np.broadcast_arrays(*(np.asarray(t, dtype=float) for t in (a, x, n)))
    u, aa, s = np.sum(a * x, -1), np.sum(a * a, -1), np.sum(x * x, -1)
    na, nx = np.sum(n * a, -1), np.sum(n * x, -1)
    if products is not None:
        u, na = products
    t, v = u / s, aa / s
    size_a, size_x = np.sqrt(np.sum(n * n, -1) * aa), np.sqrt(np.sum(n * n, -1) * s)
    g_prev, g = np.zeros(s.shape), s ** -0.5
    h_prev, h = np.zeros(s.shape), np.zeros(s.shape)
    terms, scale = np.empty((p,) + s.shape), np.empty((p,) + s.shape)
    for k in range(p):
        kappa = math.comb(2 * k, k) / 2 ** k
        d_k, d_next = kappa * h / s, kappa * ((k + 1) * g + t * h) / s
        terms[k] = d_k * na - d_next * nx
        scale[k] = size_a * np.abs(d_k) + size_x * np.abs(d_next)
        step = k ** 2 / ((2 * k + 1) * (2 * k - 1))   # the factor of degree k + 1
        g_prev, g, h_prev, h = (g, t * g - step * v * g_prev,
                                h, g + t * h - step * v * h_prev)
    return terms, scale


@pytest.mark.parametrize("p", [1, 2, 30, 200])
def test_normal_kernel_sum_matches_derivative_recurrence(p):
    # the lambda = 3/2 sum against the derivative recurrence it replaced,
    # within 1e-14 of the sum over degrees of |c_k| times the scale of the
    # two parts of n.grad L_k: a point set with a point at the origin
    # against rows inside and outside it, in the matmul layout of the flow
    # rows (a (B, 3) against x and n (R, 1, 3)) and elementwise.  Each
    # layout is compared at its own inner products: 40 rows are one row
    # block, whose x.a and n.a are the one matmul below.
    rng = np.random.default_rng(5 + p)
    coef = rng.standard_normal(p)
    a = _shell(rng, (300,), 0.0, 1.5)
    a[0] = 0.0
    x = _shell(rng, (40, 1), 0.8, 3.0)
    n = rng.standard_normal((40, 1, 3))
    assert np.any(np.linalg.norm(a, axis=-1) > np.linalg.norm(x, axis=-1))
    on_set = normal_kernel_sum(a, x, n, coef)
    elementwise = normal_kernel_sum(a[None], x, n, coef)
    for got, products in ((on_set, (x[:, 0] @ a.T, n[:, 0] @ a.T)), (elementwise, None)):
        terms, scale = _normal_gradient_terms(a, x, n, p, products)
        assert got.shape == (40, 300)
        expect = np.tensordot(coef, terms, axes=(0, 0))
        bound = np.tensordot(np.abs(coef), scale, axes=(0, 0))
        assert np.all(np.abs(got - expect) <= 1e-14 * bound)
    # the layouts differ only in the last bits of x.a and n.a; at p = 200
    # with |a| > |x| the series amplifies those by up to about p^2/4 ulps
    # of its scale, its own conditioning, so they are compared up to p = 30
    if p <= 30:
        bound = np.tensordot(np.abs(coef), _normal_gradient_terms(a, x, n, p)[1], axes=(0, 0))
        assert np.all(np.abs(on_set - elementwise) <= 1e-14 * bound)


@pytest.mark.parametrize("scale", [1e-8, 1e8])
def test_normal_kernel_sum_is_homogeneous_far_from_unit_scale(scale):
    # n.grad L_k(s a, s x) = n.grad L_k(a, x) / s^2 for every k
    rng = np.random.default_rng(31)
    coef = rng.standard_normal(60)
    a = _shell(rng, (300,), 0.0, 1.0)
    x = _shell(rng, (9, 1), 1.2, 4.0)
    n = rng.standard_normal((9, 1, 3))
    expect = normal_kernel_sum(a, x, n, coef)
    bound = np.tensordot(np.abs(coef), _normal_gradient_terms(a, x, n, 60)[1], axes=(0, 0))
    got = scale ** 2 * normal_kernel_sum(scale * a, scale * x, n, coef)
    assert np.all(np.abs(got - expect) <= 1e-14 * bound)


@pytest.mark.parametrize("scale", [1.0, 1e-8, 1e8])
@pytest.mark.parametrize("p", [1, 2, 30, 200])
def test_normal_pair_keeps_the_parities_apart(p, scale):
    # one lambda = 3/2 recurrence gives P + Q, the sum at a, and P - Q, the
    # sum at -a, P and Q the parts even and odd in a.  P + Q is
    # normal_kernel_sum bit for bit; each is within 1e-14 of its scale of the
    # derivative recurrence at a and at -a, the bounds of
    # test_normal_kernel_sum_matches_derivative_recurrence, in the matmul
    # layout of the flow rows and elementwise, each at its own inner products
    # (negating a negates them exactly).  At p = 1 there is no odd degree,
    # and the sums at a and -a differ only through n.a.
    rng = np.random.default_rng(43 + p)
    coef = rng.standard_normal(p)
    a = _shell(rng, (300,), 0.0, 1.5) * scale
    a[0] = 0.0
    x = _shell(rng, (40, 1), 0.8, 3.0) * scale
    n = rng.standard_normal((40, 1, 3))
    for set_a, on_set in ((a, True), (a[None], False)):
        pair = _normal_sums(set_a, x, n, coef, pair=True)
        assert pair.shape == (2, 40, 300)
        assert np.array_equal(pair[0], normal_kernel_sum(set_a, x, n, coef))
        for got, sign in zip(pair, (1.0, -1.0)):
            products = (x[:, 0] @ (sign * a).T, n[:, 0] @ (sign * a).T) if on_set else None
            terms, size = _normal_gradient_terms(sign * a, x, n, p, products)
            expect = np.tensordot(coef, terms, axes=(0, 0))
            bound = np.tensordot(np.abs(coef), size, axes=(0, 0))
            assert np.all(np.abs(got - expect) <= 1e-14 * bound)


def _line_offset(a):
    """Bytes from the start of the 64-byte cache line that holds a's first element."""
    return a.ctypes.data % 64


@pytest.mark.parametrize("count", [1, 3, 4])
@pytest.mark.parametrize("shape", [0, 1, 7, 8, 16001, (3, 0), (27, 601)])
def test_aligned_arrays_start_on_cache_lines(count, shape):
    arrays = _aligned(count, shape)
    assert len(arrays) == count
    for k, a in enumerate(arrays):
        assert a.shape == np.empty(shape).shape and a.dtype == np.float64 and a.flags.writeable
        assert _line_offset(a) == 0 and _line_offset(a[:2]) == 0
        a[:] = k
    # disjoint: each array keeps what was written to it
    for k, a in enumerate(arrays):
        assert np.all(a == k)
        assert not any(np.shares_memory(a, b) for b in arrays[k + 1:])


def test_kernel_dot_gives_the_recurrence_aligned_block_arrays(monkeypatch):
    # u and the three term arrays of every block start on a cache line, in
    # a sum of three blocks, the last one partial, and in a one-block sum
    seen = []

    def checked_terms(u, v, g0, p, lam=0.5, work=None):
        seen.append([_line_offset(a) for a in (u, *work)])
        return _terms(u, v, g0, p, lam, work)

    monkeypatch.setattr(legendre, "_terms", checked_terms)
    rng = np.random.default_rng(113)
    pts, coef = _shell(rng, (601,), 1.0, 1.0), rng.standard_normal(30)
    for rows in (_shell(rng, (60,), 1.5, 3.0), _shell(rng, (5,), 1.5, 3.0)):
        _kernel_dot(rows, pts, 1.0, coef, rng.standard_normal((2, 601)), True)
    assert seen == [[0] * 4] * 4


def _at_line_offset(a, k):
    """A copy of a in a fresh buffer, k floats past a cache line, in a's memory order."""
    order = "F" if a.flags.f_contiguous and not a.flags.c_contiguous else "C"
    buf = np.empty(a.size + 16)
    start = -buf.ctypes.data % 64 // 8 + k
    copy = buf[start:start + a.size].reshape(a.shape, order=order)
    copy[...] = a
    return copy


def test_kernel_dot_does_not_depend_on_where_its_inputs_sit(monkeypatch):
    # the source sums of a p = 30 fit (500 sources, 601 rule points) and of
    # an axial shift (8 permuted charge rows), and the kernel sum of that
    # fit's evaluation at 500 targets, each replayed with its two point
    # arrays copied to each of the 8 float offsets within a cache line, and
    # its charges or weights to each
    calls = []

    def recorder(f):
        def recorded(*args):
            calls.append((f, args, f(*args)))
            return calls[-1][2]
        return recorded

    rng = np.random.default_rng(127)
    with monkeypatch.context() as m:
        m.setattr(qp.expansion, "_source_dot", recorder(_source_dot))
        m.setattr(qp.expansion, "_kernel_dot", recorder(_kernel_dot))
        exp = qp.fit_outer(qp.PointCharges(rng.uniform(-0.5, 0.5, (500, 3)),
                                           rng.uniform(-1.0, 1.0, 500)), np.zeros(3), 1.0, 30)
        qp.shift_outer(exp, np.array([0.0, 0.0, 0.25]), 1.5)
        qp.eval_outer_potential(exp, _shell(rng, (500,), 1.5, 3.0))
    weights = {_source_dot: 3, _kernel_dot: 4}   # the position of the charges or weights
    assert [(f, np.shape(args[weights[f]])) for f, args, _ in calls] == [
        (_source_dot, (500,)), (_source_dot, (8, 1202)), (_kernel_dot, (2, 601))]
    assert len(calls[0][1][1]) == 601
    for f, (x, y, *rest), want in calls:
        i = weights[f] - 2
        for j in range(8):
            xj, yj = _at_line_offset(x, j), _at_line_offset(y, j)
            for k in range(8):
                moved = rest[:i] + [_at_line_offset(rest[i], k)] + rest[i + 1:]
                assert np.array_equal(f(xj, yj, *moved), want)


def test_source_dot_gives_the_recurrence_aligned_block_arrays(monkeypatch):
    # t and the three work arrays of every source block start on a cache
    # line, in a sum of three blocks, the last one partial, and in a
    # one-block sum; the recurrence is the Chebyshev one on t, whose steps
    # are numbers: every work array has t's shape, and _terms never runs
    seen = []

    def checked_terms(t, p, work):
        seen.append([_line_offset(a) for a in (t, *work)] + [{a.shape for a in work} - {t.shape}])
        return _chebyshev_terms(t, p, work)

    monkeypatch.setattr(legendre, "_chebyshev_terms", checked_terms)
    monkeypatch.setattr(legendre, "_terms", None)
    rng = np.random.default_rng(131)
    pts, coef = _shell(rng, (601,), 1.0, 1.0), rng.standard_normal(30)
    for m in (60, 5):
        _source_dot(_shell(rng, (m,), 0.1, 0.9), pts, coef, rng.standard_normal(m), "outer")
    assert seen == [[0] * 4 + [set()]] * 4


@pytest.mark.parametrize("k", [300, 600])
def test_source_dot_is_scale_free(k):
    # sources far from unit scale are summed at their norms without squaring
    # them out of float64.  Inner sources at 2^k: the even degrees give
    # 2^-k times the degree-0 sum at unit scale bit for bit, as the higher
    # degrees fall below it by 2^-2k each, and the odd ones are below
    # 2^-2k.  Outer sources at 2^-k: the even degrees give those of sources
    # at the center bit for bit, and the odd ones are below 2^-k.
    rng = np.random.default_rng(137)
    pts, coef = _shell(rng, (50,), 1.0, 1.0), rng.standard_normal(30)
    x, q = _shell(rng, (40,), 1.2, 3.0), rng.standard_normal((2, 40))
    scale = np.abs(coef).sum() * np.abs(q).sum(axis=-1)[:, None]
    even, odd = _source_dot(np.ldexp(x, k), pts, coef, q, "inner")
    assert np.array_equal(even, np.ldexp(_source_dot(x, pts, coef[:1], q, "inner")[0], -k))
    assert np.all(np.abs(odd) <= 2.0 ** (-2 * k) * scale)
    even, odd = _source_dot(np.ldexp(x, -k), pts, coef, q, "outer")
    assert np.array_equal(even, _source_dot(0.0 * x, pts, coef, q, "outer")[0])
    assert np.all(np.abs(odd) <= 2.0 ** (-k + 2) * scale)


@pytest.mark.parametrize("h", [(), (3,)], ids=["one charge set", "3 charge sets"])
def test_source_dot_sums_each_run_of_sets_as_alone(h):
    # radial names split the coefficient sets into runs, each with its own
    # radial factor: each run's sums are those of a call with that run's
    # sets alone, bit for bit, so the fits and shifts that take one name are
    # unchanged by the runs beside them.  "kelvin", |x|^(n+1), is "inner",
    # (1/|x|)^(n+1), on the inverted sources, to rounding
    rng = np.random.default_rng(149)
    pts, x = _shell(rng, (601,), 1.0, 1.0), _shell(rng, (70,), 0.2, 0.9)
    q = rng.standard_normal(h + (70,))
    runs = {name: rng.standard_normal((30, 2)) for name in ("outer", "kelvin", "inner")}
    got = _source_dot(x, pts, np.concatenate(list(runs.values()), axis=1), q, list(runs))
    assert got.shape == (2, 6) + h + (601,)
    for k, (name, coef) in enumerate(runs.items()):
        assert np.array_equal(got[:, 2 * k:2 * k + 2], _source_dot(x, pts, coef, q, name))
    inverted = x / np.sum(x * x, axis=1)[:, None]
    want = _source_dot(inverted, pts, runs["kelvin"], q, "inner")
    scale = np.multiply.outer(np.abs(runs["kelvin"]).sum(axis=0), np.abs(q).sum(axis=-1))
    assert np.all(np.abs(got[:, 2:4] - want) <= 1e-14 * scale[..., None])


def test_source_dot_refuses_sums_that_leave_float64():
    # outer sources at 2^600 take |x|^n and inner ones at 2^-600 take
    # |x|^-(n+1): beyond float64 from n = 2 on, a DomainError, not a
    # warning or an inf; at p = 1 both sums are finite.  An inner source at
    # the center is a SingularityError, an outer one a charge like any other.
    rng = np.random.default_rng(139)
    pts = _shell(rng, (50,), 1.0, 1.0)
    x, q = _shell(rng, (40,), 1.2, 3.0), rng.standard_normal(40)
    for far, radial in ((np.ldexp(x, 600), "outer"), (np.ldexp(x, -600), "inner")):
        with pytest.raises(qp.DomainError, match="leave the range of float64"):
            _source_dot(far, pts, np.ones(4), q, radial)
        assert np.all(np.isfinite(_source_dot(far, pts, np.ones(1), q, radial)))
    x[17] = 0.0
    with pytest.raises(qp.SingularityError):
        _source_dot(x, pts, np.ones(4), q, "inner")
    assert np.all(np.isfinite(_source_dot(x, pts, np.ones(4), q, "outer")))
