import tracemalloc

import numpy as np
import pytest

import quadpole as qp
from quadpole.legendre import (
    grad_kernel_sum,
    grad_scaled_legendre_stack,
    kernel_matrix,
    kernel_sum,
    legendre_poly_table,
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


def _stitched(fn, x, y, coef, rows=97):
    """fn called on slices of `rows` rows of the first batch axis, concatenated.

    97 rows of these batches are fewer pairs than one block, so each call is
    an unblocked sum, and the slices do not line up with the block grid.
    """
    batch = np.broadcast_shapes(x.shape[:-1], y.shape[:-1])

    def cut(a, i):
        return a[i:i + rows] if a.ndim > len(batch) and a.shape[0] > 1 else a

    return np.concatenate([fn(cut(x, i), cut(y, i), coef)
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
    # the gradient sum reassociates its terms, and its components can cancel
    # to near zero, so it is compared relative to the largest component
    expect = np.tensordot(coef, grad_scaled_legendre_stack(x, y, p), axes=(0, 0))
    got = grad_kernel_sum(x, y, coef)
    assert np.shape(got) == np.shape(expect)
    assert np.max(np.abs(got - expect)) <= 1e-14 * np.max(np.abs(expect))


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
    assert np.array_equal(got, _stitched(kernel_sum, x, y, coef))
    grad = grad_kernel_sum(x, y, coef)
    assert grad.shape == batch + (3,)
    assert np.array_equal(grad, _stitched(grad_kernel_sum, x, y, coef))


def test_blocked_sums_raise_on_a_zero_in_the_last_block():
    x = np.random.default_rng(3).standard_normal((1, 50, 3))
    y = np.ones((1203, 1, 3))
    y[-1] = 0.0
    with pytest.raises(qp.SingularityError):
        kernel_sum(x, y, np.ones(4))
    with pytest.raises(qp.SingularityError):
        grad_kernel_sum(x, y, np.ones(4))


@pytest.mark.parametrize("call", [
    lambda pts: kernel_matrix(pts[:, None, :], 1.5 * pts[None, :, :], 30),
    lambda pts: grad_kernel_sum(pts, 2 * pts[:, None, :], np.ones(8)),
], ids=["kernel_matrix", "grad_kernel_sum"])
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


def test_legendre_poly_table_consistency():
    t = np.linspace(-1, 1, 17)
    tab = legendre_poly_table(8, t)
    for n in range(8):
        assert np.allclose(tab[n], qp.legendre_poly(n, t), atol=1e-14)
