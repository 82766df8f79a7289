from math import comb

import numpy as np
import pytest
from oracle import LONG, cosines, legendre, require_long, source_sum

import quadpole as qp
from quadpole.legendre import _reproducing


def test_oracle_legendre_meets_its_closed_forms():
    # P_n(1) = 1, P_n(-1) = (-1)^n and P_{2k}(0) = (-1)^k C(2k, k) / 4^k
    require_long()
    p, eps = 67, np.finfo(LONG).eps
    at = np.array(list(legendre(np.array([1.0, -1.0, 0.0]), p)))
    n = np.arange(p)
    assert np.all(np.abs(at[:, 0] - 1) <= 4 * p * eps)
    assert np.all(np.abs(at[:, 1] - (-1.0) ** n) <= 4 * p * eps)
    zero = [LONG((-1) ** (m // 2) * comb(m, m // 2)) / LONG(4) ** (m // 2) if m % 2 == 0 else 0
            for m in n]
    assert np.all(np.abs(at[:, 2] - np.array(zero, dtype=LONG)) <= 4 * p * eps)


@pytest.mark.parametrize("kind", ["outer", "inner"])
def test_oracle_source_sum_is_the_coulomb_kernel(kind):
    # sum_n L_n(x, y) = 1/|x - y| = 1/sqrt(|x|^2 + |y|^2 - 2|x||y| t) for
    # |x| < |y|, on the oracle's own cosines t: at a ratio |x|/|y| <= 0.5
    # the terms past n = 80 fall below 2^-80 of it
    require_long()
    rng = np.random.default_rng(11)
    x = rng.standard_normal((20, 3))
    x *= (rng.uniform(0.05, 0.5, 20) / np.linalg.norm(x, axis=1))[:, None]
    if kind == "inner":
        x /= np.sum(x * x, axis=1)[:, None]   # radii 2-20
    pts = qp.lebedev_rule(15).points
    t, r = cosines(x, pts)
    want = 1 / np.sqrt(r * r + 1 - 2 * r * t)
    for i, q in enumerate(np.eye(20)):
        got, scale = source_sum(kind, x, q, pts, np.ones(80))
        assert np.all(np.abs(got - want[i]) <= 1e-17 * want[i])
        assert np.array_equal(scale, np.abs(got))


def _cloud(rng, m, inner):
    """m charges at radii 0.05-0.95, inverted for the inner kind, in random directions."""
    pos = rng.standard_normal((m, 3))
    r = rng.uniform(0.05, 0.95, m)
    pos *= ((1.0 / r if inner else r) / np.linalg.norm(pos, axis=1))[:, None]
    return qp.PointCharges(pos, rng.uniform(-1.0, 1.0, m))


@pytest.mark.parametrize("kind", ["outer", "inner"])
def test_fits_match_the_longdouble_oracle(kind):
    # p = 30 fits of 150 charges on the 1202-point rule, one source sum at
    # half the rule and the row fold, within 2e-14 of sum |q||K| at every
    # rule point
    require_long()
    p, rng = 30, np.random.default_rng(31 if kind == "outer" else 37)
    cloud = _cloud(rng, 150, kind == "inner")
    fit = qp.fit_outer if kind == "outer" else qp.fit_inner
    exp = fit(cloud, np.zeros(3), 1.0, p)
    rule = exp.rule
    assert len(rule) == 1202
    want, scale = source_sum(kind, cloud.positions, cloud.charges, rule.points, _reproducing(p))
    w = rule.weights.astype(LONG)
    assert np.all(np.abs(exp.surface_weights - w * want) <= 2e-14 * w * scale)


def test_generic_shift_matches_the_longdouble_oracle():
    # an outer p = 30 fit shifted by a vector that no symmetry of the rule
    # fixes: one source sum over the old surface points, within 2e-14 of
    # sum |w||K|, on the positions the shift divides out in float64
    require_long()
    p, rng = 30, np.random.default_rng(41)
    src = qp.fit_outer(_cloud(rng, 150, False), np.zeros(3), 1.0, p)
    new_center, new_R = np.array([0.3, -0.1, 0.2]), 1.6
    out = qp.shift_outer(src, new_center, new_R)
    rel = (src.surface_points - new_center) / new_R
    want, scale = source_sum("outer", rel, src.surface_weights, out.rule.points,
                             _reproducing(p))
    w = out.rule.weights.astype(LONG)
    assert np.all(np.abs(out.surface_weights - w * want) <= 2e-14 * w * scale)


def _invertible_cloud(rng, m):
    """m charges in random directions, each at a radius 2^(-k/2), k = 1..8, whose
    |y|^2, summed in float64, is exactly 2^-k: the inversion y / |y|^2 is then exact
    and keeps the float64 directions, so its cosines are the cloud's own."""
    pos = np.empty((m, 3))
    for i in range(m):
        target, s = 2.0 ** -int(rng.integers(1, 9)), 0.0
        while s != target:
            y = rng.standard_normal(3)
            y *= np.sqrt(target) / np.linalg.norm(y)
            for _ in range(8):   # move the last component an ulp at a time onto the target
                s = np.sum(y * y)
                if s == target:
                    break
                y[2] = np.nextafter(y[2], np.copysign(np.inf, y[2]) if s < target else 0.0)
        pos[i] = y
    return qp.PointCharges(pos, rng.uniform(-1.0, 1.0, m))


@pytest.mark.parametrize("R_in", [1.0, 0.5])
def test_twin_fit_matches_the_longdouble_oracle_on_the_inverted_cloud(R_in):
    # a p = 30 twin fit on the 1202-point rule: its inner weights, summed
    # over the cloud with the radial factors (R_in |y|)^(n+1), within 2e-14
    # of sum |q||K| of the oracle's inner sum over the inverted cloud at
    # radius R_in, and its outer weights those of fit_outer bit for bit
    from quadpole.expansion import _fit
    require_long()
    p, rng = 30, np.random.default_rng(43)
    cloud = _invertible_cloud(rng, 150)
    (outer,), (inner,) = _fit("twin", cloud, np.zeros(3), 1.0, [p], None, R_in)
    rule = inner.rule
    assert len(rule) == 1202 and inner.radius == R_in
    assert np.array_equal(outer.surface_weights,
                          qp.fit_outer(cloud, np.zeros(3), 1.0, p).surface_weights)
    inverted = cloud.positions / np.sum(cloud.positions ** 2, axis=1)[:, None]
    want, scale = source_sum("inner", inverted / R_in, cloud.charges, rule.points,
                             _reproducing(p))
    w = rule.weights.astype(LONG)
    assert np.all(np.abs(inner.surface_weights - w * want) <= 2e-14 * w * scale)
