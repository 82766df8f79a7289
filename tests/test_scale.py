"""Every public sum under a power-of-two scale of every length.

Scaling every length by 2^k is exact in floating point unless a value
underflows or overflows, so each result must be the unit-scale result
times 2^(power k), power the length dimension of its quantity, bit for bit,
or a typed QuadpoleError where that leaves float64's normal range.
"""
import math
import warnings
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from test_bem import three_sphere_scene

import quadpole as qp
from quadpole.expansion import _coulomb_rays
from quadpole.legendre import _rescaled

P = 8
_rng = np.random.default_rng(211)
C_A, C_B = np.array([0.25, -0.5, 0.125]), np.array([6.0, 0.5, -0.25])
CLOUD_A = (_rng.uniform(-0.5, 0.5, (60, 3)) + C_A, _rng.uniform(-1.0, 1.0, 60))
CLOUD_B = (_rng.uniform(-0.5, 0.5, (60, 3)) + C_B, _rng.uniform(-1.0, 1.0, 60))
OUTSIDE_A = C_A + np.array([[2.5, 0.5, 0.0], [0.3, -3.0, 1.0], [-1.5, 0.0, 1.25]])
INSIDE_A = C_A + np.array([[0.25, 0.125, -0.375], [-0.5, 0.0, 0.25]])
INSIDE_B = C_B + np.array([[0.25, 0.125, -0.375], [-0.5, 0.0, 0.25]])


def _charges(cloud, up):
    return qp.PointCharges(up(cloud[0]), cloud[1])


def _outer(cloud, center, up):
    return qp.fit_outer(_charges(cloud, up), up(center), up(1.0), P)


def _inner_of_a(up):   # cloud A's field on a sphere of radius 2 about C_B
    return qp.fit_inner(_charges(CLOUD_A, up), up(C_B), up(2.0), P)


def _expansion(exp):
    return [(exp.surface_weights, 0), (exp.center, 1), (exp.radius, 1)]


def _flow(up):
    return [qp.SphereBoundary.make(up(s.center), up(s.radius), s.velocity, 4)
            for s in three_sphere_scene(4)]


def _solved(up):
    """The flow weights, a length squared, and the boundary error of the solution."""
    spheres = _flow(up)
    sol = qp.solve_potential_flow(spheres)
    return ([(e.surface_weights, 2) for e in sol.expansions]
            + [(qp.boundary_error(sol, spheres, qp.lebedev_rule(29)), 0)])


# name -> a call that gives [(value, power)] at every length times up(1.0):
# each value scales as 2^(power k)
SUMS = {
    "fit_outer": lambda up: _expansion(_outer(CLOUD_A, C_A, up)),
    "fit_inner": lambda up: _expansion(_inner_of_a(up)),
    "shift_outer": lambda up: _expansion(
        qp.shift_outer(_outer(CLOUD_A, C_A, up), up(C_A + [0.5, 0.0, 0.0]), up(2.0))),
    "outer_to_inner": lambda up: _expansion(
        qp.outer_to_inner(_outer(CLOUD_A, C_A, up), up(C_B), up(2.0))),
    "shift_inner": lambda up: _expansion(
        qp.shift_inner(_inner_of_a(up), up(C_B + [0.25, 0.0, 0.0]), up(1.0))),
    "eval_outer_potential": lambda up: [
        (qp.eval_outer_potential(_outer(CLOUD_A, C_A, up), up(OUTSIDE_A)), -1)],
    "eval_inner_potential": lambda up: [
        (qp.eval_inner_potential(_inner_of_a(up), up(INSIDE_B)), -1)],
    "single_layer_ext": lambda up: [
        (qp.single_layer_ext(_outer(CLOUD_A, C_A, up), up(OUTSIDE_A)), -1)],
    "double_layer_ext": lambda up: [
        (qp.double_layer_ext(_outer(CLOUD_A, C_A, up), up(OUTSIDE_A)), -2)],
    "single_layer_int": lambda up: [
        (qp.single_layer_int(_outer(CLOUD_A, C_A, up), up(INSIDE_A)), -1)],
    "double_layer_int": lambda up: [
        (qp.double_layer_int(_outer(CLOUD_A, C_A, up), up(INSIDE_A)), -2)],
    "outer_gradient": lambda up: [
        (qp.outer_gradient(_outer(CLOUD_A, C_A, up), up(OUTSIDE_A)), -2)],
    "interaction_energy": lambda up: [(qp.interaction_energy(
        qp.fit_outer(_charges(CLOUD_B, up), up(C_B), up(2.0), P), _inner_of_a(up)), -1)],
    "direct_potential": lambda up: [
        (qp.direct_potential(_charges(CLOUD_A, up), up(OUTSIDE_A)), -1)],
    "direct_energy": lambda up: [
        (qp.direct_energy(_charges(CLOUD_A, up), _charges(CLOUD_B, up)), -1)],
    "eval_point_charge_potential": lambda up: [
        (qp.eval_point_charge_potential(_outer(CLOUD_A, C_A, up), up(OUTSIDE_A)), -1)],
    "energy_between_outers": lambda up: [(qp.energy_between_outers(
        _outer(CLOUD_A, C_A, up), _outer(CLOUD_B, C_B, up)), -1)],
    "solve_potential_flow and boundary_error": _solved,
}


@cache
def _unit(name):
    return SUMS[name](lambda v: v)


def _normal(value, k):
    """Whether value times 2^k stays in float64's normal range, with the bit that
    legendre._rescaled keeps to spare."""
    top = np.abs(value).max(initial=0.0)
    return not top or -1022 < math.frexp(top)[1] + k < 1024


@settings(max_examples=20)
@example(k=1000)
@example(k=-1000)
@example(k=999)
@example(k=-999)
@example(k=511)
@example(k=-511)
@example(k=600)
@example(k=-600)
@example(k=345)
@example(k=0)
@given(k=st.integers(-1000, 1000))
def test_every_public_sum_is_exact_under_a_power_of_two_scale(k):
    # each result is its unit-scale value times 2^(power k) bit for bit, with
    # no warning; a typed error only where such a value is not a normal
    # float64, as the flow weights and gradients are beyond about 2^511
    for name, call in SUMS.items():
        want = _unit(name)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                got = call(lambda v: np.ldexp(v, k))
            except qp.QuadpoleError:
                assert not all(_normal(v, p * k) for v, p in want), (name, k)
                continue
        for (value, _), (unit, power) in zip(got, want):
            assert np.array_equal(value, np.ldexp(unit, power * k)), (name, k)


@pytest.mark.parametrize("k", [300, -300, 600, -600, 1000, -1000])
def test_coulomb_sums_are_exact_at_every_scale(k):
    # the direct sums run on coordinates prescaled by a power of two, so
    # their squared distances never leave float64
    positions, charges = CLOUD_A
    u = OUTSIDE_A / np.linalg.norm(OUTSIDE_A, axis=1)[:, None]
    radii = np.array([2.5, 7.0])
    want = qp.direct_potential(qp.PointCharges(positions, charges), OUTSIDE_A)
    got = qp.direct_potential(qp.PointCharges(np.ldexp(positions, k), charges),
                              np.ldexp(OUTSIDE_A, k))
    assert np.array_equal(got, np.ldexp(want, -k))
    want = _coulomb_rays(u, radii, positions, charges)
    got = _coulomb_rays(u, np.ldexp(radii, k), np.ldexp(positions, k), charges)
    assert np.array_equal(got, np.ldexp(want, -k))


@pytest.mark.parametrize("k", [345, 400, 500, -400, -500])
def test_outer_gradient_is_exact_where_its_two_sums_underflow(k):
    # the two lambda = 3/2 sums alone reach 2^-3k, no normal float64 beyond
    # 2^340, but the gradient, 2^-2k, is: they are combined at unit scale
    rng = np.random.default_rng(223)
    positions, charges = rng.uniform(-0.5, 0.5, (200, 3)), rng.standard_normal(200)
    x = np.array([[3.0, 1.0, 0.5], [0.2, 4.0, -1.0]])
    want = qp.outer_gradient(qp.fit_outer(qp.PointCharges(positions, charges),
                                          np.zeros(3), 1.0, 10), x)
    scaled = qp.fit_outer(qp.PointCharges(np.ldexp(positions, k), charges),
                          np.zeros(3), 2.0 ** k, 10)
    assert np.array_equal(qp.outer_gradient(scaled, np.ldexp(x, k)), np.ldexp(want, -2 * k))


@pytest.mark.parametrize("name", ["eval_outer_potential", "single_layer_ext", "double_layer_ext",
                                  "outer_gradient", "eval_point_charge_potential"])
def test_sums_that_overflow_at_unit_scale_are_refused(name):
    # weights of 1e308 fold to inf and sum past float64: a DomainError, with
    # no warning and no NaN
    rule = qp.rule_for_expansion(6)
    exp = qp.SurfaceExpansion(np.zeros(3), 1.0, rule, np.full(len(rule), 1e308), 6, "outer")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(qp.DomainError, match="leave the range of float64"):
            getattr(qp, name)(exp, np.array([1.5, 0.0, 0.0]))


def test_rescaled_is_the_one_range_exit():
    # a non-finite sum leaves the range, and a finite one whose top would
    # leave the normal range once scaled, or come within a bit of overflow,
    # leaves the normal range; anything else is scaled exactly
    for bad in (np.array([np.inf, 1.0]), np.array([np.nan, 1.0])):
        with pytest.raises(qp.DomainError, match="^sums leave the range of float64$"):
            _rescaled(bad, 3, "sums")
    for top, k in ((1.0, 1023), (1.0, -1023), (2.0 ** 1023, 0), (2.0 ** -1020, -3)):
        with pytest.raises(qp.DomainError, match="^sums leave the normal range of float64$"):
            _rescaled(np.array([top, 0.5 * top]), k, "sums")
    assert np.array_equal(_rescaled(np.array([0.75, -3.0]), 5, "sums"), [24.0, -96.0])
    assert np.array_equal(_rescaled(np.zeros(2), 1100, "sums"), np.zeros(2))
