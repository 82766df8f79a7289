import itertools
import math

import numpy as np
import pytest

import quadpole as qp
from quadpole.tensors import MAX_ORDER, double_factorial, multinomial, triples


def dense_from_slice(poly, n):
    """Expand a symmetric slice into the full 3**n index array."""
    full = np.zeros((3,) * n)
    for idx in itertools.product(range(3), repeat=n):
        t = (idx.count(0), idx.count(1), idx.count(2))
        full[idx] = poly.slice(n).get(t, 0.0)
    return full


def random_polytensor(rng, p):
    coeffs = [{t: rng.standard_normal() for t in triples(n)} for n in range(p)]
    return qp.Polytensor(p, tuple(coeffs))


def test_triples_and_multinomial():
    assert triples(0) == [(0, 0, 0)]
    assert len(triples(4)) == 15
    assert multinomial(4, (2, 1, 1)) == 12
    assert multinomial(0, (0, 0, 0)) == 1
    assert sum(multinomial(5, t) for t in triples(5)) == 3 ** 5


def test_double_factorial():
    assert [double_factorial(n) for n in (-1, 0, 1, 2, 5, 7)] == [1, 1, 1, 2, 15, 105]


def test_polytensor_validation():
    with pytest.raises(qp.DomainError):
        qp.Polytensor(0, ())
    with pytest.raises(qp.DomainError):
        qp.Polytensor.zero(MAX_ORDER + 1)
    z = qp.Polytensor.zero(3)
    assert z.order == 3 and z.slice(2)[(1, 1, 0)] == 0.0


def test_moments_from_charges():
    pos = np.array([[1.0, 2.0, 3.0], [-1.0, 0.0, 0.5]])
    ch = np.array([2.0, -1.0])
    m = qp.moments_from_charges(qp.PointCharges(pos, ch), 3)
    assert m.slice(0)[(0, 0, 0)] == pytest.approx(1.0)
    assert m.slice(1)[(1, 0, 0)] == pytest.approx(2.0 + 1.0)
    assert m.slice(2)[(1, 0, 1)] == pytest.approx(2 * 3.0 - 1 * (-0.5))


def test_directional_moment_matches_dense():
    rng = np.random.default_rng(107)
    a = random_polytensor(rng, 5)
    r = rng.standard_normal(3)
    for n in range(5):
        dense = dense_from_slice(a, n)
        ref = dense
        for _ in range(n):
            ref = ref @ r
        assert qp.directional_moment(a, r, n) == pytest.approx(float(ref), rel=1e-12)


def slice_to_dense(s, n):
    """Expand one symmetric slice dict into the full 3**n array."""
    full = np.zeros((3,) * n)
    for idx in itertools.product(range(3), repeat=n):
        t = (idx.count(0), idx.count(1), idx.count(2))
        full[idx] = s[t]
    return full


def test_symmetric_product_directional_oracle():
    rng = np.random.default_rng(109)
    a = random_polytensor(rng, 4)
    b = random_polytensor(rng, 4)
    r = rng.standard_normal(3)
    for na in range(4):
        for nb in range(4):
            c = qp.symmetric_product(a.slice(na), b.slice(nb))
            got = sum(multinomial(na + nb, t) * v
                      * r[0] ** t[0] * r[1] ** t[1] * r[2] ** t[2]
                      for t, v in c.items())
            want = (qp.directional_moment(a, r, na)
                    * qp.directional_moment(b, r, nb))
            assert got == pytest.approx(want, rel=1e-11, abs=1e-12)


def test_symmetric_product_brute_force_low_order():
    rng = np.random.default_rng(113)
    a = random_polytensor(rng, 3)
    b = random_polytensor(rng, 3)
    for na in (1, 2):
        for nb in (1, 2):
            n = na + nb
            c = qp.symmetric_product(a.slice(na), b.slice(nb))
            outer = np.multiply.outer(dense_from_slice(a, na), dense_from_slice(b, nb))
            sym = np.zeros_like(outer)
            for perm in itertools.permutations(range(n)):
                sym += np.transpose(outer, perm)
            sym /= math.factorial(n)
            assert np.allclose(slice_to_dense(c, n), sym, atol=1e-12)


def test_contract_brute_force():
    rng = np.random.default_rng(127)
    a = random_polytensor(rng, 5)
    b = random_polytensor(rng, 5)
    for n in range(5):
        da, db = dense_from_slice(a, n), dense_from_slice(b, n)
        want = float(np.sum(da * db))
        assert qp.contract(a.slice(n), b.slice(n)) == pytest.approx(want, rel=1e-12)


def test_contract_order_mismatch():
    rng = np.random.default_rng(131)
    a = random_polytensor(rng, 4)
    with pytest.raises(qp.ContractViolation):
        qp.contract(a.slice(2), a.slice(3))


def test_partial_contract_brute_force():
    rng = np.random.default_rng(137)
    a = random_polytensor(rng, 4)
    b = random_polytensor(rng, 7)
    for n in range(1, 4):
        for m in range(0, 3):
            da = dense_from_slice(a, n)
            db = dense_from_slice(b, n + m)
            want = np.tensordot(da, db, axes=n)   # (3,)*m array
            got = qp.partial_contract(a.slice(n), b.slice(n + m))
            for t in triples(m):
                idx = (0,) * t[0] + (1,) * t[1] + (2,) * t[2]
                ref = float(want[idx]) if m else float(want)
                assert got[t] == pytest.approx(ref, rel=1e-11, abs=1e-11)


def test_detrace_directional_monopole_dipole():
    pos = np.array([[0.2, -0.3, 0.4]])
    ch = np.array([1.5])
    m = qp.moments_from_charges(qp.PointCharges(pos, ch), 4)
    rh = np.array([0.0, 0.0, 1.0])
    # n=0: total charge; n=1: dipole along rh (already traceless)
    assert qp.detrace_directional(m, rh, 0) == pytest.approx(1.5)
    assert qp.detrace_directional(m, rh, 1) == pytest.approx(1.5 * 0.4)


def test_detrace_directional_quadrupole():
    # single unit charge at y: detraced n-weight is |y|^n P_n(rh.yhat)
    # tensor normalization: the contraction carries a factor n!/(2n-1)!!
    y = np.array([0.3, 0.5, -0.2])
    m = qp.moments_from_charges(qp.PointCharges(y[None, :], np.array([1.0])), 6)
    rng = np.random.default_rng(139)
    for n in range(6):
        rh = rng.standard_normal(3)
        rh /= np.linalg.norm(rh)
        t = float(rh @ y) / np.linalg.norm(y)
        want = (math.factorial(n) / double_factorial(2 * n - 1)
                * np.linalg.norm(y) ** n * qp.legendre_poly(n, t))
        assert qp.detrace_directional(m, rh, n) == pytest.approx(want, abs=1e-13)


def test_detrace_matches_far_field():
    # summed detraced contributions reproduce the multipole series directly
    rng = np.random.default_rng(149)
    pos = rng.uniform(-0.5, 0.5, (40, 3))
    cloud = qp.PointCharges(pos, rng.uniform(-1, 1, 40))
    p = 8
    m = qp.moments_from_charges(cloud, p)
    x = np.array([3.0, -4.0, 5.0])
    r = np.linalg.norm(x)
    rh = x / r
    series = sum(double_factorial(2 * n - 1) / math.factorial(n)
                 * qp.detrace_directional(m, rh, n) / r ** (n + 1) for n in range(p))
    exact = qp.direct_potential(cloud, x[None, :])[0]
    assert abs(series - exact) < (np.sqrt(0.75) / r) ** p


def test_polytensor_expansion_round_trip():
    rng = np.random.default_rng(151)
    pos = rng.uniform(-0.5, 0.5, (30, 3))
    cloud = qp.PointCharges(pos, rng.uniform(-1, 1, 30))
    p = 7
    m = qp.moments_from_charges(cloud, p)
    e = qp.expansion_from_polytensor(m, 1.0, qp.rule_for_expansion(p))
    x = 5.0 * qp.lebedev_rule(15).points
    direct = qp.fit_outer(cloud, np.zeros(3), 1.0, p, rule=e.rule)
    assert np.allclose(qp.eval_outer_potential(e, x),
                       qp.eval_outer_potential(direct, x), atol=1e-9)
    # and back: moments of the synthesized expansion agree after detracing
    m2 = qp.polytensor_from_expansion(e)
    for n in range(p):
        rh = rng.standard_normal(3)
        rh /= np.linalg.norm(rh)
        assert qp.detrace_directional(m2, rh, n) == pytest.approx(
            qp.detrace_directional(m, rh, n), rel=1e-9, abs=1e-12)


def test_polytensor_serialization_round_trip():
    rng = np.random.default_rng(157)
    a = random_polytensor(rng, 5)
    back = qp.polytensor_from_text(qp.polytensor_to_text(a))
    assert back.order == a.order
    for n in range(a.order):
        for t in triples(n):
            assert back.slice(n)[t] == pytest.approx(a.slice(n)[t], rel=1e-15)


def test_polytensor_text_rejects_garbage():
    with pytest.raises(qp.DomainError):
        qp.polytensor_from_text("not a polytensor\n")
    head = "quadpole-polytensor p=3\n0 0 0 0 1.0\n"
    for bad in ("3 3 0 0 1.0",      # degree out of range
                "-1 0 0 0 1.0",     # negative degree
                "2 1 1 1 1.0",      # triple of the wrong degree
                "2 1 1",            # short line
                "2 1 x 0 1.0",      # unparsable
                "0 0 0 0 2.0"):     # repeated
        with pytest.raises(qp.DomainError, match="line 3"):
            qp.polytensor_from_text(head + bad + "\n")
    with pytest.raises(qp.DomainError, match=r"\(1, 0, 0\) of degree 1 missing"):
        qp.polytensor_from_text(head)
    with pytest.raises(qp.DomainError, match="line 1"):
        qp.polytensor_from_text("quadpole-polytensor q=3\n")
