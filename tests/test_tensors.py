import itertools
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

import quadpole as qp
from quadpole.quadrature import _double_factorial as double_factorial, sphere_monomial_integral
from quadpole.tensors import MAX_ORDER, multinomial, triples


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


@pytest.mark.parametrize("p", [2.5, "3", None, True, 0, MAX_ORDER + 1])
def test_moments_from_charges_refuses_orders_that_are_not_polytensor_orders(p):
    cloud = qp.PointCharges(np.array([[0.1, 0.2, 0.3]]), np.array([1.0]))
    with pytest.raises(qp.DomainError, match="order must be"):
        qp.moments_from_charges(cloud, p)
    assert qp.moments_from_charges(cloud, np.int64(3)).order == 3


@pytest.mark.parametrize("k, n", [(600, 2), (400, 3)])
def test_moments_from_charges_refuses_moments_that_leave_float64(k, n):
    # 20 charges near 2^k at p = 4: the order-n moment, near 2^(nk), leaves
    # float64, a DomainError that names the positions and the order, not an
    # overflow warning or an inf, with warnings as errors; below that order
    # they are returned
    rng, p = np.random.default_rng(149), 4
    cloud = qp.PointCharges(np.ldexp(rng.uniform(-1.0, 1.0, (20, 3)), k),
                            rng.uniform(-1.0, 1.0, 20))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(qp.DomainError, match="^positions too large: their order-%d " % n):
            qp.moments_from_charges(cloud, p)
        assert qp.moments_from_charges(cloud, n).order == n


def test_moments_from_charges_refuses_terms_that_leave_the_normal_range():
    # the cloud above near 2^-600 at p = 4: its order-2 terms, near 2^-1200,
    # underflow to 0, a DomainError naming the positions, not moments of 0.0;
    # one source at 2^-600 among unit ones is named alone.  Terms that are 0
    # as a factor is, a charge or a coordinate, are legal, and so is a
    # moment whose terms cancel to 0.  At unit scale the moments are the sums
    # of q x^n1 y^n2 z^n3, as numpy makes them, bit for bit
    rng, p = np.random.default_rng(149), 4
    pos, q = rng.uniform(-1.0, 1.0, (20, 3)), rng.uniform(-1.0, 1.0, 20)
    small = re.escape("positions too small: their order-2 moment terms leave the normal range "
                      "of float64 at sources ")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        everyone = re.escape(str(list(range(20))))
        with pytest.raises(qp.DomainError, match="^%s%s$" % (small, everyone)):
            qp.moments_from_charges(qp.PointCharges(np.ldexp(pos, -600), q), p)
        assert qp.moments_from_charges(qp.PointCharges(np.ldexp(pos, -600), q), 2).order == 2
        lone = pos.copy()
        lone[7] = np.ldexp(lone[7], -600)
        with pytest.raises(qp.DomainError, match=r"^%s\[7\]$" % small):
            qp.moments_from_charges(qp.PointCharges(lone, q), p)
        zeros = pos.copy()
        zeros[3], zeros[5, 1], q0 = 0.0, 0.0, q.copy()
        q0[9] = 0.0
        qp.moments_from_charges(qp.PointCharges(zeros, q0), MAX_ORDER)
        pair = qp.PointCharges(np.ldexp(np.vstack([pos[:1], pos[:1]]), -100), np.array([1.0, -1.0]))
        m = qp.moments_from_charges(pair, p)
        assert all(v == 0.0 for n in range(p) for v in m.slice(n).values())
    m = qp.moments_from_charges(qp.PointCharges(pos, q), MAX_ORDER)
    x, y, z = pos.T
    for n in range(MAX_ORDER):
        assert m.slice(n) == {t: float(np.sum(q * x ** t[0] * y ** t[1] * z ** t[2]))
                              for t in triples(n)}


@pytest.mark.parametrize("call", [qp.directional_moment, qp.detrace_directional])
def test_directional_moments_refuse_malformed_directions_and_orders(call):
    # a scalar, a 2-vector or a NaN direction, and an order that is not an
    # integer in 0..p-1, each a DomainError that names the argument
    m = qp.moments_from_charges(qp.PointCharges(np.array([[0.1, 0.2, 0.3]]), np.array([1.0])), 4)
    for r in (1.0, [1.0, 2.0], [np.nan, 0.0, 1.0], [[1.0, 0.0, 0.0], [0.0, np.inf, 0.0]]):
        with pytest.raises(qp.DomainError, match="^directions r must be finite 3-vectors$"):
            call(m, r, 2)
    for n in (2.5, "1", None, True, -1, 4):
        with pytest.raises(qp.DomainError, match="^moment order n must be an integer in 0..3"):
            call(m, [1.0, 0.0, 0.0], n)
    assert np.shape(call(m, np.eye(3), np.int64(2))) == (3,)


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


BAD_SLICES = {
    "empty": ({}, "must be a nonempty dict"),
    "list": ([((1, 0, 0), 1.0)], "must be a nonempty dict"),
    "pair key": ({(1, 0): 1.0}, "keyed by exponent triples"),
    "negative exponent": ({(2, -1, 0): 1.0}, "an exponent of %s must be an integer >= 0"),
    "float exponent": ({(1.0, 0, 0): 1.0}, "an exponent of %s must be an integer >= 0"),
    "mixed degrees": ({(2, 0, 0): 1.0, (1, 0, 0): 5.0}, "%s mixes the degrees \\[1, 2\\]"),
    "nan": ({(1, 0, 0): np.nan, (0, 1, 0): 1.0}, "components of %s must be finite"),
    "inf": ({(1, 0, 0): np.inf}, "components of %s must be finite"),
    "string": ({(1, 0, 0): "1"}, "components of %s must be real numbers"),
}


@pytest.mark.parametrize("case", sorted(BAD_SLICES))
@pytest.mark.parametrize("call", [qp.symmetric_product, qp.contract, qp.partial_contract])
def test_slice_operations_refuse_malformed_slices_by_name(call, case):
    # an empty slice, keys that are not exponent triples of one degree and
    # values that are not finite are each a DomainError naming the operand,
    # not a StopIteration, a bare ValueError or a silent answer
    bad, message = BAD_SLICES[case]
    good = {t: 1.0 for t in triples(1)}
    for name, args in (("a", (bad, good)), ("b", (good, bad))):
        with pytest.raises(qp.DomainError, match=message.replace("%s", name)):
            call(*args)


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


def test_detrace_directional_closed_form_to_max_order():
    # n!/(2n-1)!! sum q |y|^n P_n(rh.yhat) at every degree a polytensor holds;
    # the result is the solid harmonic, so off the unit sphere it scales as |r|^n
    rng = np.random.default_rng(163)
    pos = rng.uniform(-0.5, 0.5, (200, 3))
    q = rng.uniform(-1, 1, 200)
    m = qp.moments_from_charges(qp.PointCharges(pos, q), MAX_ORDER)
    rh = rng.standard_normal((5, 3))
    rh /= np.linalg.norm(rh, axis=1)[:, None]
    ny = np.linalg.norm(pos, axis=1)
    cos = np.clip((rh @ pos.T) / ny, -1.0, 1.0)
    for n in range(MAX_ORDER):
        lead = math.factorial(n) / double_factorial(2 * n - 1)
        want = lead * (qp.legendre_poly(n, cos) @ (q * ny ** n))
        scale = lead * np.sum(np.abs(q) * ny ** n)
        got = qp.detrace_directional(m, rh, n)
        assert np.max(np.abs(got - want)) <= 1e-10 * scale
        off = qp.detrace_directional(m, 2.5 * rh, n)
        assert np.max(np.abs(off - 2.5 ** n * got)) <= 1e-10 * 2.5 ** n * scale


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


def test_polytensor_of_empty_expansion_is_positive_zero():
    # every rule has a point with non-negative coordinates, so no moment of
    # zero weights sums to -0.0
    cases = [(5, None)] + [(min(MAX_ORDER, order // 2 + 1), qp.lebedev_rule(order))
                           for order in qp.available_orders()]
    for p, rule in cases:
        e = qp.fit_outer(qp.PointCharges.empty(), np.zeros(3), 1.0, p, rule=rule)
        pt = qp.polytensor_from_expansion(e)
        assert pt == qp.Polytensor.zero(p)
        assert not any(np.signbit(v) for c in pt.coeffs for v in c.values())


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


def exact_partial_contract(a, b):
    """m!/(n+m)! a_n(d/dr) b_{n+m}(r) on the polynomial coefficients, in Fractions."""
    n, nm = sum(next(iter(a))), sum(next(iter(b)))
    out = {s: Fraction(0) for s in triples(nm - n)}
    for u, y in b.items():
        for t, x in a.items():
            if all(u[k] >= t[k] for k in range(3)):
                fall = math.prod(math.perm(u[k], t[k]) for k in range(3))
                s = (u[0] - t[0], u[1] - t[1], u[2] - t[2])
                out[s] += multinomial(n, t) * Fraction(x) * multinomial(nm, u) * Fraction(y) * fall
    scale = Fraction(math.factorial(nm - n), math.factorial(nm))
    return {s: v * scale / multinomial(nm - n, s) for s, v in out.items()}


def exact_symmetric_product(a, b):
    """Each component of the symmetrized outer product, in Fractions.

    Of the index sequences of composition t, the share whose first n
    indices have composition u is prod_k C(t_k, u_k) / C(n+m, n).
    """
    n, m = sum(next(iter(a))), sum(next(iter(b)))
    out = {}
    for t in triples(n + m):
        out[t] = sum((Fraction(math.prod(math.comb(t[k], u[k]) for k in range(3)),
                               math.comb(n + m, n)) * Fraction(a[u])
                      * Fraction(b[t[0] - u[0], t[1] - u[1], t[2] - u[2]])
                      for u in triples(n) if all(u[k] <= t[k] for k in range(3))))
    return out


@pytest.mark.parametrize("n, m", [(3, 4), (7, 8), (12, 3), (15, 0), (0, 15)])
def test_algebra_matches_exact_arithmetic(n, m):
    rng = np.random.default_rng(1000 + 31 * n + m)
    a = {t: rng.standard_normal() for t in triples(n)}
    b = {t: rng.standard_normal() for t in triples(m)}
    bb = {t: rng.standard_normal() for t in triples(n + m)}
    for got, want in ((qp.symmetric_product(a, b), exact_symmetric_product(a, b)),
                      (qp.partial_contract(a, bb), exact_partial_contract(a, bb))):
        assert list(got) == list(want)
        scale = float(max(abs(v) for v in want.values()))
        assert max(abs(Fraction(got[t]) - want[t]) for t in want) <= 1e-14 * scale


def test_partial_contract_reads_missing_components_as_zero():
    rng = np.random.default_rng(167)
    a = {t: rng.standard_normal() for t in triples(2)}
    b = {t: rng.standard_normal() for t in triples(5)}
    sparse = {t: v for t, v in b.items() if t[2] != 1}
    full = {t: 0.0 if t[2] == 1 else v for t, v in b.items()}
    assert qp.partial_contract(a, sparse) == qp.partial_contract(a, full)


@pytest.mark.parametrize("n", range(9))
def test_point_weights_represent_every_tensor(n):
    # A = sum_k alpha_k rhat_k^(n) on a rule exact to degree 2n, with
    # alpha = W * K_gamma @ (W * a(rhat)): (rhat.shat)^n scales degree-m
    # harmonics by lambda_m = 4 pi n! / ((n-m)!! (n+m+1)!!), m = n, n-2, ...,
    # and gamma_m = (2m+1) / (4 pi lambda_m) inverts that on each degree
    rng = np.random.default_rng(173 + n)
    pa, pb = random_polytensor(rng, n + 1), random_polytensor(rng, n + 1)
    rule = qp.rule_for_expansion(n + 1)
    pts, w = rule.points, rule.weights
    gamma = np.zeros(n + 1)
    for m in range(n % 2, n + 1, 2):
        gamma[m] = ((2 * m + 1) * double_factorial(n - m) * double_factorial(n + m + 1)
                    / (16 * np.pi ** 2 * math.factorial(n)))
    K = qp.kernel_sum(pts[:, None, :], pts[None, :, :], gamma)
    alpha = w * (K @ (w * qp.directional_moment(pa, pts, n)))
    a, b = pa.slice(n), pb.slice(n)
    back = qp.moments_from_charges(qp.PointCharges(pts, alpha), n + 1).slice(n)
    scale = max(abs(v) for v in a.values())
    assert max(abs(back[t] - a[t]) for t in a) <= 1e-12 * scale
    # so contraction is one sum over the points: sum_k alpha_k b(rhat_k)
    got = alpha @ qp.directional_moment(pb, pts, n)
    norm = math.sqrt(qp.contract(a, a) * qp.contract(b, b))
    assert abs(got - qp.contract(a, b)) <= 1e-13 * norm


@pytest.mark.parametrize("n, m", [(0, 0), (1, 0), (0, 5), (2, 3), (4, 4), (7, 1), (6, 5), (7, 7)])
def test_products_are_direct_products_of_point_values(n, m):
    # the abstract's direct product: at the points of a rule exact to degree
    # 2(n+m), the values g = a(rhat_k) of an order-n tensor and h = b(rhat_k)
    # of an order-m tensor multiply pointwise into those of their symmetric
    # product C, c(rhat) = a(rhat) b(rhat), so the weights W * g * h integrate
    # as c does: their order-(n+m) moments are the closed-form integrals
    # sum_s multinomial(n+m; s) C[s] of rhat^(s+t) over the sphere
    k = n + m
    rng = np.random.default_rng(181 + 8 * n + m)
    pa, pb = random_polytensor(rng, n + 1), random_polytensor(rng, m + 1)
    rule = qp.rule_for_expansion(k + 1)
    pts, w = rule.points, rule.weights
    g, h = qp.directional_moment(pa, pts, n), qp.directional_moment(pb, pts, m)
    want = qp.symmetric_product(pa.slice(n), pb.slice(m))
    got = qp.moments_from_charges(qp.PointCharges(pts, w * g * h), k + 1).slice(k)
    for t in triples(k):
        terms = [multinomial(k, s) * c * sphere_monomial_integral(*np.add(s, t))
                 for s, c in want.items()]
        assert abs(got[t] - sum(terms)) <= 1e-14 * sum(abs(v) for v in terms)
    # and, projected on degree n+m as in test_point_weights_represent_every_tensor,
    # they give point weights whose moments are C itself.  The projection
    # amplifies roundoff by about (2k-1)!!/k!, k = n+m (see tensors.MAX_ORDER):
    # 2449 at n = m = 7, where the error reached 8.2e-12 of the largest component
    gamma = np.zeros(k + 1)
    for j in range(k % 2, k + 1, 2):
        gamma[j] = ((2 * j + 1) * double_factorial(k - j) * double_factorial(k + j + 1)
                    / (16 * np.pi ** 2 * math.factorial(k)))
    K = qp.kernel_sum(pts[:, None, :], pts[None, :, :], gamma)
    alpha = w * (K @ (w * g * h))
    back = qp.moments_from_charges(qp.PointCharges(pts, alpha), k + 1).slice(k)
    scale = max(abs(v) for v in want.values()) * double_factorial(2 * k - 1) / math.factorial(k)
    assert max(abs(back[t] - want[t]) for t in want) <= 1e-14 * scale
