"""Extended-precision references for the kernel sums, in np.longdouble.

The float64 sums are checked against these at a few eps of a roundoff
scale such as sum |q||K|.  A float64 reference carries roundoff of that
size itself, so it cannot support such a bound; these carry about
p eps_long, 1e-17 at p = 30 where np.longdouble is the x87 80-bit type
(eps 1.08e-19).  Where np.longdouble is plain double they are no better
than the sums they check, and require_long fails the test that asks for
them, saying so.

The references take the cosines t = xhat.rhat_b as the float64 sums form
them (cosines) and run everything after in longdouble: the radial powers,
the recurrence and the sums over the sources.  So they check what the
recurrence and the contraction add.  The rounding of t itself is
amplified by the conditioning of P_n in t, up to n(n+1)/2 at t = +-1: on
p = 30 fits, with the geometry in longdouble as well, the float64 sums
differ from the reference by up to 4e-14 of sum |q||K|, with or without
the Chebyshev recurrence, against below 1e-14 on the float64 cosines.
"""
import numpy as np
import pytest

LONG = np.longdouble
# source rows of a block: about 2^16 pairs, a megabyte per longdouble array
_BLOCK_PAIRS = 2 ** 16


def require_long():
    """Fail, naming this platform's longdouble, unless its eps is below 1e-18."""
    eps = np.finfo(LONG).eps
    if eps >= 1e-18:
        pytest.fail("the extended-precision oracle needs np.longdouble with eps < 1e-18, "
                    "but here it has eps %g, no better than float64" % eps)


def legendre(t, p):
    """Yield P_0..P_{p-1} at t, in longdouble, by Bonnet's recurrence."""
    t = np.asarray(t, dtype=LONG)
    cur, nxt = np.ones_like(t), t
    for n in range(p):
        yield cur
        cur, nxt = nxt, ((2 * n + 3) * t * nxt - (n + 1) * cur) / (n + 2)


def cosines(x, pts):
    """(t, r): the cosines xhat.rhat_b (M, B) as the float64 sums form them, and |x_i| (M, 1).

    t is x / |x| times the unit points pts (B, 3), taken as exact
    directions, in float64 by one matmul, as legendre._cosine_blocks forms
    it; r is taken in longdouble.
    """
    x = np.asarray(x, dtype=float)
    norm = np.sqrt(x[:, 0] * x[:, 0] + x[:, 1] * x[:, 1] + x[:, 2] * x[:, 2])
    t = (x / norm[:, None]) @ np.asarray(pts, dtype=float).T
    x = x.astype(LONG)
    return t, np.sqrt(np.sum(x * x, axis=1))[:, None]


def source_sum(kind, x, q, pts, coef):
    """sum_i q_i K(x_i, rhat_b) at each unit point rhat_b of pts, with its scale sum_i |q_i||K|.

    K = sum_n coef[n] L_n, with L_n(x_i, rhat_b) = |x_i|^n P_n(t) for the
    outer kind and L_n(rhat_b, x_i) = P_n(t) / |x_i|^(n+1) for the inner,
    as a fit or shift sums it over its sources x (M, 3) with charges q (M,).
    Both results are longdouble arrays of shape (B,).
    """
    t, r = cosines(x, pts)
    q = np.asarray(q, dtype=LONG)
    want, scale = np.zeros(len(pts), dtype=LONG), np.zeros(len(pts), dtype=LONG)
    step = max(1, _BLOCK_PAIRS // max(1, len(pts)))
    for start in range(0, len(x), step):
        rows = slice(start, start + step)
        a = r[rows] if kind == "outer" else 1 / r[rows]
        power = np.ones_like(a) if kind == "outer" else a   # a^(n+o)
        k = np.zeros(t[rows].shape, dtype=LONG)
        for c, p_n in zip(np.asarray(coef, dtype=LONG), legendre(t[rows], len(coef))):
            k += c * power * p_n
            power = power * a
        want += q[rows] @ k
        scale += np.abs(q[rows]) @ np.abs(k)
    return want, scale
