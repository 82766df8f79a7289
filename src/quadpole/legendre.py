"""Legendre polynomials, the scaled two-argument sequence L_n, and the kernel K.

Everything here works with vector inner products only; no angles appear.
The two-argument sequence L_n(x, y) = (|x|^n / |y|^{n+1}) P_n(xhat.yhat),
the terms of the expansion 1/|x-y| = sum_n L_n(x, y) for |x| < |y|, is the
case lambda = 1/2 of the Gegenbauer terms T_n(x, y) = (|x|^n / |y|^{n+2 lambda})
C^lambda_n(xhat.yhat) of |x-y|^(-2 lambda).  One recurrence generates them in
monic form: with k_n = 2^n (lambda)_n / n!, the leading coefficient of
C^lambda_n, it runs on G_n = T_n / k_n,

    G_0 = |y|^(-2 lambda)
    G_1 = (x.y / y.y) G_0
    G_n = (x.y/y.y) G_{n-1} - b_n (x.x/y.y) G_{n-2},
    b_n = (n-1)(n+2 lambda-2) / (4(n+lambda-1)(n+lambda-2))

_terms is the only code that runs it.  Its callers give it u = x.y/y.y,
v = x.x/y.y and G_0 = |y|^(-2 lambda), numbers or one value per pair,
which it yields unexpanded; the callers refuse y = 0, through _ratios or
_cosine_blocks.  The monic form saves one array pass per degree over the
recurrence for T_n itself; with v and G_0 numbers a degree costs three
array passes.  At lambda = 1/2, k_n is kappa_n = (2n)!/(2^n n!^2), the
leading coefficient of P_n, and b_n = (n-1)^2/((2n-1)(2n-3)).  The
gradient of L_n is the same recurrence at lambda = 3/2, since
P'_{n+1} = C^{3/2}_n (see normal_kernel_sum).  Each sum folds k_n into
its own per-degree coefficients, and the Legendre polynomial P_n(t) is
kappa_n G_n at x = t zhat, y = zhat.  Degrees stop at 1000: beyond that,
G_n and k_n leave the range of float64.

kernel_sum returns the sum for every pair.  Every other sum contracts it
with weights, each term as the recurrence makes it, with no pair matrix,
on the cosines between points and the unit points of a rule
(_cosine_blocks).  Evaluations, energies, layers, de-tracing and the outer
gradient contract over the rule's points with _kernel_dot; fits and shifts
contract over their sources with _source_dot.

Parity.  C^lambda_n has the parity of n, so for every lambda

    T_n(-x, y) = T_n(x, -y) = (-1)^n T_n(x, y):

in the recurrence only x.y changes sign.  A sum whose even- and odd-degree
totals are kept apart therefore folds in two ways.  The row fold: the
same sum at the rows -x (or -y) is even - odd.  The set fold: a set that
holds -y beside y, with weights w and w', is summed over y alone, with
w + w' for the even degrees and w - w' for the odd.  Every quadrature
rule is centrally symmetric with equal weights at rhat and -rhat
(QuadratureRule), so a fit takes the row fold (expansion._project), a
surface sum the set fold (expansion._surface_set), and a flow row gets
the sums from a source point and from its antipode out of one
recurrence (_normal_sums): each runs the kernel at half the rule.
"""
import math
from functools import cache
from numbers import Integral

import numpy as np

from .errors import DomainError, SingularityError

__all__ = [
    "legendre_poly",
    "f_sequence_raw",
    "scaled_legendre_stack",
    "kernel_sum",
    "kernel_matrix",
    "normal_kernel_sum",
    "grad_scaled_legendre_stack",
]


def legendre_poly(n, t):
    """Evaluate the Legendre polynomial P_n(t) = L_n(t zhat, zhat), n <= 1000.

    Accepts scalar or array t, not NaN, with |t| <= 1 (clamped within 1e-12 slack).
    """
    kappa = _leading(_integer(n, "polynomial degree", 0) + 1, 0.5)
    t = _real(t, "t")
    if not np.all(np.abs(t) <= 1.0 + 1e-12):
        raise DomainError("argument outside [-1, 1]")
    *_, g_n = _terms(np.clip(t, -1.0, 1.0), 1.0, np.ones(t.shape), n + 1)
    return (kappa[n] * g_n)[()]


def _integer(value, name, low, high=None):
    """value if it is an integer >= low, and <= high if given, not a bool; else a DomainError."""
    if (not isinstance(value, Integral) or isinstance(value, bool) or value < low
            or high is not None and value > high):
        bounds = ">= %d" % low if high is None else "in %d..%d" % (low, high)
        raise DomainError("%s must be an integer %s, not %r" % (name, bounds, value))
    return value


@cache
def _leading(p, lam=0.5):
    """Leading coefficients k_n = 2^n (lam)_n / n! of C^lam_n, n < p, correctly rounded.

    kappa_n, those of P_n, at lam = 1/2; (n+1) kappa_{n+1}, those of
    P'_{n+1} = C^{3/2}_n, at lam = 3/2.  Each is the exact ratio
    prod_{i<n} (2 lam + 2i) / n! of integers, divided once.
    """
    if p > 1001:
        raise DomainError("degree %d exceeds 1000, beyond which the monic terms leave "
                          "the range of float64" % (p - 1))
    h, num, den, k = round(2 * lam), 1, 1, []
    for n in range(p):
        k.append(num / den)
        num *= h + 2 * n
        den *= n + 1
    k = np.array(k)
    k.setflags(write=False)
    return k


@cache
def _steps(p, lam):
    """-b_n, n = 2..p-1, each rounded once: the factors of (x.x/y.y) G_{n-2} in the recurrence."""
    h = round(2 * lam)
    return tuple(-((n - 1) * (n + h - 2) / ((2 * n + h - 2) * (2 * n + h - 4)))
                 for n in range(2, p))


def _terms(u, v, g0, p, lam=0.5, work=None):
    """Yield G_n = T_n / k_n, n < p, at Gegenbauer index lam, from u = x.y/y.y and v = x.x/y.y.

    g0 is G_0 = |y|^(-2 lam): a number, or an array that broadcasts against
    u, such as one value per pair.  It is yielded as given, unexpanded, so
    a caller that sums G_0 elsewhere pays nothing for it here.  With v and
    g0 numbers each step of the recurrence is a number; else it is an array
    that broadcasts along the terms, one more pass per degree.  The later
    terms are arrays of the broadcast shape, made in work, three arrays of
    that shape, if given, so that the row blocks of one sum can share one
    set of arrays.  Only two terms are kept: the array holding G_n is
    reused for G_{n+2}, so a consumer must copy what it needs before asking
    for the next term.
    """
    yield g0
    if p < 2:
        return
    shape = np.broadcast_shapes(np.shape(u), np.shape(v), np.shape(g0))
    g_cur, g_prev, tmp = work if work is not None else [np.empty(shape) for _ in range(3)]
    yield np.multiply(u, g0, out=g_cur)
    scalar = np.ndim(v) == 0 and np.ndim(g0) == 0
    v_step = None if scalar else np.empty(np.broadcast_shapes(np.shape(v), np.shape(g0)))
    for n, step in enumerate(_steps(p, lam), 2):
        # G_n = u G_{n-1} - b_n v G_{n-2}, written over G_{n-2}, or for n = 2,
        # from G_0 as given, over the third array
        if scalar:
            v_step = v * step
        else:
            np.multiply(v, step, out=v_step)
        if n == 2:
            v_step *= g0
            np.multiply(u, g_cur, out=g_prev)
            g_prev += v_step
        else:
            g_prev *= v_step
            g_prev += np.multiply(u, g_cur, out=tmp)
        g_prev, g_cur = g_cur, g_prev
        yield g_cur


def _ratios(xy, xx, yy, lam=0.5):
    """u = x.y/y.y, v = x.x/y.y and G_0 = |y|^(-2 lam) for _terms, from the inner products.

    Raises a SingularityError where y = 0.
    """
    yy = np.asarray(yy, dtype=float)
    if np.any(yy <= 0.0):
        raise SingularityError("second argument must be nonzero")
    return np.divide(xy, yy), np.divide(xx, yy), yy ** -lam


def _dot(a, b):
    """a.b over the last axis, summed in the order np.sum uses."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def _set_dot(rows, pts):
    """rows.pts for rows (..., 1, 3) against a point set (B, 3): shape (..., B), one matmul."""
    return rows[..., 0, :] @ pts.T


def _inner_products(x, y):
    """x.y, x.x and y.y over the last axis."""
    x, y = (np.asarray(a, dtype=float) for a in (x, y))
    return _dot(x, y), _dot(x, x), _dot(y, y)


# About 7 working arrays of this many float64s fit a 2 MB L2 cache.  Blocks
# of 2^15 pairs were 5-10% faster per kernel call, but raised the peak of a
# tacc pass at p = 16, 30 from 1.79 to 2.36 MB.
_BLOCK_PAIRS = 2 ** 14

# Coordinates stay unscaled (_exponent) while 2 lam |e| is at most this:
# the squares and the powers r^(2 lam) stay well inside float64 there.
_SCALE_FREE = 256


def _aligned(count, shape):
    """count float64 arrays of the given shape from one np.empty, each starting on a 64-byte boundary.

    The block arrays of the pairwise sums are taken from here.  numpy starts
    a large buffer at any multiple of 16 bytes within a cache line, often
    16, 32 or 48, and a vector loop whose operands do not start on a line
    splits its loads across lines: on an AVX-512 machine a multiply of two
    2^14-float blocks into a third took 6.6 us so, against 3.1 us with each
    block starting on a line.  Each array is padded to a multiple of 8
    floats, one line, so the next starts on a line too, and a block of
    fewer rows, a[:rows], starts where a does.  Only where the arrays sit
    changes, not what is computed, so results do not depend on it.
    """
    size = int(np.prod(shape))
    stride = -(-size // 8) * 8
    buf = np.empty(count * stride + 8)   # numpy aligns a float64 buffer to 8 bytes at least
    start = -buf.ctypes.data % 64 // 8
    # cut from a nonempty view, as numpy moves an empty slice to the buffer's start
    return [buf[start + i * stride:][:size].reshape(shape) for i in range(count)]


def _row_blocks(*arrays):
    """Broadcast batch shape of float arrays of 3-vectors and their row blocks.

    Returns (batch, [(rows, block, block, ...), ...]), one block per array,
    cut along the first batch axis with about _BLOCK_PAIRS pairs of the first
    two arrays (the recurrence's pairs) per block; a third array, such as
    normals, broadcasts against them without shrinking the block.  An
    argument that broadcasts along that axis is passed whole; a scalar
    batch is one block indexed by ``...``.
    """
    batch = np.broadcast_shapes(*(a.shape[:-1] for a in arrays))
    if not batch:
        return batch, [(..., *arrays)]
    pairs = np.broadcast_shapes((1,) * len(batch), *(a.shape[:-1] for a in arrays[:2]))
    step = max(1, _BLOCK_PAIRS // max(1, int(np.prod(pairs[1:]))))

    def cut(a, rows):
        return a[rows] if a.ndim > len(batch) and a.shape[0] > 1 else a

    blocks = [slice(i, i + step) for i in range(0, batch[0], step)]
    return batch, [(rows, *(cut(a, rows) for a in arrays)) for rows in blocks]


def _real(a, name):
    """a as a float array, or a DomainError naming it unless its dtype is integer or float:
    a complex, bool, string or object array is refused, not cast."""
    a = np.asarray(a)
    if a.dtype.kind not in "iuf":
        raise DomainError("%s must be real numbers, not of dtype %s" % (name, a.dtype))
    return a.astype(float, copy=False)


def _points(x, name="evaluation points"):
    """x as a float array, or a DomainError naming it unless it holds finite 3-vectors (..., 3)."""
    x = _real(x, name)
    if x.shape[-1:] != (3,) or not np.all(np.isfinite(x)):
        raise DomainError("%s must be finite 3-vectors" % name)
    return x


def _apart(x, center, R):
    """|x - center| / R over the last axis, by np.hypot, so no square leaves float64; inf is far."""
    with np.errstate(over="ignore"):
        d = np.subtract(x, center)
        return np.hypot(np.hypot(d[..., 0], d[..., 1]), d[..., 2]) / R


def _coefficients(coef):
    """coef as a float array, or a DomainError unless it is finite, of shape (p,), p >= 1."""
    coef = _real(coef, "coefficients")
    if coef.ndim != 1 or len(coef) < 1 or not np.all(np.isfinite(coef)):
        raise DomainError("coefficients must be finite, shape (p,) with p >= 1")
    return coef


def f_sequence_raw(xy, xx, yy, p):
    """Sequence L_0..L_{p-1} from the inner products x.y, x.x, y.y.

    Inputs broadcast; the result has shape (p,) + broadcast shape.
    """
    out = np.empty((p,) + np.broadcast_shapes(np.shape(xy), np.shape(xx), np.shape(yy)))
    for n, g in enumerate(_terms(*_ratios(xy, xx, yy), p)):
        out[n] = g
    out *= _leading(p, 0.5).reshape((p,) + (1,) * (out.ndim - 1))
    return out


def scaled_legendre_stack(x, y, p):
    """L_n stack for broadcast arrays of 3-vectors; shape (p,) + batch."""
    return f_sequence_raw(*_inner_products(x, y), p)


def kernel_sum(x, y, coef):
    """sum_n coef[n] L_n(x, y) over broadcast batches of 3-vectors, p = len(coef).

    Terms are added in order n = 0..p-1 as the recurrence produces them,
    each times coef[n] kappa_n, so no (p,) + batch stack is built.  The
    batch is summed in row blocks of about 2^14 pairs, so the recurrence's
    working arrays stay in cache; each element's arithmetic is that of one
    unblocked sum, bit for bit.  x and y must be finite 3-vectors and coef
    finite, each else a DomainError.
    """
    x, y, coef = _points(x, "x"), _points(y, "y"), _coefficients(coef)
    coef = coef * _leading(len(coef), 0.5)
    batch, blocks = _row_blocks(x, y)
    out = np.empty(batch)
    for rows, xb, yb in blocks:
        terms = _terms(*_ratios(*_inner_products(xb, yb)), len(coef))
        total = np.multiply(next(terms), coef[0], out=out[rows])
        tmp = np.empty_like(total)
        for c, g in zip(coef[1:], terms):
            total += np.multiply(g, c, out=tmp)
    return out[()]   # a numpy scalar for a scalar batch


def _exponent(scale, power):
    """The prescale 2^-e of a call whose largest |coordinate| is scale, in [2^(e-1), 2^e):
    e, or 0 where power |e| is at most _SCALE_FREE."""
    e = math.frexp(scale)[1]
    return e if power * abs(e) > _SCALE_FREE else 0


def _cosine_blocks(x, pts, e, singular, step, p, lam):
    """Yield (block, r, terms) for blocks of step points x (M, 3) against the unit points pts.

    The geometry that _kernel_dot and _source_dot share.  pts (B, 3) must be
    unit vectors rhat_b, as the points of a QuadratureRule are, and are
    taken as exact directions: with t = xhat.rhat_b, each term is G_n(t)
    times radial powers, so the recurrence runs on the cosines alone,
    _terms(t, 1, 1, p, lam).  Its steps are numbers, so a degree costs three
    passes over the block and no broadcast; the results differ from
    kernel_sum's by roundoff.  block is the slice of x, and r its norms at
    2^-e x, e from _exponent, so that far from unit scale they are taken
    without squaring x out of float64; the caller scales back.  A point at
    0 has direction 0, and is a SingularityError where it is the kernel's
    second argument (singular).  One matmul gives t, in the first of four
    block arrays from _aligned, shared by the blocks, and the terms are made
    in the other three.  terms yields G_1..G_{p-1}: G_0 = 1 is consumed, as
    each caller sums its weights once.  A block's terms must be used before
    the next block is asked for.
    """
    work = _aligned(4, (min(step, len(x)), len(pts)))
    for start in range(0, len(x), step):
        block = slice(start, start + step)
        xb = np.ldexp(x[block], -e) if e else x[block]
        r = np.sqrt(_dot(xb, xb))
        if singular and not r.all():
            raise SingularityError("second argument must be nonzero")
        t = np.matmul(xb / np.where(r > 0.0, r, 1.0)[:, None], pts.T, out=work[0][:len(r)])
        terms = _terms(t, 1.0, 1.0, p, lam, work=[a[:len(r)] for a in work[1:]])
        next(terms)
        yield block, r, terms


def _kernel_dot(x, pts, R, coef, w, outside, lam=0.5, total=False):
    """Even- and odd-degree totals of sum_b [sum_n coef[n] T_n][..., b] w[n % P, b, ...] at rows x.

    T_n are the Gegenbauer terms at index lam (module docstring), L_n at
    1/2: T_n(R rhat_b, x) for rows outside the sphere of radius R
    (outside), as in evaluations, the exterior layers and the outer
    gradient, else T_n(x, R rhat_b), with rhat_b the unit vectors of pts
    (B, 3) and the rows x (..., 3).  Degree n is contracted with w[n % P],
    w of shape (P, B) + h: P = 1 is one weight per point, P = 2 the set fold
    (module docstring) with the rows w + w' and w - w', and P = p one weight
    per degree, such as the moments sum_s w_s R_s^n of shells of radii R_s.
    coef holds per-degree coefficients (p,) or sets (p,) + sets, such as
    the radial factors of L_n(x, r_k u) = r_k^-(n+1) L_n(x, u); each set is
    the sum with its own coefficients (p,) bit for bit, as only the last
    contraction is taken per set.  The result has shape
    (2,) + sets + x.shape[:-1] + h: the sum over the even degrees, then over
    the odd, kept apart for the row fold; with total, their sum, the sum
    itself, added before it is scaled back, shape sets + x.shape[:-1] + h.

    The rows are the points of _cosine_blocks, and the sum contracts over
    the rule: T_n = (a/b)^n b^(-2 lam) k_n G_n(t), where a = R and b = |x|
    outside, a = |x| and b = R inside.  Each G_n is contracted with w by one
    matmul as it is made; degree 0 is the column sum of w[0], made once.
    The row factors (a/b)^n b^(-2 lam), with coef[n] k_n, scale only the
    per-degree sums.  A result that overflows, or leaves the normal range
    of float64 at the original scale, is a DomainError (_rescaled).  The
    matmuls are summed by the BLAS, so the last bits of a result can depend
    on the block layout.
    """
    p, sets, lead, h = len(coef), coef.shape[1:], x.shape[:-1], w.shape[2:]
    # T_n(2^-e x, 2^-e y) = 2^(2 lam e) T_n(x, y): the sum runs on x and R
    # scaled by 2^-e, exactly, and is scaled back at the end
    power, scale = round(2 * lam), max(np.abs(x).max(initial=0.0), R)
    e = _exponent(scale, power)
    R = math.ldexp(R, -e)
    columns = coef.reshape(p, -1).T * _leading(p, lam)   # one row per set, in the sets' order
    out = np.empty((2, len(columns), math.prod(lead)) + h)
    step = max(1, _BLOCK_PAIRS // max(1, len(pts)))
    with np.errstate(over="ignore", invalid="ignore"):   # a sum out of range is refused below
        g0_sum = w[0].sum(axis=0)
        for block, r, terms in _cosine_blocks(x.reshape(-1, 3), pts, e, outside, step, p, lam):
            sums = np.empty((p, len(r)) + h)
            sums[0] = g0_sum
            for n, g in enumerate(terms, 1):
                np.matmul(g, w[n % len(w)], out=sums[n])
            a, b = (R, r) if outside else (r, R)   # |x| and |y| of T_n(x, y)
            # 1 / b ** (2 lam): b ** -1.0 can differ from 1 / b in the last bit
            factors = columns[:, :, None] * (a / b) ** np.arange(p)[:, None] * (1.0 / b ** (2 * lam))
            for k, factor in enumerate(factors):   # one set at a time: each sums as a (p,) coef
                for parity in (0, 1):
                    np.einsum("nr,nr...->r...", factor[parity::2], sums[parity::2],
                              out=out[parity, k, block])
        out = np.add(*out).reshape(sets + lead + h) if total else out.reshape((2,) + sets + lead + h)
    return _rescaled(out, -power * e, "kernel sums at coordinates near 2^%d" % math.frexp(scale)[1])


def _rescaled(a, k, what):
    """a times 2^k: the one way out of the kernel and Coulomb sums, which run prescaled by 2^-e.

    A DomainError, naming what, where a is not finite ("leave the range of
    float64"), or where its largest |value| times 2^k would leave float64's
    normal range, with a bit to spare, so that the even- and odd-degree
    totals add without overflow ("leave the normal range of float64").
    """
    top = np.abs(a).max(initial=0.0)
    finite = math.isfinite(top)
    if not finite or top and not -1022 < math.frexp(top)[1] + k < 1024:
        raise DomainError("%s leave the %srange of float64" % (what, "normal " if finite else ""))
    return np.ldexp(a, k) if k else a


def _source_dot(x, pts, coef, q, inner):
    """Even- and odd-degree totals of sum_i q[..., i] sum_n coef[n] L_n at each point of pts.

    The contraction of _kernel_dot taken the other way round, over the
    sources: the sum that fits and shifts make.  L_n is L_n(x_i, rhat_b)
    for the outer kind and L_n(rhat_b, x_i) for the inner, with the sources
    x (M, 3), their charges q, shape h + (M,), and the unit vectors rhat_b
    of pts (B, 3).  coef holds per-degree coefficients (p,) or sets
    (p,) + sets, and the result has shape (2,) + sets + h + (B,): the sum
    over the even degrees, then over the odd, kept apart for the row fold.

    The sources are the points of _cosine_blocks, the rule taken whole:
    L_n = a_i^(n+o) kappa_n G_n(t), with a_i = |x_i|, o = 0 for the outer
    kind or a_i = 1/|x_i|, o = 1 for the inner.  The powers a_i^(n+o),
    coef[n] kappa_n and the charges are folded into weights, one (sets h,
    rows) matrix per degree, made once per block, and a degree is one
    matmul of them with G_n, added to its parity's total.  The block arrays,
    the powers and the weights hold about 4 * 2^14 numbers.  A sum that
    leaves float64 is a DomainError (_rescaled).
    """
    p, sets, h = len(coef), coef.shape[1:], q.shape[:-1]
    columns = coef.reshape(p, -1) * _leading(p)[:, None]   # (p, K), one column per set
    charges = q.reshape(math.prod(h), len(x))   # (H, M)
    n_sets, n_pts = columns.shape[1], len(pts)
    width = n_sets * len(charges)   # the rows of a degree's weights and totals
    exponents = np.arange(p, dtype=float)[:, None] + (1.0 if inner else 0.0)   # n + o
    scale = np.abs(x).max(initial=0.0)
    e = _exponent(scale, 2)
    step = max(1, 4 * _BLOCK_PAIRS // (4 * n_pts + p * width + p * n_sets))
    out = np.zeros((2, width, n_pts))
    totals = [out[n % 2] for n in range(1, p)]   # degree n's parity total
    g0_sum = np.zeros(width)   # G_0 = 1: the weights of degree 0, summed
    weights_buf, tmp = np.empty(p * width * min(step, len(x))), np.empty((width, n_pts))
    with np.errstate(over="ignore", invalid="ignore"):   # a sum out of range is refused below
        for block, r, terms in _cosine_blocks(x, pts, e, inner, step, p, 0.5):
            np.ldexp(r, e, out=r)
            # a^(n+o) coef[n] kappa_n, one row per set, times the charges
            scaled = np.empty((p, n_sets, len(r)))
            np.power(1.0 / r if inner else r, exponents, out=scaled[:, 0])
            scaled[:, 1:] = scaled[:, :1]
            scaled *= columns[:, :, None]
            weights = weights_buf[:p * width * len(r)].reshape(p, width, len(r))
            np.multiply(scaled[:, :, None, :], charges[:, block],
                        out=weights.reshape(p, n_sets, len(charges), len(r)))
            g0_sum += weights[0].sum(axis=-1)
            for total, w, g in zip(totals, weights[1:], terms):
                total += np.matmul(w, g, out=tmp)
        out[0] += g0_sum[:, None]
    what = "kernel sums over sources near 2^%d" % math.frexp(scale)[1]
    return _rescaled(out, 0, what).reshape((2,) + sets + h + (n_pts,))


def kernel_matrix(x, y, p):
    """Reproducing kernel K(x, y) = sum_{n<p} (2n+1)/(4 pi) L_n(x, y), broadcast, p >= 1."""
    return kernel_sum(x, y, _reproducing(_integer(p, "order", 1)))


def _reproducing(p):
    """The coefficients (2n+1)/(4 pi), n < p, of the reproducing kernel K."""
    return (2.0 * np.arange(p) + 1.0) / (4.0 * np.pi)


def normal_kernel_sum(a, x, n, coef):
    """sum_k coef[k] n.grad_x L_k(a, x) over broadcast batches; shape batch.

    With P'_{k+1} = (k+1) P_k + t P'_k and P'_{m+1} = C^{3/2}_m (DLMF 18.9.19),
    the gradient is one pass of the recurrence at lambda = 3/2:

        grad_x L_k(a, x) = T_{k-1}(a, x) a - T_k(a, x) x,   T_{-1} = 0,

    with T_m = |a|^m C^{3/2}_m(ahat.xhat) / |x|^{m+3} the terms of |x-a|^-3.
    So S_A = sum_m coef[m+1] T_m and S_B = sum_m coef[m] T_m, m < p, with
    coef[p] = 0, give the normal derivative (n.a) S_A - (n.x) S_B, one
    scalar per pair.  S_B and S_A - S_B, whose coefficients are
    coef[m+1] - coef[m], are added as the recurrence produces T_m, each
    term only where its coefficient is nonzero, with no (p,) + batch
    stack: a constant coef costs one accumulation per degree.
    n = np.eye(3) against a[..., None, :] and x[..., None, :] gives the
    gradient, shape batch + (3,).  Blocked like :func:`kernel_sum`, and
    bit-identical to an unblocked sum, except for a point set a (B, 3)
    against rows x and n (..., 1, 3), as the flow rows are: there x.a and
    n.a are one matmul per row block, whose last bits depend on the blocks.
    a, x and n must be finite 3-vectors and coef finite, each else a
    DomainError.
    """
    a, x, n = _points(a, "a"), _points(x, "x"), _points(n, "n")
    sums = _normal_sums(a, x, n, _coefficients(coef), pair=False)
    return sums[()]   # a numpy scalar for a scalar batch


def _normal_sums(a, x, n, coef, pair):
    """normal_kernel_sum(a, x, n, coef); with pair, also the same sum at -a, shape (2,) + batch.

    By the parity of T_m in a (module docstring) and n.(-a) = -n.a, the
    parts of the sum even and odd in a are, with S_A and S_B split by the
    parity of m,

        P = (n.a) S_A,odd - (n.x) S_B,even,   Q = (n.a) S_A,even - (n.x) S_B,odd,

    and the sum is P + Q at a and P - Q at -a, both from one recurrence
    per row block; P + Q does not depend on pair, bit for bit.  S_A is
    made as S_B + (S_A - S_B), whose coefficients (coef[m+1] - coef[m]) k_m
    are zero but for the last degree where coef is constant, as for the
    flow rows (_normal_block).  Its callers give it a float coef (p,), p >= 1.
    """
    lead = _leading(len(coef), 1.5)
    c_b, c_d = coef * lead, (np.append(coef[1:], 0.0) - coef) * lead
    on_set = np.ndim(a) == 2 and np.shape(x)[-2:-1] == np.shape(n)[-2:-1] == (1,)
    batch, blocks = _row_blocks(a, x, n)
    out = np.empty((2,) + batch if pair else batch)
    for rows, ab, xb, nb in blocks:
        even, odd = _normal_block(ab, xb, nb, c_b, c_d, on_set)
        if pair:   # out[1, rows], not out[1][rows]: a scalar batch's out[1] is a copy
            np.subtract(even, odd, out=out[1, rows])
        np.add(even, odd, out=out[0, rows] if pair else out[rows])
        del even, odd   # before the next block's recurrence
    return out


def _normal_block(a, x, n, c_b, c_d, on_set):
    """P and Q of one row block, from the sums S_B and S_D = S_A - S_B, split by parity.

    S_B takes c_b[m] T_m and S_D c_d[m] T_m, each only where its
    coefficient is nonzero: for a constant coef, such as the flow rows',
    only the last degree reaches S_D, so a degree costs one accumulation,
    not the two of S_A and S_B.  S_A = S_B + S_D is made once, in S_D's
    arrays, and P and Q over S_D's and S_B's where n does not broadcast the
    terms to a larger shape.
    """
    u, v, g0 = _ratios(_set_dot(x, a) if on_set else _dot(x, a), _dot(a, a), _dot(x, x), 1.5)
    shape = np.broadcast_shapes(u.shape, v.shape, g0.shape)
    s_b, s_d = [None, None], [None, None]   # the even- and odd-degree parts
    tmp = np.empty(shape)
    for m, g in enumerate(_terms(u, v, g0, len(c_b), 1.5)):
        for sums, c in ((s_b, c_b[m]), (s_d, c_d[m])):
            if not c:
                continue
            if sums[m % 2] is None:
                sums[m % 2] = np.multiply(g, c, out=np.empty(shape))
            else:
                sums[m % 2] += np.multiply(g, c, out=tmp)
    del g, tmp, u, v, g0   # free the recurrence's arrays before P and Q
    s_b = [np.zeros(shape) if s is None else s for s in s_b]
    s_a = [b if d is None else np.add(d, b, out=d) for b, d in zip(s_b, s_d)]
    na, nx = _set_dot(n, a) if on_set else _dot(n, a), _dot(n, x)
    fits = np.broadcast(s_b[0], na, nx).shape == shape
    # both products of S_A first, as S_A may be S_B where S_D is zero
    even = np.multiply(na, s_a[1], out=s_d[1] if fits else None)
    odd = np.multiply(na, s_a[0], out=s_d[0] if fits else None)
    even -= np.multiply(nx, s_b[0], out=s_b[0] if fits else None)
    odd -= np.multiply(nx, s_b[1], out=s_b[1] if fits else None)
    return even, odd


def grad_scaled_legendre_stack(a, x, p):
    """Gradients d/dx of L_n(a, x), shape (p,) + batch + (3,), one degree per
    axis-normal :func:`normal_kernel_sum`; tests compare the fused sum against it."""
    a, x = np.expand_dims(a, -2), np.expand_dims(x, -2)
    return np.stack([normal_kernel_sum(a, x, np.eye(3), np.eye(n + 1)[n]) for n in range(p)])
