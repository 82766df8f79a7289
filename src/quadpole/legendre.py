"""Legendre polynomials, the scaled two-argument sequence L_n, and the kernel K.

Everything here works with vector inner products only; no angles appear.
The two-argument sequence is generated by the two-term recurrence

    F_0 = |y|^a
    F_1 = -a (x.y / y.y) |y|^a
    F_n = [(2n-2-a)/n] (x.y/y.y) F_{n-1} + [(a+2-n)/n] (x.x/y.y) F_{n-2}

with a = -1 giving L_n(x, y) = (|x|^n / |y|^{n+1}) P_n(xhat.yhat), the
terms of the expansion 1/|x-y| = sum_n L_n(x, y) for |x| < |y|.
"""
import numpy as np

from .errors import DomainError, SingularityError

__all__ = [
    "legendre_poly",
    "legendre_poly_table",
    "f_sequence_raw",
    "scaled_legendre_stack",
    "kernel_sum",
    "kernel_matrix",
    "grad_kernel_sum",
    "grad_scaled_legendre_stack",
]


def legendre_poly(n, t):
    """Evaluate the Legendre polynomial P_n(t) by the three-term recurrence.

    Accepts scalar or array t with |t| <= 1 (clamped within 1e-12 slack).
    """
    if n < 0:
        raise DomainError("polynomial degree must be non-negative")
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1.0 + 1e-12):
        raise DomainError("argument outside [-1, 1]")
    t = np.clip(t, -1.0, 1.0)
    if n == 0:
        out = np.ones_like(t)
        return out[()] if out.ndim == 0 else out
    p_prev = np.ones_like(t)
    p_cur = t.copy()
    for k in range(2, n + 1):
        p_prev, p_cur = p_cur, ((2 * k - 1) * t * p_cur - (k - 1) * p_prev) / k
    return p_cur[()] if p_cur.ndim == 0 else p_cur


def legendre_poly_table(n_max, t):
    """Stack P_0(t)..P_{n_max-1}(t), shape (n_max,) + t.shape."""
    t = np.asarray(t, dtype=float)
    out = np.empty((n_max,) + t.shape)
    out[0] = 1.0
    if n_max > 1:
        out[1] = t
    for k in range(2, n_max):
        out[k] = ((2 * k - 1) * t * out[k - 1] - (k - 1) * out[k - 2]) / k
    return out


def _terms(xy, xx, yy, alpha, p):
    """Yield F_0..F_{p-1} from broadcast inner products.

    Only two terms are kept: the array holding F_n is reused for F_{n+2},
    so a consumer must copy what it needs before asking for the next term.
    """
    xy, xx, yy = (np.asarray(a, dtype=float) for a in (xy, xx, yy))
    if np.any(yy <= 0.0):
        raise SingularityError("second argument must be nonzero")
    shape = np.broadcast_shapes(xy.shape, xx.shape, yy.shape)
    f_prev = np.empty(shape)
    f_prev[...] = yy ** (alpha / 2.0)
    yield f_prev
    if p < 2:
        return
    u = xy / yy
    v = xx / yy
    f_cur = np.multiply(u, -alpha, out=np.empty(shape))
    f_cur *= f_prev
    yield f_cur
    tmp = np.empty(shape)
    for n in range(2, p):
        # F_n = [(2n-2-a)/n] u F_{n-1} + [(a+2-n)/n] v F_{n-2}, written over F_{n-2}
        np.multiply(v, (alpha + 2 - n) / n, out=tmp)
        tmp *= f_prev
        np.multiply(u, (2 * n - 2 - alpha) / n, out=f_prev)
        f_prev *= f_cur
        f_prev += tmp
        f_prev, f_cur = f_cur, f_prev
        yield f_cur


def _inner_products(x, y):
    """x.y, x.x and y.y over the last axis, summed in the order np.sum uses."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)

    def dot(a, b):
        return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]

    return dot(x, y), dot(x, x), dot(y, y)


_BLOCK_PAIRS = 2 ** 14   # about 7 working arrays of this many float64s fit a 2 MB L2 cache


def _row_blocks(x, y):
    """Broadcast batch shape of 3-vector arrays x, y and their row blocks.

    Returns (batch, [(rows, x_block, y_block), ...]), blocked along the first
    batch axis with about _BLOCK_PAIRS pairs per block.  An argument that
    broadcasts along that axis is passed whole; a scalar batch is one block
    indexed by ``...``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    batch = np.broadcast_shapes(x.shape[:-1], y.shape[:-1])
    if not batch:
        return batch, [(..., x, y)]
    step = max(1, _BLOCK_PAIRS // max(1, int(np.prod(batch[1:]))))

    def cut(a, rows):
        return a[rows] if a.ndim > len(batch) and a.shape[0] > 1 else a

    blocks = [slice(i, i + step) for i in range(0, batch[0], step)]
    return batch, [(rows, cut(x, rows), cut(y, rows)) for rows in blocks]


def f_sequence_raw(xy, xx, yy, alpha, p):
    """Sequence F_0..F_{p-1} from the inner products x.y, x.x, y.y.

    Inputs broadcast; the result has shape (p,) + broadcast shape.
    """
    out = np.empty((p,) + np.broadcast_shapes(np.shape(xy), np.shape(xx), np.shape(yy)))
    for n, f in enumerate(_terms(xy, xx, yy, alpha, p)):
        out[n] = f
    return out


def scaled_legendre_stack(x, y, p):
    """L_n stack for broadcast arrays of 3-vectors; shape (p,) + batch."""
    return f_sequence_raw(*_inner_products(x, y), -1.0, p)


def kernel_sum(x, y, coef):
    """sum_n coef[n] L_n(x, y) over broadcast batches of 3-vectors, p = len(coef).

    Terms are added in order n = 0..p-1 as the recurrence produces them,
    so no (p,) + batch stack is built.  The batch is summed in row blocks
    of about 2^14 pairs, so the recurrence's working arrays stay in cache;
    each element's arithmetic is that of one unblocked sum, bit for bit.
    """
    if len(coef) < 1:
        raise DomainError("at least one coefficient required")
    batch, blocks = _row_blocks(x, y)
    out = np.empty(batch)
    for rows, xb, yb in blocks:
        terms = _terms(*_inner_products(xb, yb), -1.0, len(coef))
        total = np.multiply(next(terms), coef[0], out=out[rows])
        tmp = np.empty_like(total)
        for c, f in zip(coef[1:], terms):
            total += np.multiply(f, c, out=tmp)
    return out[()]   # a numpy scalar for a scalar batch


def kernel_matrix(x, y, p):
    """Reproducing kernel K(x, y) = sum_{n<p} (2n+1)/(4 pi) L_n(x, y), broadcast."""
    return kernel_sum(x, y, (2.0 * np.arange(p) + 1.0) / (4.0 * np.pi))


def _grad_terms(xy, xx, yy, p):
    """Yield (F_n, H_n), n < p: F_n = L_n(a, x), H_n = s dF_n/du (u = a.x, s = x.x).

    xy, xx, yy are a.x, a.a and x.x.  Differentiating the recurrence gives
    H_0 = 0, H_n = [(2n-1)/n] (F_{n-1} + (u/s) H_{n-1}) + [(1-n)/n] (a.a/s) H_{n-2}.
    Each array is reused two terms later, as in :func:`_terms`.
    """
    terms = _terms(xy, xx, yy, -1.0, p)
    f_last = next(terms)
    h_prev, h_cur = np.zeros(f_last.shape), np.zeros(f_last.shape)
    yield f_last, h_cur
    t, v = xy / yy, xx / yy
    tmp = np.empty(f_last.shape)
    for n, f in enumerate(terms, start=1):
        np.multiply(v, (1 - n) / n, out=tmp)
        tmp *= h_prev
        np.multiply(t, h_cur, out=h_prev)
        h_prev += f_last
        h_prev *= (2 * n - 1) / n
        h_prev += tmp
        h_prev, h_cur = h_cur, h_prev
        yield f, h_cur
        f_last = f


def grad_kernel_sum(a, x, coef):
    """sum_n coef[n] grad_x L_n(a, x) over broadcast batches; shape batch + (3,).

    Terms are added as the recurrence produces them, so no (p,) + batch
    stack is built.  Like :func:`kernel_sum`, the batch is summed in row
    blocks of about 2^14 pairs, bit-identical to one unblocked sum.
    """
    if len(coef) < 1:
        raise DomainError("at least one coefficient required")
    batch, blocks = _row_blocks(a, x)
    out = np.empty(batch + (3,))
    for rows, ab, xb in blocks:
        xy, xx, yy = _inner_products(ab, xb)
        terms = _grad_terms(xy, xx, yy, len(coef))
        s_f, s_h = (np.multiply(t, coef[0]) for t in next(terms))
        tmp = np.empty_like(s_f)
        for n, c, (f, h) in zip(range(2, len(coef) + 1), coef[1:], terms):
            s_f += np.multiply(f, n * c, out=tmp)   # (n+1) c_n F_n, counting n from 0
            s_h += np.multiply(h, c, out=tmp)
        # L_n(a, x) is homogeneous of degree -(n+1) in x, so dF_n/ds follows from
        # u dF_n/du + 2 s dF_n/ds = -(n+1) F_n and needs no recurrence of its own.
        out[rows] = (s_h[..., None] * ab - (s_f + xy / yy * s_h)[..., None] * xb) / yy[..., None]
    return out


def grad_scaled_legendre_stack(a, x, p):
    """Gradients d/dx of L_n(a, x), shape (p,) + batch + (3,), one degree per
    :func:`grad_kernel_sum` call; tests compare the fused sum against it."""
    return np.stack([grad_kernel_sum(a, x, np.eye(n + 1)[n]) for n in range(p)])
