"""Small convolution/pooling primitives shared by the toy denoiser and the
random feature extractor. All convolutions are 3x3 cross-correlations with
zero padding, done as im2col: one copy of a strided window view of the
zero-padded input lays out the nine shifted reads of each input channel
as one contiguous array, contracted with the kernel bank in a single
matmul. The single-channel convolution and its adjoint take a
stack of items on leading axes, (..., h, w), and make one matmul per chunk
of items, each chunk's im2col within one fixed byte budget. A product's
columns run item by item. For the denoiser's products, a (4, 9) bank
forward and a (1, 36) adjoint, tests pin each item's block of columns
bit-equal to the product on that item alone, at canvases whose columns
per item are a multiple of 8 or not, so every chunking gives each item
the same bits there. That is BLAS behaviour, not a rule: VTID's (8, 27)
bank on a (3, 4, 12, 9) stack gives every item other bits than alone, by
up to 4.4e-16, so VTID extracts each image alone."""

from __future__ import annotations

import numpy as np

__all__ = [
    "correlate3x3",
    "correlate3x3_adjoint",
    "correlate3x3_multi",
    "avg_pool2",
    "avg_pool2_adjoint",
    "softplus",
    "sigmoid",
]

# The most bytes one im2col product may hold. With 4 channels the forward
# takes 33 items per product at 24x18, 8 at 48x36 and 1 at 128x96, and the
# adjoint, whose im2col is 4 times larger, 8, 2 and 1. It is also the
# largest block a lockstep step frees, which sets glibc's heap trim
# threshold, so experiments._sweep_chunk holds a step's working set to it.
_IM2COL_BYTES = 1 << 20


def _im2col(x: np.ndarray) -> np.ndarray:
    """(K, ..., h, w) -> (9 K, n h w), n items on the middle axes; row
    9k + 3a + b is channel k of x, zero padded by one, read at offset
    (a - 1, b - 1), and its columns run item-major. It is one C-order
    copy of a (K, 3, 3, ..., h, w) window view of the padded input, which
    is only read and not kept. The copy is explicit: the windows overlap,
    but at a 1x1 canvas a reshape could return the view itself."""
    k, *lead, h, w = x.shape
    xp = np.zeros((k, *lead, h + 2, w + 2))
    xp[..., 1:-1, 1:-1] = x
    s = xp.strides
    view = np.ndarray((k, 3, 3, *lead, h, w), np.float64, xp, 0, (s[0], s[-2], s[-1], *s[1:]))
    return view.copy().reshape(9 * k, -1)


def correlate3x3_multi(x: np.ndarray, bank: np.ndarray) -> np.ndarray:
    """Cross-correlate (K, ..., h, w) input with a (C, K, 3, 3) bank -> (C, ..., h, w)."""
    c = bank.shape[0]
    return (bank.reshape(c, -1) @ _im2col(x)).reshape(c, *x.shape[1:])


def _chunk(k: int, h: int, w: int) -> int:
    """Items per product of a K-channel input: as many as keep its
    (9 K, n h w) im2col within _IM2COL_BYTES, and at least one."""
    return max(1, _IM2COL_BYTES // (9 * k * h * w * 8))


def _chunked(x: np.ndarray, bank: np.ndarray) -> np.ndarray:
    """correlate3x3_multi of (K, n, h, w) input, n items, one product per
    chunk of _chunk items."""
    k, n, h, w = x.shape
    step = _chunk(k, h, w)
    if n <= step:
        return correlate3x3_multi(x, bank)
    out = np.empty((len(bank), n, h, w))
    for i in range(0, n, step):
        out[:, i : i + step] = correlate3x3_multi(x[:, i : i + step], bank)
    return out


def correlate3x3(x: np.ndarray, bank: np.ndarray) -> np.ndarray:
    """Cross-correlate (..., h, w) input with a (C, 3, 3) bank -> (C, ..., h, w)."""
    *lead, h, w = x.shape
    return _chunked(x.reshape(1, -1, h, w), bank[:, None]).reshape(len(bank), *lead, h, w)


def correlate3x3_adjoint(dz: np.ndarray, bank: np.ndarray) -> np.ndarray:
    """Adjoint of correlate3x3 w.r.t. the input: (C, ..., h, w) -> (..., h, w).

    Correlation's adjoint under zero padding is convolution, i.e.
    correlation with the spatially flipped kernels, summed over the C
    channels: one output channel of a C-channel correlation, whose
    im2col holds 9 C rows per item.
    """
    c, *lead, h, w = dz.shape
    flipped = bank[None, :, ::-1, ::-1]
    return _chunked(dz.reshape(c, -1, h, w), flipped)[0].reshape(*lead, h, w)


def avg_pool2(f: np.ndarray) -> np.ndarray:
    """2x2 average pooling over the last two (even) axes.

    Each cell is (top-left + top-right) + (bottom-left + bottom-right),
    times 0.25, in that order, so it does not depend on how numpy orders
    a reduction. For inputs at least 4 wide it is bit-equal to numpy's
    mean over a (h/2, 2, w/2, 2) reshape, except that a block of four
    -0.0 gives -0.0 here and +0.0 there. At width 2 numpy sums that mean
    left to right instead, and the two can differ in the last bits.
    """
    top = f[..., 0::2, 0::2] + f[..., 0::2, 1::2]
    bottom = f[..., 1::2, 0::2] + f[..., 1::2, 1::2]
    return (top + bottom) * 0.25


def avg_pool2_adjoint(g: np.ndarray) -> np.ndarray:
    """Adjoint of avg_pool2: spread each cell over its 2x2 block / 4."""
    return np.repeat(np.repeat(g, 2, axis=-2), 2, axis=-1) * 0.25


_SIGN_BIT = np.int64(-(1 << 63))


def _neg_abs(z: np.ndarray) -> np.ndarray:
    """-|z|, z with its sign bit set, in one new buffer; z is not written."""
    return np.bitwise_or(z.view(np.int64), _SIGN_BIT).view(np.float64)


def _exp_neg_abs(z: np.ndarray) -> np.ndarray:
    """e^-|z|, which never overflows, in one new buffer; z is not written."""
    out = _neg_abs(z)
    return np.exp(out, out=out)


def softplus(z: np.ndarray) -> np.ndarray:
    """log(1 + e^z) as log1p(e^-|z|) + max(z, 0), a form that neither
    overflows nor loses small values; z is not written."""
    e = _exp_neg_abs(z)
    positive = np.maximum(z, 0.0)
    out = np.log1p(e, out=e)
    out += positive
    return out


def sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-z) from e = e^-|z|: a numerator of 1 where z >= 0 and
    e elsewhere, over 1 + e; z is not written.

    The numerator is max(e, z >= 0): e is in [0, 1], so that is 1 where
    z >= 0 (-0.0 too), e elsewhere and NaN at NaN, as a select gives. A
    select on a fresh z's signs mispredicts: 5 ns a value against 1."""
    e = _exp_neg_abs(z)
    out = np.maximum(e, z >= 0)
    e += 1.0
    out /= e
    return out
