"""Small convolution/pooling primitives shared by the toy denoiser and the
random feature extractor. All convolutions are 3x3 cross-correlations with
zero padding, done as im2col: the nine shifted copies of each input channel
are stacked into one contiguous array and contracted with the kernel bank
in a single matmul. The single-channel convolution and its adjoint take a
stack of items on leading axes, (..., h, w). The convolution makes one
matmul, whose columns run item by item; each item's block of columns is
bit-equal to the product on that item alone. The adjoint's im2col is C
times larger, so it makes one matmul per chunk of items, each chunk's
im2col within a fixed byte budget; every chunking gives each item the
bits of a product on it alone."""

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

# The most bytes one adjoint product's im2col may hold: with 4 channels,
# 8 items at 24x18, 2 at 48x36 and 1 at 128x96.
_ADJOINT_IM2COL_BYTES = 1 << 20


def _im2col(x: np.ndarray) -> np.ndarray:
    """(K, ..., h, w) -> (9 K, n h w), n items on the middle axes; row
    9k + 3a + b is channel k of x, zero padded by one, read at offset
    (a - 1, b - 1), and its columns run item-major."""
    k, *lead, h, w = x.shape
    xp = np.zeros((k, *lead, h + 2, w + 2))
    xp[..., 1:-1, 1:-1] = x
    cols = np.empty((k, 3, 3, *lead, h, w))
    for a in range(3):
        for b in range(3):
            cols[:, a, b] = xp[..., a : a + h, b : b + w]
    return cols.reshape(9 * k, -1)


def correlate3x3_multi(x: np.ndarray, bank: np.ndarray) -> np.ndarray:
    """Cross-correlate (K, ..., h, w) input with a (C, K, 3, 3) bank -> (C, ..., h, w)."""
    c = bank.shape[0]
    return (bank.reshape(c, -1) @ _im2col(x)).reshape(c, *x.shape[1:])


def correlate3x3(x: np.ndarray, bank: np.ndarray) -> np.ndarray:
    """Cross-correlate (..., h, w) input with a (C, 3, 3) bank -> (C, ..., h, w)."""
    return correlate3x3_multi(x[None], bank[:, None])


def _adjoint_chunk(c: int, h: int, w: int) -> int:
    """Items per adjoint product: as many as keep its (9 C, n h w) im2col
    within _ADJOINT_IM2COL_BYTES, and at least one."""
    return max(1, _ADJOINT_IM2COL_BYTES // (9 * c * h * w * 8))


def correlate3x3_adjoint(dz: np.ndarray, bank: np.ndarray) -> np.ndarray:
    """Adjoint of correlate3x3 w.r.t. the input: (C, ..., h, w) -> (..., h, w).

    Correlation's adjoint under zero padding is convolution, i.e.
    correlation with the spatially flipped kernels, summed over the C
    channels: one output channel of a C-channel correlation. Its im2col
    holds 9 C rows per item, so a stack is contracted in chunks of
    _adjoint_chunk items, one product each.
    """
    flipped = bank[None, :, ::-1, ::-1]
    c, *lead, h, w = dz.shape
    items = dz.reshape(c, -1, h, w)
    n, step = items.shape[1], _adjoint_chunk(c, h, w)
    out = np.empty((n, h, w))
    for i in range(0, n, step):
        out[i : i + step] = correlate3x3_multi(items[:, i : i + step], flipped)[0]
    return out.reshape(*lead, h, w)


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


def _exp_neg_abs(z: np.ndarray) -> np.ndarray:
    """e^-|z|, which never overflows, in one new buffer; z is not written."""
    out = np.abs(z)
    np.negative(out, out=out)
    return np.exp(out, out=out)


def softplus(z: np.ndarray) -> np.ndarray:
    """log(1 + e^z) as log1p(e^-|z|) + max(z, 0), a form that neither
    overflows nor loses small values, built in one output buffer."""
    out = _exp_neg_abs(z)
    np.log1p(out, out=out)
    out += np.maximum(z, 0.0)
    return out


def sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-z) from e = e^-|z|: 1 / (1 + e) where z >= 0 and
    e / (1 + e) elsewhere, built in one output buffer."""
    out = _exp_neg_abs(z)
    den = out + 1.0
    np.copyto(out, 1.0, where=z >= 0)
    out /= den
    return out
