"""Small convolution/pooling primitives shared by the toy denoiser and the
random feature extractor. All convolutions are 3x3 cross-correlations with
zero padding, done as im2col: the nine shifted copies of each input channel
are stacked into one contiguous array and contracted with the kernel bank
in a single matmul."""

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


def _im2col(x: np.ndarray) -> np.ndarray:
    """(K, h, w) -> (9 K, h w); row 9k + 3a + b is channel k of x, zero
    padded by one, read at offset (a - 1, b - 1)."""
    k, h, w = x.shape
    xp = np.zeros((k, h + 2, w + 2))
    xp[:, 1:-1, 1:-1] = x
    cols = np.empty((k, 3, 3, h, w))
    for a in range(3):
        for b in range(3):
            cols[:, a, b] = xp[:, a : a + h, b : b + w]
    return cols.reshape(9 * k, h * w)


def correlate3x3_multi(x: np.ndarray, bank: np.ndarray) -> np.ndarray:
    """Cross-correlate (K, h, w) input with a (C, K, 3, 3) bank -> (C, h, w)."""
    c = bank.shape[0]
    return (bank.reshape(c, -1) @ _im2col(x)).reshape(c, *x.shape[1:])


def correlate3x3(x: np.ndarray, bank: np.ndarray) -> np.ndarray:
    """Cross-correlate (h, w) input with a (C, 3, 3) bank -> (C, h, w)."""
    return correlate3x3_multi(x[None], bank[:, None])


def correlate3x3_adjoint(dz: np.ndarray, bank: np.ndarray) -> np.ndarray:
    """Adjoint of correlate3x3 w.r.t. the input: (C, h, w) -> (h, w).

    Correlation's adjoint under zero padding is convolution, i.e.
    correlation with the spatially flipped kernels, summed over the C
    channels: one output channel of a C-channel correlation.
    """
    return correlate3x3_multi(dz, bank[None, :, ::-1, ::-1])[0]


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


def softplus(z: np.ndarray) -> np.ndarray:
    """log(1 + e^z), in a form that neither overflows nor loses small values."""
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-z) from e = e^-|z|, which never overflows."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)
