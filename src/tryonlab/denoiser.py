"""Denoiser contract and two reference implementations.

The contract every sampler-facing model satisfies: one forward,
predict(x, t, cond), that takes a stack of latents as an (..., h, w)
float64 ndarray, one (h, w) latent per item on the leading axes, and
returns their predicted noise as an ndarray of the same shape, the
attention maps as a dict from layer id to an (..., h_l, w_l) ndarray
stack, and a tape of what its backward pass needs; plus a
vector-Jacobian product, attention_vjp(tape, t, cond, cotangents), that
pulls one (..., h_l, w_l) cotangent stack per attention layer, in map
order, back to an (..., h, w) gradient on the latents from that tape
without rerunning the forward. Items never mix: each item of a stack
gets, bit for bit, what a call on that item alone returns.
ToyAttentionDenoiser is a small conv/softmax network with a hand-derived
VJP; LinearGaussianModel is a closed-form optimal predictor used to
validate the sampler statistically.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Protocol

import numpy as np

from .kernels import (
    avg_pool2,
    avg_pool2_adjoint,
    correlate3x3,
    correlate3x3_adjoint,
    sigmoid,
    softplus,
)
from .rng import RandomStream
from .schedule import NoiseSchedule

__all__ = [
    "Condition",
    "DenoiserModel",
    "ToyAttentionDenoiser",
    "LinearGaussianModel",
    "ModelError",
    "toy_init",
]

LAYER_FULL = "full"
LAYER_HALF = "half"


class ModelError(ValueError):
    """Invalid model construction or evaluation."""


class Condition(enum.Enum):
    """Prompt token selecting the conditional or unconditional branch."""

    GARMENT = "garment"
    NULL = "null"


class DenoiserModel(Protocol):
    def predict(
        self, x: np.ndarray, t: int, cond: Condition
    ) -> tuple[np.ndarray, dict[str, np.ndarray], Any]: ...

    def attention_vjp(
        self, tape: Any, t: int, cond: Condition, cotangents: list[np.ndarray]
    ) -> np.ndarray: ...


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last two axes of each item.

    numpy sums the last two axes of a C-contiguous stack as one flat run
    per item, the order it sums a lone (h, w) array in, so every item's
    sum here and in the VJP is bit-equal to that of the item alone.
    """
    e = np.exp(logits - logits.max(axis=(-2, -1), keepdims=True))
    return e / e.sum(axis=(-2, -1), keepdims=True)


@lru_cache(maxsize=32)
def _uniform_map(shape: tuple[int, ...]) -> np.ndarray:
    """Uniform attention over the last two axes, read-only."""
    a = np.full(shape, 1.0 / (shape[-2] * shape[-1]))
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class _ToyTape:
    """The forward's intermediates that the VJP reuses: the maps and e^-|z|
    signed as the conv output z, which softplus left (None for a zero
    query)."""

    e_signed: np.ndarray | None
    a_full: np.ndarray
    a_half: np.ndarray


@dataclass(frozen=True)
class ToyAttentionDenoiser:
    """Conv -> softplus -> query dot-product -> softmax attention denoiser.

    Exposes two attention layers: "full" at (h, w) and "half" built on
    2x2 average-pooled features at (h/2, w/2). The predicted noise couples
    to the full attention map through the v term, so attention corrections
    compete with the denoising signal. A zero query makes every logit
    exactly 0 for a finite latent, so its attention is exactly uniform and
    the forward skips the conv stem.
    """

    kernel: np.ndarray  # (channels, 3, 3)
    q_garment: np.ndarray  # (channels,)
    q_null: np.ndarray  # (channels,)
    u: float
    v: float
    h: int
    w: int
    channels: int

    def _query(self, cond: Condition) -> np.ndarray:
        return self.q_garment if cond is Condition.GARMENT else self.q_null

    def _attention_maps(self, f: np.ndarray, q: np.ndarray, shape: tuple[int, ...]):
        # pooling is linear, so pooling the logits pools the feature maps
        scale = 1.0 / math.sqrt(self.channels)
        logits = (q @ f.reshape(self.channels, -1)).reshape(shape) * scale
        return _softmax(logits), _softmax(avg_pool2(logits))

    def predict(self, x: np.ndarray, t: int, cond: Condition):
        if x.shape[-2:] != (self.h, self.w):
            raise ModelError(f"latent shape {x.shape} != model dims {(self.h, self.w)}")
        q = self._query(cond)
        if q.any():
            e_signed = correlate3x3(x, self.kernel)  # z, until softplus signs e^-|z| into it
            a_full, a_half = self._attention_maps(softplus(e_signed, e_signed), q, x.shape)
        else:
            e_signed = None
            a_full = _uniform_map(x.shape)
            a_half = _uniform_map((*x.shape[:-2], self.h // 2, self.w // 2))
        eps = self.u * x + self.v * (self.h * self.w) * a_full * x
        maps = {LAYER_FULL: a_full, LAYER_HALF: a_half}
        return eps, maps, _ToyTape(e_signed, a_full, a_half)

    def attention_vjp(
        self, tape: _ToyTape, t: int, cond: Condition, cotangents: list[np.ndarray]
    ) -> np.ndarray:
        """Pull cotangents on (full, half) attention maps back to the latent.

        Backpropagates softmax -> (pooling) -> query dot-product ->
        softplus -> convolution by hand, from the tape that
        predict(x, t, cond) returned.
        """
        if len(cotangents) != 2:
            raise ModelError(f"expected 2 cotangents (full, half), got {len(cotangents)}")
        g_full, g_half = cotangents
        a_full, a_half, q = tape.a_full, tape.a_half, self._query(cond)
        if g_full.shape != a_full.shape:
            raise ModelError(f"full cotangent shape {g_full.shape} != {a_full.shape}")
        if g_half.shape != a_half.shape:
            raise ModelError(f"half cotangent shape {g_half.shape} != {a_half.shape}")
        if tape.e_signed is None:
            return np.zeros(a_full.shape)
        scale = 1.0 / math.sqrt(self.channels)

        dl_full = a_full * (g_full - (a_full * g_full).sum(axis=(-2, -1), keepdims=True))
        dl_half = a_half * (g_half - (a_half * g_half).sum(axis=(-2, -1), keepdims=True))
        q = q.reshape(-1, *(1,) * a_full.ndim)
        dz = sigmoid(tape.e_signed)
        dz *= q * (scale * (dl_full + avg_pool2_adjoint(dl_half)))  # times df
        return correlate3x3_adjoint(dz, self.kernel)


def toy_init(seed: int, h: int, w: int, channels: int) -> ToyAttentionDenoiser:
    """Seeded toy denoiser; kernel then garment query are drawn in order.

    h and w must be even (the half layer pools 2x2); the kernel is scaled
    so conv outputs stay O(1) for unit-variance latents.
    """
    if h % 2 or w % 2:
        raise ModelError(f"dims must be even for the half layer, got {h}x{w}")
    if channels < 1:
        raise ModelError("channels must be >= 1")
    rng = RandomStream(seed).child("toy-init")
    kernel = rng.normals(channels * 9).reshape(channels, 3, 3) / 3.0
    q_garment = rng.normals(channels)
    return ToyAttentionDenoiser(
        kernel=kernel,
        q_garment=q_garment,
        q_null=np.zeros(channels),
        u=1.0,
        v=0.1,
        h=h,
        w=w,
        channels=channels,
    )


@dataclass(frozen=True)
class LinearGaussianModel:
    """Exact noise predictor for i.i.d. N(mu0, sigma0^2) pixel data.

    eps(x, t) = (x - sqrt(abar_t) mu0) sqrt(1 - abar_t) / (abar_t sigma0^2
    + 1 - abar_t), which is E[eps | x_t]. Attention is a uniform
    placeholder, the tape is the latents' shape and the VJP is zero.
    """

    mu0: float
    sigma0: float
    schedule: NoiseSchedule

    def __post_init__(self):
        if self.sigma0 <= 0:
            raise ModelError("sigma0 must be > 0")

    def predict(self, x: np.ndarray, t: int, cond: Condition):
        ab = self.schedule.alpha_bar_at(t)
        denom = ab * self.sigma0**2 + 1.0 - ab
        eps = (x - math.sqrt(ab) * self.mu0) * (math.sqrt(1.0 - ab) / denom)
        return eps, {LAYER_FULL: _uniform_map(x.shape)}, x.shape

    def attention_vjp(
        self, tape: tuple[int, ...], t: int, cond: Condition, cotangents: list[np.ndarray]
    ) -> np.ndarray:
        return np.zeros(tape)
