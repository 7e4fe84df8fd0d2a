"""Denoiser contract and two reference implementations.

The contract every sampler-facing model satisfies: one forward,
predict(x, t, cond), that predicts noise, exposes attention maps and
returns a tape of what its backward pass needs, plus a vector-Jacobian
product, attention_vjp(tape, t, cond, cotangents), that pulls
attention-space gradients back to the latent from that tape without
rerunning the forward.
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

from .energy import AttentionLayer
from .grids import Grid
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
        self, x: Grid, t: int, cond: Condition
    ) -> tuple[Grid, list[AttentionLayer], Any]: ...

    def attention_vjp(
        self, tape: Any, t: int, cond: Condition, cotangents: list[Grid]
    ) -> Grid: ...


def _softmax(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max())
    return e / e.sum()


@lru_cache(maxsize=8)
def _uniform_layer(layer_id: str, h: int, w: int) -> AttentionLayer:
    return AttentionLayer(layer_id, Grid.full(h, w, 1.0 / (h * w)))


@dataclass(frozen=True)
class _ToyTape:
    """The forward's intermediates that the VJP reuses; z is None for a zero query."""

    z: np.ndarray | None
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

    def _check_x(self, x: Grid) -> np.ndarray:
        if x.shape != (self.h, self.w):
            raise ModelError(f"latent shape {x.shape} != model dims {(self.h, self.w)}")
        return x.a

    def _attention_maps(self, f: np.ndarray, q: np.ndarray):
        scale = 1.0 / math.sqrt(self.channels)
        logits_full = np.einsum("c,cij->ij", q, f) * scale
        logits_half = np.einsum("c,cij->ij", q, avg_pool2(f)) * scale
        return _softmax(logits_full), _softmax(logits_half)

    def predict(self, x: Grid, t: int, cond: Condition):
        xa = self._check_x(x)
        q = self._query(cond)
        if q.any():
            z = correlate3x3(xa, self.kernel)
            a_full, a_half = self._attention_maps(softplus(z), q)
            layers = [
                AttentionLayer(LAYER_FULL, Grid(a_full, _checked=True)),
                AttentionLayer(LAYER_HALF, Grid(a_half, _checked=True)),
            ]
        else:
            z = None
            layers = [
                _uniform_layer(LAYER_FULL, self.h, self.w),
                _uniform_layer(LAYER_HALF, self.h // 2, self.w // 2),
            ]
            a_full, a_half = layers[0].map.a, layers[1].map.a
        eps = self.u * xa + self.v * (self.h * self.w) * a_full * xa
        return Grid(eps, _checked=True), layers, _ToyTape(z, a_full, a_half)

    def attention_vjp(
        self, tape: _ToyTape, t: int, cond: Condition, cotangents: list[Grid]
    ) -> Grid:
        """Pull cotangents on (full, half) attention maps back to the latent.

        Backpropagates softmax -> query dot-product -> (pooling) ->
        softplus -> convolution by hand, from the tape that
        predict(x, t, cond) returned.
        """
        if len(cotangents) != 2:
            raise ModelError(f"expected 2 cotangents (full, half), got {len(cotangents)}")
        g_full, g_half = cotangents[0].a, cotangents[1].a
        a_full, a_half, q = tape.a_full, tape.a_half, self._query(cond)
        if g_full.shape != a_full.shape:
            raise ModelError(f"full cotangent shape {g_full.shape} != {a_full.shape}")
        if g_half.shape != a_half.shape:
            raise ModelError(f"half cotangent shape {g_half.shape} != {a_half.shape}")
        if tape.z is None:
            return Grid.zeros(*a_full.shape)
        scale = 1.0 / math.sqrt(self.channels)

        dl_full = a_full * (g_full - (a_full * g_full).sum())
        df = q[:, None, None] * (scale * dl_full)
        dl_half = a_half * (g_half - (a_half * g_half).sum())
        dfp = q[:, None, None] * (scale * dl_half)
        df = df + avg_pool2_adjoint(dfp)

        dz = sigmoid(tape.z) * df
        return Grid(correlate3x3_adjoint(dz, self.kernel), _checked=True)


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
    placeholder, the tape is the latent shape and the VJP is zero.
    """

    mu0: float
    sigma0: float
    schedule: NoiseSchedule

    def __post_init__(self):
        if self.sigma0 <= 0:
            raise ModelError("sigma0 must be > 0")

    def predict(self, x: Grid, t: int, cond: Condition):
        ab = self.schedule.alpha_bar_at(t)
        denom = ab * self.sigma0**2 + 1.0 - ab
        eps = (x.a - math.sqrt(ab) * self.mu0) * (math.sqrt(1.0 - ab) / denom)
        return Grid(eps, _checked=True), [_uniform_layer(LAYER_FULL, *x.shape)], x.shape

    def attention_vjp(
        self, tape: tuple[int, int], t: int, cond: Condition, cotangents: list[Grid]
    ) -> Grid:
        return Grid.zeros(*tape)
