"""Denoiser contract and two reference implementations.

The contract every sampler-facing model satisfies: predict noise and
expose attention maps, plus a vector-Jacobian product that pulls
attention-space gradients back to the latent. ToyAttentionDenoiser is a
small conv/softmax network with a hand-derived VJP; LinearGaussianModel
is a closed-form optimal predictor used to validate the sampler
statistically.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Protocol

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
    "fd_vjp_check",
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
    ) -> tuple[Grid, list[AttentionLayer]]: ...

    def attention_vjp(
        self, x: Grid, t: int, cond: Condition, grad_layers: list[Grid]
    ) -> Grid: ...


def _softmax(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max())
    return e / e.sum()


@lru_cache(maxsize=8)
def _uniform_layers(h: int, w: int) -> list[AttentionLayer]:
    return [AttentionLayer(LAYER_FULL, Grid.full(h, w, 1.0 / (h * w)))]


@dataclass(frozen=True)
class ToyAttentionDenoiser:
    """Conv -> softplus -> query dot-product -> softmax attention denoiser.

    Exposes two attention layers: "full" at (h, w) and "half" built on
    2x2 average-pooled features at (h/2, w/2). The predicted noise couples
    to the full attention map through the v term, so attention corrections
    compete with the denoising signal. A zero null query makes the
    unconditional attention exactly uniform.
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

    def _features(self, xa: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        z = correlate3x3(xa, self.kernel)
        return z, softplus(z)

    def _attention_maps(self, f: np.ndarray, q: np.ndarray):
        scale = 1.0 / math.sqrt(self.channels)
        logits_full = np.einsum("c,cij->ij", q, f) * scale
        fp = avg_pool2(f)
        logits_half = np.einsum("c,cij->ij", q, fp) * scale
        return _softmax(logits_full), _softmax(logits_half), fp

    def predict(self, x: Grid, t: int, cond: Condition):
        xa = self._check_x(x)
        _, f = self._features(xa)
        a_full, a_half, _ = self._attention_maps(f, self._query(cond))
        eps = self.u * xa + self.v * (self.h * self.w) * a_full * xa
        layers = [
            AttentionLayer(LAYER_FULL, Grid(a_full, _checked=True)),
            AttentionLayer(LAYER_HALF, Grid(a_half, _checked=True)),
        ]
        return Grid(eps, _checked=True), layers

    def attention_vjp(self, x: Grid, t: int, cond: Condition, grad_layers: list[Grid]):
        """Pull cotangents on (full, half) attention maps back to the latent.

        Backpropagates softmax -> query dot-product -> (pooling) ->
        softplus -> convolution by hand.
        """
        if len(grad_layers) != 2:
            raise ModelError(f"expected 2 cotangents (full, half), got {len(grad_layers)}")
        xa = self._check_x(x)
        q = self._query(cond)
        z, f = self._features(xa)
        a_full, a_half, _ = self._attention_maps(f, q)
        scale = 1.0 / math.sqrt(self.channels)

        g_full = grad_layers[0].a
        if g_full.shape != a_full.shape:
            raise ModelError(f"full cotangent shape {g_full.shape} != {a_full.shape}")
        dl_full = a_full * (g_full - (a_full * g_full).sum())
        df = q[:, None, None] * (scale * dl_full)

        g_half = grad_layers[1].a
        if g_half.shape != a_half.shape:
            raise ModelError(f"half cotangent shape {g_half.shape} != {a_half.shape}")
        dl_half = a_half * (g_half - (a_half * g_half).sum())
        dfp = q[:, None, None] * (scale * dl_half)
        df = df + avg_pool2_adjoint(dfp)

        dz = sigmoid(z) * df
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
    placeholder and the attention VJP is zero.
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
        return Grid(eps, _checked=True), _uniform_layers(*x.shape)

    def attention_vjp(self, x: Grid, t: int, cond: Condition, grad_layers: list[Grid]):
        return Grid.zeros(*x.shape)


def fd_vjp_check(
    model,
    x: Grid,
    t: int,
    cond: Condition,
    grad_layers: list[Grid],
    h: float,
    n_directions: int = 32,
    rng: RandomStream | None = None,
) -> float:
    """Max relative error of the analytic VJP against central differences.

    Probes n_directions random unit directions d, comparing <grad_x, d>
    with [s(x + h d) - s(x - h d)] / 2h for s(x) = sum_layers <A_layer(x),
    cotangent_layer>. Directions where both sides are below 1e-12 count as
    zero error; all-zero cotangents return 0 by definition.
    """
    if h <= 0:
        raise ModelError("step h must be > 0")
    if all(not g.a.any() for g in grad_layers):
        return 0.0
    if rng is None:
        rng = RandomStream(0x5EED).child("fd-vjp")
    grad_x = model.attention_vjp(x, t, cond, grad_layers).a

    def score(xa: np.ndarray) -> float:
        _, layers = model.predict(Grid(xa, _checked=True), t, cond)
        return sum(float((layer.map.a * g.a).sum()) for layer, g in zip(layers, grad_layers))

    worst = 0.0
    n = x.height * x.width
    for _ in range(n_directions):
        d = rng.normals(n).reshape(x.shape)
        d /= np.sqrt((d * d).sum())
        analytic = float((grad_x * d).sum())
        fd = (score(x.a + h * d) - score(x.a - h * d)) / (2.0 * h)
        denom = max(abs(analytic), abs(fd))
        if denom > 1e-12:
            worst = max(worst, abs(analytic - fd) / denom)
    return worst
