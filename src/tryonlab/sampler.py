"""Reverse-diffusion sampling with optional attention-energy correction.

One step: predict noise under the garment and null tokens, mix them with
classifier-free guidance, convert to a score, take the ancestral update
m_t = (1 + beta/2) x_t + beta * score + sqrt(beta) * noise, then (when the
correction is enabled) pull the region-energy gradient back through the
attention maps to the latent and subtract rho times it. Every step is
recorded so attention containment can be plotted over time.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .denoiser import LAYER_FULL, LAYER_HALF, Condition
from .energy import EnergyConfig, _evaluate_layers, e_total
from .grids import BinaryMask, Grid, resample_mask
from .rng import RandomStream, gaussian_field
from .schedule import NoiseSchedule

__all__ = [
    "SamplerConfig",
    "SamplerError",
    "StepEntry",
    "FinalState",
    "TrajectoryRecord",
    "CSV_HEADER",
    "cfg_mix",
    "eps_to_score",
    "ancestral_step",
    "csc_correct",
    "sample",
]

CSV_HEADER = (
    "step",
    "t",
    "e_total",
    "e_attract",
    "e_repel",
    "branch",
    "in_mask_fraction_full",
    "in_mask_fraction_half",
    "grad_norm",
)


class SamplerError(ValueError):
    """Invalid sampler configuration or step."""


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs of one sampling run.

    rho scales the correction, guidance_scale mixes the two noise
    predictions, steps is the number of executed reverse steps (stride-
    subsampled from the schedule when smaller than T). csc_step_range
    optionally restricts the correction to executed-step indices
    [start, stop); None applies it at every step.
    """

    rho: float = 0.2
    guidance_scale: float = 2.0
    steps: int = 20
    csc_enabled: bool = True
    energy_cfg: EnergyConfig = field(default_factory=EnergyConfig)
    csc_step_range: tuple[int, int] | None = None

    def __post_init__(self):
        if self.rho < 0:
            raise SamplerError("rho must be >= 0")
        if self.steps < 1:
            raise SamplerError("steps must be >= 1")
        if self.csc_step_range is not None:
            start, stop = self.csc_step_range
            if not 0 <= start < stop <= self.steps:
                raise SamplerError(
                    f"csc_step_range {self.csc_step_range} not within [0, {self.steps})"
                )
            object.__setattr__(self, "csc_step_range", (int(start), int(stop)))

    def _csc_active(self, k: int) -> bool:
        if not self.csc_enabled:
            return False
        if self.csc_step_range is None:
            return True
        start, stop = self.csc_step_range
        return start <= k < stop


@dataclass(frozen=True)
class StepEntry:
    """Observables of one executed step, measured at the pre-update latent.

    grad_norm is the L2 norm of the latent-space energy gradient; it is
    recorded as 0 when the correction is disabled (the gradient is not
    computed then).
    """

    step: int
    t: int
    e_total: float
    e_attract: float
    e_repel: float
    branch: str
    in_mask_fraction: dict[str, float]
    grad_norm: float


@dataclass(frozen=True)
class FinalState:
    """Energy breakdown evaluated once more at the returned latent."""

    e_total: float
    e_attract: float
    e_repel: float
    branch: str
    in_mask_fraction: dict[str, float]


@dataclass(frozen=True)
class TrajectoryRecord:
    """One entry per executed step plus the final-latent evaluation."""

    entries: list[StepEntry]
    final: FinalState

    def __len__(self) -> int:
        return len(self.entries)

    def csv_rows(self) -> list[list[str]]:
        return [_entry_row(e) for e in self.entries]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow(CSV_HEADER)
            writer.writerows(self.csv_rows())


def _fraction_cell(fractions: dict[str, float], layer_id: str) -> str:
    return repr(fractions[layer_id]) if layer_id in fractions else ""


def _entry_row(e: StepEntry) -> list[str]:
    return [
        str(e.step),
        str(e.t),
        repr(e.e_total),
        repr(e.e_attract),
        repr(e.e_repel),
        e.branch,
        _fraction_cell(e.in_mask_fraction, LAYER_FULL),
        _fraction_cell(e.in_mask_fraction, LAYER_HALF),
        repr(e.grad_norm),
    ]


def cfg_mix(eps_uncond: Grid, eps_cond: Grid, s: float) -> Grid:
    """Classifier-free guidance: eps_u + s * (eps_c - eps_u).

    s = 1 returns the conditional prediction bit-exactly.
    """
    if eps_uncond.shape != eps_cond.shape:
        raise SamplerError(
            f"prediction shapes differ: {eps_uncond.shape} vs {eps_cond.shape}"
        )
    if s == 1.0:
        return eps_cond
    return Grid(eps_uncond.a + s * (eps_cond.a - eps_uncond.a), _checked=True)


def eps_to_score(eps: Grid, t: int, schedule: NoiseSchedule) -> Grid:
    """Score of the marginal at step t from predicted noise: -eps / sqrt(1 - abar_t)."""
    ab = schedule.alpha_bar_at(t)
    return Grid(eps.a * (-1.0 / math.sqrt(1.0 - ab)), _checked=True)


def ancestral_step(
    x_t: Grid, t: int, score: Grid, schedule: NoiseSchedule, rng: RandomStream
) -> Grid:
    """One reverse update: (1 + beta/2) x_t + beta * score + sqrt(beta) * eps.

    At t = 1 the noise term is omitted, so the final step is deterministic
    and consumes no random words.
    """
    if score.shape != x_t.shape:
        raise SamplerError(f"score shape {score.shape} != latent shape {x_t.shape}")
    beta = schedule.beta_at(t)
    out = (1.0 + 0.5 * beta) * x_t.a + beta * score.a
    if t > 1:
        out = out + math.sqrt(beta) * gaussian_field(rng, *x_t.shape).a
    return Grid(out, _checked=True)


def csc_correct(m_t: Grid, grad_x: Grid, rho: float) -> Grid:
    """Subtract rho times the latent energy gradient from the predicted step."""
    if rho < 0:
        raise SamplerError("rho must be >= 0")
    if m_t.shape != grad_x.shape:
        raise SamplerError(f"gradient shape {grad_x.shape} != latent shape {m_t.shape}")
    if not np.isfinite(grad_x.a).all():
        raise SamplerError("non-finite energy gradient")
    if rho == 0.0:
        return m_t
    return Grid(m_t.a - rho * grad_x.a, _checked=True)


def _stride_ts(T: int, steps: int) -> list[int]:
    """Executed t values, largest first; full range T..1 when steps == T."""
    if steps == 1:
        return [T]
    return [T - (k * (T - 1)) // (steps - 1) for k in range(steps)]


class _MaskCache:
    """Masks resampled to each attention resolution, computed once per run."""

    def __init__(self, mask: BinaryMask):
        self._base = mask
        self._by_shape: dict[tuple[int, int], BinaryMask] = {mask.shape: mask}

    def at(self, shape: tuple[int, int]) -> BinaryMask:
        got = self._by_shape.get(shape)
        if got is None:
            got = resample_mask(self._base, *shape)
            self._by_shape[shape] = got
        return got


def _fractions(breakdown) -> dict[str, float]:
    return {lid: le.in_mask_mass for lid, le in breakdown.per_layer.items()}


def sample(
    model,
    mask: BinaryMask,
    config: SamplerConfig,
    schedule: NoiseSchedule,
    rng: RandomStream,
) -> tuple[Grid, TrajectoryRecord]:
    """Run the full recorded sampling loop from Gaussian noise.

    The mask defines the latent resolution. Energies are always measured
    on the conditional (garment-token) attention maps at the pre-update
    latent; the correction additionally needs their gradients and the
    model's attention VJP, so those are computed only when enabled.
    Identical seeds give bit-identical runs whether the correction is
    disabled or enabled with rho = 0.
    """
    if schedule.T < config.steps:
        raise SamplerError(f"schedule T={schedule.T} shorter than steps={config.steps}")
    masks = _MaskCache(mask)
    x = gaussian_field(rng, mask.height, mask.width)
    entries: list[StepEntry] = []
    for k, t in enumerate(_stride_ts(schedule.T, config.steps)):
        eps_u, _ = model.predict(x, t, Condition.NULL)
        eps_c, layers = model.predict(x, t, Condition.GARMENT)
        eps = cfg_mix(eps_u, eps_c, config.guidance_scale)
        m_t = ancestral_step(x, t, eps_to_score(eps, t, schedule), schedule, rng)

        layer_masks = [masks.at(layer.resolution) for layer in layers]
        csc_active = config._csc_active(k)
        breakdown, grads = _evaluate_layers(
            layers, layer_masks, config.energy_cfg, with_grads=csc_active
        )
        if csc_active:
            grad_x = model.attention_vjp(x, t, Condition.GARMENT, grads)
            grad_norm = float(np.sqrt((grad_x.a * grad_x.a).sum()))
            x = csc_correct(m_t, grad_x, config.rho)
        else:
            grad_norm = 0.0
            x = m_t
        entries.append(
            StepEntry(
                step=k,
                t=t,
                e_total=breakdown.total,
                e_attract=breakdown.e_attract,
                e_repel=breakdown.e_repel,
                branch=breakdown.branch_label,
                in_mask_fraction=_fractions(breakdown),
                grad_norm=grad_norm,
            )
        )

    _, final_layers = model.predict(x, 1, Condition.GARMENT)
    final_masks = [masks.at(layer.resolution) for layer in final_layers]
    final_bd = e_total(final_layers, final_masks, config.energy_cfg)
    final = FinalState(
        e_total=final_bd.total,
        e_attract=final_bd.e_attract,
        e_repel=final_bd.e_repel,
        branch=final_bd.branch_label,
        in_mask_fraction=_fractions(final_bd),
    )
    return x, TrajectoryRecord(entries=entries, final=final)
