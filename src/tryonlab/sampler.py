"""Reverse-diffusion sampling with optional attention-energy correction.

One step: predict noise under the garment and null tokens, mix them with
classifier-free guidance, convert to a score, take the ancestral update
m_t = (1 + beta/2) x_t + beta * score + sqrt(beta) * noise, then (when
rho > 0) pull the region-energy gradient back to the latent through the
tape of the garment forward and subtract rho times it. Every step is
recorded so attention containment can be plotted over time.

`sample_points` runs K configs that share their steps in lockstep, as
one (K, h, w) latent stack on one noise block: one null predict, one
garment predict, one energy pass, one ancestral update and, when any
config has rho > 0, one VJP per step serve all K. The energy pass reads each item under
its own config's energy settings; its arrays span the whole stack, and
only per-item scalars, the inner hinge and the breakdown records are
built item by item. `sample` is the K = 1 case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .denoiser import LAYER_FULL, LAYER_HALF, Condition
from .energy import (
    AttentionLayer,
    EnergyBreakdown,
    EnergyConfig,
    _evaluate_layers,
    _evaluate_stack,
    e_total,
)
from .grids import BinaryMask, Grid, resample_mask
from .rng import RandomStream, gaussian_field
from .schedule import NoiseSchedule

__all__ = [
    "SamplerConfig",
    "SamplerError",
    "StepEntry",
    "TrajectoryRecord",
    "CSV_HEADER",
    "cfg_mix",
    "eps_to_score",
    "ancestral_step",
    "csc_correct",
    "draw_noise",
    "sample",
    "sample_points",
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
    """Invalid sampler configuration or step.

    configs holds the indices, into sample_points' config list, of the
    configs whose trajectory failed; it is empty for an error they share.
    """

    def __init__(self, message: str, configs: tuple[int, ...] = ()):
        super().__init__(message)
        self.configs = configs


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs of one sampling run.

    rho scales the correction applied at every executed step; rho = 0
    turns it off. guidance_scale mixes the two noise predictions, and
    steps is the number of executed reverse steps (stride-subsampled from
    the schedule when smaller than T).
    """

    rho: float = 0.2
    guidance_scale: float = 2.0
    steps: int = 20
    energy_cfg: EnergyConfig = field(default_factory=EnergyConfig)

    def __post_init__(self):
        if not 0.0 <= self.rho < math.inf:
            raise SamplerError("rho must be finite and >= 0")
        if not math.isfinite(self.guidance_scale):
            raise SamplerError("guidance_scale must be finite")
        if self.steps < 1:
            raise SamplerError("steps must be >= 1")


@dataclass(frozen=True)
class StepEntry:
    """Observables of one executed step, measured at the pre-update latent.

    grad_norm is the L2 norm of the latent-space energy gradient; it is
    recorded as 0 when rho = 0 (the correction takes no gradient then).
    """

    step: int
    t: int
    energy: EnergyBreakdown
    grad_norm: float


@dataclass(frozen=True)
class TrajectoryRecord:
    """One entry per executed step plus the energy at the returned latent."""

    entries: list[StepEntry]
    final: EnergyBreakdown

    def __len__(self) -> int:
        return len(self.entries)

    def csv_rows(self) -> list[list[str]]:
        return [_entry_row(e) for e in self.entries]


def _fraction_cell(fractions: dict[str, float], layer_id: str) -> str:
    return repr(fractions[layer_id]) if layer_id in fractions else ""


def _entry_row(e: StepEntry) -> list[str]:
    fractions = e.energy.in_mask_fraction
    return [
        str(e.step),
        str(e.t),
        repr(e.energy.total),
        repr(e.energy.e_attract),
        repr(e.energy.e_repel),
        e.energy.branch_label,
        _fraction_cell(fractions, LAYER_FULL),
        _fraction_cell(fractions, LAYER_HALF),
        repr(e.grad_norm),
    ]


def _take_items(pick: np.ndarray, src: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out, with the items that an (n, 1, 1) boolean pick selects copied
    from src."""
    rows = pick.ravel()
    if rows.any():
        out[rows] = src[rows]
    return out


def cfg_mix(eps_uncond: np.ndarray, eps_cond: np.ndarray, s) -> np.ndarray:
    """Classifier-free guidance: eps_u + s * (eps_c - eps_u).

    s is one float, or an (n, 1, 1) array holding one per item of an
    (n, h, w) stack. Where s = 1 the result is the conditional prediction
    bit-exactly.
    """
    if eps_uncond.shape != eps_cond.shape:
        raise SamplerError(
            f"prediction shapes differ: {eps_uncond.shape} vs {eps_cond.shape}"
        )
    if isinstance(s, np.ndarray):
        return _take_items(s == 1.0, eps_cond, eps_uncond + s * (eps_cond - eps_uncond))
    if s == 1.0:
        return eps_cond
    return eps_uncond + s * (eps_cond - eps_uncond)


def eps_to_score(eps: np.ndarray, t: int, schedule: NoiseSchedule) -> np.ndarray:
    """Score of the marginal at step t from predicted noise: -eps / sqrt(1 - abar_t)."""
    ab = schedule.alpha_bar_at(t)
    return eps * (-1.0 / math.sqrt(1.0 - ab))


def ancestral_step(
    x_t: np.ndarray,
    t: int,
    score: np.ndarray,
    schedule: NoiseSchedule,
    noise: np.ndarray | None,
) -> np.ndarray:
    """One reverse update: (1 + beta/2) x_t + beta * score + sqrt(beta) * noise.

    x_t is an (h, w) latent or a stack of them; noise is one (h, w) field,
    added to every item. At t = 1 the noise term is omitted and `noise` is
    ignored (it may be None), so the final step is deterministic.
    """
    if score.shape != x_t.shape:
        raise SamplerError(f"score shape {score.shape} != latent shape {x_t.shape}")
    beta = schedule.beta_at(t)
    out = (1.0 + 0.5 * beta) * x_t + beta * score
    if t > 1:
        if noise is None or noise.shape != x_t.shape[-2:]:
            got = None if noise is None else noise.shape
            raise SamplerError(f"noise shape {got} != latent shape {x_t.shape[-2:]}")
        out = out + math.sqrt(beta) * noise
    return out


def csc_correct(m_t: np.ndarray, grad_x: np.ndarray, rho) -> np.ndarray:
    """Subtract rho times the latent energy gradient from the predicted step.

    rho is one float, or an (n, 1, 1) array holding one per item of an
    (n, h, w) stack. Where rho = 0 the result is the predicted step
    bit-exactly.
    """
    per_item = isinstance(rho, np.ndarray)
    if (rho.min() if per_item else rho) < 0.0:
        raise SamplerError("rho must be >= 0")
    if m_t.shape != grad_x.shape:
        raise SamplerError(f"gradient shape {grad_x.shape} != latent shape {m_t.shape}")
    if not np.isfinite(grad_x).all():
        raise SamplerError("non-finite energy gradient")
    if per_item:
        return _take_items(rho == 0.0, m_t, m_t - rho * grad_x)
    if rho == 0.0:
        return m_t
    return m_t - rho * grad_x


def _stride_ts(T: int, steps: int) -> list[int]:
    """Executed t values, largest first; full range T..1 when steps == T."""
    if steps == 1:
        return [T]
    return [T - (k * (T - 1)) // (steps - 1) for k in range(steps)]


def _noise_shape(
    mask: BinaryMask, config: SamplerConfig, schedule: NoiseSchedule
) -> tuple[int, int, int]:
    """(F, h, w): the initial field plus one per executed step with t > 1."""
    fields = 1 + sum(t > 1 for t in _stride_ts(schedule.T, config.steps))
    return fields, mask.height, mask.width


def draw_noise(
    rng: RandomStream, mask: BinaryMask, config: SamplerConfig, schedule: NoiseSchedule
) -> np.ndarray:
    """The noise block `sample` takes, drawn from rng in the order it is used."""
    return gaussian_field(rng, *_noise_shape(mask, config, schedule))


class _MaskCache:
    """Masks resampled to each attention resolution, computed once per run.

    A mask with no cell at some layer's resolution would leave the attract
    term on its epsilon_den clamp, so it is rejected naming that layer.
    """

    def __init__(self, mask: BinaryMask):
        self._base = mask
        self._by_shape: dict[tuple[int, int], BinaryMask] = {}

    def at(self, layer_id: str, shape: tuple[int, int]) -> BinaryMask:
        got = self._by_shape.get(shape)
        if got is None:
            got = resample_mask(self._base, *shape)
            if not got.a.any():
                raise SamplerError(
                    f"mask is empty at attention layer {layer_id!r} ({shape[0]}x{shape[1]})"
                )
            self._by_shape[shape] = got
        return got

    def of(self, maps: dict[str, np.ndarray]) -> list[BinaryMask]:
        """The mask at each layer's resolution, in map order."""
        return [self.at(layer_id, a.shape[-2:]) for layer_id, a in maps.items()]


def _item_layers(maps: dict[str, np.ndarray], i: int) -> list[AttentionLayer]:
    """Item i of each stacked map, as the validated layers the energy reads."""
    return [AttentionLayer(layer_id, Grid(a[i])) for layer_id, a in maps.items()]


def _per_item(values: list[float]):
    """A lone config's value, or an (n, 1, 1) array of one per config, as
    cfg_mix and csc_correct take them."""
    # K = 1 forks stay: together they cut a 48x36 trajectory from 8.3 to 8.0 ms (2-core Xeon)
    return values[0] if len(values) == 1 else np.array(values).reshape(-1, 1, 1)


def _energies(
    maps: dict[str, np.ndarray],
    layer_masks: list[BinaryMask],
    cfgs: list[EnergyConfig],
    with_grads: bool,
) -> tuple[list[EnergyBreakdown], list[np.ndarray] | None]:
    """Each config's energy breakdown of its item of the map stacks and,
    when asked, one cotangent stack per layer, from one stacked pass."""
    if len(cfgs) > 1:
        return _evaluate_stack(maps, layer_masks, cfgs, with_grads)
    # K = 1 goes through this module's _evaluate_layers: perfbench's capture and tracer patch it
    breakdown, grads = _evaluate_layers(_item_layers(maps, 0), layer_masks, cfgs[0], with_grads)
    return [breakdown], None if grads is None else [g[None] for g in grads]


def _require_finite(a: np.ndarray, what: str, k: int, t: int) -> None:
    """Raise naming the step and every config whose item of stack a is
    not finite."""
    finite = np.isfinite(a)
    if finite.all():
        return
    configs = tuple(int(i) for i in np.flatnonzero(~finite.reshape(len(a), -1).all(axis=1)))
    raise SamplerError(
        f"step {k} (t={t}): {what} is no longer finite "
        f"(config {', '.join(map(str, configs))})",
        configs,
    )


def _lockstep_field(configs: list[SamplerConfig], name: str):
    """The value of field `name` that every config shares."""
    values = {getattr(c, name) for c in configs}
    if len(values) != 1:
        raise SamplerError(f"configs run in lockstep must share {name}, got {sorted(values)}")
    return values.pop()


def sample(
    model,
    mask: BinaryMask,
    config: SamplerConfig,
    schedule: NoiseSchedule,
    noise: np.ndarray,
) -> tuple[Grid, TrajectoryRecord]:
    """One trajectory: sample_points with the single config."""
    return sample_points(model, mask, [config], schedule, noise)[0]


def sample_points(
    model,
    mask: BinaryMask,
    configs: list[SamplerConfig],
    schedule: NoiseSchedule,
    noise: np.ndarray,
) -> list[tuple[Grid, TrajectoryRecord]]:
    """Run the full recorded sampling loop from Gaussian noise, once per
    config, with every config's latent stepped in lockstep.

    `noise` is the trajectory's whole noise block, as `draw_noise` draws
    it: field 0 is the initial latent and field k + 1 the noise of
    executed step k, for every step with t > 1. Every config runs on the
    same block. The sampler draws nothing itself and never writes the
    block, so equal inputs give equal outputs. The configs must share
    steps; each config's result is bit-equal to a run of that config
    alone.

    The mask defines the latent resolution; it must keep at least one
    cell at every attention layer's resolution. Energies are always
    measured on the conditional (garment-token) attention maps at the
    pre-update latent, each item under its config's energy settings;
    the correction additionally needs their gradients and the model's
    VJP of that same forward, so those are computed only when some
    config has rho > 0. A rho = 0 item takes no gradient even then: its
    rows of the latent gradient are zeroed, so it records grad_norm 0,
    is never named for a non-finite gradient, and stays bit-equal to its
    run alone. A step that leaves a latent or an energy gradient
    non-finite (overflow under extreme guidance, say) raises SamplerError
    naming the step and the failing configs. Latents are a plain ndarray
    stack inside the loop and become Grids only when they are returned.
    """
    if not configs:
        raise SamplerError("no configs to sample")
    steps = _lockstep_field(configs, "steps")
    csc = any(c.rho > 0.0 for c in configs)
    if schedule.T < steps:
        raise SamplerError(f"schedule T={schedule.T} shorter than steps={steps}")
    want = _noise_shape(mask, configs[0], schedule)
    if noise.shape != want:
        raise SamplerError(f"noise block shape {noise.shape} != expected {want}")
    masks = _MaskCache(mask)
    scales = _per_item([c.guidance_scale for c in configs])
    rhos = _per_item([c.rho for c in configs])
    cfgs = [c.energy_cfg for c in configs]
    x = np.broadcast_to(noise[0], (len(configs), *noise.shape[1:]))
    entries: list[list[StepEntry]] = [[] for _ in configs]
    for k, t in enumerate(_stride_ts(schedule.T, steps)):
        eps_u, _, _ = model.predict(x, t, Condition.NULL)
        eps_c, maps, tape = model.predict(x, t, Condition.GARMENT)
        eps = cfg_mix(eps_u, eps_c, scales)
        z = noise[k + 1] if t > 1 else None
        m_t = ancestral_step(x, t, eps_to_score(eps, t, schedule), schedule, z)

        breakdowns, cotangents = _energies(maps, masks.of(maps), cfgs, csc)
        if csc:
            grad_x = model.attention_vjp(tape, t, Condition.GARMENT, cotangents)
            if isinstance(rhos, np.ndarray):  # rho = 0 items take no gradient
                grad_x = np.where(rhos == 0.0, 0.0, grad_x)
            grad_norms = np.sqrt((grad_x * grad_x).sum(axis=(-2, -1)))
            try:
                x = csc_correct(m_t, grad_x, rhos)
            except SamplerError:
                _require_finite(grad_x, "the energy gradient", k, t)
                raise
        else:
            grad_norms = np.zeros(len(configs))
            x = m_t
        _require_finite(x, "the latent", k, t)
        for record, breakdown, grad_norm in zip(entries, breakdowns, grad_norms):
            record.append(StepEntry(k, t, breakdown, float(grad_norm)))

    _, final_maps, _ = model.predict(x, 1, Condition.GARMENT)
    final_masks = masks.of(final_maps)
    if len(cfgs) > 1:
        finals, _ = _evaluate_stack(final_maps, final_masks, cfgs, False)
    else:  # through e_total, which perfbench's tracer wraps and its capture skips
        finals = [e_total(_item_layers(final_maps, 0), final_masks, cfgs[0])]
    return [
        (Grid(x[i]), TrajectoryRecord(entries=record, final=final))
        for i, (record, final) in enumerate(zip(entries, finals))
    ]
