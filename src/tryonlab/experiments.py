"""Batch experiment drivers and JSON configuration behind the CLI.

A config fully determines every output byte: model seed and dims, noise
schedule, sampler and energy settings, dataset manifest, trial count.
Runs and sweeps read each trial's sample, mask and noise block the same
way. Runs make a corrected pass, then a baseline pass, one sampler call
per trial and pass, on one noise block per trial. Sweeps run every
(trial, point) item of one or more fixed ablations, trial-major, in
lockstep chunks sized by a byte budget, where a config that several of
their grids list is one point; each item runs on its trial's mask and
block. Each grid point reduces to mean final metrics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, is_dataclass, replace
from math import nan
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from . import kernels
from .denoiser import LAYER_FULL, LAYER_HALF, ToyAttentionDenoiser, toy_init
from .energy import EnergyConfig, EnergyError
from .grids import BinaryMask, Grid, GridError, grid_read, mask_read, resample_mask
from .rng import RandomStream
from .sampler import SamplerConfig, SamplerError, TrajectoryRecord, draw_noise
from .sampler import sample_points as run_sampler
from .scenes import DATASET_ROLES, DatasetSample
from .schedule import NoiseSchedule, ScheduleError, make_schedule
from .vtid import FeatureExtractor, SceneImage, pixel_extractor, scene_read, vtid_score

__all__ = [
    "ConfigError",
    "ModelConfig",
    "ScheduleConfig",
    "ExperimentConfig",
    "parse_config",
    "read_config",
    "resolve_paths",
    "config_to_dict",
    "load_dataset",
    "paired_run",
    "run_summary",
    "SCALE_GRID",
    "GUIDANCE_GRID",
    "LAYER_GRID",
    "LAYER_SELECTIONS",
    "SWEEPS",
    "SWEEP_METRIC_COLUMNS",
    "sweep_rows",
]

# Ablation grids; rows are emitted exactly in this order.
SCALE_GRID = (0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3)
GUIDANCE_GRID = (1.0, 1.5, 2.0, 2.5, 3.0, 5.0)
LAYER_SELECTIONS = {
    "both": None,
    "full_only": frozenset({LAYER_FULL}),
    "half_only": frozenset({LAYER_HALF}),
}
LAYER_GRID = tuple(LAYER_SELECTIONS)
_LAYER_IDS = (LAYER_FULL, LAYER_HALF)

# Sweep chunks. Beside its im2col product, a lockstep step holds about
# _STEP_FIELDS latent-sized float64 arrays per item, records included
# (tracemalloc peak of sample_points at 24x18: 1.46 MiB for 7 items,
# 2.16 MiB for 14). That working set is held to the im2col budget,
# kernels._IM2COL_BYTES, the largest block a step frees. While one item's
# share fits it, a call takes as many items as the budget holds and
# never fewer than the largest requested kind's grid: 10 items at 24x18,
# where the 8-trial ablation's one sweep of the three kinds takes 12
# calls, and 7 at 48x36, where 2-item calls ran three 4-trial sweeps 17%
# slower. The floor is not a trial's distinct points: calls of all 14
# points of the three kinds ran such a 48x36 sweep no faster than 7-item
# calls, at 2.5 times the minor faults and +1.8 MB ru_maxrss. Past the
# budget, at 128x96 (2.8 MiB an item), every item runs alone: one call
# per trial there faulted 155,000 pages per pass of those sweeps against
# 1,900 and ran 1.33 times as long. The budget bounds the 24x18
# ablation's peak: ru_maxrss over five passes of that pipeline read
# 34.2 MB, against 33.5 MB when every sweep made one call per trial
# (fresh processes, 2-core Xeon).
_STEP_FIELDS = 30

# The most bytes of noise blocks that paired_run holds from its corrected
# arm for the baseline arm: all 8 blocks of a default 48x36 run (2.2 MB),
# 2 at 128x96 (1.97 MB each).
_HELD_NOISE_BYTES = 4 << 20


class SweepKind(NamedTuple):
    """One ablation: its CSV value column, its grid, and how a grid value
    changes the sampler config."""

    column: str
    grid: tuple
    apply: Callable[[SamplerConfig, object], SamplerConfig]


def _select_layers(cfg: SamplerConfig, value: str) -> SamplerConfig:
    return replace(cfg, energy_cfg=replace(cfg.energy_cfg, layer_select=LAYER_SELECTIONS[value]))


SWEEPS = {
    "scale_factor": SweepKind("rho", SCALE_GRID, lambda cfg, v: replace(cfg, rho=v)),
    "guidance": SweepKind(
        "guidance_scale", GUIDANCE_GRID, lambda cfg, v: replace(cfg, guidance_scale=v)
    ),
    "layers": SweepKind("layers", LAYER_GRID, _select_layers),
}

# A sweep row holds the trial mean of each of these final metrics, plus
# toy_vtid: the clamped final latent against the dataset's exact composite
# ground truth, a stand-in for perceptual try-on metrics.
_SWEPT_METRICS = (
    "final_e_attract",
    "final_in_mask_fraction_full",
    "final_in_mask_fraction_half",
)
SWEEP_METRIC_COLUMNS = tuple(f"mean_{m}" for m in _SWEPT_METRICS) + (
    "mean_toy_vtid_vs_reference",
)


class ConfigError(ValueError):
    """User-facing configuration problem; messages carry the field path."""


@dataclass(frozen=True)
class ModelConfig:
    seed: int = 7
    h: int = 48
    w: int = 36
    channels: int = 4


@dataclass(frozen=True)
class ScheduleConfig:
    T: int = 20
    beta_1: float = 0.05
    beta_T: float = 0.3


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    dataset: str | None = None
    trials: int = 8
    out: str = "out"
    seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError(f"config.trials: must be >= 1, got {self.trials}")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_id_list(v) -> bool:
    """None, or ids of the toy model's layers (build_model makes no other model)."""
    return v is None or (isinstance(v, list) and v != [] and all(s in _LAYER_IDS for s in v))


# How a config field is read from JSON, keyed by its annotation string (the
# config modules postpone annotations): (accepts, convert, what the error
# message says was expected). EnergyConfig's __post_init__ turns a JSON
# list of layer ids into a frozenset.
_READERS = {
    "int": (_is_int, None, "an integer"),
    "float": (_is_num, float, "a number"),
    "str": (lambda v: isinstance(v, str), None, "a path string"),
    "str | None": (lambda v: v is None or isinstance(v, str), None, "a manifest path string"),
    "frozenset[str] | None": (_is_id_list, None, "null or a non-empty list of 'full', 'half'"),
}

# The JSON objects nested in a config. "energy" is its own object in JSON
# but lives in SamplerConfig.energy_cfg.
_SECTIONS = ("model", "schedule", "energy", "sampler")


def _require_dict(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected an object, got {type(node).__name__}")
    return node


def _reject_unknown(sec: dict, path: str, known) -> None:
    for key in sec:
        if key not in known:
            raise ConfigError(f"{path}.{key}: unknown field")


def _read(cls, sec, path: str, **given):
    """Build config class `cls` from the JSON object `sec`.

    Absent fields take the dataclass default; `given` supplies the fields
    parsed from their own JSON objects.
    """
    sec = _require_dict(sec, path)
    own = [f for f in fields(cls) if f.name not in given]
    _reject_unknown(sec, path, {f.name for f in own})
    values = dict(given)
    for f in own:
        if f.name not in sec:
            continue
        v = sec[f.name]
        accepts, convert, expected = _READERS[f.type]
        if not accepts(v):
            # dataset errors share the bare "dataset:" prefix of load_dataset's
            name = f.name if f.name == "dataset" else f"{path}.{f.name}"
            raise ConfigError(f"{name}: expected {expected}, got {v!r}")
        values[f.name] = convert(v) if convert else v
    try:
        return cls(**values)
    except (EnergyError, SamplerError) as e:
        raise ConfigError(f"{path}: {e}") from e


def parse_config(doc) -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed JSON object.

    Every violation is reported with the offending field's path; unknown
    fields are rejected so typos cannot silently fall back to defaults.
    """
    top = _require_dict(doc, "config")
    _reject_unknown(top, "config", {f.name for f in fields(ExperimentConfig)} | set(_SECTIONS))
    model = _read(ModelConfig, top.get("model", {}), "model")
    schedule = _read(ScheduleConfig, top.get("schedule", {}), "schedule")
    energy = _read(EnergyConfig, top.get("energy", {}), "energy")
    sampler = _read(SamplerConfig, top.get("sampler", {}), "sampler", energy_cfg=energy)
    scalars = {k: v for k, v in top.items() if k not in _SECTIONS}
    return _read(
        ExperimentConfig, scalars, "config", model=model, schedule=schedule, sampler=sampler
    )


def read_config(path) -> ExperimentConfig:
    """Parse a config file; its dataset and out paths stay as written."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path}: invalid JSON ({e})") from e
    return parse_config(doc)


def resolve_paths(cfg: ExperimentConfig, config_path) -> ExperimentConfig:
    """cfg with a relative dataset or out resolved against the directory of
    the config file it was read from, not the CWD; absolute ones stay."""
    base = Path(config_path).parent
    return replace(cfg, dataset=cfg.dataset and str(base / cfg.dataset), out=str(base / cfg.out))


def _echo(obj) -> dict:
    """The fields of one config object; sets become sorted lists."""
    out = {}
    for f in fields(obj):
        v = getattr(obj, f.name)
        out[f.name] = sorted(v) if isinstance(v, frozenset) else v
    return out


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """JSON-ready echo of a config, laid out as parse_config reads it."""
    doc = _echo(cfg)
    doc.update({name: _echo(getattr(cfg, name)) for name in ("model", "schedule", "sampler")})
    doc["energy"] = _echo(doc["sampler"].pop("energy_cfg"))
    return doc


def load_dataset(manifest_path, roles=DATASET_ROLES) -> list[DatasetSample]:
    """Read the files of `roles` for every sample of a dataset manifest.

    Every role's list is checked, read or not. Paths are relative to the
    manifest's directory. A file that the manifest lists more than once,
    in one role or in roles with the same reader, is read once, and every
    sample that lists it shares that one read-only object. Missing or
    malformed files are reported with their sample index and path; an
    empty manifest is an error.
    """
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise ConfigError(f"dataset: manifest not found: {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ConfigError(f"dataset: {manifest_path}: invalid JSON ({e})") from e
    if not isinstance(manifest, dict):
        raise ConfigError(f"dataset: {manifest_path}: expected a JSON object")
    lists = {role: manifest.get(role) for role in DATASET_ROLES}
    for role, v in lists.items():
        if not isinstance(v, list) or not all(isinstance(p, str) for p in v):
            raise ConfigError(f"dataset: manifest field {role!r} must be a list of paths")
    n = len(lists["person"])
    if n == 0:
        raise ConfigError("dataset: manifest lists no samples")
    if any(len(lists[r]) != n for r in DATASET_ROLES):
        raise ConfigError("dataset: manifest role lists have differing lengths")
    root = manifest_path.parent
    # read at call time, so that a patched module binding is the one called
    readers = {
        "person": scene_read,
        "garment": scene_read,
        "mask": mask_read,
        "flow_x": grid_read,
        "flow_y": grid_read,
        "generated": scene_read,
        "gen_mask": mask_read,
    }
    # (reader, file) -> what it read. A file is its device and inode, so
    # every path that resolves to it, hard links included, shares one key;
    # one stat costs far less than Path.resolve. A path string listed again
    # for the same reader skips even the stat.
    by_file: dict[tuple, object] = {}
    by_name: dict[tuple, object] = {}

    def load(i: int, role: str):
        read, name = readers[role], lists[role][i]
        if (read, name) in by_name:
            return by_name[read, name]
        p = root / name
        try:
            st = p.stat()
        except (FileNotFoundError, NotADirectoryError):
            raise ConfigError(f"dataset: sample {i}: file not found: {p}") from None
        key = (read, st.st_dev, st.st_ino)
        if key not in by_file:
            try:
                by_file[key] = read(p)
            except GridError as e:
                # a format error names its file; a bad value does not
                where = "" if str(p) in str(e) else f"{p}: "
                raise ConfigError(f"dataset: sample {i}: {where}{e}") from e
        by_name[read, name] = by_file[key]
        return by_file[key]

    return [DatasetSample(**{role: load(i, role) for role in roles}) for i in range(n)]


def _require_trials(trials: int) -> None:
    if trials < 1:
        raise ConfigError(f"trials: must be >= 1, got {trials}")


def _require_canvas(model, dataset: list[DatasetSample], trials: int) -> None:
    """The try-on proxy metric compares final latents with the canvases
    of the samples that `trials` trials read, so their shapes must agree."""
    for sample in dataset[:trials]:
        if sample.person.shape != (model.h, model.w):
            raise ConfigError(
                f"model dims {(model.h, model.w)} != dataset canvas {sample.person.shape}; "
                "the try-on proxy metric needs them equal"
            )


def _toy_vtid(sample: DatasetSample, final_x: Grid, fx: FeatureExtractor) -> float:
    report = vtid_score(
        person=sample.person,
        garment=sample.garment,
        flow_x=sample.flow_x,
        flow_y=sample.flow_y,
        generated=SceneImage.gray(final_x),
        clothing_mask=sample.mask,
        gen_clothing_mask=sample.mask,
        fx=fx,
    )
    return report.vtid


def _trial_inputs(
    model,
    schedule: NoiseSchedule,
    cfg: SamplerConfig,
    dataset: list[DatasetSample],
    i: int,
    seed: int,
    held: dict[int, np.ndarray] | None = None,
) -> tuple[DatasetSample, BinaryMask, np.ndarray]:
    """Trial i's sample, mask and noise block.

    Trial i reads sample i mod n with its mask resampled to the model's
    latent resolution (model.h, model.w). Its block comes from child
    "trial-{i}" of the seed, so it depends only on (seed, i) and its
    shape, and two passes at the same seed and steps run on the same
    noise. It is taken out of `held` when an earlier pass left it there
    (sampling never writes a block), and is otherwise drawn here.
    """
    if not dataset:
        raise ConfigError("dataset: no samples")
    sample_i = dataset[i % len(dataset)]
    mask = resample_mask(sample_i.mask, model.h, model.w)
    noise = held.pop(i, None) if held else None
    if noise is None:
        noise = draw_noise(RandomStream(seed).child(f"trial-{i}"), mask, cfg, schedule)
    return sample_i, mask, noise


def _run_trials(
    model,
    schedule: NoiseSchedule,
    cfg: SamplerConfig,
    dataset: list[DatasetSample],
    trials: int,
    seed: int,
    held: dict[int, np.ndarray] | None = None,
) -> Iterator[tuple[np.ndarray, TrajectoryRecord]]:
    """Yield (noise block, record) of each trial of one arm, one sampler
    call per trial, in trial order."""
    for i in range(trials):
        _, mask, noise = _trial_inputs(model, schedule, cfg, dataset, i, seed, held)
        [(_, record)] = run_sampler(model, [mask], [cfg], schedule, [noise])
        yield noise, record


# Readers of each final metric off the energy breakdown at a trial's final
# latent; a layer the model does not expose reads NaN.
FINAL_METRICS = {
    "final_e_total": lambda final: final.total,
    "final_e_attract": lambda final: final.e_attract,
    "final_e_repel": lambda final: final.e_repel,
    "final_in_mask_fraction_full": lambda final: final.in_mask_fraction.get(LAYER_FULL, nan),
    "final_in_mask_fraction_half": lambda final: final.in_mask_fraction.get(LAYER_HALF, nan),
}


def paired_run(
    model,
    schedule: NoiseSchedule,
    samp_cfg: SamplerConfig,
    dataset: list[DatasetSample],
    trials: int,
    seed: int,
) -> tuple[list[TrajectoryRecord], list[TrajectoryRecord]]:
    """(corrected, baseline) trial lists on shared per-trial noise; the
    baseline arm is samp_cfg at rho = 0, so it takes no gradient.

    Every corrected trial runs before the first baseline one. Each trial's
    block is drawn once, in the corrected arm, and held for its baseline
    twin while the held blocks fit in _HELD_NOISE_BYTES; a baseline trial
    past that cap draws its block again, the same bytes from the same
    stream. Only the samples' masks are read.
    """
    _require_trials(trials)
    held: dict[int, np.ndarray] = {}
    csc = []
    for i, (noise, record) in enumerate(
        _run_trials(model, schedule, samp_cfg, dataset, trials, seed)
    ):
        csc.append(record)
        if noise.nbytes + sum(b.nbytes for b in held.values()) <= _HELD_NOISE_BYTES:
            held[i] = noise
    baseline_cfg = replace(samp_cfg, rho=0.0)
    baseline = _run_trials(model, schedule, baseline_cfg, dataset, trials, seed, held)
    return csc, [record for _, record in baseline]


def _paired_effect_size(deltas: np.ndarray) -> float:
    """Paired Cohen's d: mean delta over its sample standard deviation."""
    if deltas.size < 2:
        return 0.0
    sd = float(deltas.std(ddof=1))
    if sd == 0.0:
        return 0.0
    return float(deltas.mean()) / sd


def run_summary(
    csc: list[TrajectoryRecord], base: list[TrajectoryRecord], cfg: ExperimentConfig
) -> dict:
    """Aggregate a paired run: per-arm means, deltas, paired effect sizes.

    With rho = 0 the two arms are bit-identical, so every delta is
    exactly 0.
    """
    out: dict = {"trials": len(csc), "arms": {}, "delta": {}, "effect_size": {}}
    values = {
        arm: {m: np.array([FINAL_METRICS[m](r.final) for r in results]) for m in FINAL_METRICS}
        for arm, results in (("csc", csc), ("baseline", base))
    }
    for arm in ("csc", "baseline"):
        out["arms"][arm] = {m: float(values[arm][m].mean()) for m in FINAL_METRICS}
    for m in FINAL_METRICS:
        deltas = values["csc"][m] - values["baseline"][m]
        out["delta"][m] = float(deltas.mean())
        out["effect_size"][m] = _paired_effect_size(deltas)
    out["config"] = config_to_dict(cfg)
    return out


def _sweep_chunk(model, points: int) -> int:
    """Items per sweep sampler call. While one item's step working set,
    _STEP_FIELDS latent-sized arrays, fits kernels._IM2COL_BYTES, a call
    takes as many items as the budget holds and never fewer than `points`,
    the largest requested kind's grid; past the budget every item runs
    alone."""
    per_item = _STEP_FIELDS * model.h * model.w * 8
    if per_item > kernels._IM2COL_BYTES:
        return 1
    return max(points, kernels._IM2COL_BYTES // per_item)


def _config_key(obj):
    """A key that two configs share only when every field is equal bit for
    bit: floats compare by float.hex, so +0.0 and -0.0 stay apart, and an
    int never equals a float."""
    if is_dataclass(obj):
        return tuple(_config_key(getattr(obj, f.name)) for f in fields(obj))
    return obj.hex() if isinstance(obj, float) else obj


def _sweep_row(column: str, value, point: list[tuple]) -> dict:
    """A grid point's row: the trial means of its (final breakdown, toy
    vtid) pairs, taken in trial order."""
    finals, vtids = zip(*point)
    row = {column: value}
    for m in _SWEPT_METRICS:
        row[f"mean_{m}"] = float(np.mean([FINAL_METRICS[m](f) for f in finals]))
    row["mean_toy_vtid_vs_reference"] = float(np.mean(vtids))
    return row


def sweep_rows(
    kinds: Sequence[str],
    model,
    schedule: NoiseSchedule,
    samp_cfg: SamplerConfig,
    dataset: list[DatasetSample],
    trials: int,
    seed: int,
) -> dict[str, list[dict]]:
    """Each kind's rows, in the order of `kinds`: one row per grid point,
    in grid order, keyed by the kind's value column.

    The kinds' grids share their points: grid values whose configs are
    equal bit for bit (see _config_key) are one point, numbered in order
    of first listing, so one kind's points are its grid indices. The
    sweep's items are its (trial, point) pairs, trial-major. They run in
    lockstep in chunks of _sweep_chunk items, one sampler call per chunk;
    a trial's items pass its mask and noise block, each drawn or resampled
    once, and a chunk may end inside a trial. Every item is bit-equal to a
    run of its point alone, so neither the chunking nor the other kinds
    change a row. A row holds trial means, taken in trial order.

    A diverging sweep raises as one call per trial would: the failing
    chunk's trials are rerun over all points, in trial order, and the
    first that diverges names every point that diverged at its step,
    under every kind that lists it, by value column; its configs are
    those points.
    """
    if not kinds:
        raise ConfigError(f"no sweep kind given (use {', '.join(SWEEPS)})")
    for n, kind in enumerate(kinds):
        if kind not in SWEEPS:
            raise ConfigError(f"unknown sweep kind {kind!r} (use {', '.join(SWEEPS)})")
        if kind in kinds[:n]:
            raise ConfigError(f"sweep kind {kind!r} given more than once")
    _require_trials(trials)
    _require_canvas(model, dataset, trials)
    cfgs: list[SamplerConfig] = []
    point_of: dict[str, list[int]] = {}  # kind -> the point of each grid value
    points: dict[tuple, int] = {}  # config key -> point
    for kind in kinds:
        sweep = SWEEPS[kind]
        point_of[kind] = []
        for value in sweep.grid:
            cfg = sweep.apply(samp_cfg, value)
            p = points.setdefault(_config_key(cfg), len(cfgs))
            if p == len(cfgs):
                cfgs.append(cfg)
            point_of[kind].append(p)
    items = [(i, p) for i in range(trials) for p in range(len(cfgs))]
    floor = max(len(SWEEPS[kind].grid) for kind in kinds)
    calls = -(-len(items) // _sweep_chunk(model, floor))
    chunk = -(-len(items) // calls)  # the calls' items, balanced
    fx = pixel_extractor()
    inputs: dict[int, tuple] = {}  # trial -> (sample, mask, noise block)
    per_point: list[list[tuple]] = [[] for _ in cfgs]  # (final breakdown, toy vtid)
    for start in range(0, len(items), chunk):
        part = items[start : start + chunk]
        for i, _ in part:
            if i not in inputs:
                inputs[i] = _trial_inputs(model, schedule, cfgs[0], dataset, i, seed)
        try:
            results = run_sampler(
                model,
                [inputs[i][1] for i, _ in part],
                [cfgs[p] for _, p in part],
                schedule,
                [inputs[i][2] for i, _ in part],
            )
        except SamplerError as e:
            if not e.configs:
                raise
            # name the points as one call per trial does (see the docstring)
            for i in dict.fromkeys(i for i, _ in part):
                _, mask, noise = inputs[i]
                try:
                    run_sampler(model, [mask] * len(cfgs), cfgs, schedule, [noise] * len(cfgs))
                except SamplerError as trial:
                    if not trial.configs:
                        raise
                    named = ", ".join(
                        f"{SWEEPS[kind].column}={value}"
                        for kind in kinds
                        for value, p in zip(SWEEPS[kind].grid, point_of[kind])
                        if p in trial.configs
                    )
                    raise SamplerError(f"{named}: {trial}", trial.configs) from trial
            raise
        for (i, p), (x, record) in zip(part, results):
            per_point[p].append((record.final, _toy_vtid(inputs[i][0], x, fx)))
            if p == len(cfgs) - 1:  # the trial's last item
                del inputs[i]
    return {
        kind: [
            _sweep_row(SWEEPS[kind].column, value, per_point[p])
            for value, p in zip(SWEEPS[kind].grid, point_of[kind])
        ]
        for kind in kinds
    }


def build_model(cfg: ExperimentConfig) -> ToyAttentionDenoiser:
    try:
        return toy_init(cfg.model.seed, cfg.model.h, cfg.model.w, cfg.model.channels)
    except ValueError as e:
        raise ConfigError(f"model: {e}") from e


def build_schedule(cfg: ExperimentConfig) -> NoiseSchedule:
    try:
        schedule = make_schedule(cfg.schedule.T, cfg.schedule.beta_1, cfg.schedule.beta_T)
    except ScheduleError as e:
        raise ConfigError(f"schedule: {e}") from e
    if schedule.T < cfg.sampler.steps:
        raise ConfigError(
            f"schedule.T: {schedule.T} is shorter than sampler.steps {cfg.sampler.steps}"
        )
    return schedule
