"""Command-line entry points: run, sweep, vtid, gen, plot.

Every verb is deterministic given its config and seed; exit code 0 on
success, 2 for user or config errors, 1 for internal failures.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import traceback
from dataclasses import replace
from pathlib import Path

from .denoiser import ModelError
from .energy import EnergyError
from .experiments import (
    ConfigError,
    SWEEP_METRIC_COLUMNS,
    SWEEPS,
    build_model,
    build_schedule,
    load_dataset,
    paired_run,
    read_config,
    resolve_paths,
    run_summary,
    sweep_rows,
)
from .grids import GridError
from .plotting import PlotError, plot_all
from .sampler import CSV_HEADER, SamplerError
from .scenes import SceneError, gen_dataset, write_dataset
from .schedule import ScheduleError
from .vtid import VtidError, pixel_extractor, random_feature_extractor, vtid_score

__all__ = ["main"]

_USER_ERRORS = (
    ConfigError,
    GridError,
    VtidError,
    SceneError,
    PlotError,
    EnergyError,
    SamplerError,
    ModelError,
    ScheduleError,
    OSError,
)


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _cell(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def _load_run_config(args):
    """The config to run and the config to echo in summary.json.

    The run resolves a relative dataset or out against the config file's
    directory, and takes --out as given. The echo keeps the config's paths
    as written, so identical configs give identical bytes in any directory.
    """
    written = read_config(args.config)
    overrides = {k: v for k, v in (("seed", args.seed), ("out", args.out)) if v is not None}
    cfg = replace(resolve_paths(written, args.config), **overrides)
    if cfg.dataset is None:
        raise ConfigError("dataset: required — set it to a dataset manifest path")
    return cfg, replace(written, **overrides)


def cmd_run(args) -> int:
    cfg, echo = _load_run_config(args)
    dataset = load_dataset(cfg.dataset, roles=("mask",))  # all that paired_run reads
    model = build_model(cfg)
    schedule = build_schedule(cfg)
    csc, base = paired_run(model, schedule, cfg.sampler, dataset, cfg.trials, cfg.seed)
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    traj_path = outdir / "trajectories.csv"
    with open(traj_path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(("trial", "arm") + CSV_HEADER)
        for i in range(cfg.trials):
            for arm, results in (("baseline", base), ("csc", csc)):
                for row in results[i].csv_rows():
                    writer.writerow([str(i), arm, *row])
    summary = run_summary(csc, base, echo)
    _write_json(outdir / "summary.json", summary)
    delta = summary["delta"]["final_in_mask_fraction_full"]
    print(f"{traj_path}\n{outdir / 'summary.json'}")
    print(f"in-mask fraction delta (csc - baseline): {delta:+.6f} over {cfg.trials} trials")
    return 0


def cmd_sweep(args) -> int:
    cfg, _ = _load_run_config(args)
    # all that the canvas check and the try-on proxy read
    dataset = load_dataset(cfg.dataset, roles=("person", "garment", "flow_x", "flow_y", "mask"))
    model = build_model(cfg)
    schedule = build_schedule(cfg)
    rows = sweep_rows(args.kind, model, schedule, cfg.sampler, dataset, cfg.trials, cfg.seed)
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for kind, kind_rows in rows.items():
        value_col = SWEEPS[kind].column
        path = outdir / f"sweep_{kind}.csv"
        with open(path, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow((value_col,) + SWEEP_METRIC_COLUMNS)
            for row in kind_rows:
                writer.writerow(
                    [_cell(row[value_col])] + [_cell(row[m]) for m in SWEEP_METRIC_COLUMNS]
                )
        print(f"{path} ({len(kind_rows)} grid points x {cfg.trials} trials)")
    return 0


# The per-sample scores that vtid.json and vtid.csv report, in column order.
_VTID_SCORES = ("human_dist", "clothing_dist", "vtid")


def cmd_vtid(args) -> int:
    samples = load_dataset(args.manifest)
    if args.features == "pixel":
        fx = pixel_extractor()
    else:
        fx = random_feature_extractor(args.feature_seed, args.feature_scales, args.feature_channels)
    reports = []
    for i, s in enumerate(samples):
        try:
            reports.append(
                vtid_score(
                    person=s.person,
                    garment=s.garment,
                    flow_x=s.flow_x,
                    flow_y=s.flow_y,
                    generated=s.generated,
                    clothing_mask=s.mask,
                    gen_clothing_mask=s.gen_mask,
                    fx=fx,
                )
            )
        except VtidError as e:
            raise VtidError(f"sample {i}: {e}") from e
    outdir = Path(args.out) if args.out else Path(args.manifest).parent
    outdir.mkdir(parents=True, exist_ok=True)
    n = len(reports)
    scores = [{k: getattr(r, k) for k in _VTID_SCORES} for r in reports]
    mean = {k: sum(sc[k] for sc in scores) / n for k in _VTID_SCORES}
    doc = {
        "n": n,
        "features": args.features,
        "samples": [{"index": i, **sc} for i, sc in enumerate(scores)],
        "mean": mean,
    }
    _write_json(outdir / "vtid.json", doc)
    with open(outdir / "vtid.csv", "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(("sample",) + _VTID_SCORES)
        for label, sc in [*enumerate(scores), ("mean", mean)]:
            writer.writerow([str(label)] + [repr(sc[k]) for k in _VTID_SCORES])
    print(f"{outdir / 'vtid.json'}\nmean vtid over {n} samples: {mean['vtid']:.6f}")
    return 0


def cmd_gen(args) -> int:
    samples = gen_dataset(args.seed, args.n, not args.unpaired, h=args.height, w=args.width)
    split = "unpaired" if args.unpaired else "paired"
    manifest = write_dataset(args.out, samples, split)
    print(f"{Path(args.out) / 'manifest.json'} ({manifest['n']} samples, {split})")
    return 0


def cmd_plot(args) -> int:
    written = plot_all(args.csv, args.out)
    print("\n".join(str(p) for p in written))
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tryonlab",
        description="Attention-energy guided diffusion laboratory: run corrected "
        "samplers, sweep ablations, score try-on fidelity, build synthetic datasets.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override config output directory")

    p_run = sub.add_parser("run", help="paired corrected/baseline trajectories")
    add_common(p_run)
    p_run.add_argument(
        "--jobs", type=int, choices=(1,), default=1, help="trials run in order on one thread"
    )
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser(
        "sweep", help="ablation grids over one or more knobs, each shared point run once"
    )
    p_sweep.add_argument(
        "--kind", required=True, nargs="+", choices=tuple(SWEEPS), help="one CSV per kind"
    )
    add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_vtid = sub.add_parser("vtid", help="score a dataset manifest")
    p_vtid.add_argument("--manifest", required=True, help="dataset manifest.json")
    p_vtid.add_argument("--out", default=None, help="output directory (default: manifest dir)")
    p_vtid.add_argument("--features", choices=("pixel", "random"), default="pixel")
    p_vtid.add_argument("--feature-seed", type=int, default=0)
    p_vtid.add_argument("--feature-scales", type=int, default=2)
    p_vtid.add_argument("--feature-channels", type=int, default=8)
    p_vtid.set_defaults(func=cmd_vtid)

    p_gen = sub.add_parser("gen", help="generate a synthetic try-on dataset")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--unpaired", action="store_true", help="cyclic garment swap")
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--height", type=int, default=48)
    p_gen.add_argument("--width", type=int, default=36)
    p_gen.set_defaults(func=cmd_gen)

    p_plot = sub.add_parser("plot", help="SVG charts from a trajectories CSV")
    p_plot.add_argument("--csv", required=True)
    p_plot.add_argument("--out", required=True)
    p_plot.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except _USER_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
