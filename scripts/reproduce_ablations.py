#!/usr/bin/env python3
"""End-to-end ablation pipeline, routed entirely through the CLI.

Generates a synthetic try-on benchmark, scores its ground-truth
composites, runs the paired corrected-vs-baseline experiment, sweeps
correction strength / guidance scale / layer selection, and renders
trajectory charts. Every artifact is byte-deterministic in --seed, so
two runs with the same arguments produce identical trees.

Outputs under --out:
    bench/              dataset tree + manifest.json + vtid.{json,csv}
    config.json         the experiment config all commands share
    run/                trajectories.csv + summary.json
    sweeps/             sweep_scale_factor.csv, sweep_guidance.csv, sweep_layers.csv
    plots/              one SVG per trajectory metric
"""

import argparse
import json
import sys
from pathlib import Path

from tryonlab.cli import main as cli

# The sweep try-on proxy metric compares final latents against the
# dataset composites, so the model resolution must match the canvas.
CANVAS_H, CANVAS_W = 24, 18


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="ablations", help="output directory")
    ap.add_argument("--seed", type=int, default=0, help="pipeline seed")
    ap.add_argument("--trials", type=int, default=8, help="trials per arm / grid point")
    # unused: kept so that invocations passing --jobs 1 still parse
    ap.add_argument(
        "--jobs", type=int, choices=(1,), default=1, help="trials run in order on one thread"
    )
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    bench = out / "bench"

    steps = [
        ["gen", "--seed", str(args.seed), "--n", "6", "--height", str(CANVAS_H),
         "--width", str(CANVAS_W), "--out", str(bench)],
        ["vtid", "--manifest", str(bench / "manifest.json"), "--features", "random"],
    ]

    config = {
        "model": {"seed": 7, "h": CANVAS_H, "w": CANVAS_W, "channels": 4},
        "schedule": {"T": 20, "beta_1": 0.05, "beta_T": 0.3},
        "sampler": {"rho": 0.2, "guidance_scale": 2.0, "steps": 20},
        "energy": {"lam": 0.01, "delta": 0.02},
        # paths relative to config.json keep the output tree free of its location
        "dataset": "bench/manifest.json",
        "trials": args.trials,
        "seed": args.seed,
        "out": "run",
    }
    cfg_path = out / "config.json"

    steps += [["run", "--config", str(cfg_path)]]
    steps += [
        ["sweep", "--config", str(cfg_path), "--kind", kind,
         "--out", str(out / "sweeps")]
        for kind in ("scale_factor", "guidance", "layers")
    ]
    steps += [["plot", "--csv", str(out / "run" / "trajectories.csv"),
               "--out", str(out / "plots")]]

    for argv in steps:
        if argv[0] == "run":  # config must exist before run/sweep read it
            cfg_path.write_text(
                json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )
        print(f"$ tryonlab {' '.join(argv)}", flush=True)
        rc = cli(argv)
        if rc != 0:
            return rc
    print(f"done: ablation artifacts under {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
