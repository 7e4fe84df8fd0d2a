"""The four benchmark workloads.

Each workload writes its inputs from the seed in ``setup``, runs one pass
through tryonlab's public CLI verbs or scripts in ``run_pass`` and checks
the outputs of its first pass in ``check``. Later passes write into the
same directory and must reproduce the first pass byte for byte.
"""

from __future__ import annotations

import contextlib
import importlib.util
import json
import os
import sys
from pathlib import Path

import numpy as np

import tryonlab.cli as cli
import tryonlab.energy as energy
import tryonlab.experiments as experiments
import tryonlab.sampler as sampler
import tryonlab.scenes as scenes
from tryonlab.grids import Grid, grid_write
from tryonlab.rng import RandomStream
from tryonlab.vtid import SceneImage, scene_write

import checks

ROOT = Path(__file__).resolve().parent.parent
ABLATION_SCRIPT = ROOT / "scripts" / "reproduce_ablations.py"

# The sampler settings that every sampler workload writes into its config
# explicitly, so that a change of the program's defaults cannot change a
# workload. They equal the documented defaults.
SAMPLER_CONFIG = {
    "model": {"seed": 7, "channels": 4},
    "schedule": {"T": 20, "beta_1": 0.05, "beta_T": 0.3},
    "sampler": {"rho": 0.2, "guidance_scale": 2.0, "steps": 20},
    "energy": {"lam": 0.01, "delta": 0.02, "support_tau": 0.01, "epsilon_den": 1e-8},
}
# Replayed under tracemalloc for energy.eval_grad.peak_alloc_mb.
REPLAYED_GRAD_CALLS = 4


class PassFailed(Exception):
    """A CLI verb or script of one pass exited with a non-zero code."""


class EnergyCapture:
    """Records the energy evaluations of one untraced pass, grouped per trajectory.

    Patches ``tryonlab.experiments.run_sampler`` (the binding through which
    trials call ``sample``) and ``tryonlab.sampler._evaluate_layers`` (the
    per-step energy evaluation), and restores both on exit.
    """

    def __init__(self, keep_maps: bool):
        self.keep_maps = keep_maps
        self.trajectories: list[list] = []  # per sample() call: [(maps, masks, breakdown)]
        self.grad_calls: list = []  # first (layers, masks, cfg) evaluated with gradients

    def __enter__(self):
        run_sampler, evaluate = experiments.run_sampler, sampler._evaluate_layers
        self._saved = (run_sampler, evaluate)

        def capturing_sample(*args, **kwargs):
            self.trajectories.append([])
            return run_sampler(*args, **kwargs)

        def capturing_evaluate(layers, masks, cfg, with_grads):
            result = evaluate(layers, masks, cfg, with_grads)
            if with_grads and len(self.grad_calls) < REPLAYED_GRAD_CALLS:
                self.grad_calls.append((layers, masks, cfg))
            if self.keep_maps:
                self.trajectories[-1].append((
                    [layer.map.a for layer in layers], [m.a for m in masks], result[0]))
            return result

        experiments.run_sampler = capturing_sample
        sampler._evaluate_layers = capturing_evaluate
        return self

    def __exit__(self, *exc):
        experiments.run_sampler, sampler._evaluate_layers = self._saved
        return False


def _cli(argv: list[str]) -> None:
    rc = cli.main(argv)
    if rc != 0:
        raise PassFailed(f"tryonlab {' '.join(argv)} exited {rc}")


def _write_config(path: Path, dataset: str, h: int, w: int, trials: int, seed: int,
                  out: Path) -> None:
    doc = json.loads(json.dumps(SAMPLER_CONFIG))
    doc["model"].update(h=h, w=w)
    doc.update(dataset=dataset, trials=trials, seed=seed, out=str(out))
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


class Workload:
    name = ""
    keep_maps = False
    calibration = "small_ops"  # see worker.CALIBRATIONS

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = Path(workdir).resolve()
        self.out = self.dir / "out"

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, checkpoint=None) -> int:
        """One pass; returns its work items.

        A long pass calls ``checkpoint`` between its steps, so that the
        timer can calibrate there (see worker.Clock).
        """
        raise NotImplementedError

    def check(self, capture: EnergyCapture) -> None:
        raise NotImplementedError

    def digest(self) -> str:
        return checks.tree_digest(self.out)


class PairedRun(Workload):
    """``tryonlab run`` at the default 48x36 canvas on a generated paired dataset."""

    name = "paired_48x36"
    H, W, SCENES, TRIALS = 48, 36, 8, 8
    items = 2 * TRIALS

    def setup(self) -> None:
        samples = scenes.gen_dataset(self.seed, self.SCENES, True, h=self.H, w=self.W)
        scenes.write_dataset(self.dir / "data", samples, "paired")
        self.config = self.dir / "config.json"
        _write_config(self.config, "data/manifest.json", self.H, self.W, self.TRIALS,
                      self.seed, self.out)

    def run_pass(self, checkpoint=None) -> int:
        _cli(["run", "--config", str(self.config), "--jobs", "1"])
        return self.items

    def _rows(self):
        return checks.read_csv(self.out / "trajectories.csv")

    def check(self, capture: EnergyCapture) -> None:
        rows = self._rows()
        e = SAMPLER_CONFIG["energy"]
        checks.check_trajectory_rows(rows, self.TRIALS, SAMPLER_CONFIG["sampler"]["steps"],
                                     e["lam"])
        checks.check_energies_from_fractions(rows, e["epsilon_den"])
        checks.check_summary_direction(checks.read_json(self.out / "summary.json"))


class InnerRepelFullMask(PairedRun):
    """``tryonlab run`` with every mask set to the full canvas: inner repel at every step.

    24x18 rather than 48x36. At 32x24 and above, the dense n x n
    temporaries of the inner repel are large enough that the allocator
    returns them to the system after every call, so a third of the time
    goes to page faults whose cost varies with the host. That made the
    workload's rate spread by 14% over ten runs (README.md, "Steadiness").
    At 24x18 the energy layer still takes most of the traced time.
    """

    name = "inner_repel_full_mask"
    H, W, SCENES, TRIALS = 24, 18, 4, 4
    items = 2 * TRIALS
    keep_maps = True
    calibration = "dense_pairs"

    def setup(self) -> None:
        super().setup()
        full = Grid.full(self.H, self.W, 1.0)
        manifest = json.loads((self.dir / "data" / "manifest.json").read_text(encoding="utf-8"))
        for role in ("mask", "gen_mask"):
            for rel in manifest[role]:
                grid_write(self.dir / "data" / rel, full)

    def check(self, capture: EnergyCapture) -> None:
        rows = self._rows()
        e = SAMPLER_CONFIG["energy"]
        checks.check_trajectory_rows(rows, self.TRIALS, SAMPLER_CONFIG["sampler"]["steps"],
                                     e["lam"])
        checks.check_inner_rows(rows)
        # paired_run samples every csc trial, then every baseline trial
        order = [(i, "csc") for i in range(self.TRIALS)] + \
                [(i, "baseline") for i in range(self.TRIALS)]
        if len(capture.trajectories) != len(order):
            raise checks.CheckError(
                f"{len(capture.trajectories)} trajectories captured, expected {len(order)}")
        recomputed = {
            key: [checks.inner_repel_of_call(maps, masks, e["support_tau"], e["delta"])
                  for maps, masks, _ in calls]
            for key, calls in zip(order, capture.trajectories)
        }
        checks.check_recorded_repel(rows, recomputed)


class AblationPipeline(Workload):
    """``scripts/reproduce_ablations.py`` at 24x18: gen, vtid, run, three sweeps, plot."""

    name = "ablation_24x18"
    calibration = "interpreter"
    TRIALS = 8
    # the paired run's two arms plus 7 + 6 + 3 sweep points, each of TRIALS trajectories
    items = 2 * TRIALS + (7 + 6 + 3) * TRIALS

    def setup(self) -> None:
        spec = importlib.util.spec_from_file_location("reproduce_ablations", ABLATION_SCRIPT)
        self.script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(self.script)

    def run_pass(self, checkpoint=None) -> int:
        argv = ["reproduce_ablations.py", "--out", str(self.out), "--seed", str(self.seed),
                "--trials", str(self.TRIALS), "--jobs", "1"]
        verb = self.script.cli  # the script's binding of tryonlab.cli.main

        def verb_after_checkpoint(args):
            checkpoint()
            return verb(args)

        saved, sys.argv = sys.argv, argv
        if checkpoint:
            self.script.cli = verb_after_checkpoint
        try:
            rc = self.script.main()
        finally:
            sys.argv = saved
            self.script.cli = verb
        if rc != 0:
            raise PassFailed(f"reproduce_ablations.py exited {rc}")
        return self.items

    def check(self, capture: EnergyCapture) -> None:
        checks.check_zero_vtid(checks.read_json(self.out / "bench" / "vtid.json"))
        sweeps = {kind: checks.read_csv(self.out / "sweeps" / f"sweep_{kind}.csv")
                  for kind in checks.SWEEP_GRIDS}
        checks.check_sweeps(sweeps, checks.read_json(self.out / "run" / "summary.json"))


class VtidRandom(Workload):
    """``tryonlab vtid --features random`` on composites and seeded corruptions of them."""

    name = "vtid_random_48x36"
    H, W, SCENES = 48, 36, 12
    LEVELS = (0.0, 0.01, 0.03, 0.1, 0.3)
    items = SCENES * len(LEVELS)
    # feature extractor settings: the CLI defaults, passed explicitly
    FEATURE_SEED, FEATURE_SCALES, FEATURE_CHANNELS = 0, 2, 8
    RECOMPUTED_SCENES = 2

    def setup(self) -> None:
        data = self.dir / "data"
        samples = scenes.gen_dataset(self.seed, self.SCENES, True, h=self.H, w=self.W)
        base = scenes.write_dataset(data, samples, "paired")
        noise = np.random.default_rng([self.seed, 0xC0])
        (data / "corrupt").mkdir(exist_ok=True)
        doc = {role: [] for role in scenes.DATASET_ROLES}
        self.levels = []
        for i, s in enumerate(samples):
            ref = s.reference.stack()
            for li, level in enumerate(self.LEVELS):
                for role in scenes.DATASET_ROLES:
                    doc[role].append(base[role][i])
                if level > 0.0:
                    z = noise.standard_normal(ref.shape)
                    rel = f"corrupt/{i:04d}-{li}.f64grid"
                    scene_write(data / rel,
                                SceneImage.from_stack(np.clip(ref + level * z, 0.0, 1.0)))
                    doc["generated"][-1] = rel
                self.levels.append(level)
        doc.update(split="paired", n=len(self.levels))
        self.manifest = data / "levels.json"
        self.manifest.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                                 encoding="utf-8")

    def run_pass(self, checkpoint=None) -> int:
        _cli(["vtid", "--manifest", str(self.manifest), "--features", "random",
              "--feature-seed", str(self.FEATURE_SEED),
              "--feature-scales", str(self.FEATURE_SCALES),
              "--feature-channels", str(self.FEATURE_CHANNELS), "--out", str(self.out)])
        return self.items

    def check(self, capture: EnergyCapture) -> None:
        doc = checks.read_json(self.out / "vtid.json")
        checks.check_vtid_levels(doc, self.levels)
        root = RandomStream(self.FEATURE_SEED).child("vtid-features")
        banks = [root.child(f"scale-{s}").normals(self.FEATURE_CHANNELS * 27)
                 .reshape(self.FEATURE_CHANNELS, 3, 3, 3) / 3.0
                 for s in range(1, self.FEATURE_SCALES + 1)]
        per_scene = len(self.LEVELS)
        indices = [i * per_scene + li for i in range(self.RECOMPUTED_SCENES)
                   for li, level in enumerate(self.LEVELS) if level > 0.0]
        checks.check_vtid_recomputed(doc, self.manifest, indices, banks)


WORKLOADS = {w.name: w for w in (PairedRun, InnerRepelFullMask, AblationPipeline, VtidRandom)}


def replay_peak_alloc_mb(grad_calls) -> float:
    """Peak bytes allocated by one energy-with-gradient evaluation, in MiB (max over calls)."""
    import tracemalloc

    if not grad_calls:
        return 0.0
    peak = 0
    tracemalloc.start()
    try:
        for layers, masks, cfg in grad_calls:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            energy._evaluate_layers(layers, masks, cfg, True)
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return peak / 2**20


@contextlib.contextmanager
def quiet():
    """Send the verbs' progress lines to the null device."""
    with open(os.devnull, "w", encoding="utf-8") as null, contextlib.redirect_stdout(null):
        yield
