"""One workload in one fresh, single-threaded interpreter.

Started by ``run.py``; not meant to be run by hand. Prints ``ready`` as
soon as the imports are done and the inputs are written (the parent
times set-up up to that line), then, unless ``--setup-only``:

1. a first pass whose outputs are checked (untimed; it also warms caches),
2. timed passes until ``--seconds`` have been measured, each also in
   reference seconds (see ``Clock``); with ``--trace 1`` untraced and
   traced passes alternate, so both see the same machine,
3. one JSON line with the pass times, items, failures and, when traced,
   the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import tryonlab  # noqa: E402

if Path(tryonlab.__file__).resolve().parent != SRC / "tryonlab":
    sys.exit(f"tryonlab imported from {tryonlab.__file__}, not from {SRC}")

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# The shared machine this benchmark was tuned on changes speed by up to
# 1.7x over minutes and by a sixth within seconds, for every process alike.
# A calibration loop, run between the segments of a pass and involving no
# tryonlab code, measures the speed of the moment. A segment of t seconds
# between calibrations of c1 and c2 seconds counts t * REF_S / ((c1 + c2) / 2)
# reference seconds. REF_S is of the order of each loop's time on that
# machine, so reference seconds are of the order of its seconds.
# Each workload names the loop whose operations resemble its own: the
# loops are slowed by different neighbours to different degrees.


def _small_ops_block() -> None:
    """Small-array numpy operations, like the denoiser and VTID layers."""
    a = np.linspace(0.0, 1.0, 1728).reshape(48, 36)
    bank = np.ones((4, 3, 3))
    for _ in range(20):
        b = np.logaddexp(0.0, a)
        win = np.lib.stride_tricks.sliding_window_view(np.pad(b, 1), (3, 3))
        np.einsum("ijab,cab->cij", win, bank)


def _dense_pairs_block() -> None:
    """Dense 432x432 pairwise hinges, like the inner repel on a full 24x18 mask."""
    v = np.linspace(0.0, 0.004, 432)
    for _ in range(4):
        h = 0.02 - np.abs(v[:, None] - v[None, :])
        float(h[h > 0.0].sum())


def _interpreter_block() -> None:
    """Pure Python arithmetic, like the per-call overhead of many short trajectories."""
    acc = 0
    for i in range(50000):
        acc += i * i % 7


CALIBRATIONS = {
    "small_ops": _small_ops_block,
    "dense_pairs": _dense_pairs_block,
    "interpreter": _interpreter_block,
}
REF_S = 0.008


class Clock:
    """Times a pass as contiguous segments, each normalised by the calibrations around it."""

    def __init__(self, calibration: str):
        self._block = CALIBRATIONS[calibration]
        self._cal = self._calibrate()
        self._mark = time.perf_counter()
        self.raw = self.ref = 0.0

    def _calibrate(self) -> float:
        """Minimum over three blocks, so a short interruption does not count."""
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            self._block()
            best = min(best, time.perf_counter() - t0)
        return best

    def start(self) -> None:
        self.raw = self.ref = 0.0
        self._mark = time.perf_counter()

    def checkpoint(self) -> None:
        """End the current segment, calibrate, and start the next one."""
        dt = time.perf_counter() - self._mark
        cal = self._calibrate()
        self.raw += dt
        self.ref += dt * REF_S * 2.0 / (self._cal + cal)
        self._cal = cal
        self._mark = time.perf_counter()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None, help="file the traced run's spans go to")
    args = ap.parse_args()

    out = sys.stdout
    work = workloads.WORKLOADS[args.workload](args.seed, Path(args.dir))
    tracer = Tracer() if args.trace else None
    with workloads.quiet():
        if tracer:
            tracer.install()
        try:
            work.setup()
        finally:
            if tracer:
                tracer.uninstall()
    print("ready", file=out, flush=True)
    if args.setup_only:
        return 0

    attempted = failed = 0
    correct = True
    with workloads.quiet():
        capture = workloads.EnergyCapture(keep_maps=work.keep_maps)
        try:
            with capture:
                attempted += work.run_pass()
            work.check(capture)
        except workloads.PassFailed as e:
            print(f"{work.name}: {e}", file=sys.stderr)
            attempted += work.items
            failed += work.items
        except checks.CheckError as e:
            print(f"{work.name}: check failed: {e}", file=sys.stderr)
            correct = False
        reference = work.digest() if not failed else None

        untraced: list[tuple[float, float]] = []  # (seconds, reference seconds)
        traced: list[float] = []
        clock = Clock(work.calibration)
        pass_counts: Counter = Counter()
        traced_items = 0
        measured = 0.0
        n = 0
        while measured < args.seconds or n < (4 if tracer else 2):
            use_trace = tracer is not None and n % 2 == 1
            n += 1
            try:
                if use_trace:
                    before = Counter(tracer.counts)
                    tracer.install()
                    t0 = time.perf_counter()
                    try:
                        items = tracer.run_pass(work.run_pass)
                    finally:
                        dt = time.perf_counter() - t0
                        tracer.uninstall()
                    pass_counts += tracer.counts - before
                    traced_items += items
                    traced.append(dt)
                else:
                    clock.start()
                    try:
                        items = work.run_pass(clock.checkpoint)
                    finally:
                        clock.checkpoint()
                        dt = clock.raw
                    untraced.append((dt, clock.ref))
            except workloads.PassFailed as e:
                print(f"{work.name}: {e}", file=sys.stderr)
                attempted += work.items
                failed += work.items
                continue
            finally:
                measured += dt
            attempted += items
            if reference is not None and work.digest() != reference:
                print(f"{work.name}: pass {n} output differs from the first pass",
                      file=sys.stderr)
                correct = False
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "items_per_pass": work.items,
        "untraced_passes": untraced,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        peak_alloc = workloads.replay_peak_alloc_mb(capture.grad_calls)
        result["layers"] = tracer.metrics(traced_items, [dt for dt, _ in untraced], traced,
                                          pass_counts, peak_alloc)
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result), file=out, flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
