"""Per-layer spans recorded from outside the program.

The tracer wraps tryonlab's public functions at the module attribute
through which their caller looks them up (for example
``tryonlab.sampler.ancestral_step``, which ``sample`` resolves as a
global on every step) and restores the originals afterwards. Nothing in
``src/`` knows it is being traced.

Spans are kept in memory as ``(name, parent, start_ns, end_ns)`` and
written out once, at the end of the traced run. A layer's self time is
its span's duration minus the durations of its direct child spans;
children never overlap because every workload runs single-threaded.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter

import tryonlab.cli as cli
import tryonlab.denoiser as denoiser
import tryonlab.experiments as experiments
import tryonlab.grids as grids
import tryonlab.sampler as sampler
import tryonlab.scenes as scenes
import tryonlab.vtid as vtid
from tryonlab.denoiser import Condition
from tryonlab.energy import BRANCH_INNER

ROOT_SPAN = "pass"

# Per-layer metrics: (name, unit). Order is the order printed.
LAYER_METRICS = (
    ("denoiser.predict_null.us", "us"),
    ("denoiser.predict_null.calls", "count"),
    ("denoiser.predict_garment.us", "us"),
    ("denoiser.predict_garment.calls", "count"),
    ("denoiser.attention_vjp.us", "us"),
    ("denoiser.attention_vjp.calls", "count"),
    ("kernels.correlate3x3.us", "us"),
    ("kernels.correlate3x3.calls", "count"),
    ("kernels.correlate3x3_adjoint.us", "us"),
    ("kernels.correlate3x3_multi.us", "us"),
    ("kernels.softplus.us", "us"),
    ("kernels.softplus.calls", "count"),
    ("kernels.conv_gflop", "GFLOP"),
    ("energy.eval.us", "us"),
    ("energy.eval_grad.us", "us"),
    ("energy.calls", "count"),
    ("energy.eval_grad.peak_alloc_mb", "MB"),
    ("energy.inner_share", "ratio"),
    ("sampler.step.self_us", "us"),
    ("sampler.ancestral_step.us", "us"),
    ("sampler.steps", "count"),
    ("rng.gaussian_field.us", "us"),
    ("rng.gaussian_field.calls", "count"),
    ("grids.grid_objects", "count"),
    ("grids.grid_read.us", "us"),
    ("grids.grid_write.us", "us"),
    ("vtid.vtid_score.us", "us"),
    ("vtid.features.us", "us"),
    ("vtid.features.calls", "count"),
    ("scenes.gen_dataset.ms", "ms"),
    ("scenes.write_dataset.ms", "ms"),
    ("experiments.load_dataset.ms", "ms"),
    ("cli.gen.s", "s"),
    ("cli.vtid.s", "s"),
    ("cli.run.s", "s"),
    ("cli.sweep.s", "s"),
    ("cli.plot.s", "s"),
    ("plotting.plot_all.ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.layer_sum_pct", "%"),
)

# metric -> (span name, scale from ns, how): "self" is mean self time per
# call, "incl" mean inclusive time per call, "calls" calls per work item.
_SPAN_METRICS = {
    "denoiser.predict_null.us": ("denoiser.predict_null", 1e-3, "self"),
    "denoiser.predict_null.calls": ("denoiser.predict_null", None, "calls"),
    "denoiser.predict_garment.us": ("denoiser.predict_garment", 1e-3, "self"),
    "denoiser.predict_garment.calls": ("denoiser.predict_garment", None, "calls"),
    "denoiser.attention_vjp.us": ("denoiser.attention_vjp", 1e-3, "self"),
    "denoiser.attention_vjp.calls": ("denoiser.attention_vjp", None, "calls"),
    "kernels.correlate3x3.us": ("kernels.correlate3x3", 1e-3, "self"),
    "kernels.correlate3x3.calls": ("kernels.correlate3x3", None, "calls"),
    "kernels.correlate3x3_adjoint.us": ("kernels.correlate3x3_adjoint", 1e-3, "self"),
    "kernels.correlate3x3_multi.us": ("kernels.correlate3x3_multi", 1e-3, "self"),
    "kernels.softplus.us": ("kernels.softplus", 1e-3, "self"),
    "kernels.softplus.calls": ("kernels.softplus", None, "calls"),
    "energy.eval.us": ("energy.eval", 1e-3, "self"),
    "energy.eval_grad.us": ("energy.eval_grad", 1e-3, "self"),
    "sampler.ancestral_step.us": ("sampler.ancestral_step", 1e-3, "self"),
    "sampler.steps": ("sampler.ancestral_step", None, "calls"),
    "rng.gaussian_field.us": ("rng.gaussian_field", 1e-3, "self"),
    "rng.gaussian_field.calls": ("rng.gaussian_field", None, "calls"),
    "grids.grid_read.us": ("grids.grid_read", 1e-3, "self"),
    "grids.grid_write.us": ("grids.grid_write", 1e-3, "self"),
    "vtid.vtid_score.us": ("vtid.vtid_score", 1e-3, "self"),
    "vtid.features.us": ("vtid.features", 1e-3, "self"),
    "vtid.features.calls": ("vtid.features", None, "calls"),
    "scenes.gen_dataset.ms": ("scenes.gen_dataset", 1e-6, "self"),
    "scenes.write_dataset.ms": ("scenes.write_dataset", 1e-6, "self"),
    "experiments.load_dataset.ms": ("experiments.load_dataset", 1e-6, "self"),
    "cli.gen.s": ("cli.gen", 1e-9, "incl"),
    "cli.vtid.s": ("cli.vtid", 1e-9, "incl"),
    "cli.run.s": ("cli.run", 1e-9, "incl"),
    "cli.sweep.s": ("cli.sweep", 1e-9, "incl"),
    "cli.plot.s": ("cli.plot", 1e-9, "incl"),
    "plotting.plot_all.ms": ("plotting.plot_all", 1e-6, "self"),
}


class Tracer:
    """In-memory span recorder plus the counters measured at the same boundaries."""

    def __init__(self):
        self.spans: list = []  # (name, parent index or -1, start_ns, end_ns)
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1]
        stack.append(idx)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            spans[idx] = (name, parent, t0, t1)

    def wrap(self, name: str, fn):
        call = self.call

        def traced(*args, **kwargs):
            return call(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def run_pass(self, fn):
        """Run one pass as a root span."""
        return self.call(ROOT_SPAN, fn)

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _bind(self, owners, attr: str, wrapper) -> None:
        """Replace ``attr`` on every owner module by ``wrapper(original)``."""
        original = getattr(owners[0], attr)
        traced = wrapper(original)
        for owner in owners:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{owner.__name__}.{attr} is not the expected binding")
            self._set(owner, attr, traced)

    def _span(self, name: str):
        return lambda fn: self.wrap(name, fn)

    def install(self) -> None:
        """Patch every traced binding; uninstall() restores them."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        t, span = self, self._span
        self._bind([denoiser], "correlate3x3", self._conv(
            "kernels.correlate3x3", lambda x, bank: 18 * bank.shape[0] * x.size))
        self._bind([denoiser], "correlate3x3_adjoint", self._conv(
            "kernels.correlate3x3_adjoint", lambda dz, bank: 18 * dz.size))
        self._bind([vtid], "correlate3x3_multi", self._conv(
            "kernels.correlate3x3_multi", lambda x, bank: 18 * bank.shape[0] * x.size))
        self._bind([denoiser, vtid], "softplus", span("kernels.softplus"))
        self._bind([sampler], "ancestral_step", span("sampler.ancestral_step"))
        self._bind([sampler], "gaussian_field", span("rng.gaussian_field"))
        self._bind([sampler], "_evaluate_layers", self._energy)
        self._bind([sampler], "e_total", self._energy_total)
        self._bind([experiments], "run_sampler", span("sampler.sample"))
        self._bind([grids, vtid, experiments], "grid_read", span("grids.grid_read"))
        self._bind([grids, vtid, scenes], "grid_write", span("grids.grid_write"))
        self._bind([cli, experiments], "vtid_score", span("vtid.vtid_score"))
        self._bind([cli, scenes], "gen_dataset", span("scenes.gen_dataset"))
        self._bind([cli, scenes], "write_dataset", span("scenes.write_dataset"))
        self._bind([cli], "load_dataset", span("experiments.load_dataset"))
        self._bind([cli], "plot_all", span("plotting.plot_all"))
        for verb in ("gen", "vtid", "run", "sweep", "plot"):
            self._bind([cli], f"cmd_{verb}", span(f"cli.{verb}"))
        self._bind([cli], "build_model", lambda build: lambda cfg: _TracedModel(build(cfg), t))
        traced_extractor = lambda make: lambda *a, **k: _TracedExtractor(make(*a, **k), t)  # noqa: E731
        self._bind([cli, experiments], "pixel_extractor", traced_extractor)
        self._bind([cli], "random_feature_extractor", traced_extractor)
        grid_init = grids.Grid.__init__
        counts = self.counts

        def counted_init(obj, *args, **kwargs):
            counts["grid_objects"] += 1
            grid_init(obj, *args, **kwargs)

        self._set(grids.Grid, "__init__", counted_init)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _conv(self, name: str, flops):
        counts = self.counts

        def make(fn):
            traced = self.wrap(name, fn)

            def conv(x, bank):
                counts["conv_flop"] += flops(x, bank)
                return traced(x, bank)

            return conv

        return make

    def _count_branches(self, breakdown) -> None:
        for layer in breakdown.per_layer.values():
            self.counts["energy_layers"] += 1
            self.counts["energy_inner_layers"] += layer.branch == BRANCH_INNER

    def _energy(self, fn):
        def evaluate(layers, masks, cfg, with_grads):
            name = "energy.eval_grad" if with_grads else "energy.eval"
            result = self.call(name, fn, layers, masks, cfg, with_grads)
            self._count_branches(result[0])
            return result

        return evaluate

    def _energy_total(self, fn):
        def total(layers, masks, cfg):
            result = self.call("energy.eval", fn, layers, masks, cfg)
            self._count_branches(result)
            return result

        return total

    # -- output ------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("index,name,parent,start_ns,end_ns\n")
            for i, (name, parent, t0, t1) in enumerate(self.spans):
                f.write(f"{i},{name},{parent},{t0},{t1}\n")

    def metrics(self, items: int, untraced_pass_s: list[float], traced_pass_s: list[float],
                counts_in_passes: Counter, peak_alloc_mb: float) -> dict[str, dict]:
        """Per-layer metrics of the traced passes (and traced set-up, for set-up layers).

        ``items`` is the number of work items in the traced passes; call
        counts are per item so they do not depend on run length.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        root = [-1] * len(spans)  # index of the enclosing pass span, -1 outside passes
        for i, (name, parent, t0, t1) in enumerate(spans):
            if parent >= 0:
                child_ns[parent] += t1 - t0
                root[i] = root[parent]
            elif name == ROOT_SPAN:
                root[i] = i
        in_pass = [r >= 0 for r in root]
        self_ns: Counter = Counter()
        incl_ns: Counter = Counter()
        calls: Counter = Counter()
        pass_calls: Counter = Counter()
        for i, (name, parent, t0, t1) in enumerate(spans):
            self_ns[name] += t1 - t0 - child_ns[i]
            incl_ns[name] += t1 - t0
            calls[name] += 1
            pass_calls[name] += in_pass[i]

        out: dict[str, float] = {}
        for metric, (span, scale, how) in _SPAN_METRICS.items():
            if how == "calls":
                out[metric] = pass_calls[span] / items
            elif calls[span]:
                total = self_ns[span] if how == "self" else incl_ns[span]
                out[metric] = total * scale / calls[span]
            else:
                out[metric] = 0.0
        steps = pass_calls["sampler.ancestral_step"]
        out["sampler.step.self_us"] = (
            self_ns["sampler.sample"] * 1e-3 / steps if steps else 0.0
        )
        out["energy.calls"] = (pass_calls["energy.eval"] + pass_calls["energy.eval_grad"]) / items
        layers = counts_in_passes["energy_layers"]
        out["energy.inner_share"] = (
            counts_in_passes["energy_inner_layers"] / layers if layers else 0.0
        )
        out["energy.eval_grad.peak_alloc_mb"] = peak_alloc_mb
        out["kernels.conv_gflop"] = counts_in_passes["conv_flop"] / items * 1e-9
        out["grids.grid_objects"] = counts_in_passes["grid_objects"] / items

        untraced = statistics.median(untraced_pass_s)
        traced = statistics.median(traced_pass_s)
        out["trace.overhead_pct"] = (traced / untraced - 1.0) * 100.0
        # the self times of every span inside a pass but the pass root's,
        # median over passes, against the untraced median pass
        attributed: Counter = Counter()
        for i, (name, parent, t0, t1) in enumerate(spans):
            if root[i] >= 0 and name != ROOT_SPAN:
                attributed[root[i]] += t1 - t0 - child_ns[i]
        per_pass = [attributed[i] for i in range(len(spans)) if root[i] == i]
        out["trace.layer_sum_pct"] = statistics.median(per_pass) * 1e-9 / untraced * 100.0
        return {name: {"value": out[name], "unit": unit} for name, unit in LAYER_METRICS}


class _TracedModel:
    """The model handed to ``sample``, with its two contract methods traced."""

    def __init__(self, model, tracer: Tracer):
        self._model = model
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._model, name)

    def predict(self, x, t, cond):
        name = "denoiser.predict_null" if cond is Condition.NULL else "denoiser.predict_garment"
        return self._tracer.call(name, self._model.predict, x, t, cond)

    def attention_vjp(self, x, t, cond, grad_layers):
        return self._tracer.call(
            "denoiser.attention_vjp", self._model.attention_vjp, x, t, cond, grad_layers
        )


class _TracedExtractor:
    """A VTID feature extractor whose ``features`` calls are traced."""

    def __init__(self, fx, tracer: Tracer):
        self._fx = fx
        self._tracer = tracer

    def features(self, image):
        return self._tracer.call("vtid.features", self._fx.features, image)
