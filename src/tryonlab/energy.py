"""Attract/repel energies over attention maps and their analytic gradients.

The attract term penalises attention mass outside a region mask relative
to the mass inside it. The repel term has two branches: when the
(thresholded) support of the map lies entirely inside the mask, a pairwise
hinge spaces the in-mask values apart; otherwise a linear term rewards
total in-mask mass. Per-layer energies combine as attract + lam * repel
and aggregate across selected layers by arithmetic mean.

Gradients treat the support set, the pair count, and a clamped
denominator as constants: they are discontinuous in the map, so only the
smooth factors are differentiated.

The sampler reaches every energy through one per-layer pass,
_evaluate_layers, at each step; e_total reads it without gradients.

The inner hinge never forms the n x n pair matrix. It sorts the n
in-support values and reads the active pairs off searchsorted cuts, in
O(n log n) time and O(n) memory. A pair (p, q) is active exactly when
fl(|p - q|) < delta, the test a dense pairwise pass makes, so the
gradient is the dense one bit for bit. The energy is summed through exact
prefix sums and lies within (n - 1) eps delta (plus a relative log2(n) eps)
of the exact hinge mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grids import BinaryMask, Grid

__all__ = [
    "AttentionLayer",
    "EnergyConfig",
    "LayerEnergy",
    "EnergyBreakdown",
    "EnergyError",
    "e_total",
]

BRANCH_INNER = "inner"
BRANCH_OUTER = "outer"


class EnergyError(ValueError):
    """Invalid energy evaluation (shape mismatch, empty selection, ...)."""


@dataclass(frozen=True)
class AttentionLayer:
    """One attention map at a named layer; values non-negative."""

    layer_id: str
    map: Grid

    def __post_init__(self):
        if float(self.map.a.min()) < 0.0:
            raise EnergyError(f"layer {self.layer_id}: attention map has negative values")

    @property
    def resolution(self) -> tuple[int, int]:
        return self.map.shape


@dataclass(frozen=True)
class EnergyConfig:
    """All knobs of the region energy in one record.

    lam weights the repel term, delta is the hinge margin, support_tau is
    the relative threshold defining the nonzero support of a map, and
    epsilon_den clamps the attract denominator (2 / epsilon_den^2 must be
    finite: the gradient divides S_out, about 1, by S_in^2). layer_select =
    None means every provided layer participates in the aggregate.
    """

    lam: float = 0.01
    delta: float = 0.02
    support_tau: float = 0.01
    epsilon_den: float = 1e-8
    layer_select: frozenset[str] | None = None

    def __post_init__(self):
        if not (0.0 <= self.lam < math.inf and 0.0 <= self.delta < math.inf):
            raise EnergyError("lam and delta must be finite and >= 0")
        if not 0.0 < self.support_tau < 1.0:
            raise EnergyError("support_tau must be in (0, 1)")
        if not 0.0 < self.epsilon_den < math.inf:
            raise EnergyError("epsilon_den must be finite and > 0")
        square = float(self.epsilon_den * self.epsilon_den)
        if square == 0.0 or 2.0 / square == math.inf:
            raise EnergyError(
                f"epsilon_den {self.epsilon_den!r} is so small that 2 / epsilon_den^2 overflows"
            )
        if self.layer_select is not None:
            object.__setattr__(self, "layer_select", frozenset(self.layer_select))

    def selects(self, layer_id: str) -> bool:
        return self.layer_select is None or layer_id in self.layer_select


@dataclass(frozen=True)
class LayerEnergy:
    e_attract: float
    e_repel: float
    branch: str
    in_mask_mass: float
    selected: bool


@dataclass(frozen=True)
class EnergyBreakdown:
    """Per-layer energies plus the aggregate over selected layers."""

    per_layer: dict[str, LayerEnergy]
    total: float
    e_attract: float
    e_repel: float

    @property
    def branch_label(self) -> str:
        return "|".join(le.branch for le in self.per_layer.values() if le.selected)

    @property
    def in_mask_fraction(self) -> dict[str, float]:
        """In-mask attention mass of every layer, selected or not."""
        return {lid: le.in_mask_mass for lid, le in self.per_layer.items()}


def _support_raw(a: np.ndarray, tau: float) -> np.ndarray:
    return a > tau * a.max()


class _LayerEval(NamedTuple):
    e_attract: float
    e_repel: float
    branch: str
    in_mask_mass: float
    grad_attract: np.ndarray | None
    grad_repel: np.ndarray | None


def _inner_repel(pts: np.ndarray, delta: float) -> tuple[float, np.ndarray]:
    """Mean hinge over the ordered distinct pairs of pts (n > 1), and each
    point's sign sum: its active partners below it minus those above it.

    A pair is active iff fl(|p - q|) < delta, the dense pairwise test. In
    sorted order s that test, fl(s_j - s_i) < delta, is monotone in j, so
    the active partners above s_i are the points up to a cut hi_i. Sorting,
    searchsorted cuts and prefix sums take O(n log n) time and O(n) memory.
    The counts are exact. The energy is 2/n sum_i (c_i delta - w_i), with
    c_i active partners above i and w_i the sum of their s_j - s_i.
    Rounding c_i delta, w_i and their difference costs at most eps c_i
    delta per term, so the energy is within (n - 1) eps delta of the exact
    hinge mean, plus a relative log2(n) eps from the final sum.
    """
    n = pts.size
    order = np.argsort(pts)
    s = pts[order]
    idx = np.arange(n)
    # [tie_start, tie_end) is the run of values equal to each point
    tie_start = np.searchsorted(s, s)
    tie_end = np.searchsorted(s, s, side="right")
    # The cut hi_i = #{j: s_j < x}, x = fl(s_i + delta), can disagree with
    # the dense test fl(s_j - s_i) < delta on two runs only. An active s_j
    # is at most x, so only the run of x can be active above the cut. An
    # inactive s_j has s_j - s_i >= delta minus half the gap below delta,
    # so s_j >= x - gap below x: only the run of pred(x) can be inactive
    # below the cut. One step each way, by a whole tie run, moves the cut
    # onto the dense active set; at either end the clamped j leaves hi as
    # it is.
    hi = np.searchsorted(s, s + delta)
    j = np.minimum(hi, n - 1)
    hi = np.where(s[j] - s < delta, tie_end[j], hi)
    j = np.maximum(hi - 1, 0)
    hi = np.where(s[j] - s >= delta, tie_start[j], hi)
    # hi is non-decreasing, so the active partners below point k are the
    # points from lo_k, the first i with hi_i > k, up to k's tie start
    lo = np.searchsorted(hi, idx, side="right")
    sign_sum = np.empty(n)
    sign_sum[order] = np.maximum(tie_start - lo, 0) - np.maximum(hi - tie_end, 0)
    # w_i = sum_{i<j<=last_i} (s_j - s_i). Plain prefix sums of s would
    # cancel here and lose up to n eps max(s) per term, so s = coarse +
    # fine, with coarse a multiple of a power of two q: every coarse sum
    # and c_i * coarse_i stays below 2^53 q and is exact, and the fine
    # parts are below q / 2.
    last = np.maximum(hi - 1, idx)  # hi <= i only when delta = 0
    c = last - idx
    q = math.ldexp(1.0, max(math.frexp(2.0 * n * s[-1])[1] - 53, -1074))
    coarse = np.rint(s / q) * q
    fine = s - coarse
    pc, pf = np.cumsum(coarse), np.cumsum(fine)
    window = (pc[last] - pc - c * coarse) + (pf[last] - pf - c * fine)
    hinge = c * delta - window
    return 2.0 * float(hinge.sum()) / n, sign_sum


def _evaluate(a: np.ndarray, m: np.ndarray, cfg: EnergyConfig, with_grads: bool) -> _LayerEval:
    """Both energies of one map, its branch, its in-mask mass and, when
    asked, both gradients; every shared quantity is computed once."""
    if a.shape != m.shape:
        raise EnergyError(f"attention shape {a.shape} != mask shape {m.shape}")
    eps = cfg.epsilon_den
    s_in = float((a * m).sum())
    s_out = float(a.sum()) - s_in
    e_att = s_out / max(s_in, eps)
    grad_att = grad_rep = None
    if with_grads:
        if s_in < eps:
            # clamped denominator is a constant: only the numerator varies
            grad_att = (1.0 - m) / eps
        else:
            grad_att = (1.0 - m) / s_in - (s_out / (s_in * s_in)) * m

    sup = _support_raw(a, cfg.support_tau)
    inside = m > 0.0
    sel = sup & inside
    if (sup & ~inside).any() or not sel.any():
        if with_grads:
            grad_rep = -m
        return _LayerEval(e_att, -s_in, BRANCH_OUTER, s_in, grad_att, grad_rep)

    # inner: mean hinge over ordered distinct pairs of in-support values
    pts = a[sel]
    n = pts.size
    e_rep = 0.0
    if with_grads:
        grad_rep = np.zeros_like(a)
    if n > 1:
        e_rep, sign_sum = _inner_repel(pts, cfg.delta)
        if with_grads:
            # an active pair (p, q) enters in both orders, each adding
            # -sign(p - q) / n at p
            grad_rep[sel] = -2.0 * sign_sum / n
    return _LayerEval(e_att, e_rep, BRANCH_INNER, s_in, grad_att, grad_rep)


def _evaluate_layers(layers, masks, cfg, with_grads: bool):
    """Shared per-layer evaluation; returns (breakdown, grads or None).

    grads holds one ndarray per layer, the gradient of the aggregate with
    respect to that layer's map (zeros for an unselected layer).
    """
    if len(layers) != len(masks):
        raise EnergyError(f"{len(layers)} layers but {len(masks)} masks")
    flags = [cfg.selects(layer.layer_id) for layer in layers]
    n_sel = sum(flags)
    if n_sel == 0:
        raise EnergyError("layer selection is empty")
    per_layer: dict[str, LayerEnergy] = {}
    grads: list[np.ndarray] | None = [] if with_grads else None
    att_sum = rep_sum = 0.0
    for layer, mask, selected in zip(layers, masks, flags):
        ev = _evaluate(layer.map.a, mask.a, cfg, with_grads and selected)
        per_layer[layer.layer_id] = LayerEnergy(
            ev.e_attract, ev.e_repel, ev.branch, ev.in_mask_mass, selected
        )
        if selected:
            att_sum += ev.e_attract
            rep_sum += ev.e_repel
        if with_grads:
            if selected:
                g = ev.grad_attract + cfg.lam * ev.grad_repel
                grads.append(g / n_sel)
            else:
                grads.append(np.zeros(layer.resolution))
    breakdown = EnergyBreakdown(
        per_layer=per_layer,
        total=(att_sum + cfg.lam * rep_sum) / n_sel,
        e_attract=att_sum / n_sel,
        e_repel=rep_sum / n_sel,
    )
    return breakdown, grads


def e_total(
    layers: list[AttentionLayer],
    masks: list[BinaryMask],
    cfg: EnergyConfig = EnergyConfig(),
) -> EnergyBreakdown:
    """Per-layer attract + lam * repel, averaged over selected layers.

    Unselected layers are reported in the breakdown but excluded from the
    aggregate. Masks must already be at each layer's resolution.
    """
    breakdown, _ = _evaluate_layers(layers, masks, cfg, with_grads=False)
    return breakdown
