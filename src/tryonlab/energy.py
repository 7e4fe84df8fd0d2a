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

Every energy comes from one pass, _evaluate_stack, over (K, h_l, w_l)
map stacks with one config and one mask per item. numpy takes every sum
and maximum over the whole stack; a Python loop over the items derives
each item's few scalars from those reductions, runs the inner hinge for
the items on that branch and builds the breakdowns; one np.where per
layer spreads the gradients, which are constant on and off the mask but
for the hinge cells. Each item is bit-equal to a pass on it alone. The
sampler calls it once per step for a lockstep stack; _evaluate_layers is
its K = 1 adapter over validated layers, and e_total reads that without
gradients.

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


@dataclass(frozen=True, slots=True)  # one per item and step: no __dict__
class LayerEnergy:
    e_attract: float
    e_repel: float
    branch: str
    in_mask_mass: float
    selected: bool


@dataclass(frozen=True, slots=True)  # one per item and step: no __dict__
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


class _LayerTerms(NamedTuple):
    """One layer's terms, one list entry per item of a stack. An item's
    attract gradient is d_in on its mask and d_off off it. Its repel
    gradient is -1 on the mask on the outer branch; on the inner branch it
    is 0 but at the support cells that hinge maps the item to, if any."""

    e_attract: list[float]
    e_repel: list[float]
    inner: list[bool]
    in_mask_mass: list[float]
    d_in: list[float]
    d_off: list[float]
    hinge: dict[int, tuple[np.ndarray, np.ndarray]]


def _layer_terms(
    layer_id: str, a: np.ndarray, m: np.ndarray, cfgs: list[EnergyConfig], with_grads: bool
) -> _LayerTerms:
    """Both energies, the branch, the in-mask mass and the gradient terms
    of each item of one layer's (K, h, w) map stack under its own config
    and mask; the hinge gradients only when asked. m is a (K, h, w) stack
    of one mask per item, or one (h, w) mask that every item shares. A
    stack that does not fit the masks, or holds a non-finite or negative
    value, is rejected naming the layer.

    Each item's sums run over its h w values as one flat run, the order
    numpy sums a lone map in, and its few scalars are Python floats, as
    in a pass on the item alone (they also cost less than numpy calls on
    (K,) arrays). The branch test reads maxima, not the support set: with
    thr = tau max(a), an item is inner iff its largest off-mask value is
    at most thr and thr < max(a), so that the maximum lies in the mask.
    """
    if a.ndim != 3 or m.shape not in (a.shape, a.shape[1:]):
        raise EnergyError(f"layer {layer_id}: attention shape {a.shape} != mask shape {m.shape}")
    a = a.reshape(len(a), -1)
    m = m.reshape(-1, a.shape[1])  # (K, h w), or (1, h w) for a shared mask
    a_max = a.max(axis=1).tolist()
    lo = float(a.min())
    if not (math.isfinite(lo) and all(map(math.isfinite, a_max))):
        raise EnergyError(f"layer {layer_id}: attention map is not finite")
    if lo < 0.0:
        raise EnergyError(f"layer {layer_id}: attention map has negative values")
    am = a * m
    s_in = am.sum(axis=1).tolist()
    s_tot = a.sum(axis=1).tolist()
    off = np.subtract(a, am, out=am)  # the off-mask values, 0 in the mask
    off_max = off.max(axis=1).tolist()
    e_att, e_rep, inner, d_in, d_off = [], [], [], [], []
    for c, s, tot, top, off_top in zip(cfgs, s_in, s_tot, a_max, off_max):
        s_out = tot - s
        e_att.append(s_out / max(s, c.epsilon_den))
        e_rep.append(-s)
        inner.append(off_top <= c.support_tau * top < top)
        # the attract gradient (1 - m) / S_in - S_out / S_in^2 m is, bit for
        # bit while S_out / S_in^2 is finite (see EnergyConfig), 1 / S_in off
        # the mask and 0 - S_out / S_in^2 on it; a clamped denominator is a
        # constant, so there only the numerator varies
        d_off.append(1.0 / max(s, c.epsilon_den))
        d_in.append(0.0 if s < c.epsilon_den else 0.0 - s_out / (s * s))
    hinge = {}
    # inner rows: the mean hinge over ordered distinct pairs of in-support
    # values, all of which lie in the mask
    for i, on in enumerate(inner):
        if not on:
            continue
        sel = _support_raw(a[i], cfgs[i].support_tau)
        pts = a[i][sel]
        n = pts.size
        e_rep[i] = 0.0
        if n > 1:
            e_rep[i], sign_sum = _inner_repel(pts, cfgs[i].delta)
            if with_grads:
                # an active pair (p, q) enters in both orders, each adding
                # -sign(p - q) / n at p
                hinge[i] = (sel, -2.0 * sign_sum / n)
    return _LayerTerms(e_att, e_rep, inner, s_in, d_in, d_off, hinge)


def _layer_gradient(
    t: _LayerTerms, m: np.ndarray, cfgs: list[EnergyConfig], picked: list[bool], n_sel: list[int]
) -> np.ndarray:
    """The gradient of each item's aggregate with respect to one layer's
    (K, h, w) map stack: (attract + lam * repel) / n_sel where the item
    selects the layer, else 0. m is the layer's masks as _layer_terms
    takes them.

    Away from the hinge cells both gradients are one constant on the mask
    and one off it, so each item's two values are computed once, with the
    cell-by-cell arithmetic, and spread by one np.where.
    """
    g_in, g_off = [], []
    for c, d_in, d_off, inner, on, n in zip(cfgs, t.d_in, t.d_off, t.inner, picked, n_sel):
        r_in, r_off = (0.0, 0.0) if inner else (-1.0, -0.0)  # repel: 0, or -m
        g_in.append((d_in + c.lam * r_in) / n if on else 0.0)
        g_off.append((d_off + c.lam * r_off) / n if on else 0.0)
    g_in, g_off = np.array(g_in + g_off).reshape(2, -1, 1)
    h, w = m.shape[-2:]
    g = np.where(m.reshape(-1, h * w) > 0.0, g_in, g_off)
    for i, (sel, rep) in t.hinge.items():
        if picked[i]:
            g[i][sel] = (t.d_in[i] + cfgs[i].lam * rep) / n_sel[i]
    return g.reshape(len(g), h, w)


def _evaluate_stack(
    maps: dict[str, np.ndarray],
    masks: list[np.ndarray],
    cfgs: list[EnergyConfig],
    with_grads: bool,
) -> tuple[list[EnergyBreakdown], list[np.ndarray] | None]:
    """The energy of K items at once: maps holds one (K, h_l, w_l) stack
    per layer, masks the masks at each layer's resolution, in map order,
    as one (K, h_l, w_l) stack of one per item or one (h_l, w_l) array
    that every item shares, and cfgs one config per item. Returns K
    breakdowns and, when asked, one (K, h_l, w_l) stack per layer of the
    gradient of each item's aggregate with respect to its map (zeros
    where an item does not select the layer).
    """
    if len(maps) != len(masks):
        raise EnergyError(f"{len(maps)} layers but {len(masks)} masks")
    flags = [[c.selects(layer_id) for layer_id in maps] for c in cfgs]
    n_sel = [sum(f) for f in flags]
    if 0 in n_sel:
        raise EnergyError(
            f"layer selection is empty: config {n_sel.index(0)} selects none of "
            f"the layers {', '.join(maps)}"
        )
    terms: list[_LayerTerms] = []
    grads: list[np.ndarray] | None = [] if with_grads else None
    for j, ((layer_id, a), mask) in enumerate(zip(maps.items(), masks)):
        t = _layer_terms(layer_id, a, mask, cfgs, with_grads)
        terms.append(t)
        if with_grads:
            grads.append(_layer_gradient(t, mask, cfgs, [f[j] for f in flags], n_sel))
    breakdowns = []
    for i, (cfg, f, n) in enumerate(zip(cfgs, flags, n_sel)):
        per_layer: dict[str, LayerEnergy] = {}
        att_sum = rep_sum = 0.0
        for layer_id, t, selected in zip(maps, terms, f):
            branch = BRANCH_INNER if t.inner[i] else BRANCH_OUTER
            per_layer[layer_id] = LayerEnergy(
                t.e_attract[i], t.e_repel[i], branch, t.in_mask_mass[i], selected
            )
            if selected:
                att_sum += t.e_attract[i]
                rep_sum += t.e_repel[i]
        breakdowns.append(
            EnergyBreakdown(
                per_layer=per_layer,
                total=(att_sum + cfg.lam * rep_sum) / n,
                e_attract=att_sum / n,
                e_repel=rep_sum / n,
            )
        )
    return breakdowns, grads


def _evaluate_layers(layers, masks, cfg, with_grads: bool):
    """The stacked pass on one item given as validated layers; returns
    (breakdown, grads or None), grads holding one (h_l, w_l) gradient per
    layer (zeros for an unselected layer)."""
    maps = {layer.layer_id: layer.map.a[None] for layer in layers}
    (breakdown,), grads = _evaluate_stack(maps, [m.a for m in masks], [cfg], with_grads)
    return breakdown, None if grads is None else [g[0] for g in grads]


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
