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
"""

from __future__ import annotations

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
    "support",
    "e_attract",
    "grad_e_attract",
    "e_repel",
    "grad_e_repel",
    "e_total",
    "grad_e_total",
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
    epsilon_den clamps the attract denominator. layer_select = None means
    every provided layer participates in the aggregate.
    """

    lam: float = 0.01
    delta: float = 0.02
    support_tau: float = 0.01
    epsilon_den: float = 1e-8
    layer_select: frozenset[str] | None = None

    def __post_init__(self):
        if self.lam < 0 or self.delta < 0:
            raise EnergyError("lam and delta must be >= 0")
        if not 0.0 < self.support_tau < 1.0:
            raise EnergyError("support_tau must be in (0, 1)")
        if self.epsilon_den <= 0.0:
            raise EnergyError("epsilon_den must be > 0")
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


def support(A: Grid, tau: float) -> BinaryMask:
    """Positions where A exceeds tau * max(A); empty for an all-zero map."""
    return BinaryMask(Grid(_support_raw(A.a, tau).astype(np.float64), _checked=True))


class _LayerEval(NamedTuple):
    e_attract: float
    e_repel: float
    branch: str
    in_mask_mass: float
    grad_attract: np.ndarray | None
    grad_repel: np.ndarray | None


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
        # At most two n x n float arrays are alive at once: they are built in
        # place, and d is freed before the hinge is compacted. A larger peak
        # passes the allocator's trim threshold, so it is returned to the
        # system after every call and page-faulted in again on the next.
        d = pts[:, None] - pts[None, :]
        h = np.abs(d)
        np.subtract(cfg.delta, h, out=h)
        np.fill_diagonal(h, 0.0)
        active = h > 0.0  # exactly |d| < delta off the diagonal
        if with_grads:
            # pair (p, q) adds -sign/N at p and +sign/N at q; summing both
            # orderings doubles the one-sided row sum
            np.sign(d, out=d)
            d *= active
            grad_rep[sel] = -2.0 * d.sum(axis=1) / n
        del d
        e_rep = float(h[active].sum()) / n
    return _LayerEval(e_att, e_rep, BRANCH_INNER, s_in, grad_att, grad_rep)


def e_attract(A: Grid, M: BinaryMask, cfg: EnergyConfig = EnergyConfig()) -> float:
    """Attention mass outside the mask over (clamped) mass inside it."""
    return _evaluate(A.a, M.a, cfg, False).e_attract


def grad_e_attract(A: Grid, M: BinaryMask, cfg: EnergyConfig = EnergyConfig()) -> Grid:
    return Grid(_evaluate(A.a, M.a, cfg, True).grad_attract, _checked=True)


def e_repel(A: Grid, M: BinaryMask, cfg: EnergyConfig = EnergyConfig()) -> tuple[float, str]:
    """Branch-selected repel energy: inner iff the support is nonempty and
    entirely inside the mask, else outer (negative in-mask mass)."""
    layer = _evaluate(A.a, M.a, cfg, False)
    return layer.e_repel, layer.branch


def grad_e_repel(A: Grid, M: BinaryMask, cfg: EnergyConfig = EnergyConfig()) -> Grid:
    return Grid(_evaluate(A.a, M.a, cfg, True).grad_repel, _checked=True)


def _evaluate_layers(layers, masks, cfg, with_grads: bool):
    """Shared per-layer evaluation; returns (breakdown, grads or None)."""
    if len(layers) != len(masks):
        raise EnergyError(f"{len(layers)} layers but {len(masks)} masks")
    flags = [cfg.selects(layer.layer_id) for layer in layers]
    n_sel = sum(flags)
    if n_sel == 0:
        raise EnergyError("layer selection is empty")
    per_layer: dict[str, LayerEnergy] = {}
    grads: list[Grid] | None = [] if with_grads else None
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
                grads.append(Grid(g / n_sel, _checked=True))
            else:
                grads.append(Grid.zeros(*layer.resolution))
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


def grad_e_total(
    layers: list[AttentionLayer],
    masks: list[BinaryMask],
    cfg: EnergyConfig = EnergyConfig(),
) -> list[Grid]:
    """Gradient of e_total's aggregate w.r.t. each layer's map.

    Entries align with the input layer order; unselected layers get zero
    grids.
    """
    _, grads = _evaluate_layers(layers, masks, cfg, with_grads=True)
    return grads
