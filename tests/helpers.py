"""Shared builders and independent oracles used across test modules.

Everything here recomputes results from first principles (scalar loops,
explicit formulas) so the vectorized library code is checked against a
second, unrelated implementation.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

import math
from typing import NamedTuple

from tryonlab import (
    AttentionLayer,
    BinaryMask,
    Condition,
    DatasetSample,
    Grid,
    ModelError,
    RandomStream,
    SceneImage,
    VtidReport,
    draw_noise,
    eps_to_score,
    gaussian_field,
    pixel_extractor,
    resample_mask,
    sample,
)
from tryonlab.energy import (
    BRANCH_INNER,
    BRANCH_OUTER,
    EnergyBreakdown,
    EnergyError,
    LayerEnergy,
    _inner_repel,
    _layer_terms,
)
from tryonlab.experiments import _SWEPT_METRICS, FINAL_METRICS, SWEEPS, _toy_vtid
from tryonlab.grids import warp_array
from tryonlab.sampler import StepEntry, TrajectoryRecord, _stride_ts

# Central differences resolve a derivative to roughly eps_machine * |E| / h.
# Below this floor both sides are numerical zero and the relative error is
# meaningless.
FD_FLOOR = 1e-8


def softmax_map(rng: RandomStream, h: int, w: int) -> Grid:
    """Random softmax-normalized attention map."""
    z = rng.normals(h * w).reshape(h, w)
    e = np.exp(z - z.max())
    return Grid(e / e.sum())


def random_mask(rng: RandomStream, h: int, w: int, p: float = 0.5) -> BinaryMask:
    """Random 0/1 mask guaranteed to contain both values."""
    m = (rng.uniforms(h * w).reshape(h, w) < p).astype(np.float64)
    m.flat[0] = 1.0
    m.flat[-1] = 0.0
    return BinaryMask(Grid(m))


def rect_mask(h: int, w: int, top: int, left: int, rh: int, rw: int) -> BinaryMask:
    m = np.zeros((h, w))
    m[top : top + rh, left : left + rw] = 1.0
    return BinaryMask(Grid(m))


def inner_case(rng: RandomStream, h: int, w: int) -> tuple[Grid, BinaryMask]:
    """(A, M) whose thresholded support lies strictly inside the mask.

    In-mask raw values are O(1); everything outside sits two decades below
    the support threshold, so perturbations of size ~1e-6 cannot flip the
    support set and the inner repel branch is stable under differencing.
    """
    top = 1 + int(rng.integers(1, 0, max(1, h - 6))[0])
    left = 1 + int(rng.integers(1, 0, max(1, w - 6))[0])
    rh = 3 + int(rng.integers(1, 0, 3)[0])
    rw = 3 + int(rng.integers(1, 0, 3)[0])
    rh = min(rh, h - top - 1)
    rw = min(rw, w - left - 1)
    mask = rect_mask(h, w, top, left, rh, rw)
    raw = np.full((h, w), 1e-4)
    raw[mask.a > 0] = 1.0 + rng.uniforms(rh * rw)
    return Grid(raw / raw.sum()), mask


def fd_scalar(fn, A: Grid, i: int, j: int, h: float) -> float:
    """Central difference of a scalar energy in the (i, j) attention entry."""
    up = A.a.copy()
    dn = A.a.copy()
    up[i, j] += h
    dn[i, j] -= h
    return (fn(Grid(up)) - fn(Grid(dn))) / (2.0 * h)


def fd_rel_err(analytic: float, fd: float) -> float:
    """Relative error with an absolute noise floor for numerical zeros."""
    denom = max(abs(analytic), abs(fd))
    if denom < FD_FLOOR:
        return 0.0
    return abs(analytic - fd) / denom


def hinge_safe(values: np.ndarray, idx: int, delta: float, h: float) -> bool:
    """True when point idx of the in-support value vector sits at least
    10h from every hinge kink: both the |d| = delta boundary and the
    d = 0 kink of the absolute value."""
    others = np.delete(values, idx)
    if others.size == 0:
        return True
    d = np.abs(values[idx] - others)
    return bool((np.abs(d - delta) >= 10 * h).all() and (d >= 10 * h).all())


def support_raw(a: np.ndarray, tau: float) -> np.ndarray:
    """The support of a map: its entries above tau times its maximum."""
    return a > tau * a.max()


def dense_inner_repel(pts: np.ndarray, delta: float) -> tuple[float, np.ndarray]:
    """Inner repel by the dense n x n pairwise pass: the mean hinge over
    ordered distinct pairs of pts, and its gradient w.r.t. each point."""
    n = pts.size
    d = pts[:, None] - pts[None, :]
    h = np.abs(d)
    np.subtract(delta, h, out=h)
    np.fill_diagonal(h, 0.0)
    active = h > 0.0  # exactly |d| < delta off the diagonal
    # pair (p, q) adds -sign/N at p and +sign/N at q; summing both
    # orderings doubles the one-sided row sum
    grad = -2.0 * (np.sign(d) * active).sum(axis=1) / n
    return float(h[active].sum()) / n, grad


class LayerEval(NamedTuple):
    e_attract: float
    e_repel: float
    branch: str
    in_mask_mass: float
    grad_attract: np.ndarray | None
    grad_repel: np.ndarray | None


def energy_of(a: np.ndarray, m: np.ndarray, cfg, with_grads: bool) -> LayerEval:
    """The library's stacked layer pass run on the lone (h, w) map a, with
    its validation, as one LayerEval: the attract gradient spread from its
    in-mask and off-mask values, the repel gradient -m on the outer branch
    and the pass's hinge values on the inner one."""
    t = _layer_terms("test", a[None], m, [cfg], with_grads)
    branch = BRANCH_INNER if t.inner[0] else BRANCH_OUTER
    grad_att = grad_rep = None
    if with_grads:
        grad_att = np.where(m > 0.0, t.d_in[0], t.d_off[0])
        grad_rep = np.zeros(a.shape) if t.inner[0] else -m
        if 0 in t.hinge:
            sel, rep = t.hinge[0]
            grad_rep.reshape(-1)[sel] = rep
    return LayerEval(
        t.e_attract[0], t.e_repel[0], branch, t.in_mask_mass[0], grad_att, grad_rep
    )


def evaluate_item(a: np.ndarray, m: np.ndarray, cfg, with_grads: bool) -> LayerEval:
    """Both energies of one (h, w) map, its branch, its in-mask mass and,
    when asked, both gradients, with scalar arithmetic on the lone map:
    the per-item oracle of energy._evaluate_stack. Its inner hinge is the
    library's _inner_repel, which has its own dense oracle."""
    if a.shape != m.shape:
        raise EnergyError(f"attention shape {a.shape} != mask shape {m.shape}")
    eps = cfg.epsilon_den
    s_in = float((a * m).sum())
    s_out = float(a.sum()) - s_in
    e_att = s_out / max(s_in, eps)
    grad_att = grad_rep = None
    if with_grads:
        if s_in < eps:
            grad_att = (1.0 - m) / eps
        else:
            grad_att = (1.0 - m) / s_in - (s_out / (s_in * s_in)) * m

    sup = support_raw(a, cfg.support_tau)
    inside = m > 0.0
    sel = sup & inside
    if (sup & ~inside).any() or not sel.any():
        if with_grads:
            grad_rep = -m
        return LayerEval(e_att, -s_in, BRANCH_OUTER, s_in, grad_att, grad_rep)

    pts = a[sel]
    n = pts.size
    e_rep = 0.0
    if with_grads:
        grad_rep = np.zeros_like(a)
    if n > 1:
        e_rep, sign_sum = _inner_repel(pts, cfg.delta, with_grads)
        if with_grads:
            grad_rep[sel] = -2.0 * sign_sum / n
    return LayerEval(e_att, e_rep, BRANCH_INNER, s_in, grad_att, grad_rep)


def evaluate_layers_per_item(layers, masks, cfg, with_grads: bool):
    """(breakdown, grads or None) of one item's layers, one evaluate_item
    call per layer: the per-item oracle of energy._evaluate_layers."""
    if len(layers) != len(masks):
        raise EnergyError(f"{len(layers)} layers but {len(masks)} masks")
    flags = [cfg.selects(layer.layer_id) for layer in layers]
    n_sel = sum(flags)
    if n_sel == 0:
        raise EnergyError("layer selection is empty")
    per_layer = {}
    grads = [] if with_grads else None
    att_sum = rep_sum = 0.0
    for layer, mask, selected in zip(layers, masks, flags):
        ev = evaluate_item(layer.map.a, mask.a, cfg, with_grads and selected)
        per_layer[layer.layer_id] = LayerEnergy(
            ev.e_attract, ev.e_repel, ev.branch, ev.in_mask_mass, selected
        )
        if selected:
            att_sum += ev.e_attract
            rep_sum += ev.e_repel
        if with_grads:
            if selected:
                grads.append((ev.grad_attract + cfg.lam * ev.grad_repel) / n_sel)
            else:
                grads.append(np.zeros(layer.map.shape))
    breakdown = EnergyBreakdown(
        per_layer=per_layer,
        total=(att_sum + cfg.lam * rep_sum) / n_sel,
        e_attract=att_sum / n_sel,
        e_repel=rep_sum / n_sel,
    )
    return breakdown, grads


def im2col_slices(x: np.ndarray) -> np.ndarray:
    """(K, ..., h, w) -> (9 K, n h w), the im2col layout built from nine
    strided slice copies of the zero-padded input: row 9k + 3a + b is
    channel k read at offset (a - 1, b - 1), columns item-major."""
    k, *lead, h, w = x.shape
    xp = np.zeros((k, *lead, h + 2, w + 2))
    xp[..., 1:-1, 1:-1] = x
    cols = np.empty((k, 3, 3, *lead, h, w))
    for a in range(3):
        for b in range(3):
            cols[:, a, b] = xp[..., a : a + h, b : b + w]
    return cols.reshape(9 * k, -1)


def correlate3x3_windows(x: np.ndarray, bank: np.ndarray) -> np.ndarray:
    """(h, w) input, (C, 3, 3) bank -> (C, h, w), by sliding windows over
    the zero-padded input and one einsum."""
    return np.einsum("ijab,cab->cij", sliding_window_view(np.pad(x, 1), (3, 3)), bank)


def correlate3x3_adjoint_windows(dz: np.ndarray, bank: np.ndarray) -> np.ndarray:
    """(C, h, w) -> (h, w): correlation of dz with the flipped kernels,
    summed over channels, by sliding windows and one einsum."""
    dzp = np.pad(dz, ((0, 0), (1, 1), (1, 1)))
    win = sliding_window_view(dzp, (3, 3), axis=(1, 2))
    return np.einsum("cijab,cab->ij", win, bank[:, ::-1, ::-1])


def correlate3x3_multi_windows(x: np.ndarray, bank: np.ndarray) -> np.ndarray:
    """(K, h, w) input, (C, K, 3, 3) bank -> (C, h, w), by sliding windows."""
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    win = sliding_window_view(xp, (3, 3), axis=(1, 2))
    return np.einsum("kijab,ckab->cij", win, bank)


def softplus_logaddexp(z: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, z)


def sigmoid_masked(z: np.ndarray) -> np.ndarray:
    """Logistic function with the positive and negative halves written
    through boolean masks."""
    out = np.empty_like(z)
    np.exp(-np.abs(z), out=out)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + out[pos])
    out[~pos] = out[~pos] / (1.0 + out[~pos])
    return out


def avg_pool2_mean(f: np.ndarray) -> np.ndarray:
    """2x2 average pooling as numpy's mean over a (h/2, 2, w/2, 2) reshape."""
    h, w = f.shape[-2], f.shape[-1]
    return f.reshape(*f.shape[:-2], h // 2, 2, w // 2, 2).mean(axis=(-3, -1))


def sample_seeded(model, mask, config, schedule, rng: RandomStream):
    """sample() on the noise block drawn from rng, as the experiments draw it."""
    return sample(model, mask, config, schedule, draw_noise(rng, mask, config, schedule))


def layers_of(maps: dict) -> list[AttentionLayer]:
    """The attention layers of one (h, w) latent's forward."""
    return [AttentionLayer(layer_id, Grid(a)) for layer_id, a in maps.items()]


def sample_per_step(model, mask, config, schedule, rng: RandomStream):
    """The recorded sampling loop on one (h, w) latent, with the noise
    drawn from rng as it is needed: the initial field first, then one
    field inside each step with t > 1, after the step's two predictions.
    Every energy resamples the mask to each layer's resolution itself."""
    x = gaussian_field(rng, mask.height, mask.width)
    entries = []
    s = config.guidance_scale
    for k, t in enumerate(_stride_ts(schedule.T, config.steps)):
        eps_u, _, _ = model.predict(x, t, Condition.NULL)
        eps_c, maps, tape = model.predict(x, t, Condition.GARMENT)
        eps = eps_c if s == 1.0 else eps_u + s * (eps_c - eps_u)
        beta = schedule.beta_at(t)
        m_t = (1.0 + 0.5 * beta) * x + beta * eps_to_score(eps, t, schedule)
        if t > 1:
            m_t = m_t + math.sqrt(beta) * gaussian_field(rng, *x.shape)
        layers = layers_of(maps)
        layer_masks = [resample_mask(mask, *layer.map.shape) for layer in layers]
        breakdown, grads = evaluate_layers_per_item(
            layers, layer_masks, config.energy_cfg, with_grads=config.rho > 0.0
        )
        if config.rho > 0.0:
            grad_x = model.attention_vjp(tape, t, Condition.GARMENT, grads)
            grad_norm = float(np.sqrt((grad_x * grad_x).sum()))
            x = m_t - config.rho * grad_x
        else:
            grad_norm = 0.0
            x = m_t
        entries.append(StepEntry(k, t, breakdown, grad_norm))
    final_layers = layers_of(model.predict(x, 1, Condition.GARMENT)[1])
    final_masks = [resample_mask(mask, *layer.map.shape) for layer in final_layers]
    final, _ = evaluate_layers_per_item(final_layers, final_masks, config.energy_cfg, False)
    return Grid(x), TrajectoryRecord(entries=entries, final=final)


def fresh(value):
    """An equal copy of a SceneImage, Grid or BinaryMask, or of every field
    of a DatasetSample: equal values in new objects, so no identity-keyed
    reuse can serve them."""
    if isinstance(value, DatasetSample):
        return DatasetSample(**{f: fresh(getattr(value, f)) for f in value.__dataclass_fields__})
    if isinstance(value, SceneImage):
        return SceneImage(value.stack())
    return type(value)(value.a)


def point_metrics(model, schedule, samp_cfg, dataset, trials: int, seed: int) -> dict:
    """Mean final metrics of one sweep grid point, from its own loop over
    the trials: noise from child "trial-{i}" of the seed, drawn per step,
    and the try-on proxy scored on fresh copies of each sample."""
    finals, vtids = [], []
    fx = pixel_extractor()
    for i in range(trials):
        sample_i = dataset[i % len(dataset)]
        mask = resample_mask(sample_i.mask, model.h, model.w)
        rng = RandomStream(seed).child(f"trial-{i}")
        x, record = sample_per_step(model, mask, samp_cfg, schedule, rng)
        finals.append(record.final)
        vtids.append(_toy_vtid(fresh(sample_i), x, fx))
    means = {
        f"mean_{m}": float(np.mean([FINAL_METRICS[m](f) for f in finals]))
        for m in _SWEPT_METRICS
    }
    means["mean_toy_vtid_vs_reference"] = float(np.mean(vtids))
    return means


def sweep_rows_grid_major(kind: str, model, schedule, samp_cfg, dataset, trials, seed):
    """A sweep with the grid in the outer loop: every grid point reruns
    every trial and redraws its noise."""
    sweep = SWEEPS[kind]
    return [
        {sweep.column: v, **point_metrics(model, schedule, sweep.apply(samp_cfg, v), dataset,
                                          trials, seed)}
        for v in sweep.grid
    ]


def warp_scene_per_channel(image: SceneImage, flow_x: Grid, flow_y: Grid) -> SceneImage:
    """warp_scene as three separate warp_array calls, one per channel."""
    return SceneImage(np.stack([warp_array(ch, flow_x.a, flow_y.a) for ch in image.stack()]))


def warp_array_meshgrid(a: np.ndarray, flow_x: np.ndarray, flow_y: np.ndarray) -> np.ndarray:
    """warp_array by a meshgrid of source indices, np.clip and two-index
    fancy gathers from the (..., h, w) array."""
    h, w = a.shape[-2:]
    ii, jj = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    sy = np.clip(ii + flow_y, 0.0, h - 1.0)
    sx = np.clip(jj + flow_x, 0.0, w - 1.0)
    y0 = np.floor(sy).astype(np.intp)
    x0 = np.floor(sx).astype(np.intp)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = sy - y0
    fx = sx - x0
    top = a[..., y0, x0] * (1.0 - fx) + a[..., y0, x1] * fx
    bot = a[..., y1, x0] * (1.0 - fx) + a[..., y1, x1] * fx
    return top * (1.0 - fy) + bot * fy


def perceptual_l2_per_map(a: SceneImage, b: SceneImage, fx) -> float:
    """perceptual_l2 as a loop over single feature maps: the square root of
    the running sum of float((d * d).mean()), map by map, over the map count."""
    maps_a = [m for stack in fx.features(a.stack()) for m in stack]
    maps_b = [m for stack in fx.features(b.stack()) for m in stack]
    total = 0.0
    for ma, mb in zip(maps_a, maps_b, strict=True):
        d = ma - mb
        total += float((d * d).mean())
    return math.sqrt(total / len(maps_a))


def vtid_score_scene_images(person, garment, flow_x, flow_y, generated, clothing_mask,
                            gen_clothing_mask, fx) -> VtidReport:
    """vtid_score with a SceneImage built for each of its four derived
    images, the meshgrid warp and the per-map distance loop."""
    human = perceptual_l2_per_map(
        SceneImage(person.stack() * (1.0 - clothing_mask.a)),
        SceneImage(generated.stack() * (1.0 - gen_clothing_mask.a)),
        fx,
    )
    warped = SceneImage(warp_array_meshgrid(garment.stack(), flow_x.a, flow_y.a))
    clothing = perceptual_l2_per_map(
        SceneImage(warped.stack() * gen_clothing_mask.a),
        SceneImage(generated.stack() * gen_clothing_mask.a),
        fx,
    )
    return VtidReport(human_dist=human, clothing_dist=clothing)


def clamp_per_channel(stack: np.ndarray) -> np.ndarray:
    """Clamp each channel of a (3, h, w) stack to [0, 1] only when it holds
    a value outside that range, leaving in-range channels untouched."""
    return np.stack([
        np.clip(ch, 0.0, 1.0) if ch.min() < 0.0 or ch.max() > 1.0 else ch for ch in stack
    ])


def fd_vjp_check(
    model,
    x: np.ndarray,
    t: int,
    cond,
    grad_layers: list[np.ndarray],
    h: float,
    n_directions: int = 32,
    rng: RandomStream | None = None,
) -> float:
    """Max relative error of the model's VJP against central differences.

    Runs one forward at x, an (h, w) latent or a stack of them, and pulls
    grad_layers back through its tape, then probes n_directions random
    unit directions d of x's shape, comparing <grad_x, d> with
    [s(x + h d) - s(x - h d)] / 2h for s(x) = sum_layers <A_layer(x),
    cotangent_layer>. Directions where both sides
    are below 1e-12 count as zero error; all-zero cotangents return 0 by
    definition.
    """
    if h <= 0:
        raise ModelError("step h must be > 0")
    if all(not g.any() for g in grad_layers):
        return 0.0
    if rng is None:
        rng = RandomStream(0x5EED).child("fd-vjp")
    _, _, tape = model.predict(x, t, cond)
    grad_x = model.attention_vjp(tape, t, cond, grad_layers)

    def score(xa: np.ndarray) -> float:
        _, maps, _ = model.predict(xa, t, cond)
        return sum(float((a * g).sum()) for a, g in zip(maps.values(), grad_layers))

    worst = 0.0
    n = x.size
    for _ in range(n_directions):
        d = rng.normals(n).reshape(x.shape)
        d /= np.sqrt((d * d).sum())
        analytic = float((grad_x * d).sum())
        fd = (score(x + h * d) - score(x - h * d)) / (2.0 * h)
        denom = max(abs(analytic), abs(fd))
        if denom > 1e-12:
            worst = max(worst, abs(analytic - fd) / denom)
    return worst
