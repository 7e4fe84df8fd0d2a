"""Shared builders and independent oracles used across test modules.

Everything here recomputes results from first principles (scalar loops,
explicit formulas) so the vectorized library code is checked against a
second, unrelated implementation.
"""

from __future__ import annotations

import numpy as np

from tryonlab import BinaryMask, Grid, ModelError, RandomStream

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


def fd_vjp_check(
    model,
    x: Grid,
    t: int,
    cond,
    grad_layers: list[Grid],
    h: float,
    n_directions: int = 32,
    rng: RandomStream | None = None,
) -> float:
    """Max relative error of the model's VJP against central differences.

    Runs one forward at x and pulls grad_layers back through its tape,
    then probes n_directions random unit directions d, comparing
    <grad_x, d> with [s(x + h d) - s(x - h d)] / 2h for s(x) =
    sum_layers <A_layer(x), cotangent_layer>. Directions where both sides
    are below 1e-12 count as zero error; all-zero cotangents return 0 by
    definition.
    """
    if h <= 0:
        raise ModelError("step h must be > 0")
    if all(not g.a.any() for g in grad_layers):
        return 0.0
    if rng is None:
        rng = RandomStream(0x5EED).child("fd-vjp")
    _, _, tape = model.predict(x, t, cond)
    grad_x = model.attention_vjp(tape, t, cond, grad_layers).a

    def score(xa: np.ndarray) -> float:
        _, layers, _ = model.predict(Grid(xa, _checked=True), t, cond)
        return sum(float((layer.map.a * g.a).sum()) for layer, g in zip(layers, grad_layers))

    worst = 0.0
    n = x.height * x.width
    for _ in range(n_directions):
        d = rng.normals(n).reshape(x.shape)
        d /= np.sqrt((d * d).sum())
        analytic = float((grad_x * d).sum())
        fd = (score(x.a + h * d) - score(x.a - h * d)) / (2.0 * h)
        denom = max(abs(analytic), abs(fd))
        if denom > 1e-12:
            worst = max(worst, abs(analytic - fd) / denom)
    return worst
