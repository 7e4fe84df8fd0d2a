"""Deterministic synthetic try-on scenes.

Each scene is a flat-shaded person (noisy background plus body ellipse)
whose clothing region carries a patterned garment, the garment rendered
standalone on its own canvas, the exact region mask, and the affine flow
that maps the garment rectangle onto the region. Composition of these
pieces gives an exact try-on ground truth, which is what the metric and
the sweep proxies are scored against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .grids import BinaryMask, Grid, grid_write
from .rng import RandomStream
from .vtid import SceneImage, scene_write, warp_scene

__all__ = [
    "Rect",
    "SceneSpec",
    "DatasetSample",
    "SceneError",
    "PATTERN_KINDS",
    "DATASET_ROLES",
    "affine_flow",
    "composite_reference",
    "gen_scene",
    "random_spec",
    "gen_dataset",
    "write_dataset",
]

PATTERN_KINDS = ("solid", "stripes", "checker", "logo_blob")


class SceneError(ValueError):
    """Degenerate scene geometry or invalid pattern."""


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle: rows [top, top+height), cols [left, left+width)."""

    top: int
    left: int
    height: int
    width: int

    def __post_init__(self):
        if self.height < 1 or self.width < 1:
            raise SceneError(f"degenerate rectangle {self}")

    @property
    def bottom(self) -> int:
        return self.top + self.height

    @property
    def right(self) -> int:
        return self.left + self.width

    def inside(self, h: int, w: int) -> bool:
        return 0 <= self.top and 0 <= self.left and self.bottom <= h and self.right <= w

    def strictly_inside(self, h: int, w: int) -> bool:
        return 0 < self.top and 0 < self.left and self.bottom < h and self.right < w


Color = tuple[float, float, float]


@dataclass(frozen=True)
class SceneSpec:
    """Full geometry and appearance of one scene.

    The body is an axis-aligned ellipse, the clothing region a rectangle
    strictly inside the canvas, the garment a patterned rectangle on its
    own canvas; the flow maps the garment rectangle onto the clothing
    region. Background noise amplitude is fixed and small.
    """

    canvas_h: int
    canvas_w: int
    body_center: tuple[float, float]  # (row, col)
    body_radii: tuple[float, float]  # (row, col), pixels
    croi: Rect
    garment_rect: Rect
    pattern: str
    color_a: Color
    color_b: Color
    period: int
    bg_color: Color = (0.85, 0.85, 0.9)
    body_color: Color = (0.45, 0.3, 0.25)
    noise_amp: float = 0.02

    def __post_init__(self):
        if self.canvas_h < 4 or self.canvas_w < 4:
            raise SceneError(f"canvas {self.canvas_h}x{self.canvas_w} too small")
        if not self.croi.strictly_inside(self.canvas_h, self.canvas_w):
            raise SceneError(f"clothing region {self.croi} not strictly inside canvas")
        if not self.garment_rect.inside(self.canvas_h, self.canvas_w):
            raise SceneError(f"garment rectangle {self.garment_rect} outside canvas")
        if self.pattern not in PATTERN_KINDS:
            raise SceneError(f"unknown pattern {self.pattern!r}")
        if self.period < 2:
            raise SceneError(f"pattern period must be >= 2, got {self.period}")
        if min(self.body_radii) <= 0:
            raise SceneError(f"degenerate body radii {self.body_radii}")


@dataclass(frozen=True)
class DatasetSample:
    """One dataset sample, one field per role, in manifest role order.

    gen_dataset fills every role: generated is the exact try-on composite
    and gen_mask the clothing mask. A role that load_dataset did not read
    is None.
    """

    person: SceneImage | None = None
    garment: SceneImage | None = None
    flow_x: Grid | None = None
    flow_y: Grid | None = None
    generated: SceneImage | None = None
    mask: BinaryMask | None = None
    gen_mask: BinaryMask | None = None

    @property
    def reference(self) -> SceneImage | None:
        """The generated role. It stays because perfbench/workloads.py reads it."""
        return self.generated


# One file per role and sample; scenes are stacked-channel grids.
DATASET_ROLES = tuple(f.name for f in fields(DatasetSample))


def _pattern_field(spec: SceneSpec, yy: np.ndarray, xx: np.ndarray) -> np.ndarray:
    """(3, ...) color field of the garment pattern at local coordinates.

    yy, xx are pixel offsets from the garment rectangle's top-left corner.
    The half-period is the stripe/checker cell size: period 4 alternates
    colors every 2 pixels.
    """
    a = np.array(spec.color_a)[:, None, None]
    b = np.array(spec.color_b)[:, None, None]
    if spec.pattern == "solid":
        return np.broadcast_to(a, (3,) + yy.shape).copy()
    cell = spec.period // 2
    if spec.pattern == "stripes":
        pick = (yy // cell) % 2
    elif spec.pattern == "checker":
        pick = (yy // cell + xx // cell) % 2
    else:  # logo_blob: solid base with a filled disc of the second color
        cy = (spec.garment_rect.height - 1) / 2.0
        cx = (spec.garment_rect.width - 1) / 2.0
        radius = max(1.0, min(spec.garment_rect.height, spec.garment_rect.width) / 4.0)
        pick = ((yy - cy) ** 2 + (xx - cx) ** 2 <= radius * radius).astype(np.int64)
    pick = pick[None, :, :]
    return np.where(pick == 0, a, b)


def render_garment(spec: SceneSpec) -> SceneImage:
    """Garment standalone: pattern inside its rectangle, neutral gray outside."""
    stack = np.full((3, spec.canvas_h, spec.canvas_w), 0.5)
    r = spec.garment_rect
    yy, xx = np.meshgrid(np.arange(r.height), np.arange(r.width), indexing="ij")
    stack[:, r.top : r.bottom, r.left : r.right] = _pattern_field(spec, yy, xx)
    return SceneImage(stack)


def region_mask(spec: SceneSpec) -> BinaryMask:
    m = np.zeros((spec.canvas_h, spec.canvas_w))
    m[spec.croi.top : spec.croi.bottom, spec.croi.left : spec.croi.right] = 1.0
    return BinaryMask(m)


def affine_flow(croi: Rect, garment_rect: Rect, h: int, w: int) -> tuple[Grid, Grid]:
    """Flow field carrying the garment rectangle onto the clothing region.

    Inside the region, destination pixel (i, j) reads from the affine
    image of the region in the garment rectangle; outside it the flow is
    zero (identity). Degenerate 1-wide spans map to the rectangle start.
    """
    ii, jj = np.meshgrid(np.arange(h, dtype=float), np.arange(w, dtype=float), indexing="ij")
    ry = (garment_rect.height - 1) / (croi.height - 1) if croi.height > 1 else 0.0
    rx = (garment_rect.width - 1) / (croi.width - 1) if croi.width > 1 else 0.0
    sy = garment_rect.top + (ii - croi.top) * ry
    sx = garment_rect.left + (jj - croi.left) * rx
    inside = np.zeros((h, w), dtype=bool)
    inside[croi.top : croi.bottom, croi.left : croi.right] = True
    return (
        Grid(np.where(inside, sx - jj, 0.0)),
        Grid(np.where(inside, sy - ii, 0.0)),
    )


def composite_reference(
    person: SceneImage,
    garment: SceneImage,
    mask: BinaryMask,
    flow_x: Grid,
    flow_y: Grid,
) -> SceneImage:
    """Ideal try-on: person outside the mask, warped garment inside it."""
    if garment.shape != person.shape:
        raise SceneError(f"garment shape {garment.shape} != person shape {person.shape}")
    if mask.shape != person.shape or flow_x.shape != person.shape or flow_y.shape != person.shape:
        raise SceneError("mask/flow shape does not match the images")
    warped = warp_scene(garment, flow_x, flow_y)
    return SceneImage(person.stack() * (1.0 - mask.a) + warped.stack() * mask.a)


def gen_scene(rng: RandomStream, spec: SceneSpec) -> DatasetSample:
    """Render one paired sample, deterministic per (stream state, spec).

    The person's clothing region is filled by warping the scene's own
    garment through the scene's flow, so the paired ground truth, the
    generated role, is the person image itself.
    """
    h, w = spec.canvas_h, spec.canvas_w
    noise = spec.noise_amp * (rng.uniforms(h * w).reshape(h, w) - 0.5)
    base = np.stack([np.full((h, w), c) + noise for c in spec.bg_color])

    ii, jj = np.meshgrid(np.arange(h, dtype=float), np.arange(w, dtype=float), indexing="ij")
    cy, cx = spec.body_center
    ry, rx = spec.body_radii
    body = ((ii - cy) / ry) ** 2 + ((jj - cx) / rx) ** 2 <= 1.0
    for c in range(3):
        base[c] = np.where(body, spec.body_color[c], base[c])
    person_base = SceneImage(base)

    garment = render_garment(spec)
    mask = region_mask(spec)
    flow_x, flow_y = affine_flow(spec.croi, spec.garment_rect, h, w)
    person = composite_reference(person_base, garment, mask, flow_x, flow_y)
    return DatasetSample(person, garment, flow_x, flow_y, person, mask, mask)


def _pick(rng: RandomStream, lo: int, hi: int) -> int:
    """One integer in [lo, hi)."""
    return int(rng.integers(1, lo, hi)[0])


def random_spec(rng: RandomStream, h: int = 48, w: int = 36) -> SceneSpec:
    """Draw scene geometry and appearance from the stream.

    The clothing region sits in the upper half of the canvas, inside the
    body ellipse's bounding box; the garment rectangle is drawn near the
    canvas center with comparable size.
    """
    if h < 8 or w < 8:
        raise SceneError(f"canvas {h}x{w} too small for random geometry (need >= 8x8)")
    croi_h = _pick(rng, max(4, h // 6), max(5, h // 3))
    croi_w = _pick(rng, max(4, w // 4), max(5, (2 * w) // 3))
    croi = Rect(
        top=_pick(rng, 2, max(3, h // 3)),
        left=_pick(rng, 2, max(3, w - croi_w - 1)),
        height=croi_h,
        width=croi_w,
    )
    g_h = _pick(rng, max(4, croi_h // 2), min(h - 2, croi_h * 2))
    g_w = _pick(rng, max(4, croi_w // 2), min(w - 2, croi_w * 2))
    garment_rect = Rect(
        top=_pick(rng, 0, h - g_h + 1),
        left=_pick(rng, 0, w - g_w + 1),
        height=g_h,
        width=g_w,
    )
    body_center = (croi.top + croi.height * 1.5, croi.left + croi.width / 2.0)
    body_radii = (h * 0.45, max(4.0, croi_w * 0.8))
    pattern = PATTERN_KINDS[_pick(rng, 0, len(PATTERN_KINDS))]
    shades = rng.uniforms(6)
    color_a = (0.2 + 0.6 * shades[0], 0.2 + 0.6 * shades[1], 0.2 + 0.6 * shades[2])
    color_b = (0.2 + 0.6 * shades[3], 0.2 + 0.6 * shades[4], 0.2 + 0.6 * shades[5])
    period = 2 * _pick(rng, 1, 4)
    return SceneSpec(
        canvas_h=h,
        canvas_w=w,
        body_center=body_center,
        body_radii=body_radii,
        croi=croi,
        garment_rect=garment_rect,
        pattern=pattern,
        color_a=color_a,
        color_b=color_b,
        period=period,
    )


def gen_dataset(seed: int, n: int, paired: bool, h: int = 48, w: int = 36) -> list[DatasetSample]:
    """n samples; unpaired takes each person's garment from the next scene.

    Scene i draws from its own child stream "scene-{i}" of the seed, so it
    does not depend on n or on the other scenes.
    """
    if n < 1:
        raise SceneError("n must be >= 1")
    if not paired and n < 2:
        raise SceneError("unpaired datasets need n >= 2 (cyclic garment shift)")
    root = RandomStream(seed).child("scenes")
    specs, own = [], []
    for i in range(n):
        child = root.child(f"scene-{i}")
        specs.append(random_spec(child, h, w))
        own.append(gen_scene(child, specs[-1]))
    if paired:
        return own
    out = []
    for i in range(n):
        j = (i + 1) % n
        me, donor_spec = own[i], specs[j]
        fx, fy = affine_flow(specs[i].croi, donor_spec.garment_rect, h, w)
        garment = own[j].garment
        generated = composite_reference(me.person, garment, me.mask, fx, fy)
        out.append(DatasetSample(me.person, garment, fx, fy, generated, me.mask, me.mask))
    return out


def write_dataset(outdir, samples: list[DatasetSample], split: str) -> dict:
    """Write dataset/<split>/<index>/<role>.f64grid plus manifest.json.

    The manifest maps each role to an array of paths relative to outdir;
    gen_dataset's generated role is the composite ground truth, so its
    tree is directly scoreable (and scores 0 against itself).
    """
    outdir = Path(outdir)
    paths: dict[str, list[str]] = {role: [] for role in DATASET_ROLES}
    for i, s in enumerate(samples):
        rel = Path("dataset") / split / f"{i:04d}"
        d = outdir / rel
        d.mkdir(parents=True, exist_ok=True)
        for role in DATASET_ROLES:
            value = getattr(s, role)
            # read at call time, so that a patched module binding is the one called
            write = scene_write if isinstance(value, SceneImage) else grid_write
            write(d / f"{role}.f64grid", value)
            paths[role].append((rel / f"{role}.f64grid").as_posix())
    manifest = {"split": split, "n": len(samples), **paths}
    with open(outdir / "manifest.json", "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return manifest
