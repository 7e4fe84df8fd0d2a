"""Try-on fidelity metric over synthetic scenes.

Four derived representations, two perceptual distances, one score:
strip the clothing region from the person and from the generated image
and compare the remainders (human preservation), warp the garment onto
the region and compare with the generated clothing (garment fidelity).
Feature extractors are pluggable; seeded random convolutional features
stand in for a pretrained perceptual backbone.

SceneImage is the boundary type: the inputs to vtid_score and the public
extract/warp helpers. Inside, vtid_score carries its four derived images
as plain (3, h, w) float64 arrays, an extractor maps one such array to
one (C, h_s, w_s) stack of feature maps per scale, and the distance
reduces each stack in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .grids import BinaryMask, Grid, GridError, _read_payload, grid_write, warp_array
from .grids import grid_read  # noqa: F401 (unused: perfbench's tracer wraps vtid.grid_read)
from .kernels import avg_pool2, correlate3x3_multi, softplus
from .rng import RandomStream

__all__ = [
    "SceneImage",
    "FeatureExtractor",
    "VtidReport",
    "VtidError",
    "extract_agnostic",
    "extract_clothing",
    "warp_scene",
    "perceptual_l2",
    "vtid_score",
    "pixel_extractor",
    "random_feature_extractor",
    "scene_write",
    "scene_read",
]


class VtidError(ValueError):
    """Invalid metric input."""


class SceneImage:
    """One read-only (3, h, w) float64 array of channels (R, G, B) in [0, 1].

    Out-of-range inputs are clamped on construction, so arbitrary latents
    can be viewed as images; non-finite inputs are rejected.
    """

    __slots__ = ("_a",)

    def __init__(self, stack: np.ndarray):
        # a private copy, so clamping and freezing it leave the caller's alone;
        # C order keeps the feature convolutions' summation order
        a = np.array(stack, dtype=np.float64, order="C")
        if a.ndim != 3 or a.shape[0] != 3 or a.shape[1] < 1 or a.shape[2] < 1:
            raise VtidError(f"expected a non-empty (3, h, w) stack, got {a.shape}")
        if not np.isfinite(a).all():
            raise GridError("scene contains non-finite values")
        _clamp01(a).flags.writeable = False
        object.__setattr__(self, "_a", a)

    def __setattr__(self, name, value):
        raise AttributeError("SceneImage is immutable")

    @property
    def shape(self) -> tuple[int, int]:
        return self._a.shape[1:]

    def stack(self) -> np.ndarray:
        """The read-only (3, h, w) channel array."""
        return self._a

    @classmethod
    def from_stack(cls, a: np.ndarray) -> "SceneImage":
        """SceneImage(a). It stays because perfbench/workloads.py calls it."""
        return cls(a)

    @classmethod
    def gray(cls, grid: Grid) -> "SceneImage":
        """Replicate one grid over all channels (clamped to [0, 1])."""
        return cls(np.broadcast_to(grid.a, (3,) + grid.shape))

    def __eq__(self, other) -> bool:
        return isinstance(other, SceneImage) and bool(np.array_equal(self._a, other._a))

    def __repr__(self) -> str:
        h, w = self.shape
        return f"SceneImage({h}x{w})"


def _clamp01(a: np.ndarray) -> np.ndarray:
    """Clamp a to [0, 1] in place if it holds a value outside; clip leaves
    in-range values, -0.0 included, bit for bit, so clamping a whole stack
    equals clamping each channel that needs it."""
    if a.min() < 0.0 or a.max() > 1.0:
        np.clip(a, 0.0, 1.0, out=a)
    return a


class FeatureExtractor(Protocol):
    def features(self, stack: np.ndarray) -> list[np.ndarray]:
        """One (C, h_s, w_s) stack of feature maps per scale, coarsening
        scale by scale, from one C-order (3, h, w) image array."""
        ...


@dataclass(frozen=True)
class VtidReport:
    """human_dist preserves the person, clothing_dist the garment; the
    score is their sum, so a perfect try-on scores 0."""

    human_dist: float
    clothing_dist: float

    @property
    def vtid(self) -> float:
        return self.human_dist + self.clothing_dist


def _check_mask(image: SceneImage, clothing_mask: BinaryMask) -> None:
    if clothing_mask.shape != image.shape:
        raise VtidError(f"mask shape {clothing_mask.shape} != image shape {image.shape}")


def extract_agnostic(image: SceneImage, clothing_mask: BinaryMask) -> SceneImage:
    """Person with the clothing region blacked out: channels times (1 - M)."""
    _check_mask(image, clothing_mask)
    return SceneImage(image.stack() * (1.0 - clothing_mask.a))


def extract_clothing(image: SceneImage, clothing_mask: BinaryMask) -> SceneImage:
    """Clothing region only: channels times M (complement of extract_agnostic)."""
    _check_mask(image, clothing_mask)
    return SceneImage(image.stack() * clothing_mask.a)


def warp_scene(image: SceneImage, flow_x: Grid, flow_y: Grid) -> SceneImage:
    """Bilinear warp of all three channels by the (flow_x, flow_y) field,
    in one pass; each channel equals warp_array of it alone, bit for bit."""
    return SceneImage(warp_array(image.stack(), flow_x.a, flow_y.a))


def perceptual_l2(a: SceneImage, b: SceneImage, fx: FeatureExtractor) -> float:
    """sqrt of the mean over feature maps of the per-element MSE.

    Symmetric, non-negative, and exactly 0 on identical inputs.
    """
    if a.shape != b.shape:
        raise VtidError(f"image shapes differ: {a.shape} vs {b.shape}")
    return _distance(a.stack(), b.stack(), fx)


def _distance(a: np.ndarray, b: np.ndarray, fx: FeatureExtractor) -> float:
    """perceptual_l2 of two (3, h, w) arrays. One sum over the last two
    axes per scale sums each map as that map's own .mean() does, and the
    per-map MSEs are added in map order, so the result is bit-equal to
    adding float((d * d).mean()) map by map."""
    fa = fx.features(a)
    fb = fx.features(b)
    if len(fa) != len(fb):
        raise VtidError("extractor returned differing feature counts")
    total = 0.0
    n_maps = 0
    for sa, sb in zip(fa, fb):
        if sa.shape != sb.shape:
            raise VtidError("extractor returned differing feature shapes")
        d = sa - sb
        d *= d
        h, w = d.shape[-2:]
        for mse in (d.sum(axis=(-2, -1)) / (h * w)).tolist():
            total += mse
        n_maps += len(d)
    return math.sqrt(total / n_maps)


def vtid_score(
    person: SceneImage,
    garment: SceneImage,
    flow_x: Grid,
    flow_y: Grid,
    generated: SceneImage,
    clothing_mask: BinaryMask,
    gen_clothing_mask: BinaryMask,
    fx: FeatureExtractor,
) -> VtidReport:
    """Score a generated try-on against its person and garment inputs.

    human_dist compares the two agnostics (each image minus its own
    clothing region); clothing_dist compares the warped garment with the
    generated clothing region, both masked by the generated image's mask
    for a like-for-like comparison.

    The derived images are plain (3, h, w) arrays with the bytes that
    extract_agnostic, warp_scene and extract_clothing would give; no
    input is written.
    """
    if garment.shape != person.shape or generated.shape != person.shape:
        raise VtidError(
            f"image shapes differ: person {person.shape}, garment {garment.shape}, "
            f"generated {generated.shape}"
        )
    _check_mask(person, clothing_mask)
    _check_mask(generated, gen_clothing_mask)
    gen = generated.stack()
    human = _distance(
        person.stack() * (1.0 - clothing_mask.a), gen * (1.0 - gen_clothing_mask.a), fx
    )
    # clamped as SceneImage clamps, so the bytes stay those of warp_scene
    warped = _clamp01(warp_array(garment.stack(), flow_x.a, flow_y.a))
    warped *= gen_clothing_mask.a
    clothing = _distance(warped, gen * gen_clothing_mask.a, fx)
    return VtidReport(human_dist=human, clothing_dist=clothing)


class _PixelExtractor:
    """Identity features: the (3, h, w) image itself, one scale."""

    def features(self, stack: np.ndarray) -> list[np.ndarray]:
        return [stack]


class _RandomFeatureExtractor:
    """Seeded random conv features at n_scales dyadic scales.

    Scale s: 2x average-pool the channel stack s-1 times (odd trailing
    rows/columns are cropped), correlate with a fixed seeded 3-channel
    kernel bank, softplus. Same seed, same features.
    """

    def __init__(self, seed: int, n_scales: int, channels: int):
        if n_scales < 1:
            raise VtidError("n_scales must be >= 1")
        if channels < 1:
            raise VtidError("channels must be >= 1")
        self.seed = seed
        self.n_scales = n_scales
        self.channels = channels
        root = RandomStream(seed).child("vtid-features")
        self._banks = [
            root.child(f"scale-{s}").normals(channels * 3 * 9).reshape(channels, 3, 3, 3)
            / 3.0
            for s in range(1, n_scales + 1)
        ]

    @staticmethod
    def _pool(stack: np.ndarray) -> np.ndarray:
        h = stack.shape[1] - stack.shape[1] % 2
        w = stack.shape[2] - stack.shape[2] % 2
        return avg_pool2(stack[:, :h, :w])

    def features(self, stack: np.ndarray) -> list[np.ndarray]:
        shape = stack.shape[1:]
        out: list[np.ndarray] = []
        for s, bank in enumerate(self._banks):
            if s > 0:
                if stack.shape[1] < 2 or stack.shape[2] < 2:
                    raise VtidError(f"image {shape} too small for {self.n_scales} scales")
                stack = self._pool(stack)
            out.append(softplus(correlate3x3_multi(stack, bank)))
        return out


def pixel_extractor() -> FeatureExtractor:
    """Identity extractor; perceptual_l2 degenerates to plain RMS distance."""
    return _PixelExtractor()


def random_feature_extractor(seed: int, n_scales: int, channels: int) -> FeatureExtractor:
    return _RandomFeatureExtractor(seed, n_scales, channels)


def scene_write(path, scene: SceneImage) -> None:
    """Store a scene as one grid file with the channels stacked vertically."""
    h, w = scene.shape
    grid_write(path, Grid(scene.stack().reshape(3 * h, w)))


def scene_read(path) -> SceneImage:
    """Read a scene_write file straight into one SceneImage, with no Grid
    between; a non-finite payload is rejected by SceneImage."""
    a = _read_payload(path)
    h, w = a.shape
    if h % 3:
        raise GridError(f"{path}: stacked scene height {h} not divisible by 3")
    return SceneImage(a.reshape(3, h // 3, w))
