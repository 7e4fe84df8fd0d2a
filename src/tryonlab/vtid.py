"""Try-on fidelity metric over synthetic scenes.

Four derived representations, two perceptual distances, one score:
strip the clothing region from the person and from the generated image
and compare the remainders (human preservation), warp the garment onto
the region and compare with the generated clothing (garment fidelity).
Feature extractors are pluggable; seeded random convolutional features
stand in for a pretrained perceptual backbone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .grids import BinaryMask, Grid, GridError, grid_read, grid_write, warp_array
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
        # a private copy, so clamping and freezing it leave the caller's alone
        a = np.array(stack, dtype=np.float64, order="C")
        if a.ndim != 3 or a.shape[0] != 3 or a.shape[1] < 1 or a.shape[2] < 1:
            raise VtidError(f"expected a non-empty (3, h, w) stack, got {a.shape}")
        if not np.isfinite(a).all():
            raise GridError("scene contains non-finite values")
        # clip leaves in-range values, -0.0 included, bit for bit, so
        # clamping the whole stack equals clamping each channel that needs
        # it; C order keeps the feature convolutions' summation order
        if a.min() < 0.0 or a.max() > 1.0:
            np.clip(a, 0.0, 1.0, out=a)
        a.flags.writeable = False
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


class FeatureExtractor(Protocol):
    def features(self, image: SceneImage) -> list[np.ndarray]: ...


@dataclass(frozen=True)
class VtidReport:
    """human_dist preserves the person, clothing_dist the garment; the
    score is their sum, so a perfect try-on scores 0."""

    human_dist: float
    clothing_dist: float

    @property
    def vtid(self) -> float:
        return self.human_dist + self.clothing_dist


def extract_agnostic(image: SceneImage, clothing_mask: BinaryMask) -> SceneImage:
    """Person with the clothing region blacked out: channels times (1 - M)."""
    if clothing_mask.shape != image.shape:
        raise VtidError(f"mask shape {clothing_mask.shape} != image shape {image.shape}")
    return SceneImage(image.stack() * (1.0 - clothing_mask.a))


def extract_clothing(image: SceneImage, clothing_mask: BinaryMask) -> SceneImage:
    """Clothing region only: channels times M (complement of extract_agnostic)."""
    if clothing_mask.shape != image.shape:
        raise VtidError(f"mask shape {clothing_mask.shape} != image shape {image.shape}")
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
    fa = fx.features(a)
    fb = fx.features(b)
    if len(fa) != len(fb):
        raise VtidError("extractor returned differing feature counts")
    total = 0.0
    for ma, mb in zip(fa, fb):
        if ma.shape != mb.shape:
            raise VtidError("extractor returned differing feature shapes")
        d = ma - mb
        total += float((d * d).mean())
    return math.sqrt(total / len(fa))


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
    """
    if garment.shape != person.shape or generated.shape != person.shape:
        raise VtidError(
            f"image shapes differ: person {person.shape}, garment {garment.shape}, "
            f"generated {generated.shape}"
        )
    human = perceptual_l2(
        extract_agnostic(person, clothing_mask),
        extract_agnostic(generated, gen_clothing_mask),
        fx,
    )
    warped = warp_scene(garment, flow_x, flow_y)
    clothing = perceptual_l2(
        extract_clothing(warped, gen_clothing_mask),
        extract_clothing(generated, gen_clothing_mask),
        fx,
    )
    return VtidReport(human_dist=human, clothing_dist=clothing)


class _PixelExtractor:
    """Identity features: the three channel arrays themselves, one scale."""

    def features(self, image: SceneImage) -> list[np.ndarray]:
        return list(image.stack())


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

    def features(self, image: SceneImage) -> list[np.ndarray]:
        stack = image.stack()
        out: list[np.ndarray] = []
        for s, bank in enumerate(self._banks):
            if s > 0:
                if stack.shape[1] < 2 or stack.shape[2] < 2:
                    raise VtidError(
                        f"image {image.shape} too small for {self.n_scales} scales"
                    )
                stack = self._pool(stack)
            maps = softplus(correlate3x3_multi(stack, bank))
            out.extend(maps)
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
    grid = grid_read(path)
    if grid.height % 3:
        raise GridError(f"{path}: stacked scene height {grid.height} not divisible by 3")
    return SceneImage(grid.a.reshape(3, grid.height // 3, grid.width))
