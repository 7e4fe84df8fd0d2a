"""Dense 2-D float grids, binary masks, resampling, warping, and file IO.

A BinaryMask is a Grid of exact 0/1 values. Grids live at the boundary of
the package: file IO and the public API (sample's mask and final latent,
attention layers, dataset flows and masks). Inside, the sampler loop, the
model contract and the scene images carry plain float64 ndarrays, so a
Grid is built only where a value crosses that boundary, and every Grid is
validated on construction.
"""

from __future__ import annotations

import struct

import numpy as np

__all__ = [
    "Grid",
    "BinaryMask",
    "GridError",
    "GridFormatError",
    "resample_mask",
    "grid_write",
    "grid_read",
    "mask_read",
]

# .f64grid binary format
_MAGIC = b"F64G"
_HEADER = struct.Struct("<4sII")
# refuse to allocate absurd grids from corrupt headers
_MAX_CELLS = 1 << 28


class GridError(ValueError):
    """Invalid grid construction or operation."""


class GridFormatError(GridError):
    """Malformed .f64grid file."""


class Grid:
    """Immutable dense 2-D array of finite float64 values, row-major."""

    __slots__ = ("a",)

    def __init__(self, values):
        # a private copy: freezing it leaves the caller's array writeable
        a = np.array(values, dtype=np.float64, order="C")
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise GridError(f"grid must be 2-D and non-empty, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise GridError("grid contains non-finite values")
        a.flags.writeable = False
        object.__setattr__(self, "a", a)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def height(self) -> int:
        return self.a.shape[0]

    @property
    def width(self) -> int:
        return self.a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    @classmethod
    def full(cls, height: int, width: int, value: float) -> "Grid":
        """A constant grid. It stays because perfbench/workloads.py calls it."""
        return cls(np.full((height, width), float(value)))

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and bool(np.array_equal(self.a, other.a))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.height}x{self.width})"


class BinaryMask(Grid):
    """Grid whose values are exactly 0.0 or 1.0, built from a Grid or an
    array. It never equals a plain Grid, whatever the values."""

    __slots__ = ()

    def __init__(self, values):
        super().__init__(values.a if isinstance(values, Grid) else values)
        if not np.all((self.a == 0.0) | (self.a == 1.0)):
            raise GridError("mask values must be exactly 0 or 1")


def _overlap_weights(n_src: int, n_dst: int) -> np.ndarray:
    """(n_dst, n_src) matrix of fractional interval overlaps, rows sum to 1.

    Destination cell i covers the source interval [i*r, (i+1)*r) with
    r = n_src / n_dst; entry (i, k) is the length of its overlap with
    source cell [k, k+1), normalised by r.
    """
    r = n_src / n_dst
    w = np.zeros((n_dst, n_src))
    for i in range(n_dst):
        lo = i * r
        hi = (i + 1) * r
        k0 = int(np.floor(lo))
        k1 = min(int(np.ceil(hi)), n_src)
        for k in range(k0, k1):
            w[i, k] = max(0.0, min(hi, k + 1) - max(lo, k)) / r
    return w


def resample_mask(mask: BinaryMask, target_h: int, target_w: int) -> BinaryMask:
    """Area-average the mask over each target cell, then threshold at 0.5.

    Ties (average exactly 0.5) map to 1.
    """
    if target_h < 1 or target_w < 1:
        raise GridError(f"target dims must be >= 1, got {target_h}x{target_w}")
    if (target_h, target_w) == mask.shape:
        return mask
    wr = _overlap_weights(mask.height, target_h)
    wc = _overlap_weights(mask.width, target_w)
    avg = wr @ mask.a @ wc.T
    return BinaryMask(np.where(avg >= 0.5, 1.0, 0.0))


def warp_array(a: np.ndarray, flow_x: np.ndarray, flow_y: np.ndarray) -> np.ndarray:
    """Bilinear warp of the last two axes of a, (..., h, w), by an (h, w) flow:
    a[..., i, j] samples (i + flow_y, j + flow_x), in pixels, clamped to the
    image rectangle, so zero flow is the bit-exact identity.

    Every leading slice is sampled at the same source coordinates, with
    the same arithmetic as a lone (h, w) image, so warping a stack equals
    warping each slice bit for bit.
    """
    h, w = a.shape[-2:]
    if flow_x.shape != (h, w) or flow_y.shape != (h, w):
        raise GridError(f"flow shape {flow_x.shape}/{flow_y.shape} != image shape {(h, w)}")
    # minimum(maximum(.)) gives np.clip's bits: an index plus a flow is
    # never -0.0, the one input on which the two could differ
    sy = np.minimum(np.maximum(np.arange(h)[:, None] + flow_y, 0.0), h - 1.0)
    sx = np.minimum(np.maximum(np.arange(w) + flow_x, 0.0), w - 1.0)
    y0 = np.floor(sy).astype(np.intp)
    x0 = np.floor(sx).astype(np.intp)
    fy = sy - y0
    fx = sx - x0
    gx = 1.0 - fx
    # one-axis gathers from the flattened canvas, at row offset + column
    row0 = y0 * w
    row1 = np.minimum(y0 + 1, h - 1) * w
    x1 = np.minimum(x0 + 1, w - 1)
    flat = a.reshape(*a.shape[:-2], h * w)
    top = np.take(flat, row0 + x0, axis=-1) * gx + np.take(flat, row0 + x1, axis=-1) * fx
    bot = np.take(flat, row1 + x0, axis=-1) * gx + np.take(flat, row1 + x1, axis=-1) * fx
    return top * (1.0 - fy) + bot * fy


def grid_write(path, grid: Grid) -> None:
    """Write a grid to the .f64grid format (magic, u32 dims, f64 payload, LE)."""
    with open(path, "wb") as f:
        f.write(_HEADER.pack(_MAGIC, grid.height, grid.width))
        f.write(grid.a.astype("<f8").tobytes())


def _read_payload(path) -> np.ndarray:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < _HEADER.size:
        raise GridFormatError(f"{path}: malformed header (file too short)")
    magic, h, w = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise GridFormatError(f"{path}: bad magic {magic!r}")
    if h == 0 or w == 0:
        raise GridFormatError(f"{path}: zero dimension {h}x{w}")
    if h * w > _MAX_CELLS:
        raise GridFormatError(f"{path}: dimension overflow {h}x{w}")
    expected = _HEADER.size + 8 * h * w
    if len(raw) < expected:
        raise GridFormatError(
            f"{path}: truncated payload ({len(raw)} bytes, expected {expected})"
        )
    if len(raw) > expected:
        raise GridFormatError(f"{path}: trailing data after payload")
    return np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).reshape(h, w)


def grid_read(path) -> Grid:
    """Read a .f64grid file; exact inverse of grid_write on finite values."""
    return Grid(_read_payload(path))


def mask_read(path) -> BinaryMask:
    """Read a .f64grid file whose payload must be exactly 0/1."""
    return BinaryMask(_read_payload(path))
