"""Counter-based splittable random stream.

The word stream is a jump-ahead form of splitmix64: word(seed, i) depends
only on (seed, i), so any draw is addressable without generating its
predecessors and the 64-bit stream is bit-exact across platforms. Child
streams hash (seed, label) into a fresh seed, so they are independent of
the parent's draw order. Float draws apply IEEE double transforms
(Box-Muller for normals) to the word stream.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RandomStream", "gaussian_field"]

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _mix64(x: int) -> int:
    """splitmix64 finalizer on a python int."""
    x &= _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def _fnv1a(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK
    return h


class RandomStream:
    """Deterministic stream addressed by (seed, counter).

    Identical (seed, counter) always yields identical sequences; draws
    advance the counter by a deterministic amount (normals consume two
    words each).
    """

    __slots__ = ("seed", "counter")

    def __init__(self, seed: int, counter: int = 0):
        self.seed = int(seed) & _MASK
        self.counter = int(counter) & _MASK

    def child(self, label) -> "RandomStream":
        """Independent stream derived by hashing (seed, label); counter 0.

        Does not touch this stream's counter, so children are independent
        of the parent's draw order.
        """
        h = _fnv1a(str(label).encode("utf-8"))
        return RandomStream(_mix64(self.seed ^ _mix64(h)))

    def words(self, n: int) -> np.ndarray:
        """Next n raw 64-bit words; consumes n counter steps."""
        idx = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter = (self.counter + n) & _MASK
        x = np.uint64(self.seed) + idx * np.uint64(_GOLDEN)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles in [0, 1); consumes n counter steps."""
        return (self.words(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def normals(self, n: int) -> np.ndarray:
        """n i.i.d. standard normal doubles; consumes exactly 2n counter steps.

        Box-Muller on word pairs; u1 is mapped into (0, 1] so the log is
        always finite.
        """
        w = self.words(2 * n)
        u1 = ((w[:n] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
        u2 = (w[n:] >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)

    def integers(self, n: int, lo: int, hi: int) -> np.ndarray:
        """n ints uniform in [lo, hi); consumes n counter steps.

        Modulo-reduced; bias is O(range / 2**64), irrelevant here.
        """
        if hi <= lo:
            raise ValueError(f"empty integer range [{lo}, {hi})")
        span = np.uint64(hi - lo)
        return (self.words(n) % span).astype(np.int64) + lo

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed:#018x}, counter={self.counter})"


def gaussian_field(rng: RandomStream, *shape: int) -> np.ndarray:
    """(..., h, w) array of i.i.d. standard normals; consumes 2 steps per value.

    Leading axes count fields: gaussian_field(rng, F, h, w) holds, in C
    order, the F fields that F calls of gaussian_field(rng, h, w) return,
    and leaves the same counter. Each field is drawn into its slot of the
    result, so the temporaries stay the size of one field.
    """
    h, w = shape[-2:]
    out = np.empty(shape)
    for f in out.reshape(-1, h, w):
        f[...] = rng.normals(h * w).reshape(h, w)
    return out
