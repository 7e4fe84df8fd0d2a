"""Counter-based splittable random stream.

The word stream is a jump-ahead form of splitmix64: word(seed, i) depends
only on (seed, i), so any draw is addressable without generating its
predecessors and the 64-bit stream is bit-exact across platforms. Child
streams hash (seed, label) into a fresh seed, so they are independent of
the parent's draw order. Float draws apply IEEE double transforms
(Box-Muller for normals) to the word stream, in place in its buffer; a
noise block is drawn in passes of at most 256 KiB of words.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RandomStream", "gaussian_field"]

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

_NOISE_BYTES = 1 << 18  # per pass: 9 fields at 48x36, 37 at 24x18, 1 at 128x96


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
        x = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter = (self.counter + n) & _MASK
        x *= np.uint64(_GOLDEN)
        x += np.uint64(self.seed)
        t = np.empty_like(x)
        for shift, mul in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
            x ^= np.right_shift(x, np.uint64(shift), out=t)
            x *= np.uint64(mul)
        x ^= np.right_shift(x, np.uint64(31), out=t)
        return x

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles in [0, 1); consumes n counter steps."""
        return (self.words(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def normals(self, n: int) -> np.ndarray:
        """n i.i.d. standard normal doubles; consumes exactly 2n counter steps.

        Box-Muller on word pairs; u1 is mapped into (0, 1] so the log is
        always finite.
        """
        return _box_muller(self, np.empty((1, n)))[0]

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


def _box_muller(rng: RandomStream, rows: np.ndarray) -> np.ndarray:
    """Fill and return the (c, n) array rows with what c calls of
    rng.normals(n) return, from one rng.words(2 c n) call: row i takes the
    i-th 2n words, u1 from the first n and u2 from the rest, in place."""
    c, n = rows.shape
    w = rng.words(2 * c * n).reshape(c, 2, n)
    w >>= np.uint64(11)
    u1, u2 = w.view(np.float64).transpose(1, 0, 2)
    np.add(w[:, 0], 1.0, out=u1)
    u1 *= 2.0**-53
    np.multiply(w[:, 1], 2.0**-53, out=u2)
    np.sqrt(np.multiply(np.log(u1, out=u1), -2.0, out=u1), out=u1)
    np.cos(np.multiply(u2, 2.0 * np.pi, out=u2), out=u2)
    return np.multiply(u1, u2, out=rows)


def gaussian_field(rng: RandomStream, *shape: int) -> np.ndarray:
    """(..., h, w) array of i.i.d. standard normals; consumes 2 steps per value.

    Leading axes count fields: gaussian_field(rng, F, h, w) holds, in C
    order, the F fields that F calls of gaussian_field(rng, h, w) return,
    and leaves the same counter. Consecutive fields are drawn into their
    slots in passes of at most _NOISE_BYTES of words (at least one field):
    one pass per 48x36 block raised a paired run's peak RSS by 0.3 MB.
    """
    h, w = shape[-2:]
    out = np.empty(shape)
    rows = out.reshape(-1, h * w)
    step = max(1, _NOISE_BYTES // (16 * h * w))
    for i in range(0, len(rows), step):
        _box_muller(rng, rows[i : i + step])
    return out
