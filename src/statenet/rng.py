"""Seedable, platform-independent random number generation.

Everything stochastic in this package (graph wiring, dataset generation,
epoch shuffling, expert noise) draws from the one splitmix64 generator
below. It serves two kinds of caller: ``Rng`` draws one stream as Python
ints (uniform floats, unbiased integers, coin flips and shuffles), and
``RowRng`` draws many streams at once as 1-D ``uint64`` arrays, row ``r``
drawing exactly what ``Rng(seeds[r])`` draws. splitmix64 is counter-based
(draw k of a stream is the mix of ``seed + k * golden``), so a row can
take several draws in one array operation. Floating-point draws are
produced by an explicit integer-to-unit-interval mapping (top 53 bits
scaled by 2**-53), so identical seeds give bitwise identical streams on
every platform and in both kinds of caller.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


# _mix, derive_seed and _unit take a Python int or a 1-D uint64 array: the
# masks keep ints in 64 bits and arrays wrap on their own. numpy uint64
# scalars would warn on overflow, so array callers keep every draw 1-D.
def _mix(z):
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def _unit(u):
    """A u64 draw as a float in [0, 1): its top 53 bits scaled by 2**-53."""
    return (u >> 11) * 2.0 ** -53


def _accept_limit(n: int) -> int:
    """Largest u64 draw that ``randint(n)`` accepts: the draws up to it
    cover every residue mod ``n`` equally often."""
    if not 1 <= n <= _MASK64 + 1:
        raise ValueError("randint needs 1 <= n <= 2**64")
    return _MASK64 - (_MASK64 + 1) % n


def derive_seed(seed: int, *keys):
    """Derive an independent child seed from a base seed and integer keys.

    Used to give every episode / epoch / rollout its own stream without
    sharing generator state (splitmix-style fold of each key). A key may
    be a 1-D uint64 array, giving one child seed per entry.
    """
    h = seed & _MASK64
    for k in keys:
        h = _mix((h + _GOLDEN) & _MASK64)
        h = _mix(h ^ ((k & _MASK64) * _GOLDEN & _MASK64))
    return h


class Rng:
    """splitmix64 stream. State is a single u64, cheap to snapshot."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK64
        return _mix(self.state)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        """Uniform in [lo, hi)."""
        return lo + (hi - lo) * _unit(self.u64())

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection sampling."""
        limit = _accept_limit(n)
        while True:
            x = self.u64()
            if x <= limit:
                return x % n

    def randrange(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self.randint(hi - lo + 1)

    def chance(self, p: float) -> bool:
        return self.uniform() < p

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]


class RowRng:
    """One splitmix64 stream per row, drawn as 1-D uint64 arrays.

    Row ``r`` draws exactly what ``Rng(seeds[r])`` draws, in the same
    order, and keeps its own draw counter. Every draw names the rows that
    take it (``rows``, an index array without repeats) and returns their
    values row after row; ``count`` draws per row come out in each row's
    stream order.
    """

    def __init__(self, seeds: np.ndarray):
        self.state = np.array(seeds, dtype=np.uint64)

    def u64(self, rows: np.ndarray, count: int = 1) -> np.ndarray:
        start = self.state[rows]
        self.state[rows] = start + (count * _GOLDEN & _MASK64)
        # draw k of a row (k = 1..count) mixes its state advanced k times
        steps = np.arange(1, count + 1, dtype=np.uint64) * _GOLDEN
        return _mix(start[:, None] + steps).ravel()

    def uniform(self, rows: np.ndarray, lo: float = 0.0,
                hi: float = 1.0) -> np.ndarray:
        """Uniform floats in [lo, hi)."""
        return lo + (hi - lo) * _unit(self.u64(rows))

    def randint(self, rows: np.ndarray, n: int) -> np.ndarray:
        """Uniform integers in [0, n); a rejected draw is redrawn for its
        row alone, before that row draws anything else."""
        limit = _accept_limit(n)
        x = self.u64(rows)
        redo = np.flatnonzero(x > limit)
        while redo.size:
            x[redo] = self.u64(rows[redo])
            redo = redo[x[redo] > limit]
        # n = 2**64 leaves every draw as it is and fits no uint64
        return x % n if n <= _MASK64 else x

    def chance(self, rows: np.ndarray, p: float, count: int = 1) -> np.ndarray:
        # Rng.chance's uniform() < p: a draw in [0, 1) is its own uniform
        return _unit(self.u64(rows, count)) < p
