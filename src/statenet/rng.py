"""Seedable, platform-independent random number generation.

Everything stochastic in this package (graph wiring, dataset generation,
epoch shuffling, expert noise) draws from the splitmix64 generator below:
uniform floats, unbiased integers, coin flips and shuffles. Floating-point
draws are produced by an explicit integer-to-unit-interval mapping (top 53
bits scaled by 2**-53), so identical seeds give bitwise identical streams
on every platform.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, *keys: int) -> int:
    """Derive an independent child seed from a base seed and integer keys.

    Used to give every episode / epoch / rollout its own stream without
    sharing generator state (splitmix-style fold of each key).
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
        """Uniform in [lo, hi): top 53 bits of a u64 scaled by 2**-53."""
        return lo + (hi - lo) * ((self.u64() >> 11) * 2.0 ** -53)

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection sampling."""
        if n <= 0:
            raise ValueError("randint needs n >= 1")
        bound = (_MASK64 + 1) - ((_MASK64 + 1) % n)
        while True:
            x = self.u64()
            if x < bound:
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
