"""Deterministic pseudo-random numbers for reproducible sweeps.

The generator is splitmix64 (Steele, Lea, Flood's fixed-increment variant
of a 64-bit mix function).  It was chosen because the full algorithm fits
in a dozen lines, so the same seed reproduces the same sample stream in
any language, which keeps verification reports byte-stable.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """splitmix64 stream seeded with a 64-bit integer."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform double in [0, 1) built from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def choice(self, seq):
        return seq[self.next_u64() % len(seq)]
