"""Seeded 64-bit linear congruential generator for reproducible sweeps.

Randomized test-point sweeps must reproduce bit-identically across runs and
platforms, so we fix the generator in the documentation rather than depend on
library internals: the state update is

    x <- (6364136223846793005 * x + 1442695040888963407) mod 2**64

(Knuth's MMIX multiplier/increment) and ``uniform`` maps the state to
[0, 1) as x / 2**64.  numpy's generators would work equally well today, but
their stream identities are not part of any stability contract.
"""

from __future__ import annotations

_MULT = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 64) - 1


class Lcg:
    """Deterministic 64-bit LCG; the documented stream is the contract."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_raw(self) -> int:
        self.state = (_MULT * self.state + _INC) & _MASK
        return self.state

    def uniform(self) -> float:
        """Next value in [0, 1)."""
        return self.next_raw() / 2.0**64

    def angle(self) -> float:
        """Next angle in [0, 2*pi)."""
        return self.uniform() * 6.283185307179586
