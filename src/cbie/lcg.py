"""Deterministic 64-bit linear congruential generator.

Used for every seeded probe-point stream, and for the start vectors of the
spectrum probe, so that independent implementations (and repeated runs)
generate byte-identical sequences.  The recurrence is

    state <- (6364136223846793005 * state + 1442695040888963407) mod 2^64

and a uniform double in [0, 1) is taken from the top 53 bits of the state.
"""

from __future__ import annotations

_MULT = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 64) - 1


class Lcg:
    def __init__(self, seed: int = 42):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (_MULT * self.state + _INC) & _MASK
        return self.state

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = self.next_u64() >> 11  # 53 significant bits
        return lo + (hi - lo) * (u * (1.0 / (1 << 53)))
