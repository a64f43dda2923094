"""Deterministic 64-bit sub-seed derivation shared by every randomized component.

All randomness in the library flows through numpy's PCG64 generator, seeded
with integers produced by an explicit splitmix-style mixer. Keeping the mixer
in one place makes independence between streams (projection matrices,
Monte Carlo trials, per-subject draws) reproducible and easy to audit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["MASK64", "MAX_SCALE", "check_seed", "check_size", "splitmix64", "mix_seed",
           "generator"]

MASK64 = (1 << 64) - 1

# A scale (a half-width or a standard deviation) must stay below this, so
# that its square, a variance, is finite.
MAX_SCALE = 1e154

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def splitmix64(value: int) -> int:
    """One splitmix64 step: advance by the golden gamma, then finalize."""
    z = (value + _GAMMA) & MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def check_seed(seed: int) -> int:
    """Return ``seed`` if it is in [0, 2**64); a seed outside would alias one inside."""
    if not 0 <= seed <= MASK64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def check_size(name: str, value: int, low: int | None = None) -> int:
    """Return ``value`` if it is below 2**63, above which no numpy shape or
    index could hold it, and, when ``low`` is given, at least ``low``."""
    if value >= 2**63:
        raise ValueError(f"{name} must be < 2**63, got {value}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def mix_seed(seed: int, *streams: int) -> int:
    """Derive a decorrelated 64-bit sub-seed from ``seed`` and stream keys.

    The base seed is finalized once, then each stream key is folded in with
    a further splitmix64 step. Nearby seeds and keys land far apart.
    """
    out = splitmix64(check_seed(seed))
    for key in streams:
        out = splitmix64(out ^ (key & MASK64))
    return out


def generator(seed: int, *streams: int) -> np.random.Generator:
    """PCG64 generator for the sub-seed ``mix_seed(seed, *streams)``."""
    return np.random.Generator(np.random.PCG64(mix_seed(seed, *streams)))
