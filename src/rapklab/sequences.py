"""Sequence containers shared across the library.

Three thin, validated wrappers around numpy arrays: per-epoch feature rows,
integer stage labels, and per-epoch class probabilities. They exist so that
shape and range errors surface at construction instead of deep inside a
smoother or metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seeding import check_size

__all__ = ["FeatureSequence", "StageSequence", "ProbSequence"]

# Row sums of a probability sequence may drift this far from 1 before we
# reject the input (covers accumulated rounding from upstream averaging).
PROB_ROWSUM_TOL = 1e-6


@dataclass(frozen=True)
class FeatureSequence:
    """A length-T sequence of d-dimensional epoch feature vectors.

    Parameters
    ----------
    data : ndarray, shape (T, d)
        Feature rows; coerced to float64. Must be finite.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"feature data must be 2-D (T, d), got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"feature data must be non-empty, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("feature data contains non-finite values")
        object.__setattr__(self, "data", arr)

    @property
    def t_len(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class StageSequence:
    """A length-T sequence of integer stage labels in ``[0, n_classes)``.

    ``n_classes`` is carried explicitly because a sequence need not visit
    every class.
    """

    labels: np.ndarray
    n_classes: int

    def __post_init__(self) -> None:
        arr = np.asarray(self.labels)
        if arr.ndim != 1:
            raise ValueError(f"labels must be 1-D, got shape {arr.shape}")
        if arr.size < 1:
            raise ValueError("labels must be non-empty")
        if not np.issubdtype(arr.dtype, np.integer):
            if not np.all(arr == np.floor(arr)):
                raise ValueError("labels must be integers")
        arr = arr.astype(np.int64)
        check_size("n_classes", self.n_classes, 1)
        if arr.min() < 0 or arr.max() >= self.n_classes:
            raise ValueError(
                f"labels must lie in [0, {self.n_classes}), "
                f"got range [{arr.min()}, {arr.max()}]"
            )
        object.__setattr__(self, "labels", arr)

    @property
    def t_len(self) -> int:
        return self.labels.shape[0]


@dataclass(frozen=True)
class ProbSequence:
    """A length-T sequence of class-probability rows.

    Every row must be a probability vector: entries in [0, 1] and summing
    to 1 within ``PROB_ROWSUM_TOL``.
    """

    probs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.probs, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"probs must be 2-D (T, C), got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"probs must be non-empty, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("probs contain non-finite values")
        if arr.min() < -1e-9 or arr.max() > 1.0 + 1e-9:
            raise ValueError("probability entries must lie in [0, 1]")
        sums = arr.sum(axis=1)
        bad = np.abs(sums - 1.0) > PROB_ROWSUM_TOL
        if bad.any():
            row = int(np.argmax(bad))
            raise ValueError(
                f"probability rows must sum to 1 within {PROB_ROWSUM_TOL}; "
                f"row {row} sums to {float(sums[row])!r}"
            )
        object.__setattr__(self, "probs", arr)

    @property
    def t_len(self) -> int:
        return self.probs.shape[0]

    @property
    def n_classes(self) -> int:
        return self.probs.shape[1]
