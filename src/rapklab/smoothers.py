"""Temporal smoothers for noisy epoch-level predictions, plus the frozen head.

Four smoothers share one job: turn a fragmented per-epoch signal into a
temporally coherent hypnogram.

- ``moving_average_smooth`` averages probability rows over a centered
  sliding window and re-decides by argmax.
- ``majority_filter_smooth`` takes the modal label over a centered sliding
  window (an integer-median variant is available behind a flag).
- ``fixed_attention_smooth`` replaces each feature row by its non-overlapping
  window mean: pure uniform averaging, the global term of the closed-form
  kernel with the content term switched off.
- ``random_transformer_smooth`` runs a frozen randomly initialized encoder
  whose attention stays inside non-overlapping windows, with the same
  weights everywhere.

Feature-space smoothers are paired with a nearest-centroid classifier
(``CentroidSums``, then ``classify``) fitted on smoothed training features.
"""

from __future__ import annotations

import numpy as np

from .attention import EncoderConfig, EncoderWeights, encoder_forward, window_blocks
from .seeding import check_size
from .sequences import FeatureSequence, ProbSequence, StageSequence

__all__ = [
    "moving_average_smooth",
    "majority_filter_smooth",
    "fixed_attention_smooth",
    "random_transformer_smooth",
    "CentroidSums",
    "classify",
]


def _window_sums(values: np.ndarray, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Column sums of ``values`` over each row's centered sliding window, and
    the window sizes.

    The window spans [t - w//2, t + w//2], truncated at the sequence edges.
    """
    check_size("window width", w, 1)
    idx = np.arange(len(values))
    lo = np.maximum(idx - w // 2, 0)
    hi = np.minimum(idx + w // 2 + 1, len(values))
    csum = np.vstack([np.zeros((1, values.shape[1]), values.dtype), np.cumsum(values, axis=0)])
    return csum[hi] - csum[lo], hi - lo


def moving_average_smooth(p: ProbSequence, w: int) -> StageSequence:
    """Average probability rows over a centered sliding window, then argmax.

    The window spans [t - w//2, t + w//2], truncated at the sequence edges.
    Argmax ties resolve to the smallest class index.
    """
    sums, sizes = _window_sums(p.probs, w)
    return StageSequence(np.argmax(sums / sizes[:, np.newaxis], axis=1), p.n_classes)


def majority_filter_smooth(
    s: StageSequence, w: int, integer_median: bool = False
) -> StageSequence:
    """Modal label over a centered sliding window.

    Ties resolve in favour of the original center label when it is among the
    modal labels, otherwise to the smallest label index. With
    ``integer_median`` the (lower) median of the window labels is used
    instead, which treats labels as ordered integers.
    """
    labels = s.labels
    counts, sizes = _window_sums(np.eye(s.n_classes, dtype=np.int64)[labels], w)
    if integer_median:
        # The lower median is the smallest label whose cumulative count
        # passes (size - 1) // 2.
        below = np.cumsum(counts, axis=1) > ((sizes - 1) // 2)[:, np.newaxis]
        return StageSequence(np.argmax(below, axis=1), s.n_classes)
    modal = counts[np.arange(s.t_len), labels] == counts.max(axis=1)
    return StageSequence(np.where(modal, labels, np.argmax(counts, axis=1)), s.n_classes)


def fixed_attention_smooth(x: FeatureSequence, w: int) -> FeatureSequence:
    """Replace each feature row by its non-overlapping window mean."""
    out = np.empty_like(x.data)
    for lo, hi, width in window_blocks(x.t_len, w):
        means = x.data[lo:hi].reshape(-1, width, x.dim).mean(axis=1)
        out[lo:hi] = np.repeat(means, width, axis=0)
    return FeatureSequence(out)


def random_transformer_smooth(
    x: FeatureSequence, cfg: EncoderConfig, weights: EncoderWeights | None = None
) -> FeatureSequence:
    """Run the frozen random encoder (``encoder_forward``) over the sequence.

    Every attention window sees the same weights: ``weights`` if given, else
    drawn from ``cfg.seed``.
    """
    return encoder_forward(x, cfg, weights)


class CentroidSums:
    """Running per-class feature sums for a nearest-centroid head, fed one
    ``(features, labels)`` part at a time with ``add``.

    Each class sum continues in row order across parts, so ``classifier()``
    equals a fit on the concatenated parts bit for bit. A part need not hold
    every class, but every class must appear in some part.
    """

    def __init__(self, n_classes: int):
        self.n_classes = n_classes
        self._sums: list[np.ndarray | None] = [None] * n_classes
        self._counts = [0] * n_classes

    def add(self, x: FeatureSequence, y: StageSequence) -> None:
        """Add the rows of ``x`` to the sums of their classes in ``y``."""
        if x.t_len != y.t_len:
            raise ValueError(f"features ({x.t_len}) and labels ({y.t_len}) differ in length")
        if self.n_classes < y.n_classes:
            raise ValueError(f"n_classes={self.n_classes} below label space {y.n_classes}")
        for c in range(self.n_classes):
            rows = x.data[y.labels == c]
            self._counts[c] += len(rows)
            if self._sums[c] is not None:  # continue the sum in row order
                rows = np.concatenate([self._sums[c][np.newaxis], rows])
            if len(rows):
                self._sums[c] = rows.sum(axis=0)

    def classifier(self) -> np.ndarray:
        """The ``(n_classes, d)`` class means of every row added so far."""
        for c, n in enumerate(self._counts):
            if not n:
                raise ValueError(f"class {c} has no training examples; cannot place a centroid")
        return np.array([s / n for s, n in zip(self._sums, self._counts)])


def classify(x: FeatureSequence, centroids: np.ndarray) -> StageSequence:
    """Nearest-centroid labels (Euclidean) for the ``(n_classes, d)`` array
    ``centroids``; ties go to the smallest class index."""
    if centroids.shape[1] != x.dim:
        raise ValueError(f"classifier expects d={centroids.shape[1]} features, got d={x.dim}")
    d2 = (
        np.sum(x.data**2, axis=1, keepdims=True)
        - 2.0 * (x.data @ centroids.T)
        + np.sum(centroids**2, axis=1)[np.newaxis, :]
    )
    return StageSequence(np.argmin(d2, axis=1), len(centroids))
