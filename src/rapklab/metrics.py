"""Hypnogram quality metrics.

Two smoothing diagnostics plus standard classification scores:

- Weighted transition entropy (WTE): the entropy of the empirical next-stage
  distribution, averaged over current stages weighted by how often each
  stage is departed. Fragmented, flickering hypnograms score high; clean
  stage runs score low. Natural log, so the ceiling is ln(n_classes).
- Local smoothing impact index (LSII): for every epoch a smoother changed,
  the fraction of the other epochs in its non-overlapping window that agree
  with the new label. Values near 1 mean corrections follow local context;
  values near 1/n_classes mean corrections look arbitrary.

Both come with exhaustive brute-force oracles in the test-suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sequences import StageSequence

__all__ = [
    "transition_counts",
    "wte_pooled",
    "lsii_pooled",
    "accuracy",
    "per_class_f1",
    "weighted_f1",
    "pearson",
    "EvalReport",
]


def transition_counts(s: StageSequence) -> np.ndarray:
    """C x C counts of consecutive-epoch transitions (needs T >= 2)."""
    if s.t_len < 2:
        raise ValueError(f"transition statistics need at least 2 epochs, got {s.t_len}")
    counts = np.zeros((s.n_classes, s.n_classes), dtype=np.int64)
    np.add.at(counts, (s.labels[:-1], s.labels[1:]), 1)
    return counts


def wte_pooled(sequences: list[StageSequence] | tuple[StageSequence, ...]) -> float:
    """Weighted transition entropy of one or more stage sequences.

    Rows of the pooled transition matrix are entropy-scored with the natural
    log (0 log 0 = 0) and averaged with weights proportional to how often
    each stage is departed. Counts are summed per sequence, so no transition
    spans a sequence boundary, and all sequences must share one label space.
    Constant sequences score 0; the ceiling is ln(n_classes).
    """
    if not sequences:
        raise ValueError("need at least one sequence")
    c = sequences[0].n_classes
    if any(s.n_classes != c for s in sequences):
        raise ValueError("sequences disagree on n_classes")
    counts = np.zeros((c, c), dtype=np.int64)
    for s in sequences:
        counts += transition_counts(s)
    row_totals = counts.sum(axis=1)
    grand = row_totals.sum()
    out = 0.0
    for stage in np.nonzero(row_totals)[0]:
        p = counts[stage] / row_totals[stage]
        nz = p > 0
        entropy = -float(np.sum(p[nz] * np.log(p[nz])))
        out += (row_totals[stage] / grand) * entropy
    return float(out)


def lsii_pooled(
    none_list: list[StageSequence],
    corr_list: list[StageSequence],
    w: int,
) -> float | None:
    """Local smoothing impact index, corrections pooled over sequence pairs.

    For each epoch where a corrected sequence differs from its baseline,
    measures the fraction of the other epochs in its non-overlapping
    width-``w`` window whose corrected label matches the corrected label at
    that epoch, and averages over all corrections of all pairs. Agreement is
    measured against the corrected sequence itself, so no ground truth
    enters the score. Returns ``None`` when no correction has window context
    to score (in particular when there are no corrections).
    """
    if len(none_list) != len(corr_list):
        raise ValueError("need one corrected sequence per baseline sequence")
    if w < 2:
        raise ValueError(f"window width must be >= 2, got {w}")
    terms: list[float] = []
    for none_s, corr_s in zip(none_list, corr_list):
        if none_s.t_len != corr_s.t_len:
            raise ValueError(
                f"sequence lengths differ: none={none_s.t_len}, corrected={corr_s.t_len}"
            )
        corr = corr_s.labels
        for t in np.nonzero(none_s.labels != corr)[0]:
            start = (int(t) // w) * w
            stop = min(start + w, corr_s.t_len)
            others = stop - start - 1
            if others == 0:
                # Singleton window: no context to agree with.
                continue
            terms.append((int(np.count_nonzero(corr[start:stop] == corr[t])) - 1) / others)
    if not terms:
        return None
    return sum(terms) / len(terms)


def accuracy(pred: StageSequence, true: StageSequence) -> float:
    """Fraction of epochs with matching labels."""
    if pred.t_len != true.t_len:
        raise ValueError(f"lengths differ: pred={pred.t_len}, true={true.t_len}")
    return float(np.mean(pred.labels == true.labels))


def per_class_f1(pred: StageSequence, true: StageSequence, n_classes: int) -> np.ndarray:
    """F1 per class; classes with zero precision+recall score 0."""
    if pred.t_len != true.t_len:
        raise ValueError(f"lengths differ: pred={pred.t_len}, true={true.t_len}")
    f1 = np.zeros(n_classes)
    for c in range(n_classes):
        tp = int(np.count_nonzero((pred.labels == c) & (true.labels == c)))
        fp = int(np.count_nonzero((pred.labels == c) & (true.labels != c)))
        fn = int(np.count_nonzero((pred.labels != c) & (true.labels == c)))
        denom = 2 * tp + fp + fn
        f1[c] = 2 * tp / denom if denom > 0 else 0.0
    return f1


def weighted_f1(pred: StageSequence, true: StageSequence, n_classes: int) -> float:
    """Support-weighted mean of per-class F1 (zero-support classes drop out)."""
    f1 = per_class_f1(pred, true, n_classes)
    support = np.bincount(true.labels, minlength=n_classes)[:n_classes]
    return float(np.sum(f1 * support) / true.t_len)


def pearson(a: np.ndarray | list[float], b: np.ndarray | list[float]) -> float:
    """Pearson correlation of two equal-shape arrays, entries paired in order.

    Needs at least 3 entries, all finite, and nonzero variance on both sides.
    """
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shapes differ: {x.shape} vs {y.shape}")
    if x.size < 3:
        raise ValueError(f"need at least 3 points, got {x.size}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("points contain non-finite values")
    if np.std(x) == 0.0 or np.std(y) == 0.0:
        raise ValueError("correlation undefined: an input has zero variance")
    return float(np.corrcoef(x.ravel(), y.ravel())[0, 1])


@dataclass(frozen=True)
class EvalReport:
    """One evaluated run: classification scores plus smoothing diagnostics.

    ``lsii`` is ``None`` exactly when the smoother changed nothing that can
    be scored (in particular for the identity smoother).
    """

    accuracy: float
    weighted_f1: float
    wte: float
    lsii: float | None
    per_class_f1: tuple[float, ...]
    config_digest: str
    seed: int

    def __post_init__(self) -> None:
        for name in ("accuracy", "weighted_f1"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if not (math.isfinite(self.wte) and self.wte >= 0.0):
            raise ValueError(f"wte must be finite and >= 0, got {self.wte}")
        if self.lsii is not None and not 0.0 <= self.lsii <= 1.0:
            raise ValueError(f"lsii must lie in [0, 1], got {self.lsii}")
