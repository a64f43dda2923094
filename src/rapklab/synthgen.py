"""Synthetic hypnogram test-bed.

Generates first-order Markov stage sequences with tunable inertia, then
simulates a noisy epoch encoder on top of them: per-epoch class
probabilities whose argmax is wrong at a configurable rate, and feature
vectors drawn around the class mean of that same noisy prediction. Features
and probabilities therefore tell the same corrupted story, which is exactly
the kind of fragmented signal the temporal smoothers are meant to repair;
the clean Markov sequence is kept as ground truth.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .seeding import MAX_SCALE, check_seed, check_size, generator, mix_seed
from .sequences import FeatureSequence, ProbSequence, StageSequence

__all__ = [
    "SynthConfig",
    "Subject",
    "SynthDataset",
    "check_subject",
    "gen_hypnogram",
    "gen_features",
    "gen_noisy_probs",
    "split_subjects",
    "iter_subjects",
    "make_dataset",
    "SPLITS",
    "SPLIT_RATIOS",
]

# The split tags, and the subject-level proportions ``iter_subjects`` uses.
SPLITS = ("train", "val", "test")
SPLIT_RATIOS = (0.8, 0.1, 0.1)

# Probability mass the simulated epoch encoder puts on its predicted class.
PEAK_PROB = 0.8

# Stream tags separating the per-subject draws.
_ROLE_HYPNO = 0x71
_ROLE_FEAT = 0x72
_ROLE_PROBS = 0x73
_ROLE_SPLIT = 0x74


@dataclass(frozen=True)
class SynthConfig:
    """Parameters of the synthetic cohort.

    ``self_prob`` is the Markov stay probability; the remaining mass spreads
    uniformly over the other stages (``off_diag`` currently admits only
    ``"uniform"``). ``label_noise`` is the epoch-level corruption rate of the
    simulated encoder, ``class_sep`` the distance of each class mean from the
    origin along its own axis, ``noise_std`` the isotropic feature noise.
    """

    n_classes: int = 5
    t_len: int = 1000
    n_subjects: int = 20
    self_prob: float = 0.92
    off_diag: str = "uniform"
    feat_dim: int = 16
    class_sep: float = 4.0
    noise_std: float = 1.0
    label_noise: float = 0.30
    seed: int = 97531

    def __post_init__(self) -> None:
        check_seed(self.seed)
        check_size("n_classes", self.n_classes, 2)
        check_size("t_len", self.t_len, 2)
        check_size("n_subjects", self.n_subjects, 3)  # one subject for each split
        check_size("feat_dim", self.feat_dim)
        if not 0.0 <= self.self_prob <= 1.0:
            raise ValueError(f"self_prob must lie in [0, 1], got {self.self_prob}")
        if self.off_diag != "uniform":
            raise ValueError(f"unsupported off-diagonal rule {self.off_diag!r}")
        if self.feat_dim < self.n_classes:
            raise ValueError(
                f"feat_dim={self.feat_dim} must be >= n_classes={self.n_classes} "
                "(class means sit on coordinate axes)"
            )
        if not 0.0 < self.class_sep < MAX_SCALE:
            raise ValueError(f"class_sep must lie in (0, {MAX_SCALE:g}), got {self.class_sep}")
        if not 0.0 <= self.noise_std < MAX_SCALE:
            raise ValueError(f"noise_std must lie in [0, {MAX_SCALE:g}), got {self.noise_std}")
        if not 0.0 <= self.label_noise <= 1.0:
            raise ValueError(f"label_noise must lie in [0, 1], got {self.label_noise}")


def gen_hypnogram(cfg: SynthConfig, subject_seed: int) -> StageSequence:
    """First-order Markov stage sequence: uniform start, stay with
    ``self_prob``, otherwise move to a uniformly chosen other stage."""
    rng = generator(cfg.seed, _ROLE_HYPNO, subject_seed)
    c = cfg.n_classes
    first = int(rng.integers(c))
    stay = rng.random(cfg.t_len - 1)
    moves = rng.integers(0, c - 1, size=cfg.t_len - 1)
    labels = np.empty(cfg.t_len, dtype=np.int64)
    labels[0] = first
    for t in range(1, cfg.t_len):
        prev = labels[t - 1]
        if stay[t - 1] < cfg.self_prob:
            labels[t] = prev
        else:
            m = moves[t - 1]
            labels[t] = m if m < prev else m + 1
    return StageSequence(labels, c)


def gen_features(labels: StageSequence, cfg: SynthConfig, subject_seed: int) -> FeatureSequence:
    """Per-epoch features at the labelled class mean plus isotropic noise.

    Class means are ``class_sep`` along distinct coordinate axes, so the
    centroid geometry is symmetric across classes.
    """
    if cfg.feat_dim < labels.n_classes:
        raise ValueError(
            f"feat_dim={cfg.feat_dim} must be >= n_classes={labels.n_classes}"
        )
    rng = generator(cfg.seed, _ROLE_FEAT, subject_seed)
    means = np.zeros((labels.n_classes, cfg.feat_dim))
    means[np.arange(labels.n_classes), np.arange(labels.n_classes)] = cfg.class_sep
    # Scaled and offset in place: the same sums as means + noise_std * z,
    # without two full-size temporaries; at noise_std 0 they are the means
    # exactly (z * 0 is +-0, and +-0 + m is m). The offset is made before
    # the draw, so the freed offset lies below the features in the heap
    # rather than above them, where it would join the encoder's scratch
    # space and make the allocator hand that space back to the system after
    # every pass.
    offset = means[labels.labels]
    data = rng.standard_normal((labels.t_len, cfg.feat_dim))
    data *= cfg.noise_std
    data += offset
    return FeatureSequence(data)


def gen_noisy_probs(labels: StageSequence, cfg: SynthConfig, subject_seed: int) -> ProbSequence:
    """Simulated epoch-encoder probabilities.

    Each epoch's row puts ``PEAK_PROB`` on the true stage and spreads the
    rest uniformly; with probability ``label_noise`` the peak lands on a
    uniformly drawn wrong stage instead.
    """
    if labels.n_classes > cfg.n_classes:
        raise ValueError(
            f"labels span {labels.n_classes} classes, more than n_classes={cfg.n_classes}"
        )
    rng = generator(mix_seed(cfg.seed, _ROLE_PROBS, subject_seed))
    t_len = labels.t_len
    corrupt = rng.random(t_len) < cfg.label_noise
    wrong = rng.integers(0, cfg.n_classes - 1, size=t_len)
    wrong = np.where(wrong < labels.labels, wrong, wrong + 1)
    peak = np.where(corrupt, wrong, labels.labels)
    probs = np.full((t_len, cfg.n_classes), (1.0 - PEAK_PROB) / (cfg.n_classes - 1))
    probs[np.arange(t_len), peak] = PEAK_PROB
    return ProbSequence(probs)


def split_subjects(cfg: SynthConfig) -> list[str]:
    """Assign the cohort's subjects to train/val/test by a seeded shuffle.

    Counts follow ``SPLIT_RATIOS``, rounded so that every split is non-empty;
    the returned list maps subject index -> split tag.
    """
    n_val = max(1, round(SPLIT_RATIOS[1] * cfg.n_subjects))
    n_test = max(1, round(SPLIT_RATIOS[2] * cfg.n_subjects))
    n_train = cfg.n_subjects - n_val - n_test
    order = generator(cfg.seed, _ROLE_SPLIT).permutation(cfg.n_subjects)
    tags = [""] * cfg.n_subjects
    for pos, idx in enumerate(order):
        if pos < n_train:
            tags[idx] = "train"
        elif pos < n_train + n_val:
            tags[idx] = "val"
        else:
            tags[idx] = "test"
    return tags


@dataclass(frozen=True)
class Subject:
    """One synthetic recording: features, true stages, optional probabilities."""

    subject_id: str
    split: str
    features: FeatureSequence
    stages: StageSequence
    probs: ProbSequence | None

    def __post_init__(self) -> None:
        if self.features.t_len != self.stages.t_len:
            raise ValueError(
                f"{self.subject_id}: features ({self.features.t_len}) and stages "
                f"({self.stages.t_len}) differ in length"
            )
        if self.probs is not None and self.probs.t_len != self.stages.t_len:
            raise ValueError(
                f"{self.subject_id}: probs ({self.probs.t_len}) and stages "
                f"({self.stages.t_len}) differ in length"
            )
        if self.split not in SPLITS:
            raise ValueError(f"{self.subject_id}: unknown split {self.split!r}")


def check_subject(sub: Subject, n_classes: int, feat_dim: int) -> None:
    """Raise ValueError unless ``sub`` fits a cohort with ``n_classes`` stages
    and ``feat_dim`` features."""
    if sub.stages.n_classes != n_classes:
        raise ValueError(f"{sub.subject_id}: label space differs from dataset")
    if sub.features.dim != feat_dim:
        raise ValueError(f"{sub.subject_id}: feature width differs from dataset")
    if sub.probs is not None and sub.probs.n_classes != n_classes:
        raise ValueError(f"{sub.subject_id}: probability width differs from dataset")


@dataclass(frozen=True)
class SynthDataset:
    """A cohort of subjects with a shared label space and feature width."""

    subjects: tuple[Subject, ...]
    n_classes: int
    feat_dim: int
    config: SynthConfig | None = None

    def __post_init__(self) -> None:
        if not self.subjects:
            raise ValueError("dataset must contain at least one subject")
        for sub in self.subjects:
            check_subject(sub, self.n_classes, self.feat_dim)

    def split(self, tag: str) -> list[Subject]:
        return [s for s in self.subjects if s.split == tag]


def iter_subjects(cfg: SynthConfig, split: str | None = None) -> Iterator[Subject]:
    """Generate the cohort's subjects one at a time, in index order; with
    ``split``, only the subjects of that split are drawn.

    Per subject: a clean Markov hypnogram, noisy encoder probabilities on top
    of it, and features centred on the class means of the *noisy* argmax
    stream, so feature noise and probability noise are consistent with each
    other and with a single simulated encoder. Each subject has its own
    streams, so it does not depend on which others are drawn.
    """
    tags = split_subjects(cfg)
    for i, tag in enumerate(tags):
        if split is not None and tag != split:
            continue
        stages = gen_hypnogram(cfg, i)
        probs = gen_noisy_probs(stages, cfg, i)
        noisy = StageSequence(np.argmax(probs.probs, axis=1), cfg.n_classes)
        yield Subject(
            subject_id=f"subject_{i:03d}",
            split=tag,
            features=gen_features(noisy, cfg, i),
            stages=stages,
            probs=probs,
        )


def make_dataset(cfg: SynthConfig) -> SynthDataset:
    """Generate the full synthetic cohort (see ``iter_subjects``)."""
    return SynthDataset(
        subjects=tuple(iter_subjects(cfg)),
        n_classes=cfg.n_classes,
        feat_dim=cfg.feat_dim,
        config=cfg,
    )
