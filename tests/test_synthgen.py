import math
import re

import numpy as np
import pytest

from rapklab.metrics import wte_pooled
from rapklab.seeding import generator
from rapklab.sequences import StageSequence
from rapklab.smoothers import CentroidSums, classify
from rapklab.synthgen import (
    _ROLE_FEAT,
    SynthConfig,
    SynthDataset,
    gen_features,
    gen_hypnogram,
    gen_noisy_probs,
    iter_subjects,
    make_dataset,
    split_subjects,
)


def cfg(**overrides) -> SynthConfig:
    base = dict(n_classes=4, t_len=200, n_subjects=5, feat_dim=8, seed=42)
    base.update(overrides)
    return SynthConfig(**base)


def test_hypnogram_stay_rate_matches_self_prob():
    c = cfg(t_len=100_000, self_prob=0.9)
    labels = gen_hypnogram(c, 0).labels
    stay = float(np.mean(labels[1:] == labels[:-1]))
    assert stay == pytest.approx(0.9, abs=0.01)


def test_hypnogram_extremes():
    frozen = gen_hypnogram(cfg(self_prob=1.0, t_len=50), 0)
    assert np.all(frozen.labels == frozen.labels[0])
    churn = gen_hypnogram(cfg(self_prob=0.0, t_len=50), 0)
    assert np.all(churn.labels[1:] != churn.labels[:-1])


def test_hypnogram_wte_increases_with_churn():
    values = [
        wte_pooled([gen_hypnogram(cfg(self_prob=p, t_len=10_000), 0)])
        for p in (0.95, 0.8, 0.5)
    ]
    assert values[0] < values[1] < values[2]


def test_hypnogram_deterministic_per_subject():
    a = gen_hypnogram(cfg(), 3).labels
    b = gen_hypnogram(cfg(), 3).labels
    c = gen_hypnogram(cfg(), 4).labels
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_noisy_probs_shape_and_peak():
    labels = gen_hypnogram(cfg(t_len=500), 0)
    p = gen_noisy_probs(labels, cfg(t_len=500, label_noise=0.0), subject_seed=9)
    assert p.probs.shape == (500, 4)
    np.testing.assert_array_equal(np.argmax(p.probs, axis=1), labels.labels)
    np.testing.assert_allclose(p.probs.max(axis=1), np.full(500, 0.8))
    np.testing.assert_allclose(p.probs.sum(axis=1), np.ones(500), atol=1e-12)


def test_noisy_probs_corruption_rate():
    labels = gen_hypnogram(cfg(t_len=20_000), 0)
    noise = 0.3
    p = gen_noisy_probs(labels, cfg(t_len=20_000, label_noise=noise), subject_seed=11)
    wrong = float(np.mean(np.argmax(p.probs, axis=1) != labels.labels))
    stderr = np.sqrt(noise * (1 - noise) / labels.t_len)
    assert abs(wrong - noise) < 3 * stderr


def test_noisy_probs_validation():
    labels = StageSequence(np.array([0, 1, 2]), 3)
    with pytest.raises(ValueError, match="span"):
        gen_noisy_probs(labels, cfg(n_classes=2), 0)


def test_features_exact_without_noise():
    labels = StageSequence(np.array([0, 2, 1]), 3)
    x = gen_features(labels, cfg(noise_std=0.0, class_sep=2.5), 0)
    means = np.zeros((3, 8))
    means[[0, 1, 2], [0, 1, 2]] = 2.5
    np.testing.assert_array_equal(x.data, means[labels.labels])


@pytest.mark.parametrize("noise_std", [0.0, 0.1, 1.0, 2.5])
def test_features_scaled_in_place_equal_the_plain_formula(noise_std):
    # The noise is scaled and offset in place; the bytes are those of
    # means + noise_std * z on the same draw.
    c = cfg(t_len=300, feat_dim=16, noise_std=noise_std, class_sep=0.4)
    labels = gen_hypnogram(c, 3)
    means = np.zeros((c.n_classes, c.feat_dim))
    means[np.arange(c.n_classes), np.arange(c.n_classes)] = c.class_sep
    expected = means[labels.labels]
    if noise_std > 0.0:
        z = generator(c.seed, _ROLE_FEAT, 3).standard_normal((c.t_len, c.feat_dim))
        expected = expected + noise_std * z
    assert gen_features(labels, c, 3).data.tobytes() == expected.tobytes()


def test_features_conditioned_on_given_labels():
    c = cfg(t_len=5000, noise_std=0.5, class_sep=3.0)
    labels = gen_hypnogram(c, 0)
    x = gen_features(labels, c, 0)
    for klass in range(c.n_classes):
        mask = labels.labels == klass
        centroid = x.data[mask].mean(axis=0)
        expected = np.zeros(c.feat_dim)
        expected[klass] = c.class_sep
        np.testing.assert_allclose(centroid, expected, atol=0.1)


def test_centroid_head_recovers_well_separated_classes():
    c = cfg(t_len=4000, n_classes=5, class_sep=2.0, noise_std=0.5)
    labels = gen_hypnogram(c, 0)
    x = gen_features(labels, c, 0)
    sums = CentroidSums(5)
    sums.add(x, labels)
    pred = classify(x, sums.classifier())
    assert float(np.mean(pred.labels == labels.labels)) > 0.95


def test_split_subjects_counts_and_determinism():
    tags = split_subjects(cfg(n_subjects=20, seed=1))
    assert tags.count("train") == 16
    assert tags.count("val") == 2
    assert tags.count("test") == 2
    assert tags == split_subjects(cfg(n_subjects=20, seed=1))
    assert tags != split_subjects(cfg(n_subjects=20, seed=2))
    small = split_subjects(cfg(n_subjects=10, seed=1))
    assert (small.count("train"), small.count("val"), small.count("test")) == (8, 1, 1)
    tiny = split_subjects(cfg(n_subjects=3, seed=1))
    assert sorted(tiny) == ["test", "train", "val"]


def test_synth_config_validation():
    for n_subjects in (1, 2):  # too few to fill every split
        with pytest.raises(ValueError, match=f"n_subjects must be >= 3, got {n_subjects}"):
            cfg(n_subjects=n_subjects)
    with pytest.raises(ValueError, match="n_classes"):
        cfg(n_classes=1)
    with pytest.raises(ValueError, match="self_prob"):
        cfg(self_prob=1.2)
    with pytest.raises(ValueError, match="off-diagonal"):
        cfg(off_diag="sticky")
    with pytest.raises(ValueError, match="feat_dim"):
        cfg(feat_dim=2)
    with pytest.raises(ValueError, match="class_sep"):
        cfg(class_sep=0.0)
    with pytest.raises(ValueError, match="label_noise"):
        cfg(label_noise=-0.1)
    with pytest.raises(ValueError, match="t_len must be >= 2, got 1"):
        cfg(t_len=1)
    for name in ("n_classes", "t_len", "n_subjects", "feat_dim"):
        with pytest.raises(ValueError, match=rf"^{name} must be < 2\*\*63, got {2**63}$"):
            cfg(**{name: 2**63})
    # Each size is checked in full before the next, in field order.
    with pytest.raises(ValueError, match="^n_classes must be >= 2, got 1$"):
        cfg(n_classes=1, t_len=2**63)
    # A scale must stay below 1e154, so that its square is finite; nan fails
    # every comparison, so it is out of range too.
    for value in (-0.1, math.nan, 1e154, 1e308, math.inf):
        with pytest.raises(ValueError, match=re.escape(
                f"noise_std must lie in [0, 1e+154), got {value}")):
            cfg(noise_std=value)
    for value in (-1.0, math.nan, 1e154, math.inf):
        with pytest.raises(ValueError, match=re.escape(
                f"class_sep must lie in (0, 1e+154), got {value}")):
            cfg(class_sep=value)
    assert cfg(noise_std=0.0, class_sep=9.9e153).class_sep == 9.9e153


def test_make_dataset_contract():
    c = cfg(n_subjects=6, t_len=120)
    ds = make_dataset(c)
    assert len(ds.subjects) == 6
    assert ds.n_classes == 4 and ds.feat_dim == 8
    assert ds.config == c
    assert {s.split for s in ds.subjects} == {"train", "val", "test"}
    assert [s.subject_id for s in ds.subjects] == [f"subject_{i:03d}" for i in range(6)]
    for sub in ds.subjects:
        assert sub.features.t_len == sub.stages.t_len == sub.probs.t_len == 120
    assert len(ds.split("train")) + len(ds.split("val")) + len(ds.split("test")) == 6


def test_iter_subjects_draws_one_split_as_the_whole_cohort_has_it():
    c = cfg(n_subjects=10, t_len=80)
    whole = make_dataset(c).subjects
    assert [s.subject_id for s in iter_subjects(c)] == [s.subject_id for s in whole]
    for split in ("train", "val", "test"):
        got = list(iter_subjects(c, split))
        want = [s for s in whole if s.split == split]
        assert [s.subject_id for s in got] == [s.subject_id for s in want]
        for a, b in zip(got, want):
            assert a.features.data.tobytes() == b.features.data.tobytes()
            assert a.probs.probs.tobytes() == b.probs.probs.tobytes()
            np.testing.assert_array_equal(a.stages.labels, b.stages.labels)


def test_make_dataset_deterministic():
    a = make_dataset(cfg(n_subjects=4, t_len=60))
    b = make_dataset(cfg(n_subjects=4, t_len=60))
    for sa, sb in zip(a.subjects, b.subjects):
        np.testing.assert_array_equal(sa.features.data, sb.features.data)
        np.testing.assert_array_equal(sa.stages.labels, sb.stages.labels)
        np.testing.assert_array_equal(sa.probs.probs, sb.probs.probs)
        assert sa.split == sb.split


def test_make_dataset_features_follow_noisy_stream():
    # Features sit near the class mean of the corrupted argmax, not the truth.
    c = cfg(n_subjects=3, t_len=3000, label_noise=0.4, noise_std=0.1, class_sep=3.0)
    ds = make_dataset(c)
    sub = ds.subjects[0]
    noisy = np.argmax(sub.probs.probs, axis=1)
    axis_hit = np.argmax(sub.features.data[:, : c.n_classes], axis=1)
    assert float(np.mean(axis_hit == noisy)) > 0.99
    assert float(np.mean(noisy == sub.stages.labels)) < 0.75


def test_synth_dataset_validation():
    ds = make_dataset(cfg(n_subjects=3, t_len=50))
    with pytest.raises(ValueError, match="label space"):
        SynthDataset(subjects=ds.subjects, n_classes=5, feat_dim=8)
    with pytest.raises(ValueError, match="feature width"):
        SynthDataset(subjects=ds.subjects, n_classes=4, feat_dim=9)
    with pytest.raises(ValueError, match="at least one"):
        SynthDataset(subjects=(), n_classes=4, feat_dim=8)
