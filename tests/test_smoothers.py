import tracemalloc

import numpy as np
import pytest
from oracles import ACC_ENCODER, ACC_SYNTH

from rapklab.attention import EncoderConfig, build_encoder_weights
from rapklab.seeding import generator
from rapklab.sequences import FeatureSequence, ProbSequence, StageSequence
from rapklab.smoothers import (
    CentroidSums,
    classify,
    fixed_attention_smooth,
    majority_filter_smooth,
    moving_average_smooth,
    random_transformer_smooth,
)
from rapklab.synthgen import make_dataset


def test_moving_average_fixture():
    p = ProbSequence(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    out = moving_average_smooth(p, 3)
    # Center epoch averages to (2/3, 1/3) -> label 0.
    assert out.labels[1] == 0
    np.testing.assert_array_equal(out.labels, [0, 0, 0])


def test_moving_average_window_one_is_argmax():
    rng = generator(0, 0x40)
    raw = rng.uniform(0.05, 1.0, size=(20, 4))
    p = ProbSequence(raw / raw.sum(axis=1, keepdims=True))
    out = moving_average_smooth(p, 1)
    np.testing.assert_array_equal(out.labels, np.argmax(p.probs, axis=1))


def test_moving_average_edge_truncation():
    # At t=0 the window covers [0, w//2]; verify against a direct mean.
    rng = generator(1, 0x41)
    raw = rng.uniform(0.05, 1.0, size=(9, 3))
    p = ProbSequence(raw / raw.sum(axis=1, keepdims=True))
    out = moving_average_smooth(p, 5)
    assert out.labels[0] == int(np.argmax(p.probs[0:3].mean(axis=0)))
    assert out.labels[8] == int(np.argmax(p.probs[6:9].mean(axis=0)))
    assert out.labels[4] == int(np.argmax(p.probs[2:7].mean(axis=0)))


def test_moving_average_validation():
    p = ProbSequence(np.array([[1.0, 0.0]]))
    with pytest.raises(ValueError):
        moving_average_smooth(p, 0)


def test_majority_filter_fixture():
    s = StageSequence(np.array([0, 0, 1, 0, 0]), 2)
    out = majority_filter_smooth(s, 5)
    np.testing.assert_array_equal(out.labels, [0, 0, 0, 0, 0])


def test_majority_filter_window_one_is_identity():
    s = StageSequence(np.array([2, 0, 1, 1, 2]), 3)
    np.testing.assert_array_equal(majority_filter_smooth(s, 1).labels, s.labels)


def test_majority_filter_tie_keeps_modal_center():
    # Window [0,1,2,0,1]: labels 0 and 1 both appear twice. Center label 2 is
    # not modal, so the tie falls to the smallest modal label (0).
    s = StageSequence(np.array([0, 1, 2, 0, 1]), 3)
    assert majority_filter_smooth(s, 5).labels[2] == 0
    # Window [0,1,1,0]: center label 1 is one of the modal labels, so it stays.
    s2 = StageSequence(np.array([0, 1, 1, 0]), 2)
    assert majority_filter_smooth(s2, 5).labels[1] == 1
    assert majority_filter_smooth(s2, 5).labels[2] == 1


def test_majority_filter_integer_median():
    # Window [0,1,4]: median 1; the modal rule would keep the center 4.
    s = StageSequence(np.array([0, 1, 4]), 5)
    out = majority_filter_smooth(s, 3, integer_median=True)
    assert out.labels[1] == 1
    # Even-size edge window [0,1]: lower median is 0.
    assert out.labels[0] == 0


def reference_majority_filter(labels, n_classes: int, w: int, integer_median: bool):
    # The per-epoch loop the library used before its windowed class counts.
    half = w // 2
    out = np.empty_like(labels)
    for t in range(len(labels)):
        win = labels[max(t - half, 0): min(t + half + 1, len(labels))]
        if integer_median:
            out[t] = np.sort(win)[(win.size - 1) // 2]
        else:
            counts = np.bincount(win, minlength=n_classes)
            top = counts.max()
            out[t] = labels[t] if counts[labels[t]] == top else int(np.argmax(counts))
    return out


@pytest.mark.parametrize("integer_median", [False, True])
def test_majority_filter_matches_per_epoch_loop(integer_median):
    rng = generator(3, 0x43)
    for _ in range(100):
        n_classes = int(rng.integers(1, 6))
        labels = rng.integers(0, n_classes, size=int(rng.integers(1, 40)))
        for w in range(1, 14):
            got = majority_filter_smooth(StageSequence(labels, n_classes), w, integer_median)
            want = reference_majority_filter(labels, n_classes, w, integer_median)
            np.testing.assert_array_equal(got.labels, want)


def test_fixed_attention_fixture():
    x = FeatureSequence(np.array([[1.0, 0.0], [3.0, 0.0]]))
    out = fixed_attention_smooth(x, 2)
    np.testing.assert_allclose(out.data, [[2.0, 0.0], [2.0, 0.0]])


def test_fixed_attention_constant_window_identity():
    x = FeatureSequence(np.tile(np.array([[1.5, -2.0]]), (6, 1)))
    np.testing.assert_allclose(fixed_attention_smooth(x, 3).data, x.data)


def test_fixed_attention_ragged_tail():
    x = FeatureSequence(np.arange(10, dtype=np.float64).reshape(5, 2))
    out = fixed_attention_smooth(x, 3)
    np.testing.assert_allclose(out.data[:3], np.tile(x.data[:3].mean(axis=0), (3, 1)))
    np.testing.assert_allclose(out.data[3:], np.tile(x.data[3:].mean(axis=0), (2, 1)))


@pytest.mark.parametrize("t_len, dim, w", [(1, 3, 4), (10, 1, 3), (37, 16, 5), (100, 64, 10),
                                           (257, 7, 50), (12, 5, 12)])
def test_fixed_attention_matches_a_per_window_loop_bit_for_bit(t_len, dim, w):
    x = generator(t_len, dim, w).standard_normal((t_len, dim)) * 1e3
    expected = np.empty_like(x)
    for start in range(0, t_len, w):
        expected[start:start + w] = x[start:start + w].mean(axis=0)
    got = fixed_attention_smooth(FeatureSequence(x), w).data
    assert got.tobytes() == expected.tobytes()


def test_fixed_attention_within_window_permutation_invariant():
    rng = generator(2, 0x42)
    x = np.asarray(rng.standard_normal((8, 3)))
    shuffled = x.copy()
    shuffled[:4] = x[:4][rng.permutation(4)]
    a = fixed_attention_smooth(FeatureSequence(x), 4).data
    b = fixed_attention_smooth(FeatureSequence(shuffled), 4).data
    np.testing.assert_allclose(a, b, atol=1e-12)


def rt_config(**overrides) -> EncoderConfig:
    base = dict(n_heads=2, n_layers=1, d_k=8, window_w=4, seed=31)
    base.update(overrides)
    return EncoderConfig(**base)


def test_random_transformer_deterministic_and_seed_sensitive():
    x = FeatureSequence(np.asarray(generator(4, 0x44).standard_normal((6, 8))))
    a = random_transformer_smooth(x, rt_config()).data
    b = random_transformer_smooth(x, rt_config()).data
    c = random_transformer_smooth(x, rt_config(seed=32)).data
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_random_transformer_ragged_tail_window():
    # 7 = 4 + 3: the tail window is shorter than window_w and must still run.
    cfg = rt_config(use_positional=True)
    x = FeatureSequence(np.asarray(generator(5, 0x45).standard_normal((7, 8))))
    out = random_transformer_smooth(x, cfg)
    assert out.t_len == 7


def _fit_centroids(parts, n_classes):
    # A nearest-centroid head over (features, labels) parts: CentroidSums fed
    # one part at a time, each part freed before the next is made.
    sums = CentroidSums(n_classes)
    for part in parts:
        sums.add(*part)
        del part
    return sums.classifier()


def test_fit_centroids_and_classify():
    x = FeatureSequence(np.array([[0.0, 0.0], [0.2, 0.0], [1.0, 1.0], [0.8, 1.0]]))
    y = StageSequence(np.array([0, 0, 1, 1]), 2)
    centroids = _fit_centroids([(x, y)], 2)
    np.testing.assert_allclose(centroids, [[0.1, 0.0], [0.9, 1.0]])
    assert centroids.shape == (2, 2)
    pred = classify(FeatureSequence(np.array([[0.15, 0.1], [1.0, 0.9]])), centroids)
    np.testing.assert_array_equal(pred.labels, [0, 1])
    assert pred.n_classes == 2


def test_classify_interpolated_point_fixture():
    cents = np.eye(3)
    centroids = _fit_centroids(
        [(FeatureSequence(cents.repeat(2, axis=0)),
          StageSequence(np.array([0, 0, 1, 1, 2, 2]), 3))],
        3,
    )
    probe = 0.9 * cents[2] + 0.1 * cents[0]
    pred = classify(FeatureSequence(probe[np.newaxis, :]), centroids)
    assert pred.labels[0] == 2


def test_classify_tie_goes_to_smallest_class():
    centroids = _fit_centroids(
        [(FeatureSequence(np.array([[-1.0, 0.0], [1.0, 0.0]])),
          StageSequence(np.array([0, 1]), 2))],
        2,
    )
    pred = classify(FeatureSequence(np.array([[0.0, 5.0]])), centroids)
    assert pred.labels[0] == 0


def test_fit_centroids_errors():
    x = FeatureSequence(np.zeros((3, 2)))
    y = StageSequence(np.array([0, 0, 2]), 3)
    with pytest.raises(ValueError, match="class 1"):
        _fit_centroids([(x, y)], 3)
    with pytest.raises(ValueError, match="length"):
        _fit_centroids([(x, StageSequence(np.array([0, 1]), 2))], 2)
    with pytest.raises(ValueError, match="n_classes"):
        _fit_centroids([(x, y)], 2)
    # Over several parts: a class absent from every part, and a later part
    # whose features and labels differ in length.
    with pytest.raises(ValueError, match="class 1"):
        _fit_centroids([(x, y), (x, StageSequence(np.array([2, 0, 0]), 3))], 3)
    with pytest.raises(ValueError, match="length"):
        _fit_centroids([(x, y), (x, StageSequence(np.array([0, 1]), 3))], 3)


def test_fit_centroids_over_parts_equals_one_fit_of_their_concatenation():
    # The reference cohort's train subjects, raw and through the reference
    # encoder, cut at uneven boundaries that ignore the subjects.
    train = make_dataset(ACC_SYNTH).split("train")
    n = ACC_SYNTH.n_classes
    labels = np.concatenate([sub.stages.labels for sub in train])
    weights = build_encoder_weights(ACC_ENCODER, ACC_SYNTH.feat_dim)
    raw = np.concatenate([sub.features.data for sub in train])
    smoothed = np.concatenate(
        [random_transformer_smooth(sub.features, ACC_ENCODER, weights).data for sub in train]
    )
    # A run of one stage is a part that lacks every other class.
    run = next(t for t in range(5003, len(labels)) if len(set(labels[t:t + 7])) == 1)
    cuts = sorted({1, 997, 5003, run, run + 7, 12345})
    for feats in (raw, smoothed):
        parts = [
            (FeatureSequence(f), StageSequence(y, n))
            for f, y in zip(np.split(feats, cuts), np.split(labels, cuts))
        ]
        assert any(len(np.unique(y.labels)) < n for _, y in parts)
        whole = _fit_centroids([(FeatureSequence(feats), StageSequence(labels, n))], n)
        assert _fit_centroids(parts, n).tobytes() == whole.tobytes()
        class_means = np.array([feats[labels == c].mean(axis=0) for c in range(n)])
        assert whole.tobytes() == class_means.tobytes()


def test_centroid_sums_push_one_part_at_a_time():
    x = FeatureSequence(np.array([[0.0, 0.0], [0.2, 0.0], [1.0, 1.0], [0.8, 1.0]]))
    sums = CentroidSums(3)
    sums.add(x, StageSequence(np.array([0, 0, 1, 1]), 2))
    with pytest.raises(ValueError, match="class 2"):
        sums.classifier()
    sums.add(FeatureSequence(np.array([[4.0, 2.0]])), StageSequence(np.array([2]), 3))
    np.testing.assert_array_equal(
        sums.classifier(), [[0.1, 0.0], [0.9, 1.0], [4.0, 2.0]]
    )
    with pytest.raises(ValueError, match="length"):
        sums.add(x, StageSequence(np.array([0, 1]), 2))
    with pytest.raises(ValueError, match="n_classes"):
        sums.add(x, StageSequence(np.array([0, 1, 2, 3]), 4))


def test_fit_centroids_holds_one_part_at_a_time():
    n_parts, t_len, dim = 8, 1000, 256

    def parts():
        for i in range(n_parts):
            rng = generator(i, 0x5A)
            yield (FeatureSequence(rng.standard_normal((t_len, dim))),
                   StageSequence(rng.integers(0, 5, t_len), 5))

    tracemalloc.start()
    try:
        _fit_centroids(parts(), 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * t_len * dim * 8


def test_classify_dimension_mismatch():
    centroids = _fit_centroids(
        [(FeatureSequence(np.zeros((2, 3))), StageSequence(np.array([0, 1]), 2))], 2
    )
    with pytest.raises(ValueError, match="d=3"):
        classify(FeatureSequence(np.zeros((1, 4))), centroids)
