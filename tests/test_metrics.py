import itertools
import json
import math
from collections import Counter
from dataclasses import asdict

import numpy as np
import pytest
from oracles import naive_lsii_pooled, naive_wte, seq

from rapklab.metrics import (
    EvalReport,
    accuracy,
    lsii_pooled,
    pearson,
    per_class_f1,
    transition_counts,
    weighted_f1,
    wte_pooled,
)
from rapklab.seeding import generator
from rapklab.sequences import StageSequence


def test_transition_counts_fixture():
    np.testing.assert_array_equal(transition_counts(seq([0, 1, 0], 2)), [[0, 1], [1, 0]])


def test_transition_counts_absent_class_row_is_zero():
    np.testing.assert_array_equal(transition_counts(seq([0, 0, 0], 3))[1], [0, 0, 0])
    with pytest.raises(ValueError, match="at least 2"):
        transition_counts(seq([0], 2))


def test_wte_reference_fixture():
    assert wte_pooled([seq([0, 0, 1, 0, 1, 1], 2)]) == pytest.approx(0.6591673732008658, abs=1e-6)
    # Same value from first principles: rows (0->.) = {0:1, 1:2}, (1->.) = {0:1, 1:1}.
    h0 = -(1 / 3) * math.log(1 / 3) - (2 / 3) * math.log(2 / 3)
    h1 = math.log(2.0)
    assert wte_pooled([seq([0, 0, 1, 0, 1, 1], 2)]) == pytest.approx(0.6 * h0 + 0.4 * h1, abs=1e-12)


def test_wte_constant_and_deterministic_sequences_score_zero():
    assert wte_pooled([seq([2, 2, 2, 2], 3)]) == 0.0
    assert wte_pooled([seq([0, 1, 0, 1, 0], 2)]) == 0.0


def test_wte_bounds_and_relabeling_invariance():
    rng = generator(0, 0x50)
    for _ in range(20):
        labels = rng.integers(0, 4, size=30)
        value = wte_pooled([StageSequence(labels, 4)])
        assert 0.0 <= value <= math.log(4.0) + 1e-12
        perm = rng.permutation(4)
        assert wte_pooled([StageSequence(perm[labels], 4)]) == pytest.approx(value, abs=1e-12)


def test_wte_matches_naive_exhaustively():
    # Every ternary sequence of length 2..5; the acceptance tier extends this
    # to length 8.
    for t_len in range(2, 6):
        for labels in itertools.product(range(3), repeat=t_len):
            got = wte_pooled([seq(labels, 3)])
            assert got == pytest.approx(naive_wte(labels), abs=1e-12), labels


def test_wte_pooled_does_not_cross_boundaries():
    a = seq([0, 0], 2)
    b = seq([1, 1], 2)
    assert wte_pooled([a, b]) == 0.0
    assert wte_pooled([seq([0, 0, 1, 1], 2)]) > 0.0


def test_wte_pooled_matches_count_merge():
    rng = generator(1, 0x51)
    seqs = [StageSequence(rng.integers(0, 3, size=25), 3) for _ in range(4)]
    want = naive_wte(*(s.labels.tolist() for s in seqs))
    assert wte_pooled(seqs) == pytest.approx(want, abs=1e-12)
    with pytest.raises(ValueError):
        wte_pooled([])
    with pytest.raises(ValueError, match="n_classes"):
        wte_pooled([seq([0, 1], 2), seq([0, 1], 3)])


def test_lsii_reference_fixtures():
    assert lsii_pooled([seq([0, 0, 1, 0, 0], 2)], [seq([0, 0, 0, 0, 0], 2)], 5) == 1.0
    assert lsii_pooled([seq([0, 0, 1, 1, 0], 2)], [seq([0, 0, 0, 1, 0], 2)], 5) == 0.75


def test_lsii_none_when_nothing_scorable():
    s = seq([0, 1, 0, 1], 2)
    assert lsii_pooled([s], [s], 2) is None
    # The only correction sits in a width-1 tail window.
    none_s = seq([0, 0, 0, 0, 1], 2)
    corr_s = seq([0, 0, 0, 0, 0], 2)
    assert lsii_pooled([none_s], [corr_s], 4) is None


def test_lsii_validation():
    s = seq([0, 1], 2)
    with pytest.raises(ValueError, match=">= 2"):
        lsii_pooled([s], [s], 1)
    with pytest.raises(ValueError, match="lengths differ"):
        lsii_pooled([s], [seq([0, 1, 0], 2)], 2)


def _lsii_oracle_inputs():
    # (none label lists, corrected label lists, n_classes, w): every binary
    # pair of length 4 at w = 2 and 3, every ternary pair of length 3 at w = 2,
    # then tails, windows, pooling and label spaces the small cases miss.
    for w in (2, 3):
        for none_l in itertools.product(range(2), repeat=4):
            for corr_l in itertools.product(range(2), repeat=4):
                yield [none_l], [corr_l], 2, w
    for none_l in itertools.product(range(3), repeat=3):
        for corr_l in itertools.product(range(3), repeat=3):
            yield [none_l], [corr_l], 3, 2
    rng = generator(2, 0x52)

    def pair(t_len, labels, p=0.5):
        # Labels drawn from ``labels``; each epoch corrected with probability p.
        none_l = rng.choice(labels, t_len)
        corr_l = np.where(rng.random(t_len) < p, rng.choice(labels, t_len), none_l)
        return [none_l.tolist()], [corr_l.tolist()]

    yield *pair(13, np.arange(3)), 3, 4    # a width-1 tail
    yield *pair(17, np.arange(3)), 3, 5    # a width-2 tail
    yield *pair(23, np.arange(4)), 4, 7    # a width-2 tail after three windows
    yield *pair(9, np.arange(3)), 3, 20    # one window longer than the sequence
    pairs = [pair(t_len, np.arange(3)) for t_len in (5, 12, 1, 8)]
    yield [p[0][0] for p in pairs], [p[1][0] for p in pairs], 3, 4  # unequal lengths, pooled
    yield *pair(40, 2**62 + np.arange(-2, 3)), 2**62 + 3, 6       # labels near 2**62
    yield *pair(12, np.array([0, 12, 24])), 25, 3  # labels a multiple of the block length apart
    yield *pair(5000, np.arange(5), p=0.05), 5, 5000              # 5,000 epochs, one window


def test_lsii_matches_naive_exhaustively():
    # Exact: the oracle sums the same terms in the same order.
    for none_ls, corr_ls, n_classes, w in _lsii_oracle_inputs():
        got = lsii_pooled([seq(labels, n_classes) for labels in none_ls],
                          [seq(labels, n_classes) for labels in corr_ls], w)
        assert got == naive_lsii_pooled(none_ls, corr_ls, w), (none_ls, corr_ls, w)


def test_lsii_pooled_combines_terms():
    none_a, corr_a = seq([0, 0, 1, 0, 0], 2), seq([0, 0, 0, 0, 0], 2)
    none_b, corr_b = seq([0, 0, 1, 1, 0], 2), seq([0, 0, 0, 1, 0], 2)
    pooled = lsii_pooled([none_a, none_b], [corr_a, corr_b], 5)
    # One correction per subject, scoring 1.0 and 0.75.
    assert pooled == pytest.approx((1.0 + 0.75) / 2)
    assert lsii_pooled([none_a], [none_a], 5) is None
    with pytest.raises(ValueError, match="per baseline"):
        lsii_pooled([none_a], [], 5)
    with pytest.raises(ValueError, match="length"):
        lsii_pooled([none_a], [seq([0, 1], 2)], 5)


def test_accuracy():
    assert accuracy(seq([0, 1, 1], 2), seq([0, 1, 0], 2)) == pytest.approx(2 / 3)
    with pytest.raises(ValueError):
        accuracy(seq([0], 2), seq([0, 1], 2))


def test_per_class_f1_and_weighted_f1_fixture():
    pred = seq([0, 0, 0, 0], 2)
    true = seq([0, 0, 1, 1], 2)
    f1 = per_class_f1(pred, true, 2)
    np.testing.assert_allclose(f1, [2 / 3, 0.0])
    assert weighted_f1(pred, true, 2) == pytest.approx(1 / 3)


def test_per_class_f1_silent_class_scores_zero():
    # Class 2 never appears in pred or true: denominator 0 -> f1 0.
    pred = seq([0, 1], 3)
    true = seq([0, 1], 3)
    np.testing.assert_allclose(per_class_f1(pred, true, 3), [1.0, 1.0, 0.0])
    assert weighted_f1(pred, true, 3) == 1.0


def test_per_class_f1_matches_a_count_loop():
    # 100,000 classes, most of them silent, against counts made epoch by epoch.
    n_classes, rng = 100_000, generator(3, 0x53)
    true = rng.integers(0, n_classes, 3000)
    pred = np.where(rng.random(3000) < 0.5, true, rng.integers(0, n_classes, 3000))
    tp, fp, fn = Counter(), Counter(), Counter()
    for p, t in zip(pred.tolist(), true.tolist()):
        if p == t:
            tp[p] += 1
        else:
            fp[p] += 1
            fn[t] += 1
    want = np.zeros(n_classes)
    for c in tp.keys() | fp.keys() | fn.keys():
        want[c] = 2 * tp[c] / (2 * tp[c] + fp[c] + fn[c])
    got = per_class_f1(StageSequence(pred, n_classes), StageSequence(true, n_classes), n_classes)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_metric_accuracy_correlation():
    assert pearson([0, 1, 2], [0, 1, 0]) == pytest.approx(0.0)
    assert pearson([0, 1, 2], [0, 1, 2]) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="3 points"):
        pearson([0, 1], [0, 1])
    with pytest.raises(ValueError, match="zero variance"):
        pearson([1, 1, 1], [0, 1, 2])
    with pytest.raises(ValueError, match="non-finite"):
        pearson([0, 1, 2], [0, math.nan, 2])
    with pytest.raises(ValueError, match="differ"):
        pearson([0, 1, 2], [0, 1, 2, 3])


def test_eval_report_validation_and_dict():
    rep = EvalReport(
        accuracy=0.9, weighted_f1=0.88, wte=0.3, lsii=None,
        per_class_f1=(0.9, 0.86), config_digest="abc123", seed=7,
    )
    d = json.loads(json.dumps(asdict(rep)))
    assert d["lsii"] is None and d["per_class_f1"] == [0.9, 0.86]
    assert d["config_digest"] == "abc123" and d["seed"] == 7
    with pytest.raises(ValueError, match="accuracy"):
        EvalReport(1.1, 0.5, 0.1, None, (), "x", 0)
    with pytest.raises(ValueError, match="wte"):
        EvalReport(0.5, 0.5, -0.1, None, (), "x", 0)
    with pytest.raises(ValueError, match="lsii"):
        EvalReport(0.5, 0.5, 0.1, 1.5, (), "x", 0)
