import itertools
import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from oracles import naive_lsii, naive_wte, seq

from rapklab.metrics import (
    EvalReport,
    accuracy,
    lsii,
    lsii_pooled,
    pearson,
    per_class_f1,
    transition_counts,
    weighted_f1,
    wte,
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
    assert wte(seq([0, 0, 1, 0, 1, 1], 2)) == pytest.approx(0.6591673732008658, abs=1e-6)
    # Same value from first principles: rows (0->.) = {0:1, 1:2}, (1->.) = {0:1, 1:1}.
    h0 = -(1 / 3) * math.log(1 / 3) - (2 / 3) * math.log(2 / 3)
    h1 = math.log(2.0)
    assert wte(seq([0, 0, 1, 0, 1, 1], 2)) == pytest.approx(0.6 * h0 + 0.4 * h1, abs=1e-12)


def test_wte_constant_and_deterministic_sequences_score_zero():
    assert wte(seq([2, 2, 2, 2], 3)) == 0.0
    assert wte(seq([0, 1, 0, 1, 0], 2)) == 0.0


def test_wte_bounds_and_relabeling_invariance():
    rng = generator(0, 0x50)
    for _ in range(20):
        labels = rng.integers(0, 4, size=30)
        value = wte(StageSequence(labels, 4))
        assert 0.0 <= value <= math.log(4.0) + 1e-12
        perm = rng.permutation(4)
        assert wte(StageSequence(perm[labels], 4)) == pytest.approx(value, abs=1e-12)


def test_wte_matches_naive_exhaustively():
    # Every ternary sequence of length 2..5; the acceptance tier extends this
    # to length 8.
    for t_len in range(2, 6):
        for labels in itertools.product(range(3), repeat=t_len):
            got = wte(seq(labels, 3))
            assert got == pytest.approx(naive_wte(labels), abs=1e-12), labels


def test_wte_pooled_does_not_cross_boundaries():
    a = seq([0, 0], 2)
    b = seq([1, 1], 2)
    assert wte_pooled([a, b]) == 0.0
    assert wte(seq([0, 0, 1, 1], 2)) > 0.0


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
    assert lsii(seq([0, 0, 1, 0, 0], 2), seq([0, 0, 0, 0, 0], 2), 5) == 1.0
    assert lsii(seq([0, 0, 1, 1, 0], 2), seq([0, 0, 0, 1, 0], 2), 5) == 0.75


def test_lsii_none_when_nothing_scorable():
    s = seq([0, 1, 0, 1], 2)
    assert lsii(s, s, 2) is None
    # The only correction sits in a width-1 tail window.
    none_s = seq([0, 0, 0, 0, 1], 2)
    corr_s = seq([0, 0, 0, 0, 0], 2)
    assert lsii(none_s, corr_s, 4) is None


def test_lsii_validation():
    s = seq([0, 1], 2)
    with pytest.raises(ValueError, match=">= 2"):
        lsii(s, s, 1)
    with pytest.raises(ValueError, match="lengths differ"):
        lsii(s, seq([0, 1, 0], 2), 2)


def test_lsii_matches_naive_exhaustively():
    for w in (2, 3):
        for none_l in itertools.product(range(2), repeat=4):
            for corr_l in itertools.product(range(2), repeat=4):
                got = lsii(seq(none_l, 2), seq(corr_l, 2), w)
                want = naive_lsii(none_l, corr_l, w)
                if want is None:
                    assert got is None, (none_l, corr_l, w)
                else:
                    assert got == pytest.approx(want, abs=1e-12), (none_l, corr_l, w)
    for none_l in itertools.product(range(3), repeat=3):
        for corr_l in itertools.product(range(3), repeat=3):
            got = lsii(seq(none_l, 3), seq(corr_l, 3), 2)
            want = naive_lsii(none_l, corr_l, 2)
            assert (got is None and want is None) or got == pytest.approx(want, abs=1e-12)


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
