"""Acceptance tier: every headline behaviour at its stated tolerance.

One test per claim, ordered roughly cheap to expensive. Run with ``-s`` to
see the measured values behind each pass line; the unit-test files cover the
same modules at finer grain. The synthetic cohorts and encoder settings are
frozen: ``ACC_SYNTH``, ``ACC_ENCODER`` and ``SEEDS`` in ``oracles.py`` are the
reference operating point for the library.
"""

import itertools
import time
from dataclasses import replace

import numpy as np
import pytest
from oracles import (
    ACC_ENCODER,
    ACC_SYNTH,
    SEEDS,
    acc_pipeline,
    naive_lsii,
    naive_wte,
    rapk_c1_centered,
    seq,
)

from rapklab.attention import EncoderConfig, build_encoder_weights, encoder_forward, softmax_rows
from rapklab.harness import (
    RunConfig,
    correlation_study,
    run_pipeline,
    run_sweep,
    write_report_json,
)
from rapklab.initializers import InitScheme
from rapklab.metrics import lsii_pooled, wte_pooled
from rapklab.montecarlo import centered_unit_sequence, dk_sweep_detail, logit_concentration
from rapklab.rapk import linearized_softmax, rapk_coefficients, rapk_kernel
from rapklab.seeding import generator, mix_seed
from rapklab.sequences import FeatureSequence
from rapklab.synthgen import SynthConfig

XAVIER = InitScheme("xavier_uniform")

# Cohort for the metric-vs-accuracy study: longer stage runs and heavier
# label noise, so the window sweep spans under- to over-smoothing.
CORR_SYNTH = replace(ACC_SYNTH, self_prob=0.98, feat_dim=16, label_noise=0.35, seed=24680)


def test_01_metric_oracles_exhaustive():
    t0 = time.perf_counter()
    assert wte_pooled([seq([0, 0, 1, 0, 1, 1], 2)]) == pytest.approx(0.6591673732008658, abs=1e-6)
    flat = seq([0, 0, 0, 0, 0], 2)
    assert lsii_pooled([seq([0, 0, 1, 0, 0], 2)], [flat], 5) == 1.0
    assert lsii_pooled([seq([0, 0, 1, 1, 0], 2)], [seq([0, 0, 0, 1, 0], 2)], 5) == 0.75
    assert lsii_pooled([flat], [flat], 5) is None

    # WTE against the loop oracle over every ternary sequence up to length 8.
    checked_wte = 0
    for t_len in range(2, 9):
        for labels in itertools.product(range(3), repeat=t_len):
            assert wte_pooled([seq(labels)]) == pytest.approx(naive_wte(labels), abs=1e-12)
            checked_wte += 1

    # LSII against the loop oracle: every ternary pair up to length 3, and a
    # seeded sample of longer pairs (full pair enumeration at length 8 is
    # out of reach of any time budget).
    checked_lsii = 0
    for t_len in (2, 3):
        for w in (2, 3):
            for none_l in itertools.product(range(3), repeat=t_len):
                for corr_l in itertools.product(range(3), repeat=t_len):
                    got = lsii_pooled([seq(none_l)], [seq(corr_l)], w)
                    want = naive_lsii(none_l, corr_l, w)
                    assert (got is None and want is None) or got == pytest.approx(
                        want, abs=1e-12
                    )
                    checked_lsii += 1
    rng = generator(0, 0xACC1)
    for _ in range(600):
        t_len = int(rng.integers(4, 9))
        w = int(rng.integers(2, t_len + 1))
        none_l = rng.integers(0, 3, size=t_len).tolist()
        corr_l = rng.integers(0, 3, size=t_len).tolist()
        got = lsii_pooled([seq(none_l)], [seq(corr_l)], w)
        want = naive_lsii(none_l, corr_l, w)
        assert (got is None and want is None) or got == pytest.approx(want, abs=1e-12)
        checked_lsii += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(
        f"PASS [metric-oracles] wte fixture to 1e-6; {checked_wte} wte and "
        f"{checked_lsii} lsii oracle comparisons in {elapsed:.1f}s (< 10s)"
    )


def test_02_closed_form_coefficients():
    t0 = time.perf_counter()
    c0, c1 = rapk_coefficients(FeatureSequence(np.eye(2)), 2, 1.0, 1.0, 1.0)
    assert c0 == pytest.approx(1.0, abs=1e-12)
    assert c1 == pytest.approx(0.5, abs=1e-12)
    c0b, c1b = rapk_coefficients(
        FeatureSequence(np.array([[1.0, 0.0], [-1.0, 0.0]])), 1, 1.0, 1.0, 1.0
    )
    assert c0b == pytest.approx(0.0, abs=1e-12)
    assert c1b == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(
        rapk_kernel(FeatureSequence(np.eye(2)), 1.0, 0.5),
        [[1.5, 1.0], [1.0, 1.5]],
        atol=1e-12,
    )

    worst = 0.0
    for trial in range(100):
        rng = generator(1, 0xACC2, trial)
        rows = np.asarray(rng.standard_normal((12, 6)))
        rows -= rows.mean(axis=0)
        x = FeatureSequence(rows)
        d_k = int(rng.integers(1, 128))
        sq2, sk2, sv2 = (float(v) for v in rng.uniform(0.2, 2.0, size=3))
        _, c1_general = rapk_coefficients(x, d_k, sq2, sk2, sv2)
        c1_frob = rapk_c1_centered(x, d_k, sq2, sk2, sv2)
        rel = abs(c1_general - c1_frob) / abs(c1_frob)
        worst = max(worst, rel)
        assert rel < 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(
        f"PASS [kernel-closed-form] fixtures to 1e-12; centered identity over "
        f"100 inputs, worst rel dev {worst:.2e} (< 1e-9) in {elapsed:.1f}s (< 5s)"
    )


def test_03_linearization_error_shrinks_quadratically():
    ratios = []
    for trial in range(3):
        s = generator(2, 0xACC3, trial).standard_normal((8, 8))

        def err(scale: float) -> float:
            scores = scale * s
            return float(np.abs(softmax_rows(scores).rows - linearized_softmax(scores)).max())

        ratios.append(err(1e-1) / err(1e-2))
    assert all(50.0 <= r <= 200.0 for r in ratios)
    print(
        "PASS [linearization] error ratio for 10x score shrink: "
        + ", ".join(f"{r:.1f}" for r in ratios)
        + " (all within [50, 200])"
    )


def test_04_kernel_convergence_with_width():
    t0 = time.perf_counter()
    x_set = [centered_unit_sequence(10, 16, mix_seed(0, i)) for i in range(3)]
    report = dk_sweep_detail(x_set, XAVIER, (16, 64, 256, 1024), trials=1000, seed=0)[0]
    elapsed = time.perf_counter() - t0
    mse = report.mse_per_dk
    assert all(b < a for a, b in zip(mse, mse[1:])), mse
    assert report.pearson_per_dk[-1] >= 0.9
    assert elapsed < 120.0
    print(
        "PASS [kernel-convergence] mse "
        + " > ".join(f"{m:.2e}" for m in mse)
        + f"; pearson@1024 {report.pearson_per_dk[-1]:.4f} (>= 0.9) "
        f"in {elapsed:.1f}s (< 120s)"
    )


def test_05_logit_concentration():
    rng = generator(3, 0xACC5)
    base_rows = np.asarray(rng.standard_normal((10, 64)))
    x_std = FeatureSequence(base_rows)
    # Rows scaled so the squared norms dominate the width: the regime where
    # normalization visibly tightens the logits.
    x_big = FeatureSequence(3.0 * base_rows)

    (rep,) = logit_concentration(x_std, [XAVIER], 128, False, trials=2000, seed=11)
    assert rep.empirical_std == pytest.approx(rep.analytic_std, rel=0.10)

    (rep32,) = logit_concentration(x_std, [XAVIER], 32, False, trials=2000, seed=12)
    (rep1024,) = logit_concentration(x_std, [XAVIER], 1024, False, trials=2000, seed=12)
    assert rep1024.empirical_std < rep32.empirical_std

    (raw,) = logit_concentration(x_big, [XAVIER], 512, False, trials=2000, seed=13)
    (normed,) = logit_concentration(x_big, [XAVIER], 512, True, trials=2000, seed=13)
    assert normed.frac_within_eps >= raw.frac_within_eps
    print(
        f"PASS [logit-concentration] empirical {rep.empirical_std:.5f} vs analytic "
        f"{rep.analytic_std:.5f} (within 10%); xavier std 1024 {rep1024.empirical_std:.5f} "
        f"< 32 {rep32.empirical_std:.5f}; layernorm frac {normed.frac_within_eps:.3f} "
        f">= raw {raw.frac_within_eps:.3f}"
    )


def test_06_random_transformer_beats_no_smoothing():
    t0 = time.perf_counter()
    rt = acc_pipeline("random_transformer")
    none = acc_pipeline("none")
    elapsed = time.perf_counter() - t0
    gain = rt.aggregate["mean_accuracy"] - none.aggregate["mean_accuracy"]
    assert gain >= 0.020
    assert rt.aggregate["mean_wte"] < none.aggregate["mean_wte"]
    assert rt.aggregate["mean_lsii"] >= 0.6
    assert elapsed < 180.0
    print(
        f"PASS [smoother-gain] accuracy {rt.aggregate['mean_accuracy']:.4f} vs "
        f"{none.aggregate['mean_accuracy']:.4f} (gain +{gain:.4f} >= +0.020); "
        f"wte {rt.aggregate['mean_wte']:.4f} < {none.aggregate['mean_wte']:.4f}; "
        f"lsii {rt.aggregate['mean_lsii']:.4f} (>= 0.6) in {elapsed:.1f}s (< 180s)"
    )


def test_07_attention_degrades_slower_with_window():
    ma_drop = (
        acc_pipeline("moving_average", window=5).aggregate["mean_accuracy"]
        - acc_pipeline("moving_average", window=50).aggregate["mean_accuracy"]
    )
    rt_drop = (
        acc_pipeline("random_transformer", window=5).aggregate["mean_accuracy"]
        - acc_pipeline("random_transformer", window=50).aggregate["mean_accuracy"]
    )
    assert ma_drop > rt_drop
    print(
        f"PASS [window-sensitivity] accuracy drop w5->w50: moving average "
        f"{ma_drop:+.4f} > random transformer {rt_drop:+.4f}"
    )


def test_08_wider_projections_do_not_hurt():
    wide = acc_pipeline("random_transformer", d_k=1024).aggregate["mean_accuracy"]
    narrow = acc_pipeline("random_transformer", d_k=16).aggregate["mean_accuracy"]
    assert wide >= narrow
    print(f"PASS [width-accuracy] accuracy d_k=1024 {wide:.4f} >= d_k=16 {narrow:.4f}")


def test_09_metrics_track_accuracy_over_window_sweep():
    base = RunConfig(
        synth=CORR_SYNTH,
        smoother="moving_average",
        encoder=ACC_ENCODER,
        seeds=SEEDS,
    )
    rows = run_sweep(base, "window", (5, 10, 20, 35, 50))
    r_lsii, r_wte = correlation_study(rows)
    assert r_lsii > 0.5
    assert r_wte < -0.5
    print(
        f"PASS [metric-correlation] r(lsii, acc) {r_lsii:+.4f} (> 0.5); "
        f"r(wte, acc) {r_wte:+.4f} (< -0.5)"
    )


def test_10_structural_invariants(tmp_path):
    # Attention rows are stochastic to 1e-9.
    scores = 3.0 * generator(4, 0xACCA).standard_normal((50, 50))
    rows = softmax_rows(scores).rows
    row_dev = float(np.abs(rows.sum(axis=1) - 1.0).max())
    assert row_dev <= 1e-9
    assert rows.min() >= 0.0

    # Closed-form kernels are PSD to 1e-8 relative.
    worst_eig = 0.0
    for trial in range(20):
        rng = generator(5, 0xACCB, trial)
        x = FeatureSequence(np.asarray(rng.standard_normal((8, 4))))
        c0, c1 = rapk_coefficients(x, 16, 0.5, 0.5, 0.5)
        eigs = np.linalg.eigvalsh(rapk_kernel(x, c0, c1))
        rel = eigs.min() / np.abs(eigs).max()
        worst_eig = min(worst_eig, rel)
        assert rel >= -1e-8
    # PSD needs a nonnegative global term, which centered input guarantees
    # (c0 = d_k sigma_V^2 ||sum_k x_k||^2 / T^2 >= 0 always; c1 >= 0 when
    # centered). The random draws above are near-centered; exact centering:
    xc = centered_unit_sequence(8, 4, seed=9)
    c0, c1 = rapk_coefficients(xc, 16, 1.0, 1.0, 1.0)
    assert c0 >= 0.0 and c1 >= 0.0

    # The windowed encoder is permutation-equivariant without positions.
    cfg = replace(ACC_ENCODER, d_k=16, window_w=8)
    rng = generator(6, 0xACCC)
    xdata = np.asarray(rng.standard_normal((8, 16)))
    weights = build_encoder_weights(cfg, 16)
    perm = rng.permutation(8)
    out = encoder_forward(FeatureSequence(xdata), cfg, weights).data
    out_p = encoder_forward(FeatureSequence(xdata[perm]), cfg, weights).data
    perm_dev = float(np.abs(out_p - out[perm]).max())
    assert perm_dev <= 1e-9

    # Reports are byte-identical across repeats.
    small = RunConfig(
        synth=SynthConfig(
            n_classes=3, t_len=60, n_subjects=4, feat_dim=4,
            class_sep=2.0, noise_std=0.4, label_noise=0.2, seed=5,
        ),
        smoother="random_transformer",
        encoder=EncoderConfig(n_heads=2, d_k=8, window_w=5),
        seeds=(111, 222),
    )
    paths = []
    for tag in ("a", "b"):
        path = tmp_path / f"report_{tag}.json"
        write_report_json(run_pipeline(small), path)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]
    print(
        f"PASS [invariants] row-sum dev {row_dev:.1e} (<= 1e-9); kernel eig ratio "
        f"{worst_eig:.1e} (>= -1e-8); permutation dev {perm_dev:.1e} (<= 1e-9); "
        f"reports byte-identical across repeats"
    )
