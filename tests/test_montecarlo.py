import numpy as np
import pytest
from oracles import closed_form_kernel, head_output

from rapklab import initializers, montecarlo
from rapklab.attention import EncoderConfig, EncoderWeights, LayerWeights, encoder_forward
from rapklab.initializers import InitScheme, analytic_variance, make_projection_set, parse_scheme
from rapklab.montecarlo import (
    centered_unit_sequence,
    dk_sweep_detail,
    kernel_mse,
    logit_concentration,
)
from rapklab.metrics import pearson
from rapklab.seeding import generator, mix_seed
from rapklab.sequences import FeatureSequence

XAVIER = InitScheme("xavier_uniform")


def _no_draw(*args):
    raise AssertionError("a draw ran before the sizes were checked")


def symmetrised_gram(o: np.ndarray) -> np.ndarray:
    gram = o @ o.T
    return 0.5 * (gram + gram.T)


def manual_trial_kernel(x: FeatureSequence, scheme: InitScheme, d_k: int, sub_seed: int):
    # The Gram of one trial's head, apart from the attention module's own step.
    proj = make_projection_set(x.dim, d_k, scheme, sub_seed)
    return symmetrised_gram(head_output(x.data, *proj))


def manual_mean_kernel(x: FeatureSequence, scheme: InitScheme, d_k: int, trials: int,
                       point_seed: int) -> np.ndarray:
    # Trial t at mix_seed(point_seed, t); the trials are summed in blocks of
    # 100, each block's mean weighted by its size, as dk_sweep_detail sums them.
    total = np.zeros((x.t_len, x.t_len))
    for start in range(0, trials, 100):
        size = min(100, trials - start)
        acc = np.zeros((x.t_len, x.t_len))
        for t in range(start, start + size):
            acc += manual_trial_kernel(x, scheme, d_k, mix_seed(point_seed, t))
        total += size * (acc / size)
    return total / trials


def mean_kernel(x: FeatureSequence, scheme: InitScheme, d_k: int, trials: int, seed: int):
    # dk_sweep_detail's all-trials kernel for one sequence at one d_k; its
    # trials draw from the point's sub-seed mix_seed(seed, 0, 0).
    (_, _, kernel, _), = dk_sweep_detail([x], scheme, [d_k], trials, seed)[2]
    return kernel


def small_sequence(seed: int = 0) -> FeatureSequence:
    return FeatureSequence(np.asarray(generator(seed, 0x30).standard_normal((4, 3))) * 0.3)


def test_single_trial_matches_manual_pipeline():
    x = small_sequence()
    got = mean_kernel(x, XAVIER, d_k=8, trials=1, seed=5)
    want = manual_trial_kernel(x, XAVIER, 8, mix_seed(mix_seed(5, 0, 0), 0))
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("t_len, dim, d_k, label", [
    (4, 3, 8, "xavier_uniform"),
    (10, 16, 64, "xavier_uniform"),
    (7, 5, 2, "normal_0.02"),
    (12, 8, 256, "orthogonal"),
])
def test_one_trial_is_the_gram_of_a_single_head_encoder(t_len, dim, d_k, label):
    # The Monte Carlo validates the attention the encoder runs: the trial's
    # projections, as the only head of an attention-only encoder whose window
    # is the whole sequence, give the same output and so the same Gram. Heads
    # are at least 2 wide: a 1-wide x @ W_Q is a matrix-vector product, which
    # rounds differently from the encoder's fused Q/K/V GEMM.
    scheme = parse_scheme(label)
    x = FeatureSequence(generator(t_len, 0x35).standard_normal((t_len, dim)))
    proj = make_projection_set(dim, d_k, scheme, mix_seed(mix_seed(6, 0, 0), 0))
    cfg = EncoderConfig(n_heads=1, d_k=d_k, window_w=t_len, use_output_linear=False,
                        use_residual=False, use_layernorm=False, use_ffn=False)
    layer = LayerWeights(w_qkv=np.hstack(proj), w_out=None, w_ff1=None, w_ff2=None)
    o = encoder_forward(x, cfg, EncoderWeights(positional=None, layers=(layer,), d_in=dim)).data
    got = mean_kernel(x, scheme, d_k, trials=1, seed=6)
    np.testing.assert_array_equal(got, symmetrised_gram(o))


def test_mean_kernel_matches_serial_average():
    x = small_sequence(1)
    trials = 250
    got = mean_kernel(x, XAVIER, d_k=4, trials=trials, seed=9)
    acc = np.zeros((4, 4))
    for t in range(trials):
        acc += manual_trial_kernel(x, XAVIER, 4, mix_seed(mix_seed(9, 0, 0), t))
    np.testing.assert_allclose(got, acc / trials, atol=1e-12)


def test_monte_carlo_kernel_validation():
    x = small_sequence()
    with pytest.raises(ValueError, match="trials must be >= 1"):
        mean_kernel(x, XAVIER, d_k=4, trials=0, seed=0)
    with pytest.raises(ValueError, match="d_k grid values must be >= 1"):
        mean_kernel(x, XAVIER, d_k=0, trials=10, seed=0)


def test_kernel_mse_fixture():
    a = np.zeros((2, 2))
    b = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert kernel_mse(a, b) == 1.0
    assert kernel_mse(b, b) == 0.0
    with pytest.raises(ValueError):
        kernel_mse(a, np.zeros((3, 3)))


def test_kernel_pearson_fixture():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert pearson(a, 2.0 * a + 1.0) == pytest.approx(1.0)
    assert pearson(a, -a) == pytest.approx(-1.0)
    with pytest.raises(ValueError, match="zero variance"):
        pearson(a, np.ones((2, 2)))
    with pytest.raises(ValueError, match="differ"):
        pearson(a, np.zeros((3, 3)))


def test_kernel_pearson_near_zero_for_unrelated_matrices():
    rng_a = generator(10, 0x31)
    rng_b = generator(11, 0x32)
    r = pearson(rng_a.standard_normal((12, 12)), rng_b.standard_normal((12, 12)))
    assert abs(r) < 0.3


def test_logit_concentration_contract(monkeypatch):
    x = small_sequence(2)
    with pytest.raises(ValueError, match="trials"):
        logit_concentration(x, [XAVIER], 8, False, trials=50, seed=0)
    with monkeypatch.context() as patch:  # a count no loop could finish fails before any draw
        patch.setattr(initializers, "_rng", _no_draw)
        for trials, d_k, name in ((2**64, 8, "trials"), (100, 2**64, "d_k")):
            with pytest.raises(ValueError, match=rf"^{name} must be < 2\*\*63, got {2**64}$"):
                logit_concentration(x, [XAVIER], d_k, False, trials=trials, seed=0)
        for d_k, message in ((0, "d_k must be >= 1, got 0"),
                             (2**63, rf"d_k must be < 2\*\*63, got {2**63}")):
            with pytest.raises(ValueError, match=f"^{message}$"):
                logit_concentration(x, [XAVIER], d_k, False, trials=100, seed=0)
    (rep,) = logit_concentration(x, [XAVIER], 8, False, trials=100, seed=3)
    assert rep.scheme_label == "xavier_uniform"
    assert rep.d_k == 8 and rep.trials == 100
    assert 0.0 <= rep.frac_within_eps <= 1.0
    (rep2,) = logit_concentration(x, [XAVIER], 8, False, trials=100, seed=3)
    assert rep == rep2


@pytest.mark.parametrize("with_layernorm", [False, True])
def test_logit_concentration_many_schemes_equal_one_scheme_calls(with_layernorm):
    x = small_sequence(4)
    labels = [
        "xavier_uniform", "xavier_normal", "kaiming_uniform_relu", "kaiming_normal_relu",
        "orthogonal", "uniform_0.1", "normal_0.02", "trunc_normal_0.02",
        "trunc_normal_0.5", "xavier_uniform",
    ]
    schemes = [parse_scheme(label) for label in labels]
    reports = logit_concentration(x, schemes, 6, with_layernorm, trials=100, seed=8)
    assert [rep.scheme_label for rep in reports] == labels
    for scheme, rep in zip(schemes, reports):
        assert [rep] == logit_concentration(x, [scheme], 6, with_layernorm, 100, 8)


def test_logit_concentration_matches_analytic_std():
    # Moderate size keeps the unit tier fast; the acceptance tier reruns this
    # at the full trial budget.
    x = FeatureSequence(np.asarray(generator(12, 0x33).standard_normal((6, 8))))
    (rep,) = logit_concentration(x, [InitScheme("normal", 0.2)], 32, False, trials=400, seed=21)
    assert rep.empirical_std == pytest.approx(rep.analytic_std, rel=0.1)
    assert abs(rep.empirical_mean) < 0.1 * rep.analytic_std + 1e-3


def test_logit_concentration_layernorm_bounds_scale():
    # Blowing the input up by 100x barely moves the normalized statistics.
    base = np.asarray(generator(13, 0x34).standard_normal((5, 16)))
    # The normalizer's eps keeps this from being bit-exact.
    (rep_small,) = logit_concentration(FeatureSequence(base), [XAVIER], 16, True, 100, 7)
    (rep_big,) = logit_concentration(FeatureSequence(100.0 * base), [XAVIER], 16, True, 100, 7)
    assert rep_big.analytic_std == pytest.approx(rep_small.analytic_std, rel=1e-4)
    assert rep_big.empirical_std == pytest.approx(rep_small.empirical_std, rel=1e-4)


def test_dk_sweep_grid_validation(monkeypatch):
    x = [small_sequence()]
    with pytest.raises(ValueError, match="sorted"):
        dk_sweep_detail(x, XAVIER, [16, 8], trials=1, seed=0)
    with pytest.raises(ValueError, match="sorted"):
        dk_sweep_detail(x, XAVIER, [8, 8], trials=1, seed=0)
    with pytest.raises(ValueError, match="non-empty"):
        dk_sweep_detail([], XAVIER, [8], trials=1, seed=0)
    with pytest.raises(ValueError, match="grid"):
        dk_sweep_detail(x, XAVIER, [], trials=1, seed=0)
    with pytest.raises(ValueError, match="trials"):
        dk_sweep_detail(x, XAVIER, [8], trials=0, seed=0)
    with monkeypatch.context() as patch:  # a count no loop could finish fails before any draw
        patch.setattr(initializers, "_rng", _no_draw)
        with pytest.raises(ValueError, match=rf"^trials must be < 2\*\*63, got {2**64}$"):
            dk_sweep_detail(x, XAVIER, [8], trials=2**64, seed=0)
        for trials, message in ((0, "trials must be >= 1, got 0"),
                                (2**63, rf"trials must be < 2\*\*63, got {2**63}")):
            with pytest.raises(ValueError, match=f"^{message}$"):
                dk_sweep_detail(x, XAVIER, [8], trials=trials, seed=0)
        with pytest.raises(ValueError, match=rf"^d_k grid value must be < 2\*\*63, got {2**64}$"):
            dk_sweep_detail(x, XAVIER, [8, 2**64], trials=1, seed=0)


def test_dk_sweep_detail_consistent_with_report():
    xs = [centered_unit_sequence(6, 5, mix_seed(0, i)) for i in range(2)]
    report, blocks, kernels = dk_sweep_detail(xs, XAVIER, [4, 16], trials=120, seed=17)
    assert report.d_k_grid == (4, 16)
    # 120 trials -> blocks of 100 and 20 per d_k.
    assert [(d, b) for d, b, _, _ in blocks] == [(4, 0), (4, 1), (16, 0), (16, 1)]
    assert all(m >= 0.0 for _, _, m, _ in blocks)
    # The returned kernels are the ones the report scores: bit for bit the
    # written-out estimate at the point's sub-seed, and the closed form.
    assert [(d, s) for d, s, _, _ in kernels] == [(4, 0), (4, 1), (16, 0), (16, 1)]
    for di, d_k in enumerate(report.d_k_grid):
        pearsons = []
        for si, x in enumerate(xs):
            _, _, emp, theory = kernels[di * len(xs) + si]
            oracle = manual_mean_kernel(x, XAVIER, d_k, 120, mix_seed(17, di, si))
            np.testing.assert_array_equal(emp, oracle)
            var = analytic_variance(XAVIER, x.dim, d_k)
            np.testing.assert_allclose(theory, closed_form_kernel(x.data, d_k, var), rtol=1e-12)
            pearsons.append(pearson(emp, theory))
        assert report.pearson_per_dk[di] == float(np.mean(pearsons))


def test_dk_sweep_error_shrinks_with_width():
    xs = [centered_unit_sequence(6, 5, mix_seed(1, i)) for i in range(2)]
    report = dk_sweep_detail(xs, XAVIER, [4, 64], trials=200, seed=23)[0]
    assert report.mse_per_dk[1] < report.mse_per_dk[0]
    assert report.pearson_per_dk[1] > 0.8


def test_centered_unit_sequence_contract(monkeypatch):
    x = centered_unit_sequence(8, 5, seed=3)
    assert x.data.shape == (8, 5)
    # Rows come in exact +/- pairs, so centering holds to the last bit per pair.
    np.testing.assert_array_equal(x.data[:4], -x.data[4:])
    np.testing.assert_allclose(x.data.sum(axis=0), np.zeros(5), atol=1e-15)
    np.testing.assert_allclose(np.linalg.norm(x.data, axis=1), np.ones(8), atol=1e-12)
    np.testing.assert_array_equal(x.data, centered_unit_sequence(8, 5, seed=3).data)
    assert not np.array_equal(x.data, centered_unit_sequence(8, 5, seed=4).data)
    with pytest.raises(ValueError, match="even"):
        centered_unit_sequence(7, 5, seed=0)
    with pytest.raises(ValueError, match="even"):
        centered_unit_sequence(0, 5, seed=0)
    monkeypatch.setattr(montecarlo, "generator", _no_draw)
    with pytest.raises(ValueError, match="^dim must be >= 1, got 0$"):
        centered_unit_sequence(8, 0, seed=0)
    for t_len, dim, name in ((2**64, 5, "t_len"), (8, 2**64, "dim")):
        with pytest.raises(ValueError, match=rf"^{name} must be < 2\*\*63, got {2**64}$"):
            centered_unit_sequence(t_len, dim, seed=0)
    with pytest.raises(ValueError, match=rf"^dim must be < 2\*\*63, got {2**63}$"):
        centered_unit_sequence(8, 2**63, seed=0)
