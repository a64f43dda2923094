import numpy as np
import pytest

from rapklab.attention import (
    EncoderConfig,
    EncoderWeights,
    LayerWeights,
    encoder_forward,
    softmax_rows,
)
from rapklab.initializers import InitScheme, analytic_variance, make_projection_set, parse_scheme
from rapklab.montecarlo import (
    centered_unit_sequence,
    dk_sweep_detail,
    kernel_mse,
    logit_concentration,
    monte_carlo_kernel,
)
from rapklab.metrics import pearson
from rapklab.seeding import generator, mix_seed
from rapklab.sequences import FeatureSequence

XAVIER = InitScheme("xavier_uniform")


def symmetrised_gram(o: np.ndarray) -> np.ndarray:
    gram = o @ o.T
    return 0.5 * (gram + gram.T)


def manual_trial_kernel(x: FeatureSequence, scheme: InitScheme, d_k: int, sub_seed: int):
    # softmax(Q K^T / sqrt(d_k)) X W_V and its Gram, written out apart from
    # the attention module's own step.
    proj = make_projection_set(x.dim, d_k, scheme, sub_seed)
    q, k, v = (x.data @ w for w in (proj.w_q, proj.w_k, proj.w_v))
    return symmetrised_gram(softmax_rows(q @ k.T / np.sqrt(d_k)).rows @ v)


def closed_form_kernel(x: FeatureSequence, d_k: int, var: float) -> np.ndarray:
    # C0 11^T + C1 X X^T for equal projection variances, straight from the
    # module formulas: C0 = d_k var sum_pq x_p.x_q / T^2 and
    # C1 = d_k var^3 sum_pq ((x_p - mu).(x_q - mu)) (x_p.x_q) / T^2.
    rows = x.data
    t = rows.shape[0]
    gram = rows @ rows.T
    centered = rows - rows.mean(axis=0)
    c0 = d_k * var * gram.sum() / t**2
    c1 = d_k * var**3 * np.sum((centered @ centered.T) * gram) / t**2
    return c0 + c1 * gram


def small_sequence(seed: int = 0) -> FeatureSequence:
    return FeatureSequence(np.asarray(generator(seed, 0x30).standard_normal((4, 3))) * 0.3)


def test_single_trial_matches_manual_pipeline():
    x = small_sequence()
    got = monte_carlo_kernel(x, XAVIER, d_k=8, trials=1, seed=5)
    want = manual_trial_kernel(x, XAVIER, 8, mix_seed(5, 0))
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
    proj = make_projection_set(dim, d_k, scheme, mix_seed(6, 0))
    cfg = EncoderConfig(n_heads=1, d_k=d_k, window_w=t_len, use_output_linear=False,
                        use_residual=False, use_layernorm=False, use_ffn=False)
    layer = LayerWeights(w_qkv=np.hstack([proj.w_q, proj.w_k, proj.w_v]), heads=(proj,),
                         w_out=None, w_ff1=None, w_ff2=None)
    o = encoder_forward(x, cfg, EncoderWeights(positional=None, layers=(layer,), d_in=dim)).data
    got = monte_carlo_kernel(x, scheme, d_k, trials=1, seed=6)
    np.testing.assert_array_equal(got, symmetrised_gram(o))


def test_mean_kernel_matches_serial_average():
    x = small_sequence(1)
    trials = 250
    got = monte_carlo_kernel(x, XAVIER, d_k=4, trials=trials, seed=9)
    acc = np.zeros((4, 4))
    for t in range(trials):
        acc += manual_trial_kernel(x, XAVIER, 4, mix_seed(9, t))
    np.testing.assert_allclose(got, acc / trials, atol=1e-12)


def test_monte_carlo_kernel_validation():
    x = small_sequence()
    with pytest.raises(ValueError):
        monte_carlo_kernel(x, XAVIER, d_k=4, trials=0, seed=0)
    with pytest.raises(ValueError):
        monte_carlo_kernel(x, XAVIER, d_k=0, trials=10, seed=0)


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


def test_logit_concentration_contract():
    x = small_sequence(2)
    with pytest.raises(ValueError, match="trials"):
        logit_concentration(x, [XAVIER], 8, False, trials=50, seed=0)
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
    (rep,) = logit_concentration(x, [InitScheme("normal_std", 0.2)], 32, False, trials=400, seed=21)
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


def test_dk_sweep_grid_validation():
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


def test_dk_sweep_detail_consistent_with_report():
    xs = [centered_unit_sequence(6, 5, mix_seed(0, i)) for i in range(2)]
    report, blocks, kernels = dk_sweep_detail(xs, XAVIER, [4, 16], trials=120, seed=17)
    assert report.d_k_grid == (4, 16)
    # 120 trials -> blocks of 100 and 20 per d_k.
    assert [(d, b) for d, b, _, _ in blocks] == [(4, 0), (4, 1), (16, 0), (16, 1)]
    assert all(m >= 0.0 for _, _, m, _ in blocks)
    # The returned kernels are the ones the report scores: bit for bit the
    # standalone estimate for the same sub-seed, and the closed form.
    assert [(d, s) for d, s, _, _ in kernels] == [(4, 0), (4, 1), (16, 0), (16, 1)]
    for di, d_k in enumerate(report.d_k_grid):
        pearsons = []
        for si, x in enumerate(xs):
            _, _, emp, theory = kernels[di * len(xs) + si]
            oracle = monte_carlo_kernel(x, XAVIER, d_k, 120, mix_seed(17, di, si))
            np.testing.assert_array_equal(emp, oracle)
            var = analytic_variance(XAVIER, x.dim, d_k)
            np.testing.assert_allclose(theory, closed_form_kernel(x, d_k, var), rtol=1e-12)
            pearsons.append(pearson(emp, theory))
        assert report.pearson_per_dk[di] == float(np.mean(pearsons))


def test_dk_sweep_error_shrinks_with_width():
    xs = [centered_unit_sequence(6, 5, mix_seed(1, i)) for i in range(2)]
    report = dk_sweep_detail(xs, XAVIER, [4, 64], trials=200, seed=23)[0]
    assert report.mse_per_dk[1] < report.mse_per_dk[0]
    assert report.pearson_per_dk[1] > 0.8


def test_centered_unit_sequence_contract():
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
