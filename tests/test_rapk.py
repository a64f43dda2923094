import numpy as np
import pytest
from oracles import brute_coefficients, rapk_c1_centered

from rapklab.attention import softmax_rows
from rapklab.rapk import linearized_softmax, rapk_coefficients, rapk_kernel
from rapklab.seeding import generator
from rapklab.sequences import FeatureSequence


def logit_second_moment(x: FeatureSequence, i, p, j, q, sq2: float, sk2: float) -> float:
    # Analytic E[s_ip s_jq] = sigma_Q^2 sigma_K^2 (x_i . x_j)(x_p . x_q).
    rows = x.data
    return float(sq2 * sk2 * (rows[i] @ rows[j]) * (rows[p] @ rows[q]))


def centered_logit_cov(x: FeatureSequence, i, p, j, q, sq2: float, sk2: float) -> float:
    # Analytic covariance of row-centered logits:
    # E[(s_ip - s_bar_i)(s_jq - s_bar_j)]
    #     = sigma_Q^2 sigma_K^2 (x_i . x_j) ((x_p - mu) . (x_q - mu)).
    rows = x.data
    mu = rows.mean(axis=0)
    return float(sq2 * sk2 * (rows[i] @ rows[j]) * ((rows[p] - mu) @ (rows[q] - mu)))


def test_linearized_softmax_fixture():
    out = linearized_softmax(np.array([[0.1, -0.1]]))
    np.testing.assert_allclose(out, [[0.55, 0.45]], atol=1e-15)


def test_linearized_softmax_rows_sum_to_one():
    s = generator(0, 0x20).standard_normal((6, 6))
    out = linearized_softmax(s)
    np.testing.assert_allclose(out.sum(axis=1), np.ones(6), atol=1e-12)


def test_linearized_softmax_rejects_bad_input():
    with pytest.raises(ValueError):
        linearized_softmax(np.zeros(3))
    with pytest.raises(ValueError):
        linearized_softmax(np.array([[0.0, np.inf]]))


def test_linearization_error_shrinks_quadratically():
    s = generator(1, 0x21).standard_normal((5, 5))

    def err(scale: float) -> float:
        return float(np.abs(softmax_rows(scale * s).rows - linearized_softmax(scale * s)).max())

    ratio = err(1e-1) / err(1e-2)
    assert 50.0 <= ratio <= 200.0


def test_coefficients_unit_basis_fixture():
    x = FeatureSequence(np.eye(2))
    c0, c1 = rapk_coefficients(x, d_k=2, sigma_q2=1.0, sigma_k2=1.0, sigma_v2=1.0)
    assert c0 == pytest.approx(1.0, abs=1e-12)
    assert c1 == pytest.approx(0.5, abs=1e-12)


def test_coefficients_antipodal_fixture():
    x = FeatureSequence(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    c0, c1 = rapk_coefficients(x, d_k=1, sigma_q2=1.0, sigma_k2=1.0, sigma_v2=1.0)
    assert c0 == pytest.approx(0.0, abs=1e-12)
    assert c1 == pytest.approx(1.0, abs=1e-12)


def test_kernel_fixture():
    x = FeatureSequence(np.eye(2))
    k = rapk_kernel(x, 1.0, 0.5)
    np.testing.assert_allclose(k, [[1.5, 1.0], [1.0, 1.5]], atol=1e-12)


@pytest.mark.parametrize("trial", range(5))
def test_coefficients_match_brute_force(trial):
    rng = generator(2, 0x22, trial)
    t = int(rng.integers(2, 9))
    d = int(rng.integers(1, 6))
    rows = np.asarray(rng.standard_normal((t, d)))
    d_k = int(rng.integers(1, 64))
    sq2, sk2, sv2 = (float(v) for v in rng.uniform(0.1, 2.0, size=3))
    got = rapk_coefficients(FeatureSequence(rows), d_k, sq2, sk2, sv2)
    want = brute_coefficients(rows, d_k, sq2, sk2, sv2)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_centered_identity_matches_general_formula():
    for trial in range(10):
        rng = generator(3, 0x23, trial)
        rows = np.asarray(rng.standard_normal((7, 4)))
        rows -= rows.mean(axis=0)
        x = FeatureSequence(rows)
        _, c1 = rapk_coefficients(x, 8, 1.3, 0.7, 0.5)
        c1_fro = rapk_c1_centered(x, 8, 1.3, 0.7, 0.5)
        assert c1 == pytest.approx(c1_fro, rel=1e-9)


def test_scale_covariance():
    rng = generator(4, 0x24)
    rows = np.asarray(rng.standard_normal((6, 3)))
    c0, c1 = rapk_coefficients(FeatureSequence(rows), 4, 1.0, 1.0, 1.0)
    for alpha in (0.5, 2.0, 3.0):
        c0a, c1a = rapk_coefficients(FeatureSequence(alpha * rows), 4, 1.0, 1.0, 1.0)
        assert c0a == pytest.approx(alpha**2 * c0, rel=1e-12)
        assert c1a == pytest.approx(alpha**4 * c1, rel=1e-12)


def test_coefficients_reject_bad_variances():
    x = FeatureSequence(np.eye(2))
    with pytest.raises(ValueError):
        rapk_coefficients(x, 0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        rapk_coefficients(x, 2, 1.0, -1.0, 1.0)


def test_logit_second_moment_closed_form():
    rows = np.array([[1.0, 2.0], [0.5, -1.0], [3.0, 0.0]])
    x = FeatureSequence(rows)
    got = logit_second_moment(x, 0, 1, 2, 2, sq2=2.0, sk2=0.5)
    want = 2.0 * 0.5 * float(rows[0] @ rows[2]) * float(rows[1] @ rows[2])
    assert got == pytest.approx(want, rel=1e-15)


def test_centered_logit_cov_closed_form():
    rows = np.array([[1.0, 2.0], [0.5, -1.0], [3.0, 0.0]])
    x = FeatureSequence(rows)
    mu = rows.mean(axis=0)
    got = centered_logit_cov(x, 0, 1, 2, 0, sq2=1.0, sk2=1.0)
    want = float(rows[0] @ rows[2]) * float((rows[1] - mu) @ (rows[0] - mu))
    assert got == pytest.approx(want, rel=1e-14)


def test_logit_moments_match_observed_scores():
    # Scaled logits from many independent Gaussian (W_Q, W_K) draws, each
    # score matrix row-centered by its own row means s_bar, against the
    # analytic moments; the tolerance is five Monte Carlo standard errors.
    rng = generator(6, 0x26)
    rows = np.asarray(rng.standard_normal((4, 3)))
    x = FeatureSequence(rows)
    sq2, sk2, d_k, draws = 1.5, 0.5, 8, 20000
    w_q = np.sqrt(sq2) * rng.standard_normal((draws, 3, d_k))
    w_k = np.sqrt(sk2) * rng.standard_normal((draws, 3, d_k))
    scores = (rows @ w_q) @ np.swapaxes(rows @ w_k, 1, 2) / np.sqrt(d_k)
    s_bar = scores.mean(axis=2, keepdims=True)
    centered = scores - s_bar
    for i, p, j, q in ((0, 1, 2, 3), (1, 1, 1, 1), (2, 0, 3, 0)):
        for sample, want in (
            (scores[:, i, p] * scores[:, j, q], logit_second_moment(x, i, p, j, q, sq2, sk2)),
            (centered[:, i, p] * centered[:, j, q], centered_logit_cov(x, i, p, j, q, sq2, sk2)),
        ):
            stderr = sample.std() / np.sqrt(draws)
            assert abs(sample.mean() - want) <= 5.0 * stderr, (i, p, j, q, want)
