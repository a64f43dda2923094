import math

import numpy as np
import pytest

from rapklab import initializers
from rapklab.initializers import (
    InitScheme,
    TRUNC2_VAR_FACTOR,
    analytic_variance,
    init_matrices,
    init_matrix,
    make_projection_set,
    parse_scheme,
    scheme_label,
)
from rapklab.seeding import mix_seed

ALL_LABELS = [
    "xavier_uniform",
    "xavier_normal",
    "kaiming_uniform_relu",
    "kaiming_normal_relu",
    "orthogonal",
    "uniform_0.1",
    "normal_0.02",
    "trunc_normal_0.02",
]

# Every label, a second truncated-normal scale and repeated schemes: one
# init_matrices call must serve them all. A subnormal scale rounds small
# draws to zero, where numpy's loc + scale * z turns -0.0 into 0.0.
ORACLE_LABELS = ALL_LABELS + [
    "trunc_normal_0.5", "xavier_uniform", "trunc_normal_0.02", "orthogonal", "normal_1e-320",
]


def direct_draw(rows, cols, scheme, seed):
    """The scheme drawn straight from numpy's samplers on a fresh generator."""
    rng = np.random.Generator(np.random.PCG64(seed))
    kind, p = scheme.kind, scheme.scale_param
    shape = (rows, cols)
    if kind == "xavier_uniform":
        a = math.sqrt(6.0 / (rows + cols))
        return rng.uniform(-a, a, size=shape)
    if kind == "kaiming_uniform_relu":
        a = math.sqrt(6.0 / rows)
        return rng.uniform(-a, a, size=shape)
    if kind == "uniform":
        return rng.uniform(-p, p, size=shape)
    if kind == "xavier_normal":
        return rng.normal(0.0, math.sqrt(2.0 / (rows + cols)), size=shape)
    if kind == "kaiming_normal_relu":
        return rng.normal(0.0, math.sqrt(2.0 / rows), size=shape)
    if kind == "normal":
        return rng.normal(0.0, p, size=shape)
    if kind == "trunc_normal":
        out = rng.normal(0.0, p, size=shape)
        bad = np.abs(out) > 2.0 * p
        while bad.any():
            out[bad] = rng.normal(0.0, p, size=int(bad.sum()))
            bad = np.abs(out) > 2.0 * p
        return out
    assert kind == "orthogonal"
    q, r = np.linalg.qr(rng.standard_normal((max(shape), min(shape))))
    q = q * np.sign(np.diag(r))[np.newaxis, :]
    return q if rows >= cols else q.T


@pytest.mark.parametrize("shape", [(7, 3), (3, 7), (5, 5), (1, 1), (64, 48)])
@pytest.mark.parametrize("seed", [0, 1, 29, 0xFEDCBA9876543210])
def test_init_matrices_match_direct_numpy_draws(shape, seed):
    # Bit for bit, so a numpy release that changes a sampler's formula fails here.
    schemes = [parse_scheme(label) for label in ORACLE_LABELS]
    got = list(init_matrices(*shape, schemes, seed))
    assert len(got) == len(schemes)
    for label, scheme, mat in zip(ORACLE_LABELS, schemes, got):
        want = direct_draw(*shape, scheme, seed).view(np.uint64)
        assert mat.shape == shape, label
        np.testing.assert_array_equal(mat.view(np.uint64), want, err_msg=label)
        np.testing.assert_array_equal(
            init_matrix(*shape, scheme, seed).view(np.uint64), want, err_msg=label
        )


def test_init_matrices_draws_each_base_stream_once(monkeypatch):
    made = []

    def counting_rng(seed):
        made.append(seed)
        return np.random.Generator(np.random.PCG64(seed))

    monkeypatch.setattr(initializers, "_rng", counting_rng)
    schemes = [parse_scheme(label) for label in ORACLE_LABELS]
    assert len(list(init_matrices(20, 8, schemes, 5))) == len(schemes)
    assert made == [5, 5]  # one uniform stream, one standard normal stream
    made.clear()
    assert list(init_matrices(20, 8, [], 5)) == []
    assert made == []


def test_init_matrices_rejects_empty_shape():
    with pytest.raises(ValueError, match="^rows must be >= 1, got 0$"):
        list(init_matrices(0, 3, [parse_scheme("orthogonal")], 0))
    with pytest.raises(ValueError, match="^cols must be >= 1, got 0$"):
        list(init_matrices(3, 0, [parse_scheme("orthogonal")], 0))


def test_init_matrix_deterministic():
    scheme = parse_scheme("xavier_uniform")
    a = init_matrix(6, 4, scheme, seed=11)
    b = init_matrix(6, 4, scheme, seed=11)
    c = init_matrix(6, 4, scheme, seed=12)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (6, 4)


def test_uniform_schemes_respect_bounds():
    w = init_matrix(50, 40, parse_scheme("xavier_uniform"), seed=0)
    assert np.abs(w).max() <= math.sqrt(6.0 / 90.0)
    w = init_matrix(50, 40, parse_scheme("kaiming_uniform_relu"), seed=0)
    assert np.abs(w).max() <= math.sqrt(6.0 / 50.0)
    w = init_matrix(50, 40, parse_scheme("uniform_0.1"), seed=0)
    assert np.abs(w).max() <= 0.1


def test_trunc_normal_respects_cutoff():
    w = init_matrix(200, 100, parse_scheme("trunc_normal_0.02"), seed=3)
    assert np.abs(w).max() <= 2.0 * 0.02


def test_trunc_normal_variance_factor_matches_closed_form():
    # Variance of a standard normal truncated to [-2, 2]:
    # 1 - 2*2*phi(2) / (Phi(2) - Phi(-2)), with the mass term erf(sqrt(2)).
    phi2 = math.exp(-2.0) / math.sqrt(2.0 * math.pi)
    mass = math.erf(math.sqrt(2.0))
    expected = 1.0 - 4.0 * phi2 / mass
    assert abs(TRUNC2_VAR_FACTOR - expected) < 1e-12
    assert abs(expected - 0.7737) < 5e-4


@pytest.mark.parametrize("label", ALL_LABELS)
def test_sample_moments_match_analytic_variance(label):
    scheme = parse_scheme(label)
    rows, cols = 400, 300  # 120k entries
    w = init_matrix(rows, cols, scheme, seed=17)
    var = analytic_variance(scheme, rows, cols)
    stderr = math.sqrt(var / w.size)
    assert abs(w.mean()) <= 3.0 * stderr + 1e-12
    assert abs(w.var() - var) <= 0.05 * var


def test_analytic_variance_closed_forms():
    r, c = 30, 20
    assert analytic_variance(parse_scheme("xavier_uniform"), r, c) == pytest.approx(2.0 / 50.0)
    assert analytic_variance(parse_scheme("xavier_normal"), r, c) == pytest.approx(2.0 / 50.0)
    assert analytic_variance(parse_scheme("kaiming_uniform_relu"), r, c) == pytest.approx(2.0 / 30.0)
    assert analytic_variance(parse_scheme("kaiming_normal_relu"), r, c) == pytest.approx(2.0 / 30.0)
    assert analytic_variance(parse_scheme("orthogonal"), r, c) == pytest.approx(1.0 / 30.0)
    assert analytic_variance(parse_scheme("uniform_0.1"), r, c) == pytest.approx(0.01 / 3.0)
    assert analytic_variance(parse_scheme("normal_0.02"), r, c) == pytest.approx(4e-4)
    assert analytic_variance(parse_scheme("trunc_normal_0.02"), r, c) == pytest.approx(
        TRUNC2_VAR_FACTOR * 4e-4
    )


def test_orthogonal_columns_orthonormal():
    w = init_matrix(40, 12, parse_scheme("orthogonal"), seed=5)
    gram = w.T @ w
    np.testing.assert_allclose(gram, np.eye(12), atol=1e-10)


def test_orthogonal_rows_orthonormal_when_wide():
    w = init_matrix(12, 40, parse_scheme("orthogonal"), seed=5)
    gram = w @ w.T
    np.testing.assert_allclose(gram, np.eye(12), atol=1e-10)


@pytest.mark.parametrize("shape", [(6, 3), (3, 6)])
def test_orthogonal_raises_on_a_degenerate_factor(shape, monkeypatch):
    # A Gaussian draw is singular with probability zero, so only a patched
    # factorization reaches the check.
    real_qr = np.linalg.qr

    def degenerate(a):
        q, r = real_qr(a)
        r[-1, -1] = 0.0
        return q, r

    monkeypatch.setattr(np.linalg, "qr", degenerate)
    with pytest.raises(RuntimeError, match=rf"failed for shape \({shape[0]}, {shape[1]}\)"):
        init_matrix(*shape, parse_scheme("orthogonal"), seed=5)


def test_parse_scheme_round_trips_labels():
    # A scale that :g would round to six digits keeps every digit, so two
    # schemes never share a label.
    for label in [*ALL_LABELS, "normal_0.02000001", "uniform_123456.7",
                  "trunc_normal_1.0000001e-07"]:
        assert scheme_label(parse_scheme(label)) == label
    # A fixed kind is its own label; the Kaiming labels keep their short
    # spellings as input aliases, and surrounding spaces are stripped.
    for alias in ("kaiming_uniform", " kaiming_uniform", "kaiming_uniform_relu "):
        assert parse_scheme(alias) == InitScheme("kaiming_uniform_relu")
    assert parse_scheme("kaiming_normal") == InitScheme("kaiming_normal_relu")


def test_parse_scheme_rejects_unknown():
    with pytest.raises(ValueError):
        parse_scheme("glorot")
    with pytest.raises(ValueError):
        parse_scheme("uniform_abc")


def test_scheme_requires_positive_scale_where_used():
    with pytest.raises(ValueError):
        InitScheme(kind="uniform", scale_param=0.0)
    with pytest.raises(ValueError):
        InitScheme(kind="normal", scale_param=-1.0)
    with pytest.raises(ValueError):
        InitScheme(kind="spectral", scale_param=1.0)
    for kind in ("uniform_bounded", "normal_std", "trunc_normal_std", "kaiming_uniform"):
        with pytest.raises(ValueError, match=f"unknown scheme kind '{kind}'"):
            InitScheme(kind=kind, scale_param=1.0)
    # The fan-based and orthogonal kinds draw no scale, so none is accepted.
    for kind in ("xavier_uniform", "kaiming_normal_relu", "orthogonal"):
        with pytest.raises(ValueError, match=f"{kind} takes no scale_param, got 0.5"):
            InitScheme(kind=kind, scale_param=0.5)


@pytest.mark.parametrize("kind", ["uniform", "normal", "trunc_normal"])
def test_scaled_scheme_keeps_its_variance_and_draws_finite(kind):
    # Just below the bound the variance and the draws are finite; the bound
    # itself, 1e308 and infinity are rejected.
    for value in (1e154, 1e308, math.inf):
        with pytest.raises(ValueError, match=f"{kind} requires scale_param < 1e\\+154"):
            InitScheme(kind, value)
    scheme = InitScheme(kind, 9.9e153)
    assert math.isfinite(analytic_variance(scheme, 4, 4))
    assert np.all(np.isfinite(init_matrix(4, 4, scheme, seed=3)))


def test_make_projection_set_contract():
    scheme = parse_scheme("xavier_uniform")
    w_q, w_k, w_v = make_projection_set(8, 6, scheme, seed=21)
    assert w_q.shape == w_k.shape == w_v.shape == (8, 6)
    assert not np.array_equal(w_q, w_k)
    assert not np.array_equal(w_k, w_v)
    # Role r is the one init_matrix draw at mix_seed(seed, r).
    for role, w in enumerate((w_q, w_k, w_v)):
        np.testing.assert_array_equal(w, init_matrix(8, 6, scheme, mix_seed(21, role)))
    for w, again in zip((w_q, w_k, w_v), make_projection_set(8, 6, scheme, seed=21), strict=True):
        np.testing.assert_array_equal(w, again)
