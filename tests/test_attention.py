import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from test_acceptance import ACC_ENCODER

from rapklab.attention import (
    _ROLE_HEAD,
    AttentionMatrix,
    EncoderConfig,
    _attend,
    _scores,
    _tile_rows,
    build_encoder_weights,
    empirical_kernel,
    encoder_forward,
    layer_norm_rows,
    softmax_rows,
    window_blocks,
)
from rapklab.harness import COMPONENT_BUNDLES
from rapklab.initializers import InitScheme, ProjectionSet, make_projection_set
from rapklab.seeding import generator, mix_seed
from rapklab.sequences import FeatureSequence


def head_output(h: np.ndarray, ps: ProjectionSet) -> np.ndarray:
    """One head, softmax(Q K^T / sqrt(d_k)) V, from plain numpy and softmax_rows."""
    q, k, v = h @ ps.w_q, h @ ps.w_k, h @ ps.w_v
    return softmax_rows(q @ k.T / math.sqrt(ps.d_k)).rows @ v


def test_attention_scores_identity_projection():
    # With identity projections Q = K = X.
    x = np.eye(2)
    np.testing.assert_allclose(_scores(x, x), np.eye(2) / math.sqrt(2.0), atol=1e-15)


def test_attention_scores_zero_input():
    x = np.zeros((3, 2))
    np.testing.assert_array_equal(_scores(x, x), np.zeros((3, 3)))


def test_attention_scores_single_epoch():
    x = np.array([[1.0, 2.0]])
    assert _scores(x, x).shape == (1, 1)


def test_softmax_rows_uniform_on_zero_scores():
    a = softmax_rows(np.zeros((4, 4)))
    np.testing.assert_allclose(a.rows, np.full((4, 4), 0.25), atol=1e-15)


def test_softmax_rows_closed_form():
    a = softmax_rows(np.array([[math.log(2.0), 0.0]]))
    np.testing.assert_allclose(a.rows, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-15)


def test_softmax_rows_shift_invariant():
    rng = generator(0, 0xA)
    s = rng.standard_normal((5, 5))
    shifted = s + rng.standard_normal((5, 1))
    np.testing.assert_allclose(softmax_rows(s).rows, softmax_rows(shifted).rows, atol=1e-12)


def test_softmax_rows_survives_huge_scores():
    a = softmax_rows(np.array([[1000.0, 0.0], [0.0, -1000.0]]))
    assert np.all(np.isfinite(a.rows))
    np.testing.assert_allclose(a.rows.sum(axis=1), [1.0, 1.0], atol=1e-12)


def test_attention_matrix_rejects_bad_rows():
    with pytest.raises(ValueError):
        AttentionMatrix(np.array([[0.6, 0.6]]))
    with pytest.raises(ValueError):
        AttentionMatrix(np.array([[1.2, -0.2]]))


def test_attention_apply_identity_and_uniform():
    v = np.array([[1.0, 0.0], [3.0, 0.0]])
    # Logits of 7e5 on the diagonal make each softmax row exactly one-hot.
    big = 1e3 * np.eye(2)
    np.testing.assert_array_equal(_attend(big, big, v), v)
    # Zero logits attend uniformly: every row is the mean value row.
    zero = np.zeros((2, 2))
    np.testing.assert_allclose(_attend(zero, zero, v), [[2.0, 0.0], [2.0, 0.0]])


def test_attention_apply_matrix_product_fixture():
    # Logits ln 1.5 on the diagonal give the rows (0.6, 0.4) and (0.4, 0.6);
    # with V = I the step returns them. The step runs over the last two axes,
    # so a batch of two also gives the uniform rows of zero logits.
    c = math.sqrt(math.log(1.5) * math.sqrt(2.0))
    q = np.stack([c * np.eye(2), np.zeros((2, 2))])
    want = np.stack([[[0.6, 0.4], [0.4, 0.6]], np.full((2, 2), 0.5)])
    np.testing.assert_allclose(_attend(q, q, np.eye(2)), want, atol=1e-15)


def test_empirical_kernel_fixtures():
    np.testing.assert_array_equal(empirical_kernel(np.zeros((3, 2))), np.zeros((3, 3)))
    np.testing.assert_array_equal(empirical_kernel(np.eye(3)), np.eye(3))
    k = empirical_kernel(np.array([[1.0, 0.0], [1.0, 1.0]]))
    np.testing.assert_allclose(k, [[1.0, 1.0], [1.0, 2.0]])


def test_empirical_kernel_symmetric_psd():
    o = generator(1, 0xB).standard_normal((6, 4))
    k = empirical_kernel(o)
    np.testing.assert_allclose(k, k.T, atol=1e-12)
    eigs = np.linalg.eigvalsh(k)
    assert eigs.min() >= -1e-8 * np.abs(eigs).max()


def test_layer_norm_rows_standardizes():
    h = generator(2, 0xC).standard_normal((4, 64)) * 3.0 + 1.5
    out = layer_norm_rows(h)
    np.testing.assert_allclose(out.mean(axis=1), np.zeros(4), atol=1e-12)
    np.testing.assert_allclose(out.var(axis=1), np.ones(4), rtol=1e-3)


def test_layer_norm_rows_constant_row_is_finite():
    out = layer_norm_rows(np.full((2, 5), 7.0))
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out, np.zeros((2, 5)), atol=1e-12)


def all_off(**overrides) -> EncoderConfig:
    base = dict(
        use_attention=False, use_output_linear=False, use_ffn=False,
        use_layernorm=False, use_residual=False, use_positional=False,
        n_heads=1, n_layers=1, d_k=4, window_w=6, seed=9,
    )
    base.update(overrides)
    return EncoderConfig(**base)


def test_encoder_identity_when_everything_disabled():
    x = FeatureSequence(generator(3, 0xD).standard_normal((5, 4)))
    out = encoder_forward(x, all_off())
    np.testing.assert_array_equal(out.data, x.data)


def test_encoder_attention_only_zero_input_gives_zero():
    cfg = all_off(use_attention=True)
    x = FeatureSequence(np.zeros((3, 4)))
    np.testing.assert_allclose(encoder_forward(x, cfg).data, np.zeros((3, 4)), atol=1e-15)


def test_encoder_uniform_attention_limit_matches_mean_oracle():
    # Vanishing projection scale drives every attention row to 1/T, so each
    # output row collapses to the mean value vector.
    cfg = all_off(use_attention=True, init=InitScheme("normal_std", 1e-8))
    x = FeatureSequence(generator(4, 0xE).standard_normal((6, 4)))
    weights = build_encoder_weights(cfg, 4)
    out = encoder_forward(x, cfg, weights)
    expected_row = x.data.mean(axis=0) @ weights.layers[0].heads[0].w_v
    np.testing.assert_allclose(out.data, np.tile(expected_row, (6, 1)), atol=1e-12)


def test_encoder_permutation_equivariant_without_positional():
    cfg = EncoderConfig(n_heads=2, d_k=8, window_w=6, use_positional=False, seed=13)
    rng = generator(5, 0xF)
    x = np.asarray(rng.standard_normal((6, 8)))
    weights = build_encoder_weights(cfg, 8)
    perm = rng.permutation(6)
    out = encoder_forward(FeatureSequence(x), cfg, weights).data
    out_perm = encoder_forward(FeatureSequence(x[perm]), cfg, weights).data
    np.testing.assert_allclose(out_perm, out[perm], atol=1e-9)


def test_encoder_positional_breaks_permutation_equivariance():
    cfg = EncoderConfig(n_heads=2, d_k=8, window_w=6, use_positional=True, seed=13)
    rng = generator(5, 0x10)
    x = np.asarray(rng.standard_normal((6, 8)))
    weights = build_encoder_weights(cfg, 8)
    perm = np.array([1, 0, 2, 3, 4, 5])
    out = encoder_forward(FeatureSequence(x), cfg, weights).data
    out_perm = encoder_forward(FeatureSequence(x[perm]), cfg, weights).data
    assert not np.allclose(out_perm, out[perm], atol=1e-6)


def test_encoder_deterministic():
    cfg = EncoderConfig(n_heads=4, d_k=16, window_w=5, seed=77)
    x = FeatureSequence(generator(6, 0x11).standard_normal((5, 8)))
    a = encoder_forward(x, cfg).data
    b = encoder_forward(x, cfg).data
    np.testing.assert_array_equal(a, b)


def test_encoder_config_head_divisibility():
    with pytest.raises(ValueError, match="divisible"):
        EncoderConfig(n_heads=3, d_k=8)
    # No concatenation, no constraint.
    EncoderConfig(n_heads=3, d_k=8, use_output_linear=False, use_residual=False)


def test_encoder_residual_needs_matching_width_without_output_linear():
    cfg = EncoderConfig(
        n_heads=1, d_k=16, window_w=4,
        use_output_linear=False, use_residual=True,
    )
    with pytest.raises(ValueError, match="width"):
        build_encoder_weights(cfg, 8)
    # Matching widths are fine.
    build_encoder_weights(EncoderConfig(
        n_heads=1, d_k=8, window_w=4,
        use_output_linear=False, use_residual=True,
    ), 8)


def test_encoder_layernorm_only_standardizes_rows():
    cfg = all_off(use_layernorm=True)
    x = FeatureSequence(generator(7, 0x12).standard_normal((4, 6)) * 5.0)
    out = encoder_forward(x, cfg).data
    np.testing.assert_allclose(out.mean(axis=1), np.zeros(4), atol=1e-12)


def test_encoder_heads_averaged_without_output_linear():
    cfg = all_off(use_attention=True, n_heads=2, d_k=4)
    x = FeatureSequence(generator(8, 0x13).standard_normal((3, 4)))
    weights = build_encoder_weights(cfg, 4)
    outs = [head_output(x.data, ps) for ps in weights.layers[0].heads]
    expected = (outs[0] + outs[1]) / 2.0
    np.testing.assert_allclose(encoder_forward(x, cfg, weights).data, expected, atol=1e-12)


def test_window_blocks_fixtures():
    assert window_blocks(10, 5) == [(0, 10, 5)]
    assert window_blocks(7, 3) == [(0, 6, 3), (6, 7, 1)]
    assert window_blocks(4, 10) == [(0, 4, 4)]
    assert window_blocks(0, 3) == []
    # Each block's rows, cut into runs of its width, are the windows.
    for t_len in range(12):
        for w in range(1, 6):
            runs = [(lo + i, lo + i + width) for lo, hi, width in window_blocks(t_len, w)
                    for i in range(0, hi - lo, width)]
            assert runs == [(s, min(s + w, t_len)) for s in range(0, t_len, w)]


def test_window_blocks_validation():
    with pytest.raises(ValueError, match="window width must be >= 1"):
        window_blocks(10, 0)


def per_window_encoder(x: FeatureSequence, cfg: EncoderConfig, weights) -> np.ndarray:
    """Reference encoder: each window on its own, each head from ``head_output``."""
    parts = []
    for start in range(0, x.t_len, cfg.window_w):
        h = x.data[start:start + cfg.window_w]
        if cfg.use_positional:
            h = h + weights.positional[: len(h)]
        for lw in weights.layers:
            if cfg.use_attention:
                outs = [head_output(h, ps) for ps in lw.heads]
                if cfg.use_output_linear:
                    att = np.concatenate(outs, axis=1) @ lw.w_out
                else:
                    att = np.mean(outs, axis=0)
                h = h + att if cfg.use_residual else att
            if cfg.use_layernorm:
                h = layer_norm_rows(h)
            if cfg.use_ffn:
                f = np.maximum(h @ lw.w_ff1, 0.0) @ lw.w_ff2
                h = h + f if cfg.use_residual else f
                if cfg.use_layernorm:
                    h = layer_norm_rows(h)
        parts.append(h)
    return np.concatenate(parts, axis=0)


@pytest.mark.parametrize("t_len, overrides", [
    pytest.param(10, dict(window_w=4), id="ragged_tail"),
    pytest.param(7, dict(window_w=4, use_positional=True), id="positional_tail"),
    pytest.param(3, dict(window_w=6, use_positional=True), id="shorter_than_window"),
    pytest.param(12, dict(window_w=4, n_layers=2), id="two_layers"),
    pytest.param(9, dict(window_w=3, use_layernorm=False, use_ffn=False), id="residual"),
    pytest.param(10, dict(window_w=4, use_output_linear=False, use_residual=False, d_k=6),
                 id="heads_averaged"),
    # One cell per head: numpy's mean sums these 11 heads pairwise, the
    # encoder's running sum adds them in order, so they agree to rounding.
    pytest.param(1, dict(window_w=1, n_heads=11, d_k=1, use_output_linear=False,
                         use_residual=False, use_layernorm=False, use_ffn=False),
                 id="heads_averaged_single_cell"),
])
def test_encoder_forward_matches_per_window_oracle(t_len, overrides):
    # Batching the windows reorders floating-point sums in the matmuls, so
    # agreement is to rounding (observed up to 6e-15), not bit for bit.
    cfg = EncoderConfig(**{**dict(n_heads=2, d_k=8, seed=31), **overrides})
    x = FeatureSequence(generator(9, 0x14).standard_normal((t_len, 8)))
    weights = build_encoder_weights(cfg, 8)
    got = encoder_forward(x, cfg, weights).data
    np.testing.assert_allclose(got, per_window_encoder(x, cfg, weights), rtol=0, atol=1e-12)


def test_encoder_forward_transient_memory():
    # The reference encoder on one 1000 x 256 subject, with its weights built
    # beforehand as the pipeline does. Only the 2.0 MB output is full length;
    # the rest is one 250-row tile's intermediates (8.0 MB traced in all, 12.3
    # MB when every layer ran at full length).
    x = FeatureSequence(generator(10, 0x15).standard_normal((1000, 256)))
    weights = build_encoder_weights(ACC_ENCODER, 256)
    tracemalloc.start()
    try:
        encoder_forward(x, ACC_ENCODER, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 * 10**6


def test_head_mean_holds_two_head_buffers():
    # Without the output linear every head has the full width d_k = 512; the
    # heads are averaged by a running sum instead of an (H, T, d_k) stack
    # (49.3 MB traced with the stack, 24.7 MB with the running sum over the
    # whole sequence, 10.8 MB with it over 30-row tiles).
    bundle = COMPONENT_BUNDLES["attention_no_linear"]
    cfg = EncoderConfig(n_heads=8, d_k=512, window_w=10, **bundle)
    x = FeatureSequence(generator(10, 0x15).standard_normal((1000, 256)))
    weights = build_encoder_weights(cfg, 256)
    tracemalloc.start()
    try:
        encoder_forward(x, cfg, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 10**6


def _window_locality_cases():
    # (config, t_len) pairs around the reference encoder's row tile.
    ref = ACC_ENCODER
    tile = 250  # _tile_rows at the reference encoder, checked below
    no_linear = replace(ref, **COMPONENT_BUNDLES["attention_no_linear"])
    return [
        pytest.param(ref, 1, id="t_len_1"),
        pytest.param(ref, tile - 3 * ref.window_w - 3, id="below_one_tile"),
        pytest.param(ref, tile - ref.window_w, id="tile_minus_w"),
        pytest.param(ref, tile + ref.window_w, id="tile_plus_w"),
        pytest.param(ref, 3 * tile + 2 * ref.window_w + 7, id="ragged_tail"),
        pytest.param(ref, 2 * tile + 1, id="one_row_past_a_tile"),
        pytest.param(replace(ref, n_layers=2), 2 * tile + 13, id="two_layers"),
        pytest.param(replace(ref, use_positional=True), 2 * tile + 13, id="positional"),
        pytest.param(replace(ref, use_residual=True), 2 * tile + 13, id="residual"),
        pytest.param(no_linear, 137, id="attention_no_linear"),
        # The head mean's tile is 30 rows; a 50-row window is wider.
        pytest.param(replace(no_linear, window_w=50), 3 * 50 + 7, id="window_wider_than_tile"),
    ]


@pytest.mark.parametrize("cfg, t_len", _window_locality_cases())
def test_encoder_rows_depend_only_on_their_own_windows(cfg, t_len):
    # Every layer is window-local, so encoding a window-aligned cut on its own
    # gives the same bits as the same rows of the whole sequence, whichever
    # tiles the rows fall in. Each cut holds at least one whole window: a
    # single row would send the GEMMs to gemv, which rounds differently. For
    # the same reason the encoder merges a short last tile into the one before.
    weights = build_encoder_weights(cfg, 256)
    w, tile = cfg.window_w, _tile_rows(cfg, weights)
    assert tile == {10: 250 if cfg.use_output_linear else 30, 50: 50}[w]
    x = generator(11, 0x16).standard_normal((t_len, 256))
    whole = encoder_forward(FeatureSequence(x), cfg, weights).data
    last = max(0, (t_len - 1) // w * w - w)  # the last two windows start here
    cuts = {(lo, hi) for lo in (0, w, tile, last) for hi in (lo + w, lo + tile, t_len)
            if min(w, t_len) <= hi - lo and hi <= t_len}
    for lo, hi in sorted(cuts):
        part = encoder_forward(FeatureSequence(x[lo:hi]), cfg, weights).data
        np.testing.assert_array_equal(part, whole[lo:hi], err_msg=f"rows {lo}:{hi}")


def test_heads_are_views_of_the_fused_qkv_matrix():
    # Each head's W_Q, W_K and W_V are column blocks of its layer's fused
    # (d, 3 * H * d_h) matrix, drawn as make_projection_set draws them, so the
    # reference weight set holds no second copy: 8.4 MB, as the README states.
    tracemalloc.start()
    try:
        weights = build_encoder_weights(ACC_ENCODER, 256)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    lw = weights.layers[0]
    assert lw.w_qkv.shape == (256, 3 * 512)
    for h, ps in enumerate(lw.heads):
        for role, m in enumerate((ps.w_q, ps.w_k, ps.w_v)):
            assert np.shares_memory(m, lw.w_qkv)
            np.testing.assert_array_equal(m, lw.w_qkv[:, (role * 8 + h) * 64:][:, :64])
    drawn = make_projection_set(256, 64, ACC_ENCODER.init,
                                mix_seed(ACC_ENCODER.seed, _ROLE_HEAD, 0, 3))
    for got, want in zip((lw.heads[3].w_q, lw.heads[3].w_k, lw.heads[3].w_v),
                         (drawn.w_q, drawn.w_k, drawn.w_v)):
        np.testing.assert_array_equal(got, want)
    arrays = (lw.w_qkv, lw.w_out, lw.w_ff1, lw.w_ff2)
    assert sum(a.nbytes for a in arrays) == 8_388_608
    assert held < 8_388_608 + 100_000
