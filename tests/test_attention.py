import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass, replace

import numpy as np
import pytest
from oracles import ACC_ENCODER, head_output, head_weights, per_window_encoder

from rapklab import attention
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
from rapklab.cli import _DEFAULT_GRIDS
from rapklab.harness import COMPONENT_BUNDLES
from rapklab.initializers import InitScheme, make_projection_set, parse_scheme, scheme_label
from rapklab.seeding import generator, mix_seed
from rapklab.sequences import FeatureSequence


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


@pytest.mark.parametrize("m,d,n", [(100, 64, 100), (300, 64, 300), (101, 64, 100),
                                   (100, 512, 100), (64, 64, 64)])
def test_attention_scores_in_row_blocks_match_one_product(m, d, n, monkeypatch):
    # (100, 64, 100) runs in blocks of 40 rows, (101, 64, 100) ends in a
    # 21-row block and (300, 64, 300) in a 12-row one; (100, 512, 100) would
    # need 5-row blocks and (64, 64, 64) is small, so both are one product.
    rng = generator(3, 0x5C)
    q, k = rng.standard_normal((2, 3, m, d)), rng.standard_normal((2, 3, n, d))
    calls = []
    matmul = np.matmul
    monkeypatch.setattr(np, "matmul", lambda *a, **kw: calls.append(1) or matmul(*a, **kw))
    got = _scores(q, k)
    blocks = -(-m // (262_144 // (d * n))) if m * d * n > 262_144 and d * n <= 32_768 else 0
    assert len(calls) == blocks
    np.testing.assert_allclose(got, np.einsum("...id,...jd->...ij", q, k) / math.sqrt(d),
                               rtol=1e-12, atol=1e-12)


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
    cfg = all_off(use_attention=True, init=InitScheme("normal", 1e-8))
    x = FeatureSequence(generator(4, 0xE).standard_normal((6, 4)))
    weights = build_encoder_weights(cfg, 4)
    out = encoder_forward(x, cfg, weights)
    (_, _, w_v), = head_weights(weights.layers[0].w_qkv, 1)
    expected_row = x.data.mean(axis=0) @ w_v
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


@pytest.mark.parametrize("name", ["n_heads", "n_layers", "d_k", "window_w"])
def test_encoder_config_sizes_at_their_bounds(name):
    for value, message in ((0, "must be >= 1, got 0"), (2**63, f"must be < 2**63, got {2**63}")):
        with pytest.raises(ValueError, match=f"^{re.escape(f'{name} {message}')}$"):
            EncoderConfig(**{name: value})


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


def test_a_layer_stack_larger_than_memory_is_refused_after_layer_0(monkeypatch):
    # Layer 0 holds 2048 bytes (Q/K/V 4x24, output 8x4, FFN 4x16 and 16x4),
    # so three layers need 6144.
    cfg = EncoderConfig(n_heads=2, d_k=8, n_layers=3, window_w=4)
    drawn, real = [], attention.make_projection_set

    def make_projection_set(*args):
        drawn.append(args)
        return real(*args)

    monkeypatch.setattr(attention, "make_projection_set", make_projection_set)
    monkeypatch.setattr(attention, "_physical_memory", lambda: 6143)
    with pytest.raises(MemoryError, match=r"^n_layers=3 layers of 2048 bytes each need 6144 "
                                          r"bytes, more than the 6143 bytes of physical memory$"):
        build_encoder_weights(cfg, 4)
    assert len(drawn) == 2  # the two heads of layer 0, and nothing of layer 1
    for memory in (6144, None):  # enough, or a host whose sysconf cannot tell
        monkeypatch.setattr(attention, "_physical_memory", lambda: memory)
        assert len(build_encoder_weights(cfg, 4).layers) == 3


def test_encoder_layernorm_only_standardizes_rows():
    cfg = all_off(use_layernorm=True)
    x = FeatureSequence(generator(7, 0x12).standard_normal((4, 6)) * 5.0)
    out = encoder_forward(x, cfg).data
    np.testing.assert_allclose(out.mean(axis=1), np.zeros(4), atol=1e-12)


def test_encoder_heads_averaged_without_output_linear():
    cfg = all_off(use_attention=True, n_heads=2, d_k=4)
    x = FeatureSequence(generator(8, 0x13).standard_normal((3, 4)))
    weights = build_encoder_weights(cfg, 4)
    outs = [head_output(x.data, *ws) for ws in head_weights(weights.layers[0].w_qkv, 2)]
    expected = (outs[0] + outs[1]) / 2.0
    np.testing.assert_allclose(encoder_forward(x, cfg, weights).data, expected, atol=1e-12)


@pytest.mark.parametrize("n_heads", [8, 9])
def test_head_mean_adds_heads_in_head_order(n_heads, monkeypatch):
    # Without the output linear the heads are added in head order, then
    # divided by H. numpy's sum or mean over the head axis adds pairwise
    # from 8 terms on, which gives other bits at d_h = 1 (seen at 8, 9, 16
    # and 17 heads); the reports' bits rest on this order.
    blocks = []

    def attend(q, k, v, out):
        blocks.append(out)  # a view of the block's rows of the heads buffer
        return real_attend(q, k, v, out=out)

    real_attend = attention._attend
    monkeypatch.setattr(attention, "_attend", attend)
    cfg = all_off(use_attention=True, n_heads=n_heads, d_k=1, window_w=4)
    x = FeatureSequence(generator(n_heads, 0x14).standard_normal((10, 3)))
    got = encoder_forward(x, cfg).data
    heads = np.concatenate([out.transpose(0, 2, 1, 3).reshape(-1, n_heads, 1)
                            for out in blocks])
    want = heads[:, 0].copy()
    for i in range(1, n_heads):
        want += heads[:, i]
    want /= n_heads
    assert got.shape == (10, 1)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


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


# Generated shapes for the per-window oracle check. Even cases take the
# component bundles in turn; odd cases draw each use_* flag on its own, which
# reaches combinations no bundle holds (the reference encoder's FFN without a
# residual among them). Heads, layers, widths, window, length, positional rows
# and a default init scheme come from the same seeded stream.
_INIT_LABELS = _DEFAULT_GRIDS["init"].split(",")
_REFERENCE_FLAGS = {flag: getattr(ACC_ENCODER, flag) for flag in COMPONENT_BUNDLES["full"]}


@dataclass(frozen=True)
class _Case:
    cfg: EncoderConfig
    bundle: str | None  # None when the flags were drawn one by one
    t_len: int
    d: int


def _generated_cases(n: int = 240) -> list[_Case]:
    rng = generator(13, 0x18)
    bundles = list(COMPONENT_BUNDLES)
    cases = []
    for i in range(n):
        bundle = None if i % 2 else bundles[i // 2 % len(bundles)]
        flags = COMPONENT_BUNDLES[bundle] if bundle else {
            flag: bool(rng.random() < 0.5) for flag in _REFERENCE_FLAGS}
        n_heads = int(rng.choice([1, 2, 3, 4, 8, 11]))
        concat = flags["use_attention"] and flags["use_output_linear"]
        d_k = n_heads * int(rng.integers(1, 5)) if concat else int(rng.integers(1, 9))
        t_len = int(rng.integers(1, 25))
        cfg = EncoderConfig(
            n_heads=n_heads, n_layers=int(rng.integers(1, 3)), d_k=d_k,
            window_w=int(rng.integers(1, t_len + 4)),
            init=parse_scheme(_INIT_LABELS[int(rng.integers(len(_INIT_LABELS)))]),
            seed=int(rng.integers(2**63)),
            **{**flags, "use_positional": bool(rng.random() < 0.4)},
        )
        d = int(rng.integers(1, 9))
        if flags["use_attention"] and not concat and flags["use_residual"]:
            d = d_k  # the residual adds the d_k-wide head mean to the input
        cases.append(_Case(cfg, bundle, t_len, d))
    return cases


def _ragged(c: _Case) -> bool:
    return c.cfg.use_attention and c.t_len > c.cfg.window_w and c.t_len % c.cfg.window_w != 0


def _head_mean(c: _Case) -> bool:
    return c.cfg.use_attention and not c.cfg.use_output_linear


# The shapes the generated set must hold; those of the windows count only
# with attention on. The first case that shows a shape not yet named is named
# after it; the other cases are numbered.
_SHAPES = {
    "window_1": lambda c: c.cfg.use_attention and c.cfg.window_w == 1,
    "shorter_than_window": lambda c: c.cfg.use_attention and c.cfg.window_w > c.t_len,
    "t_len_1": lambda c: c.cfg.use_attention and c.t_len == 1,
    "two_layers": lambda c: c.cfg.use_attention and c.cfg.n_layers == 2,
    "ragged_tail": _ragged,
    "positional_tail": lambda c: c.cfg.use_positional and _ragged(c),
    "residual": lambda c: c.cfg.use_attention and c.cfg.use_residual,
    "residual_on_head_mean": lambda c: _head_mean(c) and c.cfg.use_residual,
    # The FFN's output replaces its input (h = f).
    "ffn_without_residual": lambda c: c.cfg.use_ffn and not c.cfg.use_residual,
    "reference_components": lambda c: all(
        getattr(c.cfg, flag) == on for flag, on in _REFERENCE_FLAGS.items()),
    "heads_averaged": lambda c: (_head_mean(c) and c.cfg.n_heads >= 2 and c.cfg.use_ffn
                                 and c.cfg.use_layernorm and not c.cfg.use_residual),
    # One cell per head: numpy's mean sums 8 or more heads pairwise, the
    # encoder's running sum adds them in order, so they agree to rounding.
    "heads_averaged_single_cell": lambda c: (_head_mean(c) and c.cfg.n_heads >= 8
                                             and c.cfg.d_k == 1),
    **{f"bundle_{name}": (lambda c, name=name: c.bundle == name) for name in COMPONENT_BUNDLES},
    **{f"init_{label}": (lambda c, label=label: scheme_label(c.cfg.init) == label)
       for label in _INIT_LABELS},
}


def _case_ids(cases: list[_Case]) -> list[str]:
    unnamed = dict(_SHAPES)
    ids = []
    for i, c in enumerate(cases):
        name = next((shape for shape, shows in unnamed.items() if shows(c)), None)
        unnamed.pop(name, None)
        ids.append(name or f"case_{i:03d}")
    return ids


_CASES = _generated_cases()
_CASE_IDS = _case_ids(_CASES)


def test_generated_encoder_cases_hold_every_shape():
    assert len(_CASES) >= 200
    assert set(_SHAPES) <= set(_CASE_IDS)


@pytest.mark.parametrize("case", _CASES, ids=_CASE_IDS)
def test_encoder_forward_matches_per_window_oracle(case, monkeypatch):
    # Batching the windows reorders floating-point sums in the matmuls, so
    # agreement is to rounding (observed up to 4.2e-15 of the largest
    # magnitude), not bit for bit. It holds as the tiles fall and again with
    # one window to a tile.
    x = FeatureSequence(generator(9, 0x14, case.cfg.seed).standard_normal((case.t_len, case.d)))
    weights = build_encoder_weights(case.cfg, case.d)
    want = per_window_encoder(x, case.cfg, weights)
    tol = 1e-12 * np.abs(want).max()
    np.testing.assert_allclose(encoder_forward(x, case.cfg, weights).data, want, rtol=0, atol=tol)
    monkeypatch.setattr(attention, "_TILE_BYTES", 1)
    assert _tile_rows(case.cfg, weights) == case.cfg.window_w
    np.testing.assert_allclose(encoder_forward(x, case.cfg, weights).data, want, rtol=0, atol=tol)


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
    # (d, 3 * H * d_h) matrix, drawn as make_projection_set draws them, and
    # the reference weight set holds no second copy: 8.4 MB, as the README
    # states.
    tracemalloc.start()
    try:
        weights = build_encoder_weights(ACC_ENCODER, 256)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    lw = weights.layers[0]
    assert lw.w_qkv.shape == (256, 3 * 512)
    for h, got in enumerate(head_weights(lw.w_qkv, 8)):
        drawn = make_projection_set(256, 64, ACC_ENCODER.init,
                                    mix_seed(ACC_ENCODER.seed, _ROLE_HEAD, 0, h))
        for m, want in zip(got, drawn, strict=True):
            np.testing.assert_array_equal(m, want)
    arrays = (lw.w_qkv, lw.w_out, lw.w_ff1, lw.w_ff2)
    assert sum(a.nbytes for a in arrays) == 8_388_608
    assert held < 8_388_608 + 100_000


_THREAD_HASHES = f"""
import hashlib
from dataclasses import replace
from rapklab.attention import EncoderConfig, encoder_forward
from rapklab.harness import COMPONENT_BUNDLES
from rapklab.initializers import InitScheme
from rapklab.seeding import generator
from rapklab.sequences import FeatureSequence
x = FeatureSequence(generator(12, 0x17).standard_normal((1000, 256)))
head_mean = replace({ACC_ENCODER!r}, **COMPONENT_BUNDLES["attention_no_linear"])
for cfg, windows in (({ACC_ENCODER!r}, (10, 35, 50, 100, 300)), (head_mean, (10, 35, 50, 64))):
    for w in windows:
        out = encoder_forward(x, replace(cfg, window_w=w)).data
        print(cfg.use_output_linear, w, hashlib.sha256(out.tobytes()).hexdigest())
"""


def test_reference_encoder_bits_do_not_depend_on_blas_threads():
    # The reference encoder (d_h 64) and the head mean (d_h 512) on one
    # 1000 x 256 input, under one and two OpenBLAS threads. Each count runs in
    # a fresh process: OpenBLAS reads it when it loads. A score product above
    # 262,144 multiply-adds runs in row blocks that stay on one thread, which
    # holds for d_h * w <= 32,768: w <= 512 here, and w <= 64 for the mean.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    hashes = [
        subprocess.run([sys.executable, "-c", _THREAD_HASHES], capture_output=True, text=True,
                       check=True, env={**os.environ, "OPENBLAS_NUM_THREADS": threads,
                                        "PYTHONPATH": path}).stdout
        for threads in ("1", "2")
    ]
    assert hashes[0].count("\n") == 9
    assert hashes[0] == hashes[1]
