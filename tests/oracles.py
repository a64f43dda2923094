"""The oracles that more than one test module uses, and the acceptance
reference point. Each oracle recomputes a library result its own way (loops,
dicts, one head and one window at a time). ``perfbench/bench_checks.py``
keeps its own copies on purpose, so that it does not lean on the tests.
"""

import math
from collections import Counter
from dataclasses import replace

import numpy as np

from rapklab.attention import EncoderConfig, layer_norm_rows, softmax_rows
from rapklab.harness import RunConfig, run_pipeline
from rapklab.sequences import FeatureSequence, StageSequence
from rapklab.synthgen import SynthConfig

SEEDS = (111, 222, 333, 444, 555)

# Reference cohort for the smoother comparisons: long noisy recordings with
# small absolute feature scale (keeps the random encoder in its near-uniform
# attention regime) and wide features (keeps window means class-separable).
ACC_SYNTH = SynthConfig(
    n_classes=5,
    t_len=1000,
    n_subjects=20,
    self_prob=0.92,
    feat_dim=256,
    class_sep=0.4,
    noise_std=0.1,
    label_noise=0.30,
    seed=97531,
)

# Reference encoder: windowed attention with concatenated heads, FFN and
# layer norm on, residual off so the smoothed context is what the head sees.
ACC_ENCODER = EncoderConfig(
    n_heads=8,
    n_layers=1,
    d_k=512,
    window_w=10,
    use_residual=False,
    use_positional=False,
)

_PIPELINES: dict = {}


def acc_pipeline(smoother: str, window: int = 10, d_k: int = 512):
    # Each reference pipeline runs once per test session.
    key = (smoother, window, d_k)
    if key not in _PIPELINES:
        enc = replace(ACC_ENCODER, window_w=window, d_k=d_k)
        _PIPELINES[key] = run_pipeline(
            RunConfig(synth=ACC_SYNTH, smoother=smoother, encoder=enc, seeds=SEEDS)
        )
    return _PIPELINES[key]


def seq(labels, n_classes: int = 3) -> StageSequence:
    return StageSequence(np.array(labels), n_classes)


def naive_wte(*label_lists) -> float:
    """WTE by dict and loop over the transitions within each label list."""
    pairs = [pair for labels in label_lists for pair in zip(labels[:-1], labels[1:])]
    out = 0.0
    by_source: dict = {}
    for a, b in pairs:
        by_source.setdefault(a, []).append(b)
    for row in by_source.values():
        ent = 0.0
        for cnt in Counter(row).values():
            p = cnt / len(row)
            ent -= p * math.log(p)
        out += len(row) / len(pairs) * ent
    return out


def naive_lsii(none_l, corr_l, w: int):
    return naive_lsii_pooled([none_l], [corr_l], w)


def naive_lsii_pooled(none_ls, corr_ls, w: int):
    """LSII by loop over every correction of every pair, its window rescanned."""
    terms = []
    for none_l, corr_l in zip(none_ls, corr_ls):
        for t in range(len(none_l)):
            if none_l[t] == corr_l[t]:
                continue
            start = (t // w) * w
            stop = min(start + w, len(none_l))
            others = [u for u in range(start, stop) if u != t]
            if not others:
                continue
            terms.append(sum(1 for u in others if corr_l[u] == corr_l[t]) / len(others))
    return sum(terms) / len(terms) if terms else None


def brute_coefficients(rows: np.ndarray, d_k: int, sq2: float, sk2: float, sv2: float):
    """(C0, C1) by literal nested loops over both double sums."""
    t = rows.shape[0]
    mu = rows.mean(axis=0)
    c0 = 0.0
    c1 = 0.0
    for p in range(t):
        for q in range(t):
            dot = float(rows[p] @ rows[q])
            c0 += dot
            c1 += float((rows[p] - mu) @ (rows[q] - mu)) * dot
    return d_k * sv2 * c0 / t**2, d_k * sv2 * sq2 * sk2 * c1 / t**2


def closed_form_kernel(rows: np.ndarray, d_k: int, var: float) -> np.ndarray:
    """C0 11^T + C1 X X^T for equal projection variances ``var``."""
    c0, c1 = brute_coefficients(rows, d_k, var, var, var)
    return c0 + c1 * (rows @ rows.T)


def rapk_c1_centered(x: FeatureSequence, d_k: int, sq2: float, sk2: float, sv2: float) -> float:
    """C1 via the centered-input shortcut ||X X^T||_F^2. It assumes the mean
    feature row is zero; for other input it differs from the general formula."""
    gram = x.data @ x.data.T
    return d_k * sv2 * sq2 * sk2 * float(np.sum(gram * gram)) / x.t_len**2


def head_weights(w_qkv: np.ndarray, n_heads: int) -> list[tuple[np.ndarray, ...]]:
    """Each head's (W_Q, W_K, W_V): its column blocks of a layer's fused matrix,
    which holds the Q, then the K, then the V columns of every head in order."""
    d_h = w_qkv.shape[1] // (3 * n_heads)
    return [tuple(w_qkv[:, (role * n_heads + h) * d_h:][:, :d_h] for role in range(3))
            for h in range(n_heads)]


def head_output(h: np.ndarray, w_q: np.ndarray, w_k: np.ndarray, w_v: np.ndarray) -> np.ndarray:
    """One head, softmax(Q K^T / sqrt(d_k)) V, from plain numpy and softmax_rows."""
    q, k, v = h @ w_q, h @ w_k, h @ w_v
    return softmax_rows(q @ k.T / math.sqrt(w_q.shape[1])).rows @ v


def per_window_encoder(x: FeatureSequence, cfg: EncoderConfig, weights) -> np.ndarray:
    """Reference encoder: each window on its own, each head from ``head_output``
    on its column blocks of the fused Q/K/V matrix."""
    parts = []
    for start in range(0, x.t_len, cfg.window_w):
        h = x.data[start:start + cfg.window_w]
        if cfg.use_positional:
            h = h + weights.positional[: len(h)]
        for lw in weights.layers:
            if cfg.use_attention:
                outs = [head_output(h, *ws) for ws in head_weights(lw.w_qkv, cfg.n_heads)]
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
