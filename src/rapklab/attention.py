"""The attention step, the empirical kernel and a configurable random encoder.

``_attend`` is the one attention step, softmax(Q K^T / sqrt(d)) V over the
last two axes. The encoder's window batches and the Monte Carlo kernel trials
run it, and the logit statistics run its ``_scores``. ``encoder_forward`` is a
post-norm encoder whose components can be switched off one by one; disabled
components are identity maps, so with every flag false it is the identity.

Every layer of the encoder is window-local: attention stays inside
non-overlapping windows and everything else works row by row. So the encoder
runs the whole layer stack over one tile at a time, a block of whole windows
sized so that its widest row block (Q/K/V or FFN hidden) stays near
``_TILE_BYTES``, and writes each tile's result into one output array; no
intermediate is ever held at full length. Inside a tile one GEMM against a
per-layer ``(d, 3*H*d_h)`` matrix gives every head's Q, K and V; that matrix
is the only copy of those weights.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .initializers import InitScheme, init_matrix, make_projection_set, scheme_label
from .seeding import check_size, mix_seed
from .sequences import FeatureSequence

__all__ = [
    "AttentionMatrix",
    "EncoderConfig",
    "EncoderWeights",
    "LayerWeights",
    "softmax_rows",
    "empirical_kernel",
    "layer_norm_rows",
    "build_encoder_weights",
    "encoder_forward",
    "window_blocks",
]

LAYERNORM_EPS = 1e-5

# Row sums of a softmax output may drift this far from 1 before we reject.
ROW_SUM_TOL = 1e-9

# encoder_forward sizes its row tiles so that one tile's widest row block
# stays near this many bytes: 250 rows at the reference encoder (d_k = 512),
# whose Q/K/V block (1,536 columns) is wider than its FFN's (1,024).
_TILE_BYTES = 3 * 2**20

# OpenBLAS runs a GEMM of at most 4 * 65536 multiply-adds on one thread.
# _scores splits a larger one into row blocks no smaller than _MIN_BLOCK_ROWS:
# thinner blocks cost more than the thread split they avoid.
_ONE_THREAD_GEMM = 4 * 65536
_MIN_BLOCK_ROWS = 8

# Stream tags for the encoder's weight draws.
_ROLE_HEAD = 0x11
_ROLE_OUT = 0x22
_ROLE_FF1 = 0x33
_ROLE_FF2 = 0x44
_ROLE_POS = 0x55


@dataclass(frozen=True)
class AttentionMatrix:
    """A row-stochastic attention matrix (non-negative rows summing to 1)."""

    rows: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.rows, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"attention matrix must be 2-D, got shape {arr.shape}")
        if arr.min() < 0.0:
            raise ValueError("attention weights must be non-negative")
        sums = arr.sum(axis=1)
        if np.max(np.abs(sums - 1.0)) > ROW_SUM_TOL:
            raise ValueError(f"attention rows must sum to 1 within {ROW_SUM_TOL}")
        object.__setattr__(self, "rows", arr)


def _softmax(s: np.ndarray) -> np.ndarray:
    # Softmax over the last axis, shifted by each row's max for stability.
    z = s - s.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_rows(s: np.ndarray) -> AttentionMatrix:
    """Numerically stable row softmax of a score matrix."""
    arr = np.asarray(s, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"scores must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("scores contain non-finite values")
    return AttentionMatrix(_softmax(arr))


def _scores(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Scaled dot-product logits Q K^T / sqrt(d) over the last two axes.

    OpenBLAS may split a product of more than ``_ONE_THREAD_GEMM``
    multiply-adds across threads, which can change its bits. Such a product
    runs in blocks of query rows that each stay within that size, when a
    block still holds ``_MIN_BLOCK_ROWS`` rows; each logit is still one
    full-length dot product.
    """
    (m, d), n = q.shape[-2:], k.shape[-2]
    kt = k.swapaxes(-1, -2)
    block = _ONE_THREAD_GEMM // (d * n or 1)
    if block >= m or block < _MIN_BLOCK_ROWS:
        return (q @ kt) / math.sqrt(d)
    s = np.empty((*q.shape[:-1], n))
    for lo in range(0, m, block):
        np.matmul(q[..., lo:lo + block, :], kt, out=s[..., lo:lo + block, :])
    s /= math.sqrt(d)
    return s


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray,
            out: np.ndarray | None = None) -> np.ndarray:
    """One attention step, softmax(Q K^T / sqrt(d)) V, over the last two axes."""
    return np.matmul(_softmax(_scores(q, k)), v, out=out)


def empirical_kernel(o: np.ndarray) -> np.ndarray:
    """Gram matrix O O^T of an output sequence, symmetrized."""
    arr = np.asarray(o, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"output must be 2-D, got shape {arr.shape}")
    k = arr @ arr.T
    return 0.5 * (k + k.T)


def layer_norm_rows(h: np.ndarray) -> np.ndarray:
    """Per-row layer normalization with unit affine (gamma=1, beta=0)."""
    # The variance is numpy's own arithmetic (square the centred rows, sum,
    # divide by the count), so the result equals (h - mean) / sqrt(var + LAYERNORM_EPS)
    # bit for bit with h - mean computed once.
    # Values too large to square are an error, not a warning and NaN rows.
    with np.errstate(over="ignore", invalid="ignore"):
        centred = h - h.mean(axis=1, keepdims=True)
        var = np.square(centred).sum(axis=1, keepdims=True)
    if not np.isfinite(var).all():
        raise FloatingPointError("values overflowed in a layer norm")
    var /= h.shape[1]
    var += LAYERNORM_EPS
    centred /= np.sqrt(var, out=var)
    return centred


@dataclass(frozen=True)
class EncoderConfig:
    """Configuration of the frozen random encoder.

    ``window_w`` is the attention window: rows attend only inside their own
    non-overlapping window, inputs may be any length, and the positional
    rows repeat per window. When ``use_output_linear`` is true each of the
    ``n_heads`` heads has width ``d_k / n_heads`` and the concatenated heads
    are projected back to the input width; when false, heads keep the full
    ``d_k`` width and are averaged.
    """

    n_heads: int = 8
    n_layers: int = 1
    d_k: int = 512
    use_attention: bool = True
    use_output_linear: bool = True
    use_ffn: bool = True
    use_layernorm: bool = True
    use_residual: bool = True
    use_positional: bool = False
    window_w: int = 10
    init: InitScheme = field(default_factory=lambda: InitScheme("xavier_uniform"))
    seed: int = 111

    def __post_init__(self) -> None:
        for name in ("n_heads", "n_layers", "d_k", "window_w"):
            check_size(name, getattr(self, name), 1)

    def head_width(self, d: int) -> int:
        """Each attention head's width on inputs of width ``d``. Heads that do
        not split ``d_k`` for the output linear, and a residual add of another
        width than the input's, are a ValueError."""
        if not self.use_output_linear:
            if self.use_residual and self.d_k != d:
                raise ValueError(f"residual add needs matching widths: input is {d}, "
                                 f"attention output is d_k={self.d_k} (no output linear)")
            return self.d_k
        if self.d_k % self.n_heads:
            raise ValueError(f"d_k={self.d_k} must be divisible by n_heads={self.n_heads} "
                             "when heads are concatenated for the output linear")
        return self.d_k // self.n_heads


@dataclass(frozen=True, slots=True)
class LayerWeights:
    """One layer's weights. ``w_qkv`` is ``(width, 3 * H * d_h)``: the Q, then
    the K, then the V columns of every head in head order."""

    w_qkv: np.ndarray | None
    w_out: np.ndarray | None
    w_ff1: np.ndarray | None
    w_ff2: np.ndarray | None


@dataclass(frozen=True)
class EncoderWeights:
    positional: np.ndarray | None
    layers: tuple[LayerWeights, ...]
    d_in: int


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where ``os.sysconf`` cannot tell."""
    names = getattr(os, "sysconf_names", {})
    if "SC_PAGE_SIZE" not in names or "SC_PHYS_PAGES" not in names:
        return None
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def build_encoder_weights(cfg: EncoderConfig, d: int, drawn: dict | None = None) -> EncoderWeights:
    """Draw every weight of the encoder for input width ``d``.

    Pure function of (cfg, d): repeated calls return identical weights, which
    is what freezes the encoder across windows and runs. Calls that share a
    ``drawn`` dict draw each matrix once, keyed by every argument of its draw.
    Once layer 0 is drawn, a stack of ``n_layers`` layers its size that would
    not fit in physical memory raises ``MemoryError`` before layer 1 is drawn;
    a shape that ``cfg.head_width`` refuses raises before any draw.
    """
    drawn = {} if drawn is None else drawn

    def matrix(rows: int, cols: int, *role: int) -> np.ndarray:
        key = (rows, cols, cfg.init, mix_seed(cfg.seed, *role))  # init_matrix's arguments
        if key not in drawn:
            drawn[key] = init_matrix(*key)
        return drawn[key]

    width = d
    layers: list[LayerWeights] = []
    for li in range(cfg.n_layers):
        w_qkv: np.ndarray | None = None
        w_out: np.ndarray | None = None
        new_width = width
        if cfg.use_attention:
            head_width = cfg.head_width(d)
            key = (width, cfg.n_heads, head_width, cfg.init, cfg.seed, li)
            if key not in drawn:
                qkv = np.empty((width, 3, cfg.n_heads, head_width))
                for h in range(cfg.n_heads):
                    qkv[:, 0, h], qkv[:, 1, h], qkv[:, 2, h] = make_projection_set(
                        width, head_width, cfg.init, mix_seed(cfg.seed, _ROLE_HEAD, li, h))
                drawn[key] = qkv.reshape(width, -1)
            w_qkv = drawn[key]
            if cfg.use_output_linear:
                w_out = matrix(cfg.d_k, width, _ROLE_OUT, li)
            else:
                new_width = cfg.d_k
        w_ff1 = w_ff2 = None
        if cfg.use_ffn:
            w_ff1 = matrix(new_width, 4 * new_width, _ROLE_FF1, li)
            w_ff2 = matrix(4 * new_width, new_width, _ROLE_FF2, li)
        layers.append(LayerWeights(w_qkv=w_qkv, w_out=w_out, w_ff1=w_ff1, w_ff2=w_ff2))
        width = new_width
        if li == 0 and cfg.n_layers > 1:
            # A layer without weights still holds its (slotted) object.
            layer_bytes = sys.getsizeof(layers[0]) + sum(
                w.nbytes for w in (w_qkv, w_out, w_ff1, w_ff2) if w is not None)
            memory = _physical_memory()
            if memory is not None and cfg.n_layers * layer_bytes > memory:
                raise MemoryError(
                    f"n_layers={cfg.n_layers} layers of {layer_bytes} bytes each need "
                    f"{cfg.n_layers * layer_bytes} bytes, more than the {memory} bytes "
                    "of physical memory")
    positional = None
    if cfg.use_positional:
        positional = matrix(cfg.window_w, d, _ROLE_POS)
    return EncoderWeights(positional=positional, layers=tuple(layers), d_in=d)


def window_blocks(t_len: int, w: int) -> list[tuple[int, int, int]]:
    """The non-overlapping windows of ``w`` rows that cover [0, t_len), as at
    most two ``(lo, hi, width)`` blocks: the whole windows, then the shorter
    tail. Rows ``lo:hi`` of a block reshape to a batch ``(-1, width, ...)``."""
    check_size("window width", w, 1)
    full = t_len - t_len % w
    return [(lo, hi, width) for lo, hi, width in ((0, full, w), (full, t_len, t_len - full))
            if hi > lo]


def _attention_block(h: np.ndarray, lw: LayerWeights, cfg: EncoderConfig) -> np.ndarray:
    # Multi-head attention over the windows of a tile, and its residual add.
    # One GEMM gives every head's Q, K and V; each window block is then one
    # (n_win, H, width, d_h) batch, whose output lands in place in ``heads``.
    # With the output linear the heads sit side by side in the (rows, H * d_h)
    # layout it reads; without it they are added in head order and divided by
    # H (a sum or mean over the head axis adds pairwise, with other bits).
    rows, n_heads, d_h = len(h), cfg.n_heads, lw.w_qkv.shape[1] // (3 * cfg.n_heads)
    qkv = (h @ lw.w_qkv).reshape(rows, 3, n_heads, d_h)
    heads = np.empty((rows, n_heads, d_h))
    for lo, hi, width in window_blocks(rows, cfg.window_w):
        q, k, v = qkv[lo:hi].reshape(-1, width, 3, n_heads, d_h).transpose(2, 0, 3, 1, 4)
        out = heads[lo:hi].reshape(-1, width, n_heads, d_h).transpose(0, 2, 1, 3)
        _attend(q, k, v, out=out)
    if cfg.use_output_linear:
        att = heads.reshape(rows, -1) @ lw.w_out
    else:
        att = functools.reduce(np.add, heads.swapaxes(0, 1)) / n_heads
    return h + att if cfg.use_residual else att


def _encode_tile(h: np.ndarray, cfg: EncoderConfig, weights: EncoderWeights) -> np.ndarray:
    # Every layer over one tile whose first row starts a window.
    if cfg.use_positional:
        h = h + weights.positional[np.arange(len(h)) % cfg.window_w]
    for lw in weights.layers:
        if cfg.use_attention:
            h = _attention_block(h, lw, cfg)
        if cfg.use_layernorm:
            h = layer_norm_rows(h)
        if cfg.use_ffn:
            f = h @ lw.w_ff1
            f = np.maximum(f, 0.0, out=f) @ lw.w_ff2
            h = h + f if cfg.use_residual else f
            if cfg.use_layernorm:
                h = layer_norm_rows(h)
    return h


def _tile_rows(cfg: EncoderConfig, weights: EncoderWeights) -> int:
    # Whole windows, at least one, whose widest float64 Q/K/V or FFN hidden
    # block (or input, with neither) fits in _TILE_BYTES.
    cols = max((w.shape[1] for lw in weights.layers for w in (lw.w_qkv, lw.w_ff1)
                if w is not None), default=weights.d_in)
    return max(1, _TILE_BYTES // (8 * cols) // cfg.window_w) * cfg.window_w


def encoder_forward(
    x: FeatureSequence, cfg: EncoderConfig, weights: EncoderWeights | None = None
) -> FeatureSequence:
    """Run the frozen random encoder over a sequence of any length.

    Attention stays inside non-overlapping windows of ``cfg.window_w`` rows
    (the last may be shorter); every other layer works row by row. Per layer,
    in order and gated by its flag: multi-head attention, output linear,
    residual add, layer norm, then an FFN block (width -> 4x -> width, ReLU)
    with its own residual and norm. The rows run in tiles of whole windows
    (``_tile_rows``). The last tile also takes the rows after the last whole
    tile: a tile of one row would send its GEMMs to gemv, which rounds
    differently, and a row's bits would then depend on where the tiles fall.
    """
    if weights is None:
        weights = build_encoder_weights(cfg, x.dim)
    elif weights.d_in != x.dim:
        raise ValueError(f"weights were built for d={weights.d_in}, sequence has d={x.dim}")

    rows = _tile_rows(cfg, weights)
    n_tiles = max(1, x.t_len // rows)
    out = None
    for i in range(n_tiles):
        lo, hi = i * rows, (i + 1) * rows if i < n_tiles - 1 else x.t_len
        try:
            h = _encode_tile(x.data[lo:hi], cfg, weights)
        except FloatingPointError as exc:
            raise ValueError(f"init scheme {scheme_label(cfg.init)!r}: {exc}") from None
        if out is None:
            out = np.empty((x.t_len, h.shape[1]))
        out[lo:hi] = h
    return FeatureSequence(out)
