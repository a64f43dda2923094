"""Closed-form expected kernel of randomly initialized self-attention (RAPK).

For i.i.d. zero-mean projections with element variances sigma_Q^2, sigma_K^2,
sigma_V^2, the expected output Gram matrix E[O O^T] of one attention layer
decomposes, to first order in the logits, into a global averaging term plus a
content-similarity term:

    E[O O^T] ~= C0 * 1 1^T + C1 * X X^T

with

    C0 = d_k sigma_V^2 / T^2 * sum_{p,q} x_p . x_q
    C1 = d_k sigma_V^2 sigma_Q^2 sigma_K^2 / T^2
         * sum_{p,q} ((x_p - mu) . (x_q - mu)) (x_p . x_q)

where mu is the mean feature row. This module evaluates those coefficients,
the linearized softmax behind them, and the analytic logit moments; the
Monte Carlo cross-checks live in ``montecarlo``.
"""

from __future__ import annotations

import numpy as np

from .sequences import FeatureSequence

__all__ = [
    "linearized_softmax",
    "logit_second_moment",
    "centered_logit_cov",
    "rapk_coefficients",
    "rapk_c1_centered",
    "rapk_kernel",
]


def linearized_softmax(s: np.ndarray) -> np.ndarray:
    """First-order softmax around uniform attention: 1/T + (s - rowmean(s)) / T.

    Valid in the small-logit regime; unlike the true softmax the output rows
    can contain negative entries, but each row still sums to 1 exactly (up to
    rounding).
    """
    arr = np.asarray(s, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"scores must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("scores contain non-finite values")
    t = arr.shape[1]
    return 1.0 / t + (arr - arr.mean(axis=1, keepdims=True)) / t


def _check_index(name: str, value: int, t_len: int) -> None:
    if not 0 <= value < t_len:
        raise IndexError(f"{name}={value} out of range for sequence of length {t_len}")


def logit_second_moment(
    x: FeatureSequence, i: int, p: int, j: int, q: int, sigma_q2: float, sigma_k2: float
) -> float:
    """Analytic E[s_ip s_jq] = sigma_Q^2 sigma_K^2 (x_i . x_j)(x_p . x_q)."""
    for name, idx in (("i", i), ("p", p), ("j", j), ("q", q)):
        _check_index(name, idx, x.t_len)
    rows = x.data
    return float(sigma_q2 * sigma_k2 * (rows[i] @ rows[j]) * (rows[p] @ rows[q]))


def centered_logit_cov(
    x: FeatureSequence, i: int, p: int, j: int, q: int, sigma_q2: float, sigma_k2: float
) -> float:
    """Analytic covariance of row-centered logits.

    E[(s_ip - s_bar_i)(s_jq - s_bar_j)]
        = sigma_Q^2 sigma_K^2 (x_i . x_j) ((x_p - mu) . (x_q - mu)).
    """
    for name, idx in (("i", i), ("p", p), ("j", j), ("q", q)):
        _check_index(name, idx, x.t_len)
    rows = x.data
    mu = rows.mean(axis=0)
    return float(sigma_q2 * sigma_k2 * (rows[i] @ rows[j]) * ((rows[p] - mu) @ (rows[q] - mu)))


def _check_sigmas(d_k: int, *sigmas: float) -> None:
    if d_k < 1:
        raise ValueError(f"d_k must be >= 1, got {d_k}")
    for s in sigmas:
        if not s > 0.0:
            raise ValueError(f"projection variances must be > 0, got {s}")


def rapk_coefficients(
    x: FeatureSequence, d_k: int, sigma_q2: float, sigma_k2: float, sigma_v2: float
) -> tuple[float, float]:
    """Coefficients (C0, C1) of the expected kernel C0 * 1 1^T + C1 * X X^T.

    C0 carries the global averaging behaviour, C1 the content-similarity
    correction. Both double sums are evaluated with numpy's pairwise
    reductions in float64.
    """
    _check_sigmas(d_k, sigma_q2, sigma_k2, sigma_v2)
    rows = x.data
    t = x.t_len
    total = rows.sum(axis=0)
    c0 = d_k * sigma_v2 * float(total @ total) / t**2

    gram = rows @ rows.T
    centered = rows - rows.mean(axis=0)
    gram_c = centered @ centered.T
    c1 = d_k * sigma_v2 * sigma_q2 * sigma_k2 * float(np.sum(gram_c * gram)) / t**2
    return c0, c1


def rapk_c1_centered(
    x: FeatureSequence, d_k: int, sigma_q2: float, sigma_k2: float, sigma_v2: float
) -> float:
    """C1 via the centered-input shortcut ||X X^T||_F^2 (cross-check only).

    Assumes the mean feature row is zero; for non-centered input this differs
    from the general formula.
    """
    _check_sigmas(d_k, sigma_q2, sigma_k2, sigma_v2)
    gram = x.data @ x.data.T
    return d_k * sigma_v2 * sigma_q2 * sigma_k2 * float(np.sum(gram * gram)) / x.t_len**2


def rapk_kernel(x: FeatureSequence, c0: float, c1: float) -> np.ndarray:
    """Assemble the T x T expected kernel C0 * 1 1^T + C1 * X X^T (symmetric)."""
    gram = x.data @ x.data.T
    gram = 0.5 * (gram + gram.T)
    return c0 + c1 * gram

