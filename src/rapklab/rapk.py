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

where mu is the mean feature row. This module evaluates those coefficients
and the linearized softmax behind them; the Monte Carlo cross-checks live in
``montecarlo``.
"""

from __future__ import annotations

import math

import numpy as np

from .attention import empirical_kernel
from .seeding import check_size
from .sequences import FeatureSequence

__all__ = [
    "linearized_softmax",
    "rapk_coefficients",
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


def rapk_coefficients(
    x: FeatureSequence, d_k: int, sigma_q2: float, sigma_k2: float, sigma_v2: float
) -> tuple[float, float]:
    """Coefficients (C0, C1) of the expected kernel C0 * 1 1^T + C1 * X X^T.

    C0 carries the global averaging behaviour, C1 the content-similarity
    correction. Both double sums are evaluated with numpy's pairwise
    reductions in float64.
    """
    check_size("d_k", d_k, 1)
    for s in (sigma_q2, sigma_k2, sigma_v2):
        if not s > 0.0:
            raise ValueError(f"projection variances must be > 0, got {s}")
    rows = x.data
    t = x.t_len
    total = rows.sum(axis=0)
    c0 = d_k * sigma_v2 * float(total @ total) / t**2

    gram = rows @ rows.T
    centered = rows - rows.mean(axis=0)
    gram_c = centered @ centered.T
    c1 = d_k * sigma_v2 * sigma_q2 * sigma_k2 * float(np.sum(gram_c * gram)) / t**2
    if not (math.isfinite(c0) and math.isfinite(c1)):
        raise FloatingPointError("the closed-form kernel coefficients overflowed")
    return c0, c1


def rapk_kernel(x: FeatureSequence, c0: float, c1: float) -> np.ndarray:
    """Assemble the T x T expected kernel C0 * 1 1^T + C1 * X X^T (symmetric)."""
    return c0 + c1 * empirical_kernel(x.data)

