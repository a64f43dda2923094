"""Monte Carlo validation of the closed-form attention kernel.

Estimates E[O O^T] by averaging empirical kernels over freshly drawn
projection sets, each trial running the encoder's own attention step (the
true softmax, not the linearization), and compares the estimate against the
closed-form prediction as the projection width d_k grows. Also measures logit
concentration: how tightly the attention logits cluster around zero for a set
of schemes at a given width.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .attention import _attend, _scores, empirical_kernel, layer_norm_rows
from .initializers import (
    InitScheme,
    analytic_variance,
    init_matrices,
    make_projection_set,
    scheme_label,
)
from .metrics import pearson
from .rapk import rapk_coefficients, rapk_kernel
from .seeding import check_list, check_size, generator, mix_seed
from .sequences import FeatureSequence

__all__ = [
    "LOGIT_EPS",
    "LogitConcentrationReport",
    "KernelValidationReport",
    "kernel_mse",
    "logit_concentration",
    "dk_sweep_detail",
    "centered_unit_sequence",
]

# Logits with |s| below this count as "concentrated" in the reports.
LOGIT_EPS = 0.1

# Trials are accumulated in fixed index blocks so the mean does not depend on
# evaluation order (serial, reversed, or partitioned runs agree to rounding).
_BLOCK = 100

_ROLE_Q = 0
_ROLE_K = 1
_ROLE_SEQ = 0x5E9


def _block_means(
    x: FeatureSequence, scheme: InitScheme, d_k: int, trials: int, seed: int
) -> tuple[list[np.ndarray], np.ndarray]:
    """The mean kernel of each fixed index block of trials, and of all trials."""
    means = []
    total = np.zeros((x.t_len, x.t_len))
    for start in range(0, trials, _BLOCK):
        size = min(_BLOCK, trials - start)
        acc = np.zeros((x.t_len, x.t_len))
        for trial in range(start, start + size):
            w_q, w_k, w_v = make_projection_set(x.dim, d_k, scheme, mix_seed(seed, trial))
            acc += empirical_kernel(_attend(x.data @ w_q, x.data @ w_k, x.data @ w_v))
        means.append(acc / size)
        total += size * means[-1]
    return means, total / trials


def kernel_mse(k_a: np.ndarray, k_b: np.ndarray) -> float:
    """Mean squared entrywise difference between two kernels."""
    a = np.asarray(k_a, dtype=np.float64)
    b = np.asarray(k_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"kernel shapes differ: {a.shape} vs {b.shape}")
    return float(np.mean((a - b) ** 2))


@dataclass(frozen=True)
class LogitConcentrationReport:
    """Pooled logit statistics for one (scheme, d_k, layernorm) setting."""

    scheme_label: str
    d_k: int
    with_layernorm: bool
    empirical_mean: float
    empirical_std: float
    analytic_std: float
    frac_within_eps: float
    trials: int


def logit_concentration(
    x: FeatureSequence,
    schemes: Sequence[InitScheme],
    d_k: int,
    with_layernorm: bool,
    trials: int,
    seed: int,
) -> list[LogitConcentrationReport]:
    """Measure how tightly attention logits concentrate around zero.

    Returns one report per scheme. Each draws ``trials`` independent
    (W_Q, W_K) pairs, pools all T^2 logits per trial, and reports the
    empirical mean/std, the analytic pooled std
    sqrt(sigma_Q^2 sigma_K^2) * mean_i ||x_i||^2, and the fraction of logits
    with |s| < ``LOGIT_EPS``. With ``with_layernorm`` the feature rows are
    layer-normalized before projection, which is what bounds the row norms.

    The schemes share their random numbers: the role-``r`` matrices of trial
    ``t`` all come from ``init_matrices`` at ``mix_seed(seed, t, r)``, so
    each report is bit for bit that of a one-scheme call. Only the T x d_k
    projections of a trial are kept, one role at a time. Logits whose squares
    overflow float64 raise ``ValueError`` naming the first such scheme.
    """
    check_size("trials", trials, 100)  # fewer give unstable statistics
    check_size("d_k", d_k, 1)
    rows = layer_norm_rows(x.data) if with_layernorm else x.data

    total = [0.0] * len(schemes)
    total_sq = [0.0] * len(schemes)
    within = [0] * len(schemes)
    # Logits too large to square are an error below, not a warning here.
    with np.errstate(over="ignore", invalid="ignore"):
        for trial in range(trials):
            q, k = (
                [rows @ w for w in init_matrices(x.dim, d_k, schemes, sub_seed)]
                for sub_seed in (mix_seed(seed, trial, _ROLE_Q), mix_seed(seed, trial, _ROLE_K))
            )
            for i in range(len(schemes)):
                s = _scores(q[i], k[i])
                total[i] += float(s.sum())
                total_sq[i] += float(np.sum(s * s))
                within[i] += int(np.count_nonzero(np.abs(s) < LOGIT_EPS))
        mean_norm_sq = np.sum(rows**2, axis=1).mean()
    count = trials * len(rows) ** 2

    reports = []
    for i, scheme in enumerate(schemes):
        var = analytic_variance(scheme, x.dim, d_k)
        analytic_std = float(np.sqrt(var * var) * mean_norm_sq)
        if not np.isfinite([total_sq[i], analytic_std]).all():
            raise ValueError(f"init scheme {scheme_label(scheme)!r}: logits overflowed at d_k={d_k}")
        mean = total[i] / count
        variance = max(total_sq[i] / count - mean**2, 0.0)
        reports.append(LogitConcentrationReport(
            scheme_label=scheme_label(scheme),
            d_k=d_k,
            with_layernorm=with_layernorm,
            empirical_mean=mean,
            empirical_std=float(np.sqrt(variance)),
            analytic_std=analytic_std,
            frac_within_eps=within[i] / count,
            trials=trials,
        ))
    return reports


@dataclass(frozen=True)
class KernelValidationReport:
    """Aggregate agreement between Monte Carlo and closed-form kernels."""

    d_k_grid: tuple[int, ...]
    mse_per_dk: tuple[float, ...]
    pearson_per_dk: tuple[float, ...]
    trials: int
    seed: int


def check_dk_grid(d_k_grid: Iterable[int], name: str = "d_k grid") -> tuple[int, ...]:
    """``d_k_grid`` as a tuple in the order given, once it is non-empty,
    repeats no value, and holds only values in [1, 2**63); a fault is named
    by ``name``."""
    return check_list(name, tuple(check_size(f"{name} values", int(v), 1) for v in d_k_grid))


def dk_sweep_detail(
    x_set: Iterable[FeatureSequence],
    scheme: InitScheme,
    d_k_grid: list[int] | tuple[int, ...],
    trials: int,
    seed: int,
) -> tuple[
    KernelValidationReport,
    list[tuple[int, int, float, float]],
    list[tuple[int, int, np.ndarray, np.ndarray]],
]:
    """Monte Carlo vs closed-form kernel agreement across a d_k grid.

    Returns ``(report, blocks, kernels)``. ``blocks`` holds one row
    ``(d_k, block_index, mse, pearson)`` per trial block, averaged over the
    sequence set. ``kernels`` holds one row
    ``(d_k, sequence_index, empirical, theory)`` per grid point ``di`` and
    sequence ``si``: the all-trials mean kernel and the closed-form kernel.
    Trial ``t`` of that point draws its projections at
    ``mix_seed(mix_seed(seed, di, si), t)``, so each mean is a pure function
    of the inputs, and the trials are summed in fixed index blocks, so it
    does not depend on evaluation order. The aggregate report scores the
    all-trials mean kernels. ``x_set`` is read only once the grid and the
    trial count pass their checks, so it may be a generator that draws.
    """
    grid = check_dk_grid(d_k_grid)
    check_size("trials", trials, 1)
    x_set = list(x_set)
    if not x_set:
        raise ValueError("sequence set must be non-empty")

    mse_per_dk: list[float] = []
    pearson_per_dk: list[float] = []
    blocks: list[tuple[int, int, float, float]] = []
    kernels: list[tuple[int, int, np.ndarray, np.ndarray]] = []
    for di, d_k in enumerate(grid):
        scores = []  # per sequence: (mse, pearson) of each block's mean, then of all trials
        for si, x in enumerate(x_set):
            var = analytic_variance(scheme, x.dim, d_k)
            try:
                theory = rapk_kernel(x, *rapk_coefficients(x, d_k, var, var, var))
            except FloatingPointError as exc:
                raise ValueError(f"init scheme {scheme_label(scheme)!r}: {exc}") from None
            means, full = _block_means(x, scheme, d_k, trials, mix_seed(seed, di, si))
            kernels.append((d_k, si, full, theory))
            scores.append([(kernel_mse(k, theory), pearson(k, theory)) for k in (*means, full)])
        # Each score is averaged over the sequences as np.mean of a 1-D list;
        # np.mean(axis=0) of a 2-D array would sum in another order.
        *per_block, (mse, r) = [[float(np.mean(v)) for v in zip(*per_seq)]
                                for per_seq in zip(*scores)]
        mse_per_dk.append(mse)
        pearson_per_dk.append(r)
        blocks += [(d_k, bi, m, p) for bi, (m, p) in enumerate(per_block)]
    report = KernelValidationReport(
        d_k_grid=grid,
        mse_per_dk=tuple(mse_per_dk),
        pearson_per_dk=tuple(pearson_per_dk),
        trials=trials,
        seed=seed,
    )
    return report, blocks, kernels


def centered_unit_sequence(t_len: int, dim: int, seed: int) -> FeatureSequence:
    """Synthetic rows that are exactly centered and exactly unit-norm.

    Pairs each random unit vector with its negation, so the mean row is zero
    to the last bit while every row keeps unit length. Requires even length.
    """
    if check_size("t_len", t_len) < 2 or t_len % 2 != 0:
        raise ValueError(f"t_len must be even and >= 2, got {t_len}")
    check_size("dim", dim, 1)
    rng = generator(seed, _ROLE_SEQ)
    half = rng.standard_normal((t_len // 2, dim))
    half /= np.linalg.norm(half, axis=1, keepdims=True)
    return FeatureSequence(np.vstack([half, -half]))
