"""Oracles for the benchmark's output checks.

Each oracle recomputes a published output from first principles with numpy
and the standard library, without calling the rapklab code that the timed
pass exercises, so a faster implementation cannot agree with itself.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

LAYERNORM_EPS = 1e-5


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def digest_tree(root) -> dict[str, str]:
    """sha256 of every file under ``root``, keyed by relative path."""
    base = Path(root)
    return {
        str(p.relative_to(base)): sha256_file(p)
        for p in sorted(base.rglob("*")) if p.is_file()
    }


def parse_csv_table(path) -> tuple[list[str], np.ndarray]:
    """Header and float64 body of a comma-separated table, parsed cell by cell."""
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    body = np.array([[float(cell) for cell in line.split(",")] for line in lines[1:]])
    return header, body.reshape(len(lines) - 1, len(header))


def bit_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and identical float64 bit patterns."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.array_equal(a.view(np.uint64), b.view(np.uint64)))


# ---------------------------------------------------------------------------
# Median smoother (modal label over a centered window)


def mode_filter(labels: np.ndarray, w: int, n_classes: int) -> np.ndarray:
    """Modal label over [t - w//2, t + w//2] (clipped); ties keep the center
    label when it is modal, else take the smallest modal label."""
    t_len = labels.size
    half = w // 2
    idx = np.arange(t_len)
    lo = np.maximum(idx - half, 0)
    hi = np.minimum(idx + half + 1, t_len)
    onehot = np.zeros((t_len + 1, n_classes), dtype=np.int64)
    onehot[idx + 1, labels] = 1
    cum = np.cumsum(onehot, axis=0)
    counts = cum[hi] - cum[lo]
    top = counts.max(axis=1)
    keep = counts[idx, labels] == top
    return np.where(keep, labels, np.argmax(counts, axis=1))


# ---------------------------------------------------------------------------
# Closed-form attention kernel C0 11^T + C1 X X^T


def closed_form_kernel(x: np.ndarray, d_k: int, var: float) -> np.ndarray:
    """E[O O^T] to first order for i.i.d. projections of element variance ``var``."""
    t = x.shape[0]
    total = x.sum(axis=0)
    c0 = d_k * var * float(total @ total) / t**2
    gram = x @ x.T
    centered = x - x.mean(axis=0)
    c1 = d_k * var**3 * float(np.sum((centered @ centered.T) * gram)) / t**2
    return c0 + c1 * gram


def pearson(a: np.ndarray, b: np.ndarray) -> float:
    a = np.ravel(a) - np.mean(a)
    b = np.ravel(b) - np.mean(b)
    return float(a @ b / math.sqrt(float(a @ a) * float(b @ b)))


# ---------------------------------------------------------------------------
# Analytic logit spread sigma_Q^2 sigma_K^2 mean ||x||^2 (sigma_Q = sigma_K)


def _trunc2_factor() -> float:
    phi = math.exp(-2.0) / math.sqrt(2.0 * math.pi)
    cdf = 0.5 * (1.0 + math.erf(2.0 / math.sqrt(2.0)))
    return 1.0 - 4.0 * phi / (2.0 * cdf - 1.0)


def scheme_variance(label: str, rows: int, cols: int) -> float:
    """Element variance of a (rows, cols) draw under a CLI scheme label."""
    if label in ("xavier_uniform", "xavier_normal"):
        return 2.0 / (rows + cols)
    if label in ("kaiming_uniform_relu", "kaiming_normal_relu"):
        return 2.0 / rows
    if label == "orthogonal":
        return 1.0 / max(rows, cols)
    if label.startswith("trunc_normal_"):
        return float(label[len("trunc_normal_"):]) ** 2 * _trunc2_factor()
    if label.startswith("normal_"):
        return float(label[len("normal_"):]) ** 2
    if label.startswith("uniform_"):
        return float(label[len("uniform_"):]) ** 2 / 3.0
    raise ValueError(f"no oracle variance for scheme {label!r}")


def layer_norm(x: np.ndarray) -> np.ndarray:
    mean = x.mean(axis=1, keepdims=True)
    return (x - mean) / np.sqrt(x.var(axis=1, keepdims=True) + LAYERNORM_EPS)


def analytic_logit_std(x: np.ndarray, label: str, d_k: int) -> float:
    var = scheme_variance(label, x.shape[1], d_k)
    return var * float(np.mean(np.sum(x * x, axis=1)))
