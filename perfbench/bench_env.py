"""The environment block recorded with every benchmark result."""

from __future__ import annotations

import os
import platform
import subprocess
import time
from pathlib import Path

import numpy as np


def _blas() -> tuple[str | None, str | None]:
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without dict-mode show_config
        return None, None
    return info.get("name"), info.get("version")


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git(root: Path) -> tuple[str | None, bool | None]:
    """Commit and dirty flag, or (None, None) outside a git checkout."""
    if not (root / ".git").exists():
        return None, None
    try:
        commit = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "-C", str(root), "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return commit, bool(status.strip())


def dgemm_gflop_per_s(n: int = 1024, repeats: int = 5) -> float:
    """Best-of-``repeats`` rate of one n x n float64 matrix product."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - start)
    return 2.0 * n**3 / best / 1e9


def env_block(root: Path) -> dict:
    blas_name, blas_version = _blas()
    commit, dirty = _git(root)
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:  # not available on every platform
        affinity = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": commit,
        "git_dirty": dirty,
        "dgemm_gflop_per_s": dgemm_gflop_per_s(),
    }
