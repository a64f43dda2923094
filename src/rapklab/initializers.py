"""Seeded construction of random projection matrices.

Eight initialization schemes: the fan-based Xavier/Kaiming rules in uniform
and normal flavours, orthogonal factors (gain 1), and explicitly scaled
uniform / normal / truncated-normal draws. Every draw is a pure function of
(rows, cols, scheme, seed), so identical inputs give bit-identical matrices.
At one seed every scheme transforms the same uniform or standard normal
stream, so ``init_matrices`` builds many schemes from one draw of each.

The Kaiming rules use fan-in with the ReLU gain sqrt(2); the truncated
normal resamples out-of-range entries at +/- 2 sigma, so its realized
variance is below sigma^2 (see ``analytic_variance``).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .seeding import MAX_SCALE, check_seed, check_size, mix_seed

__all__ = [
    "SCHEME_KINDS",
    "InitScheme",
    "init_matrix",
    "init_matrices",
    "analytic_variance",
    "make_projection_set",
    "parse_scheme",
    "scheme_label",
]

# Kinds whose scale_param is the scheme's single free parameter. A scaled
# kind's label is the kind, an underscore and its scale_param (``uniform_0.1``).
_SCALED_KINDS = frozenset({"uniform", "normal", "trunc_normal"})

SCHEME_KINDS = _SCALED_KINDS | {
    "xavier_uniform", "xavier_normal", "kaiming_uniform_relu", "kaiming_normal_relu", "orthogonal",
}

# Kinds drawn from the uniform stream; the others transform standard normals.
_UNIFORM_KINDS = frozenset({"xavier_uniform", "kaiming_uniform_relu", "uniform"})

# Variance shrink factor of a normal truncated at +/- 2 sigma:
# 1 - 2*alpha*phi(alpha) / (2*Phi(alpha) - 1) with alpha = 2.
_PHI2 = math.exp(-2.0) / math.sqrt(2.0 * math.pi)
_CDF2 = 0.5 * (1.0 + math.erf(2.0 / math.sqrt(2.0)))
TRUNC2_VAR_FACTOR = 1.0 - (2.0 * 2.0 * _PHI2) / (2.0 * _CDF2 - 1.0)


@dataclass(frozen=True)
class InitScheme:
    """An initialization rule: a kind plus an optional scale parameter.

    ``scale_param`` is the half-width for ``uniform`` and the target
    standard deviation for ``normal`` / ``trunc_normal``, in (0, 1e154) so
    that its variance is finite; the fan-based and orthogonal kinds have
    none, so it must stay 0 for them.
    """

    kind: str
    scale_param: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in SCHEME_KINDS:
            raise ValueError(
                f"unknown scheme kind {self.kind!r}; expected one of {sorted(SCHEME_KINDS)}"
            )
        if self.kind in _SCALED_KINDS and not self.scale_param > 0.0:
            raise ValueError(f"{self.kind} requires scale_param > 0, got {self.scale_param}")
        if self.kind in _SCALED_KINDS and not self.scale_param < MAX_SCALE:
            raise ValueError(
                f"{self.kind} requires scale_param < {MAX_SCALE:g} so that its variance "
                f"is finite, got {self.scale_param}"
            )
        if self.kind not in _SCALED_KINDS and self.scale_param != 0.0:
            raise ValueError(f"{self.kind} takes no scale_param, got {self.scale_param}")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(check_seed(seed)))


def _orthogonal(rows: int, cols: int, z: np.ndarray) -> np.ndarray:
    # QR of the (rows, cols) standard normal draw ``z``, sign-fixed on diag(R)
    # so the factor is Haar and deterministic. ``z`` is filled row-major, so
    # its reshape is the (n, m) draw. A Gaussian draw is degenerate with
    # probability zero.
    n, m = (rows, cols) if rows >= cols else (cols, rows)
    q, r = np.linalg.qr(z.reshape(n, m))
    diag = np.diag(r)
    if np.min(np.abs(diag)) <= 1e-12 * math.sqrt(n):
        raise RuntimeError(
            f"orthogonal initialization failed for shape ({rows}, {cols})"
        )
    q = q * np.sign(diag)[np.newaxis, :]
    return q if rows >= cols else q.T


def _scale(scheme: InitScheme, rows: int, cols: int) -> float:
    # Half-width of a uniform kind, standard deviation of a normal kind.
    kind = scheme.kind
    if kind in _SCALED_KINDS:
        return scheme.scale_param
    if kind == "xavier_uniform":
        return math.sqrt(6.0 / (rows + cols))
    if kind == "xavier_normal":
        return math.sqrt(2.0 / (rows + cols))
    if kind == "kaiming_uniform_relu":
        # gain^2 = 2 (ReLU), fan-in = rows: bound sqrt(3 * 2 / rows).
        return math.sqrt(6.0 / rows)
    if kind == "kaiming_normal_relu":
        return math.sqrt(2.0 / rows)
    raise AssertionError(f"unhandled scheme kind {kind!r}")


def _normal(sd: float, z: np.ndarray) -> np.ndarray:
    # numpy's normal(loc, scale) is loc + scale * z; here loc = 0.0, and the
    # sum keeps its rounding of -0.0 to 0.0.
    return 0.0 + sd * z


def _trunc_normal(sd: float, z: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    # Resample entries outside +/- 2 sigma from ``rng``; draw order is fixed,
    # so the result is deterministic. Each round redraws the entries still
    # out of range, in row-major order, and rechecks only those.
    out = _normal(sd, z)
    flat = out.reshape(-1)  # a view: ``out`` is a fresh C-ordered array
    bad = np.flatnonzero(np.abs(flat) > 2.0 * sd)
    while bad.size:
        flat[bad] = _normal(sd, rng.standard_normal(bad.size))
        bad = bad[np.abs(flat[bad]) > 2.0 * sd]
    return out


def init_matrices(
    rows: int, cols: int, schemes: Iterable[InitScheme], seed: int
) -> Iterator[np.ndarray]:
    """Yield ``init_matrix(rows, cols, s, seed)`` for each scheme ``s`` in turn.

    Every scheme transforms one of two base streams of ``seed``, each drawn
    at most once per call: the uniform doubles ``u`` and the standard normals
    ``z``, both of shape (rows, cols). The transforms are numpy's own
    (``uniform(low, high)`` is ``low + (high - low) * u``, ``normal(0, sd)``
    is ``0.0 + sd * z``), so each matrix is bit for bit numpy's direct draw
    at ``seed``. A truncated normal resamples from the generator state right
    after ``z``, restored for each truncated scheme.
    """
    check_size("rows", rows, 1)
    check_size("cols", cols, 1)
    u = z = None
    for scheme in schemes:
        kind = scheme.kind
        if kind in _UNIFORM_KINDS:
            if u is None:
                u = _rng(seed).random((rows, cols))
            high = _scale(scheme, rows, cols)
            low = -high
            yield low + (high - low) * u
            continue
        if z is None:
            rng = _rng(seed)
            z = rng.standard_normal((rows, cols))
            after_z = rng.bit_generator.state
        if kind == "orthogonal":
            yield _orthogonal(rows, cols, z)
        elif kind == "trunc_normal":
            rng.bit_generator.state = after_z
            yield _trunc_normal(scheme.scale_param, z, rng)
        else:
            yield _normal(_scale(scheme, rows, cols), z)


def init_matrix(rows: int, cols: int, scheme: InitScheme, seed: int) -> np.ndarray:
    """Draw a (rows, cols) float64 matrix under ``scheme``.

    Pure function of its inputs: identical (rows, cols, scheme, seed) yields
    bit-identical output.
    """
    return next(init_matrices(rows, cols, (scheme,), seed))


def analytic_variance(scheme: InitScheme, rows: int, cols: int) -> float:
    """Element variance implied by ``scheme`` at shape (rows, cols)."""
    check_size("rows", rows, 1)
    check_size("cols", cols, 1)
    kind = scheme.kind
    if kind in ("xavier_uniform", "xavier_normal"):
        return 2.0 / (rows + cols)
    if kind in ("kaiming_uniform_relu", "kaiming_normal_relu"):
        return 2.0 / rows
    if kind == "orthogonal":
        # Orthonormal columns (or rows): each unit vector spreads its norm
        # over max(rows, cols) entries.
        return 1.0 / max(rows, cols)
    if kind == "uniform":
        return scheme.scale_param**2 / 3.0
    if kind == "normal":
        return scheme.scale_param**2
    if kind == "trunc_normal":
        return scheme.scale_param**2 * TRUNC2_VAR_FACTOR
    raise AssertionError(f"unhandled scheme kind {kind!r}")


def make_projection_set(
    d: int, d_k: int, scheme: InitScheme, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One head's ``(w_q, w_k, w_v)``, each d x d_k, drawn from decorrelated
    sub-seeds of ``seed``."""
    return tuple(init_matrix(d, d_k, scheme, mix_seed(seed, role)) for role in range(3))


def parse_scheme(label: str) -> InitScheme:
    """Parse a CLI scheme label into an ``InitScheme``.

    Accepted labels: ``xavier_uniform``, ``xavier_normal``,
    ``kaiming_uniform_relu`` (or ``kaiming_uniform``), ``kaiming_normal_relu``
    (or ``kaiming_normal``), ``orthogonal``, and the parameterized forms
    ``uniform_<a>``, ``normal_<sigma>``, ``trunc_normal_<sigma>`` where the
    numeric suffix populates ``scale_param`` (e.g. ``uniform_0.1``,
    ``normal_0.02``, ``trunc_normal_0.02``).
    """
    text = label.strip()
    if text in ("kaiming_uniform", "kaiming_normal"):
        text += "_relu"
    if text in SCHEME_KINDS - _SCALED_KINDS:
        return InitScheme(text)
    for kind in _SCALED_KINDS:
        if text.startswith(kind + "_"):
            try:
                value = float(text[len(kind) + 1:])
            except ValueError:
                raise ValueError(f"bad numeric suffix in scheme label {label!r}") from None
            try:
                return InitScheme(kind, value)
            except ValueError as exc:
                raise ValueError(f"init scheme {label!r}: {exc}") from None
    raise ValueError(f"unknown init scheme label {label!r}")


def scheme_label(scheme: InitScheme) -> str:
    """Canonical CLI label for ``scheme`` (inverse of ``parse_scheme``), with
    a scale in ``:g``'s six digits where they are exact, else in ``repr``'s."""
    scale = f"{scheme.scale_param:g}"
    if float(scale) != scheme.scale_param:
        scale = repr(scheme.scale_param)
    return f"{scheme.kind}_{scale}" if scheme.kind in _SCALED_KINDS else scheme.kind
