"""Experiment harness: resolved configs, evaluation pipeline, sweeps, reports.

A run is a pure function of its resolved configuration, so reports are
byte-identical across repeats. Seeds and grid points are evaluated one after
another, in the order they are given.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .attention import EncoderConfig, build_encoder_weights
from .dataio import load_dataset, number_cell, read_csv_rows
from .initializers import parse_scheme, scheme_label
from .metrics import (
    EvalReport,
    accuracy,
    lsii_pooled,
    pearson,
    per_class_f1,
    weighted_f1,
    wte_pooled,
)
from .sequences import FeatureSequence, ProbSequence, StageSequence
from .smoothers import (
    classify,
    fit_centroids,
    fixed_attention_smooth,
    majority_filter_smooth,
    moving_average_smooth,
    random_transformer_smooth,
)
from .synthgen import Subject, SynthConfig, SynthDataset, make_dataset

__all__ = [
    "SMOOTHERS",
    "SWEEP_AXES",
    "COMPONENT_BUNDLES",
    "RunConfig",
    "SweepSpec",
    "PipelineResult",
    "run_config_dict",
    "config_digest",
    "load_run_config",
    "check_section_types",
    "run_pipeline",
    "run_sweep",
    "correlation_study",
    "write_report_json",
    "append_runs_csv",
    "write_sweep_csv",
    "read_sweep_csv",
]

SMOOTHERS = ("none", "moving_average", "median", "fixed_attention", "random_transformer")

SWEEP_AXES = ("window", "d_k", "init", "heads_layers", "components")

# Named component bundles for the ablation sweep. Bundles that drop the
# output linear also drop the residual, so the attention output may keep its
# own width d_k without a shape clash.
COMPONENT_BUNDLES: dict[str, dict[str, bool]] = {
    "none": dict(
        use_attention=False, use_output_linear=False, use_ffn=False,
        use_layernorm=False, use_residual=False, use_positional=False,
    ),
    "ffn": dict(
        use_attention=False, use_output_linear=False, use_ffn=True,
        use_layernorm=False, use_residual=True, use_positional=False,
    ),
    "layernorm": dict(
        use_attention=False, use_output_linear=False, use_ffn=False,
        use_layernorm=True, use_residual=False, use_positional=False,
    ),
    "attention_no_linear": dict(
        use_attention=True, use_output_linear=False, use_ffn=False,
        use_layernorm=False, use_residual=False, use_positional=False,
    ),
    "attention": dict(
        use_attention=True, use_output_linear=True, use_ffn=False,
        use_layernorm=False, use_residual=True, use_positional=False,
    ),
    "attention_ffn": dict(
        use_attention=True, use_output_linear=True, use_ffn=True,
        use_layernorm=False, use_residual=True, use_positional=False,
    ),
    "attention_layernorm": dict(
        use_attention=True, use_output_linear=True, use_ffn=False,
        use_layernorm=True, use_residual=True, use_positional=False,
    ),
    "full": dict(
        use_attention=True, use_output_linear=True, use_ffn=True,
        use_layernorm=True, use_residual=True, use_positional=False,
    ),
}

DEFAULT_SEEDS = (111, 222, 333, 444, 555)


@dataclass(frozen=True)
class RunConfig:
    """One evaluation run: a data source, a smoother, and model settings.

    Exactly one of ``synth`` / ``dataset_path`` must be set. The encoder's
    ``window_w`` doubles as the smoothing window for every smoother;
    ``metric_window`` (defaulting to the same value) sets the LSII window.
    """

    synth: SynthConfig | None = None
    dataset_path: str | None = None
    smoother: str = "random_transformer"
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    metric_window: int | None = None
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    integer_median: bool = False

    def __post_init__(self) -> None:
        if (self.synth is None) == (self.dataset_path is None):
            raise ValueError("exactly one data source (synth or dataset_path) must be set")
        if self.smoother not in SMOOTHERS:
            raise ValueError(f"unknown smoother {self.smoother!r}; expected one of {SMOOTHERS}")
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        if self.metric_window is not None and self.metric_window < 2:
            raise ValueError(f"metric_window must be >= 2, got {self.metric_window}")

    @property
    def resolved_metric_window(self) -> int:
        return self.metric_window if self.metric_window is not None else self.encoder.window_w


def _encoder_dict(enc: EncoderConfig) -> dict:
    # The encoder seed is overridden per run seed, so it stays out of the
    # resolved config (and the digest).
    return {
        "n_heads": enc.n_heads,
        "n_layers": enc.n_layers,
        "d_k": enc.d_k,
        "use_attention": enc.use_attention,
        "use_output_linear": enc.use_output_linear,
        "use_ffn": enc.use_ffn,
        "use_layernorm": enc.use_layernorm,
        "use_residual": enc.use_residual,
        "use_positional": enc.use_positional,
        "window_w": enc.window_w,
        "init": scheme_label(enc.init),
    }


def run_config_dict(cfg: RunConfig) -> dict:
    """Resolved, JSON-ready view of a run configuration."""
    data = (
        {"synth": asdict(cfg.synth)} if cfg.synth is not None
        else {"dataset": cfg.dataset_path}
    )
    return {
        **data,
        "smoother": cfg.smoother,
        "encoder": _encoder_dict(cfg.encoder),
        "metric_window": cfg.resolved_metric_window,
        "seeds": list(cfg.seeds),
        "integer_median": cfg.integer_median,
    }


def config_digest(resolved: dict) -> str:
    """Stable short hash of a resolved configuration dict."""
    canon = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _typed(value, kind: type, key: str, none_ok: bool = False):
    # Exact types, never coerced: JSON true is an int and bool("no") is True.
    # The one exception is an int where a float is expected.
    if type(value) is kind or (none_ok and value is None) or (kind is float and type(value) is int):
        return value
    raise ValueError(f"config key {key} must be of type {kind.__name__}, got {value!r}")


def check_section_types(entry, cls: type, section: str, **kinds: type) -> dict:
    """Return config section ``entry`` after checking that it is an object and
    that each field of dataclass ``cls`` in it has the type of the field's
    default; ``kinds`` gives the JSON type of a field that is parsed first."""
    _typed(entry, dict, section)
    defaults = cls()
    for f in fields(cls):
        if f.name in entry:  # an unknown key fails when cls is built
            kind = kinds.get(f.name, type(getattr(defaults, f.name)))
            _typed(entry[f.name], kind, f"{section}.{f.name}")
    return entry


def _encoder_from_dict(entry: dict) -> EncoderConfig:
    check_section_types(entry, EncoderConfig, "encoder", init=str)
    if "seed" in entry:
        raise ValueError("encoder.seed is not a config key: each run seed in 'seeds' sets it")
    kwargs = dict(entry)
    if "init" in kwargs:
        kwargs["init"] = parse_scheme(kwargs["init"])
    try:
        return EncoderConfig(**kwargs)
    except TypeError as exc:
        raise ValueError(f"bad encoder config: {exc}") from None


def load_run_config(entry: dict) -> RunConfig:
    """Build a ``RunConfig`` from a JSON-style dict (e.g. a config file)."""
    known = {
        "synth", "dataset", "dataset_path", "smoother", "encoder",
        "metric_window", "seeds", "integer_median",
    }
    unknown = set(entry) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    synth = None
    if entry.get("synth") is not None:
        try:
            synth = SynthConfig(**check_section_types(entry["synth"], SynthConfig, "synth"))
        except TypeError as exc:
            raise ValueError(f"bad synth config: {exc}") from None
    dataset = entry.get("dataset", entry.get("dataset_path"))
    seeds = _typed(entry.get("seeds", list(DEFAULT_SEEDS)), list, "seeds")
    return RunConfig(
        synth=synth,
        dataset_path=_typed(dataset, str, "dataset", none_ok=True),
        smoother=entry.get("smoother", "random_transformer"),
        encoder=_encoder_from_dict(entry.get("encoder", {})),
        metric_window=_typed(entry.get("metric_window"), int, "metric_window", none_ok=True),
        seeds=tuple(_typed(s, int, f"seeds[{i}]") for i, s in enumerate(seeds)),
        integer_median=_typed(entry.get("integer_median", False), bool, "integer_median"),
    )


@dataclass(frozen=True)
class PipelineResult:
    """Per-seed reports plus their seed aggregate for one configuration."""

    config: dict
    digest: str
    per_seed: tuple[EvalReport, ...]
    aggregate: dict


def _concat_features(
    subjects: list[Subject], features: Callable[[Subject], FeatureSequence]
) -> FeatureSequence:
    # Filled subject by subject, so at most one subject's (possibly freshly
    # smoothed) features are alive beside the result.
    out = None
    start = 0
    for sub in subjects:
        part = features(sub).data
        if out is None:
            out = np.empty((sum(s.stages.t_len for s in subjects), part.shape[1]), part.dtype)
        out[start:start + len(part)] = part
        start += len(part)
    return FeatureSequence(out)


def _concat_labels(parts: list[StageSequence], n_classes: int) -> StageSequence:
    return StageSequence(np.concatenate([p.labels for p in parts]), n_classes)


def _load_data(cfg: RunConfig) -> SynthDataset:
    if cfg.synth is not None:
        return make_dataset(cfg.synth)
    return load_dataset(cfg.dataset_path)


def _smoothed_predictions(
    cfg: RunConfig,
    train: list[Subject],
    test: list[Subject],
    n_classes: int,
    seed: int,
    none_preds: list[StageSequence],
) -> list[StageSequence]:
    kind = cfg.smoother
    w = cfg.encoder.window_w
    if kind == "none":
        return list(none_preds)
    if kind == "moving_average":
        return [
            moving_average_smooth(_require_probs(sub, kind), w) for sub in test
        ]
    if kind == "median":
        probs = [_require_probs(sub, kind) for sub in test]
        return [
            majority_filter_smooth(
                StageSequence(np.argmax(p.probs, axis=1), p.n_classes), w, cfg.integer_median
            )
            for p in probs
        ]
    if kind == "fixed_attention":
        smooth = lambda sub: fixed_attention_smooth(sub.features, w)  # noqa: E731
    elif kind == "random_transformer":
        enc = replace(cfg.encoder, seed=seed)
        weights = build_encoder_weights(enc, train[0].features.dim)
        smooth = lambda sub: random_transformer_smooth(sub.features, enc, weights)  # noqa: E731
    else:  # pragma: no cover - guarded by RunConfig validation
        raise ValueError(f"unknown smoother {kind!r}")
    # The classifier head is fitted on training features passed through the
    # same smoother, mirroring a head trained on the frozen model's outputs.
    train_feats = _concat_features(train, smooth)
    train_labels = _concat_labels([sub.stages for sub in train], n_classes)
    clf = fit_centroids(train_feats, train_labels, n_classes)
    return [classify(smooth(sub), clf) for sub in test]


def _require_probs(sub: Subject, smoother: str) -> ProbSequence:
    if sub.probs is None:
        raise ValueError(
            f"smoother {smoother!r} needs per-epoch probabilities, "
            f"but {sub.subject_id} has none"
        )
    return sub.probs


def run_pipeline(cfg: RunConfig) -> PipelineResult:
    """Evaluate one configuration across its seeds, in the order given.

    Per seed: smooth the test subjects, fit/apply the head where the
    smoother works in feature space, and score accuracy, weighted F1,
    transition entropy of the predictions, and LSII against the unsmoothed
    baseline predictions. Metrics pool across test subjects without crossing
    subject boundaries.
    """
    return _evaluate(cfg, _load_data(cfg))


def _evaluate(cfg: RunConfig, dataset: SynthDataset) -> PipelineResult:
    n_classes = dataset.n_classes
    train = dataset.split("train")
    test = dataset.split("test")
    if not train or not test:
        raise ValueError("dataset needs non-empty train and test splits")

    base_clf = fit_centroids(
        _concat_features(train, lambda sub: sub.features),
        _concat_labels([sub.stages for sub in train], n_classes),
        n_classes,
    )
    none_preds = [classify(sub.features, base_clf) for sub in test]
    truth = [sub.stages for sub in test]
    truth_all = _concat_labels(truth, n_classes)
    resolved = run_config_dict(cfg)
    digest = config_digest(resolved)
    metric_w = cfg.resolved_metric_window

    def eval_seed(seed: int) -> EvalReport:
        preds = _smoothed_predictions(cfg, train, test, n_classes, seed, none_preds)
        preds_all = _concat_labels(preds, n_classes)
        return EvalReport(
            accuracy=accuracy(preds_all, truth_all),
            weighted_f1=weighted_f1(preds_all, truth_all, n_classes),
            wte=wte_pooled(preds),
            lsii=lsii_pooled(none_preds, preds, metric_w),
            per_class_f1=tuple(float(v) for v in per_class_f1(preds_all, truth_all, n_classes)),
            config_digest=digest,
            seed=seed,
        )

    reports = [eval_seed(seed) for seed in cfg.seeds]
    return PipelineResult(
        config=resolved,
        digest=digest,
        per_seed=tuple(reports),
        aggregate=_aggregate(reports),
    )


def _aggregate(reports: list[EvalReport]) -> dict:
    def mean_std(values: list[float]) -> tuple[float, float]:
        arr = np.asarray(values, dtype=np.float64)
        return float(arr.mean()), float(arr.std())  # population std

    out: dict = {"n_seeds": len(reports)}
    for name in ("accuracy", "weighted_f1", "wte"):
        m, s = mean_std([getattr(r, name) for r in reports])
        out[f"mean_{name}"] = m
        out[f"std_{name}"] = s
    lsii_vals = [r.lsii for r in reports if r.lsii is not None]
    if lsii_vals:
        m, s = mean_std(lsii_vals)
        out["mean_lsii"] = m
        out["std_lsii"] = s
    else:
        out["mean_lsii"] = None
        out["std_lsii"] = None
    return out


@dataclass(frozen=True)
class SweepSpec:
    """A one-axis grid sweep around a base configuration."""

    axis: str
    grid: tuple
    base: RunConfig

    def __post_init__(self) -> None:
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"unknown sweep axis {self.axis!r}; expected one of {SWEEP_AXES}")
        if not self.grid:
            raise ValueError("sweep grid must be non-empty")


def _parse_heads_layers(value) -> tuple[int, int]:
    if isinstance(value, (tuple, list)) and len(value) == 2:
        return int(value[0]), int(value[1])
    text = str(value)
    parts = text.split("x")
    if len(parts) != 2:
        raise ValueError(f"heads_layers value must look like '1x8', got {value!r}")
    return int(parts[0]), int(parts[1])


def apply_axis(base: RunConfig, axis: str, value) -> RunConfig:
    """Specialize ``base`` to one grid point of ``axis``."""
    if axis == "window":
        w = int(value)
        return replace(base, encoder=replace(base.encoder, window_w=w), metric_window=w)
    if axis == "d_k":
        return replace(base, encoder=replace(base.encoder, d_k=int(value)))
    if axis == "init":
        scheme = value if not isinstance(value, str) else parse_scheme(value)
        return replace(base, encoder=replace(base.encoder, init=scheme))
    if axis == "heads_layers":
        layers, heads = _parse_heads_layers(value)
        return replace(base, encoder=replace(base.encoder, n_layers=layers, n_heads=heads))
    if axis == "components":
        name = str(value)
        if name not in COMPONENT_BUNDLES:
            raise ValueError(
                f"unknown component bundle {name!r}; expected one of {sorted(COMPONENT_BUNDLES)}"
            )
        return replace(base, encoder=replace(base.encoder, **COMPONENT_BUNDLES[name]))
    raise ValueError(f"unknown sweep axis {axis!r}")


def _value_sort_key(value):
    try:
        return (0, float(value), "")
    except (TypeError, ValueError):
        return (1, 0.0, str(value))


def _seed_sort_key(seed):
    if isinstance(seed, int):
        return (0, seed)
    return (1, 0) if seed == "mean" else (1, 1)


def run_sweep(spec: SweepSpec) -> list[dict]:
    """Evaluate every grid point in turn and return flat result rows.

    One row per (grid value, seed), plus ``mean`` and ``std`` aggregate rows
    per grid value; rows are sorted by (axis value, seed).
    """
    # Every grid point is specialized before any runs, so a bad value fails fast.
    configs = [(value, apply_axis(spec.base, spec.axis, value)) for value in spec.grid]
    # No axis changes the data source, so every grid point shares one load.
    dataset = _load_data(spec.base)
    rows: list[dict] = []
    for value, cfg in configs:
        result = _evaluate(cfg, dataset)
        for report in result.per_seed:
            rows.append(
                {
                    "axis": spec.axis,
                    "value": value,
                    "seed": report.seed,
                    "accuracy": report.accuracy,
                    "weighted_f1": report.weighted_f1,
                    "wte": report.wte,
                    "lsii": report.lsii,
                }
            )
        agg = result.aggregate
        for tag in ("mean", "std"):
            rows.append(
                {
                    "axis": spec.axis,
                    "value": value,
                    "seed": tag,
                    "accuracy": agg[f"{tag}_accuracy"],
                    "weighted_f1": agg[f"{tag}_weighted_f1"],
                    "wte": agg[f"{tag}_wte"],
                    "lsii": agg[f"{tag}_lsii"],
                }
            )
    rows.sort(key=lambda r: (_value_sort_key(r["value"]), _seed_sort_key(r["seed"])))
    return rows


def correlation_study(rows: list[dict]) -> tuple[float, float]:
    """Pearson correlations (LSII vs accuracy, WTE vs accuracy) over per-seed rows.

    Aggregate rows and rows without an LSII value are skipped; at least 3
    usable rows are required.
    """
    usable = [
        r for r in rows
        if isinstance(r["seed"], (int, np.integer)) and r["lsii"] is not None
    ]
    if len(usable) < 3:
        raise ValueError(f"need at least 3 per-seed rows with LSII, got {len(usable)}")
    acc = [r["accuracy"] for r in usable]
    return pearson([r["lsii"] for r in usable], acc), pearson([r["wte"] for r in usable], acc)


# ---------------------------------------------------------------------------
# Serialization

def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def write_report_json(result: PipelineResult, path: str | Path) -> None:
    payload = {
        "config": result.config,
        "config_digest": result.digest,
        "per_seed": [r.to_dict() for r in result.per_seed],
        "aggregate": result.aggregate,
    }
    text = json.dumps(payload, indent=2, sort_keys=True, default=_json_default)
    Path(path).write_text(text + "\n")


_RUNS_HEADER = [
    "config_digest", "seed", "smoother", "window_w", "d_k", "init",
    "accuracy", "weighted_f1", "wte", "lsii",
]


def append_runs_csv(result: PipelineResult, path: str | Path) -> None:
    """Append one row per seed to a cumulative runs CSV."""
    target = Path(path)
    fresh = not target.exists()
    enc = result.config["encoder"]
    with target.open("a", newline="") as fh:
        writer = csv.writer(fh)
        if fresh:
            writer.writerow(_RUNS_HEADER)
        for report in result.per_seed:
            writer.writerow(
                [
                    result.digest,
                    report.seed,
                    result.config["smoother"],
                    enc["window_w"],
                    enc["d_k"],
                    enc["init"],
                    repr(report.accuracy),
                    repr(report.weighted_f1),
                    repr(report.wte),
                    "" if report.lsii is None else repr(report.lsii),
                ]
            )


_SWEEP_HEADER = ["axis", "value", "seed", "accuracy", "weighted_f1", "wte", "lsii"]


def write_sweep_csv(rows: list[dict], path: str | Path) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_SWEEP_HEADER)
        for r in rows:
            writer.writerow(
                [
                    r["axis"],
                    r["value"],
                    r["seed"],
                    repr(float(r["accuracy"])),
                    repr(float(r["weighted_f1"])),
                    repr(float(r["wte"])),
                    "" if r["lsii"] is None else repr(float(r["lsii"])),
                ]
            )


def _sweep_row(row: list[str]) -> dict:
    axis, value, seed, acc, wf1, wte_v, lsii_v = row
    return {
        "axis": axis,
        "value": value,
        "seed": seed if seed in ("mean", "std") else number_cell(seed, int),
        "accuracy": number_cell(acc),
        "weighted_f1": number_cell(wf1),
        "wte": number_cell(wte_v),
        "lsii": None if lsii_v == "" else number_cell(lsii_v),
    }


def read_sweep_csv(path: str | Path) -> list[dict]:
    """Parse a sweep CSV back into rows (lossless for repr-formatted floats)."""
    return read_csv_rows(path, _SWEEP_HEADER, _sweep_row)
