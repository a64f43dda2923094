"""Experiment harness: resolved configs, evaluation pipeline, sweeps, reports.

A run is a pure function of its resolved configuration, so reports are
byte-identical across repeats. Every run streams its subjects: one pass over
the train split, then one over the test split, with every seed (and every
grid point that shares encoder weights) handled inside each pass.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections.abc import Callable, Iterable, Sequence
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from .attention import EncoderConfig, build_encoder_weights
from .dataio import DatasetError, float_cell, number_cell, open_dataset, read_csv_rows
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
from .seeding import check_seed, check_size
from .sequences import StageSequence
from .smoothers import (
    CentroidSums,
    classify,
    fixed_attention_smooth,
    majority_filter_smooth,
    moving_average_smooth,
    random_transformer_smooth,
)
from .synthgen import Subject, SynthConfig, iter_subjects

__all__ = [
    "SMOOTHERS",
    "SWEEP_AXES",
    "COMPONENT_BUNDLES",
    "RunConfig",
    "PipelineResult",
    "run_config_dict",
    "config_digest",
    "load_run_config",
    "check_config_keys",
    "config_section",
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

_USE_FLAGS = tuple(f.name for f in fields(EncoderConfig) if f.name.startswith("use_"))


def _bundle(*on: str) -> dict[str, bool]:
    # Every use_* flag of EncoderConfig, true exactly for the components named.
    if not {f"use_{name}" for name in on} <= set(_USE_FLAGS):
        raise ValueError(f"unknown encoder component in {on}")
    return {flag: flag.removeprefix("use_") in on for flag in _USE_FLAGS}


# Named component bundles for the ablation sweep. Bundles that drop the
# output linear also drop the residual, so the attention output may keep its
# own width d_k without a shape clash.
COMPONENT_BUNDLES: dict[str, dict[str, bool]] = {
    "none": _bundle(),
    "ffn": _bundle("ffn", "residual"),
    "layernorm": _bundle("layernorm"),
    "attention_no_linear": _bundle("attention"),
    "attention": _bundle("attention", "output_linear", "residual"),
    "attention_ffn": _bundle("attention", "output_linear", "ffn", "residual"),
    "attention_layernorm": _bundle("attention", "output_linear", "layernorm", "residual"),
    "full": _bundle("attention", "output_linear", "ffn", "layernorm", "residual"),
}

DEFAULT_SEEDS = (111, 222, 333, 444, 555)

# The EvalReport scores that are aggregated over seeds and written as columns.
_SCORES = ("accuracy", "weighted_f1", "wte", "lsii")


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
        for i, seed in enumerate(self.seeds):
            check_seed(seed)
            if seed in self.seeds[:i]:
                raise ValueError(f"seeds repeat {seed}")
        check_size("metric_window", self.resolved_metric_window, 2)  # unset, it is the window
        if self.integer_median and self.smoother != "median":
            raise ValueError("integer_median applies only to the median smoother, "
                             f"got smoother {self.smoother!r}")

    @property
    def resolved_metric_window(self) -> int:
        return self.metric_window if self.metric_window is not None else self.encoder.window_w


def _encoder_dict(enc: EncoderConfig) -> dict:
    # The encoder seed is overridden per run seed, so it stays out of the
    # resolved config (and the digest).
    out = {f.name: getattr(enc, f.name) for f in fields(enc) if f.name != "seed"}
    return {**out, "init": scheme_label(enc.init)}


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


def config_section(cls: type, entry, section: str, overrides: dict | None = None,
                   **parsers: Callable[[str], object]):
    """Build dataclass ``cls`` from config section ``entry``, then ``overrides``,
    once ``entry`` is an object whose fields have the types of their defaults
    in ``cls``, or are strings that ``parsers`` turn into field values.
    Whatever ``cls`` rejects, an unknown key included, is a ``ValueError``."""
    _typed(entry, dict, section)
    defaults, kwargs = cls(), dict(entry)
    for f in fields(cls):
        if f.name in entry:  # an unknown key fails when cls is built
            parse = parsers.get(f.name)
            kind = str if parse else type(getattr(defaults, f.name))
            value = _typed(entry[f.name], kind, f"{section}.{f.name}")
            kwargs[f.name] = parse(value) if parse else value
    try:
        return cls(**{**kwargs, **(overrides or {})})
    except TypeError as exc:
        raise ValueError(f"bad {section} config: {exc}") from None


_RUN_CONFIG_KEYS = frozenset({
    "synth", "dataset", "smoother", "encoder",
    "metric_window", "seeds", "integer_median",
})


def check_config_keys(entry: dict) -> dict:
    """Return run config ``entry`` after checking that every top-level key is known."""
    unknown = set(entry) - _RUN_CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return entry


def load_run_config(entry: dict) -> RunConfig:
    """Build a ``RunConfig`` from a JSON-style dict (e.g. a config file)."""
    check_config_keys(entry)
    synth = None
    if entry.get("synth") is not None:
        synth = config_section(SynthConfig, entry["synth"], "synth")
    encoder = config_section(EncoderConfig, entry.get("encoder", {}), "encoder", init=parse_scheme)
    if "seed" in entry.get("encoder", {}):
        raise ValueError("encoder.seed is not a config key: each run seed in 'seeds' sets it")
    seeds = _typed(entry.get("seeds", list(DEFAULT_SEEDS)), list, "seeds")
    return RunConfig(
        synth=synth,
        dataset_path=_typed(entry.get("dataset"), str, "dataset", none_ok=True),
        smoother=entry.get("smoother", "random_transformer"),
        encoder=encoder,
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


def _concat_labels(parts: list[StageSequence], n_classes: int) -> StageSequence:
    return StageSequence(np.concatenate([p.labels for p in parts]), n_classes)


def _open_data(cfg: RunConfig) -> tuple[int, int, Callable[[str], Iterable[Subject]]]:
    """The run's label space, feature width, and a source of each split's
    subjects that makes or reads each subject only when it is reached."""
    if cfg.synth is not None:  # its splits are never empty
        return cfg.synth.n_classes, cfg.synth.feat_dim, partial(iter_subjects, cfg.synth)
    data = open_dataset(cfg.dataset_path)
    if not {"train", "test"} <= {entry["split"] for entry in data.entries}:
        raise DatasetError(f"{cfg.dataset_path}: dataset needs non-empty train and test splits")
    return data.n_classes, data.feat_dim, data.iter_subjects


def _feature_smoothers(cfg: RunConfig, weights: list) -> list[Callable]:
    """The feature-space smoother of each distinct smoothed head: one per run
    seed for the random transformer, with that seed's ``weights``; one for the
    seed-free window mean; none for the label-space smoothers."""
    if cfg.smoother == "fixed_attention":
        return [partial(fixed_attention_smooth, w=cfg.encoder.window_w)]
    if cfg.smoother != "random_transformer":
        return []
    return [
        partial(random_transformer_smooth, cfg=replace(cfg.encoder, seed=seed), weights=w)
        for seed, w in zip(cfg.seeds, weights)
    ]


def _label_smoothed(cfg: RunConfig, sub: Subject, none_pred: StageSequence) -> StageSequence:
    # The prediction of a smoother that works on labels or probabilities.
    w = cfg.encoder.window_w
    if cfg.smoother == "none":
        return none_pred
    if sub.probs is None:  # a synthetic subject always has them
        raise DatasetError(
            f"{cfg.dataset_path}: smoother {cfg.smoother!r} needs per-epoch probabilities, "
            f"but {sub.subject_id} has none"
        )
    if cfg.smoother == "moving_average":
        return moving_average_smooth(sub.probs, w)
    labels = StageSequence(np.argmax(sub.probs.probs, axis=1), sub.probs.n_classes)
    return majority_filter_smooth(labels, w, cfg.integer_median)


def run_pipeline(cfg: RunConfig) -> PipelineResult:
    """Evaluate one configuration across its seeds, in the order given.

    Per seed: smooth the test subjects, fit/apply the head where the
    smoother works in feature space, and score accuracy, weighted F1,
    transition entropy of the predictions, and LSII against the unsmoothed
    baseline predictions. Metrics pool across test subjects without crossing
    subject boundaries. Subjects are made or read one at a time, and only
    those of the train and test splits.
    """
    return _evaluate([cfg], *_open_data(cfg))[0]


def _evaluate(cfgs: list[RunConfig], n_classes: int, feat_dim: int,
              subjects: Callable[[str], Iterable[Subject]]) -> list[PipelineResult]:
    """One pass over ``subjects("train")``, then one over ``subjects("test")``,
    for every config and seed at once, so the run holds one subject at a time.
    The configs share their encoder weights, their seeds and one base head."""
    lead = cfgs[0]
    weights = [] if lead.smoother != "random_transformer" else [
        build_encoder_weights(replace(lead.encoder, seed=seed), feat_dim) for seed in lead.seeds
    ]
    smoothers = [_feature_smoothers(cfg, weights) for cfg in cfgs]
    # Per config, one prediction list per smoothed head, or one for a
    # label-space smoother; a seed-free smoother's list serves every seed.
    preds = [[[] for _ in range(max(len(row), 1))] for row in smoothers]
    # The base head sees raw features; each smoothed head sees its smoother's
    # outputs, mirroring a head trained on the frozen model's outputs.
    base = CentroidSums(n_classes)
    heads = [(smooth, CentroidSums(n_classes), out)
             for row, outs in zip(smoothers, preds) for smooth, out in zip(row, outs)]
    labelled = [(cfg, outs[0]) for cfg, row, outs in zip(cfgs, smoothers, preds) if not row]
    for sub in subjects("train"):
        base.add(sub.features, sub.stages)
        for smooth, head, _ in heads:
            head.add(smooth(sub.features), sub.stages)
        del sub  # free this subject before the next one is made or read
    try:  # every head sees the same labels, so the base head fails first
        base_centroids = base.classifier()
    except ValueError as exc:  # a class no train subject holds
        if lead.dataset_path is None:  # a config value of a synthetic cohort
            raise
        raise DatasetError(f"{lead.dataset_path}: {exc}") from None
    fitted = [(smooth, head.classifier(), out) for smooth, head, out in heads]

    truth: list[StageSequence] = []
    none_preds: list[StageSequence] = []
    for sub in subjects("test"):
        truth.append(sub.stages)
        none_preds.append(classify(sub.features, base_centroids))
        for smooth, centroids, out in fitted:
            out.append(classify(smooth(sub.features), centroids))
        for cfg, out in labelled:
            out.append(_label_smoothed(cfg, sub, none_preds[-1]))
        del sub
    truth_all = _concat_labels(truth, n_classes)
    return [_score(cfg, n_classes, truth_all, none_preds, outs) for cfg, outs in zip(cfgs, preds)]


def _score(cfg: RunConfig, n_classes: int, truth_all: StageSequence,
           none_preds: list[StageSequence], preds: list[list[StageSequence]]) -> PipelineResult:
    # The result of one config from its per-seed (or seed-free) predictions.
    if len(preds) == 1:
        preds = preds * len(cfg.seeds)
    resolved = run_config_dict(cfg)
    digest = config_digest(resolved)
    metric_w = cfg.resolved_metric_window

    def score(seed: int, seed_preds: list[StageSequence]) -> EvalReport:
        preds_all = _concat_labels(seed_preds, n_classes)
        return EvalReport(
            accuracy=accuracy(preds_all, truth_all),
            weighted_f1=weighted_f1(preds_all, truth_all, n_classes),
            wte=wte_pooled(seed_preds),
            lsii=lsii_pooled(none_preds, seed_preds, metric_w),
            per_class_f1=tuple(float(v) for v in per_class_f1(preds_all, truth_all, n_classes)),
            config_digest=digest,
            seed=seed,
        )

    reports = [score(seed, seed_preds) for seed, seed_preds in zip(cfg.seeds, preds)]
    return PipelineResult(
        config=resolved,
        digest=digest,
        per_seed=tuple(reports),
        aggregate=_aggregate(reports),
    )


def _aggregate(reports: list[EvalReport]) -> dict:
    # Mean and population std over the seeds that have a value; None when no
    # seed has one, as for the LSII of the identity smoother.
    out: dict = {"n_seeds": len(reports)}
    for name in _SCORES:
        values = [getattr(r, name) for r in reports]
        arr = np.asarray([v for v in values if v is not None], dtype=np.float64)
        out[f"mean_{name}"] = float(arr.mean()) if arr.size else None
        out[f"std_{name}"] = float(arr.std()) if arr.size else None
    return out


def apply_axis(base: RunConfig, axis: str, value) -> tuple[object, RunConfig]:
    """Specialize ``base`` to one grid point of ``axis``: the point's label
    and its config. An init scheme or a heads_layers point is labelled in its
    canonical spelling ("kaiming_uniform" as "kaiming_uniform_relu", "01x2"
    as "1x2"); every other value as given."""
    enc = base.encoder
    if axis == "window":
        w = int(value)
        return value, replace(base, encoder=replace(enc, window_w=w), metric_window=w)
    if axis == "d_k":
        return value, replace(base, encoder=replace(enc, d_k=int(value)))
    if axis == "init":
        scheme = parse_scheme(value)
        return scheme_label(scheme), replace(base, encoder=replace(enc, init=scheme))
    if axis == "heads_layers":
        try:
            layers, heads = (int(part) for part in value.split("x"))
        except ValueError:
            raise ValueError(f"heads_layers value must look like '1x8', got {value!r}") from None
        cfg = replace(base, encoder=replace(enc, n_layers=layers, n_heads=heads))
        return f"{layers}x{heads}", cfg
    if axis == "components":
        name = str(value)
        if name not in COMPONENT_BUNDLES:
            raise ValueError(
                f"unknown component bundle {name!r}; expected one of {sorted(COMPONENT_BUNDLES)}"
            )
        return value, replace(base, encoder=replace(enc, **COMPONENT_BUNDLES[name]))
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


def run_sweep(base: RunConfig, axis: str, grid: Sequence) -> list[dict]:
    """Evaluate ``base`` at every ``grid`` point of ``axis`` and return flat
    result rows.

    Every grid point is built and checked before any subject is made or read.
    A window sweep takes one pass over the data, so it makes or reads each
    subject once, unless it runs the random transformer with positional rows,
    which the window sizes; then, as on every other axis, each grid point has
    its own encoder weights and its own pass. One row per (grid value, seed),
    plus ``mean`` and ``std`` aggregate rows per grid value; rows are sorted
    by (axis value, seed), with each value labelled as ``apply_axis`` does.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    if not grid:
        raise ValueError("sweep grid must be non-empty")
    points = [apply_axis(base, axis, value) for value in grid]
    cfgs = [cfg for _, cfg in points]
    for i, value in enumerate(grid):
        if cfgs[i] in cfgs[:i]:
            raise ValueError(f"sweep grid for {axis} repeats {value!r}")
    # Every other axis changes only the encoder weights, which such a
    # smoother never reads: each row would repeat one result.
    if axis != "window" and base.smoother != "random_transformer":
        raise ValueError(f"smoother {base.smoother!r} uses no encoder weights, "
                         f"so it sweeps only the window axis, not {axis}")
    one_pass = axis == "window" and not (
        base.smoother == "random_transformer" and base.encoder.use_positional)
    # No axis changes the data source, so every pass reads the same one.
    data = _open_data(base)
    rows: list[dict] = []
    for group in [points] if one_pass else [[point] for point in points]:
        labels, cfgs = zip(*group)
        for label, result in zip(labels, _evaluate(list(cfgs), *data)):
            scores = [(r.seed, {name: getattr(r, name) for name in _SCORES})
                      for r in result.per_seed]
            scores += [(tag, {name: result.aggregate[f"{tag}_{name}"] for name in _SCORES})
                       for tag in ("mean", "std")]
            rows += [{"axis": axis, "value": label, "seed": seed, **row}
                     for seed, row in scores]
    rows.sort(key=lambda r: (_value_sort_key(r["value"]), _seed_sort_key(r["seed"])))
    return rows


def correlation_study(rows: list[dict]) -> tuple[float, float]:
    """Pearson correlations (LSII vs accuracy, WTE vs accuracy) over per-seed rows.

    Aggregate rows and rows without an LSII value are skipped; at least 3
    usable rows are required.
    """
    usable = [
        r for r in rows
        if isinstance(r["seed"], int) and r["lsii"] is not None
    ]
    if len(usable) < 3:
        raise ValueError(f"need at least 3 per-seed rows with LSII, got {len(usable)}")
    acc = [r["accuracy"] for r in usable]
    return pearson([r["lsii"] for r in usable], acc), pearson([r["wte"] for r in usable], acc)


# ---------------------------------------------------------------------------
# Serialization

def write_report_json(result: PipelineResult, path: str | Path) -> None:
    payload = {
        "config": result.config,
        "config_digest": result.digest,
        "per_seed": [asdict(r) for r in result.per_seed],
        "aggregate": result.aggregate,
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    Path(path).write_text(text + "\n")


_RUNS_HEADER = [
    "config_digest", "seed", "smoother", "window_w", "d_k", "init", *_SCORES,
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
                    *(float_cell(getattr(report, name)) for name in _SCORES),
                ]
            )


_SWEEP_HEADER = ["axis", "value", "seed", *_SCORES]


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
                    *(float_cell(r[name]) for name in _SCORES),
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
