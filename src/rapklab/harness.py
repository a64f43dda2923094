"""Experiment harness: resolved configs, evaluation pipeline, sweeps, reports.

A run is a pure function of its resolved configuration, so reports are
byte-identical across repeats. Every run streams its subjects: one pass over
the train split, then one over the test split, for every seed and grid point
at once, with each matrix that two grid points draw alike held once.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable, Iterable, Sequence
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from .attention import EncoderConfig, build_encoder_weights
from .dataio import DatasetError, number_cell, open_dataset, read_csv_rows, write_csv, write_json
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
from .seeding import check_list, check_seed, check_size
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
    "RUNS_HEADER",
    "append_runs_csv",
    "write_sweep_csv",
    "read_sweep_csv",
]

SMOOTHERS = ("none", "moving_average", "median", "fixed_attention", "random_transformer")

_USE_FLAGS = tuple(f.name for f in fields(EncoderConfig) if f.name.startswith("use_"))

# Each sweep axis, and the encoder fields that it sets.
SWEEP_AXES = {"window": ("window_w",), "d_k": ("d_k",), "init": ("init",),
              "heads_layers": ("n_layers", "n_heads"), "components": _USE_FLAGS}

# The random transformer's fields that only some of its components read,
# each with those components: with all of them off, the field is unread.
_READ_WITH = {
    **dict.fromkeys(("n_heads", "d_k", "use_output_linear"), ("use_attention",)),
    "use_residual": ("use_attention", "use_ffn"),
    "init": ("use_attention", "use_ffn", "use_positional"),  # the weights it draws
    "n_layers": ("use_attention", "use_ffn", "use_layernorm"),  # what a layer does
    **dict.fromkeys(("window_w", "metric_window"),
                    ("use_attention", "use_ffn", "use_layernorm", "use_positional")),
}


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
        check_list("seeds", [check_seed(seed) for seed in self.seeds])
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


def load_run_config(entry: dict, axis: str | None = None, grid: Sequence = ()) -> RunConfig:
    """Build a ``RunConfig`` from a JSON-style dict: the base run of a sweep
    over ``grid`` on ``axis`` if an axis is given."""
    check_config_keys(entry)
    synth = None
    if entry.get("synth") is not None:
        synth = config_section(SynthConfig, entry["synth"], "synth")
    encoder = config_section(EncoderConfig, entry.get("encoder", {}), "encoder", init=parse_scheme)
    if "seed" in entry.get("encoder", {}):
        raise ValueError("encoder.seed is not a config key: each run seed in 'seeds' sets it")
    seeds = _typed(entry.get("seeds", list(DEFAULT_SEEDS)), list, "seeds")
    cfg = RunConfig(
        synth=synth,
        dataset_path=_typed(entry.get("dataset"), str, "dataset", none_ok=True),
        smoother=entry.get("smoother", "random_transformer"),
        encoder=encoder,
        metric_window=_typed(entry.get("metric_window"), int, "metric_window", none_ok=True),
        seeds=tuple(_typed(s, int, f"seeds[{i}]") for i, s in enumerate(seeds)),
        integer_median=_typed(entry.get("integer_median", False), bool, "integer_median"),
    )
    # One experiment, one digest: a field that no run reads keeps its default. A sweep
    # runs only its grid points, whose axis sets its own fields (an empty grid: the base).
    runs = [apply_axis(cfg, axis, value)[1] for value in grid] or [cfg]
    swept = set(SWEEP_AXES.get(axis, ()))
    read = set().union(*map(fields_read, runs)) - swept
    default = replace(cfg, encoder=EncoderConfig(), metric_window=None, integer_median=False)
    given, default = ({**d.pop("encoder"), **d} for d in map(run_config_dict, (cfg, default)))
    for name, value in given.items():
        if value != default[name] and name not in read:
            reader = f"a sweep on the {axis} axis" if name in swept else _reader(runs[0], {name})
            raise ValueError(f"{reader} does not read {name}, so it must stay {default[name]!r}, "
                             f"got {value!r}")
    return cfg


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


def _feature_smoothers(cfg: RunConfig, d: int, drawn: dict) -> list[Callable]:
    """The feature-space smoother of each distinct smoothed head: one per seed's
    weights (drawn through ``drawn``) for the random transformer; one for the
    seed-free window mean; none for the label-space smoothers."""
    if cfg.smoother == "fixed_attention":
        return [partial(fixed_attention_smooth, w=cfg.encoder.window_w)]
    if cfg.smoother != "random_transformer":
        return []
    # With no init read, no weights are drawn: one result serves every seed.
    seeds = cfg.seeds if "init" in fields_read(cfg) else cfg.seeds[:1]
    return [partial(random_transformer_smooth, cfg=cfg.encoder,
                    weights=build_encoder_weights(replace(cfg.encoder, seed=seed), d, drawn))
            for seed in seeds]


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
    for every config and seed at once, so the run holds one subject at a time,
    one base head, and each matrix that two configs draw alike once."""
    drawn: dict = {}
    smoothers = [_feature_smoothers(cfg, feat_dim, drawn) for cfg in cfgs]
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
        if cfgs[0].dataset_path is None:  # a config value of a synthetic cohort
            raise
        raise DatasetError(f"{cfgs[0].dataset_path}: {exc}") from None
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
    # Mean and population std, in sorted-seed order, over the seeds that have a
    # value; None when no seed has one, as for the LSII of the identity smoother.
    out: dict = {"n_seeds": len(reports)}
    for name in _SCORES:
        values = [getattr(r, name) for r in sorted(reports, key=lambda r: r.seed)]
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
    if axis in ("window", "d_k"):
        (name,) = SWEEP_AXES[axis]
        return value, replace(base, encoder=replace(enc, **{name: int(value)}))
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
    raise ValueError(f"unknown sweep axis {axis!r}; expected one of {tuple(SWEEP_AXES)}")


def fields_read(cfg: RunConfig) -> set[str]:
    """The run fields, each encoder field by its own name, whose values can
    change a result of ``cfg``: ``none`` reads only its seeds. The random
    transformer reads its heads only with attention, its residual with
    attention or an FFN, its init when it draws weights, its layers when a
    layer does something, and its windows unless it is the identity
    (``_READ_WITH``); without weights, one result repeats for each seed."""
    if cfg.smoother == "random_transformer":
        unread = {name for name, on in _READ_WITH.items()
                  if not any(getattr(cfg.encoder, flag) for flag in on)}
        return {"seeds", "metric_window", *_encoder_dict(cfg.encoder)} - unread
    window = {"window_w", "metric_window"} if cfg.smoother != "none" else set()
    return {"seeds", *window} | ({"integer_median"} if cfg.smoother == "median" else set())


def _reader(cfg: RunConfig, names: set[str]) -> str:
    # The smoother, and the random transformer's components whose being off leaves ``names`` unread.
    unread = names - fields_read(cfg) if cfg.smoother == "random_transformer" else set()
    off = [flag for flag in _USE_FLAGS if any(flag in _READ_WITH[name] for name in unread)]
    return f"smoother {cfg.smoother!r}" + f" with {' and '.join(off)} false" * bool(off)


def _value_sort_key(value):
    try:
        return (0, float(value), "")
    except (TypeError, ValueError):
        return (1, 0.0, str(value))


def run_sweep(base: RunConfig, axis: str, grid: Sequence) -> list[dict]:
    """Evaluate ``base`` at every ``grid`` point of ``axis`` and return flat
    result rows.

    Every grid point is built and checked before any subject is made or read:
    each must read an ``axis`` value no other point shares, in a shape the encoder runs.
    Every point runs in the same two passes (train, then test), so each
    subject is made or read once, and the run holds, for every seed, each
    distinct matrix its points draw. One row per (grid value, seed), plus
    ``mean`` and ``std`` aggregate rows per grid value; rows are sorted by
    (axis value, seed), with each value labelled as ``apply_axis`` does.
    """
    if not grid:
        raise ValueError("sweep grid must be non-empty")
    points = [apply_axis(base, axis, value) for value in grid]
    read: list[dict] = []  # only the axis's fields differ between the points
    for value, (_, cfg) in zip(grid, points):
        read.append({name: getattr(cfg.encoder, name) for name in SWEEP_AXES[axis]
                     if name in fields_read(cfg)})
        if not read[-1] or read[-1] in read[:-1]:
            raise ValueError(f"{_reader(cfg, set(SWEEP_AXES[axis]))} reads no value that sets "
                             f"grid point {value!r} of the {axis} axis apart")
    # No axis changes the data source, so every point reads the same one.
    data = _open_data(base)
    for _, cfg in points:  # a shape no encoder can run, found before any draw
        if cfg.smoother == "random_transformer" and cfg.encoder.use_attention:
            cfg.encoder.head_width(data[1])
    results = zip(points, _evaluate([cfg for _, cfg in points], *data))
    rows: list[dict] = []
    for (label, _), result in sorted(results, key=lambda pair: _value_sort_key(pair[0][0])):
        scores = [(r.seed, {name: getattr(r, name) for name in _SCORES})
                  for r in sorted(result.per_seed, key=lambda r: r.seed)]
        scores += [(tag, {name: result.aggregate[f"{tag}_{name}"] for name in _SCORES})
                   for tag in ("mean", "std")]
        rows += [{"axis": axis, "value": label, "seed": seed, **row} for seed, row in scores]
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
    write_json(path, {
        "config": result.config,
        "config_digest": result.digest,
        "per_seed": [asdict(r) for r in result.per_seed],
        "aggregate": result.aggregate,
    })


RUNS_HEADER = [
    "config_digest", "seed", "smoother", "window_w", "d_k", "init", *_SCORES,
]


def append_runs_csv(result: PipelineResult, path: str | Path) -> None:
    """Append one row per seed to a cumulative runs CSV."""
    enc = result.config["encoder"]
    write_csv(path, RUNS_HEADER, ([result.digest, report.seed, result.config["smoother"],
                                   enc["window_w"], enc["d_k"], enc["init"],
                                   *(getattr(report, name) for name in _SCORES)]
                                  for report in result.per_seed), append=True)


_SWEEP_HEADER = ["axis", "value", "seed", *_SCORES]


def write_sweep_csv(rows: list[dict], path: str | Path) -> None:
    write_csv(path, _SWEEP_HEADER, ([r["axis"], r["value"], r["seed"], *(r[n] for n in _SCORES)]
                                    for r in rows))


def _sweep_row(row: list[str]) -> dict:
    axis, value, seed, *scores = row  # an LSII cell may be empty, for no LSII
    return {"axis": axis, "value": value,
            "seed": seed if seed in ("mean", "std") else number_cell(seed, int),
            **{name: None if name == "lsii" and cell == "" else number_cell(cell)
               for name, cell in zip(_SCORES, scores)}}


def read_sweep_csv(path: str | Path) -> list[dict]:
    """Parse a sweep CSV back into rows (lossless for repr-formatted floats)."""
    return read_csv_rows(path, _SWEEP_HEADER, _sweep_row)
