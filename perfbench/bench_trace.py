"""Span tracing of rapklab's public functions, installed from outside the package.

A ``Tracer`` replaces every public function of the traced modules with a
wrapper that records one span (name, start, end, parent) per call. The
wrapper is set in every ``rapklab`` namespace that holds the function, so a
caller that imported it by name (``cli`` imports ``dk_sweep_detail``) is
traced too. Constructors of a few value classes are counted without spans.
``uninstall`` puts every original back.

Per-layer metrics are read from the spans of one traced pass:
``<module>.<function>.calls``, ``.s`` (inclusive seconds, outermost calls
only) and ``.self_s`` (span time minus the time its child spans cover), plus
a few derived counters that probes compute from call arguments.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

MODULES = (
    "cli", "harness", "synthgen", "dataio", "smoothers", "attention",
    "sequences", "initializers", "montecarlo", "rapk", "metrics",
)

# Functions whose calls / inclusive / self time are reported, grouped by the
# workload whose wall_s they should move.
TIMED_FUNCTIONS = (
    # encoder: rt-reference wall_s
    "attention.build_encoder_weights", "attention.encoder_forward",
    "attention.attention_scores", "attention.softmax_rows",
    "attention.attention_apply", "attention.layer_norm_rows",
    "smoothers.random_transformer_smooth",
    # dataset path: dataset-sweep wall_s
    "synthgen.make_dataset", "dataio.save_dataset", "dataio.load_dataset",
    # smoothing head and metrics: dataset-sweep wall_s
    "smoothers.majority_filter_smooth", "smoothers.fit_centroids", "smoothers.classify",
    "metrics.wte_pooled", "metrics.lsii_pooled", "metrics.weighted_f1",
    "harness.run_pipeline", "harness.run_sweep",
    # Monte Carlo path: kernel-mc wall_s
    "initializers.init_matrix", "initializers.make_projection_set",
    "montecarlo.dk_sweep_detail", "montecarlo.monte_carlo_kernel",
    "montecarlo.logit_concentration", "rapk.rapk_coefficients", "rapk.rapk_kernel",
    "cli.main",
)

# Value classes whose constructions are counted (no spans: they are cheap and
# numerous, and a span each would distort the times around them).
COUNTED_CLASSES = ("attention.AttentionMatrix", "sequences.FeatureSequence")

DERIVED_METRICS = (
    ("attention.encoder.gflop", "GFLOP"),
    ("attention.encoder.gflop_per_s", "GFLOP/s"),
    ("attention.build_encoder_weights.useful_frac", "frac"),
    ("dataio.bytes_written", "B"),
    ("dataio.bytes_read", "B"),
    ("dataio.load_dataset.useful_frac", "frac"),
    ("montecarlo.trials_useful_frac", "frac"),
)

# Filled in by the benchmark run from untraced and traced pass walls.
TRACE_METRICS = (
    ("trace.coverage_frac", "frac"),
    ("trace.overhead_frac", "frac"),
    ("trace.overhead_s", "s"),
)


def per_layer_spec() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    spec: list[tuple[str, str]] = []
    for fn in TIMED_FUNCTIONS:
        spec += [(f"{fn}.calls", "count"), (f"{fn}.s", "s"), (f"{fn}.self_s", "s")]
    spec += [(f"{cls}.calls", "count") for cls in COUNTED_CLASSES]
    return spec + list(DERIVED_METRICS) + list(TRACE_METRICS)


# ---------------------------------------------------------------------------
# Span arithmetic


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list) -> list[float]:
    """Self time of each span: its duration minus what its children cover.

    ``spans`` holds ``(name, start, end, parent_index)`` records; a parent of
    -1 marks a top-level span.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - _covered(children.get(i, []), start, end)
        for i, (_, start, end, _) in enumerate(spans)
    ]


def function_metrics(spans: list) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds of outermost calls, self seconds."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        m = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        m["calls"] += 1
        m["self_s"] += selfs[i]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:  # no enclosing call of the same function
            m["s"] += end - start
    return out


# ---------------------------------------------------------------------------
# Encoder work, counted from shapes


def encoder_window_flops(t: int, d: int, cfg) -> int:
    """Matmul FLOPs (2*m*n*k per product) of one encoder pass over a t x d window.

    Counts the Q/K/V projections, scores and value mix of every head, the
    output linear and the FFN; softmax, layer norm and residual adds are
    elementwise and left out.
    """
    flops = 0
    width = d
    for _ in range(cfg.n_layers):
        if cfg.use_attention:
            d_h = cfg.d_k // cfg.n_heads if cfg.use_output_linear else cfg.d_k
            per_head = 3 * (2 * t * width * d_h) + 2 * (2 * t * t * d_h)
            flops += cfg.n_heads * per_head
            if cfg.use_output_linear:
                flops += 2 * t * cfg.d_k * width
            else:
                width = cfg.d_k
        if cfg.use_ffn:
            flops += 2 * (2 * t * width * 4 * width)
    return flops


def smoothing_flops(t_len: int, d: int, cfg) -> int:
    """Encoder FLOPs of smoothing one t_len x d sequence window by window."""
    w = cfg.window_w
    return sum(
        encoder_window_flops(min(w, t_len - start), d, cfg) for start in range(0, t_len, w)
    )


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def _seq_key(x) -> str:
    return hashlib.sha1(x.data.tobytes()).hexdigest()


# ---------------------------------------------------------------------------
# Tracer


class Tracer:
    """Wraps rapklab's public functions and records spans for one pass."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.constructions: Counter = Counter()
        self.counters: Counter = Counter()
        self.keys: dict[str, set] = defaultdict(set)
        self.probe_errors: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []
        self._probes = {
            "smoothers.random_transformer_smooth": self._probe_smooth,
            "attention.build_encoder_weights": self._probe_weights,
            "dataio.save_dataset": self._probe_save,
            "dataio.load_dataset": self._probe_load,
            "montecarlo.dk_sweep_detail": self._probe_dk_sweep,
            "montecarlo.monte_carlo_kernel": self._probe_mc_kernel,
        }

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of ``MODULES`` in every rapklab namespace."""
        modules = {}
        for short in MODULES:
            try:
                modules[short] = importlib.import_module(f"rapklab.{short}")
            except ImportError:  # a module a later change removed reads as zero
                continue
        namespaces = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "rapklab" or name.startswith("rapklab."))
        ]
        for short, mod in modules.items():
            public = getattr(mod, "__all__", None)
            if public is None:
                public = [n for n in vars(mod) if not n.startswith("_")]
            for fname in public:
                fn = vars(mod).get(fname)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                qual = f"{short}.{fname}"
                wrapper = self._wrap(qual, fn, self._probes.get(qual))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._set(ns, attr, wrapper)
        for qual in COUNTED_CLASSES:
            short, cname = qual.split(".")
            cls = getattr(modules.get(short), cname, None)
            init = vars(cls).get("__init__") if isinstance(cls, type) else None
            if init is not None:
                self._set(cls, "__init__", self._counting(qual, init))

    def uninstall(self) -> None:
        """Put back every original, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn, probe):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record = spans[idx]
                record[1] = start
                record[2] = end
            if probe is not None:
                self._run_probe(name, probe, fn, args, kwargs)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    def _counting(self, name: str, init):
        counts = self.constructions

        @functools.wraps(init)
        def counted_init(obj, *args, **kwargs):
            counts[name] += 1
            return init(obj, *args, **kwargs)

        counted_init.__perfbench_original__ = init
        return counted_init

    # -- probes: derived counters from call arguments ----------------------

    def _run_probe(self, name, probe, fn, args, kwargs) -> None:
        try:
            probe(inspect.signature(fn).bind(*args, **kwargs).arguments)
        except (TypeError, ValueError, AttributeError, OSError, KeyError):
            # A later signature change must not stop the benchmark; the
            # record lists the probe so its derived metric is not trusted.
            self.probe_errors[name] += 1

    def _inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    def _probe_smooth(self, a) -> None:
        x, cfg = a["x"], a["cfg"]
        self.counters["encoder_flops"] += smoothing_flops(x.t_len, x.dim, cfg)

    def _probe_weights(self, a) -> None:
        self.keys["encoder_weights"].add((a["cfg"], a["d"]))

    def _probe_save(self, a) -> None:
        self.counters["bytes_written"] += _dir_bytes(a["out_dir"])

    def _probe_load(self, a) -> None:
        path = Path(a["path"])
        self.counters["bytes_read"] += _dir_bytes(path)
        self.keys["datasets_loaded"].add(str(path.resolve()))

    def _probe_dk_sweep(self, a) -> None:
        for x in a["x_set"]:
            for d_k in a["d_k_grid"]:
                self._count_trials(x, a["scheme"], int(d_k), int(a["trials"]))

    def _probe_mc_kernel(self, a) -> None:
        if not self._inside("montecarlo.dk_sweep_detail"):
            self._count_trials(a["x"], a["scheme"], int(a["d_k"]), int(a["trials"]))

    def _count_trials(self, x, scheme, d_k: int, trials: int) -> None:
        # An estimate of the same kernel computed twice counts once.
        self.counters["mc_trials_run"] += trials
        self.keys["mc_kernels"].add((_seq_key(x), scheme, d_k, trials))

    # -- metrics -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the recorded pass (trace.* metrics excluded)."""
        spans = [tuple(s) for s in self.spans]
        per_fn = function_metrics(spans)
        out: dict[str, float] = {}
        for fn in TIMED_FUNCTIONS:
            m = per_fn.get(fn, {"calls": 0, "s": 0.0, "self_s": 0.0})
            out[f"{fn}.calls"] = m["calls"]
            out[f"{fn}.s"] = m["s"]
            out[f"{fn}.self_s"] = m["self_s"]
        for cls in COUNTED_CLASSES:
            out[f"{cls}.calls"] = self.constructions[cls]

        flops = self.counters["encoder_flops"]
        smooth_s = per_fn.get("smoothers.random_transformer_smooth", {}).get("s", 0.0)
        out["attention.encoder.gflop"] = flops / 1e9
        encoder_s = smooth_s - self._time_inside(
            spans, "attention.build_encoder_weights", "smoothers.random_transformer_smooth"
        )
        out["attention.encoder.gflop_per_s"] = flops / 1e9 / encoder_s if encoder_s > 0 else 0.0
        out["attention.build_encoder_weights.useful_frac"] = _ratio(
            len(self.keys["encoder_weights"]), out["attention.build_encoder_weights.calls"]
        )
        out["dataio.bytes_written"] = self.counters["bytes_written"]
        out["dataio.bytes_read"] = self.counters["bytes_read"]
        out["dataio.load_dataset.useful_frac"] = _ratio(
            len(self.keys["datasets_loaded"]), out["dataio.load_dataset.calls"]
        )
        useful_trials = sum(key[3] for key in self.keys["mc_kernels"])
        out["montecarlo.trials_useful_frac"] = _ratio(
            useful_trials, self.counters["mc_trials_run"]
        )
        return out

    @staticmethod
    def _time_inside(spans, inner: str, outer: str) -> float:
        """Inclusive time of ``inner`` spans that run inside an ``outer`` span."""
        total = 0.0
        for name, start, end, parent in spans:
            if name != inner:
                continue
            while parent >= 0 and spans[parent][0] != outer:
                parent = spans[parent][3]
            if parent >= 0:
                total += end - start
        return total

    def top_level_seconds(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def span_records(self):
        """Spans as JSON-ready dicts (name, start, end, parent, run id)."""
        for i, (name, start, end, parent) in enumerate(self.spans):
            yield {"run": self.run_id, "id": i, "name": name, "start": start,
                   "end": end, "parent": parent}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
