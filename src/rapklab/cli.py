"""Command-line interface.

Subcommands: ``simulate`` (write a synthetic dataset), ``smooth-eval``
(evaluate one smoother), ``sweep`` (grid sweep over one axis),
``kernel-validate`` (Monte Carlo vs closed-form kernel), ``logit-stats``
(logit concentration across schemes), ``metrics`` (WTE/LSII on label CSVs),
and ``correlate`` (metric-accuracy correlations over a sweep CSV).

Exit codes: README's exit-code table is the contract, one row per rule with
an example command and its one ``error:`` line; ``tests/test_readme.py`` runs
every row.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .attention import EncoderConfig
from .dataio import (
    DatasetError,
    check_csv_header,
    json_text,
    read_json_object,
    read_label_csv,
    save_dataset,
    write_csv,
    write_json,
    write_matrix_csv,
)
from .harness import (
    COMPONENT_BUNDLES,
    RUNS_HEADER,
    SMOOTHERS,
    SWEEP_AXES,
    RunConfig,
    append_runs_csv,
    check_config_keys,
    config_section,
    correlation_study,
    load_run_config,
    read_sweep_csv,
    run_pipeline,
    run_sweep,
    write_report_json,
    write_sweep_csv,
)
from .initializers import parse_scheme, scheme_label
from .metrics import lsii_pooled, wte_pooled
from .montecarlo import centered_unit_sequence, check_dk_grid, dk_sweep_detail, logit_concentration
from .seeding import check_list, check_size, generator, mix_seed
from .sequences import FeatureSequence, StageSequence
from .synthgen import SynthConfig, iter_subjects

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook; a usage error exits 1
        raise ValueError(message)


# Shorter spellings that --axis also takes for two of the SWEEP_AXES.
_AXIS_ALIASES = {"dk": "d_k", "heads": "heads_layers"}

_DEFAULT_GRIDS = {
    "window": "5,10,20,35,50",
    "d_k": "16,64,256,1024",
    "init": (
        "xavier_uniform,xavier_normal,kaiming_uniform_relu,kaiming_normal_relu,"
        "orthogonal,uniform_0.1,normal_0.02,trunc_normal_0.02"
    ),
    "heads_layers": "1x1,1x4,1x8,2x8",
    "components": ",".join(COMPONENT_BUNDLES),
}


def _add_run_options(parser: _Parser) -> None:
    parser.add_argument("--config", type=Path, help="JSON config file")
    parser.add_argument("--dataset", help="dataset directory")
    parser.add_argument("--smoother", choices=SMOOTHERS)
    # Not "seed": that is the EncoderConfig field each run seed sets.
    parser.add_argument("--seed", dest="seeds", help="comma-separated run seeds")
    parser.add_argument("--window", dest="window_w", type=int, help="smoothing window width")
    parser.add_argument("--dk", dest="d_k", type=int, help="total attention width d_k")
    parser.add_argument("--init", help="init scheme label (e.g. xavier_uniform)")
    parser.add_argument("--heads", dest="n_heads", type=int, help="attention heads per layer")
    parser.add_argument("--layers", dest="n_layers", type=int, help="encoder layers")
    parser.add_argument("--metric-window", type=int, help="LSII window width")
    parser.add_argument("--integer-median", action="store_true", default=None,
                        help="median smoother: integer median instead of mode")
    for f in fields(EncoderConfig):
        if f.name.startswith("use_"):
            parser.add_argument(f"--{f.name.replace('_', '-')}",
                                action=argparse.BooleanOptionalAction)


def build_parser() -> _Parser:
    parser = _Parser(prog="rapklab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic dataset directory")
    p.add_argument("--config", type=Path, help="JSON config file")
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.add_argument("--seed", type=int, help="dataset seed")
    p.add_argument("--classes", dest="n_classes", type=int, help="number of stages")
    p.add_argument("--t-len", type=int, help="epochs per subject")
    p.add_argument("--subjects", dest="n_subjects", type=int, help="number of subjects")
    p.add_argument("--self-prob", type=float, help="Markov stay probability")
    p.add_argument("--feat-dim", type=int, help="feature width")
    p.add_argument("--class-sep", type=float, help="class mean separation")
    p.add_argument("--noise-std", type=float, help="feature noise std")
    p.add_argument("--label-noise", type=float, help="epoch corruption rate")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("smooth-eval", help="evaluate one smoother configuration")
    _add_run_options(p)
    p.add_argument("--out", type=Path, help="output directory")
    p.set_defaults(func=_cmd_smooth_eval)

    p = sub.add_parser("sweep", help="sweep one axis of the configuration")
    _add_run_options(p)
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.add_argument("--axis", choices=[*SWEEP_AXES, *_AXIS_ALIASES], required=True)
    p.add_argument("--grid", help="comma-separated grid values")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("kernel-validate", help="Monte Carlo vs closed-form kernel")
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t-len", type=int, default=10)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--sequences", type=int, default=3)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--dk-grid", default="16,64,256,1024")
    p.add_argument("--scheme", default="xavier_uniform")
    p.add_argument("--dump-kernels", action="store_true",
                   help="also write the empirical and closed-form kernels as CSV")
    p.set_defaults(func=_cmd_kernel_validate)

    p = sub.add_parser("logit-stats", help="logit concentration across schemes")
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t-len", type=int, default=10)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--row-scale", type=float, default=1.0)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--dk-grid", default="32,128,512,1024")
    p.add_argument("--schemes", default=_DEFAULT_GRIDS["init"])
    p.set_defaults(func=_cmd_logit_stats)

    p = sub.add_parser("metrics", help="compute WTE/LSII from label CSVs")
    p.add_argument("--out", type=Path, help="output directory")
    p.add_argument("--labels", type=Path, help="stage CSV for WTE")
    p.add_argument("--none", type=Path, help="unsmoothed predictions CSV (LSII)")
    p.add_argument("--corr", type=Path, help="smoothed predictions CSV (LSII)")
    p.add_argument("--window", type=int, help="LSII window width")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("correlate", help="metric-accuracy correlations over a sweep CSV")
    p.add_argument("--csv", type=Path, required=True, help="sweep CSV path")
    p.set_defaults(func=_cmd_correlate)

    return parser


def _load_config_file(path: Path | None) -> dict:
    if path is None:
        return {}
    if not path.is_file():
        raise DatasetError(f"config file not found: {path}")
    return read_json_object(path, "config")


def _ensure_out(args) -> Path:
    args.out.mkdir(parents=True, exist_ok=True)
    return args.out


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise ValueError(f"bad {what}: {text!r}") from None


def _overrides(args, cls: type) -> dict:
    """The flags given on the command line that set a field of dataclass ``cls``.

    Each flag that sets a config value has that field's name as its dest and
    stays None unless it is given.
    """
    return {f.name: getattr(args, f.name) for f in fields(cls)
            if getattr(args, f.name, None) is not None}


def _cmd_simulate(args) -> int:
    # Keys of a run config other than "synth" are allowed and ignored here.
    entry = check_config_keys(_load_config_file(args.config)).get("synth", {})
    cfg = config_section(SynthConfig, entry, "synth", _overrides(args, SynthConfig))
    save_dataset(iter_subjects(cfg), args.out, cfg)  # it makes --out once a subject is made
    print(f"wrote {cfg.n_subjects} subjects x {cfg.t_len} epochs to {args.out}")
    return 0


def _run_config_from_args(args, axis=None, grid=()):
    entry = _load_config_file(args.config)
    enc = _overrides(args, EncoderConfig)
    file_enc = entry.get("encoder", {})
    if enc and isinstance(file_enc, dict):  # any other "encoder" fails in load_run_config
        entry["encoder"] = {**file_enc, **enc}
    if args.dataset is not None:
        entry.pop("synth", None)
        entry["dataset"] = args.dataset
    entry.update(_overrides(args, RunConfig))
    if args.seeds is not None:
        entry["seeds"] = _parse_int_list(args.seeds, "--seed list")
    return load_run_config(entry, axis, grid)


def _cmd_smooth_eval(args) -> int:
    cfg = _run_config_from_args(args)
    if args.out is not None:  # rows are never appended under another table's header
        check_csv_header(args.out / "runs.csv", RUNS_HEADER)
    result = run_pipeline(cfg)
    agg = result.aggregate
    lsii_text = "n/a" if agg["mean_lsii"] is None else f"{agg['mean_lsii']:.4f}"
    print(
        f"{cfg.smoother}: acc {agg['mean_accuracy']:.4f} +/- {agg['std_accuracy']:.4f}  "
        f"wf1 {agg['mean_weighted_f1']:.4f}  wte {agg['mean_wte']:.4f}  lsii {lsii_text}"
    )
    if args.out is not None:
        out = _ensure_out(args)
        write_report_json(result, out / "report.json")
        append_runs_csv(result, out / "runs.csv")
        print(f"wrote {out / 'report.json'}")
    return 0


def _cmd_sweep(args) -> int:
    axis = _AXIS_ALIASES.get(args.axis, args.axis)
    grid_text = args.grid if args.grid is not None else _DEFAULT_GRIDS[axis]
    if axis in ("window", "d_k"):
        grid = tuple(_parse_int_list(grid_text, f"--grid for {args.axis}"))
    else:
        grid = tuple(part for part in grid_text.split(",") if part != "")
    rows = run_sweep(_run_config_from_args(args, axis, grid), axis, grid)
    out = _ensure_out(args)
    path = out / "sweep.csv"
    write_sweep_csv(rows, path)
    print(f"wrote {len(rows)} rows to {path}")
    return 0


def _cmd_kernel_validate(args) -> int:
    grid = check_dk_grid(_parse_int_list(args.dk_grid, "--dk-grid"), "--dk-grid")
    scheme = parse_scheme(args.scheme)
    # dk_sweep_detail checks --trials before it draws a sequence.
    x_set = (
        centered_unit_sequence(args.t_len, args.dim, mix_seed(args.seed, i))
        for i in range(check_size("--sequences", args.sequences, 1))
    )
    report, blocks, kernels = dk_sweep_detail(x_set, scheme, grid, args.trials, args.seed)
    out = _ensure_out(args)
    payload = asdict(report)
    payload["scheme"] = scheme_label(scheme)
    write_json(out / "kernel_validation.json", payload)
    write_csv(out / "kernel_validation.csv", ["d_k", "trial_block", "mse", "pearson"], blocks,
              end="\n")
    if args.dump_kernels:
        for d_k, si, emp, theory in kernels:
            write_matrix_csv(out / f"kernel_emp_dk{d_k}_seq{si}.csv", emp)
            write_matrix_csv(out / f"kernel_theory_dk{d_k}_seq{si}.csv", theory)
    for d_k, mse, pearson in zip(report.d_k_grid, report.mse_per_dk, report.pearson_per_dk):
        print(f"d_k={d_k}: mse {mse:.3e}  pearson {pearson:.4f}")
    return 0


def _cmd_logit_stats(args) -> int:
    grid = check_dk_grid(_parse_int_list(args.dk_grid, "--dk-grid"), "--dk-grid")
    schemes = [parse_scheme(part) for part in args.schemes.split(",") if part != ""]
    # Each row is one (scheme, d_k, layernorm) setting, so a repeat would be a duplicate row.
    check_list("--schemes", [scheme_label(s) for s in schemes])
    shape = (check_size("--t-len", args.t_len, 1), check_size("--dim", args.dim, 1))
    check_size("--trials", args.trials, 100)  # logit_concentration's floor, before any draw
    rng = generator(args.seed, 0xDD)
    with np.errstate(over="ignore"):  # rows that overflow fail in FeatureSequence
        x = FeatureSequence(args.row_scale * rng.standard_normal(shape))
    # One call per (d_k, layernorm) setting, each returning a report per scheme.
    settings = [
        logit_concentration(x, schemes, d_k, with_ln, args.trials,
                            mix_seed(args.seed, d_k, int(with_ln)))
        for d_k in grid for with_ln in (False, True)
    ]
    # Rows run scheme by scheme, then over the d_k grid and layernorm off/on.
    rows = [asdict(reports[i]) for i in range(len(schemes)) for reports in settings]
    out = _ensure_out(args)
    write_json(out / "logit_stats.json", rows)
    write_csv(out / "logit_stats.csv", ["scheme", "d_k", "with_layernorm", "empirical_mean",
                                        "empirical_std", "analytic_std", "frac_within_eps",
                                        "trials"], (r.values() for r in rows), end="\n")
    print(f"wrote {len(rows)} rows to {out / 'logit_stats.csv'}")
    return 0


def _stage_sequences(paths: list[Path]) -> list[StageSequence]:
    labels = [read_label_csv(path) for path in paths]
    # The label space is the smallest that holds every file.
    c = max(int(a.max()) for a in labels) + 1
    return [StageSequence(a, c) for a in labels]


def _cmd_metrics(args) -> int:
    # Every flag is checked before any file is read.
    if args.labels is None and args.none is None and args.corr is None:
        raise ValueError("nothing to compute: pass --labels and/or --none/--corr")
    if (args.none is None) != (args.corr is None):
        raise ValueError("LSII needs both --none and --corr")
    if args.none is not None and args.window is None:
        raise ValueError("LSII needs --window")
    if args.none is None and args.window is not None:
        raise ValueError("--window sets the LSII window, so it needs --none and --corr")
    if args.window is not None:
        check_size("--window", args.window, 2)
    out: dict = {}
    if args.labels is not None:
        try:
            out["wte"] = wte_pooled(_stage_sequences([args.labels]))
        except (ValueError, MemoryError) as exc:
            # Too few rows is the label file's fault, and so is a transition
            # table too large to make or to allocate.
            raise DatasetError(f"{args.labels}: {str(exc) or type(exc).__name__}") from None
    if args.none is not None:
        pair = _stage_sequences([args.none, args.corr])
        try:  # with the window checked, what LSII rejects is the pair of files
            out["lsii"] = lsii_pooled(pair[:1], pair[1:], args.window)
        except ValueError as exc:
            raise DatasetError(f"{args.none}, {args.corr}: {exc}") from None
    print(json_text(out), end="")
    if args.out is not None:
        write_json(_ensure_out(args) / "metrics.json", out)
    return 0


def _cmd_correlate(args) -> int:
    try:  # too few usable rows, or no spread, is a fault of the sweep CSV
        r_lsii, r_wte = correlation_study(read_sweep_csv(args.csv))
    except ValueError as exc:
        raise DatasetError(f"{args.csv}: {exc}") from None
    print(json_text({"r_lsii_acc": r_lsii, "r_wte_acc": r_wte}), end="")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        out = getattr(args, "out", None)
        near = out and next(path for path in (out, *out.parents) if path.exists())
        if near and not near.is_dir():  # found before any work
            raise NotADirectoryError(f"--out {out} cannot be made: {near} is not a directory")
        return args.func(args)
    except (DatasetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, FloatingPointError, MemoryError) as exc:
        # A MemoryError the interpreter raises has no message.
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
