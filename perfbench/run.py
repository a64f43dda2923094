"""rapklab benchmark: three CLI workloads, end-to-end metrics, a traced run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload rt-reference --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

Workloads (``bench_workloads.py``): ``rt-reference``, ``dataset-sweep`` and
``kernel-mc``; ``all`` runs the three in turn, each in its own process. One
run of one workload:

1. sets up ``SETUP_REPEATS`` times (a fresh interpreter importing rapklab,
   then the workload's input files, all made from ``--seed``) and reports the
   median as ``setup_s``;
2. repeats the workload's pass, a fixed list of ``rapklab`` CLI calls made
   in this process, for ``--seconds`` (at least ``MIN_PASSES`` passes);
   ``wall_s`` is the median pass time;
3. checks the outputs outside the timed passes: every pass must reproduce
   the first byte for byte, seed 0 must reproduce ``reference.json``, and
   the workload's oracles must agree (see ``bench_checks.py``).

With ``--trace 1`` passes alternate between untraced and traced, and the
per-layer metrics of ``bench_trace.py`` are reported instead; the spans are
written to ``perfbench/out/trace-<workload>-seed<seed>.jsonl`` when the run
ends. Every run writes its record, with the environment block, under
``perfbench/out/``; ``--bench-out`` also merges it into a trajectory file.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``attempted`` counts
CLI operations; ``failed`` counts those whose exit code or output check
failed, so ``failed / attempted`` is ``failed_frac``.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_PASSES = 2
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 120

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def child_env(extra: dict | None = None) -> dict:
    env = dict(os.environ, **(extra or {}))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_children(jobs: list[tuple[list[str], dict]]) -> list[int]:
    """Run CLI operations (argv, extra environment) in concurrent child
    processes and wait for all of them; -1 marks one that timed out."""
    procs: list[subprocess.Popen] = []
    try:
        for argv, extra in jobs:
            procs.append(subprocess.Popen(
                [sys.executable, "-m", "rapklab.cli", *argv], env=child_env(extra),
                cwd=ROOT, stdout=subprocess.DEVNULL,
            ))
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        codes = []
        for proc in procs:
            try:
                codes.append(proc.wait(timeout=max(0.0, deadline - time.monotonic())))
            except subprocess.TimeoutExpired:
                codes.append(-1)
        return codes
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


# Timed inside the child, so that neither process start-up nor the parent's
# polling wait (which rounds to 50 ms) enters the figure.
_IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import rapklab.cli; "
    "print(time.perf_counter() - t)"
)


def measure_setup(workload_cls, seed: int, work: Path) -> list[float]:
    """Seconds of each set-up: import rapklab in a fresh interpreter, then
    build the workload's inputs from the seed and write them."""
    samples = []
    for i in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_TIMER], env=child_env(), cwd=ROOT,
            check=True, timeout=CHILD_TIMEOUT_S, capture_output=True, text=True,
        )
        start = time.perf_counter()
        workload_cls(seed).write_inputs(work / f"setup{i}")
        samples.append(float(proc.stdout.split()[-1]) + time.perf_counter() - start)
    return samples


def timed_pass(ops, tracer) -> tuple[float, list]:
    """Run one pass of CLI calls in this process; returns (seconds, exit codes)."""
    import rapklab.cli as cli

    codes: list = []
    tracing = tracer if tracer is not None else contextlib.nullcontext()
    with tracing, contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        for _, argv in ops:
            try:
                codes.append(cli.main(argv))
            except Exception as exc:  # an uncaught error fails the op, not the run
                traceback.print_exc()
                codes.append(f"raised {type(exc).__name__}")
        wall = time.perf_counter() - start
    return wall, codes


def _median(values):
    return statistics.median(values) if values else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    from bench_checks import digest_tree
    from bench_trace import Tracer, per_layer_spec
    from bench_workloads import WORKLOADS, Check

    cls = WORKLOADS[name]
    workload = cls(seed)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    work = OUT / "work" / tag
    shutil.rmtree(work, ignore_errors=True)
    setup = measure_setup(cls, seed, work)
    input_dir = work / "inputs"
    workload.write_inputs(input_dir)

    checks: list[Check] = []
    ops_run: list[str] = []
    walls = {False: [], True: []}
    tracers = []
    first_digests: dict[str, str] = {}
    start = time.perf_counter()
    k = 0
    while True:
        traced = trace and k % 2 == 1
        pass_dir = work / f"pass{k}"
        ops = workload.ops(input_dir, pass_dir)
        gc.collect()
        tracer = Tracer(f"{tag}-pass{k}") if traced else None
        wall, codes = timed_pass(ops, tracer)
        walls[traced].append(wall)
        if tracer is not None:
            tracers.append(tracer)
        digests = digest_tree(pass_dir)
        if k == 0:
            first_digests = digests
        for (sub, _), code in zip(ops, codes):
            op = f"pass{k}:{sub}"
            ops_run.append(op)
            checks.append(Check(op, "exit code 0", code == 0, f"exit code {code}"))
            if k > 0:
                mine = {p: d for p, d in digests.items() if p.split("/")[0] == sub}
                theirs = {p: d for p, d in first_digests.items() if p.split("/")[0] == sub}
                checks.append(Check(op, "outputs repeat the first pass byte for byte",
                                    mine == theirs, f"{len(mine)} files"))
        if k > 0:
            workload.shrink(pass_dir)
        k += 1
        # Stop before a pass that, taking as long as this one, would end late.
        if k >= MIN_PASSES and time.perf_counter() - start + wall > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reference = json.loads((HERE / "reference.json").read_text())
    if seed == reference["seed"]:
        for path, want in reference["outputs"][name].items():
            sub = path.split("/")[0]
            checks.append(Check(f"pass0:{sub}", f"{path} matches the seed commit's digest",
                                first_digests.get(path) == want, path))
    work_done: dict = {}
    try:
        verdict = workload.verify(input_dir, work / "pass0", run_children)
        checks += verdict.checks
        work_done = verdict.work
    except Exception as exc:  # a crashed oracle is a failed check, not a crashed run
        traceback.print_exc()
        checks.append(Check("pass0:verify", "verification ran", False, repr(exc)))
    if trace:
        metrics, trace_checks = _layer_metrics(tracers, walls, per_layer_spec())
        checks += trace_checks
        _write_spans(OUT / f"trace-{name}-seed{seed}.jsonl", tracers)
    else:
        values = {"wall_s": _median(walls[False]), "setup_s": _median(setup),
                  "peak_rss_mb": peak_rss_mb}
        metrics = {n: (values[n], unit) for n, unit in END_TO_END}
    ops_run += sorted({c.op for c in checks if c.op.startswith("child:")})
    failed_ops = sorted({c.op for c in checks if not c.ok})

    record = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": trace, "env": env, "inputs": workload.inputs,
        "setup_s_samples": setup,
        "pass_wall_s": walls[False], "traced_pass_wall_s": walls[True],
        "attempted": len(ops_run), "failed": len(failed_ops),
        "failed_frac": len(failed_ops) / len(ops_run),
        "checks": [vars(c) for c in checks],
        "work_per_pass": work_done,
        "output_digests": first_digests,
    }
    if trace:
        record["probe_errors"] = dict(sum((t.probe_errors for t in tracers), Counter()))
    else:
        record["extra"] = _extra_metrics(walls[False], work_done)
    record["metrics"] = {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=2, default=str) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    return record


def _extra_metrics(walls: list[float], work: dict) -> dict:
    """Reported alongside the gated metrics: tail, sample count, throughputs."""
    wall = _median(walls)
    extra = {
        "wall_s_p90": (statistics.quantiles(walls, n=10, method="inclusive")[-1], "s"),
        "wall_s_max": (max(walls), "s"),
        "passes": (len(walls), "count"),
    }
    if "epochs" in work:
        extra["epochs_per_s"] = (work["epochs"] / wall, "1/s")
    if "trials" in work:
        extra["trials_per_s"] = (work["trials"] / wall, "1/s")
    if "csv_bytes" in work:
        extra["csv_mb_per_s"] = (work["csv_bytes"] / 1e6 / wall, "MB/s")
    return {n: {"value": v, "unit": u} for n, (v, u) in extra.items()}


def _layer_metrics(tracers, walls, spec):
    """Per-layer metrics: counts of the first traced pass, median times."""
    from bench_workloads import Check

    per_pass = [t.metrics() for t in tracers]
    units = dict(spec)
    first = per_pass[0]
    out: dict[str, tuple[float, str]] = {}
    stable = True
    for name, unit in spec:
        if name.startswith("trace."):
            continue
        values = [m[name] for m in per_pass]
        if unit == "s" or name.endswith("gflop_per_s"):
            out[name] = (_median(values), unit)
        else:
            stable &= all(v == values[0] for v in values)
            out[name] = (first[name], unit)
    traced = _median(walls[True])
    untraced = _median(walls[False])
    coverage = [t.top_level_seconds() / w for t, w in zip(tracers, walls[True])]
    out["trace.coverage_frac"] = (_median(coverage), units["trace.coverage_frac"])
    out["trace.overhead_s"] = (traced - untraced, "s")
    out["trace.overhead_frac"] = ((traced - untraced) / untraced, "frac")
    checks = [Check("trace", "count metrics repeat exactly across traced passes", stable,
                    f"{len(per_pass)} traced passes")]
    return out, checks


def _write_spans(path: Path, tracers) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for tracer in tracers:
            for span in tracer.span_records():
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def _merge_bench_file(path: Path, records: list[dict]) -> None:
    """Merge run records into a trajectory file: workloads -> e2e / layers."""
    data = json.loads(path.read_text()) if path.is_file() else {"workloads": {}}
    for rec in records:
        section = "layers" if rec["trace"] else "e2e"
        data["workloads"].setdefault(rec["workload"], {})[section] = {
            k: rec[k] for k in ("seed", "seconds", "env", "metrics", "extra", "attempted",
                                "failed", "pass_wall_s", "traced_pass_wall_s",
                                "setup_s_samples", "work_per_pass") if k in rec
        }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _print_summary(rec: dict) -> None:
    name = rec["workload"]
    passes = len(rec["pass_wall_s"])
    notes = {
        "wall_s": f"median of {passes} passes",
        "setup_s": f"median of {len(rec['setup_s_samples'])} set-ups",
        "attention.encoder.gflop": "computed from shapes",
    }
    rows = list(rec["metrics"].items()) + list(rec.get("extra", {}).items())
    for metric, m in rows:
        note = notes.get(metric, "")
        print(f"[{name}] {metric} = {m['value']:.6g} {m['unit']}" + (f"  ({note})" if note else ""))
    print(f"[{name}] failed_frac = {rec['failed_frac']:.6g}  "
          f"({rec['failed']} of {rec['attempted']} CLI operations failed)")
    for check in rec["checks"]:
        if not check["ok"]:
            print(f"[{name}] FAILED {check['op']}: {check['name']} ({check['detail']})")


def _run_in_child(name: str, args) -> dict:
    """One workload of ``--workload all``, in its own process so that its
    peak memory is its own; returns the record the child wrote."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    print("\n".join(proc.stdout.splitlines()[:-1]), flush=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: workload {name} exited with code {proc.returncode}")
    return json.loads((OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").read_text())


def parse_args(argv=None):
    from bench_workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--bench-out", type=Path,
                        help="merge this run's records into a trajectory JSON file")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    # The benchmark is one single-threaded process: one BLAS thread keeps its
    # timings steady on a shared machine. Set before numpy loads, which the
    # bench modules imported below do.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    args = parse_args(argv)
    if not (SRC / "rapklab" / "__init__.py").is_file():
        print(f"error: rapklab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rapklab

    if Path(rapklab.__file__).resolve().parent != (SRC / "rapklab").resolve():
        print(f"error: imported rapklab from {rapklab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from bench_env import env_block
    from bench_workloads import WORKLOADS

    if args.workload == "all":
        records = [_run_in_child(name, args) for name in WORKLOADS]
    else:
        env = env_block(ROOT)
        print(f"rapklab benchmark: workload {args.workload}; seed {args.seed}; "
              f"{args.seconds:g} s; trace {args.trace}")
        print("env: " + json.dumps(env, sort_keys=True))
        records = [run_workload(args.workload, args.seed, args.seconds, bool(args.trace), env)]
        _print_summary(records[0])
    if args.bench_out is not None:
        _merge_bench_file(args.bench_out, records)

    single = len(records) == 1
    metrics = {}
    for rec in records:
        for metric, m in rec["metrics"].items():
            metrics[metric if single else f"{rec['workload']}.{metric}"] = m
    result = {
        "correct": all(r["failed"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
