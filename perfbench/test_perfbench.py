"""Tests of the benchmark's own machinery: span arithmetic, wrapper hygiene,
seeded inputs, the FLOP count, the oracles and BENCHMARK.json."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _path in (HERE, ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import bench_checks as oracle  # noqa: E402
import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402
import run  # noqa: E402
from bench_trace import Tracer, encoder_window_flops, function_metrics, self_times  # noqa: E402

import rapklab  # noqa: E402
from rapklab.attention import EncoderConfig  # noqa: E402


def test_self_time_subtracts_child_spans():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a1", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlapping_children_once():
    spans = [("p", 0.0, 10.0, -1), ("c", 1.0, 4.0, 0), ("c", 3.0, 6.0, 0)]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_inclusive_time_counts_recursive_calls_once():
    spans = [("f", 0.0, 10.0, -1), ("g", 1.0, 9.0, 0), ("f", 2.0, 5.0, 1)]
    m = function_metrics(spans)
    assert m["f"] == {"calls": 2, "s": 10.0, "self_s": 2.0 + 3.0}
    assert m["g"] == {"calls": 1, "s": 8.0, "self_s": 5.0}


def _rapklab_namespaces():
    return [m for n, m in sys.modules.items()
            if m is not None and (n == "rapklab" or n.startswith("rapklab."))]


def _snapshot():
    return {(id(ns), attr): value for ns in _rapklab_namespaces()
            for attr, value in vars(ns).items()}


def test_wrappers_cover_every_namespace_and_are_gone_after_tracing():
    import rapklab.attention as attention
    import rapklab.cli as cli
    import rapklab.montecarlo as montecarlo
    import rapklab.sequences as sequences

    before = _snapshot()
    init_before = sequences.FeatureSequence.__init__
    with Tracer("t") as tracer:
        assert cli.dk_sweep_detail is montecarlo.dk_sweep_detail
        assert hasattr(cli.dk_sweep_detail, "__perfbench_original__")
        assert hasattr(rapklab.softmax_rows, "__perfbench_original__")
        attention.softmax_rows(np.zeros((3, 3)))
    assert _snapshot() == before
    assert sequences.FeatureSequence.__init__ is init_before
    assert not any(hasattr(v, "__perfbench_original__") for v in before.values())
    m = tracer.metrics()
    assert m["attention.softmax_rows.calls"] == 1
    assert m["attention.AttentionMatrix.calls"] == 1


def test_deleted_function_reads_as_zero_calls(monkeypatch):
    import rapklab.attention as attention

    monkeypatch.delattr(attention, "layer_norm_rows")
    with Tracer("t") as tracer:
        attention.softmax_rows(np.zeros((2, 2)))
    m = tracer.metrics()
    assert m["attention.layer_norm_rows.calls"] == 0
    assert m["attention.layer_norm_rows.s"] == 0.0
    assert set(m) | {n for n, _ in bench_trace.TRACE_METRICS} == {
        n for n, _ in bench_trace.per_layer_spec()
    }


@pytest.mark.parametrize("name", sorted(bench_workloads.WORKLOADS))
def test_workload_inputs_are_a_pure_function_of_the_seed(name, tmp_path):
    cls = bench_workloads.WORKLOADS[name]
    assert cls(3).inputs == cls(3).inputs
    assert cls(3).inputs != cls(4).inputs
    cls(3).write_inputs(tmp_path / "a")
    cls(3).write_inputs(tmp_path / "b")
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    for f in files:
        assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
    assert cls(3).ops(tmp_path, tmp_path / "p") == cls(3).ops(tmp_path, tmp_path / "p")


def test_seed_zero_is_the_reference_point():
    rt = bench_workloads.RtReference(0).inputs["config"]
    assert rt["synth"]["seed"] == 97531 and rt["seeds"] == [111]
    argv = dict(bench_workloads.KernelMc(0).ops(Path("i"), Path("p")))["kv"]
    assert argv[argv.index("--seed") + 1] == "0"


def test_encoder_flops_match_a_hand_count():
    cfg = EncoderConfig(n_heads=2, n_layers=1, d_k=4, window_w=2)
    # t=2 rows, d=4, head width 2.
    qkv = 3 * (2 * 2 * 4 * 2)         # three (2x4)@(4x2) projections
    scores_and_mix = 2 * (2 * 2 * 2 * 2)  # (2x2)@(2x2) twice
    out_linear = 2 * 2 * 4 * 4       # (2x4)@(4x4)
    ffn = 2 * 2 * 4 * 16 + 2 * 2 * 16 * 4
    assert encoder_window_flops(2, 4, cfg) == 2 * (qkv + scores_and_mix) + out_linear + ffn
    assert bench_trace.smoothing_flops(5, 4, cfg) == (
        2 * encoder_window_flops(2, 4, cfg) + encoder_window_flops(1, 4, cfg)
    )


def test_oracles_agree_with_the_library():
    from rapklab.rapk import rapk_coefficients, rapk_kernel
    from rapklab.sequences import FeatureSequence, StageSequence
    from rapklab.smoothers import majority_filter_smooth

    rng = np.random.default_rng(5)
    labels = rng.integers(0, 4, size=200)
    for w in (1, 2, 5, 10):
        lib = majority_filter_smooth(StageSequence(labels, 4), w).labels
        np.testing.assert_array_equal(oracle.mode_filter(labels, w, 4), lib)
    x = rng.standard_normal((10, 16))
    var = oracle.scheme_variance("xavier_uniform", 16, 64)
    seq = FeatureSequence(x)
    lib_kernel = rapk_kernel(seq, *rapk_coefficients(seq, 64, var, var, var))
    np.testing.assert_allclose(oracle.closed_form_kernel(x, 64, var), lib_kernel, rtol=1e-12)


def test_benchmark_json_matches_the_metrics_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == bench_trace.per_layer_spec()
    assert [w["name"] for w in spec["workloads"]] == list(bench_workloads.WORKLOADS)


def test_run_refuses_a_directory_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rt-reference", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
