import argparse
import csv
import hashlib
import json
import re
import shutil
import warnings
from dataclasses import fields

import numpy as np
import pytest
from oracles import closed_form_kernel

from rapklab import attention, cli, dataio, harness, initializers, synthgen
from rapklab.attention import EncoderConfig
from rapklab.cli import main
from rapklab.dataio import DatasetError, load_dataset
from rapklab.harness import COMPONENT_BUNDLES, SMOOTHERS, read_sweep_csv, write_sweep_csv
from rapklab.initializers import InitScheme, analytic_variance
from rapklab.montecarlo import centered_unit_sequence, dk_sweep_detail
from rapklab.seeding import mix_seed
from rapklab.synthgen import SynthConfig

SYNTH = {
    "n_classes": 3, "t_len": 60, "n_subjects": 4, "feat_dim": 4,
    "class_sep": 2.0, "noise_std": 0.4, "label_noise": 0.2, "seed": 5,
}
# The encoder of a test that switches the run config below to the random
# transformer: a moving average reads none of these fields, so its config
# may not set them.
RT_FLAGS = ["--smoother", "random_transformer", "--heads", "2", "--dk", "8"]
# RT_FLAGS less the flag of a field that the swept axis sets at every grid point.
RT_SWEEP_FLAGS = {"d_k": RT_FLAGS[:4], "heads_layers": RT_FLAGS[:2] + RT_FLAGS[4:]}


@pytest.fixture()
def run_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "synth": SYNTH,
        "smoother": "moving_average",
        "seeds": [111],
    }))
    return path


# sha256 of every file simulate writes for a 5-subject cohort, as written
# when the whole cohort was generated before the first file.
_SIMULATE_FILES = {
    "manifest.json": "caaf68b7cdf073f4a6c142d4054870bc20ae2c7cafe3ddad94f5efd4a371149d",
    "subject_000/features.csv": "9524dca6271d9cec6f8dfd5b2ff655b4dceda2a383545c918605ec97fc2d57ce",
    "subject_000/labels.csv": "ff96458542c750ac281fbb09ebe34530755535b4b905e3f445bc4b53061abda8",
    "subject_000/probs.csv": "ce6e0c7df8eb617e5e2abf498850c63097617b9f95f5da88423231514ad570b6",
    "subject_001/features.csv": "e5f3f85bb9bd3d573db007d8f4415f8db8341bd895b11779fe19a0472b603392",
    "subject_001/labels.csv": "3b1ef134745d6c750e07a49406bc744a20ae5092a6cb653ea4130266748dad8d",
    "subject_001/probs.csv": "75206928eead4d1f7973936e01402d174b71a5cea68e99d4580eb6f6cdf4e4c5",
    "subject_002/features.csv": "dcb50c7a2d89394fe494c2a10075eceac082797d297bb8bc00439196b625973f",
    "subject_002/labels.csv": "f3d8627cb5db8bb4d04ee143c082b8717c1587888c0dcc74dad65663a6fe8d22",
    "subject_002/probs.csv": "75a4c7a7c1d290f239f3cbcc008919f149634179c77dad7b5a38eaeda333fa6c",
    "subject_003/features.csv": "a50f3fb56a6831162102ad7471001c1c9259f628b7a2d9a565a621be8b1caa64",
    "subject_003/labels.csv": "24efd0cac41336c04f31423364cec3411428ea1e3f9b2db0e351300236f4a36f",
    "subject_003/probs.csv": "a0849c5102d66fa42fe752526bc456dfb1b208ef0d84844b543d6460e5c93aa3",
    "subject_004/features.csv": "f60931fbf38188fc3cae5e870201d6f288bbe235e76557b274bf9cd34ef924c1",
    "subject_004/labels.csv": "cda7d485219b8e20fe22e2a2a284b11f82c80ed749f162d68c9d10cefdba969d",
    "subject_004/probs.csv": "72164f19b1d563d87dc4571e6d24d753dc60f6314f66cb087ba0e6b7dbecc819",
}


def test_simulate_keeps_its_bytes(tmp_path):
    out = tmp_path / "ds"
    assert main([
        "simulate", "--out", str(out), "--classes", "3", "--t-len", "40",
        "--subjects", "5", "--feat-dim", "4", "--seed", "7",
    ]) == 0
    written = {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in out.rglob("*") if path.is_file()
    }
    assert written == _SIMULATE_FILES


# sha256 of every file of a small kernel-validate --dump-kernels run (nine
# sequences, so the per-block means over sequences are pairwise sums, and two
# trial blocks) and a small logit-stats run, under 1 and 2 BLAS threads alike.
_KERNEL_FILES = {
    "kv/kernel_emp_dk4_seq0.csv": "2cffb7dc395070f3ca8e9b1e413f435f633299c429a03b71c54eb292b3f81565",
    "kv/kernel_emp_dk4_seq1.csv": "107574800bb3a3aab68b0f72a743206f653e2c7917058cd2447e7dc4ac9f8ceb",
    "kv/kernel_emp_dk4_seq2.csv": "14d635a7eabb553b2afc53abc0656549f6fad695b2d50df44b58eaeefa07fc32",
    "kv/kernel_emp_dk4_seq3.csv": "d407a77900cf241b0a5420501b20c37adb857ece1a7e8ec054c0c18a266646c6",
    "kv/kernel_emp_dk4_seq4.csv": "6b355d370d14b6b8ebe260ba43a8ac9de06de8e336ab1c67da3efd32e2a253e2",
    "kv/kernel_emp_dk4_seq5.csv": "db943763bd276e2d8d743022c6c2003384527f200cc77a4e8d3a7e5dcbb9db00",
    "kv/kernel_emp_dk4_seq6.csv": "b8ecb00665707887c6a4447c6026174382583d099d61087bf9e720eec06d0e17",
    "kv/kernel_emp_dk4_seq7.csv": "1ed8c1657f042838e91e53e725acd8dd35f717798a2003a6e73c305bae0e32b6",
    "kv/kernel_emp_dk4_seq8.csv": "abcf311ce8fc2dbbff1a9bbd38bdccf30fdae6e717f1ac5d4fcbbfdb71232b30",
    "kv/kernel_emp_dk8_seq0.csv": "c4d6cf2a987583586de32736765da524624ec4f79507a60707f6ad8c51f5b551",
    "kv/kernel_emp_dk8_seq1.csv": "d0135c971d648f399d414a668b4c4c88f2382be4c92c7e1a0691c3a0faf5217d",
    "kv/kernel_emp_dk8_seq2.csv": "f2ecb61e407788bc817e35d43fce2489e2b21548f7c617f28a7b023446aa409f",
    "kv/kernel_emp_dk8_seq3.csv": "c10d893c98810f38d65bd4df03cc9277cd602dca2d72cb5f75671dac9117c5ae",
    "kv/kernel_emp_dk8_seq4.csv": "03ff81dfef8917c71ac1f4370e82f28e9a588b90ff3438303110c145dc621565",
    "kv/kernel_emp_dk8_seq5.csv": "4d5f7dda1393703170ea1e0470e8019d315f4eaf354648d3005f680cc544d51b",
    "kv/kernel_emp_dk8_seq6.csv": "9334b62d1949de7e83c51fa7c0769f2c100c72b2653d9dc7a651da30919bbd77",
    "kv/kernel_emp_dk8_seq7.csv": "e59c3b91cb4171652a51eca14778fbd89c809e9bdc6f6dac2ebaee5939be88d2",
    "kv/kernel_emp_dk8_seq8.csv": "c8c9014bd5bc51618883a1e8d1ac4260833f11d9c5f0c09be39c436c87e36dc5",
    "kv/kernel_theory_dk4_seq0.csv": "08c302c130db1771c71dd0b2b991e7b2aaa3f416dc794c2a5ff8de4254d8306b",
    "kv/kernel_theory_dk4_seq1.csv": "0115a0ee5b8cac9a52cdcb4c72f8ef4007cbf3a11a8f468187efa647f7a282de",
    "kv/kernel_theory_dk4_seq2.csv": "77eb4a7aa03eec5806ec418bd3aacfa73b0b3d22fa58d4adcbc382bf2c48cb17",
    "kv/kernel_theory_dk4_seq3.csv": "6e3074d979bba3ff4b4659df3c23bce7ea9a776876cb0e67561ac9c5cd6c4003",
    "kv/kernel_theory_dk4_seq4.csv": "b9c649eb43ba88853f60a5d9d551e228d4f78c1241e40142cea974e3a56ed383",
    "kv/kernel_theory_dk4_seq5.csv": "26a5dfe026f3c3d23d890e31e499618983c0a77e9a68f510cc942a847670736b",
    "kv/kernel_theory_dk4_seq6.csv": "57bacb0a154d386fd84e36b8a8699d463cee50ef87ef1c290b5e126d40ea0394",
    "kv/kernel_theory_dk4_seq7.csv": "24912a843ed0bdcd7686f5d28a8ae666d0ca0b795e7cc5fa6dcef7e2247f9385",
    "kv/kernel_theory_dk4_seq8.csv": "ca0720ceb17ccc831fc6e74ca3b4e4334b0003ca614c1a7e7f5144e2c30fa32e",
    "kv/kernel_theory_dk8_seq0.csv": "8365799f828c5c3eec89acd2826a2aea2d406e8cbf73c648b6946aba6c305ac2",
    "kv/kernel_theory_dk8_seq1.csv": "0d6121699de8fed79da1507a3e2364d70b2412de15129917a9f97687c96979dd",
    "kv/kernel_theory_dk8_seq2.csv": "e41cb75569c24f22b1615a57ff43cc4525715317ea77425aaae2b3fd660eda51",
    "kv/kernel_theory_dk8_seq3.csv": "6752b0dd772bbdd0e496d6780bad9eff98b4b4cdd3623b680b3458b49143d3ce",
    "kv/kernel_theory_dk8_seq4.csv": "9eb6da9069fb1f0e39c41835858be1517ab84f2a92badd0b6d40e96785d3144a",
    "kv/kernel_theory_dk8_seq5.csv": "9cb4eabf4a991d664df37489eed71d01c3c259d7f69344dbebe8e3acbb533480",
    "kv/kernel_theory_dk8_seq6.csv": "2074961f134518b7d4dd25bd6d7054fe6ef06d96b1a80f8b4cea51ab55881c8e",
    "kv/kernel_theory_dk8_seq7.csv": "3d301648d004811d50dd6fbbf8f32692f563d7846f45ef0da3bded749ffe3261",
    "kv/kernel_theory_dk8_seq8.csv": "81aa7ac161113e42239fd0939f3dfb4ccb8140294aeffd53275f6da7ad12ac1d",
    "kv/kernel_validation.csv": "bbf062112945206e221eeae6766ae06d09ffe337cc653714d4b7f7b66921c66a",
    "kv/kernel_validation.json": "834e1bfd3df9b85d3a9e77f6f31829c8eaec9b1c3401a92a20ee1e6e18c2b0d9",
    "ls/logit_stats.csv": "1a36822a07fbd2f400e4ed0e4e6070dc5a7d9620e4bf6bf1f00d17a0ac4dfd44",
    "ls/logit_stats.json": "c71d0f20fad2a730f9ef7e099ad45ecf932d81ae3d136dfb6ca72e674fa65b20",
}


def test_kernel_validate_and_logit_stats_keep_their_bytes(tmp_path):
    assert main([
        "kernel-validate", "--dump-kernels", "--t-len", "4", "--dim", "3", "--sequences", "9",
        "--trials", "150", "--dk-grid", "4,8", "--seed", "3", "--out", str(tmp_path / "kv"),
    ]) == 0
    assert main([
        "logit-stats", "--t-len", "4", "--dim", "8", "--trials", "100", "--dk-grid", "4,16",
        "--seed", "2", "--out", str(tmp_path / "ls"),
    ]) == 0
    written = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.rglob("*") if path.is_file()
    }
    assert written == _KERNEL_FILES


def test_simulate_writes_loadable_dataset(tmp_path, capsys):
    out = tmp_path / "ds"
    code = main([
        "simulate", "--out", str(out), "--classes", "3", "--t-len", "40",
        "--subjects", "3", "--feat-dim", "4", "--seed", "7",
    ])
    assert code == 0
    assert "wrote 3 subjects x 40 epochs" in capsys.readouterr().out
    ds = load_dataset(out)
    assert ds.n_classes == 3 and ds.feat_dim == 4


def test_simulate_rejects_bad_parameters(tmp_path, capsys):
    code = main(["simulate", "--out", str(tmp_path / "ds"), "--classes", "1"])
    assert code == 1
    assert "n_classes" in capsys.readouterr().err


def test_simulate_rejects_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"synth": {"bogus": 1}}))
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "ds")])
    assert code == 1
    assert "bad synth config" in capsys.readouterr().err
    for synth in ([1], {"t_len": 30.5}, {"seed": True}):  # never coerced
        cfg.write_text(json.dumps({"synth": synth}))
        out = str(tmp_path / "ds")
        assert main(["simulate", "--config", str(cfg), "--out", out, "--classes", "3"]) == 1
        assert "config key synth" in capsys.readouterr().err


def test_simulate_rejects_unknown_top_level_config_key(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    out = tmp_path / "ds"
    cfg.write_text(json.dumps({"synht": {"n_classes": 3}}))
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: unknown config keys: ['synht']\n"
    assert not out.exists()
    # Known run-config keys are still read by smooth-eval only.
    cfg.write_text(json.dumps({
        "synth": {"n_classes": 3}, "smoother": "none", "seeds": [1], "metric_window": 4,
    }))
    args = ["--t-len", "20", "--subjects", "3", "--feat-dim", "4"]
    assert main(["simulate", "--config", str(cfg), "--out", str(out), *args]) == 0
    assert load_dataset(out).n_classes == 3


def test_simulate_needs_out(capsys):
    assert main(["simulate", "--classes", "3"]) == 1
    assert "required: --out" in capsys.readouterr().err


def test_smooth_eval_with_config_file(run_config, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["smooth-eval", "--config", str(run_config), "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert text.startswith("moving_average: acc ")
    assert (out / "report.json").is_file()
    assert (out / "runs.csv").is_file()
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["smoother"] == "moving_average"
    assert len(report["per_seed"]) == 1


def test_smooth_eval_flag_overrides(run_config, tmp_path, capsys):
    code = main([
        "smooth-eval", "--config", str(run_config),
        "--smoother", "none", "--seed", "111,222",
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert text.startswith("none: acc ")
    assert "lsii n/a" in text
    # Every encoder flag reaches the resolved config in report.json.
    out = tmp_path / "run"
    assert main([
        "smooth-eval", "--config", str(run_config), "--smoother", "random_transformer",
        "--window", "4", "--dk", "6", "--heads", "3", "--layers", "2",
        "--init", "normal_0.02", "--no-use-ffn", "--out", str(out),
    ]) == 0
    encoder = json.loads((out / "report.json").read_text())["config"]["encoder"]
    assert {k: encoder[k] for k in ("window_w", "d_k", "n_heads", "n_layers", "init")} == {
        "window_w": 4, "d_k": 6, "n_heads": 3, "n_layers": 2, "init": "normal_0.02",
    }
    assert encoder["use_ffn"] is False and encoder["use_layernorm"] is True


def test_every_config_flag_sets_a_field_or_a_run_config_key():
    # A flag whose dest names no field would be parsed and then silently ignored.
    run_keys = {"dataset", "smoother", "seeds", "metric_window", "integer_median"}
    command_keys = {"help", "config", "out", "axis", "grid"}
    enc_fields = {f.name for f in fields(EncoderConfig)} - {"seed"}  # set by each run seed
    allowed = {
        "simulate": {f.name for f in fields(SynthConfig)},
        "smooth-eval": enc_fields | run_keys,
        "sweep": enc_fields | run_keys,
    }
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for command, keys in allowed.items():
        dests = {a.dest for a in sub.choices[command]._actions} - command_keys
        assert dests <= keys, (command, dests - keys)


def test_smooth_eval_missing_config_file(tmp_path, capsys):
    code = main(["smooth-eval", "--config", str(tmp_path / "absent.json")])
    assert code == 2
    assert "config file not found" in capsys.readouterr().err


def test_smooth_eval_invalid_config_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    assert main(["smooth-eval", "--config", str(path)]) == 2
    path.write_text("[1, 2]")
    assert main(["smooth-eval", "--config", str(path)]) == 2
    assert f"{path}: config is not a JSON object" in capsys.readouterr().err


def test_smooth_eval_unknown_config_key(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"synth": SYNTH, "smother": "none"}))
    assert main(["smooth-eval", "--config", str(path)]) == 1
    assert "unknown config keys" in capsys.readouterr().err
    # "dataset" is the only key that names a dataset directory.
    path.write_text(json.dumps({"dataset": str(tmp_path), "dataset_path": "b"}))
    assert main(["smooth-eval", "--config", str(path)]) == 1
    assert capsys.readouterr().err == "error: unknown config keys: ['dataset_path']\n"


def test_smooth_eval_rejects_encoder_seed(tmp_path, capsys):
    # Each run seed sets the encoder seed, so a config seed would be ignored.
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"synth": SYNTH, "encoder": {"seed": 5}}))
    assert main(["smooth-eval", "--config", str(path), "--smoother", "none"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "encoder.seed" in err


@pytest.mark.parametrize("key, value, name", [
    ("seeds", 5, "seeds"),
    ("seeds", "12", "seeds"),
    ("seeds", [1.5], "seeds[0]"),
    ("seeds", [True], "seeds[0]"),
    ("metric_window", "5", "metric_window"),
    ("integer_median", "no", "integer_median"),
    ("encoder", [1], "encoder"),
    ("encoder", {"use_ffn": "no"}, "encoder.use_ffn"),
    ("encoder", {"d_k": 8.0}, "encoder.d_k"),
    ("encoder", {"init": 5}, "encoder.init"),
    ("dataset", 5, "dataset"),
])
def test_config_value_of_the_wrong_type_is_a_usage_error(key, value, name, tmp_path, capsys):
    # Rejected, never coerced: bool("no") is True and JSON true is an int.
    path = tmp_path / "c.json"
    entry = {"synth": SYNTH, "smoother": "none", key: value}
    if key == "dataset":
        del entry["synth"]
    path.write_text(json.dumps(entry))
    for flags in ([], ["--window", "5"]):  # a flag merges into the file's encoder
        assert main(["smooth-eval", "--config", str(path), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"config key {name} must be " in err


def test_config_accepts_an_int_where_a_float_is_expected(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"synth": {**SYNTH, "class_sep": 2}, "smoother": "none"}))
    assert main(["smooth-eval", "--config", str(path), "--seed", "1"]) == 0
    assert capsys.readouterr().err == ""


def test_smooth_eval_missing_dataset_dir(tmp_path, capsys):
    code = main(["smooth-eval", "--dataset", str(tmp_path / "nope"), "--smoother", "none"])
    assert code == 2
    assert "missing manifest" in capsys.readouterr().err


def test_sweep_writes_csv(run_config, tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main([
        "sweep", "--config", str(run_config), "--axis", "window",
        "--grid", "2,3", "--out", str(out),
    ])
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "axis,value,seed,accuracy,weighted_f1,wte,lsii"
    # 1 seed + mean + std per grid value.
    assert len(lines) == 1 + 2 * 3
    assert "wrote 6 rows" in capsys.readouterr().out


@pytest.mark.parametrize("axis, grids, values", [
    ("init", ("kaiming_uniform,orthogonal", "kaiming_uniform_relu, orthogonal"),
     ["kaiming_uniform_relu", "orthogonal"]),
    ("heads", ("01x2,1x1", "1x2,1x01"), ["1x1", "1x2"]),
])
def test_sweep_names_each_grid_point_one_way(axis, grids, values, run_config, tmp_path):
    # Two spellings of one grid write the same sweep.csv, in canonical text.
    written = []
    for grid in grids:
        out = tmp_path / str(len(written))
        flags = RT_SWEEP_FLAGS.get(cli._AXIS_ALIASES.get(axis, axis), RT_FLAGS)
        assert main(["sweep", "--config", str(run_config), *flags,
                     "--axis", axis, "--grid", grid, "--out", str(out)]) == 0
        written.append((out / "sweep.csv").read_bytes())
    assert written[0] == written[1]
    rows = list(csv.DictReader(written[0].decode().splitlines()))
    assert sorted({row["value"] for row in rows}) == values


@pytest.mark.parametrize("alias, axis, grid", [("dk", "d_k", "4,8"),
                                               ("heads", "heads_layers", "1x1,2x1")])
def test_sweep_axis_aliases_write_the_same_csv(alias, axis, grid, run_config, tmp_path):
    # The short --axis spellings sweep the axis of their full name, which the rows carry.
    written = []
    for name in (alias, axis):
        out = tmp_path / name
        assert main(["sweep", "--config", str(run_config), *RT_SWEEP_FLAGS[axis],
                     "--axis", name, "--grid", grid, "--out", str(out)]) == 0
        written.append((out / "sweep.csv").read_bytes())
    assert written[0] == written[1]
    assert {row["axis"] for row in csv.DictReader(written[0].decode().splitlines())} == {axis}


def test_window_sweep_keeps_an_explicit_metric_window(tmp_path):
    # Each row of the sweep is the run at its window with the LSII window as given.
    data = tmp_path / "data"
    assert main(["simulate", "--classes", "3", "--t-len", "60", "--subjects", "5",
                 "--feat-dim", "4", "--seed", "3", "--out", str(data)]) == 0
    run = ["--dataset", str(data), "--smoother", "median", "--seed", "1"]
    sweeps = {}
    for flags in ([], ["--metric-window", "7"]):
        out = tmp_path / f"sweep{len(sweeps)}"
        assert main(["sweep", *run, "--axis", "window", "--grid", "3,5", *flags,
                     "--out", str(out)]) == 0
        sweeps[len(flags)] = read_sweep_csv(out / "sweep.csv")
    for w in (3, 5):
        out = tmp_path / f"eval{w}"
        assert main(["smooth-eval", *run, "--window", str(w), "--metric-window", "7",
                     "--out", str(out)]) == 0
        per_seed, = json.loads((out / "report.json").read_text())["per_seed"]
        row, = [r for r in sweeps[2] if r["value"] == str(w) and r["seed"] == 1]
        assert {name: row[name] for name in ("accuracy", "weighted_f1", "wte", "lsii")} == {
            name: per_seed[name] for name in ("accuracy", "weighted_f1", "wte", "lsii")}
    assert [r["lsii"] for r in sweeps[0]] != [r["lsii"] for r in sweeps[2]]


def test_sweep_bad_grid_and_missing_out(run_config, capsys):
    assert main([
        "sweep", "--config", str(run_config), "--axis", "window",
        "--grid", "2,x", "--out", "/tmp/unused",
    ]) == 1
    assert main([
        "sweep", "--config", str(run_config), "--axis", "window", "--grid", "2,3",
    ]) == 1
    assert "required: --out" in capsys.readouterr().err


# Each count flag: its command, and the flag or field its messages name.
_COUNTS = [
    ("smooth-eval", "--heads", "n_heads"),
    ("smooth-eval", "--layers", "n_layers"),
    ("smooth-eval", "--dk", "d_k"),
    ("smooth-eval", "--window", "window_w"),
    ("smooth-eval", "--metric-window", "metric_window"),
    ("simulate", "--classes", "n_classes"),
    ("simulate", "--t-len", "t_len"),
    ("simulate", "--subjects", "n_subjects"),
    ("simulate", "--feat-dim", "feat_dim"),
    ("kernel-validate", "--sequences", "--sequences"),
    ("kernel-validate", "--trials", "trials"),
    ("kernel-validate", "--t-len", "t_len"),
    ("kernel-validate", "--dim", "dim"),
    ("logit-stats", "--t-len", "--t-len"),
    ("logit-stats", "--dim", "--dim"),
    ("logit-stats", "--trials", "--trials"),
]


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--axis", "window", "--grid", "3,3"], "sweep grid for window repeats 3"),
    (["sweep", "--axis", "heads", "--grid", "1x1,1x1"],
     "sweep grid for heads_layers repeats '1x1'"),
    (["sweep", "--axis", "heads", "--grid", "2x"],
     "heads_layers value must look like '1x8', got '2x'"),
    (["sweep", "--axis", "heads", "--grid", "1x1,x8"],
     "heads_layers value must look like '1x8', got 'x8'"),
    (["sweep", "--axis", "heads", "--grid", "ax2"],
     "heads_layers value must look like '1x8', got 'ax2'"),
    (["smooth-eval", "--seed", "1,1"], "seeds repeat 1"),
    (["smooth-eval", "--window", "1"], "metric_window must be >= 2, got 1"),
    (["sweep", "--smoother", "median", "--axis", "dk"],
     "smoother 'median' uses no encoder field that the d_k axis sets (d_k), so each row would "
     "repeat one result"),
    (["smooth-eval", "--init", "normal_inf"],
     "init scheme 'normal_inf': normal requires scale_param < 1e+154 so that its "
     "variance is finite, got inf"),
    (["sweep", "--axis", "init", "--grid", "xavier_uniform,uniform_1e200"],
     "init scheme 'uniform_1e200': uniform requires scale_param < 1e+154 so that its "
     "variance is finite, got 1e+200"),
    (["kernel-validate", "--dk-grid", "0,16"], "--dk-grid values must be >= 1, got [0, 16]"),
    # Rows this large square past float64 in the logits or the analytic spread;
    # numpy's warnings fail these cases (pyproject's filterwarnings).
    *(pytest.param(["logit-stats", "--row-scale", scale],
                   "init scheme 'xavier_uniform': logits overflowed at d_k=32",
                   id=f"logit_stats_row_scale_{scale}")
      for scale in ("1e80", "1e100", "1e150", "1e200")),
    pytest.param(["logit-stats", "--row-scale", "1e308"],
                 "feature data contains non-finite values", id="logit_stats_row_scale_1e308"),
    # A seed outside [0, 2**64) would alias one inside: 2**64 drew as 0, -1
    # as 2**64 - 1, and a seed list could hold one draw twice.
    *(pytest.param([command, f"--seed={seed}"], f"seed must be in [0, 2**64), got {seed}",
                   id=f"{command}_seed_{seed}")
      for command in ("simulate", "kernel-validate", "logit-stats")
      for seed in (-1, 2**64)),
    pytest.param(["smooth-eval", "--seed", f"0,{2**64}"],
                 f"seed must be in [0, 2**64), got {2**64}", id="smooth-eval_seed_list_2**64"),
    # Every split needs a subject; too few was found only after --out was made.
    *(pytest.param(["simulate", "--subjects", n], f"n_subjects must be >= 3, got {n}",
                   id=f"simulate_subjects_{n}")
      for n in ("1", "2")),
    *(pytest.param(["smooth-eval", flag, "0"], f"{name} must be >= 1, got 0",
                   id=f"smooth-eval_{name}_0")
      for flag, name in (("--heads", "n_heads"), ("--layers", "n_layers"), ("--dk", "d_k"))),
    # A size of 2**63 or more fits no numpy shape or index. It was an
    # OverflowError traceback from the smoothers, numpy's "Maximum allowed
    # dimension exceeded" (after simulate had made --out), or, for the random
    # transformer's window, a report that held it.
    *(pytest.param(["smooth-eval", "--smoother", smoother, "--window", str(2**64)],
                   f"window_w must be < 2**63, got {2**64}",
                   id=f"smooth-eval_{smoother}_window_2**64")
      for smoother in ("median", "moving_average", "random_transformer")),
    pytest.param(["sweep", "--smoother", "median", "--axis", "window", "--grid", f"3,{2**64}"],
                 f"window_w must be < 2**63, got {2**64}", id="sweep_median_window_2**64"),
    pytest.param(["smooth-eval", "--smoother", "random_transformer", "--metric-window",
                  str(2**64)], f"metric_window must be < 2**63, got {2**64}",
                 id="smooth-eval_metric_window_2**64"),
    pytest.param(["smooth-eval", "--smoother", "random_transformer", "--dk", str(2**64)],
                 f"d_k must be < 2**63, got {2**64}", id="smooth-eval_dk_2**64"),
    pytest.param(["simulate", "--t-len", str(2**64)], f"t_len must be < 2**63, got {2**64}",
                 id="simulate_t_len_2**64"),
    # A Monte Carlo count is refused below 1 or at 2**63 or more, naming its
    # flag or field, before any draw; otherwise --sequences or --trials of
    # 2**64 runs until killed.
    *(pytest.param([command, flag, str(2**64)], f"{name} must be < 2**63, got {2**64}",
                   id=f"{command}{flag}_2**64")
      for command, flag, name in (
          ("kernel-validate", "--sequences", "--sequences"),
          ("kernel-validate", "--trials", "trials"),
          ("kernel-validate", "--t-len", "t_len"),
          ("kernel-validate", "--dim", "dim"),
          ("logit-stats", "--trials", "--trials"),
          ("logit-stats", "--t-len", "--t-len"),
          ("logit-stats", "--dim", "--dim"),
      )),
    pytest.param(["kernel-validate", "--dim", "0"], "dim must be >= 1, got 0",
                 id="kernel-validate--dim_0"),
    pytest.param(["logit-stats", "--t-len", "0"], "--t-len must be >= 1, got 0",
                 id="logit-stats--t-len_0"),
    pytest.param(["logit-stats", "--dim=-1"], "--dim must be >= 1, got -1",
                 id="logit-stats--dim_-1"),
    # Every count at 2**63, and one below its least value where no row above
    # has it, names its flag or field in one message.
    *(pytest.param([command, flag, str(2**63)], f"{name} must be < 2**63, got {2**63}",
                   id=f"{command}{flag}_2**63")
      for command, flag, name in _COUNTS),
    *(pytest.param([command, flag, str(low - 1)], f"{name} must be >= {low}, got {low - 1}",
                   id=f"{command}{flag}_{low - 1}")
      for command, flag, name, low in (
          ("smooth-eval", "--window", "window_w", 1),
          ("smooth-eval", "--metric-window", "metric_window", 2),
          ("simulate", "--classes", "n_classes", 2),
          ("simulate", "--t-len", "t_len", 2),
          ("kernel-validate", "--sequences", "--sequences", 1),
          ("kernel-validate", "--trials", "trials", 1),
          ("logit-stats", "--dim", "--dim", 1),
      )),
    # logit-stats needs 100 trials for stable statistics, and refuses fewer
    # before it draws its feature rows, however large they would be.
    *(pytest.param(["logit-stats", *flags, "--trials", n], f"--trials must be >= 100, got {n}",
                   id=f"logit-stats--trials_{n}")
      for n, flags in (("0", []), ("99", []),
                       ("50", ["--t-len", "1000000", "--dim", "1000000"]))),
    # An integer median is a variant of the median smoother only.
    pytest.param(["smooth-eval", "--smoother", "moving_average", "--integer-median"],
                 "integer_median applies only to the median smoother, got smoother "
                 "'moving_average'", id="smooth-eval_integer_median_moving_average"),
    # A value that the run's smoother or components never read keeps its
    # default, so that one experiment has one digest; and a sweep axis must
    # set a field that some grid point reads.
    *(pytest.param(["smooth-eval", "--smoother", "median", "--window", "5", "--seed", "1",
                    flag, value], f"smoother 'median' does not read {name}, so it must stay "
                   f"{default}, got {got}", id=f"smooth-eval_median{flag}")
      for flag, value, name, default, got in (
          ("--dk", "64", "d_k", 512, 64), ("--heads", "2", "n_heads", 8, 2),
          ("--layers", "2", "n_layers", 1, 2),
          ("--init", "orthogonal", "init", "'xavier_uniform'", "'orthogonal'"),
      )),
    pytest.param(["smooth-eval", "--smoother", "fixed_attention", "--use-positional"],
                 "smoother 'fixed_attention' does not read use_positional, so it must stay "
                 "False, got True", id="smooth-eval_fixed_attention--use-positional"),
    *(pytest.param(["smooth-eval", "--smoother", "none", flag, "7"],
                   f"smoother 'none' does not read {name}, so it must stay 10, got 7",
                   id=f"smooth-eval_none{flag}")
      for flag, name in (("--window", "window_w"), ("--metric-window", "metric_window"))),
    *(pytest.param(["smooth-eval", "--smoother", "random_transformer", "--no-use-attention",
                    flag, "2"], "smoother 'random_transformer' with use_attention false does "
                   f"not read {name}, so it must stay {default}, got 2",
                   id=f"smooth-eval_no_attention{flag}")
      for flag, name, default in (("--heads", "n_heads", 8), ("--dk", "d_k", 512))),
    pytest.param(["sweep", "--smoother", "none", "--axis", "window", "--grid", "5,10"],
                 "smoother 'none' uses no encoder field that the window axis sets (window_w), "
                 "so each row would repeat one result", id="sweep_none_window"),
    pytest.param(["sweep", "--smoother", "random_transformer", "--no-use-attention",
                  "--axis", "d_k", "--grid", "16,64"],
                 "smoother 'random_transformer' with use_attention false uses no encoder field "
                 "that the d_k axis sets (d_k), so each row would repeat one result",
                 id="sweep_no_attention_d_k"),
    # The grid is named by the axis as typed, alias or not.
    *(pytest.param(["sweep", "--axis", axis, "--grid", "4,x"], f"bad --grid for {axis}: '4,x'",
                   id=f"sweep_grid_for_{axis}")
      for axis in ("dk", "d_k")),
    # A synthetic scale must stay below 1e154, so that its square is finite,
    # and nan is refused too, before --out is made.
    *(pytest.param(["simulate", flag, value], f"{name} must lie in {span}, got {value}",
                   id=f"simulate{flag}_{value}")
      for flag, name, span, value in (
          ("--noise-std", "noise_std", "[0, 1e+154)", "nan"),
          ("--noise-std", "noise_std", "[0, 1e+154)", "inf"),
          ("--noise-std", "noise_std", "[0, 1e+154)", "1e+308"),
          ("--class-sep", "class_sep", "(0, 1e+154)", "inf"),
      )),
    # Both Monte Carlo commands check --dk-grid by one rule, with one message
    # (kernel-validate's 0,16 is a row above).
    *(pytest.param([command, "--dk-grid", grid], message, id=f"{command}_dk_grid_{grid}")
      for grid, message in (
          ("0,16", "--dk-grid values must be >= 1, got [0, 16]"),
          ("16,16", "--dk-grid must be a non-empty list without repeats, got [16, 16]"),
          (",", "--dk-grid must be a non-empty list without repeats, got []"),
          (f"16,{2**64}", f"--dk-grid value must be < 2**63, got {2**64}"),
      )
      for command in ("kernel-validate", "logit-stats")
      if (command, grid) != ("kernel-validate", "0,16")),
])
def test_bad_or_repeated_values_are_one_error_line(argv, message, run_config, tmp_path,
                                                   monkeypatch, capsys):
    def made(*args):
        raise AssertionError("a subject or a matrix was made before the values were checked")

    monkeypatch.setattr(synthgen, "gen_features", made)
    if "--row-scale" not in argv:  # its overflow shows only in the logits it draws
        monkeypatch.setattr(np.random, "PCG64", made)  # every draw seeds a PCG64
    config = ["--config", str(run_config)] if argv[0] in ("smooth-eval", "sweep") else []
    assert main([*argv, *config, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


# Faults met only part way through a run: a train split that misses a class,
# a test subject without probs.csv under a smoother that reads them, and a
# train subject whose probs.csv is one row short or holds a row that is not a
# probability vector.
_FOUR_SUBJECTS = ["--classes", "3", "--t-len", "20", "--subjects", "4", "--feat-dim", "4",
                  "--seed", "1"]
_MID_RUN_FLAGS = {
    "train_misses_a_class": ["--subjects", "3", "--t-len", "5", "--feat-dim", "5",
                             "--self-prob", "1", "--label-noise", "1"],
    "test_subject_without_probs": _FOUR_SUBJECTS,
    "probs_row_short": _FOUR_SUBJECTS,
    "probs_row_not_a_distribution": _FOUR_SUBJECTS,
}


@pytest.mark.parametrize("command, case, smoother", [
    pytest.param(command, case, smoother, id=f"{case}-{smoother}-command{i}")
    for case, smoother in (
        ("train_misses_a_class", "fixed_attention"),
        ("train_misses_a_class", "none"),
        ("test_subject_without_probs", "median"),
        ("test_subject_without_probs", "moving_average"),
        ("probs_row_short", "none"),
        ("probs_row_not_a_distribution", "median"),
    )
    for i, command in enumerate([["smooth-eval"], ["sweep", "--axis", "window", "--grid", "3,5"]])
    if (smoother, i) != ("none", 1)  # no axis sets a field that none reads
])
def test_dataset_faults_found_mid_run_are_one_error_line(case, smoother, command, tmp_path,
                                                         capsys):
    root = tmp_path / "ds"
    assert main(["simulate", "--out", str(root), *_MID_RUN_FLAGS[case]]) == 0
    subjects = json.loads((root / "manifest.json").read_text())["subjects"]
    if case == "train_misses_a_class":
        message = f"{root}: class 0 has no training examples; cannot place a centroid"
    elif case == "test_subject_without_probs":
        sub_id = [e["id"] for e in subjects if e["split"] == "test"][-1]
        (root / sub_id / "probs.csv").unlink()
        message = (f"{root}: smoother {smoother!r} needs per-epoch probabilities, "
                   f"but {sub_id} has none")
    else:
        sub_dir = root / next(e["id"] for e in subjects if e["split"] == "train")
        lines = (sub_dir / "probs.csv").read_text().splitlines()
        if case == "probs_row_short":
            lines.pop()
            message = f"{sub_dir}: probs.csv has 19 rows but labels.csv has 20"
        else:
            lines[1] = "1.0,0.5,0.0"
            message = (f"{sub_dir / 'probs.csv'}: probability rows must sum to 1 within 1e-06; "
                       "row 0 sums to 1.5")
        (sub_dir / "probs.csv").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    out = tmp_path / "out"
    assert main([*command, "--dataset", str(root), "--smoother", smoother,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


_NUMPY_ALLOCATION = ("Unable to allocate 192. TiB for an array with shape "
                     "(8, 3, 2, 549755813888) and data type float64")


@pytest.mark.parametrize("raised, line", [
    pytest.param(MemoryError(_NUMPY_ALLOCATION), _NUMPY_ALLOCATION, id="numpy"),
    # The interpreter's own MemoryError (a list or bytes allocation) has no message.
    pytest.param(MemoryError(), "MemoryError", id="interpreter"),
])
def test_an_allocation_failure_is_one_error_line(run_config, tmp_path, monkeypatch, capsys,
                                                 raised, line):
    # A size that passes every check yet cannot be allocated: the draw is made
    # to fail as numpy fails, since whether a huge allocation fails at once
    # depends on the host's overcommit policy.
    def draw(cfg, d):
        raise raised

    monkeypatch.setattr(harness, "build_encoder_weights", draw)
    out = tmp_path / "out"
    assert main(["smooth-eval", "--config", str(run_config), "--smoother", "random_transformer",
                 "--dk", str(2**40), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {line}\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", ["metrics_classes", "metrics_label_file", "simulate",
                                  "layers_probe", "layers_real"])
def test_an_allocation_failure_names_its_flag_or_file(case, run_config, tmp_path, monkeypatch,
                                                      capsys):
    # Each allocation is made to fail as numpy fails, except the real --layers
    # case, which draws only layer 0 before it is refused.
    def fail(*args):
        raise MemoryError(_NUMPY_ALLOCATION)

    labels = tmp_path / "labels.csv"
    labels.write_text("stage\n0\n1\n")
    out = tmp_path / "out"
    encoder = ["smooth-eval", "--config", str(run_config), *RT_FLAGS]
    if case.startswith("metrics"):
        monkeypatch.setattr(cli, "wte_pooled", fail)
        classes = ["--classes", "5"] if case == "metrics_classes" else []
        code = main(["metrics", "--labels", str(labels), *classes, "--out", str(out)])
        line = (f"--classes 5: {_NUMPY_ALLOCATION}" if classes
                else f"{labels}: {_NUMPY_ALLOCATION}")
        assert (code, capsys.readouterr().err) == (1 if classes else 2, f"error: {line}\n")
    elif case == "simulate":
        monkeypatch.setattr(synthgen, "gen_features", fail)
        assert main(["simulate", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {_NUMPY_ALLOCATION}\n"
    elif case == "layers_probe":
        # Layer 0 of this encoder holds 2048 bytes: Q/K/V 4x24, output 8x4, FFN 4x16 and 16x4.
        monkeypatch.setattr(attention, "_physical_memory", lambda: 4095)
        assert main([*encoder, "--layers", "2", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: n_layers=2 layers of 2048 bytes each need 4096 bytes, "
            "more than the 4095 bytes of physical memory\n")
    else:
        if attention._physical_memory() is None:
            pytest.skip("without a memory size the layers would be drawn until killed")
        assert main([*encoder, "--layers", "100000000000", "--out", str(out)]) == 1
        assert re.fullmatch(r"error: n_layers=100000000000 layers of 2048 bytes each need "
                            r"204800000000000 bytes, more than the \d+ bytes of physical "
                            r"memory\n", capsys.readouterr().err)
    assert not out.exists()


def test_simulate_that_fails_before_its_first_subject_keeps_the_old_dataset(tmp_path,
                                                                           monkeypatch, capsys):
    out = tmp_path / "out"
    assert main(["simulate", "--out", str(out), *_FOUR_SUBJECTS]) == 0
    before = {path: path.read_bytes() for path in out.rglob("*") if path.is_file()}

    def fail(*args):
        raise MemoryError(_NUMPY_ALLOCATION)

    monkeypatch.setattr(synthgen, "gen_features", fail)
    assert main(["simulate", "--out", str(out), *_FOUR_SUBJECTS]) == 1
    assert {path: path.read_bytes() for path in out.rglob("*") if path.is_file()} == before


# Every int or float option of every command runs at each of these values.
_EDGE_VALUES = ["-1", "0", "1", "2", str(2**63), str(2**64), "nan", "inf", "-inf", "1e-320",
                "1e308"]


def test_every_numeric_flag_at_edge_values_runs_or_is_one_error_line(tmp_path, monkeypatch,
                                                                      capsys):
    # Each run on tiny valid inputs exits 0 with nothing on stderr, or exits 1
    # or 2 with one error line and nothing under --out; no run may warn. An
    # int flag that fails as a usage error names itself or its field. A seed
    # is valid up to 2**64 - 1, but any other int flag at 2**63 or more is a
    # size no array can hold: it must fail as a usage error before any draw,
    # so draws raise there instead of running until killed. A float flag
    # takes 2**63 as an ordinary finite value and runs unpatched.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "synth": {"n_classes": 2, "t_len": 12, "n_subjects": 3, "feat_dim": 2, "self_prob": 0.5,
                  "seed": 3},
        "encoder": {"n_heads": 1, "d_k": 2, "window_w": 2}, "seeds": [1],
    }))
    labels = tmp_path / "labels.csv"
    labels.write_text("stage\n0\n1\n1\n0\n")
    run = ["--config", str(config), "--smoother", "random_transformer"]
    base = {
        "simulate": ["--classes", "2", "--t-len", "4", "--subjects", "3", "--feat-dim", "2"],
        "smooth-eval": run,
        "sweep": [*run, "--axis", "init", "--grid", "xavier_uniform"],
        "kernel-validate": ["--t-len", "2", "--dim", "2", "--sequences", "1", "--trials", "2",
                            "--dk-grid", "1"],
        "logit-stats": ["--t-len", "2", "--dim", "2", "--trials", "100", "--dk-grid", "1",
                        "--schemes", "xavier_uniform"],
        "metrics": ["--labels", str(labels), "--none", str(labels), "--corr", str(labels),
                    "--window", "2"],
    }
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = [(command, action) for command, parser in sub.choices.items()
               for action in parser._actions if action.type in (int, float)]
    assert len(options) >= 31 and {command for command, _ in options} == set(base)

    def draw(seed):
        raise AssertionError(f"{argv} drew before failing")

    for n, (command, action) in enumerate(options):
        flag = action.option_strings[0]
        for value in _EDGE_VALUES:
            out = tmp_path / f"out{n}_{value}"
            argv = [command, *base[command], f"{flag}={value}", "--out", str(out)]
            size = action.type is int and action.dest != "seed" and value in _EDGE_VALUES[4:6]
            with monkeypatch.context() as patch, warnings.catch_warnings():
                warnings.simplefilter("error")
                if size:
                    patch.setattr(np.random, "PCG64", draw)  # every draw seeds a PCG64
                code = main(argv)
            err = capsys.readouterr().err
            if code == 0 and not size:
                assert err == "", argv
                continue
            assert code in (1, 2) and err.startswith("error: ") and err.count("\n") == 1, argv
            assert not out.exists(), argv
            if action.type is int and (code == 1 or size):
                # The name ends there: "dim" in "dimensions" names nothing.
                named = rf"({flag.lstrip('-')}|{action.dest})(?![\w-])"
                assert code == 1 and re.search(named, err), (argv, err)


# The smoothers that draw nothing from a run seed.
_SEED_FREE = ("none", "moving_average", "median", "fixed_attention")

# Options that may leave every output as it was, but for the config it
# echoes, each with its reason, keyed by (command, base run, option) with "*"
# for any command or base run. The influence walker below names a base run by
# its smoother, or the random transformer's as random_transformer:<bundle>.
_NO_INFLUENCE = {
    ("*", "*", "--out"): "it says where the outputs go",
    **{(command, "*", "--config"): "it names the base run's config file, whose every key is "
                                   "walked as a flag"
       for command in ("smooth-eval", "sweep")},
    ("simulate", "*", "--config"): "simulate reads only the synth keys of a run config and "
                                   "ignores the others, as documented",
    ("metrics", "*", "--classes"): "it only bounds the labels: --labels with --classes 7 "
                                   "writes the same WTE as without it",
    **{(command, smoother, "--seed"): "a smoother without a seed repeats one result for each "
                                      "run seed"
       for command in ("smooth-eval", "sweep") for smoother in _SEED_FREE},
    # What the rule in harness.fields_read accepts although nothing reads it.
    **{(command, f"random_transformer:{bundle}", option): "without attention, an FFN or "
       "positional rows the encoder draws no weights and adds no residual, and more layers "
       "only repeat a layer norm, which moves no prediction here"
       for command in ("smooth-eval", "sweep") for bundle in ("none", "layernorm")
       for option in ("--seed", "--init", "--layers", "--use-residual")},
    **{(command, "random_transformer:none", option): "with every component off the encoder "
       "is the identity, so the run scores as none does, with no LSII"
       for command in ("smooth-eval", "sweep") for option in ("--window", "--metric-window")},
}


def _no_influence(command, base, option):
    keys = ((command, base, option), (command, "*", option), ("*", "*", option))
    return next((_NO_INFLUENCE[key] for key in keys if key in _NO_INFLUENCE), None)


def _subparsers():
    return next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_every_exemption_names_an_option_the_parser_has():
    options = {(command, option) for command, parser in _subparsers().items()
               for action in parser._actions for option in action.option_strings}
    for command, _, option in _NO_INFLUENCE:
        commands = _subparsers() if command == "*" else [command]
        assert any((c, option) in options for c in commands), (command, option)


def _outputs(out):
    # What a run wrote, less the config it echoes: report.json without its
    # config, digest and run seeds, sweep.csv without its seed column, and no
    # runs.csv, whose other columns report.json holds.
    files = {}
    for path in sorted(out.rglob("*")) if out.exists() else []:
        name = path.relative_to(out).as_posix()
        if name == "report.json":
            report = json.loads(path.read_text())
            del report["config"], report["config_digest"]
            for row in report["per_seed"]:
                del row["config_digest"], row["seed"]
            files[name] = report
        elif name == "sweep.csv":
            files[name] = [row[:2] + row[3:] for row in csv.reader(path.open())]
        elif name != "runs.csv" and path.is_file():
            files[name] = path.read_bytes()
    return files


def test_every_option_changes_an_output_or_is_refused_naming_itself(tmp_path, capsys):
    # From a tiny base run of each command, and for smooth-eval and sweep one
    # per smoother and per component bundle of the random transformer, every
    # option of cli.build_parser() is set alone to a non-default valid value.
    # The run must then change its stdout or some output file beyond the
    # config it echoes, or exit 1 with one error line that names the option
    # and no --out; unless _NO_INFLUENCE lists the option for that base run.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "synth": {"n_classes": 3, "t_len": 60, "n_subjects": 3, "feat_dim": 16,
                  "self_prob": 0.5, "class_sep": 0.5, "seed": 3},
        "seeds": [1],
    }))
    labels = {}
    for name, stages in (("labels", "0 1 1 2 0 0 2 1 "), ("corr", "0 1 1 1 0 0 0 1 "),
                         ("other", "0 0 1 2 2 0 2 2 ")):
        labels[name] = tmp_path / f"{name}.csv"
        labels[name].write_text("stage\n" + "\n".join((stages * 4).split()) + "\n")
    for name, grid in (("sweep", "3,5,8"), ("other_sweep", "4,6,9")):
        assert main(["sweep", "--config", str(config), "--smoother", "median", "--axis", "window",
                     "--grid", grid, "--out", str(tmp_path / name)]) == 0
    data = tmp_path / "data"
    assert main(["simulate", "--classes", "3", "--t-len", "60", "--subjects", "3",
                 "--feat-dim", "16", "--self-prob", "0.5", "--seed", "8",
                 "--out", str(data)]) == 0
    numbers = {int: ("16", "24"), float: ("0.25", "0.5")}
    strings = {  # by dest, for each option that takes any string
        "seeds": "2", "init": "orthogonal", "dataset": str(data), "grid": "3,4",
        "dk_grid": "2", "scheme": "orthogonal", "schemes": "orthogonal",
        "labels": str(labels["other"]), "none": str(labels["other"]),
        "corr": str(labels["other"]), "csv": str(tmp_path / "other_sweep" / "sweep.csv"),
    }

    def use_flags(flags):
        return [f"--{'' if on else 'no-'}{flag.replace('_', '-')}" for flag, on in flags.items()]

    run = ["--config", str(config)]

    def transformer(flags):
        # With attention off its fields are unread, so they keep their defaults.
        if not flags["use_attention"]:
            return [*run, "--smoother", "random_transformer",
                    *use_flags({**flags, "use_output_linear": True})]
        return [*run, "--smoother", "random_transformer", "--heads", "2", "--dk", "16",
                *use_flags(flags)]

    encoder_bases = {
        **{smoother: [*run, "--smoother", smoother, *use_flags(COMPONENT_BUNDLES["full"])]
           for smoother in _SEED_FREE},
        **{f"random_transformer:{bundle}": transformer(flags)
           for bundle, flags in COMPONENT_BUNDLES.items()},
    }
    bases = [
        ("simulate", "*", ["--classes", "2", "--t-len", "4", "--subjects", "3",
                           "--feat-dim", "16"]),
        *(("smooth-eval", name, argv) for name, argv in encoder_bases.items()),
        # No sweep axis sets a field that none reads.
        *(("sweep", name, [*argv, "--axis", "window"]) for name, argv in encoder_bases.items()
          if name != "none"),
        ("kernel-validate", "*", ["--t-len", "2", "--dim", "2", "--sequences", "1",
                                  "--trials", "2", "--dk-grid", "1"]),
        ("logit-stats", "*", ["--t-len", "2", "--dim", "2", "--trials", "100", "--dk-grid", "1",
                              "--schemes", "xavier_uniform"]),
        ("metrics", "*", ["--labels", str(labels["labels"]), "--none", str(labels["labels"]),
                          "--corr", str(labels["corr"]), "--window", "2"]),
        ("correlate", "*", ["--csv", str(tmp_path / "sweep" / "sweep.csv")]),
    ]
    parsers = _subparsers()
    assert {command for command, _, _ in bases} == set(parsers)
    out = tmp_path / "out"

    def call(command, argv):
        code = main([command, *argv])
        stdout, err = capsys.readouterr()
        written = (stdout, _outputs(out))
        shutil.rmtree(out, ignore_errors=True)
        return code, err, written

    walked, unmoved = 0, []
    for command, base, argv in bases:
        if any(action.dest == "out" for action in parsers[command]._actions):
            argv = [*argv, "--out", str(out)]
        code, err, before = call(command, argv)
        assert (code, err) == (0, ""), (command, base, err)
        given = parsers[command].parse_args(argv)
        for action in parsers[command]._actions:
            if not action.option_strings or isinstance(action, argparse._HelpAction):
                continue
            flag, now = action.option_strings[0], getattr(given, action.dest)
            if _no_influence(command, base, flag) is not None:
                continue
            if isinstance(action, argparse.BooleanOptionalAction):
                option = [action.option_strings[bool(now)]]  # --use-x, or --no-use-x if set
            elif action.nargs == 0:  # store_true
                option = [flag]
            elif action.choices is not None:
                option = [flag, next(c for c in action.choices if c != now)]
            elif action.type in numbers:
                option = [flag, next(v for v in numbers[action.type] if action.type(v) != now)]
            else:  # a new option that takes any string needs its value in strings
                option = [flag, strings[action.dest]]
            code, err, after = call(command, [*argv, *option])
            walked += 1
            named = rf"error: .*({flag.lstrip('-')}|{action.dest})(?![\w-])"
            refused = code == 1 and err.count("\n") == 1 and re.match(named, err)
            if (code, after) == (0, before) or code and not (refused and after[1] == {}):
                unmoved.append((command, base, option, code, err))
    assert unmoved == [], "\n".join(map(str, unmoved))
    assert walked > 200


@pytest.mark.parametrize("axis", sorted(cli._DEFAULT_GRIDS))
def test_every_default_grid_builds_through_apply_axis(axis, run_config, tmp_path,
                                                      monkeypatch, capsys):
    # Each default grid point builds, and the grid passes every check, up to
    # the point where the sweep would open its data.
    labels, real = [], harness.apply_axis

    def apply_axis(base, name, value):
        label, cfg = real(base, name, value)
        labels.append(label)
        return label, cfg

    def reached(cfg):
        raise DatasetError("reached the data")

    monkeypatch.setattr(harness, "apply_axis", apply_axis)
    monkeypatch.setattr(harness, "_open_data", reached)
    assert main(["sweep", "--config", str(run_config), "--smoother", "random_transformer",
                 "--axis", axis, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: reached the data\n"
    assert [str(label) for label in labels] == cli._DEFAULT_GRIDS[axis].split(",")


def test_repeated_seeds_in_the_config_file(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"synth": SYNTH, "seeds": [7, 8, 7]}))
    assert main(["smooth-eval", "--config", str(config)]) == 1
    assert capsys.readouterr().err == "error: seeds repeat 7\n"


# A missing --out, or one that names a file, is found before any work.
@pytest.mark.parametrize("argv", [
    ["sweep", "--config", "CONFIG", "--axis", "window", "--grid", "2,3"],
    ["kernel-validate", "--trials", "10"],
    ["logit-stats", "--trials", "10"],
    *([*argv, "--out", "FILE"] for argv in (
        ["sweep", "--config", "CONFIG", "--axis", "window"], ["kernel-validate"], ["logit-stats"],
        ["smooth-eval", "--config", "CONFIG"], ["simulate"], ["metrics", "--labels", "FILE"])),
])
def test_missing_out_fails_before_any_work(argv, run_config, tmp_path, monkeypatch, capsys):
    def work(*args, **kwargs):
        raise AssertionError("the command ran its work before checking --out")

    for name in ("run_sweep", "dk_sweep_detail", "logit_concentration", "run_pipeline",
                 "save_dataset", "read_label_csv"):
        monkeypatch.setattr(cli, name, work)
    afile = tmp_path / "afile"
    afile.write_text("stage\n0\n1\n")
    argv = [{"CONFIG": str(run_config), "FILE": str(afile)}.get(a, a) for a in argv]
    code, line = ((2, f"--out {afile} exists and is not a directory") if "--out" in argv
                  else (1, "the following arguments are required: --out"))
    assert (main(argv), capsys.readouterr().err) == (code, f"error: {line}\n")
    assert afile.read_text() == "stage\n0\n1\n"


def test_kernel_validate(tmp_path, capsys):
    out = tmp_path / "kv"
    code = main([
        "kernel-validate", "--out", str(out), "--t-len", "4", "--dim", "3",
        "--sequences", "1", "--trials", "100", "--dk-grid", "4,16",
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "d_k=4: mse" in text and "d_k=16: mse" in text
    payload = json.loads((out / "kernel_validation.json").read_text())
    assert payload["d_k_grid"] == [4, 16]
    assert payload["scheme"] == "xavier_uniform"
    lines = (out / "kernel_validation.csv").read_text().splitlines()
    assert lines[0] == "d_k,trial_block,mse,pearson"
    assert len(lines) == 3  # one 100-trial block per d_k


def test_kernel_validate_keeps_the_dk_grid_order_given(tmp_path):
    out = tmp_path / "kv"
    assert main(["kernel-validate", "--out", str(out), "--t-len", "4", "--dim", "3",
                 "--sequences", "1", "--trials", "100", "--dk-grid", "64,16"]) == 0
    assert json.loads((out / "kernel_validation.json").read_text())["d_k_grid"] == [64, 16]
    lines = (out / "kernel_validation.csv").read_text().splitlines()[1:]
    assert [line.split(",")[0] for line in lines] == ["64", "16"]


def test_kernel_validate_names_its_scheme_one_way(tmp_path):
    # Two spellings of one scheme run the same draws and write the same files.
    written = []
    for scheme in ("kaiming_uniform", " kaiming_uniform_relu"):
        out = tmp_path / str(len(written))
        assert main(["kernel-validate", "--scheme", scheme, "--t-len", "4", "--dim", "3",
                     "--sequences", "1", "--trials", "20", "--dk-grid", "4",
                     "--out", str(out)]) == 0
        written.append({path.name: path.read_bytes() for path in out.iterdir()})
    assert written[0] == written[1]
    assert json.loads(written[0]["kernel_validation.json"])["scheme"] == "kaiming_uniform_relu"


def test_kernel_validate_dump_kernels(tmp_path):
    out = tmp_path / "kv"
    code = main([
        "kernel-validate", "--out", str(out), "--t-len", "4", "--dim", "3", "--seed", "5",
        "--sequences", "2", "--trials", "120", "--dk-grid", "4,8", "--dump-kernels",
    ])
    assert code == 0
    # Each dumped kernel parses back to dk_sweep_detail's estimate for its
    # (d_k, sequence) point, and to the closed form.
    scheme = InitScheme("xavier_uniform")
    xs = [centered_unit_sequence(4, 3, mix_seed(5, si)) for si in range(2)]
    kernels = dk_sweep_detail(xs, scheme, (4, 8), 120, 5)[2]
    estimates = {(d_k, si): emp for d_k, si, emp, _ in kernels}
    for d_k in (4, 8):
        for si, x in enumerate(xs):
            emp = np.loadtxt(out / f"kernel_emp_dk{d_k}_seq{si}.csv", delimiter=",")
            np.testing.assert_array_equal(emp, estimates[d_k, si])
            theory = np.loadtxt(out / f"kernel_theory_dk{d_k}_seq{si}.csv", delimiter=",")
            var = analytic_variance(scheme, 3, d_k)
            np.testing.assert_allclose(theory, closed_form_kernel(x.data, d_k, var), rtol=1e-12)


def test_kernel_validate_rejects_bad_args(tmp_path, capsys):
    assert main([
        "kernel-validate", "--out", str(tmp_path), "--sequences", "0",
    ]) == 1
    assert main([
        "kernel-validate", "--out", str(tmp_path), "--dk-grid", "16,nope",
    ]) == 1
    assert main([
        "kernel-validate", "--out", str(tmp_path), "--scheme", "spectral",
    ]) == 1
    assert "unknown init scheme" in capsys.readouterr().err


@pytest.mark.parametrize("flags, fragment", [
    (["--schemes", "xavier_uniform,orthogonal,glorot"], "unknown init scheme label 'glorot'"),
    (["--schemes", "xavier_uniform,normal_x"], "bad numeric suffix"),
    (["--dk-grid", "32,128,0"], "--dk-grid values must be >= 1"),
    (["--dk-grid", "32,-4"], "--dk-grid values must be >= 1"),
    (["--dk-grid", "8,8"], "--dk-grid must be a non-empty list without repeats"),
    (["--dk-grid", ","], "--dk-grid must be a non-empty list without repeats"),
    (["--schemes", ","], "--schemes must be a non-empty list without repeats"),
    (["--schemes", "orthogonal,xavier_uniform,orthogonal"], "--schemes must be a non-empty"),
    (["--schemes", "normal_0.02,normal_0.020"], "--schemes must be a non-empty"),
    (["--schemes", "xavier_uniform,trunc_normal_inf"],
     "init scheme 'trunc_normal_inf': trunc_normal requires scale_param < 1e+154"),
])
def test_logit_stats_checks_every_argument_before_drawing(flags, fragment, tmp_path,
                                                          monkeypatch, capsys):
    def draw(*args, **kwargs):
        raise AssertionError("logit-stats drew before checking its arguments")

    monkeypatch.setattr(cli, "logit_concentration", draw)
    assert main(["logit-stats", "--out", str(tmp_path / "ls"), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and fragment in err
    assert not (tmp_path / "ls").exists()


@pytest.mark.parametrize("label", ["normal_1e308", "uniform_inf"])
def test_kernel_validate_rejects_an_overflowing_scale_before_any_draw(label, tmp_path,
                                                                       monkeypatch, capsys):
    def draw(*args, **kwargs):
        raise AssertionError("a matrix was drawn before the scheme was checked")

    monkeypatch.setattr(initializers, "_rng", draw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["kernel-validate", "--scheme", label, "--out", str(tmp_path / "kv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: init scheme '{label}': ") and err.count("\n") == 1
    assert "so that its variance is finite" in err
    assert not (tmp_path / "kv").exists()


@pytest.mark.parametrize("argv, message", [
    (["smooth-eval", *RT_FLAGS, "--init", "normal_1e100"], "values overflowed in a layer norm"),
    (["kernel-validate", "--scheme", "normal_1e100"],
     "the closed-form kernel coefficients overflowed"),
])
def test_an_init_whose_values_overflow_is_one_error_line(argv, message, run_config, tmp_path,
                                                         capsys):
    # normal_1e100 passes the scale bound, but the encoder's layer norm and the
    # closed-form kernel (C1 grows as the variance cubed) cannot hold its values.
    config = ["--config", str(run_config)] if argv[0] == "smooth-eval" else []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, *config, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: init scheme 'normal_1e+100': {message}\n"
    assert not (tmp_path / "out").exists()


def test_logit_stats_rows_follow_scheme_then_dk_then_layernorm(tmp_path):
    out = tmp_path / "ls"
    assert main([
        "logit-stats", "--out", str(out), "--t-len", "4", "--dim", "8", "--trials", "100",
        "--dk-grid", "8,4", "--schemes", "orthogonal,uniform_0.1",
    ]) == 0
    lines = (out / "logit_stats.csv").read_text().splitlines()[1:]
    assert [tuple(line.split(",")[:3]) for line in lines] == [
        (s, d, ln) for s in ("orthogonal", "uniform_0.1") for d in ("8", "4")
        for ln in ("False", "True")
    ]


def test_logit_stats(tmp_path, capsys):
    out = tmp_path / "ls"
    code = main([
        "logit-stats", "--out", str(out), "--t-len", "4", "--dim", "8",
        "--trials", "100", "--dk-grid", "8", "--schemes", "xavier_uniform",
    ])
    assert code == 0
    lines = (out / "logit_stats.csv").read_text().splitlines()
    assert len(lines) == 3  # header + (ln off, ln on)
    assert lines[1].startswith("xavier_uniform,8,False,")
    assert lines[2].startswith("xavier_uniform,8,True,")
    rows = json.loads((out / "logit_stats.json").read_text())
    assert len(rows) == 2 and rows[0]["trials"] == 100


def test_metrics_wte(tmp_path, capsys):
    labels = tmp_path / "labels.csv"
    labels.write_text("stage\n0\n0\n1\n0\n1\n1\n")
    code = main(["metrics", "--labels", str(labels)])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["wte"] == pytest.approx(0.6591673732008658, abs=1e-9)


def test_metrics_lsii(tmp_path, capsys):
    none_p = tmp_path / "none.csv"
    corr_p = tmp_path / "corr.csv"
    none_p.write_text("stage\n0\n0\n1\n0\n0\n")
    corr_p.write_text("stage\n0\n0\n0\n0\n0\n")
    out_dir = tmp_path / "m"
    code = main([
        "metrics", "--none", str(none_p), "--corr", str(corr_p),
        "--window", "5", "--out", str(out_dir),
    ])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["lsii"] == 1.0
    assert json.loads((out_dir / "metrics.json").read_text()) == out


def test_metrics_argument_errors(tmp_path, capsys):
    none_p = tmp_path / "none.csv"
    none_p.write_text("stage\n0\n1\n")
    assert main(["metrics"]) == 1
    assert main(["metrics", "--none", str(none_p)]) == 1
    assert main(["metrics", "--none", str(none_p), "--corr", str(none_p)]) == 1
    err = capsys.readouterr().err
    assert "nothing to compute" in err
    assert "both --none and --corr" in err
    assert "needs --window" in err
    assert main(["metrics", "--none", str(none_p), "--corr", str(none_p), "--window", "1"]) == 1
    assert "--window must be >= 2, got 1" in capsys.readouterr().err
    # --window sets only the LSII window; without the pair it is refused, not
    # ignored, and before the label file is read.
    for labels in (none_p, tmp_path / "ghost.csv"):
        assert main(["metrics", "--labels", str(labels), "--window", "5"]) == 1
        assert capsys.readouterr() == ("", "error: --window sets the LSII window, "
                                           "so it needs --none and --corr\n")
    assert main(["metrics", "--labels", str(tmp_path / "ghost.csv")]) == 2
    assert main(["metrics", "--labels", str(none_p), "--classes", "0"]) == 1
    assert "--classes must be >= 1" in capsys.readouterr().err
    # A label space no array can hold is the flag's fault, not the file's.
    assert main(["metrics", "--labels", str(none_p), "--classes", str(2**64)]) == 1
    assert capsys.readouterr().err == f"error: --classes must be < 2**63, got {2**64}\n"
    assert main(["metrics", "--labels", str(none_p), "--classes", str(2**62)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --classes {2**62}: ") and err.count("\n") == 1


@pytest.mark.parametrize("flag, value, low", [
    ("--classes", 0, 1), ("--classes", 2**63, 1), ("--window", 1, 2), ("--window", 2**63, 2),
])
def test_metrics_counts_at_their_bounds(flag, value, low, tmp_path, capsys):
    labels = tmp_path / "labels.csv"
    labels.write_text("stage\n0\n1\n")
    files = ["--labels", str(labels)] if flag == "--classes" else [
        "--none", str(labels), "--corr", str(labels)]
    out = tmp_path / "out"
    assert main(["metrics", *files, flag, str(value), "--out", str(out)]) == 1
    bound = "< 2**63" if value == 2**63 else f">= {low}"
    assert capsys.readouterr().err == f"error: {flag} must be {bound}, got {value}\n"
    assert not out.exists()


def test_metrics_lsii_files_of_different_lengths(tmp_path, capsys):
    none_p = tmp_path / "none.csv"
    corr_p = tmp_path / "corr.csv"
    none_p.write_text("stage\n0\n1\n")
    corr_p.write_text("stage\n0\n1\n1\n")
    assert main(["metrics", "--none", str(none_p), "--corr", str(corr_p), "--window", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {none_p}, {corr_p}: ") and err.count("\n") == 1
    assert "none=2, corrected=3" in err


def test_correlate(tmp_path, capsys):
    rows = [
        {"axis": "window", "value": 5, "seed": 1,
         "accuracy": 0.5, "weighted_f1": 0.5, "wte": 1.0, "lsii": 0.2},
        {"axis": "window", "value": 10, "seed": 2,
         "accuracy": 0.6, "weighted_f1": 0.6, "wte": 0.8, "lsii": 0.4},
        {"axis": "window", "value": 20, "seed": 3,
         "accuracy": 0.7, "weighted_f1": 0.7, "wte": 0.6, "lsii": 0.6},
    ]
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path)
    assert main(["correlate", "--csv", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["r_lsii_acc"] == pytest.approx(1.0)
    assert out["r_wte_acc"] == pytest.approx(-1.0)
    assert main(["correlate", "--csv", str(tmp_path / "absent.csv")]) == 2
    write_sweep_csv(rows[:2], path)  # too few rows to correlate
    capsys.readouterr()
    assert main(["correlate", "--csv", str(path)]) == 2
    assert f"{path}: need at least 3 per-seed rows" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["kernel-validate", "--out", "o", "--jobs", "2"],
    ["smooth-eval", "--smoother", "none", "--jobs", "2"],
    ["logit-stats", "--out", "o", "--config", "x.json"],
    ["correlate", "--csv", "s.csv", "--config", "x.json"],
    ["correlate", "--csv", "s.csv", "--out", "o"],
    ["metrics", "--none", "a.csv", "--corr", "b.csv", "--window", "5", "--true", "t.csv"],
])
def test_flags_a_command_does_not_read_are_rejected(argv, capsys):
    assert main(argv) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


# Manifest-level cases: (key to replace, or None for the whole manifest; the
# bad value; what the one-line error must say after "manifest.json: ").
_BAD_MANIFEST_FIELDS = {
    "list_manifest": (None, [1, 2], "manifest is not a JSON object"),
    "int_subjects": ("subjects", 5, "subjects is not a list"),
    "string_n_classes": ("n_classes", "three", "n_classes must be an integer >= 1"),
    "float_n_classes": ("n_classes", 2.5, "n_classes must be an integer >= 1"),
    "zero_feat_dim": ("feat_dim", 0, "feat_dim must be an integer >= 1"),
    "bool_feat_dim": ("feat_dim", True, "feat_dim must be an integer >= 1"),
    "missing_subjects_key": (None, {"format": "rapklab-dataset", "n_classes": 3, "feat_dim": 4},
                             "missing key 'subjects'"),
    "rejected_synth_config": ("synth_config", {"n_classes": 1},
                              "bad synth_config (n_classes must be >= 2, got 1)"),
}


@pytest.mark.parametrize("case", [
    "missing_id", "missing_split", "int_id", "parent_id", "absolute_id", "nested_id",
    "dot_id", "empty_id", "string_entry", "repeated_id", *_BAD_MANIFEST_FIELDS,
])
def test_malformed_manifest_subject_is_a_dataset_error(case, tmp_path, capsys):
    root = tmp_path / "ds"
    assert main([
        "simulate", "--out", str(root), "--classes", "3", "--t-len", "20",
        "--subjects", "3", "--feat-dim", "4", "--seed", "1",
    ]) == 0
    manifest = json.loads((root / "manifest.json").read_text())
    entry = manifest["subjects"][0]
    fragment = "subject"
    if case in _BAD_MANIFEST_FIELDS:
        key, value, fragment = _BAD_MANIFEST_FIELDS[case]
        if key is None:
            manifest = value
        else:
            manifest[key] = value
    elif case == "missing_id":
        del entry["id"]
    elif case == "missing_split":
        del entry["split"]
    elif case == "string_entry":
        manifest["subjects"][0] = "subject_000"
    elif case == "repeated_id":  # one directory as two subjects, e.g. train and test
        manifest["subjects"][1]["id"] = entry["id"]
        fragment = "subject id 'subject_000' is listed twice"
    else:
        entry["id"] = {
            "int_id": 7, "parent_id": "../subject_000", "absolute_id": str(root / "subject_000"),
            "nested_id": "subject_000/.", "dot_id": ".", "empty_id": "",
        }[case]
    (root / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["smooth-eval", "--dataset", str(root), "--smoother", "none"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"manifest.json: {fragment}" in err


@pytest.mark.parametrize("missing", ["test", "train"])
def test_dataset_with_an_empty_split_is_a_dataset_error(missing, tmp_path, capsys):
    root = tmp_path / "ds"
    assert main([
        "simulate", "--out", str(root), "--classes", "3", "--t-len", "20",
        "--subjects", "4", "--feat-dim", "4", "--seed", "1",
    ]) == 0
    manifest = json.loads((root / "manifest.json").read_text())
    for entry in manifest["subjects"]:
        if entry["split"] == missing:
            entry["split"] = "val"
    (root / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    for command in (["smooth-eval"], ["sweep", "--axis", "window", "--grid", "3",
                                      "--out", str(tmp_path / "sw")]):
        assert main([*command, "--dataset", str(root), "--smoother", "median"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {root}: dataset needs non-empty train and test splits\n"


@pytest.mark.parametrize("case", ["empty_test_split", "last_id_escapes", "last_split_unknown"])
def test_streamed_dataset_faults_before_any_subject_file_is_read(case, tmp_path, monkeypatch,
                                                                 capsys):
    root = tmp_path / "ds"
    assert main([
        "simulate", "--out", str(root), "--classes", "3", "--t-len", "20",
        "--subjects", "10", "--feat-dim", "4", "--seed", "1",
    ]) == 0
    manifest = json.loads((root / "manifest.json").read_text())
    last = manifest["subjects"][-1]
    if case == "empty_test_split":
        for entry in manifest["subjects"]:
            if entry["split"] == "test":
                entry["split"] = "train"
        fragment = f"{root}: dataset needs non-empty train and test splits"
    elif case == "last_id_escapes":
        last["id"] = "../outside"
        fragment = "manifest.json: subject id '../outside' is not a plain directory name"
    else:
        last["split"] = "holdout"
        fragment = f"manifest.json: subject '{last['id']}' has unknown split 'holdout'"
    (root / "manifest.json").write_text(json.dumps(manifest))
    read = []
    monkeypatch.setattr(dataio, "_read_table", lambda path, header: read.append(path))
    capsys.readouterr()
    assert main(["smooth-eval", "--dataset", str(root), "--smoother", "none"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert fragment in err
    assert read == []


def test_corrupt_last_test_subject_fails_cleanly_without_a_report(tmp_path, capsys):
    # The fault is met only after every train subject has been read.
    root = tmp_path / "ds"
    assert main([
        "simulate", "--out", str(root), "--classes", "3", "--t-len", "20",
        "--subjects", "10", "--feat-dim", "4", "--seed", "1",
    ]) == 0
    manifest = json.loads((root / "manifest.json").read_text())
    sub_id = [e["id"] for e in manifest["subjects"] if e["split"] == "test"][-1]
    path = root / sub_id / "features.csv"
    lines = path.read_text().split("\n")
    lines[2] = "nan" + lines[2][lines[2].index(","):]
    path.write_text("\n".join(lines))
    out = tmp_path / "out"
    capsys.readouterr()
    code = main(["smooth-eval", "--dataset", str(root), "--smoother", "random_transformer",
                 "--heads", "2", "--dk", "8", "--seed", "1,2", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    _assert_one_line_error(code, captured.err, path, "row 3 contains a non-finite cell")
    assert not (out / "report.json").exists()


def _rows(edit):
    """Apply ``edit(lines, col, num)`` to the lines of a CSV text and rejoin
    them with CRLF endings."""
    return lambda text, col, num: "".join(
        line + "\r\n" for line in edit(text.split("\r\n")[:-1], col, num))


def _cell(lines, row, col, value):
    cells = lines[row].split(",")
    cells[col] = value
    return [*lines[:row], ",".join(cells), *lines[row + 1:]]


# Malformed (or merely unusual) CSVs: (file in a training subject and the
# column that a cell edit targets there, edit of a CSV text given a column and
# a number to write, the error after "<file>: " or None where the file must
# load as the row scan loads it). The dataset leg writes "0.5" into the listed
# column; the other input paths write "1" into their own numeric column. Every
# file has 20 data rows, so its last line is 21; {width} is its number of
# columns.
_MALFORMED_CSV = {
    "blank_line_mid_file": (
        "features.csv", None, _rows(lambda ls, c, n: [*ls[:3], "", *ls[3:]]), "row 4 has 0 cells"),
    "trailing_blank_line": (
        "features.csv", None, _rows(lambda ls, c, n: [*ls, ""]), "row 22 has 0 cells"),
    "hash_in_cell": (
        "features.csv", 3, _rows(lambda ls, c, n: _cell(ls, 2, c, n + "#1")),
        "row 3 contains a non-numeric cell"),
    "quoted_cell": ("features.csv", 0, _rows(lambda ls, c, n: _cell(ls, 2, c, f'"{n}"')), None),
    "trailing_comma": (
        "features.csv", None, _rows(lambda ls, c, n: [*ls[:2], ls[2] + ",", *ls[3:]]),
        "row 3 has {over} cells, expected {width}"),
    "short_row": (
        "features.csv", None,
        _rows(lambda ls, c, n: [*ls[:2], ",".join(ls[2].split(",")[:-1]), *ls[3:]]),
        "row 3 has {under} cells, expected {width}"),
    "header_only": ("labels.csv", None, _rows(lambda ls, c, n: ls[:1]), "no data rows"),
    "empty_file": ("labels.csv", None, lambda text, col, num: "", "empty file"),
    "lf_line_endings": (
        "features.csv", None, lambda text, col, num: text.replace("\r\n", "\n"), None),
    "spaces_around_number": (
        "features.csv", 1, _rows(lambda ls, c, n: _cell(ls, 2, c, f" {n} ")), None),
    "nan_in_features": (
        "features.csv", 3, _rows(lambda ls, c, n: _cell(ls, 2, c, "nan")),
        "row 3 contains a non-finite cell"),
    "inf_cell": (
        "features.csv", 3, _rows(lambda ls, c, n: _cell(ls, 2, c, "-inf")),
        "row 3 contains a non-finite cell"),
    "cell_beyond_csv_field_limit": (
        "features.csv", 1, _rows(lambda ls, c, n: _cell(ls, 2, c, "x" * 200_000)),
        "row 3: field larger than field limit"),
    # "\udcff" is written as the raw byte 0xff (see the surrogateescape below).
    "non_utf8_byte": ("labels.csv", None, _rows(lambda ls, c, n: [*ls[:2], "1\udcff", *ls[3:]]),
                      "not UTF-8 text at row 3"),
}


def _apply_case(case, path, col, num):
    """Edit ``path`` as catalogue ``case`` does, writing ``num`` into column
    ``col`` where it edits a cell; return the error fragment."""
    edit, fragment = _MALFORMED_CSV[case][2:]
    text = path.read_bytes().decode("utf-8", "surrogateescape")
    path.write_bytes(edit(text, col, num).encode("utf-8", "surrogateescape"))
    width = text.split("\r\n", 1)[0].count(",") + 1
    return fragment and fragment.format(width=width, over=width + 1, under=width - 1)


def _assert_one_line_error(code, err, path, fragment):
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{path}: {fragment}" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(_MALFORMED_CSV))
def test_malformed_csv_loads_as_the_row_scan_does_or_fails_cleanly(case, tmp_path, capsys):
    root = tmp_path / "ds"
    assert main([
        "simulate", "--out", str(root), "--classes", "3", "--t-len", "20",
        "--subjects", "3", "--feat-dim", "4", "--seed", "1",
    ]) == 0
    name, col = _MALFORMED_CSV[case][:2]
    header = ["stage"] if name == "labels.csv" else [f"f{j}" for j in range(4)]
    # A training subject: smooth-eval reads only the train and test splits.
    manifest = json.loads((root / "manifest.json").read_text())
    sub_id = next(e["id"] for e in manifest["subjects"] if e["split"] == "train")
    path = root / sub_id / name
    fragment = _apply_case(case, path, col, "0.5")
    capsys.readouterr()
    code = main(["smooth-eval", "--dataset", str(root), "--smoother", "none"])
    err = capsys.readouterr().err

    # The one-call parse and the row scan agree: the parse either hands the
    # file over (None or ValueError) or returns exactly what the scan returns.
    with path.open(encoding="utf-8", newline="") as fh:
        try:
            scanned = dataio._scan_table(fh, path, header)
        except DatasetError:
            scanned = None
    with path.open(encoding="utf-8", newline="") as fh:
        try:
            parsed = dataio._parse_table(fh, header)
        except ValueError:
            parsed = None
    if parsed is not None:
        assert scanned is not None
        np.testing.assert_array_equal(parsed.view(np.uint64), scanned.view(np.uint64))

    if fragment is None:
        assert code == 0 and err == ""
        loaded = next(s for s in load_dataset(root).subjects if s.subject_id == sub_id)
        loaded = loaded.features.data
        np.testing.assert_array_equal(loaded.view(np.uint64), scanned.view(np.uint64))
    else:
        _assert_one_line_error(code, err, path, fragment)


# The other CSV input paths: (command given the edited file and a clean copy,
# the numeric column the catalogue's edits target). The label paths read a
# stage CSV and correlate reads a sweep CSV, whose column 3 is the accuracy.
_CSV_PATHS = {
    "metrics_labels": (lambda bad, good: ["metrics", "--labels", bad], 0),
    "metrics_none": (
        lambda bad, good: ["metrics", "--none", bad, "--corr", good, "--window", "5"], 0),
    "metrics_corr": (
        lambda bad, good: ["metrics", "--none", good, "--corr", bad, "--window", "5"], 0),
    "correlate_csv": (lambda bad, good: ["correlate", "--csv", bad], 3),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(_MALFORMED_CSV))
@pytest.mark.parametrize("input_path", sorted(_CSV_PATHS))
def test_malformed_csv_on_every_other_input_path(input_path, case, tmp_path, capsys):
    command, col = _CSV_PATHS[input_path]
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    if input_path == "correlate_csv":
        write_sweep_csv([
            {"axis": "window", "value": 5, "seed": i, "accuracy": 0.5 + 0.02 * i,
             "weighted_f1": 0.4 + 0.01 * i, "wte": 1.0 - 0.03 * i, "lsii": 0.1 * i % 0.7}
            for i in range(20)
        ], good)
    else:
        good.write_bytes(b"stage\r\n" + b"".join(b"%d\r\n" % (i % 3) for i in range(20)))
    bad.write_bytes(good.read_bytes())
    fragment = _apply_case(case, bad, col, "1")
    code = main(command(str(bad), str(good)))
    err = capsys.readouterr().err
    if fragment is None:
        assert code == 0 and err == ""
        with bad.open(encoding="utf-8", newline="") as fh:
            want = [float(row[col]) for row in list(csv.reader(fh))[1:]]
        if input_path == "correlate_csv":
            assert [row["accuracy"] for row in read_sweep_csv(bad)] == want
        else:
            assert dataio.read_label_csv(bad).tolist() == want
    else:
        _assert_one_line_error(code, err, bad, fragment)


# Broken JSON inputs: each edits the file it is given.
_MALFORMED_JSON = {
    "non_utf8_byte": lambda path: path.write_bytes(path.read_bytes() + b"\xff"),
    "invalid_json": lambda path: path.write_text("{nope"),
    "json_list": lambda path: path.write_text("[1, 2]"),
    "missing_file": lambda path: path.unlink(),
    "directory": lambda path: (path.unlink(), path.mkdir()),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_JSON))
@pytest.mark.parametrize("target", ["config", "manifest"])
def test_malformed_json_is_a_one_line_exit_2(target, case, tmp_path, capsys):
    root = tmp_path / "ds"
    assert main([
        "simulate", "--out", str(root), "--classes", "3", "--t-len", "20",
        "--subjects", "3", "--feat-dim", "4", "--seed", "1",
    ]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dataset": str(root), "smoother": "none", "seeds": [1]}))
    path = config if target == "config" else root / "manifest.json"
    _MALFORMED_JSON[case](path)
    capsys.readouterr()
    assert main(["smooth-eval", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cell", ["inf", "-inf", "1e300", "nan", "-1"])
def test_metrics_rejects_non_finite_or_huge_labels(cell, tmp_path, capsys):
    labels = tmp_path / "labels.csv"
    labels.write_text(f"stage\n0\n{cell}\n1\n")
    assert main(["metrics", "--labels", str(labels)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{labels}: row 3 " in err


def test_metrics_reads_each_label_file_once(tmp_path, monkeypatch, capsys):
    reads = []

    def read_label_csv(path, n_classes):
        reads.append(path)
        return dataio.read_label_csv(path, n_classes)

    monkeypatch.setattr(cli, "read_label_csv", read_label_csv)
    none_p = tmp_path / "none.csv"
    none_p.write_text("stage\n0\n0\n1\n0\n0\n")
    assert main(["metrics", "--none", str(none_p), "--corr", str(none_p), "--window", "5"]) == 0
    assert reads == [none_p, none_p]


def test_no_command_and_bad_choice(capsys):
    assert main([]) == 1
    assert main(["smooth-eval", "--smoother", "kalman"]) == 1
    capsys.readouterr()
