import json

import numpy as np
import pytest

from rapklab import cli, dataio
from rapklab.cli import main
from rapklab.dataio import DatasetError, load_dataset
from rapklab.initializers import InitScheme, analytic_variance
from rapklab.montecarlo import centered_unit_sequence, monte_carlo_kernel
from rapklab.rapk import compute_rapk
from rapklab.seeding import mix_seed

SYNTH = {
    "n_classes": 3, "t_len": 60, "n_subjects": 4, "feat_dim": 4,
    "class_sep": 2.0, "noise_std": 0.4, "label_noise": 0.2, "seed": 5,
}
ENCODER = {"n_heads": 2, "d_k": 8, "window_w": 5}


@pytest.fixture()
def run_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "synth": SYNTH,
        "encoder": ENCODER,
        "smoother": "moving_average",
        "seeds": [111],
    }))
    return path


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


def test_smooth_eval_flag_overrides(run_config, capsys):
    code = main([
        "smooth-eval", "--config", str(run_config),
        "--smoother", "none", "--seed", "111,222",
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert text.startswith("none: acc ")
    assert "lsii n/a" in text


def test_smooth_eval_missing_config_file(tmp_path, capsys):
    code = main(["smooth-eval", "--config", str(tmp_path / "absent.json")])
    assert code == 2
    assert "config file not found" in capsys.readouterr().err


def test_smooth_eval_invalid_config_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    assert main(["smooth-eval", "--config", str(path)]) == 1
    path.write_text("[1, 2]")
    assert main(["smooth-eval", "--config", str(path)]) == 1
    assert "config must be a JSON object" in capsys.readouterr().err


def test_smooth_eval_unknown_config_key(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"synth": SYNTH, "smother": "none"}))
    assert main(["smooth-eval", "--config", str(path)]) == 1
    assert "unknown config keys" in capsys.readouterr().err


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


def test_sweep_bad_grid_and_missing_out(run_config, capsys):
    assert main([
        "sweep", "--config", str(run_config), "--axis", "window",
        "--grid", "2,x", "--out", "/tmp/unused",
    ]) == 1
    assert main([
        "sweep", "--config", str(run_config), "--axis", "window", "--grid", "2,3",
    ]) == 1
    assert "required: --out" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sweep", "--config", "CONFIG", "--axis", "window", "--grid", "2,3"],
    ["kernel-validate", "--trials", "10"],
    ["logit-stats", "--trials", "10"],
])
def test_missing_out_fails_before_any_work(argv, run_config, monkeypatch, capsys):
    def work(*args, **kwargs):
        raise AssertionError("the command ran its work before checking --out")

    for name in ("run_sweep", "dk_sweep_detail", "logit_concentration"):
        monkeypatch.setattr(cli, name, work)
    argv = [str(run_config) if a == "CONFIG" else a for a in argv]
    assert main(argv) == 1
    assert "required: --out" in capsys.readouterr().err


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


def test_kernel_validate_dump_kernels(tmp_path):
    out = tmp_path / "kv"
    code = main([
        "kernel-validate", "--out", str(out), "--t-len", "4", "--dim", "3", "--seed", "5",
        "--sequences", "2", "--trials", "120", "--dk-grid", "4,8", "--dump-kernels",
    ])
    assert code == 0
    # Each dumped kernel parses back to a standalone estimate for its sub-seed
    # and to the closed form.
    scheme = InitScheme("xavier_uniform")
    for di, d_k in enumerate((4, 8)):
        for si in range(2):
            x = centered_unit_sequence(4, 3, mix_seed(5, si))
            emp = np.loadtxt(out / f"kernel_emp_dk{d_k}_seq{si}.csv", delimiter=",")
            want = monte_carlo_kernel(x, scheme, d_k, 120, mix_seed(5, di, si))
            np.testing.assert_array_equal(emp, want)
            theory = np.loadtxt(out / f"kernel_theory_dk{d_k}_seq{si}.csv", delimiter=",")
            var = analytic_variance(scheme, 3, d_k)
            np.testing.assert_array_equal(theory, compute_rapk(x, d_k, var, var, var).kernel)


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
    assert main(["metrics", "--labels", str(tmp_path / "ghost.csv")]) == 2


def test_correlate(tmp_path, capsys):
    from rapklab.harness import write_sweep_csv

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
}


@pytest.mark.parametrize("case", [
    "missing_id", "missing_split", "int_id", "parent_id", "absolute_id", "nested_id",
    "dot_id", "empty_id", "string_entry", *_BAD_MANIFEST_FIELDS,
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


def _rows(edit):
    """Apply ``edit`` to the lines of a CSV text and rejoin them with CRLF endings."""
    return lambda text: "".join(line + "\r\n" for line in edit(text.split("\r\n")[:-1]))


def _cell(lines, row, col, value):
    cells = lines[row].split(",")
    cells[col] = value
    return [*lines[:row], ",".join(cells), *lines[row + 1:]]


# Malformed (or merely unusual) CSVs: (file in subject_000, edit of its text,
# the error after "<file>: ", or None where the file must load as the row
# scan loads it). The subject has 20 rows, so its last line is 21.
_MALFORMED_CSV = {
    "blank_line_mid_file": (
        "features.csv", _rows(lambda ls: [*ls[:3], "", *ls[3:]]), "row 4 has 0 cells"),
    "trailing_blank_line": ("features.csv", _rows(lambda ls: [*ls, ""]), "row 22 has 0 cells"),
    "hash_in_cell": (
        "features.csv", _rows(lambda ls: _cell(ls, 2, 3, "0.5#1")),
        "row 3 contains a non-numeric cell"),
    "quoted_cell": ("features.csv", _rows(lambda ls: _cell(ls, 2, 0, '"0.5"')), None),
    "trailing_comma": (
        "features.csv", _rows(lambda ls: _cell(ls, 2, 3, ls[2].split(",")[3] + ",")),
        "row 3 has 5 cells, expected 4"),
    "short_row": (
        "features.csv", _rows(lambda ls: [*ls[:2], ls[2].rsplit(",", 1)[0], *ls[3:]]),
        "row 3 has 3 cells, expected 4"),
    "header_only": ("labels.csv", _rows(lambda ls: ls[:1]), "no data rows"),
    "empty_file": ("labels.csv", lambda text: "", "empty file"),
    "lf_line_endings": ("features.csv", lambda text: text.replace("\r\n", "\n"), None),
    "spaces_around_number": ("features.csv", _rows(lambda ls: _cell(ls, 2, 1, " 0.5 ")), None),
    "nan_in_features": (
        "features.csv", _rows(lambda ls: _cell(ls, 2, 3, "nan")),
        "row 3 contains a non-finite cell"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(_MALFORMED_CSV))
def test_malformed_csv_loads_as_the_row_scan_does_or_fails_cleanly(case, tmp_path, capsys):
    root = tmp_path / "ds"
    assert main([
        "simulate", "--out", str(root), "--classes", "3", "--t-len", "20",
        "--subjects", "3", "--feat-dim", "4", "--seed", "1",
    ]) == 0
    name, edit, fragment = _MALFORMED_CSV[case]
    path = root / "subject_000" / name
    path.write_bytes(edit(path.read_bytes().decode()).encode())
    capsys.readouterr()
    code = main(["smooth-eval", "--dataset", str(root), "--smoother", "none"])
    err = capsys.readouterr().err

    # The one-call parse and the row scan agree: the parse either hands the
    # file over (None or ValueError) or returns exactly what the scan returns.
    header = ["stage"] if name == "labels.csv" else [f"f{j}" for j in range(4)]
    with path.open(newline="") as fh:
        try:
            scanned = dataio._scan_table(fh, path, header)
        except DatasetError:
            scanned = None
    with path.open(newline="") as fh:
        try:
            parsed = dataio._parse_table(fh, header)
        except ValueError:
            parsed = None
    if parsed is not None:
        assert scanned is not None
        np.testing.assert_array_equal(parsed.view(np.uint64), scanned.view(np.uint64))

    if fragment is None:
        assert code == 0 and err == ""
        loaded = load_dataset(root).subjects[0].features.data
        np.testing.assert_array_equal(loaded.view(np.uint64), scanned.view(np.uint64))
    else:
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{path}: {fragment}" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cell", ["inf", "-inf", "1e300", "nan"])
def test_metrics_rejects_non_finite_or_huge_labels(cell, tmp_path, capsys):
    labels = tmp_path / "labels.csv"
    labels.write_text(f"stage\n0\n{cell}\n1\n")
    assert main(["metrics", "--labels", str(labels)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{labels}: row 3 " in err


def test_no_command_and_bad_choice(capsys):
    assert main([]) == 1
    assert main(["smooth-eval", "--smoother", "kalman"]) == 1
    capsys.readouterr()
