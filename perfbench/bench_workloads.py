"""The benchmark's workloads: inputs from a seed, the CLI operations of one
pass, and the checks of their outputs.

Every workload drives the ``rapklab`` CLI only. Inputs are a pure function of
the workload seed; seed 0 is the acceptance reference point, whose outputs
must match the digests in ``reference.json``. The cohort shape and encoder
shape (T, d, d_k, w, heads) are those of the reference point; what is scaled
so that one pass takes seconds is the number of run seeds (1 of 5), subjects
on the dataset path (5 of 20) and trials (500 of 1000 for kernel-validate,
100 of 200 for logit-stats).
"""

from __future__ import annotations

import csv
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import bench_checks as oracle

# The acceptance reference cohort and encoder (tests/test_acceptance.py).
REF_COHORT = dict(
    n_classes=5, t_len=1000, n_subjects=20, self_prob=0.92, feat_dim=256,
    class_sep=0.4, noise_std=0.1, label_noise=0.30,
)
REF_COHORT_SEED = 97531
REF_ENCODER = dict(
    n_heads=8, n_layers=1, d_k=512, window_w=10, use_residual=False, use_positional=False,
)
RUN_SEEDS = (111, 222, 333, 444, 555)

# Scaled so that one pass takes a few seconds on one core.
SWEEP_SUBJECTS = 5
SWEEP_GRID = (5, 10, 20)
KV_TRIALS = 500
KV_GRID = (16, 64, 256, 1024)
KV_SEQUENCES, KV_T, KV_DIM = 3, 10, 16
LOGIT_TRIALS = 100
LOGIT_GRID = (32, 128, 512, 1024)
LOGIT_T, LOGIT_DIM, LOGIT_STREAM = 10, 64, 0xDD
LOGIT_SCHEMES = (
    "xavier_uniform", "xavier_normal", "kaiming_uniform_relu", "kaiming_normal_relu",
    "orthogonal", "uniform_0.1", "normal_0.02", "trunc_normal_0.02",
)

ENCODER_ATOL = 1e-12
MIN_PEARSON = 0.99


@dataclass
class Check:
    """One output check; ``op`` names the CLI operation whose output it judged."""

    op: str
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Verdict:
    checks: list[Check] = field(default_factory=list)
    work: dict[str, float] = field(default_factory=dict)

    def add(self, op: str, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(Check(op, name, bool(ok), detail))


def run_seed(seed: int) -> int:
    return RUN_SEEDS[seed % len(RUN_SEEDS)]


class Workload:
    """Base class: subclasses define inputs, ops and checks."""

    name = ""

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError(f"workload seed must be >= 0, got {seed}")
        self.seed = seed
        self.inputs = self.make_inputs(seed)

    def make_inputs(self, seed: int) -> dict:
        raise NotImplementedError

    def write_inputs(self, directory: Path) -> None:
        """Write the config files the ops read (none by default)."""
        directory.mkdir(parents=True, exist_ok=True)

    def ops(self, input_dir: Path, pass_dir: Path) -> list[tuple[str, list[str]]]:
        """(output subdirectory, CLI argv) of each operation of one pass."""
        raise NotImplementedError

    def shrink(self, pass_dir: Path) -> None:
        """Drop bulky outputs of a repeat pass once they have been digested."""

    def verify(self, input_dir: Path, first_pass: Path, run_children) -> Verdict:
        """Check the first pass's outputs; ``run_children`` runs CLI calls in
        child processes (see ``run.run_children``)."""
        raise NotImplementedError


class RtReference(Workload):
    """``smooth-eval`` on the reference cohort with the random transformer:
    the headline run, almost all of it in the encoder."""

    name = "rt-reference"

    def make_inputs(self, seed: int) -> dict:
        return {
            "config": {
                "synth": {**REF_COHORT, "seed": REF_COHORT_SEED + seed},
                "smoother": "random_transformer",
                "encoder": dict(REF_ENCODER),
                "seeds": [run_seed(seed)],
            }
        }

    def write_inputs(self, directory: Path) -> None:
        super().write_inputs(directory)
        text = json.dumps(self.inputs["config"], indent=2, sort_keys=True) + "\n"
        (directory / "rt.json").write_text(text)

    def ops(self, input_dir, pass_dir):
        return [("rt", ["smooth-eval", "--config", str(input_dir / "rt.json"),
                        "--out", str(pass_dir / "rt")])]

    def verify(self, input_dir, first_pass, run_children) -> Verdict:
        from rapklab.attention import EncoderConfig, build_encoder_weights, encoder_forward
        from rapklab.sequences import FeatureSequence
        from rapklab.smoothers import random_transformer_smooth
        from rapklab.synthgen import SynthConfig, make_dataset

        v = Verdict()
        cfg = self.inputs["config"]
        dataset = make_dataset(SynthConfig(**cfg["synth"]))
        train, test = dataset.split("train"), dataset.split("test")
        t_len = cfg["synth"]["t_len"]
        v.work["epochs"] = (len(train) + len(test)) * t_len * len(cfg["seeds"])

        # The smoother against a per-window encoder_forward loop on one subject.
        enc = EncoderConfig(**cfg["encoder"], seed=cfg["seeds"][0])
        x = test[0].features
        fast = random_transformer_smooth(x, enc).data
        weights = build_encoder_weights(enc, x.dim)
        w = enc.window_w
        slow = np.concatenate([
            encoder_forward(FeatureSequence(x.data[s:s + w]), enc, weights).data
            for s in range(0, x.t_len, w)
        ])
        diff = float(np.max(np.abs(fast - slow))) if fast.shape == slow.shape else float("inf")
        v.add("pass0:rt", "smoothed features match a per-window encoder loop",
              diff <= ENCODER_ATOL, f"max |diff| {diff:.3g} (tol {ENCODER_ATOL:g})")

        report_path = first_pass / "rt" / "report.json"
        report = json.loads(report_path.read_text())
        seeds = [r.get("seed") for r in report.get("per_seed", [])]
        acc = report.get("aggregate", {}).get("mean_accuracy")
        v.add("pass0:rt", "report covers the run seed with an accuracy in (0, 1]",
              seeds == cfg["seeds"] and isinstance(acc, float) and 0.0 < acc <= 1.0,
              f"seeds {seeds}, mean accuracy {acc}")

        # Determinism: the same report under 1 and 2 BLAS threads, set only on
        # the child process.
        expected = oracle.sha256_file(report_path)
        threads = (1, 2)
        outs = [first_pass.parent / f"child-threads{n}" for n in threads]
        codes = run_children([
            (["smooth-eval", "--config", str(input_dir / "rt.json"), "--out", str(out)],
             {"OPENBLAS_NUM_THREADS": str(n), "OMP_NUM_THREADS": str(n)})
            for n, out in zip(threads, outs)
        ])
        for n, out, rc in zip(threads, outs, codes):
            child_report = out / "report.json"
            same = (rc == 0 and child_report.is_file()
                    and oracle.sha256_file(child_report) == expected)
            v.add(f"child:threads{n}",
                  f"report.json under OPENBLAS_NUM_THREADS={n} equals the pass report",
                  same, f"exit code {rc}")
        return v


class DatasetSweep(Workload):
    """``simulate`` a cohort to CSV, then a three-point median-smoother window
    sweep that reloads it: the dataset path both ways and no encoder."""

    name = "dataset-sweep"

    def make_inputs(self, seed: int) -> dict:
        return {
            "cohort": {"synth": {**REF_COHORT, "n_subjects": SWEEP_SUBJECTS,
                                 "seed": REF_COHORT_SEED + seed}},
            "run_seed": run_seed(seed),
            "grid": list(SWEEP_GRID),
        }

    def write_inputs(self, directory: Path) -> None:
        super().write_inputs(directory)
        text = json.dumps(self.inputs["cohort"], indent=2, sort_keys=True) + "\n"
        (directory / "cohort.json").write_text(text)

    def ops(self, input_dir, pass_dir):
        data = str(pass_dir / "dataset")
        grid = ",".join(str(g) for g in self.inputs["grid"])
        return [
            ("dataset", ["simulate", "--config", str(input_dir / "cohort.json"), "--out", data]),
            ("sweep", ["sweep", "--dataset", data, "--smoother", "median", "--axis", "window",
                       "--grid", grid, "--seed", str(self.inputs["run_seed"]),
                       "--out", str(pass_dir / "sweep")]),
        ]

    def shrink(self, pass_dir: Path) -> None:
        shutil.rmtree(pass_dir / "dataset", ignore_errors=True)

    def verify(self, input_dir, first_pass, run_children) -> Verdict:
        from rapklab.dataio import load_dataset
        from rapklab.synthgen import SynthConfig, make_dataset

        v = Verdict()
        synth = self.inputs["cohort"]["synth"]
        generated = make_dataset(SynthConfig(**synth))
        root = first_pass / "dataset"
        loaded = load_dataset(root)

        same_ids = [(s.subject_id, s.split) for s in generated.subjects] == [
            (s.subject_id, s.split) for s in loaded.subjects
        ]
        loaded_equal = same_ids and all(
            oracle.bit_equal(g.features.data, l.features.data)
            and np.array_equal(g.stages.labels, l.stages.labels)
            and oracle.bit_equal(g.probs.probs, l.probs.probs)
            for g, l in zip(generated.subjects, loaded.subjects)
        )
        v.add("pass0:sweep", "load_dataset returns the generated arrays bit for bit", loaded_equal)

        # The written CSVs, parsed here cell by cell.
        parsed = {}
        file_equal = True
        for sub in generated.subjects:
            sub_dir = root / sub.subject_id
            _, feats = oracle.parse_csv_table(sub_dir / "features.csv")
            _, labels = oracle.parse_csv_table(sub_dir / "labels.csv")
            _, probs = oracle.parse_csv_table(sub_dir / "probs.csv")
            file_equal &= (
                oracle.bit_equal(feats, sub.features.data)
                and np.array_equal(labels[:, 0], sub.stages.labels)
                and oracle.bit_equal(probs, sub.probs.probs)
            )
            parsed[sub.subject_id] = (labels[:, 0].astype(np.int64), probs)
        v.add("pass0:dataset", "written CSVs parse back to the generated arrays bit for bit",
              file_equal)

        # sweep.csv accuracies against an independent median smoother.
        with (first_pass / "sweep" / "sweep.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        test = [s for s in generated.subjects if s.split == "test"]
        n_classes = synth["n_classes"]
        run = str(self.inputs["run_seed"])
        worst = 0.0
        found = 0
        for w in self.inputs["grid"]:
            hits = total = 0
            for sub in test:
                truth, probs = parsed[sub.subject_id]
                pred = oracle.mode_filter(np.argmax(probs, axis=1), w, n_classes)
                hits += int(np.count_nonzero(pred == truth))
                total += truth.size
            for row in rows:
                if row["value"] == str(w) and row["seed"] == run:
                    found += 1
                    worst = max(worst, abs(float(row["accuracy"]) - hits / total))
        expected_rows = len(self.inputs["grid"]) * 3  # run seed, mean, std
        v.add("pass0:sweep", "sweep.csv accuracies match an independent median smoother",
              found == len(self.inputs["grid"]) and worst <= 1e-12 and len(rows) == expected_rows,
              f"{len(rows)} rows, max |diff| {worst:.3g}")

        t_len = synth["t_len"]
        v.work["epochs"] = len(test) * t_len * len(self.inputs["grid"])
        # CSV the task needs to move: the cohort written once and read once.
        v.work["csv_bytes"] = 2 * sum(p.stat().st_size for p in root.rglob("*.csv"))
        return v


class KernelMc(Workload):
    """``kernel-validate --dump-kernels`` then ``logit-stats``: tens of
    thousands of tiny T=10 projections, in init draws, Monte Carlo and the
    attention primitives."""

    name = "kernel-mc"

    def make_inputs(self, seed: int) -> dict:
        return {"seed": seed, "kv_trials": KV_TRIALS, "logit_trials": LOGIT_TRIALS}

    def ops(self, input_dir, pass_dir):
        seed = str(self.inputs["seed"])
        return [
            ("kv", ["kernel-validate", "--dump-kernels", "--seed", seed,
                    "--trials", str(self.inputs["kv_trials"]), "--out", str(pass_dir / "kv")]),
            ("ls", ["logit-stats", "--seed", seed, "--trials", str(self.inputs["logit_trials"]),
                    "--out", str(pass_dir / "ls")]),
        ]

    def verify(self, input_dir, first_pass, run_children) -> Verdict:
        from rapklab.montecarlo import centered_unit_sequence
        from rapklab.seeding import generator, mix_seed

        v = Verdict()
        seed = self.inputs["seed"]
        kv = first_pass / "kv"
        report = json.loads((kv / "kernel_validation.json").read_text())
        v.add("pass0:kv", "kernel_validation.json covers the d_k grid",
              tuple(report.get("d_k_grid", ())) == KV_GRID, str(report.get("d_k_grid")))
        for di, d_k in enumerate(KV_GRID):
            scores = []
            theory_err = 0.0
            for si in range(KV_SEQUENCES):
                x = centered_unit_sequence(KV_T, KV_DIM, mix_seed(seed, si)).data
                mine = oracle.closed_form_kernel(
                    x, d_k, oracle.scheme_variance("xavier_uniform", KV_DIM, d_k))
                emp = np.loadtxt(kv / f"kernel_emp_dk{d_k}_seq{si}.csv", delimiter=",")
                theory = np.loadtxt(kv / f"kernel_theory_dk{d_k}_seq{si}.csv", delimiter=",")
                theory_err = max(theory_err, float(np.max(np.abs(theory - mine)))
                                 / float(np.max(np.abs(mine))))
                scores.append(oracle.pearson(emp, mine))
            reported = report.get("pearson_per_dk", [None] * len(KV_GRID))[di]
            v.add("pass0:kv", f"d_k={d_k}: Monte Carlo kernel matches the closed form",
                  min(scores) >= MIN_PEARSON, f"min pearson {min(scores):.5f}")
            v.add("pass0:kv", f"d_k={d_k}: dumped and reported kernels agree",
                  theory_err <= 1e-9 and isinstance(reported, float)
                  and abs(reported - float(np.mean(scores))) <= 1e-9,
                  f"closed-form rel err {theory_err:.3g}, reported pearson {reported}")

        with (first_pass / "ls" / "logit_stats.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        rng = generator(seed, LOGIT_STREAM)
        x = rng.standard_normal((LOGIT_T, LOGIT_DIM))
        expected = [(s, d, ln) for s in LOGIT_SCHEMES for d in LOGIT_GRID for ln in (False, True)]
        got = [(r["scheme"], int(r["d_k"]), r["with_layernorm"] == "True") for r in rows]
        worst = 0.0
        sane = True
        for (label, d_k, with_ln), row in zip(expected, rows):
            want = oracle.analytic_logit_std(oracle.layer_norm(x) if with_ln else x, label, d_k)
            worst = max(worst, abs(float(row["analytic_std"]) - want) / want)
            frac = float(row["frac_within_eps"])
            sane &= (int(row["trials"]) == self.inputs["logit_trials"] and 0.0 <= frac <= 1.0
                     and float(row["empirical_std"]) > 0.0)
        v.add("pass0:ls", "logit_stats.csv rows match the scheme grid with sane statistics",
              got == expected and sane, f"{len(rows)} rows")
        v.add("pass0:ls", "logit_stats.csv analytic spreads match an independent formula",
              got == expected and worst <= 1e-9, f"max rel err {worst:.3g}")

        mc = KV_SEQUENCES * len(KV_GRID) * self.inputs["kv_trials"]
        logit = len(LOGIT_SCHEMES) * len(LOGIT_GRID) * 2 * self.inputs["logit_trials"]
        v.work["trials"] = mc + logit
        return v


WORKLOADS = {cls.name: cls for cls in (RtReference, DatasetSweep, KernelMc)}
