import hashlib
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from oracles import ACC_ENCODER, ACC_SYNTH, SEEDS, acc_pipeline

from rapklab import dataio, synthgen
from rapklab.attention import EncoderConfig
from rapklab.dataio import DatasetError, save_dataset
from rapklab.harness import (
    COMPONENT_BUNDLES,
    SMOOTHERS,
    RunConfig,
    append_runs_csv,
    apply_axis,
    config_digest,
    correlation_study,
    load_run_config,
    read_sweep_csv,
    run_config_dict,
    run_pipeline,
    run_sweep,
    write_report_json,
    write_sweep_csv,
)
from rapklab.initializers import InitScheme
from rapklab.metrics import accuracy
from rapklab.sequences import StageSequence
from rapklab.smoothers import CentroidSums, classify
from rapklab.synthgen import SynthConfig, iter_subjects, make_dataset


def small_synth(**overrides) -> SynthConfig:
    base = dict(
        n_classes=3, t_len=60, n_subjects=4, feat_dim=4,
        class_sep=2.0, noise_std=0.4, label_noise=0.2, seed=5,
    )
    base.update(overrides)
    return SynthConfig(**base)


def small_encoder(**overrides) -> EncoderConfig:
    base = dict(n_heads=2, d_k=8, window_w=5)
    base.update(overrides)
    return EncoderConfig(**base)


def small_run(**overrides) -> RunConfig:
    base = dict(
        synth=small_synth(),
        smoother="random_transformer",
        encoder=small_encoder(),
        seeds=(111, 222),
    )
    base.update(overrides)
    return RunConfig(**base)


def test_run_config_validation():
    with pytest.raises(ValueError, match="exactly one data source"):
        RunConfig()
    with pytest.raises(ValueError, match="exactly one data source"):
        RunConfig(synth=small_synth(), dataset_path="somewhere")
    with pytest.raises(ValueError, match="unknown smoother"):
        small_run(smoother="kalman")
    with pytest.raises(ValueError, match="seeds"):
        small_run(seeds=())
    with pytest.raises(ValueError, match="seeds repeat 222"):
        small_run(seeds=(222, 111, 222))
    with pytest.raises(ValueError, match="metric_window"):
        small_run(metric_window=1)
    with pytest.raises(ValueError, match=rf"^metric_window must be < 2\*\*63, got {2**63}$"):
        small_run(metric_window=2**63)
    # A flag that changes nothing is refused, not carried into the digest.
    with pytest.raises(ValueError, match="^integer_median applies only to the median smoother, "
                                         "got smoother 'random_transformer'$"):
        small_run(integer_median=True)
    # Unset, the metric window is the smoothing window, checked the same way.
    with pytest.raises(ValueError, match="metric_window must be >= 2, got 1"):
        small_run(encoder=small_encoder(window_w=1))
    assert small_run(encoder=small_encoder(window_w=1), metric_window=2).encoder.window_w == 1


def test_resolved_metric_window_defaults_to_encoder_window():
    assert small_run().resolved_metric_window == 5
    assert small_run(metric_window=20).resolved_metric_window == 20


def test_load_run_config_round_trip():
    cfg = small_run(smoother="median", metric_window=7, integer_median=True)
    rebuilt = load_run_config(
        {
            "synth": run_config_dict(cfg)["synth"],
            "smoother": cfg.smoother,
            "encoder": run_config_dict(cfg)["encoder"],
            "metric_window": 7,
            "seeds": [111, 222],
            "integer_median": True,
        }
    )
    assert rebuilt == cfg
    assert config_digest(run_config_dict(rebuilt)) == config_digest(run_config_dict(cfg))


def test_load_run_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        load_run_config({"synth": None, "dataset": "d", "smother": "none"})
    with pytest.raises(ValueError, match="bad encoder config"):
        load_run_config({"dataset": "d", "encoder": {"n_headz": 2}})
    with pytest.raises(ValueError, match="bad synth config"):
        load_run_config({"synth": {"n_classez": 3}})


def test_config_digest_is_stable_and_sensitive():
    cfg = small_run()
    resolved = run_config_dict(cfg)
    d1 = config_digest(resolved)
    assert d1 == config_digest(json.loads(json.dumps(resolved)))
    assert len(d1) == 16
    other = run_config_dict(small_run(smoother="none"))
    assert config_digest(other) != d1


def test_encoder_seed_not_part_of_digest():
    a = run_config_dict(small_run(encoder=small_encoder(seed=1)))
    b = run_config_dict(small_run(encoder=small_encoder(seed=2)))
    assert config_digest(a) == config_digest(b)


def test_pipeline_perfect_recovery_with_clean_probs():
    cfg = RunConfig(
        synth=small_synth(label_noise=0.0),
        smoother="moving_average",
        encoder=small_encoder(window_w=1),
        metric_window=2,
        seeds=(111,),
    )
    result = run_pipeline(cfg)
    assert result.per_seed[0].accuracy == 1.0


def test_pipeline_none_smoother_matches_manual_head():
    cfg = small_run(smoother="none", seeds=(111, 222))
    result = run_pipeline(cfg)
    # Same numbers for every seed and no scorable corrections.
    assert result.per_seed[0].accuracy == result.per_seed[1].accuracy
    assert all(r.lsii is None for r in result.per_seed)
    assert result.aggregate["mean_lsii"] is None

    ds = make_dataset(cfg.synth)
    train, test = ds.split("train"), ds.split("test")
    sums = CentroidSums(3)
    sums.add(_concat([s.features.data for s in train], axis=0),
             StageSequence(np.concatenate([s.stages.labels for s in train]), 3))
    preds = np.concatenate([classify(s.features, sums.classifier()).labels for s in test])
    truth = np.concatenate([s.stages.labels for s in test])
    want = accuracy(StageSequence(preds, 3), StageSequence(truth, 3))
    assert result.per_seed[0].accuracy == want


def _concat(parts, axis):
    from rapklab.sequences import FeatureSequence

    return FeatureSequence(np.concatenate(parts, axis=axis))


def test_pipeline_deterministic():
    cfg = small_run()
    assert run_pipeline(cfg) == run_pipeline(cfg)


def test_pipeline_seed_changes_random_transformer_only():
    result = run_pipeline(small_run())
    a, b = result.per_seed
    assert a.seed == 111 and b.seed == 222
    assert (a.accuracy, a.wte) != (b.accuracy, b.wte)
    fixed = run_pipeline(small_run(smoother="fixed_attention"))
    assert fixed.per_seed[0].accuracy == fixed.per_seed[1].accuracy


def test_pipeline_aggregate_uses_population_std():
    result = run_pipeline(small_run())
    accs = [r.accuracy for r in result.per_seed]
    assert result.aggregate["mean_accuracy"] == pytest.approx(np.mean(accs), abs=1e-12)
    assert result.aggregate["std_accuracy"] == pytest.approx(np.std(accs), abs=1e-12)
    assert result.aggregate["n_seeds"] == 2


def test_pipeline_from_saved_dataset_matches_in_memory(tmp_path):
    synth = small_synth()
    root = save_dataset(iter_subjects(synth), tmp_path / "ds")
    for smoother in SMOOTHERS:
        mem = run_pipeline(small_run(smoother=smoother))
        disk = run_pipeline(small_run(synth=None, dataset_path=str(root), smoother=smoother))
        # Different config digests (different data source spec), same scores.
        assert mem.digest != disk.digest
        assert [replace(r, config_digest="") for r in mem.per_seed] == [
            replace(r, config_digest="") for r in disk.per_seed
        ]


def test_pipeline_probs_smoother_needs_probs(tmp_path):
    root = save_dataset(iter_subjects(small_synth()), tmp_path / "ds")
    for probs in root.glob("subject_*/probs.csv"):
        probs.unlink()
    cfg = small_run(synth=None, dataset_path=str(root), smoother="median")
    with pytest.raises(DatasetError, match="smoother 'median'"):
        run_pipeline(cfg)
    # Feature-space smoothing is unaffected.
    run_pipeline(small_run(synth=None, dataset_path=str(root)))


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("source", ["synth", "dataset"])
def test_pipeline_memory_does_not_grow_with_the_cohort(source, tmp_path):
    # Subjects are made or read one at a time, so a cohort three times larger
    # may add a few label arrays but not one more subject's features.
    t_len, feat_dim = 200, 256

    def config(n_subjects: int) -> RunConfig:
        synth = small_synth(n_subjects=n_subjects, t_len=t_len, feat_dim=feat_dim)
        if source == "synth":
            return small_run(synth=synth, smoother="fixed_attention")
        root = save_dataset(iter_subjects(synth), tmp_path / f"ds{n_subjects}")
        return small_run(synth=None, dataset_path=str(root), smoother="fixed_attention")

    small, large = config(6), config(18)
    run_pipeline(small)  # first-call allocations are not the cohort's
    grown = _traced_peak(lambda: run_pipeline(large)) - _traced_peak(lambda: run_pipeline(small))
    assert grown < t_len * feat_dim * 8


def test_pipeline_reads_each_train_and_test_subject_once_and_no_val(tmp_path, monkeypatch):
    synth = small_synth(n_subjects=10)
    splits = {s.subject_id: s.split for s in make_dataset(synth).subjects}
    expected = sorted(i for i, split in splits.items() if split != "val")
    assert len(expected) < len(splits)

    made = []
    real_gen = synthgen.gen_features

    def gen_features(labels, cfg, i):
        made.append(f"subject_{i:03d}")
        return real_gen(labels, cfg, i)

    monkeypatch.setattr(synthgen, "gen_features", gen_features)
    run_pipeline(small_run(synth=synth))  # two seeds, one pass
    assert sorted(made) == expected

    root = save_dataset(iter_subjects(synth), tmp_path / "ds")
    read = []
    real_read = dataio._read_table
    monkeypatch.setattr(dataio, "_read_table",
                        lambda path, header: read.append(path) or real_read(path, header))
    run_pipeline(small_run(synth=None, dataset_path=str(root)))
    assert sorted(path.parent.name for path in read if path.name == "features.csv") == expected
    assert all(splits[path.parent.name] != "val" for path in read)


# sha256 of report.json at the reference point for every smoother, at the
# first run seed and at all five, as written before the pipeline streamed its
# subjects. The encoder's bytes depend on the BLAS build, so a different
# numpy/OpenBLAS may need these taken afresh.
_REFERENCE_REPORTS = {
    ("none", 1): "5f9aa2308d9c6db4ba12b1582a128772164153c46d81528e3bce156609de4996",
    ("none", 5): "1eef8bb1ecfc1fb623b9ee63be8df0c1d1bc803135bd418d70e114cbf210aa86",
    ("moving_average", 1): "b69a291fe4e2b1caa9928d38ae4caa30f26ba21d1d29016eff1f1c2d4b0471f5",
    ("moving_average", 5): "549aa0f2fb986705e6be90d0c707a4aeccca6ec7a2274c0b753185f68226c041",
    ("median", 1): "70d49a903846a4cf2fffb67f85253ee0977558fe2ddb8c0db6a66f8f62e118ca",
    ("median", 5): "47c1bed311289d8f1c383ed5904e2f6141d3ada8f63ad3d1b1414b952f1a32fc",
    ("fixed_attention", 1): "4a2ce879b65f95cb9e33171575282016f1e4a24fbe7b235024e0cdd1708621c2",
    ("fixed_attention", 5): "0efa89b8d4ffd5c200e4d3b642bf42b550d81e3976fc931bab148cf062144bf4",
    ("random_transformer", 1): "df7d3e37065ba157677a0b23bb15c3e89a4a8efa153488100078b67793708704",
    ("random_transformer", 5): "0d634239c08bb6718bbc9f00e823be94d2676171e6c46857da91a366ff8aed42",
}


@pytest.mark.parametrize("smoother", SMOOTHERS)
def test_reference_reports_keep_their_bytes(smoother, tmp_path):
    one_seed = RunConfig(synth=ACC_SYNTH, smoother=smoother, encoder=ACC_ENCODER, seeds=SEEDS[:1])
    for n_seeds, result in ((1, run_pipeline(one_seed)), (5, acc_pipeline(smoother))):
        path = tmp_path / f"report_{n_seeds}.json"
        write_report_json(result, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == _REFERENCE_REPORTS[smoother, n_seeds], n_seeds


def test_report_json_and_runs_csv_are_byte_stable(tmp_path):
    cfg = small_run()
    for i in (1, 2):
        result = run_pipeline(cfg)
        write_report_json(result, tmp_path / f"report_{i}.json")
        append_runs_csv(result, tmp_path / f"runs_{i}.csv")
    assert (tmp_path / "report_1.json").read_bytes() == (tmp_path / "report_2.json").read_bytes()
    assert (tmp_path / "runs_1.csv").read_bytes() == (tmp_path / "runs_2.csv").read_bytes()


def test_append_runs_csv_accumulates(tmp_path):
    result = run_pipeline(small_run())
    path = tmp_path / "runs.csv"
    append_runs_csv(result, path)
    append_runs_csv(result, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("config_digest,seed,smoother")
    assert len(lines) == 1 + 2 * len(result.per_seed)
    first_row = lines[1].split(",")
    assert first_row[0] == result.digest
    assert float(first_row[6]) == result.per_seed[0].accuracy


def test_apply_axis_window_also_sets_metric_window():
    label, out = apply_axis(small_run(), "window", 7)
    assert label == 7
    assert out.encoder.window_w == 7
    assert out.metric_window == 7
    assert out.resolved_metric_window == 7


def test_apply_axis_other_axes():
    base = small_run()
    assert apply_axis(base, "d_k", 32)[1].encoder.d_k == 32
    label, init_cfg = apply_axis(base, "init", "normal_0.05")
    assert init_cfg.encoder.init == InitScheme("normal", 0.05)
    assert label == "normal_0.05"
    assert apply_axis(base, "init", " kaiming_uniform")[0] == "kaiming_uniform_relu"
    label, hl = apply_axis(base, "heads_layers", "2x4")
    assert (hl.encoder.n_layers, hl.encoder.n_heads) == (2, 4)
    assert label == "2x4"
    label, hl2 = apply_axis(base, "heads_layers", "1x4")
    assert (hl2.encoder.n_layers, hl2.encoder.n_heads) == (1, 4)
    assert label == "1x4"
    assert apply_axis(base, "heads_layers", "01x2")[0] == "1x2"
    label, comp = apply_axis(base, "components", "layernorm")
    assert comp.encoder.use_layernorm and not comp.encoder.use_attention
    assert label == "layernorm"
    with pytest.raises(ValueError, match="unknown component bundle"):
        apply_axis(base, "components", "everything")
    for bad in ("2x4x8", "2x", "x8", "ax2"):
        with pytest.raises(ValueError, match=f"must look like '1x8', got '{bad}'"):
            apply_axis(base, "heads_layers", bad)
    with pytest.raises(ValueError, match="unknown sweep axis"):
        apply_axis(base, "temperature", 1)


def test_component_bundles_all_buildable():
    base = small_run()
    for name in COMPONENT_BUNDLES:
        label, cfg = apply_axis(base, "components", name)
        assert isinstance(cfg.encoder, EncoderConfig), name
        assert label == name


def test_run_sweep_rejects_bad_grids_before_any_data(tmp_path, monkeypatch):
    def made(*args):
        raise AssertionError("a subject was made or read before the grid was checked")

    # Both sources: a synthetic cohort and a dataset directory.
    bases = [small_run(), _sweep_base("dataset", small_synth(), tmp_path / "ds")]
    monkeypatch.setattr(synthgen, "gen_features", made)
    monkeypatch.setattr(dataio, "_read_table", made)
    for base in bases:
        with pytest.raises(ValueError, match="unknown sweep axis"):
            run_sweep(base, "gamma", (1,))
        with pytest.raises(ValueError, match="non-empty"):
            run_sweep(base, "window", ())
        # Values repeat once parsed: " 1x2" and "1x2" give one config.
        with pytest.raises(ValueError, match="window repeats 3"):
            run_sweep(base, "window", (3, 2, 3))
        with pytest.raises(ValueError, match="heads_layers repeats ' 1x2'"):
            run_sweep(base, "heads_layers", ("1x2", " 1x2"))
        with pytest.raises(ValueError, match="unknown component bundle"):
            run_sweep(base, "components", ("full", "everything"))
        # A smoother without encoder weights would repeat one result on any
        # other axis.
        for smoother in ("none", "moving_average", "median", "fixed_attention"):
            for axis, grid in (("d_k", (4, 8)), ("init", ("orthogonal",)),
                               ("heads_layers", ("1x2",)), ("components", ("full",))):
                with pytest.raises(ValueError, match=f"sweeps only the window axis, not {axis}"):
                    run_sweep(replace(base, smoother=smoother), axis, grid)
    monkeypatch.undo()
    for smoother in ("none", "moving_average", "median", "fixed_attention"):
        assert run_sweep(small_run(smoother=smoother), "window", (3, 4))


def test_run_sweep_rows_and_ordering():
    base = small_run(seeds=(111, 222))
    rows = run_sweep(base, "window", (3, 2))
    # Sorted by numeric value, then seeds, then mean before std.
    assert [(r["value"], r["seed"]) for r in rows] == [
        (2, 111), (2, 222), (2, "mean"), (2, "std"),
        (3, 111), (3, 222), (3, "mean"), (3, "std"),
    ]
    assert all(r["axis"] == "window" for r in rows)
    mean_row = rows[2]
    per_seed = [r["accuracy"] for r in rows[:2]]
    assert mean_row["accuracy"] == pytest.approx(np.mean(per_seed), abs=1e-12)
    assert rows == run_sweep(base, "window", (3, 2))


def _sweep_base(source: str, synth: SynthConfig, root, **overrides) -> RunConfig:
    if source == "synth":
        return small_run(synth=synth, **overrides)
    save_dataset(iter_subjects(synth), root)
    return small_run(synth=None, dataset_path=str(root), **overrides)


@pytest.mark.parametrize("source", ["synth", "dataset"])
def test_sweep_memory_does_not_grow_with_the_cohort(source, tmp_path):
    # Each pass holds one subject at a time, as run_pipeline does.
    t_len, feat_dim = 100, 256

    def base(n_subjects: int) -> RunConfig:
        synth = small_synth(n_subjects=n_subjects, t_len=t_len, feat_dim=feat_dim)
        return _sweep_base(source, synth, tmp_path / f"ds{n_subjects}")

    small, large = base(6), base(18)
    run_sweep(small, "window", (3, 5))  # first-call allocations are not the cohort's
    grown = (_traced_peak(lambda: run_sweep(large, "window", (3, 5)))
             - _traced_peak(lambda: run_sweep(small, "window", (3, 5))))
    assert grown < t_len * feat_dim * 8


@pytest.mark.parametrize("source", ["synth", "dataset"])
@pytest.mark.parametrize("smoother, axis, grid, passes, positional", [
    ("median", "window", (3, 5, 7), 1, False),
    ("random_transformer", "window", (3, 5, 7), 1, False),
    ("random_transformer", "d_k", (4, 8, 16), 3, False),
    ("random_transformer", "window", (3, 5, 7), 3, True),
    ("median", "window", (3, 5, 7), 1, True),
])
def test_sweep_takes_one_pass_per_weights_group_and_skips_val(
    source, smoother, axis, grid, passes, positional, tmp_path, monkeypatch
):
    # Grid points that share encoder weights share a pass: a window sweep
    # makes or reads every train and test subject once, unless the random
    # transformer's positional rows (sized by the window) differ per point; a
    # d_k sweep takes one pass per grid point; no pass touches a val subject.
    # The rows are those of one run_pipeline per grid point.
    synth = small_synth(n_subjects=10)
    splits = {s.subject_id: s.split for s in iter_subjects(synth)}
    once = [i for i, split in splits.items() if split != "val"]
    assert len(once) < len(splits)
    base = _sweep_base(source, synth, tmp_path / "ds", smoother=smoother,
                       encoder=small_encoder(use_positional=positional))
    expected = {
        value: run_pipeline(apply_axis(base, axis, value)[1]).per_seed for value in grid
    }

    seen = []
    if source == "synth":
        real_gen = synthgen.gen_features
        monkeypatch.setattr(synthgen, "gen_features",
                            lambda labels, cfg, i: seen.append(f"subject_{i:03d}")
                            or real_gen(labels, cfg, i))
    else:
        real_read = dataio._read_table
        monkeypatch.setattr(dataio, "_read_table",
                            lambda path, header: (path.name == "features.csv"
                                                  and seen.append(path.parent.name))
                            or real_read(path, header))
    rows = run_sweep(base, axis, grid)
    assert sorted(seen) == sorted(once * passes)

    got = {}
    for r in rows:
        if isinstance(r["seed"], int):
            got.setdefault(r["value"], []).append((r["seed"], r["accuracy"], r["wte"], r["lsii"]))
    assert got == {
        value: [(e.seed, e.accuracy, e.wte, e.lsii) for e in reports]
        for value, reports in expected.items()
    }


# sha256 of sweep.csv for small sweeps on a 5-subject cohort at two run
# seeds, as written when each grid point took its own pass over a cohort
# held in memory: every axis with the random transformer, the window axis
# for every other smoother and with positional rows, and a dataset
# directory as the source.
_WINDOWS = (3, 5, 8)
_REFERENCE_SWEEPS = {
    "window": (
        "random_transformer", "window", _WINDOWS, {},
        "fcbec7c82551ecdc79180f4c677a3a031c231d42ec6b126db6f75037ac99b3a1",
    ),
    "d_k": (
        "random_transformer", "d_k", (4, 8, 16), {},
        "772a0d78c16234fe53fbbc2d0e190de2049ac9d65bc41b68ef1f83075da7bc17",
    ),
    "init": (
        "random_transformer", "init", ("xavier_uniform", "orthogonal", "normal_0.02"), {},
        "9757dde91e0310c881fc654903b46ebccc5a92036474f7df514a8dc089803f22",
    ),
    "heads_layers": (
        "random_transformer", "heads_layers", ("1x1", "1x2", "2x2"), {},
        "0ce92bf0ff40866f2a78b5c265063f3faf7d9fde98f559d8035eabe1c1293a56",
    ),
    "components": (
        "random_transformer", "components", tuple(COMPONENT_BUNDLES), {},
        "231803b9c33e01f72e71dd6fe2eed2116cb85318c74d0073279c07206daa6106",
    ),
    "window-none": (
        "none", "window", _WINDOWS, {},
        "00b83e352d3a3e583fd3960bb44ece7b6fd36cf257b42a6849c1883fc2c9b29e",
    ),
    "window-moving_average": (
        "moving_average", "window", _WINDOWS, {},
        "b1779f2c5ced2193d70f98f1d90f04f3ef79acc20cd1db55a8d86a85eb165497",
    ),
    "window-median": (
        "median", "window", _WINDOWS, {},
        "3dfc13ed9256eb186bddceb80e028a23f757fd92ece11d5449a9a737c81167b9",
    ),
    "window-fixed_attention": (
        "fixed_attention", "window", _WINDOWS, {},
        "784d2e97468d77208b7301a09a2f5e58be126dcb9b313e5075be6a4e4b49ccb9",
    ),
    "window-positional": (
        "random_transformer", "window", _WINDOWS, {"use_positional": True},
        "a6b0c2cd4b1d2a27e26c959f3a7a6279727adde08314a0599200978bfdf6e13a",
    ),
    "window-dataset": (
        "random_transformer", "window", _WINDOWS, {},
        "fcbec7c82551ecdc79180f4c677a3a031c231d42ec6b126db6f75037ac99b3a1",
    ),
}


@pytest.mark.parametrize("case", _REFERENCE_SWEEPS)
def test_reference_sweeps_keep_their_bytes(case, tmp_path):
    smoother, axis, grid, encoder, digest = _REFERENCE_SWEEPS[case]
    source = "dataset" if case == "window-dataset" else "synth"
    base = _sweep_base(source, small_synth(n_subjects=5), tmp_path / "ds",
                       smoother=smoother, encoder=small_encoder(**encoder))
    path = tmp_path / "sweep.csv"
    write_sweep_csv(run_sweep(base, axis, grid), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_correlation_study_filters_rows():
    rows = [
        {"seed": 1, "lsii": 0.2, "wte": 1.0, "accuracy": 0.5},
        {"seed": 2, "lsii": 0.4, "wte": 0.8, "accuracy": 0.6},
        {"seed": 3, "lsii": 0.6, "wte": 0.6, "accuracy": 0.7},
        {"seed": "mean", "lsii": 9.0, "wte": 9.0, "accuracy": 9.0},
        {"seed": 4, "lsii": None, "wte": 0.5, "accuracy": 0.9},
    ]
    r_lsii, r_wte = correlation_study(rows)
    assert r_lsii == pytest.approx(1.0)
    assert r_wte == pytest.approx(-1.0)
    with pytest.raises(ValueError, match="at least 3"):
        correlation_study(rows[:2])


def test_sweep_csv_round_trip(tmp_path):
    rows = run_sweep(small_run(seeds=(111,)), "window", (2, 3))
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path)
    back = read_sweep_csv(path)
    assert len(back) == len(rows)
    for orig, parsed in zip(rows, back):
        assert parsed["axis"] == orig["axis"]
        assert parsed["value"] == str(orig["value"])
        assert parsed["seed"] == orig["seed"]
        for key in ("accuracy", "weighted_f1", "wte"):
            assert parsed[key] == orig[key]  # repr round trip is exact
        assert parsed["lsii"] == orig["lsii"]
    (tmp_path / "bad.csv").write_text("a,b\n1,2\n")
    with pytest.raises(DatasetError, match="header"):
        read_sweep_csv(tmp_path / "bad.csv")


def test_smoother_registry_is_closed():
    assert SMOOTHERS == (
        "none", "moving_average", "median", "fixed_attention", "random_transformer"
    )
