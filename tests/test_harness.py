import json

import numpy as np
import pytest

from rapklab import harness
from rapklab.attention import EncoderConfig
from rapklab.dataio import DatasetError, save_dataset
from rapklab.harness import (
    COMPONENT_BUNDLES,
    SMOOTHERS,
    RunConfig,
    SweepSpec,
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
from rapklab.smoothers import classify, fit_centroids
from rapklab.synthgen import SynthConfig, make_dataset


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
    with pytest.raises(ValueError, match="metric_window"):
        small_run(metric_window=1)


def test_resolved_metric_window_defaults_to_encoder_window():
    assert small_run().resolved_metric_window == 5
    assert small_run(metric_window=20).resolved_metric_window == 20


def test_load_run_config_round_trip():
    cfg = small_run(metric_window=7, integer_median=True)
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
    clf = fit_centroids(
        _concat([s.features.data for s in train], axis=0),
        StageSequence(np.concatenate([s.stages.labels for s in train]), 3),
        3,
    )
    preds = np.concatenate([classify(s.features, clf).labels for s in test])
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
    root = save_dataset(make_dataset(synth), tmp_path / "ds")
    mem = run_pipeline(small_run())
    disk = run_pipeline(small_run(synth=None, dataset_path=str(root)))
    # Different config digests (different data source spec), same numbers.
    assert mem.digest != disk.digest
    for a, b in zip(mem.per_seed, disk.per_seed):
        assert a.accuracy == b.accuracy
        assert a.wte == b.wte
        assert a.lsii == b.lsii


def test_pipeline_probs_smoother_needs_probs(tmp_path):
    root = save_dataset(make_dataset(small_synth()), tmp_path / "ds")
    for probs in root.glob("subject_*/probs.csv"):
        probs.unlink()
    cfg = small_run(synth=None, dataset_path=str(root), smoother="median")
    with pytest.raises(ValueError, match="smoother 'median'"):
        run_pipeline(cfg)
    # Feature-space smoothing is unaffected.
    run_pipeline(small_run(synth=None, dataset_path=str(root)))


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
    out = apply_axis(small_run(), "window", 7)
    assert out.encoder.window_w == 7
    assert out.metric_window == 7
    assert out.resolved_metric_window == 7


def test_apply_axis_other_axes():
    base = small_run()
    assert apply_axis(base, "d_k", 32).encoder.d_k == 32
    init_cfg = apply_axis(base, "init", "normal_0.05")
    assert init_cfg.encoder.init == InitScheme("normal_std", 0.05)
    hl = apply_axis(base, "heads_layers", "2x4")
    assert (hl.encoder.n_layers, hl.encoder.n_heads) == (2, 4)
    hl2 = apply_axis(base, "heads_layers", (1, 4))
    assert (hl2.encoder.n_layers, hl2.encoder.n_heads) == (1, 4)
    comp = apply_axis(base, "components", "layernorm")
    assert comp.encoder.use_layernorm and not comp.encoder.use_attention
    with pytest.raises(ValueError, match="unknown component bundle"):
        apply_axis(base, "components", "everything")
    with pytest.raises(ValueError, match="heads_layers"):
        apply_axis(base, "heads_layers", "2x4x8")
    with pytest.raises(ValueError, match="unknown sweep axis"):
        apply_axis(base, "temperature", 1)


def test_component_bundles_all_buildable():
    base = small_run()
    for name in COMPONENT_BUNDLES:
        cfg = apply_axis(base, "components", name)
        assert isinstance(cfg.encoder, EncoderConfig), name


def test_sweep_spec_validation():
    with pytest.raises(ValueError, match="unknown sweep axis"):
        SweepSpec(axis="gamma", grid=(1,), base=small_run())
    with pytest.raises(ValueError, match="non-empty"):
        SweepSpec(axis="window", grid=(), base=small_run())


def test_run_sweep_rows_and_ordering():
    spec = SweepSpec(axis="window", grid=(3, 2), base=small_run(seeds=(111, 222)))
    rows = run_sweep(spec)
    # Sorted by numeric value, then seeds, then mean before std.
    assert [(r["value"], r["seed"]) for r in rows] == [
        (2, 111), (2, 222), (2, "mean"), (2, "std"),
        (3, 111), (3, 222), (3, "mean"), (3, "std"),
    ]
    assert all(r["axis"] == "window" for r in rows)
    mean_row = rows[2]
    per_seed = [r["accuracy"] for r in rows[:2]]
    assert mean_row["accuracy"] == pytest.approx(np.mean(per_seed), abs=1e-12)
    assert rows == run_sweep(spec)


def test_run_sweep_loads_the_dataset_once(tmp_path, monkeypatch):
    root = save_dataset(make_dataset(small_synth()), tmp_path / "ds")
    base = small_run(synth=None, dataset_path=str(root), smoother="median")
    spec = SweepSpec(axis="window", grid=(3, 5, 7), base=base)
    expected = {
        value: run_pipeline(apply_axis(base, "window", value)).per_seed for value in spec.grid
    }
    loads = []
    real_load = harness.load_dataset
    monkeypatch.setattr(harness, "load_dataset", lambda path: loads.append(path) or real_load(path))
    rows = run_sweep(spec)
    assert loads == [str(root)]
    got = {}
    for r in rows:
        if isinstance(r["seed"], int):
            got.setdefault(r["value"], []).append((r["seed"], r["accuracy"], r["wte"], r["lsii"]))
    assert got == {
        value: [(e.seed, e.accuracy, e.wte, e.lsii) for e in reports]
        for value, reports in expected.items()
    }


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
    spec = SweepSpec(axis="window", grid=(2, 3), base=small_run(seeds=(111,)))
    rows = run_sweep(spec)
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
