import csv
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rapklab.dataio import DatasetError, load_dataset, read_label_csv, save_dataset
from rapklab.sequences import FeatureSequence, ProbSequence
from rapklab.synthgen import SynthConfig, SynthDataset, make_dataset


@pytest.fixture(scope="module")
def small_dataset():
    return make_dataset(SynthConfig(n_classes=3, t_len=40, n_subjects=3, feat_dim=4, seed=7))


def test_round_trip_is_lossless(small_dataset, tmp_path):
    root = save_dataset(small_dataset, tmp_path / "ds")
    loaded = load_dataset(root)
    assert loaded.n_classes == small_dataset.n_classes
    assert loaded.feat_dim == small_dataset.feat_dim
    assert loaded.config == small_dataset.config
    for a, b in zip(small_dataset.subjects, loaded.subjects):
        assert a.subject_id == b.subject_id and a.split == b.split
        np.testing.assert_array_equal(a.features.data, b.features.data)
        np.testing.assert_array_equal(a.stages.labels, b.stages.labels)
        np.testing.assert_array_equal(a.probs.probs, b.probs.probs)


def test_layout_on_disk(small_dataset, tmp_path):
    root = save_dataset(small_dataset, tmp_path / "ds")
    manifest = json.loads((root / "manifest.json").read_text())
    assert manifest["format"] == "rapklab-dataset"
    assert manifest["version"] == 1
    assert len(manifest["subjects"]) == 3
    sub = root / "subject_000"
    assert (sub / "features.csv").is_file()
    assert (sub / "labels.csv").is_file()
    assert (sub / "probs.csv").is_file()
    header = (sub / "features.csv").read_text().splitlines()[0]
    assert header == "f0,f1,f2,f3"


def test_missing_manifest(tmp_path):
    with pytest.raises(DatasetError, match="missing manifest"):
        load_dataset(tmp_path / "nowhere")


def test_corrupt_manifest(small_dataset, tmp_path):
    root = save_dataset(small_dataset, tmp_path / "ds")
    (root / "manifest.json").write_text("{not json")
    with pytest.raises(DatasetError, match="invalid JSON"):
        load_dataset(root)
    (root / "manifest.json").write_text(json.dumps({"format": "other"}))
    with pytest.raises(DatasetError, match="unrecognized format"):
        load_dataset(root)


def test_label_out_of_range_names_row(small_dataset, tmp_path):
    root = save_dataset(small_dataset, tmp_path / "ds")
    path = root / "subject_001" / "labels.csv"
    lines = path.read_text().splitlines()
    lines[3] = "9"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetError, match=r"row 4 has stage 9"):
        load_dataset(root)


def test_non_numeric_cell_names_row(small_dataset, tmp_path):
    root = save_dataset(small_dataset, tmp_path / "ds")
    path = root / "subject_000" / "features.csv"
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[1] = "oops"
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetError, match="row 3 contains a non-numeric cell"):
        load_dataset(root)


def test_fractional_label_rejected(small_dataset, tmp_path):
    root = save_dataset(small_dataset, tmp_path / "ds")
    path = root / "subject_000" / "labels.csv"
    lines = path.read_text().splitlines()
    lines[1] = "0.5"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetError, match="integers"):
        load_dataset(root)


def test_row_count_mismatch(small_dataset, tmp_path):
    root = save_dataset(small_dataset, tmp_path / "ds")
    path = root / "subject_002" / "labels.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-2]) + "\n")
    with pytest.raises(DatasetError, match="has 40 rows but labels.csv has 38"):
        load_dataset(root)


def test_manifest_length_mismatch(small_dataset, tmp_path):
    # Consistently truncated files still clash with the manifest's t_len.
    root = save_dataset(small_dataset, tmp_path / "ds")
    for name in ("features.csv", "labels.csv", "probs.csv"):
        path = root / "subject_002" / name
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")
    with pytest.raises(DatasetError, match="manifest says t_len=40, files have 38"):
        load_dataset(root)


def test_header_mismatch(small_dataset, tmp_path):
    root = save_dataset(small_dataset, tmp_path / "ds")
    path = root / "subject_000" / "probs.csv"
    lines = path.read_text().splitlines()
    lines[0] = "q0,q1,q2"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetError, match="header mismatch"):
        load_dataset(root)


def test_missing_probs_loads_as_none(small_dataset, tmp_path):
    root = save_dataset(small_dataset, tmp_path / "ds")
    (root / "subject_000" / "probs.csv").unlink()
    loaded = load_dataset(root)
    assert loaded.subjects[0].probs is None
    assert loaded.subjects[1].probs is not None


def test_missing_features_file(small_dataset, tmp_path):
    root = save_dataset(small_dataset, tmp_path / "ds")
    (root / "subject_001" / "features.csv").unlink()
    with pytest.raises(DatasetError, match="missing file"):
        load_dataset(root)


def test_read_label_csv(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("stage\n0\n2\n1\n")
    np.testing.assert_array_equal(read_label_csv(path), [0, 2, 1])
    path.write_text("stage\n")
    with pytest.raises(DatasetError, match="no data rows"):
        read_label_csv(path)
    path.write_text("")
    with pytest.raises(DatasetError, match="empty file"):
        read_label_csv(path)


def test_save_is_deterministic(small_dataset, tmp_path):
    a = save_dataset(small_dataset, tmp_path / "a")
    b = save_dataset(small_dataset, tmp_path / "b")
    for rel in ("manifest.json", "subject_000/features.csv", "subject_002/probs.csv"):
        assert (Path(a) / rel).read_bytes() == (Path(b) / rel).read_bytes()


def _reference_write(path, header, rows):
    # The writer the format was defined by: csv.writer over repr(float) cells.
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# Values either side of repr's switches (to exponent notation above 1e16 and
# below 1e-4), signed zeros, a subnormal, integral floats, and the extremes.
_EDGE_FEATURES = [
    [0.0, -0.0, 5e-324, -5e-324],
    [1e16, 9999999999999998.0, 1e-5, 0.0001],
    [2.0, -3.0, 1e15, 123456789.0],
    [1.7976931348623157e308, -1.7976931348623157e308, 2.2250738585072014e-308, 1e-300],
    [0.1, 1 / 3, -2.5e-10, 6.02214076e23],
]
_EDGE_PROBS = [
    [1.0, 0.0, -0.0],
    [5e-324, 1.0, 0.0],
    [1e-5, 0.99999, 0.0],
    [0.25, 0.5, 0.25],
    [1 / 3, 1 / 3, 1 / 3],
]


def test_files_match_the_reference_writer_byte_for_byte(small_dataset, tmp_path):
    first = small_dataset.subjects[0]
    n = len(_EDGE_FEATURES)
    edge = replace(
        first,
        features=FeatureSequence(np.vstack([_EDGE_FEATURES, first.features.data[n:]])),
        probs=ProbSequence(np.vstack([_EDGE_PROBS, first.probs.probs[n:]])),
    )
    dataset = SynthDataset(
        subjects=(edge, *small_dataset.subjects[1:]),
        n_classes=small_dataset.n_classes,
        feat_dim=small_dataset.feat_dim,
        config=small_dataset.config,
    )
    root = save_dataset(dataset, tmp_path / "ds")
    ref = tmp_path / "ref"
    ref.mkdir()
    for sub in dataset.subjects:
        got = root / sub.subject_id
        d, c = sub.features.dim, sub.probs.n_classes
        _reference_write(ref / "features.csv", [f"f{j}" for j in range(d)],
                         ([repr(float(v)) for v in row] for row in sub.features.data))
        _reference_write(ref / "labels.csv", ["stage"],
                         ([str(int(v))] for v in sub.stages.labels))
        _reference_write(ref / "probs.csv", [f"p{j}" for j in range(c)],
                         ([repr(float(v)) for v in row] for row in sub.probs.probs))
        for name in ("features.csv", "labels.csv", "probs.csv"):
            assert (got / name).read_bytes() == (ref / name).read_bytes(), (sub.subject_id, name)
    assert "-0.0,5e-324,-5e-324" in (root / "subject_000" / "features.csv").read_text()
    loaded = load_dataset(root)
    for a, b in zip(dataset.subjects, loaded.subjects):
        for x, y in ((a.features.data, b.features.data), (a.probs.probs, b.probs.probs)):
            assert x.shape == y.shape
            np.testing.assert_array_equal(x.view(np.uint64), y.view(np.uint64))
        np.testing.assert_array_equal(a.stages.labels, b.stages.labels)
