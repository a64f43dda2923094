import ast
import csv
import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rapklab import dataio
from rapklab.dataio import (
    DatasetError,
    load_dataset,
    open_dataset,
    read_label_csv,
    save_dataset,
)
from rapklab.sequences import FeatureSequence, ProbSequence
from rapklab.synthgen import SynthConfig, SynthDataset, iter_subjects, make_dataset


@pytest.fixture(scope="module")
def small_dataset():
    return make_dataset(SynthConfig(n_classes=3, t_len=40, n_subjects=3, feat_dim=4, seed=7))


def test_round_trip_is_lossless(small_dataset, tmp_path):
    root = save_dataset(small_dataset.subjects, tmp_path / "ds", small_dataset.config)
    loaded = load_dataset(root)
    assert loaded.n_classes == small_dataset.n_classes
    assert loaded.feat_dim == small_dataset.feat_dim
    assert loaded.config == small_dataset.config
    for a, b in zip(small_dataset.subjects, loaded.subjects):
        assert a.subject_id == b.subject_id and a.split == b.split
        np.testing.assert_array_equal(a.features.data, b.features.data)
        np.testing.assert_array_equal(a.stages.labels, b.stages.labels)
        np.testing.assert_array_equal(a.probs.probs, b.probs.probs)


def test_open_dataset_reads_a_subject_only_when_it_is_reached(small_dataset, tmp_path):
    root = save_dataset(small_dataset.subjects, tmp_path / "ds", small_dataset.config)
    data = open_dataset(root)
    assert (data.n_classes, data.feat_dim) == (small_dataset.n_classes, small_dataset.feat_dim)
    assert data.config == small_dataset.config
    for split in ("train", "val", "test"):
        assert [s.subject_id for s in data.iter_subjects(split)] == [
            s.subject_id for s in small_dataset.split(split)
        ]
    val_id = small_dataset.split("val")[0].subject_id
    (root / val_id / "features.csv").unlink()
    data = open_dataset(root)  # the manifest alone is read here
    assert len(list(data.iter_subjects("train"))) == len(small_dataset.split("train"))
    with pytest.raises(DatasetError, match="missing file"):
        list(data.iter_subjects("val"))


def test_layout_on_disk(small_dataset, tmp_path):
    root = save_dataset(small_dataset.subjects, tmp_path / "ds", small_dataset.config)
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
    root = save_dataset(small_dataset.subjects, tmp_path / "ds", small_dataset.config)
    (root / "manifest.json").write_text("{not json")
    with pytest.raises(DatasetError, match="invalid JSON"):
        load_dataset(root)
    (root / "manifest.json").write_bytes(b'{"format": "\xff"}')
    with pytest.raises(DatasetError, match="manifest.json: invalid JSON"):
        load_dataset(root)
    (root / "manifest.json").write_text(json.dumps({"format": "other"}))
    with pytest.raises(DatasetError, match="unrecognized format"):
        load_dataset(root)
    (root / "manifest.json").write_text(json.dumps(
        {"format": "rapklab-dataset", "n_classes": 3, "feat_dim": 4, "subjects": []}))
    with pytest.raises(DatasetError, match="dataset must contain at least one subject"):
        load_dataset(root)


def test_label_out_of_range_names_row(small_dataset, tmp_path):
    root = save_dataset(small_dataset.subjects, tmp_path / "ds", small_dataset.config)
    path = root / "subject_001" / "labels.csv"
    lines = path.read_text().splitlines()
    lines[3] = "9"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetError, match=r"row 4 has stage 9"):
        load_dataset(root)


def test_non_numeric_cell_names_row(small_dataset, tmp_path):
    root = save_dataset(small_dataset.subjects, tmp_path / "ds", small_dataset.config)
    path = root / "subject_000" / "features.csv"
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[1] = "oops"
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetError, match="row 3 contains a non-numeric cell"):
        load_dataset(root)


def test_fractional_label_rejected(small_dataset, tmp_path):
    root = save_dataset(small_dataset.subjects, tmp_path / "ds", small_dataset.config)
    path = root / "subject_000" / "labels.csv"
    lines = path.read_text().splitlines()
    lines[1] = "0.5"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetError, match="integers"):
        load_dataset(root)


def test_row_count_mismatch(small_dataset, tmp_path):
    root = save_dataset(small_dataset.subjects, tmp_path / "ds", small_dataset.config)
    path = root / "subject_002" / "labels.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-2]) + "\n")
    with pytest.raises(DatasetError, match="has 40 rows but labels.csv has 38"):
        load_dataset(root)


def test_manifest_length_mismatch(small_dataset, tmp_path):
    # Consistently truncated files still clash with the manifest's t_len.
    root = save_dataset(small_dataset.subjects, tmp_path / "ds", small_dataset.config)
    for name in ("features.csv", "labels.csv", "probs.csv"):
        path = root / "subject_002" / name
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")
    with pytest.raises(DatasetError, match="manifest says t_len=40, files have 38"):
        load_dataset(root)


def test_header_mismatch(small_dataset, tmp_path):
    root = save_dataset(small_dataset.subjects, tmp_path / "ds", small_dataset.config)
    path = root / "subject_000" / "probs.csv"
    lines = path.read_text().splitlines()
    lines[0] = "q0,q1,q2"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetError, match="header mismatch"):
        load_dataset(root)


def test_missing_probs_loads_as_none(small_dataset, tmp_path):
    root = save_dataset(small_dataset.subjects, tmp_path / "ds", small_dataset.config)
    (root / "subject_000" / "probs.csv").unlink()
    loaded = load_dataset(root)
    assert loaded.subjects[0].probs is None
    assert loaded.subjects[1].probs is not None


def test_missing_features_file(small_dataset, tmp_path):
    root = save_dataset(small_dataset.subjects, tmp_path / "ds", small_dataset.config)
    (root / "subject_001" / "features.csv").unlink()
    with pytest.raises(DatasetError, match="missing file"):
        load_dataset(root)


def test_read_label_csv(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("stage\n0\n2\n1\n")
    np.testing.assert_array_equal(read_label_csv(path), [0, 2, 1])
    with pytest.raises(DatasetError, match=r"row 3 has stage 2\.0; .* in \[0, 2\)"):
        read_label_csv(path, 2)
    path.write_text("stage\n")
    with pytest.raises(DatasetError, match="no data rows"):
        read_label_csv(path)
    path.write_text("")
    with pytest.raises(DatasetError, match="empty file"):
        read_label_csv(path)


def test_save_is_deterministic(small_dataset, tmp_path):
    a = save_dataset(small_dataset.subjects, tmp_path / "a", small_dataset.config)
    b = save_dataset(small_dataset.subjects, tmp_path / "b", small_dataset.config)
    for rel in ("manifest.json", "subject_000/features.csv", "subject_002/probs.csv"):
        assert (Path(a) / rel).read_bytes() == (Path(b) / rel).read_bytes()


def test_save_dataset_checks_the_cohort(small_dataset, tmp_path):
    first, second = small_dataset.subjects[:2]
    with pytest.raises(ValueError, match="subject_000: subject id repeats"):
        save_dataset([first, second, first], tmp_path / "ds")
    wide = replace(second, features=FeatureSequence(np.zeros((second.stages.t_len, 5))))
    with pytest.raises(ValueError, match="subject_001: feature width differs"):
        save_dataset([first, wide], tmp_path / "ds")
    with pytest.raises(ValueError, match="at least one subject"):
        save_dataset([], tmp_path / "ds")


def test_save_dataset_leaves_no_manifest_when_a_subject_fails(small_dataset, tmp_path):
    # The old manifest goes first and the new one is written last, so a
    # directory whose subjects were not all written cannot be opened.
    root = save_dataset(small_dataset.subjects, tmp_path / "ds", small_dataset.config)

    def failing():
        yield small_dataset.subjects[0]
        raise RuntimeError("source failed")

    with pytest.raises(RuntimeError, match="source failed"):
        save_dataset(failing(), root)
    assert (root / "subject_000" / "features.csv").is_file()
    assert not (root / "manifest.json").exists()
    with pytest.raises(DatasetError, match="missing manifest"):
        open_dataset(root)


def test_save_dataset_that_fails_before_its_first_subject_leaves_out_dir_as_it_was(
        small_dataset, tmp_path):
    # out_dir is made, and an old manifest removed, only once a subject arrives.
    root = save_dataset(small_dataset.subjects, tmp_path / "ds", small_dataset.config)
    before = {path: path.read_bytes() for path in root.rglob("*") if path.is_file()}

    def failing():
        raise MemoryError("source failed")
        yield

    with pytest.raises(MemoryError, match="source failed"):
        save_dataset(failing(), root)
    assert {path: path.read_bytes() for path in root.rglob("*") if path.is_file()} == before
    open_dataset(root)
    with pytest.raises(ValueError, match="at least one subject"):
        save_dataset([], tmp_path / "empty")
    assert not (tmp_path / "empty").exists()


def test_save_dataset_memory_does_not_grow_with_the_cohort(tmp_path):
    # Each subject is written as it is drawn and freed before the next.
    t_len, feat_dim = 50, 64

    def save(n_subjects: int) -> None:
        cfg = SynthConfig(n_subjects=n_subjects, t_len=t_len, feat_dim=feat_dim)
        save_dataset(iter_subjects(cfg), tmp_path / f"ds{n_subjects}", cfg)

    def peak(n_subjects: int) -> int:
        tracemalloc.start()
        try:
            save(n_subjects)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    save(6)  # first-call allocations are not the cohort's
    assert peak(18) - peak(6) < t_len * feat_dim * 8


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
    root = save_dataset(dataset.subjects, tmp_path / "ds", dataset.config)
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


def _stress_values() -> np.ndarray:
    # About 1.1 million seeded doubles of both signs: zeros; log-uniform
    # decades from 1e-12 to 1e18; random finite bit patterns, of any exponent and with
    # 1.2e-10 <= |x| < 2**52; 64 ulps either side of 1e-10, 1e-5, 1e-4, 1e15,
    # 1e16, 2**52 and 2**53; powers of two (whose rounding interval is half as
    # wide below) and their neighbours; short decimals n / 10**p; and
    # integral floats.
    rng = np.random.default_rng(14)
    n = 270_000

    def signed(v):
        return v * rng.choice([-1.0, 1.0], v.size)

    ulps = np.arange(-64, 65)
    edges = [np.float64(c).view(np.int64) + ulps
             for c in (1e-10, 1e-5, 1e-4, 1e15, 1e16, 2.0**52, 2.0**53)]
    powers = np.ldexp(1.0, np.arange(-40, 60)).view(np.int64)
    values = np.concatenate([
        signed(np.zeros(64)),
        signed(10.0 ** rng.uniform(-12, 18, n)),
        rng.integers(0, 2**64, n // 4, dtype=np.uint64).view(np.float64),
        signed(rng.integers(990 << 52, 1075 << 52, n, dtype=np.int64).view(np.float64)),
        signed(np.concatenate(edges).view(np.float64)),
        signed(np.concatenate([powers - 1, powers, powers + 1]).view(np.float64)),
        signed(rng.integers(1, 10**6, n) / 10.0 ** rng.integers(0, 11, n)),
        signed(rng.integers(0, 2**52, n).astype(np.float64)),
    ])
    return values[np.isfinite(values)]


def test_block_formatter_writes_repr_for_a_million_values(tmp_path):
    column = _stress_values()[:, None]
    covered = dataio._covered_rows(column)
    assert covered.sum() >= 10**6
    table = column[covered][: covered.sum() // 8 * 8].reshape(-1, 8)
    path = tmp_path / "t.csv"
    dataio._write_table(path, [f"c{j}" for j in range(8)], table)
    lines = path.read_bytes().decode().split("\r\n")
    assert lines == [",".join(f"c{j}" for j in range(8)),
                     *(",".join(map(repr, row)) for row in table.tolist()), ""]
    # The covered range: 0 and 1e-10 <= |x| < 2**52.
    ends = np.array([[0.0], [-0.0], [1e-10], [-np.nextafter(2.0**52, 0)],
                     [np.nextafter(1e-10, 0)], [2.0**52], [5e-324]])
    assert dataio._covered_rows(ends).tolist() == [True] * 4 + [False] * 3


def test_rows_the_formatter_does_not_cover_keep_their_repr_lines(tmp_path):
    values = _stress_values()[::20]
    table = values[: values.size // 4 * 4].reshape(-1, 4)
    # Blocks of formatted rows follow blocks that hold a fallback row.
    step = dataio._BLOCK_CELLS // 4
    whole = [dataio._covered_rows(table[lo:lo + step]).all() for lo in range(0, len(table), step)]
    assert not whole[0] and whole[-1]
    header = [f"c{j}" for j in range(4)]
    dataio._write_table(tmp_path / "got.csv", header, table)
    _reference_write(tmp_path / "ref.csv", header,
                     ([repr(v) for v in row] for row in table.tolist()))
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_writing_a_subject_holds_one_block_of_arrays(tmp_path):
    # The formatter's arrays are made per block of rows, so a 1000 x 256
    # subject is written in about 2 MB, whatever its length.
    cfg = SynthConfig(n_classes=5, t_len=1000, n_subjects=3, feat_dim=256, seed=3)
    subject = next(iter_subjects(cfg))
    save_dataset([subject], tmp_path / "first")  # first-call allocations are not the write's
    tracemalloc.start()
    try:
        save_dataset([subject], tmp_path / "ds")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_write_csv_cells_line_endings_and_append(tmp_path):
    # A float cell is repr(float(v)) (numpy 2's repr of a numpy float names
    # its type), None is an empty cell, and appended rows get the header only
    # in a new or empty file; a file with another header takes no row.
    path = tmp_path / "t.csv"
    path.touch()
    dataio.write_csv(path, ["a", "b", "c"], [[np.float64(0.5), None, True]], append=True)
    dataio.write_csv(path, ["a", "b", "c"], [[1, "x", 0.1]], append=True)
    assert path.read_bytes() == b"a,b,c\r\n0.5,,True\r\n1,x,0.1\r\n"
    dataio.write_csv(path, ["a"], [[2.0]], end="\n")
    assert path.read_bytes() == b"a\n2.0\n"
    with pytest.raises(DatasetError, match="t.csv: does not begin with the header b,c$"):
        dataio.write_csv(path, ["b", "c"], [[1, 2]], append=True)
    assert path.read_bytes() == b"a\n2.0\n"


def _file_writes(path: Path) -> list[str]:
    # Each call that writes a file: open or .open with a mode that writes,
    # write_text, write_bytes, json.dump, np.savetxt or csv.writer.
    writes = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        name = ast.unparse(node.func)
        if name == "open" or name.endswith(".open"):
            modes = [*(node.args[1:2] if name == "open" else node.args[:1]),
                     *(kw.value for kw in node.keywords if kw.arg == "mode")]
            writing = any(not isinstance(mode, ast.Constant) or set(mode.value) & set("wax+")
                          for mode in modes)
        else:
            writing = (name in ("json.dump", "np.savetxt", "csv.writer")
                       or name.endswith((".write_text", ".write_bytes")))
        if writing:
            writes.append(f"{path.name}:{node.lineno} {name}")
    return writes


def test_no_module_but_dataio_writes_a_file():
    # Every output format is spelt out once, in dataio.
    modules = sorted(Path(dataio.__file__).parent.glob("*.py"))
    writes = {path.stem: _file_writes(path) for path in modules}
    assert writes["dataio"]  # the scan finds dataio's own writes
    assert [w for stem, found in writes.items() if stem != "dataio" for w in found] == []
