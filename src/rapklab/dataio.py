"""Dataset directory format: a manifest plus per-subject CSVs.

Layout::

    dataset/
      manifest.json
      subject_000/
        features.csv   # header f0..f{d-1}
        labels.csv     # header stage
        probs.csv      # header p0..p{C-1}, optional
      subject_001/
        ...

Cells are written with ``repr``, one CRLF-terminated line per row (the bytes
``csv.writer`` gives), so every file parses back losslessly. Each table is
parsed in one ``numpy.loadtxt`` call, with a row-by-row scan as the fallback
that decides what is rejected. Loading validates headers, numeric and finite
cells, label ranges, and row counts, and raises ``DatasetError`` naming the
offending file and row; ``probs.csv`` may be absent, in which case the
subject loads with probabilities missing. ``open_dataset`` checks the
manifest up front and reads each subject's files only when that subject is
reached, so a run holds one subject at a time; ``load_dataset`` reads them all.
``save_dataset`` writes subjects as they arrive and the manifest last.

Config files (``read_json_object``) and sweep CSVs (``read_csv_rows``, the
same row scan) are read here too, so every read fault is a ``DatasetError``.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Callable, Iterable, Iterator
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .sequences import FeatureSequence, ProbSequence, StageSequence
from .synthgen import SPLITS, Subject, SynthConfig, SynthDataset, check_subject

__all__ = [
    "DatasetError", "DatasetDir", "save_dataset", "open_dataset", "load_dataset",
    "read_label_csv", "read_json_object", "read_csv_rows", "number_cell", "float_cell",
]

_MANIFEST = "manifest.json"
_FORMAT = "rapklab-dataset"


class DatasetError(Exception):
    """A dataset directory is missing pieces or malformed."""


def _write_table(path: Path, header: list[str], table: np.ndarray) -> None:
    # The bytes csv.writer gives for rows of ``repr`` cells: a list's repr
    # joins its items' reprs with ", ", and no number needs quoting. Rows are
    # written one at a time so the file text is never held whole.
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for row in table:
            fh.write(repr(row.tolist())[1:-1].replace(", ", ",") + "\r\n")


def save_dataset(
    subjects: Iterable[Subject], out_dir: str | Path, config: SynthConfig | None = None
) -> Path:
    """Write ``subjects`` under ``out_dir`` (created if needed), each as it
    arrives, then a manifest naming them and ``config``. Any old manifest goes
    first, so a write that fails part way leaves none. Every subject must share
    the first's label space and feature width, and no subject id may repeat."""
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    (root / _MANIFEST).unlink(missing_ok=True)
    entries: list[dict] = []
    for sub in subjects:
        if not entries:
            n_classes, feat_dim = sub.stages.n_classes, sub.features.dim
        check_subject(sub, n_classes, feat_dim)
        if any(entry["id"] == sub.subject_id for entry in entries):
            raise ValueError(f"{sub.subject_id}: subject id repeats")
        entries.append({"id": sub.subject_id, "split": sub.split, "t_len": sub.stages.t_len})
        sub_dir = root / sub.subject_id
        sub_dir.mkdir(exist_ok=True)
        _write_table(
            sub_dir / "features.csv",
            [f"f{j}" for j in range(sub.features.dim)],
            sub.features.data,
        )
        _write_table(sub_dir / "labels.csv", ["stage"], sub.stages.labels[:, None])
        if sub.probs is not None:
            _write_table(
                sub_dir / "probs.csv",
                [f"p{j}" for j in range(sub.probs.n_classes)],
                sub.probs.probs,
            )
        del sub  # free this subject before the next one is made
    if not entries:
        raise ValueError("dataset must contain at least one subject")
    manifest = {
        "format": _FORMAT,
        "version": 1,
        "n_classes": n_classes,
        "feat_dim": feat_dim,
        "synth_config": asdict(config) if config is not None else None,
        "subjects": entries,
    }
    with (root / _MANIFEST).open("w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return root


def _open_csv(path: Path):
    if not path.is_file():
        raise DatasetError(f"missing file: {path}")
    return path.open(encoding="utf-8", newline="")


def _read_table(path: Path, expected_header: list[str]) -> np.ndarray:
    with _open_csv(path) as fh:
        try:
            table = _parse_table(fh, expected_header)
        except ValueError:  # loadtxt's parse errors and undecodable bytes
            table = None
        if table is None:
            fh.seek(0)
            table = _scan_table(fh, path, expected_header)
    return table


def _parse_table(fh, expected_header: list[str]) -> np.ndarray | None:
    """One ``loadtxt`` call over the data rows, or None to leave the file to
    ``_scan_table``. Only a finite table with one row per line and the
    expected width is returned, so this never accepts a file the scan rejects."""
    if fh.readline().rstrip("\r\n") != ",".join(expected_header):
        return None
    body = fh.tell()
    n_rows = 0
    for line in fh:
        if not line.strip():  # loadtxt skips blank lines; the scan rejects them
            return None
        n_rows += 1
    if not n_rows:
        return None
    fh.seek(body)
    table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    ok = table.shape == (n_rows, len(expected_header)) and np.isfinite(table).all()
    return table if ok else None


def number_cell(cell: str, kind: type = float):
    """``kind(cell)``, or a ValueError that ``_scan_rows`` reports against the
    cell's row when the cell is not a finite number."""
    try:
        value = kind(cell)
    except ValueError:
        raise ValueError("contains a non-numeric cell") from None
    if kind is float and not math.isfinite(value):
        raise ValueError("contains a non-finite cell")
    return value


def float_cell(value) -> str:
    """The cell a score is written as in a result CSV: its ``repr`` as a
    float, or empty for ``None``; ``number_cell`` reads it back losslessly."""
    return "" if value is None else repr(float(value))


def _scan_rows(fh, path: Path, expected_header: list[str], parse_row: Callable) -> list:
    """Each data row through ``parse_row``; the first bad row raises a
    ``DatasetError`` naming the file and row."""
    reader = csv.reader(fh)
    rows = []
    try:
        header = next(reader, None)
        if header is None:
            raise DatasetError(f"{path}: empty file")
        if header != expected_header:
            raise DatasetError(
                f"{path}: header mismatch; expected {expected_header}, got {header}"
            )
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(expected_header):
                raise DatasetError(
                    f"{path}: row {lineno} has {len(row)} cells, "
                    f"expected {len(expected_header)}"
                )
            try:
                rows.append(parse_row(row))
            except ValueError as exc:
                raise DatasetError(f"{path}: row {lineno} {exc}") from None
    except csv.Error as exc:  # e.g. a cell beyond the csv module's field limit
        raise DatasetError(f"{path}: row {reader.line_num}: {exc}") from None
    except UnicodeDecodeError:
        with path.open("rb") as raw:  # decoded in chunks, so find the row in the bytes
            row = next(n for n, line in enumerate(raw, 1)
                       if line.decode("utf-8", "ignore").encode() != line)
        raise DatasetError(f"{path}: not UTF-8 text at row {row}") from None
    if not rows:
        raise DatasetError(f"{path}: no data rows")
    return rows


def _scan_table(fh, path: Path, expected_header: list[str]) -> np.ndarray:
    """Parse a numeric table row by row; every cell must be a finite number."""
    rows = _scan_rows(fh, path, expected_header, lambda row: [number_cell(c) for c in row])
    return np.asarray(rows, dtype=np.float64)


def read_csv_rows(path: str | Path, expected_header: list[str], parse_row: Callable) -> list:
    """``parse_row`` of each data row of a UTF-8 CSV with ``expected_header``;
    it raises ValueError (see ``number_cell``) to reject a row."""
    path = Path(path)
    with _open_csv(path) as fh:
        return _scan_rows(fh, path, expected_header, parse_row)


def read_json_object(path: str | Path, what: str) -> dict:
    """Read a UTF-8 JSON file whose top level must be an object; ``what``
    names the document in the error."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # bad JSON, undecodable bytes, deep nesting
        raise DatasetError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise DatasetError(f"{path}: {what} is not a JSON object")
    return data


def read_label_csv(path: str | Path, n_classes: int | None = None) -> np.ndarray:
    """Read a single-column ``stage`` CSV into an int64 label array.

    Every stage must be an integer in [0, n_classes), or in [0, 2**63) when
    ``n_classes`` is None.
    """
    table = _read_table(Path(path), ["stage"])
    labels = table[:, 0]
    # Checked before the cast, which would turn |x| >= 2**63 into garbage
    # (with a RuntimeWarning) instead of an error.
    upper = 2.0**63 if n_classes is None else n_classes
    bad = (labels != np.floor(labels)) | (labels < 0) | (labels >= upper)
    if bad.any():
        row = int(np.argmax(bad))
        raise DatasetError(
            f"{path}: row {row + 2} has stage {float(labels[row])}; stage labels "
            f"must be integers in [0, {'2**63' if n_classes is None else n_classes})"
        )
    return labels.astype(np.int64)


def _check_entry(manifest_path: Path, entry) -> None:
    # A manifest subject entry: an object with a plain directory name as its
    # id (nothing may escape the root) and a known split.
    if not isinstance(entry, dict):
        raise DatasetError(f"{manifest_path}: subject entry {entry!r} is not an object")
    for key in ("id", "split"):
        if key not in entry:
            raise DatasetError(f"{manifest_path}: subject entry {entry!r} has no {key!r}")
    sub_id = entry["id"]
    if not isinstance(sub_id, str) or sub_id in (".", "..") or Path(sub_id).parts != (sub_id,):
        raise DatasetError(
            f"{manifest_path}: subject id {sub_id!r} is not a plain directory name"
        )
    if entry["split"] not in SPLITS:
        raise DatasetError(
            f"{manifest_path}: subject {sub_id!r} has unknown split {entry['split']!r}"
        )


def _load_subject(root: Path, entry: dict, n_classes: int, feat_dim: int) -> Subject:
    sub_dir = root / entry["id"]
    feats = _read_table(sub_dir / "features.csv", [f"f{j}" for j in range(feat_dim)])
    labels = read_label_csv(sub_dir / "labels.csv", n_classes)
    if feats.shape[0] != labels.shape[0]:
        raise DatasetError(
            f"{sub_dir}: features.csv has {feats.shape[0]} rows "
            f"but labels.csv has {labels.shape[0]}"
        )
    probs = None
    probs_path = sub_dir / "probs.csv"
    if probs_path.is_file():
        table = _read_table(probs_path, [f"p{j}" for j in range(n_classes)])
        if table.shape[0] != labels.shape[0]:
            raise DatasetError(
                f"{sub_dir}: probs.csv has {table.shape[0]} rows "
                f"but labels.csv has {labels.shape[0]}"
            )
        try:
            probs = ProbSequence(table)
        except ValueError as exc:
            raise DatasetError(f"{probs_path}: {exc}") from None
    expected_t = entry.get("t_len")
    if expected_t is not None and expected_t != labels.shape[0]:
        raise DatasetError(
            f"{sub_dir}: manifest says t_len={expected_t}, files have {labels.shape[0]}"
        )
    try:
        return Subject(
            subject_id=entry["id"],
            split=entry["split"],
            features=FeatureSequence(feats),
            stages=StageSequence(labels, n_classes),
            probs=probs,
        )
    except ValueError as exc:
        raise DatasetError(f"{sub_dir}: {exc}") from None


@dataclass(frozen=True)
class DatasetDir:
    """A dataset directory whose manifest has been read and checked; its
    subjects' files are read only by ``iter_subjects``."""

    root: Path
    n_classes: int
    feat_dim: int
    config: SynthConfig | None
    entries: tuple[dict, ...]

    def iter_subjects(self, split: str | None = None) -> Iterator[Subject]:
        """Load the subjects in manifest order, one at a time, each when it is
        reached; with ``split``, only the subjects of that split are read."""
        for entry in self.entries:
            if split is None or entry["split"] == split:
                yield _load_subject(self.root, entry, self.n_classes, self.feat_dim)


def open_dataset(path: str | Path) -> DatasetDir:
    """Read and check a dataset directory's manifest, every subject entry
    included, without reading any subject file."""
    root = Path(path)
    manifest_path = root / _MANIFEST
    if not manifest_path.is_file():
        raise DatasetError(f"missing manifest: {manifest_path}")
    manifest = read_json_object(manifest_path, "manifest")
    if manifest.get("format") != _FORMAT:
        raise DatasetError(f"{manifest_path}: unrecognized format {manifest.get('format')!r}")
    for key in ("n_classes", "feat_dim", "subjects"):
        if key not in manifest:
            raise DatasetError(f"{manifest_path}: missing key {key!r}")
    for key in ("n_classes", "feat_dim"):
        # JSON true/false load as bool, a subclass of int: reject them too.
        if type(manifest[key]) is not int or manifest[key] < 1:
            raise DatasetError(
                f"{manifest_path}: {key} must be an integer >= 1, got {manifest[key]!r}"
            )
    if not isinstance(manifest["subjects"], list):
        raise DatasetError(f"{manifest_path}: subjects is not a list")
    ids: set[str] = set()
    for entry in manifest["subjects"]:
        _check_entry(manifest_path, entry)
        if entry["id"] in ids:
            raise DatasetError(f"{manifest_path}: subject id {entry['id']!r} is listed twice")
        ids.add(entry["id"])
    config = None
    if manifest.get("synth_config") is not None:
        try:
            config = SynthConfig(**manifest["synth_config"])
        except (TypeError, ValueError) as exc:
            raise DatasetError(f"{manifest_path}: bad synth_config ({exc})") from None
    return DatasetDir(
        root=root,
        n_classes=manifest["n_classes"],
        feat_dim=manifest["feat_dim"],
        config=config,
        entries=tuple(manifest["subjects"]),
    )


def load_dataset(path: str | Path) -> SynthDataset:
    """Load a whole dataset directory (``open_dataset``, then every subject);
    fails atomically with a descriptive error."""
    data = open_dataset(path)
    try:
        return SynthDataset(
            subjects=tuple(data.iter_subjects()),
            n_classes=data.n_classes,
            feat_dim=data.feat_dim,
            config=data.config,
        )
    except ValueError as exc:
        raise DatasetError(f"{data.root}: {exc}") from None
