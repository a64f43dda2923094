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
subject loads with probabilities missing.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .sequences import FeatureSequence, ProbSequence, StageSequence
from .synthgen import Subject, SynthConfig, SynthDataset

__all__ = ["DatasetError", "save_dataset", "load_dataset", "read_label_csv"]

_MANIFEST = "manifest.json"
_FORMAT = "rapklab-dataset"


class DatasetError(Exception):
    """A dataset directory is missing pieces or malformed."""


def _write_table(path: Path, header: list[str], table: np.ndarray) -> None:
    # The bytes csv.writer gives for rows of ``repr`` cells: a list's repr
    # joins its items' reprs with ", ", and no number needs quoting. Rows are
    # written one at a time so the file text is never held whole.
    with path.open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for row in table:
            fh.write(repr(row.tolist())[1:-1].replace(", ", ",") + "\r\n")


def save_dataset(dataset: SynthDataset, out_dir: str | Path) -> Path:
    """Write ``dataset`` under ``out_dir`` (created if needed)."""
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format": _FORMAT,
        "version": 1,
        "n_classes": dataset.n_classes,
        "feat_dim": dataset.feat_dim,
        "synth_config": asdict(dataset.config) if dataset.config is not None else None,
        "subjects": [
            {"id": sub.subject_id, "split": sub.split, "t_len": sub.stages.t_len}
            for sub in dataset.subjects
        ],
    }
    with (root / _MANIFEST).open("w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for sub in dataset.subjects:
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
    return root


def _read_table(path: Path, expected_header: list[str]) -> np.ndarray:
    if not path.is_file():
        raise DatasetError(f"missing file: {path}")
    with path.open(newline="") as fh:
        try:
            table = _parse_table(fh, expected_header)
        except ValueError:  # loadtxt's parse errors and undecodable bytes
            table = None
        if table is None:
            fh.seek(0)
            table = _scan_table(fh, path, expected_header)
    bad = ~np.isfinite(table).all(axis=1)
    if bad.any():
        raise DatasetError(f"{path}: row {int(np.argmax(bad)) + 2} contains a non-finite cell")
    return table


def _parse_table(fh, expected_header: list[str]) -> np.ndarray | None:
    """One ``loadtxt`` call over the data rows, or None to leave the file to
    ``_scan_table``. Only a table with one row per line and the expected
    width is returned, so this never accepts a file the scan rejects."""
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
    return table if table.shape == (n_rows, len(expected_header)) else None


def _scan_table(fh, path: Path, expected_header: list[str]) -> np.ndarray:
    """Parse row by row, raising ``DatasetError`` at the first bad row."""
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise DatasetError(f"{path}: empty file") from None
    if header != expected_header:
        raise DatasetError(
            f"{path}: header mismatch; expected {expected_header}, got {header}"
        )
    rows: list[list[float]] = []
    for lineno, row in enumerate(reader, start=2):
        if len(row) != len(expected_header):
            raise DatasetError(
                f"{path}: row {lineno} has {len(row)} cells, expected {len(expected_header)}"
            )
        try:
            rows.append([float(cell) for cell in row])
        except ValueError:
            raise DatasetError(f"{path}: row {lineno} contains a non-numeric cell") from None
    if not rows:
        raise DatasetError(f"{path}: no data rows")
    return np.asarray(rows, dtype=np.float64)


def read_label_csv(path: str | Path) -> np.ndarray:
    """Read a single-column ``stage`` CSV into an int64 label array."""
    table = _read_table(Path(path), ["stage"])
    labels = table[:, 0]
    # Checked before the cast, which would turn |x| >= 2**63 into garbage
    # (with a RuntimeWarning) instead of an error.
    bad = (labels != np.floor(labels)) | (np.abs(labels) >= 2.0**63)
    if bad.any():
        row = int(np.argmax(bad))
        raise DatasetError(
            f"{path}: row {row + 2} has stage {float(labels[row])}; "
            "stage labels must be integers within the int64 range"
        )
    return labels.astype(np.int64)


def _load_subject(root: Path, entry: dict, n_classes: int, feat_dim: int) -> Subject:
    manifest_path = root / _MANIFEST
    if not isinstance(entry, dict):
        raise DatasetError(f"{manifest_path}: subject entry {entry!r} is not an object")
    for key in ("id", "split"):
        if key not in entry:
            raise DatasetError(f"{manifest_path}: subject entry {entry!r} has no {key!r}")
    sub_id = entry["id"]
    # The id names a directory directly under the root; nothing may escape it.
    if not isinstance(sub_id, str) or sub_id in (".", "..") or Path(sub_id).parts != (sub_id,):
        raise DatasetError(
            f"{manifest_path}: subject id {sub_id!r} is not a plain directory name"
        )
    sub_dir = root / sub_id
    feats = _read_table(sub_dir / "features.csv", [f"f{j}" for j in range(feat_dim)])
    labels = read_label_csv(sub_dir / "labels.csv")
    bad = (labels < 0) | (labels >= n_classes)
    if bad.any():
        row = int(np.argmax(bad))
        raise DatasetError(
            f"{sub_dir / 'labels.csv'}: row {row + 2} has stage {labels[row]}, "
            f"outside [0, {n_classes})"
        )
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
            subject_id=sub_id,
            split=entry["split"],
            features=FeatureSequence(feats),
            stages=StageSequence(labels, n_classes),
            probs=probs,
        )
    except ValueError as exc:
        raise DatasetError(f"{sub_dir}: {exc}") from None


def load_dataset(path: str | Path) -> SynthDataset:
    """Load a dataset directory; fails atomically with a descriptive error."""
    root = Path(path)
    manifest_path = root / _MANIFEST
    if not manifest_path.is_file():
        raise DatasetError(f"missing manifest: {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise DatasetError(f"{manifest_path}: invalid JSON ({exc})") from None
    if not isinstance(manifest, dict):
        raise DatasetError(f"{manifest_path}: manifest is not a JSON object")
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
    n_classes = manifest["n_classes"]
    feat_dim = manifest["feat_dim"]
    config = None
    if manifest.get("synth_config") is not None:
        try:
            config = SynthConfig(**manifest["synth_config"])
        except (TypeError, ValueError) as exc:
            raise DatasetError(f"{manifest_path}: bad synth_config ({exc})") from None
    subjects = tuple(
        _load_subject(root, entry, n_classes, feat_dim) for entry in manifest["subjects"]
    )
    try:
        return SynthDataset(
            subjects=subjects, n_classes=n_classes, feat_dim=feat_dim, config=config
        )
    except ValueError as exc:
        raise DatasetError(f"{root}: {exc}") from None
