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

Cells are ``repr``'s bytes, one CRLF-terminated line per row (the bytes
``csv.writer`` gives), so every file parses back losslessly. Float tables
are written in blocks of rows by exact integer arithmetic that gives those
bytes (``_format_rows``); a block holding a value outside its range, such
as |x| < 1e-10, is written row by row with ``repr`` itself. Each table is
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
Every file rapklab writes goes through here as well (``write_json``,
``write_csv``, ``write_matrix_csv``): result and dataset CSVs end their lines
with CRLF, the Monte Carlo CSVs with LF, and the pinned digests hold both.
"""

from __future__ import annotations

import csv
import functools
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
    "read_label_csv", "read_json_object", "read_csv_rows", "number_cell",
    "json_text", "write_json", "check_csv_header", "write_csv", "write_matrix_csv",
]

_MANIFEST = "manifest.json"
_FORMAT = "rapklab-dataset"


class DatasetError(Exception):
    """A dataset directory is missing pieces or malformed."""


# Float tables are written a block of cells at a time by ``_format_rows``,
# which gives each cell the bytes ``repr`` gives it: the fewest digits that
# read back to the same double, of those the closest to it (a tie goes to an
# even last digit), positional for 1e-4 <= |x| < 1e16 and d.ddde-XX below. Its
# arithmetic is exact in uint64 words (after Steele & White 1990 and Adams
# 2018, "Ryu") for 0 and 1e-10 <= |x| < 2**52; a block of rows holding any
# other value is written with ``repr``.
_BLOCK_CELLS = 1 << 13  # keeps a block's working arrays near 2 MB
_E_MIN = -10  # floor(log10(1e-10))
_POW5 = np.array([5**i for i in range(28)], dtype=np.uint64)
_POW10 = np.array([10**i for i in range(19)], dtype=np.uint64)


def _decade(i: int) -> float:
    """The smallest double >= 10**i."""
    d = float(f"1e{i}")
    num, den = d.as_integer_ratio()
    return d if num * 10 ** max(-i, 0) >= den * 10 ** max(i, 0) else math.nextafter(d, math.inf)


_DECADES = np.array([_decade(i) for i in range(_E_MIN, 17)])


@functools.cache  # built on first use, so a command that writes no dataset skips it
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The four ASCII digits of 0..9999, each as one little-endian word, and
    the layouts. A cell's text fills 32 bytes (zeros where it has none) and
    depends on its digits only through the key (exponent, significant digits,
    sign). Per key: masks of the digit bytes kept before the point and, with
    the digits moved one byte on, after it (3 words each); the other bytes,
    as sign, point, exponent and comma (4 words); and the comma's offset."""
    quads = sum((np.arange(10000, dtype=np.uint64) // 10 ** (3 - i) % 10 + ord("0")) << 8 * i
                for i in range(4))
    e = np.arange(_E_MIN, 16)[:, None, None, None]
    nsig = np.arange(1, 19)[:, None, None]
    neg = np.array([False, True])[:, None]
    col = np.arange(32)
    # Text byte c is digit byte c before the point and c - 1 after it; digit
    # byte 6 is D's first digit, and the point follows it in d.ddde-XX.
    sci = e < -4
    point = np.where(sci, 7, 7 + e)
    start = np.where(sci, 6, 6 + np.minimum(e, 0))
    end = np.where(sci, 6 + nsig + (nsig > 1), np.maximum(7 + nsig, point + 2))
    comma = end + 4 * sci
    shown = (col >= start) & (col < end)
    fixed = np.select(
        [shown & (col == point), neg & (col == start - 1), sci & (col == end),
         sci & (col == end + 1), sci & (col == end + 2), sci & (col == end + 3), col == comma],
        [ord("."), ord("-"), ord("e"), ord("-"), ord("0") + (-e) // 10, ord("0") + (-e) % 10, ord(",")],
    )

    def words(byte_values):
        full = np.broadcast_to(byte_values, fixed.shape).astype(np.uint8)
        return full.reshape(-1, 32).view("<u8")

    ff = np.uint64(0xFF)
    table = np.hstack([words(shown & (col < point))[:, :3] * ff,
                       words(shown & (col > point))[:, :3] * ff, words(fixed)])
    return quads, table.astype(np.uint64), np.broadcast_to(comma, fixed.shape[:3] + (1,)).ravel()


def _shift_right(hi: np.ndarray, lo: np.ndarray, s: np.ndarray):
    """floor((hi, lo) / 2**s) for s in 1..63 when it fits one word, and
    whether it is exact."""
    return (lo >> s) | (hi << (64 - s)), (lo << (64 - s)) == 0


def _shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For doubles that are 0 or 1e-10 <= |x| < 2**52: integers D < 10**18
    whose first ``nsig`` of 18 digits are the digits of ``repr(abs(x))``, and
    the exponents E with that repr read as D * 10**(E - 17)."""
    bits = x.view(np.uint64)
    zero = (bits << 1) == 0
    bits = np.where(zero, np.float64(1.0).view(np.uint64), bits)  # zeros are set at the end
    bexp = ((bits >> 52) & 0x7FF).astype(np.int64)
    frac = bits & (2**52 - 1)
    m = frac | 2**52  # abs(x) = m * 2**(bexp - 1075)
    # E = floor(log10(abs(x))): that of the power of two below, or one more.
    e10 = ((bexp - 1023) * 78913) >> 18
    e10 += np.abs(bits.view(np.float64)) >= _DECADES[e10 + 1 - _E_MIN]
    # abs(x) * 10**k = 4m * 5**k / 2**s lies in [1e17, 1e18), and the ends of
    # its rounding interval are (4m + 2) and (4m - 2) times the same scale,
    # or (4m - 1) when m is a power of two and the gap below is half as wide.
    k = 17 - e10
    s = (1077 - bexp - k).astype(np.uint64)
    p5 = _POW5[k]
    # The exact product 4m * 5**k as (hi, lo) words, from 32-bit halves.
    m32 = np.uint64(0xFFFFFFFF)
    a0, a1, b0, b1 = (m << 2) & m32, (m << 2) >> 32, p5 & m32, p5 >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & m32) + (p10 & m32)
    hi, lo = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32), (mid << 32) | (p00 & m32)
    v, v_exact = _shift_right(hi, lo, s)
    up = lo + (p5 << 1)
    upper, upper_exact = _shift_right(hi + (up < lo), up, s)
    down = lo - np.where(frac == 0, p5, p5 << 1)
    lower, lower_exact = _shift_right(hi - (down > lo), down, s)
    # The integers that read back as x; the ends do only when m is even.
    even = (m & 1) == 0
    first, last = lower + 1 - (lower_exact & even), upper - (upper_exact & ~even)
    # The largest power of ten with a multiple among them: 10 always has one,
    # as the interval is wider than 11, and few cells get past 100.
    j = 1 + (last // 100 * 100 >= first)
    live = np.flatnonzero(last // 1000 * 1000 >= first)
    for p in _POW10[4:]:
        if not live.size:
            break
        j[live] += 1
        live = live[last[live] // p * p >= first[live]]
    j[live] += 1
    # Of its two multiples either side of v, the one nearer v that is among
    # them; a tie goes to the even one.
    p = _POW10[j]
    q = v // p
    below = q * p
    rest, half = v - below, p >> 1
    nearer_up = (rest > half) | ((rest == half) & (~v_exact | ((q & 1) == 1)))
    d = np.where((below < first) | ((below + p <= last) & nearer_up), below + p, below)
    top = d == _POW10[18]  # rounded up to 10**(E + 1)
    d[top] = _POW10[17]
    e10 += top
    nsig = 18 - j + top
    d[zero], e10[zero], nsig[zero] = 0, 0, 1
    return d, e10, nsig


def _digit_word(y: np.ndarray, quads: np.ndarray) -> np.ndarray:
    """The eight ASCII digits of each y < 10**8 as one little-endian word."""
    h = y // 10000
    return np.take(quads, h) | (np.take(quads, y - h * 10000) << 32)


def _format_rows(block: np.ndarray) -> np.ndarray:
    """The CSV rows, as ``repr`` writes them, of a float table whose cells
    are all 0 or 1e-10 <= |x| < 2**52, as one uint8 array."""
    width = block.shape[1]
    x = block.ravel()
    d, e10, nsig = _shortest(x)
    quads, layouts, commas = _tables()
    # A cell's 24 digit bytes, six '0's then D's 18 digits, as three words.
    hi8 = d // 10**8
    lead = hi8 // 10**8
    digits = [_digit_word(y, quads) for y in (lead, hi8 - lead * 10**8, d - hi8 * 10**8)]
    key = ((e10 - _E_MIN) * 18 + nsig - 1) * 2 + np.signbit(x)
    layout = np.take(layouts, key, axis=0)
    text = np.empty((x.size, 4), "<u8")
    for i, word in enumerate(digits):
        moved = (word << 8) | (digits[i - 1] >> 56 if i else 0)
        text[:, i] = (word & layout[:, i]) | (moved & layout[:, 3 + i]) | layout[:, 6 + i]
    text[:, 3] = layout[:, 9]
    # A row's last comma becomes "\r\n", and the text is every byte but zeros.
    flat = text.view(np.uint8).ravel()
    ends = np.arange(width - 1, x.size, width) * 32 + commas[key[width - 1::width]]
    flat[ends] = ord("\r")
    flat[ends + 1] = ord("\n")
    return flat[flat != 0]


def _covered_rows(block: np.ndarray) -> np.ndarray:
    """Which rows of a table ``_format_rows`` writes."""
    if block.dtype != np.float64:
        return np.zeros(len(block), bool)
    a = np.abs(block)
    return ((a == 0) | ((a >= 1e-10) & (a < 2.0**52))).all(axis=1)


def _write_table(path: Path, header: list[str], table: np.ndarray) -> None:
    # The bytes csv.writer gives for rows of ``repr`` cells, written a block
    # of rows at a time so the file text is never held whole. A block with a
    # row that ``_format_rows`` does not cover is written as each row's list
    # repr, which joins its items' reprs with ", " (no number needs quoting).
    with path.open("wb") as fh:
        fh.write(",".join(header).encode() + b"\r\n")
        step = max(1, _BLOCK_CELLS // table.shape[1])
        for lo in range(0, len(table), step):
            block = table[lo:lo + step]
            if _covered_rows(block).all():
                fh.write(_format_rows(block))
            else:
                fh.writelines((repr(row)[1:-1].replace(", ", ",") + "\r\n").encode()
                              for row in block.tolist())


def save_dataset(
    subjects: Iterable[Subject], out_dir: str | Path, config: SynthConfig | None = None
) -> Path:
    """Write ``subjects`` under ``out_dir``, each as it arrives, then a
    manifest naming them and ``config``. When the first subject arrives,
    ``out_dir`` is created if needed and any old manifest goes, so a write
    that fails part way leaves no manifest, and one that fails before its
    first subject leaves ``out_dir`` as it was. Every subject must share
    the first's label space and feature width, and no subject id may repeat."""
    root = Path(out_dir)
    entries: list[dict] = []
    for sub in subjects:
        if not entries:
            n_classes, feat_dim = sub.stages.n_classes, sub.features.dim
            root.mkdir(parents=True, exist_ok=True)
            (root / _MANIFEST).unlink(missing_ok=True)
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
    write_json(root / _MANIFEST, manifest)
    return root


def json_text(payload) -> str:
    """Every JSON document's text, in a file or on stdout: sorted keys, indent 2, final newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_json(path: str | Path, payload) -> None:
    """Write ``payload`` to ``path`` as ``json_text``."""
    Path(path).write_text(json_text(payload), encoding="utf-8")


def check_csv_header(path: str | Path, header: list[str], end: str = "\r\n") -> bool:
    """Whether rows appended to the CSV at ``path`` need ``header`` first:
    True when the file is missing or empty. A file that does not begin with
    that header line raises ``DatasetError``, so no row lands under another."""
    line = (",".join(header) + end).encode()
    try:
        with Path(path).open("rb") as fh:
            start = fh.read(len(line))
    except FileNotFoundError:
        return True
    if start not in (b"", line):
        raise DatasetError(f"{path}: does not begin with the header {','.join(header)}")
    return not start


def write_csv(path: str | Path, header: list[str], rows: Iterable, end: str = "\r\n",
              append: bool = False) -> None:
    """A CSV of lines ended by ``end``; ``append`` adds rows, the header only to a new file.
    A float cell is ``repr(float(v))`` (numpy 2's ``repr`` of np.float64 names its type),
    ``None`` is empty, and any other cell is as ``csv.writer`` writes it."""
    fresh = not append or check_csv_header(path, header, end)
    with open(path, "a" if append else "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator=end)
        if fresh:
            writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, float) else v for v in row]
                         for row in rows)


def write_matrix_csv(path: str | Path, matrix: np.ndarray) -> None:
    """A 2-D array with every cell as ``%.18e``, comma-separated, one LF line per row."""
    np.savetxt(path, matrix, fmt="%.18e", delimiter=",")


def _open_csv(path: Path):
    if not path.is_file():
        raise DatasetError(f"missing file: {path}")
    return path.open(encoding="utf-8", newline="")


def _read_table(path: Path, expected_header: list[str]) -> np.ndarray:
    with _open_csv(path) as fh:
        try:
            return _parse_table(fh, expected_header)
        except ValueError:  # any fault, or undecodable bytes: the scan decides
            fh.seek(0)
            return _scan_table(fh, path, expected_header)


def _data_lines(fh) -> Iterator[str]:
    """The lines after the header. A blank line, or none at all, raises
    ValueError: ``loadtxt`` would skip the one and warn about the other."""
    line = None
    for line in fh:
        if not line.strip():
            raise ValueError("blank line")
        yield line
    if line is None:
        raise ValueError("no data rows")


def _parse_table(fh, expected_header: list[str]) -> np.ndarray:
    """One ``loadtxt`` pass over the data rows. Only a finite table with one
    row per line and the expected width is returned; anything else raises
    ValueError, so this never accepts a file ``_scan_table`` rejects."""
    if fh.readline().rstrip("\r\n") != ",".join(expected_header):
        raise ValueError("header mismatch")
    table = np.loadtxt(_data_lines(fh), delimiter=",", comments=None, ndmin=2)
    if table.shape[1] != len(expected_header) or not np.isfinite(table).all():
        raise ValueError("wrong width or non-finite cell")
    return table


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
    return Subject(
        subject_id=entry["id"],
        split=entry["split"],
        features=FeatureSequence(feats),
        stages=StageSequence(labels, n_classes),
        probs=probs,
    )


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
