"""Data model, on-disk formats, ingestion, and synthetic dataset generation.

A store is a directory holding binary matrices (magic ``GVLM``: float32
image and text embeddings, float64 coordinates), line-delimited JSON
caption/ground-truth tables, and a plain-text ``key=value`` manifest. In
memory it is a ``Store`` of row-aligned columns, checked by
``Store.validate`` however it was built. Loaded stores are immutable;
ingestion, synthesis and ``attach_text`` are the only writers.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass, field
from itertools import compress
from pathlib import Path

import numpy as np

from . import kernels

EMB_MAGIC = b"GVLM"
# the GVLM header's version field names the payload type
EMB_VERSIONS = {np.dtype("<f4"): 1, np.dtype("<f8"): 2}

MANIFEST_FILE = "manifest.txt"
GROUPS_FILE = "groups.jsonl"
TRUTH_FILE = "queries.truth.jsonl"
# every file a store directory can hold, with the coordinate tables of stores
# written before the binary coordinate column; ``Store.save`` removes those it does not write
STORE_FILES = frozenset([MANIFEST_FILE, TRUTH_FILE] + [
    f"{side}.{name}" for side in ("refs", "queries")
    for name in ("img.emb", "img.ids", "txt.emb", "txt.ids", "coords.emb", "coords.ids", "captions.jsonl",
                 "coords.jsonl")])


class GeostoreError(Exception):
    """Base class for store failures."""


class FormatError(GeostoreError):
    """Corrupt or incompatible binary file."""


class IngestError(GeostoreError, ValueError):
    """Invalid input file; message carries file, line, and id context."""

    def __init__(self, message: str, file: str | None = None, line: int | None = None, record_id: str | None = None):
        parts = []
        if file is not None:
            parts.append(str(file))
        if line is not None:
            parts.append(f"line {line}")
        if record_id is not None:
            parts.append(f"id '{record_id}'")
        prefix = ", ".join(parts)
        super().__init__(f"{prefix}: {message}" if prefix else message)
        self.file = file
        self.line = line
        self.record_id = record_id


class InvalidStore(ValueError):
    """A store invariant that does not hold, found by ``Store.validate``: the
    side ("refs", "queries" or "manifest"), column and row it was found in, and
    the id of that row, so a reader can name the file and line the row came from."""

    def __init__(self, side: str, column: str, row: int | None, record_id: str | None, problem: str):
        self.side, self.column, self.row, self.record_id, self.problem = side, column, row, record_id, problem
        self.detail = problem if record_id is None else f"id '{record_id}' {problem}"
        super().__init__(f"{side}: {self.detail}")


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeoCoord:
    """Latitude/longitude in degrees; out-of-range values rejected."""

    lat: float
    lon: float

    def __post_init__(self):
        if not (math.isfinite(self.lat) and -90.0 <= self.lat <= 90.0):
            raise ValueError(f"latitude {self.lat} outside [-90, 90]")
        if not (math.isfinite(self.lon) and -180.0 <= self.lon <= 180.0):
            raise ValueError(f"longitude {self.lon} outside [-180, 180]")


@dataclass
class ReferenceRecord:
    """One reference as ``Store.reference`` returns it."""

    id: str
    image_emb: np.ndarray
    text_emb: np.ndarray | None = None
    caption: str | None = None
    coord: GeoCoord | None = None


@dataclass
class QueryRecord:
    """One query as ``Store.query`` returns it."""

    id: str
    image_emb: np.ndarray
    ground_truth: tuple[str, ...]
    text_emb: np.ndarray | None = None
    caption: str | None = None
    coord: GeoCoord | None = None


@dataclass(eq=False)
class Columns:
    """One side of a store (its references or its queries), row-aligned: row i
    of every column belongs to ``ids[i]``, and ``pos`` maps each id to its row.
    ``Store`` describes the columns, and fills those left as None with their
    empty values: no text, no coordinates, no captions."""

    ids: list[str]
    image: np.ndarray
    text: np.ndarray | None = None
    has_text: np.ndarray | None = None
    coords: np.ndarray | None = None
    has_coord: np.ndarray | None = None
    captions: list[str | None] | None = None
    pos: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.pos = {i: row for row, i in enumerate(self.ids)}

    def _fill(self, text_dim: int) -> Columns:
        n = len(self.ids)
        if self.has_text is None:
            self.has_text = np.full(n, self.text is not None)
        if self.has_coord is None:
            self.has_coord = np.full(n, self.coords is not None)
        self.image = np.asarray(self.image, np.float32)
        self.text = np.zeros((n, text_dim), np.float32) if self.text is None else np.asarray(self.text, np.float32)
        self.coords = np.zeros((n, 2)) if self.coords is None else np.asarray(self.coords, np.float64)
        self.has_text, self.has_coord = np.asarray(self.has_text, bool), np.asarray(self.has_coord, bool)
        self.captions = [None] * n if self.captions is None else self.captions
        return self

    def text_of(self, rid: str) -> np.ndarray | None:
        row = self.pos.get(rid)
        return None if row is None or not self.has_text[row] else self.text[row]

    def coord_of(self, rid: str) -> GeoCoord | None:
        row = self.pos.get(rid)
        return None if row is None or not self.has_coord[row] else GeoCoord(*self.coords[row].tolist())


# the values a manifest may hold, in the order it is written, each with its accepted range
MANIFEST_RANGES = {"format_version": (1, 1), "image_dim": (1, math.inf), "text_dim": (1, math.inf),
                   "reference_count": (0, math.inf), "query_count": (0, math.inf)}


@dataclass
class StoreManifest:
    image_dim: int
    text_dim: int
    reference_count: int
    query_count: int
    format_version: int = 1

    def write(self, path: Path) -> None:
        write_lines((f"{k}={getattr(self, k)}" for k in MANIFEST_RANGES), path)

    @classmethod
    def read(cls, path: Path) -> "StoreManifest":
        """A manifest file; a value that is not an integer in its range raises
        IngestError naming the file and line. Other keys are ignored."""
        fields = {"format_version": 1}

        def put(key: str, value: str) -> None:
            if key in MANIFEST_RANGES:
                lo, hi = MANIFEST_RANGES[key]
                fields[key] = int(value)
                if not lo <= fields[key] <= hi:
                    raise ValueError(f"{fields[key]} is outside [{lo}, {hi}]")

        read_key_values(path, put)
        missing = [key for key in MANIFEST_RANGES if key not in fields]
        if missing:
            raise IngestError(f"manifest missing key '{missing[0]}'", file=str(path))
        return cls(**fields)


# ---------------------------------------------------------------------------
# binary embedding matrix format
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def atomic_write(path: str | Path):
    """Binary handle on a temporary sibling of ``path`` that replaces ``path``
    only when the block completes. If the block raises, ``path`` keeps its old
    contents and the temporary file is removed."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_matrix(fh, rows: np.ndarray, dtype: str = "<f4") -> None:
    rows = np.asarray(rows, dtype=dtype)
    if rows.ndim != 2:
        raise ValueError(f"expected a 2-D (count, dim) array, got shape {rows.shape}")
    count, dim = rows.shape
    fh.write(EMB_MAGIC)
    fh.write(struct.pack("<IIQ", EMB_VERSIONS[rows.dtype], dim, count))
    fh.write(np.ascontiguousarray(rows))


def write_embedding_matrix(rows: np.ndarray, path: str | Path) -> None:
    """Write an (n, dim) float32 matrix: GVLM magic, u32 version, u32 dim, u64 count, payload."""
    with atomic_write(path) as fh:
        _write_matrix(fh, rows)


def read_embedding_matrix(path: str | Path, dtype: str = "<f4") -> np.ndarray:
    """Read a GVLM matrix of ``dtype`` rows (float32, version 1, or float64,
    version 2) back bit-exactly; raises FormatError on corruption or on a
    file of another payload type."""
    dtype = np.dtype(dtype)
    want = EMB_VERSIONS[dtype]
    header = struct.calcsize("<IIQ") + 4
    with open(path, "rb") as fh:
        data = fh.read(header)
        if len(data) < header:
            raise FormatError(f"{path}: truncated header ({len(data)} bytes)")
        if data[:4] != EMB_MAGIC:
            raise FormatError(f"{path}: bad magic {data[:4]!r}, expected {EMB_MAGIC!r}")
        version, dim, count = struct.unpack("<IIQ", data[4:])
        if version != want:
            raise FormatError(f"{path}: format version {version}, expected {want} ({dtype.name} rows)")
        expected = count * dim * dtype.itemsize
        payload = os.fstat(fh.fileno()).st_size - header
        if payload < expected:
            raise FormatError(f"{path}: truncated payload ({payload} of {expected} bytes)")
        if payload > expected:
            raise FormatError(f"{path}: {payload - expected} trailing bytes after payload")
        # read straight into the matrix: no intermediate copy of the payload
        rows = np.empty((count, dim), dtype)
        if fh.readinto(rows) != expected:
            raise FormatError(f"{path}: truncated payload (file shrank while reading)")
    return rows


def valid_id(record_id: str) -> bool:
    """Ids are non-empty strings, encodable as UTF-8 (no lone surrogates) and
    hold no line boundary, so an ``.ids`` file (one id per line, split with
    ``str.splitlines``) reads back exactly what was written."""
    if not isinstance(record_id, str) or not record_id or record_id.splitlines() != [record_id]:
        return False
    try:
        record_id.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _all_valid_ids(ids: list[str]) -> bool:
    """``valid_id`` of every id at once: one join, one split and one encode."""
    try:
        joined = "\n".join(ids)
        joined.encode("utf-8")
    except (TypeError, UnicodeEncodeError):
        return False
    return all(ids) and joined.splitlines() == list(ids)


def _all_utf8_text(values) -> bool:
    """Every value that is not None is a string encodable as UTF-8 (no lone surrogate)."""
    try:
        "".join(v for v in values if v is not None).encode("utf-8")
    except (TypeError, UnicodeEncodeError):
        return False
    return True


def _read_utf8(path: Path) -> str:
    """The text of ``path``; a byte that is not UTF-8 raises IngestError naming its line."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IngestError(f"byte 0x{data[exc.start]:02x} is not UTF-8", file=str(path),
                          line=data.count(b"\n", 0, exc.start) + 1) from None


def read_key_values(path: str | Path, put) -> None:
    """Call ``put(key, value)`` for each ``key=value`` line of the UTF-8 file at
    ``path``, both stripped; blank lines and lines starting with ``#`` are
    skipped. A byte that is not UTF-8, a line without ``=``, and a KeyError
    (unknown key) or ValueError (bad value) from ``put`` raise IngestError
    naming the file and line."""
    for ln, raw in enumerate(_read_utf8(Path(path)).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise IngestError("expected key=value", file=str(path), line=ln)
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            put(key, value)
        except KeyError:
            raise IngestError(f"unknown key '{key}'", file=str(path), line=ln) from None
        except ValueError as exc:
            raise IngestError(f"bad value for '{key}': {exc}", file=str(path), line=ln) from None


def write_lines(lines, path: str | Path) -> None:
    """Each string of ``lines`` and a newline, UTF-8, through ``atomic_write``."""
    with atomic_write(path) as fh:
        for line in lines:
            fh.write((line + "\n").encode("utf-8"))


def _write_rows(rows: np.ndarray, ids: list[str], stem: Path, dtype: str = "<f4") -> None:
    """``stem``.emb and its ``stem``.ids sidecar. The sidecar is replaced just
    before the matrix, and neither is replaced when writing either fails."""
    with atomic_write(f"{stem}.emb") as fh:
        _write_matrix(fh, rows, dtype)
        write_lines(ids, Path(f"{stem}.ids"))


def write_jsonl(records, path: str | Path) -> None:
    """Each record as one line of JSON (UTF-8, sorted keys, compact separators)
    through ``write_lines``. A NaN or infinite number raises ValueError, since
    JSON has no token for it, and like any failure part way leaves the file
    at ``path`` as it was."""
    write_lines((json.dumps(rec, sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=False)
                 for rec in records), path)


def read_jsonl(path: str | Path):
    """Yield (line number, record) for each non-blank line of a JSONL file. A
    line that is not UTF-8, not JSON or not an object raises IngestError
    naming the file and line."""
    with open(path, "rb") as fh:
        for ln, raw in enumerate(fh, start=1):
            try:
                raw = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise IngestError(f"byte 0x{raw[exc.start]:02x} is not UTF-8", file=str(path), line=ln) from None
            if not raw:
                continue
            try:
                rec = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise IngestError(f"malformed JSON ({exc.msg})", file=str(path), line=ln) from None
            if not isinstance(rec, dict):
                raise IngestError("record is not an object", file=str(path), line=ln)
            yield ln, rec


def load_jsonl(path: str | Path, parse, what: str) -> list:
    """``parse(record)`` for each record of a JSONL file, in file order. A
    KeyError, TypeError or ValueError from ``parse`` raises IngestError naming
    the file and line, as a bad line does."""
    out = []
    for ln, rec in read_jsonl(path):
        try:
            out.append(parse(rec))
        except KeyError as exc:
            raise IngestError(f"malformed {what}: missing field {exc}", file=str(path), line=ln) from None
        except (TypeError, ValueError) as exc:
            raise IngestError(f"malformed {what} ({exc})", file=str(path), line=ln) from None
    return out


def store_digest(store_dir: str | Path) -> str:
    """SHA-256 over the store's files (sorted by name); equal digests mean byte-identical stores."""
    h = hashlib.sha256()
    for p in sorted(Path(store_dir).iterdir()):
        if p.is_file():
            h.update(p.name.encode("utf-8"))
            h.update(b"\x00")
            h.update(p.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# store
# ---------------------------------------------------------------------------

def _rows(positions: dict[str, int], ids, kind: str) -> np.ndarray:
    try:
        return np.array([positions[i] for i in ids], np.intp)
    except KeyError as exc:
        raise KeyError(f"unknown {kind} id '{exc.args[0]}'") from None


class Store:
    """Immutable in-memory view of a reference/query store, held as columns.

    ``refs`` and ``queries`` are each a ``Columns``: ids with a row index, the
    (n, image_dim) float32 image matrix, the (n, text_dim) float32 text matrix
    with its ``has_text`` mask, (n, 2) float64 coordinates with their
    ``has_coord`` mask, and a row-aligned list of captions. ``ground_truth``
    maps each query id to its reference ids. ``ref_ids``, ``ref_image``,
    ``query_ids`` and ``query_image`` name the most used columns.
    ``reference`` and ``query`` return one row as a record.

    Construction takes ownership of the columns, fills those left as None and
    runs ``validate``, so every store, however it was built, holds its
    invariants.
    """

    def __init__(self, manifest: StoreManifest, refs: Columns, queries: Columns | None = None,
                 ground_truth: dict[str, tuple[str, ...]] | None = None):
        self.manifest = manifest
        if queries is None:
            queries = Columns([], np.empty((0, manifest.image_dim), np.float32))
        self.refs = refs._fill(manifest.text_dim)
        self.queries = queries._fill(manifest.text_dim)
        self.ground_truth = {q: tuple(g) for q, g in (ground_truth or {}).items()}
        self._tie_rank = None
        self.validate()

    ref_ids = property(lambda self: self.refs.ids)
    ref_image = property(lambda self: self.refs.image)
    query_ids = property(lambda self: self.queries.ids)
    query_image = property(lambda self: self.queries.image)

    def validate(self) -> None:
        """Check every store invariant, and build the retrieval index on the way.

        Manifest values lie in ``MANIFEST_RANGES``, ids are valid and unique, matrices have
        the manifest's widths, captions are strings encodable as UTF-8, image rows are finite
        and non-zero, text rows are finite, coordinates lie in range, and every query's
        ground truth is non-empty and names references. The first failure raises ``InvalidStore``.
        """
        m = self.manifest
        for key, (lo, hi) in MANIFEST_RANGES.items():
            if not lo <= getattr(m, key) <= hi:
                raise InvalidStore("manifest", key, None, None, f"{key} {getattr(m, key)} is outside [{lo}, {hi}]")
        for side, cols, key in (("refs", self.refs, "reference_count"), ("queries", self.queries, "query_count")):
            n = len(cols.ids)
            if n != getattr(m, key):
                raise InvalidStore(side, "ids", None, None, f"{n} rows, but the manifest's {key} is {getattr(m, key)}")
            if not _all_valid_ids(cols.ids):
                row = next(r for r, i in enumerate(cols.ids) if not valid_id(i))
                raise InvalidStore(side, "ids", row, cols.ids[row], "is an invalid id: empty, or holding a line "
                                                                    "break or a lone surrogate")
            if len(cols.pos) != n:
                # pos keeps an id's last row: report the repeat of the first id that has one
                first = next(r for r, i in enumerate(cols.ids) if cols.pos[i] != r)
                row = cols.pos[cols.ids[first]]
                raise InvalidStore(side, "ids", row, cols.ids[row], "is a duplicate id")
            for name, want in (("image", (n, m.image_dim)), ("text", (n, m.text_dim)), ("has_text", (n,)),
                               ("coords", (n, 2)), ("has_coord", (n,)), ("captions", (n,))):
                got = (len(cols.captions),) if name == "captions" else getattr(cols, name).shape
                if got != want and len(got) == 2 and got[0] == n and name in ("image", "text"):
                    raise InvalidStore(side, name, None, None,
                                       f"{name} embedding dim {got[1]} does not match manifest {want[1]} ({name}_dim)")
                if got != want:
                    raise InvalidStore(side, name, None, None, f"{name} has shape {got}, not {want}")
            if not _all_utf8_text(cols.captions):
                row = next(r for r, c in enumerate(cols.captions) if not _all_utf8_text([c]))
                raise InvalidStore(side, "captions", row, cols.ids[row], "has a caption that is not a string "
                                                                        "encodable as UTF-8")
            # a zero or non-finite image row could only score NaN
            if side == "refs":
                self.cosine_index = kernels.build_cosine_index(cols.image)
                norms = self.cosine_index.norms
            else:
                norms = kernels.row_norms(cols.image)
            lat, lon = cols.coords.T
            for column, ok, problem in (
                ("image", np.isfinite(norms), "has a NaN/Inf embedding"),
                ("image", norms > 0, "has a zero-norm embedding"),
                ("text", np.isfinite(kernels.row_norms(cols.text)), "has a non-finite text embedding"),
                ("coords", ~cols.has_coord | ((np.abs(lat) <= 90.0) & (np.abs(lon) <= 180.0)),
                 "has a coordinate outside [-90, 90] x [-180, 180]"),
            ):
                bad = np.flatnonzero(~ok)
                if bad.size:
                    raise InvalidStore(side, column, int(bad[0]), cols.ids[bad[0]], problem)
        for row, qid in enumerate(self.queries.ids):
            truth = self.ground_truth.get(qid)
            if not truth:
                raise InvalidStore("queries", "truth", row, qid, "has an empty ground-truth set")
            for rid in truth:
                if rid not in self.refs.pos:
                    raise InvalidStore("queries", "truth", row, qid, f"has unresolvable ground-truth id '{rid}'")

    # -- lookups ------------------------------------------------------------

    @property
    def ref_tie_rank(self) -> np.ndarray:
        """Lexicographic rank of each reference row's id, for deterministic tie-breaks."""
        if self._tie_rank is None:
            n = len(self.ref_ids)
            self._tie_rank = np.empty(n, np.int64)
            self._tie_rank[sorted(range(n), key=self.ref_ids.__getitem__)] = np.arange(n)
        return self._tie_rank

    def reference(self, ref_id: str) -> ReferenceRecord:
        row, c = self.ref_rows([ref_id])[0], self.refs
        return ReferenceRecord(ref_id, c.image[row], c.text_of(ref_id), c.captions[row], c.coord_of(ref_id))

    def query(self, query_id: str) -> QueryRecord:
        row, c = self.query_rows([query_id])[0], self.queries
        return QueryRecord(query_id, c.image[row], self.ground_truth[query_id], c.text_of(query_id),
                           c.captions[row], c.coord_of(query_id))

    def ref_rows(self, ref_ids) -> np.ndarray:
        """Row positions of ``ref_ids`` in ``ref_image``."""
        return _rows(self.refs.pos, ref_ids, "reference")

    def query_rows(self, query_ids) -> np.ndarray:
        """Row positions of ``query_ids`` in ``query_image``."""
        return _rows(self.queries.pos, query_ids, "query")

    def ref_text_emb(self, ref_id: str) -> np.ndarray | None:
        return self.refs.text_of(ref_id)

    def query_text_emb(self, query_id: str) -> np.ndarray | None:
        return self.queries.text_of(query_id)

    def coord_of(self, any_id: str) -> GeoCoord | None:
        return self.refs.coord_of(any_id) or self.queries.coord_of(any_id)

    # -- persistence ----------------------------------------------------------

    def save(self, store_dir: str | Path) -> None:
        """Write the store into ``store_dir``, and remove every store file
        there that this store does not write (a column or side it lacks), so
        that loading the directory gives this store back. Other files stay."""
        out = Path(store_dir)
        out.mkdir(parents=True, exist_ok=True)
        self.manifest.write(out / MANIFEST_FILE)
        written = {MANIFEST_FILE}
        sides = [("refs", self.refs)] + ([("queries", self.queries)] if self.query_ids else [])
        for prefix, cols in sides:
            _write_rows(cols.image, cols.ids, out / f"{prefix}.img")
            written |= {f"{prefix}.img.emb", f"{prefix}.img.ids"}
            for column, (mask, stem, dtype) in _COLUMNS.items():
                if _write_column(out / f"{prefix}.{stem}", cols.ids, getattr(cols, column), getattr(cols, mask), dtype):
                    written |= {f"{prefix}.{stem}.emb", f"{prefix}.{stem}.ids"}
            if any(c is not None for c in cols.captions):
                captions = ({"caption": c, "id": i} for i, c in zip(cols.ids, cols.captions) if c is not None)
                write_jsonl(captions, out / f"{prefix}.captions.jsonl")
                written.add(f"{prefix}.captions.jsonl")
        if self.query_ids:
            truth = ({"id": q, "refs": sorted(self.ground_truth[q])} for q in self.query_ids)
            write_jsonl(truth, out / TRUTH_FILE)
            written.add(TRUTH_FILE)
        for name in STORE_FILES - written:
            (out / name).unlink(missing_ok=True)

    @classmethod
    def load(cls, store_dir: str | Path) -> "Store":
        """Read a store directory. A file that does not parse, or a store that
        fails ``validate``, raises FormatError naming the file, and the line and
        id where they are known."""
        root = Path(store_dir)
        sources: dict = {}
        queries, truth = None, {}
        try:
            manifest = StoreManifest.read(root / MANIFEST_FILE)
            refs = _load_side(root, "refs", sources)
            if (root / "queries.img.emb").exists():
                queries = _load_side(root, "queries", sources)
                tpath = root / TRUTH_FILE
                if tpath.exists():
                    truth = _read_truth(tpath, queries, sources)
        except IngestError as exc:
            raise FormatError(str(exc)) from None
        try:
            return cls(manifest, refs, queries, truth)
        except InvalidStore as exc:
            path, line = _where(sources, exc)
            raise FormatError(f"{path or root}{'' if line is None else f', line {line}'}: {exc.detail}") from None


def _where(sources: dict, exc: InvalidStore) -> tuple[str | None, int | None]:
    """The file, and the line when known, that a failed store check points at.
    ``sources`` maps (side, column) to the column's file and the line of each
    of its rows (0 for none), or None where rows have no lines."""
    path, lines = sources.get((exc.side, exc.column), (None, None))
    line = int(lines[exc.row]) if lines is not None and exc.row is not None else 0
    return (None if path is None else str(path)), (line or None)


# the matrix columns a row need not have: attribute of ``Columns`` -> its mask,
# the stem of its files and its payload type
_COLUMNS = {"text": ("has_text", "txt", "<f4"), "coords": ("has_coord", "coords", "<f8")}


def _write_column(stem: Path, ids: list[str], rows: np.ndarray, has: np.ndarray, dtype: str) -> bool:
    """The rows that ``has`` marks and their ids, as ``stem``.emb and
    ``stem``.ids; nothing when no row is marked. Returns whether the pair
    was written."""
    if not has.any():
        return False
    if not has.all():
        rows, ids = rows[has], list(compress(ids, has))
    _write_rows(rows, ids, stem, dtype)
    return True


def _set_rows(cols: Columns, column: str, ids: list[str], rows: np.ndarray, source) -> None:
    """Make ``rows`` (row i the value of ``ids[i]``) the ``column`` ("text" or
    "coords") of ``cols`` and set its mask; rows of other ids get none. An id
    ``cols`` lacks, an id given twice, or a count of ids other than of rows
    raises FormatError naming ``source``, where the ids came from."""
    n = len(cols.ids)
    if len(ids) != len(rows):
        raise FormatError(f"{source}: {len(ids)} ids for {len(rows)} {column} rows")
    mask = _COLUMNS[column][0]
    if ids == cols.ids:
        setattr(cols, column, rows)
        setattr(cols, mask, np.ones(n, bool))
        return
    try:
        at = _rows(cols.pos, ids, column)
    except KeyError as exc:
        raise FormatError(f"{source}: {exc.args[0]}") from None
    has = np.zeros(n, bool)
    has[at] = True
    if np.count_nonzero(has) != len(at):
        seen: set[str] = set()
        for rid in ids:
            if rid in seen:
                raise FormatError(f"{source}: repeated id '{rid}'")
            seen.add(rid)
    full = np.zeros((n, rows.shape[1]), rows.dtype)
    full[at] = rows
    setattr(cols, column, full)
    setattr(cols, mask, has)


def _load_side(root: Path, prefix: str, sources: dict) -> Columns:
    """One side of a saved store; ``sources`` learns the file of each column."""
    legacy = root / f"{prefix}.coords.jsonl"
    if legacy.exists():
        raise FormatError(f"{legacy}: coordinates stored as JSON lines are no longer read; "
                          "re-ingest or re-synth the store to write them as a binary column")
    emb, ids = root / f"{prefix}.img.emb", root / f"{prefix}.img.ids"
    cols = Columns(_read_utf8(ids).splitlines(), read_embedding_matrix(emb))
    sources[prefix, "ids"] = (ids, np.arange(1, len(cols.ids) + 1))
    sources[prefix, "image"] = (emb, None)
    for column, (_, stem, dtype) in _COLUMNS.items():
        path = root / f"{prefix}.{stem}.emb"
        if path.exists():
            sidecar = path.with_suffix(".ids")
            _set_rows(cols, column, _read_utf8(sidecar).splitlines(), read_embedding_matrix(path, dtype), sidecar)
            sources[prefix, column] = (path, None)
    captions = root / f"{prefix}.captions.jsonl"
    if captions.exists():
        _read_captions(captions, cols, prefix, sources)
    return cols


def attach_text(store_dir: str | Path, side: str, ids: list[str], vectors) -> int:
    """Replace the text embeddings of one side ("refs" or "queries") of the store
    in ``store_dir`` with ``vectors``, one per id of ``ids``; that side's other
    rows then have no text. The store is validated before anything is written,
    and the side's ``.txt.emb``/``.txt.ids`` are written through
    ``atomic_write``. Returns the number of rows with text."""
    if side not in ("refs", "queries"):
        raise ValueError(f"side must be refs or queries, got '{side}'")
    if not ids:
        raise ValueError("no text embeddings to attach")
    store = Store.load(store_dir)
    cols = store.refs if side == "refs" else store.queries
    try:
        _set_rows(cols, "text", list(ids), np.asarray(vectors, np.float32), "text embeddings")
    except FormatError as exc:
        raise ValueError(f"{exc} among store {side}") from None
    store.validate()
    _write_column(Path(store_dir) / f"{side}.txt", cols.ids, cols.text, cols.has_text, "<f4")
    return int(cols.has_text.sum())


# ---------------------------------------------------------------------------
# JSONL tables (ingest inputs, and the store's own caption and truth files)
# ---------------------------------------------------------------------------

def read_rows(path: str | Path, label: str, put, pos: dict[str, int] | None = None,
              size: int | None = None) -> np.ndarray:
    """Read a JSONL table keyed by each record's ``"id"``, calling ``put(row,
    record)`` for each record: with ``pos`` (id -> row) into its id's row, or
    else into rows 0, 1, ... in file order, of which there are ``size``. A
    record without a string id, an id seen before, an id ``pos`` lacks, a row
    past ``size``, and a KeyError, TypeError or ValueError from ``put`` raise
    IngestError naming the file, the line and the id. Returns the line that
    filled each row (0 for none)."""
    lines, seen = np.zeros(size if pos is None else len(pos), np.int64), set()
    for ln, rec in read_jsonl(path):
        rid = rec.get("id")
        if not isinstance(rid, str):
            raise IngestError("missing or invalid 'id'", file=str(path), line=ln)
        if rid in seen:
            raise IngestError(f"duplicate {label} row", file=str(path), line=ln, record_id=rid)
        row = len(seen) if pos is None else pos.get(rid)
        if row is None:
            raise IngestError(f"{label} for unknown id", file=str(path), line=ln, record_id=rid)
        if row == size:
            raise IngestError(f"more than {size} {label} rows", file=str(path), line=ln, record_id=rid)
        try:
            put(row, rec)
        except KeyError as exc:
            raise IngestError(f"missing field {exc}", file=str(path), line=ln, record_id=rid) from None
        except (TypeError, ValueError) as exc:
            raise IngestError(str(exc), file=str(path), line=ln, record_id=rid) from None
        seen.add(rid)
        lines[row] = ln
    return lines


def embedding_of(rec: dict, dim: int | None) -> np.ndarray:
    """The ``"embedding"`` of a JSONL record as a float32 vector of ``dim``
    numbers (of any width, given None); anything else raises ValueError."""
    vec = np.asarray(rec["embedding"], np.float32)
    if vec.ndim != 1:
        raise ValueError("embedding is not a list of numbers")
    if len(vec) != (dim or len(vec)):
        raise ValueError(f"embedding has {len(vec)} values, expected {dim}")
    return vec


def _parse_embedding_rows(path: str | Path, out: np.ndarray, label: str,
                          pos: dict[str, int] | None = None) -> tuple[list[str], np.ndarray]:
    """Parse a JSONL file of ``{"id", "embedding"}`` lines into rows of ``out``,
    whose width is the manifest's: line i into row i or, given ``pos`` (id ->
    row), each line into its id's row. Returns the ids in file order and the
    line that filled each row of ``out`` (0 for none)."""
    ids = []

    def put(row: int, rec: dict) -> None:
        out[row] = embedding_of(rec, out.shape[1])
        ids.append(rec["id"])

    return ids, read_rows(path, label, put, pos, len(out))


def _read_captions(path: str | Path, cols: Columns, side: str, sources: dict) -> None:
    cols.captions = [None] * len(cols.ids)

    def put(row: int, rec: dict) -> None:
        if not isinstance(rec["caption"], str):
            raise TypeError("'caption' is not a string")
        cols.captions[row] = rec["caption"]

    sources[side, "captions"] = (path, read_rows(path, "caption", put, cols.pos))


def _read_truth(path: str | Path, queries: Columns, sources: dict) -> dict[str, tuple[str, ...]]:
    """The ground-truth table: query id -> sorted distinct reference ids."""
    truth = {}

    def put(row: int, rec: dict) -> None:
        refs = rec["refs"]
        if not isinstance(refs, list) or not all(isinstance(r, str) for r in refs):
            raise TypeError("ground truth needs a 'refs' list of ids")
        truth[rec["id"]] = tuple(sorted(set(refs)))

    sources["queries", "truth"] = (path, read_rows(path, "ground truth", put, queries.pos))
    return truth


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

def _ingest_side(side: str, count: int, manifest: StoreManifest, sources: dict, embeddings, text_embeddings,
                 captions, coords) -> Columns:
    image = np.empty((count, manifest.image_dim), np.float32)
    ids, lines = _parse_embedding_rows(embeddings, image, side)
    cols = Columns(ids, image[:len(ids)])
    sources[side, "ids"] = sources[side, "image"] = (embeddings, lines)
    if text_embeddings is not None:
        cols.text = np.zeros((len(ids), manifest.text_dim), np.float32)
        _, lines = _parse_embedding_rows(text_embeddings, cols.text, "text embedding", cols.pos)
        cols.has_text = lines > 0
        sources[side, "text"] = (text_embeddings, lines)
    if captions is not None:
        _read_captions(captions, cols, side, sources)
    if coords is not None:
        cols.coords = np.zeros((len(ids), 2))

        def put(row: int, rec: dict) -> None:
            cols.coords[row] = float(rec["lat"]), float(rec["lon"])

        lines = read_rows(coords, "coordinate", put, cols.pos)
        cols.has_coord = lines > 0
        sources[side, "coords"] = (coords, lines)
    return cols


def ingest(
    out_dir: str | Path,
    manifest: StoreManifest,
    ref_embeddings: str | Path,
    *,
    ref_captions: str | Path | None = None,
    ref_coords: str | Path | None = None,
    ref_text_embeddings: str | Path | None = None,
    query_embeddings: str | Path | None = None,
    query_captions: str | Path | None = None,
    query_coords: str | Path | None = None,
    query_text_embeddings: str | Path | None = None,
    query_truth: str | Path | None = None,
) -> Store:
    """Validate raw JSONL inputs against the manifest and persist a store directory.

    Rows are parsed straight into columns sized from the manifest's counts.
    Re-ingesting identical inputs reproduces the store byte for byte. Every
    rejection names the offending file, and the line and id where they are known.
    """
    sources: dict = {}
    refs = _ingest_side("refs", manifest.reference_count, manifest, sources, ref_embeddings, ref_text_embeddings,
                        ref_captions, ref_coords)
    queries, truth = None, {}
    if query_embeddings is not None:
        queries = _ingest_side("queries", manifest.query_count, manifest, sources, query_embeddings,
                               query_text_embeddings, query_captions, query_coords)
        if query_truth is not None:
            truth = _read_truth(query_truth, queries, sources)
    try:
        store = Store(manifest, refs, queries, truth)
    except InvalidStore as exc:
        path, line = _where(sources, exc)
        raise IngestError(exc.problem, file=path, line=line, record_id=exc.record_id) from None
    store.save(out_dir)
    return store


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------

@dataclass
class SynthConfig:
    """Confusion-group synthesis: image embeddings cluster per group, text per location.

    ``image_noise`` is the norm of the perturbation applied to a location's
    image centroid for each query/reference view, relative to unit-norm group
    centroids. ``group_spread`` is how far location image centroids sit from
    their group centroid. ``text_margin`` is the target cosine between two
    noisy views of one location's text centroid (1.0 = noiseless), which
    fixes the text noise level.
    """

    n_locations: int = 100
    group_size: int = 4
    image_dim: int = 64
    text_dim: int = 64
    image_noise: float = 0.7
    group_spread: float = 0.15
    text_margin: float = 0.95
    queries_per_location: int = 1

    def validate(self) -> None:
        if self.group_size < 2:
            raise ValueError("group_size must be >= 2")
        if self.group_size > self.n_locations:
            raise ValueError(f"group_size {self.group_size} exceeds n_locations {self.n_locations}")
        if self.image_dim <= 0 or self.text_dim <= 0:
            raise ValueError("embedding dims must be positive")
        if not (0.0 < self.text_margin <= 1.0):
            raise ValueError("text_margin must be in (0, 1]")
        if self.queries_per_location < 1:
            raise ValueError("queries_per_location must be >= 1")


def _unit_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    v = rng.standard_normal((n, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def generate_synthetic(config: SynthConfig, seed: int) -> tuple[Store, dict[str, int]]:
    """Deterministic synthetic store; returns it with an id -> confusion-group map.

    Within-group coordinates are under 0.5 km apart; distinct groups are more
    than 5 km apart. Query image embeddings are noisy views of their
    location's image centroid, so within-group retrieval confusion is
    controlled by ``image_noise``/``group_spread``; text embeddings separate
    locations at the configured margin.
    """
    config.validate()
    rng = np.random.default_rng(seed)
    n = config.n_locations
    g = config.group_size
    per = config.queries_per_location
    n_groups = (n + g - 1) // g
    grid_cols = max(1, math.ceil(math.sqrt(n_groups)))

    group_centroids = _unit_rows(rng, n_groups, config.image_dim)
    loc_group = np.arange(n) // g
    # location image centroids drawn around the shared group centroid
    loc_img = (
        group_centroids[loc_group]
        + config.group_spread * rng.standard_normal((n, config.image_dim)) / math.sqrt(config.image_dim)
    )
    loc_txt = _unit_rows(rng, n, config.text_dim)
    # two views of tau at noise sigma have expected cosine ~= 1/(1+sigma^2)
    text_sigma = math.sqrt(max(0.0, 1.0 / config.text_margin - 1.0))

    def img_view(row: int) -> np.ndarray:
        return loc_img[row] + config.image_noise * rng.standard_normal(config.image_dim) / math.sqrt(config.image_dim)

    def txt_view(row: int) -> np.ndarray:
        return loc_txt[row] + text_sigma * rng.standard_normal(config.text_dim) / math.sqrt(config.text_dim)

    def side(count: int, ids: list[str]) -> Columns:
        return Columns(ids, np.empty((count, config.image_dim), np.float32),
                       np.empty((count, config.text_dim), np.float32), coords=np.empty((count, 2)))

    width = len(str(max(n - 1, 1)))
    refs = side(n, [f"r{i:0{width}d}" for i in range(n)])
    qids = [f"q{i:0{width}d}" if per == 1 else f"q{i:0{width}d}.{j}" for i in range(n) for j in range(per)]
    queries = side(n * per, qids)
    truth: dict[str, tuple[str, ...]] = {}
    groups: dict[str, int] = {}
    for i, rid in enumerate(refs.ids):
        gi = int(loc_group[i])
        lat = 0.1 * (gi // grid_cols) + float(rng.uniform(-0.001, 0.001))
        lon = 0.1 * (gi % grid_cols) + float(rng.uniform(-0.001, 0.001))
        refs.image[i], refs.text[i], refs.coords[i] = img_view(i), txt_view(i), (lat, lon)
        groups[rid] = gi
        for row in range(i * per, (i + 1) * per):
            queries.image[row], queries.text[row], queries.coords[row] = img_view(i), txt_view(i), (lat, lon)
            truth[qids[row]] = (rid,)
            groups[qids[row]] = gi

    manifest = StoreManifest(config.image_dim, config.text_dim, n, n * per)
    return Store(manifest, refs, queries, truth), groups


def save_groups(groups: dict[str, int], path: str | Path) -> None:
    write_jsonl(({"group": gi, "id": i} for i, gi in sorted(groups.items())), path)


def _group_entry(rec: dict) -> tuple[str, int]:
    if not isinstance(rec["id"], str):
        raise TypeError("'id' is not a string")
    return rec["id"], int(rec["group"])


def load_groups(path: str | Path) -> dict[str, int]:
    return dict(load_jsonl(path, _group_entry, "group record"))


def semipositive_map(groups: dict[str, int], store: Store) -> dict[str, set[str]]:
    """Per query: same-group reference ids that are not the ground truth."""
    by_group: dict[int, set[str]] = {}
    for rid in store.ref_ids:
        by_group.setdefault(groups[rid], set()).add(rid)
    out: dict[str, set[str]] = {}
    for qid in store.query_ids:
        gi = groups.get(qid)
        if gi is None:
            continue
        out[qid] = by_group.get(gi, set()) - set(store.ground_truth[qid])
    return out
