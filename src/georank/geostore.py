"""Data model, on-disk formats, ingestion, and synthetic dataset generation.

A store is a directory holding binary embedding matrices (magic ``GVLM``),
line-delimited JSON caption/coordinate/ground-truth tables, and a plain-text
``key=value`` manifest. Loaded stores are immutable; ingestion and synthesis
are the only writers.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernels

EMB_MAGIC = b"GVLM"
EMB_VERSION = 1

MANIFEST_FILE = "manifest.txt"
GROUPS_FILE = "groups.jsonl"


class GeostoreError(Exception):
    """Base class for store failures."""


class FormatError(GeostoreError):
    """Corrupt or incompatible binary file."""


class IngestError(GeostoreError):
    """Invalid ingestion input; message carries file, line, and id context."""

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
    id: str
    image_emb: np.ndarray
    text_emb: np.ndarray | None = None
    caption: str | None = None
    coord: GeoCoord | None = None


@dataclass
class QueryRecord:
    id: str
    image_emb: np.ndarray
    ground_truth: tuple[str, ...]
    text_emb: np.ndarray | None = None
    caption: str | None = None
    coord: GeoCoord | None = None


@dataclass
class StoreManifest:
    image_dim: int
    text_dim: int
    reference_count: int
    query_count: int
    format_version: int = 1

    def write(self, path: Path) -> None:
        lines = [
            f"format_version={self.format_version}",
            f"image_dim={self.image_dim}",
            f"text_dim={self.text_dim}",
            f"reference_count={self.reference_count}",
            f"query_count={self.query_count}",
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def read(cls, path: Path) -> "StoreManifest":
        fields = {}
        for ln, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
            raw = raw.strip()
            if not raw or raw.startswith("#"):
                continue
            if "=" not in raw:
                raise IngestError("manifest line is not key=value", file=str(path), line=ln)
            key, value = raw.split("=", 1)
            fields[key.strip()] = value.strip()
        try:
            return cls(
                image_dim=int(fields["image_dim"]),
                text_dim=int(fields["text_dim"]),
                reference_count=int(fields["reference_count"]),
                query_count=int(fields["query_count"]),
                format_version=int(fields.get("format_version", "1")),
            )
        except KeyError as exc:
            raise IngestError(f"manifest missing key {exc}", file=str(path)) from None
        except ValueError as exc:
            raise IngestError(f"manifest value not an integer: {exc}", file=str(path)) from None


@dataclass(frozen=True)
class EvalInstance:
    """Single-positive evaluation unit: all other positives are excluded."""

    query_id: str
    candidate_pool: frozenset[str]
    positive_id: str


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


def write_embedding_matrix(rows: np.ndarray, path: str | Path) -> None:
    """Write an (n, dim) float32 matrix: GVLM magic, u32 version, u32 dim, u64 count, payload."""
    rows = np.asarray(rows, dtype="<f4")
    if rows.ndim != 2:
        raise ValueError(f"expected a 2-D (count, dim) array, got shape {rows.shape}")
    count, dim = rows.shape
    with atomic_write(path) as fh:
        fh.write(EMB_MAGIC)
        fh.write(struct.pack("<IIQ", EMB_VERSION, dim, count))
        fh.write(np.ascontiguousarray(rows))


def read_embedding_matrix(path: str | Path) -> np.ndarray:
    """Read a GVLM matrix back bit-exactly; raises FormatError on corruption."""
    header = struct.calcsize("<IIQ") + 4
    with open(path, "rb") as fh:
        data = fh.read(header)
        if len(data) < header:
            raise FormatError(f"{path}: truncated header ({len(data)} bytes)")
        if data[:4] != EMB_MAGIC:
            raise FormatError(f"{path}: bad magic {data[:4]!r}, expected {EMB_MAGIC!r}")
        version, dim, count = struct.unpack("<IIQ", data[4:])
        if version != EMB_VERSION:
            raise FormatError(f"{path}: format version {version}, expected {EMB_VERSION}")
        expected = count * dim * 4
        payload = os.fstat(fh.fileno()).st_size - header
        if payload < expected:
            raise FormatError(f"{path}: truncated payload ({payload} of {expected} bytes)")
        if payload > expected:
            raise FormatError(f"{path}: {payload - expected} trailing bytes after payload")
        # read straight into the matrix: no intermediate copy of the payload
        rows = np.empty((count, dim), "<f4")
        if fh.readinto(rows) != expected:
            raise FormatError(f"{path}: truncated payload (file shrank while reading)")
    return rows


def valid_id(record_id: str) -> bool:
    """Ids are non-empty, encodable as UTF-8 (no lone surrogates) and hold no
    line boundary, so an ``.ids`` file (one id per line, split with
    ``str.splitlines``) reads back exactly what was written."""
    if not record_id or record_id.splitlines() != [record_id]:
        return False
    try:
        record_id.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _write_ids(ids: list[str], path: Path) -> None:
    for i in ids:
        if not valid_id(i):
            raise ValueError(f"invalid id {i!r}")
    path.write_text("".join(i + "\n" for i in ids), encoding="utf-8")


def _read_ids(path: Path) -> list[str]:
    return Path(path).read_text(encoding="utf-8").splitlines()


def _write_jsonl(records, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":"), ensure_ascii=False) + "\n")


def _read_jsonl(path: str | Path):
    """Yield (line_number, record) pairs; malformed lines raise IngestError."""
    with open(path, "r", encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                rec = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise IngestError(f"malformed JSON ({exc.msg})", file=str(path), line=ln) from None
            if not isinstance(rec, dict):
                raise IngestError("record is not an object", file=str(path), line=ln)
            yield ln, rec


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

def _image_matrix(records, dim: int) -> np.ndarray:
    return np.stack([r.image_emb for r in records], dtype=np.float32) if records else np.empty((0, dim), np.float32)


def _text_matrix(records, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-aligned text embeddings, zero where a record has none, and the mask
    of rows that have one. The width is that of the records' rows (``dim``
    when none has text), so a store whose text disagrees with its manifest
    can still be written, and ``Store.load`` names the mismatch."""
    has_text = np.array([r.text_emb is not None for r in records], bool)
    rows = np.flatnonzero(has_text)
    text = np.zeros((len(records), np.size(records[rows[0]].text_emb) if rows.size else dim), np.float32)
    for i in rows:
        text[i] = records[i].text_emb
    return text, has_text


def _rows(positions: dict[str, int], ids, kind: str) -> np.ndarray:
    try:
        return np.array([positions[i] for i in ids], np.intp)
    except KeyError as exc:
        raise KeyError(f"unknown {kind} id '{exc.args[0]}'") from None


class Store:
    """Immutable in-memory view of a reference/query store.

    Image and text embeddings live in row-aligned matrices (``ref_image``,
    ``ref_text``, ``query_image``, ``query_text``). Text is optional per
    record, so ``ref_has_text``/``query_has_text`` mark the rows that have
    it; the others are zero. Captions and coordinates are per-id lookups.
    """

    def __init__(self, manifest: StoreManifest, refs: list[ReferenceRecord], queries: list[QueryRecord]):
        if len(refs) != manifest.reference_count:
            raise IngestError(f"manifest reference_count={manifest.reference_count} but {len(refs)} references")
        if len(queries) != manifest.query_count:
            raise IngestError(f"manifest query_count={manifest.query_count} but {len(queries)} queries")
        self.manifest = manifest
        self.ref_ids = [r.id for r in refs]
        self._ref_pos = {r.id: i for i, r in enumerate(refs)}
        if len(self._ref_pos) != len(refs):
            raise IngestError("duplicate reference id")
        self.ref_image = _image_matrix(refs, manifest.image_dim)
        self.ref_text, self.ref_has_text = _text_matrix(refs, manifest.text_dim)
        self.query_ids = [q.id for q in queries]
        self._query_pos = {q.id: i for i, q in enumerate(queries)}
        if len(self._query_pos) != len(queries):
            raise IngestError("duplicate query id")
        self.query_image = _image_matrix(queries, manifest.image_dim)
        self.query_text, self.query_has_text = _text_matrix(queries, manifest.text_dim)
        self._ref_caption = {r.id: r.caption for r in refs if r.caption is not None}
        self._query_caption = {q.id: q.caption for q in queries if q.caption is not None}
        self._ref_coord = {r.id: r.coord for r in refs if r.coord is not None}
        self._query_coord = {q.id: q.coord for q in queries if q.coord is not None}
        self.ground_truth = {q.id: tuple(q.ground_truth) for q in queries}
        self._tie_rank = None
        self._cosine_index = None

    # -- lookups ------------------------------------------------------------

    @property
    def ref_tie_rank(self) -> np.ndarray:
        """Lexicographic rank of each reference row's id, for deterministic tie-breaks."""
        if self._tie_rank is None:
            order = sorted(range(len(self.ref_ids)), key=lambda i: self.ref_ids[i])
            rank = np.empty(len(order), np.int64)
            for r, i in enumerate(order):
                rank[i] = r
            self._tie_rank = rank
        return self._tie_rank

    @property
    def cosine_index(self) -> kernels.CosineIndex:
        """Float64 reference row norms for phase-1 retrieval, built on first use."""
        if self._cosine_index is None:
            self._cosine_index = kernels.build_cosine_index(self.ref_image)
        return self._cosine_index

    def has_reference(self, ref_id: str) -> bool:
        return ref_id in self._ref_pos

    def reference(self, ref_id: str) -> ReferenceRecord:
        pos = self._ref_pos.get(ref_id)
        if pos is None:
            raise KeyError(f"unknown reference id '{ref_id}'")
        return ReferenceRecord(
            id=ref_id,
            image_emb=self.ref_image[pos],
            text_emb=self.ref_text[pos] if self.ref_has_text[pos] else None,
            caption=self._ref_caption.get(ref_id),
            coord=self._ref_coord.get(ref_id),
        )

    def ref_rows(self, ref_ids) -> np.ndarray:
        """Row positions of ``ref_ids`` in ``ref_image``."""
        return _rows(self._ref_pos, ref_ids, "reference")

    def query_rows(self, query_ids) -> np.ndarray:
        """Row positions of ``query_ids`` in ``query_image``."""
        return _rows(self._query_pos, query_ids, "query")

    def query(self, query_id: str) -> QueryRecord:
        pos = self._query_pos.get(query_id)
        if pos is None:
            raise KeyError(f"unknown query id '{query_id}'")
        return QueryRecord(
            id=query_id,
            image_emb=self.query_image[pos],
            ground_truth=self.ground_truth[query_id],
            text_emb=self.query_text[pos] if self.query_has_text[pos] else None,
            caption=self._query_caption.get(query_id),
            coord=self._query_coord.get(query_id),
        )

    def ref_text_emb(self, ref_id: str) -> np.ndarray | None:
        pos = self._ref_pos.get(ref_id)
        return self.ref_text[pos] if pos is not None and self.ref_has_text[pos] else None

    def query_text_emb(self, query_id: str) -> np.ndarray | None:
        pos = self._query_pos.get(query_id)
        return self.query_text[pos] if pos is not None and self.query_has_text[pos] else None

    def coord_of(self, any_id: str) -> GeoCoord | None:
        c = self._ref_coord.get(any_id)
        return c if c is not None else self._query_coord.get(any_id)

    # -- persistence ----------------------------------------------------------

    def save(self, store_dir: str | Path) -> None:
        out = Path(store_dir)
        out.mkdir(parents=True, exist_ok=True)
        self.manifest.write(out / MANIFEST_FILE)
        write_embedding_matrix(self.ref_image, out / "refs.img.emb")
        _write_ids(self.ref_ids, out / "refs.img.ids")
        self._save_side(out, "refs", self.ref_ids, self.ref_text, self.ref_has_text, self._ref_caption, self._ref_coord)
        if self.query_ids:
            write_embedding_matrix(self.query_image, out / "queries.img.emb")
            _write_ids(self.query_ids, out / "queries.img.ids")
            self._save_side(out, "queries", self.query_ids, self.query_text, self.query_has_text,
                            self._query_caption, self._query_coord)
            _write_jsonl(
                ({"id": q, "refs": sorted(self.ground_truth[q])} for q in self.query_ids),
                out / "queries.truth.jsonl",
            )

    def _save_side(self, out: Path, prefix: str, ids, text, has_text, captions, coords) -> None:
        if has_text.any():
            write_embedding_matrix(text if has_text.all() else text[has_text], out / f"{prefix}.txt.emb")
            _write_ids([i for i, h in zip(ids, has_text) if h], out / f"{prefix}.txt.ids")
        if captions:
            _write_jsonl(
                ({"caption": captions[i], "id": i} for i in ids if i in captions),
                out / f"{prefix}.captions.jsonl",
            )
        if coords:
            _write_jsonl(
                ({"id": i, "lat": coords[i].lat, "lon": coords[i].lon} for i in ids if i in coords),
                out / f"{prefix}.coords.jsonl",
            )

    @classmethod
    def load(cls, store_dir: str | Path) -> "Store":
        root = Path(store_dir)
        manifest = StoreManifest.read(root / MANIFEST_FILE)
        refs, ref_text = cls._load_side(root, "refs", manifest)
        ref_records = [ReferenceRecord(**r) for r in refs]
        query_records: list[QueryRecord] = []
        query_text = None
        if (root / "queries.img.emb").exists():
            truth: dict[str, tuple[str, ...]] = {}
            tpath = root / "queries.truth.jsonl"
            if tpath.exists():
                for ln, rec in _read_jsonl(tpath):
                    truth[rec["id"]] = tuple(rec["refs"])
            queries, query_text = cls._load_side(root, "queries", manifest)
            query_records = [QueryRecord(ground_truth=truth.get(r["id"], ()), **r) for r in queries]
        # the records carry no text; each side's text matrix was placed whole
        store = cls(manifest, ref_records, query_records)
        store.ref_text, store.ref_has_text = ref_text
        if query_text is not None:
            store.query_text, store.query_has_text = query_text
        # a zero or non-finite image row scores NaN. The reference norms are the
        # retrieval index the first query would build anyway, so refs cost no extra pass.
        for prefix, ids, norms in (
            ("refs", store.ref_ids, store.cosine_index.norms),
            ("queries", store.query_ids, kernels.row_norms(store.query_image)),
        ):
            bad = np.flatnonzero(~(np.isfinite(norms) & (norms > 0)))
            if bad.size:
                path = root / f"{prefix}.img.emb"
                raise FormatError(f"{path}: id '{ids[bad[0]]}' has a zero or non-finite embedding")
        return store

    @staticmethod
    def _load_side(root: Path, prefix: str, manifest: StoreManifest) -> tuple[list[dict], tuple[np.ndarray, np.ndarray]]:
        """Per-row records of one side without text, and its (text, has_text) matrix and mask."""
        mat = read_embedding_matrix(root / f"{prefix}.img.emb")
        ids = _read_ids(root / f"{prefix}.img.ids")
        if mat.shape[0] != len(ids):
            raise FormatError(f"{prefix}: {mat.shape[0]} embedding rows but {len(ids)} ids")
        if mat.shape[0] and mat.shape[1] != manifest.image_dim:
            raise FormatError(f"{prefix}: embedding dim {mat.shape[1]} does not match manifest {manifest.image_dim}")
        records = [{"id": i, "image_emb": mat[row]} for row, i in enumerate(ids)]
        by_id = {i: row for row, i in enumerate(ids)}

        def resolve(i: str, source: str) -> int:
            row = by_id.get(i)
            if row is None:
                raise FormatError(f"{prefix}: {source} references unknown id '{i}'")
            return row

        text = np.zeros((len(ids), manifest.text_dim), np.float32)
        has_text = np.zeros(len(ids), bool)

        tpath = root / f"{prefix}.txt.emb"
        if tpath.exists():
            tmat = read_embedding_matrix(tpath)
            tids = _read_ids(root / f"{prefix}.txt.ids")
            if tmat.shape[0] != len(tids):
                raise FormatError(f"{prefix}: {tmat.shape[0]} text rows but {len(tids)} ids")
            if tmat.shape[0] and tmat.shape[1] != manifest.text_dim:
                raise FormatError(
                    f"{prefix}: text embedding dim {tmat.shape[1]} does not match manifest {manifest.text_dim}"
                )
            bad = np.flatnonzero(~np.isfinite(tmat).all(axis=1))
            if bad.size:
                raise FormatError(f"{tpath}: id '{tids[bad[0]]}' has a non-finite text embedding")
            rows = np.array([resolve(i, "text embedding") for i in tids], np.intp)
            if rows.size:
                text[rows] = tmat
                has_text[rows] = True
        cpath = root / f"{prefix}.captions.jsonl"
        if cpath.exists():
            for ln, rec in _read_jsonl(cpath):
                records[resolve(rec["id"], "caption")]["caption"] = rec["caption"]
        gpath = root / f"{prefix}.coords.jsonl"
        if gpath.exists():
            for ln, rec in _read_jsonl(gpath):
                records[resolve(rec["id"], "coordinate")]["coord"] = GeoCoord(rec["lat"], rec["lon"])
        return records, (text, has_text)


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

def _parse_embedding_rows(path: str | Path, dim: int, label: str) -> list[tuple[str, np.ndarray]]:
    rows: list[tuple[str, np.ndarray]] = []
    seen: set[str] = set()
    for ln, rec in _read_jsonl(path):
        rid = rec.get("id")
        if not isinstance(rid, str) or not rid:
            raise IngestError("missing or invalid 'id'", file=str(path), line=ln)
        if not valid_id(rid):
            raise IngestError("id contains a line break or a lone surrogate", file=str(path), line=ln, record_id=rid)
        if rid in seen:
            raise IngestError(f"duplicate {label} id", file=str(path), line=ln, record_id=rid)
        seen.add(rid)
        values = rec.get("embedding")
        if not isinstance(values, list):
            raise IngestError("missing 'embedding' array", file=str(path), line=ln, record_id=rid)
        if len(values) != dim:
            raise IngestError(
                f"embedding has {len(values)} values, expected dim {dim}",
                file=str(path), line=ln, record_id=rid,
            )
        try:
            vec = np.asarray(values, dtype=np.float32)
        except (TypeError, ValueError):
            raise IngestError("non-numeric embedding value", file=str(path), line=ln, record_id=rid) from None
        if not np.all(np.isfinite(vec)):
            raise IngestError("embedding contains NaN/Inf", file=str(path), line=ln, record_id=rid)
        if not np.any(vec):
            raise IngestError("zero-norm embedding rejected", file=str(path), line=ln, record_id=rid)
        rows.append((rid, vec))
    return rows


def _parse_keyed(path, known_ids: set[str], label: str):
    """Yield (line, id, record) for a JSONL table keyed by id; ids must resolve."""
    seen: set[str] = set()
    for ln, rec in _read_jsonl(path):
        rid = rec.get("id")
        if not isinstance(rid, str):
            raise IngestError("missing or invalid 'id'", file=str(path), line=ln)
        if rid in seen:
            raise IngestError(f"duplicate {label} row", file=str(path), line=ln, record_id=rid)
        seen.add(rid)
        if rid not in known_ids:
            raise IngestError(f"{label} for unknown id", file=str(path), line=ln, record_id=rid)
        yield ln, rid, rec


def _attach_side_tables(
    records: dict[str, dict],
    dim_text: int,
    captions: str | Path | None,
    coords: str | Path | None,
    text_embeddings: str | Path | None,
) -> None:
    known = set(records)
    if captions is not None:
        for ln, rid, rec in _parse_keyed(captions, known, "caption"):
            if not isinstance(rec.get("caption"), str):
                raise IngestError("missing 'caption' string", file=str(captions), line=ln, record_id=rid)
            records[rid]["caption"] = rec["caption"]
    if coords is not None:
        for ln, rid, rec in _parse_keyed(coords, known, "coordinate"):
            try:
                records[rid]["coord"] = GeoCoord(float(rec["lat"]), float(rec["lon"]))
            except (KeyError, TypeError) as exc:
                raise IngestError(f"missing coordinate field {exc}", file=str(coords), line=ln, record_id=rid) from None
            except ValueError as exc:
                raise IngestError(str(exc), file=str(coords), line=ln, record_id=rid) from None
    if text_embeddings is not None:
        for rid, vec in _parse_embedding_rows(text_embeddings, dim_text, "text embedding"):
            if rid not in known:
                raise IngestError("text embedding for unknown id", file=str(text_embeddings), record_id=rid)
            records[rid]["text_emb"] = vec


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

    Re-ingesting identical inputs reproduces the store byte for byte. Every
    rejection names the offending file, line, and id.
    """
    ref_rows = _parse_embedding_rows(ref_embeddings, manifest.image_dim, "reference")
    if len(ref_rows) != manifest.reference_count:
        raise IngestError(
            f"{len(ref_rows)} reference rows but manifest says {manifest.reference_count}",
            file=str(ref_embeddings),
        )
    refs = {rid: {"id": rid, "image_emb": vec} for rid, vec in ref_rows}
    _attach_side_tables(refs, manifest.text_dim, ref_captions, ref_coords, ref_text_embeddings)

    queries: dict[str, dict] = {}
    if query_embeddings is not None:
        q_rows = _parse_embedding_rows(query_embeddings, manifest.image_dim, "query")
        if len(q_rows) != manifest.query_count:
            raise IngestError(
                f"{len(q_rows)} query rows but manifest says {manifest.query_count}",
                file=str(query_embeddings),
            )
        queries = {rid: {"id": rid, "image_emb": vec} for rid, vec in q_rows}
        _attach_side_tables(queries, manifest.text_dim, query_captions, query_coords, query_text_embeddings)
        if query_truth is None:
            raise IngestError("queries require a ground-truth file", file=str(query_embeddings))
        for ln, rid, rec in _parse_keyed(query_truth, set(queries), "ground truth"):
            gt = rec.get("refs")
            if not isinstance(gt, list) or not gt:
                raise IngestError("ground truth needs a nonempty 'refs' list", file=str(query_truth), line=ln, record_id=rid)
            for g in gt:
                if g not in refs:
                    raise IngestError(
                        f"unresolvable ground-truth id '{g}'", file=str(query_truth), line=ln, record_id=rid
                    )
            queries[rid]["ground_truth"] = tuple(sorted(set(gt)))
        for rid, rec in queries.items():
            if "ground_truth" not in rec:
                raise IngestError("query has no ground-truth entry", file=str(query_truth), record_id=rid)
    elif manifest.query_count != 0:
        raise IngestError(f"manifest says query_count={manifest.query_count} but no query file given")

    store = Store(
        manifest,
        [ReferenceRecord(**r) for r in refs.values()],
        [QueryRecord(**q) for q in queries.values()],
    )
    store.save(out_dir)
    return store


# ---------------------------------------------------------------------------
# evaluation instances
# ---------------------------------------------------------------------------

def build_eval_instances(query: QueryRecord, store: Store) -> list[EvalInstance]:
    """One single-positive instance per ground-truth id, other positives excluded from the pool."""
    if not query.ground_truth:
        raise ValueError(f"query '{query.id}' has an empty ground-truth set")
    all_ids = set(store.ref_ids)
    positives = set(query.ground_truth)
    instances = []
    for pos in sorted(positives):
        pool = all_ids - (positives - {pos})
        instances.append(EvalInstance(query_id=query.id, candidate_pool=frozenset(pool), positive_id=pos))
    return instances


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
    fixes the text noise level. ``semipositive_regime`` selects whether
    same-group non-matching references are treated as ordinary negatives
    ("negative") or flagged for exclusion from reranker training ("exclude").
    """

    n_locations: int
    group_size: int = 4
    image_dim: int = 64
    text_dim: int = 64
    image_noise: float = 0.7
    group_spread: float = 0.15
    text_margin: float = 0.95
    queries_per_location: int = 1
    semipositive_regime: str = "negative"

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
        if self.semipositive_regime not in ("negative", "exclude"):
            raise ValueError(f"unknown semipositive_regime '{self.semipositive_regime}'")


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

    refs: list[ReferenceRecord] = []
    queries: list[QueryRecord] = []
    groups: dict[str, int] = {}
    width = len(str(max(n - 1, 1)))
    for i in range(n):
        gi = int(loc_group[i])
        lat = 0.1 * (gi // grid_cols) + float(rng.uniform(-0.001, 0.001))
        lon = 0.1 * (gi % grid_cols) + float(rng.uniform(-0.001, 0.001))
        coord = GeoCoord(lat, lon)
        rid = f"r{i:0{width}d}"
        refs.append(
            ReferenceRecord(
                id=rid,
                image_emb=img_view(i).astype(np.float32),
                text_emb=txt_view(i).astype(np.float32),
                coord=coord,
            )
        )
        groups[rid] = gi
        for j in range(config.queries_per_location):
            qid = f"q{i:0{width}d}" if config.queries_per_location == 1 else f"q{i:0{width}d}.{j}"
            queries.append(
                QueryRecord(
                    id=qid,
                    image_emb=img_view(i).astype(np.float32),
                    text_emb=txt_view(i).astype(np.float32),
                    ground_truth=(rid,),
                    coord=coord,
                )
            )
            groups[qid] = gi

    manifest = StoreManifest(
        image_dim=config.image_dim,
        text_dim=config.text_dim,
        reference_count=len(refs),
        query_count=len(queries),
    )
    return Store(manifest, refs, queries), groups


def save_groups(groups: dict[str, int], path: str | Path) -> None:
    _write_jsonl(({"group": gi, "id": i} for i, gi in sorted(groups.items())), Path(path))


def load_groups(path: str | Path) -> dict[str, int]:
    return {rec["id"]: int(rec["group"]) for _, rec in _read_jsonl(path)}


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
