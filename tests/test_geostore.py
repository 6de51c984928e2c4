import dataclasses
import json
import os
import re
import struct
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from georank import geostore, kernels
from georank.cli import main
from georank.evaluator import haversine
from georank.retriever import Ranking, load_rankings, rank_store_queries, save_rankings
from georank.trainer import TrainingSample, load_samples, save_samples
from georank.geostore import (
    Columns,
    FormatError,
    GeoCoord,
    IngestError,
    InvalidStore,
    Store,
    StoreManifest,
    SynthConfig,
    generate_synthetic,
    ingest,
    read_embedding_matrix,
    semipositive_map,
    store_digest,
    write_embedding_matrix,
)

from conftest import build_store, fill_disk_after_first_write, make_query, make_ref, store_of


# ---------------------------------------------------------------------------
# coordinates
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lat,lon", [(90.5, 0), (-91, 0), (0, 180.2), (0, -181), (float("nan"), 0)])
def test_geocoord_rejects_out_of_range(lat, lon):
    with pytest.raises(ValueError):
        GeoCoord(lat, lon)


def test_geocoord_accepts_bounds():
    GeoCoord(90, 180)
    GeoCoord(-90, -180)


# ---------------------------------------------------------------------------
# embedding matrix format
# ---------------------------------------------------------------------------

def test_matrix_roundtrip_bitexact(tmp_path):
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((100, 17)).astype(np.float32)
    path = tmp_path / "m.emb"
    write_embedding_matrix(rows, path)
    back = read_embedding_matrix(path)
    assert back.dtype == np.float32
    assert np.array_equal(back, rows)


def test_matrix_empty_roundtrip(tmp_path):
    path = tmp_path / "m.emb"
    write_embedding_matrix(np.empty((0, 5), np.float32), path)
    back = read_embedding_matrix(path)
    assert back.shape == (0, 5)
    Store(StoreManifest(4, 3, 0, 0), Columns([], np.empty((0, 4), np.float32))).save(tmp_path / "s")
    back = Store.load(tmp_path / "s")
    assert back.ref_ids == [] and back.ref_image.shape == (0, 4) and back.refs.text.shape == (0, 3)


@pytest.mark.parametrize("corrupt, problem", [
    (lambda b: b[:10], "truncated header (10 bytes)"),
    (lambda b: b"XXXX" + b[4:], "bad magic b'XXXX', expected b'GVLM'"),
    (lambda b: b[:4] + b"\x09" + b[5:], "format version 9, expected 1 (float32 rows)"),
    (lambda b: b[:-1], "truncated payload (15 of 16 bytes)"),
    (lambda b: b + b"\x00", "1 trailing bytes after payload"),
    # the size check passes (width 0 needs no payload), but no array has 2**63 rows
    (lambda b: b[:4] + struct.pack("<IIQ", 1, 0, 2**63), f"impossible header ({2**63} rows of dim 0)"),
], ids=["short-header", "magic", "version", "short-payload", "trailing", "impossible-shape"])
def test_matrix_refusal_is_format_error_naming_the_file(tmp_path, corrupt, problem):
    path = tmp_path / "m.emb"
    write_embedding_matrix(np.ones((2, 2), np.float32), path)
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(FormatError, match=re.escape(f"{path}: {problem}")):
        read_embedding_matrix(path)


def test_matrix_that_shrinks_after_its_size_check_is_format_error_naming_it(tmp_path, monkeypatch):
    path = tmp_path / "m.emb"
    write_embedding_matrix(np.ones((4, 3), np.float32), path)
    size = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-8])
    # the size check sees the whole file; the mapping then finds it 8 bytes shorter
    monkeypatch.setattr(os, "fstat", lambda fd: types.SimpleNamespace(st_size=size))
    with pytest.raises(FormatError, match=re.escape(f"{path}: truncated payload (file shrank while reading)")):
        read_embedding_matrix(path)


def test_loaded_columns_are_read_only(tmp_path):
    _full_store(tmp_path / "s")
    store = Store.load(tmp_path / "s")
    # refs map every column from its file; q1 has no text or coordinate, so the queries' are scattered copies
    for cols in (store.refs, store.queries):
        for name in ("image", "text", "coords", "has_text", "has_coord"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(cols, name)[0] = 0


def test_loaded_store_keeps_its_rows_while_its_directory_is_rewritten(tmp_path):
    d = tmp_path / "s"

    def synth(seed):
        assert main(["synth", "--out", str(d), "--locations", "8", "--group-size", "4", "--image-dim", "4",
                     "--text-dim", "3", "--seed", str(seed)]) == 0

    synth(1)
    store = Store.load(d)
    columns = lambda: [c for cols in (store.refs, store.queries) for c in (cols.image, cols.text, cols.coords)]
    before = [c.copy() for c in columns()]
    config = SynthConfig(n_locations=8, group_size=4, image_dim=4, text_dim=3)
    for rewrite in (lambda: synth(2), lambda: generate_synthetic(config, seed=3)[0].save(d),
                    lambda: geostore.attach_text(d, "refs", ["r0"], [[5.0, 5.0, 5.0]])):
        digest = store_digest(d)
        rewrite()
        assert store_digest(d) != digest
        assert all(np.array_equal(a, b) for a, b in zip(columns(), before))
    assert Store.load(d).ref_text_emb("r0").tolist() == [5.0, 5.0, 5.0]


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

def _write_jsonl(path, records):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def _ref_file(tmp_path, rows, name="refs.jsonl"):
    path = tmp_path / name
    _write_jsonl(path, rows)
    return path


def test_ingest_three_refs_with_captions(tmp_path):
    emb = _ref_file(
        tmp_path,
        [{"id": f"a{i}", "embedding": [float(i + 1), 0.0, 0.0, 1.0]} for i in range(3)],
    )
    caps = tmp_path / "caps.jsonl"
    _write_jsonl(caps, [{"id": f"a{i}", "caption": f"scene {i}"} for i in range(3)])
    store = ingest(tmp_path / "store", StoreManifest(4, 3, 3, 0), emb, ref_captions=caps)
    assert len(store.ref_ids) == 3
    assert store.reference("a1").caption == "scene 1"


def test_ingest_dimension_mismatch_names_id(tmp_path):
    emb = _ref_file(tmp_path, [{"id": "good", "embedding": [1, 0, 0, 1]},
                               {"id": "bad5", "embedding": [1, 2, 3, 4, 5]}])
    with pytest.raises(IngestError, match="bad5") as exc:
        ingest(tmp_path / "store", StoreManifest(4, 3, 2, 0), emb)
    assert "5 values" in str(exc.value) and "line 2" in str(exc.value)


def test_ingest_duplicate_id(tmp_path):
    emb = _ref_file(tmp_path, [{"id": "dup", "embedding": [1, 0]}, {"id": "dup", "embedding": [0, 1]}])
    with pytest.raises(IngestError, match="duplicate"):
        ingest(tmp_path / "store", StoreManifest(2, 2, 2, 0), emb)


@pytest.mark.parametrize("values", [["1.5", True], [1.5, True], [False, 0.0], [1.5, None], [1.5, [2.0]],
                                    "1.5,2.0", 1.5, {"0": 1.5}, [1.5, 10 ** 400]],
                         ids=["string-and-true", "true", "false", "null", "nested", "string", "number", "object",
                              "huge-integer"])
@pytest.mark.parametrize("table", ["ref_embeddings", "ref_text_embeddings"])
def test_ingest_refuses_an_embedding_that_is_not_a_list_of_numbers(tmp_path, table, values):
    """Nothing is coerced: ``float("1.5")`` or ``float(True)`` would load a vector the file does not hold."""
    good = {"id": "r0", "embedding": [1.0, 0.0]}
    path = _ref_file(tmp_path, [good, {"id": "r1", "embedding": values}])
    files = {"ref_embeddings": path, "ref_text_embeddings": path}
    if table == "ref_text_embeddings":
        files["ref_embeddings"] = _ref_file(tmp_path, [good, {"id": "r1", "embedding": [0.0, 1.0]}], "img.jsonl")
    problem = "int too large" if values == [1.5, 10 ** 400] else "embedding is not a list of numbers"
    with pytest.raises(IngestError, match=re.escape(f"{path}, line 2, id 'r1': {problem}")):
        ingest(tmp_path / "store", StoreManifest(2, 2, 2, 0), files.pop("ref_embeddings"), **files)
    assert not (tmp_path / "store").exists()


def test_ingest_malformed_row_names_file_and_line(tmp_path):
    path = tmp_path / "refs.jsonl"
    for line, problem in (("not json", "malformed JSON"), ('["r1", [0, 1]]', "record is not an object")):
        path.write_text('{"id": "ok", "embedding": [1, 0]}\n' + line + "\n")
        with pytest.raises(IngestError, match=re.escape(f"{path}, line 2: {problem}")):
            ingest(tmp_path / "store", StoreManifest(2, 2, 2, 0), path)


def test_ingest_rejects_nonfinite_and_zero_norm(tmp_path):
    emb = _ref_file(tmp_path, [{"id": "nan", "embedding": [1.0, float("nan")]}])
    with pytest.raises(IngestError, match="NaN"):
        ingest(tmp_path / "s1", StoreManifest(2, 2, 1, 0), emb)
    emb2 = _ref_file(tmp_path, [{"id": "zero", "embedding": [0.0, 0.0]}], name="refs2.jsonl")
    with pytest.raises(IngestError, match="zero-norm"):
        ingest(tmp_path / "s2", StoreManifest(2, 2, 1, 0), emb2)
    # past float32's range: refused as infinite, without numpy's overflow warning (which fails a test)
    emb3 = _ref_file(tmp_path, [{"id": "big", "embedding": [1e39, 0.0]}], name="refs3.jsonl")
    with pytest.raises(IngestError, match="NaN"):
        ingest(tmp_path / "s3", StoreManifest(2, 2, 1, 0), emb3)


def test_ingest_unresolvable_ground_truth(tmp_path):
    refs = _ref_file(tmp_path, [{"id": "r0", "embedding": [1, 0]}])
    qs = _ref_file(tmp_path, [{"id": "q0", "embedding": [1, 1]}], name="queries.jsonl")
    truth = tmp_path / "truth.jsonl"
    _write_jsonl(truth, [{"id": "q0", "refs": ["missing"]}])
    with pytest.raises(IngestError, match="unresolvable ground-truth id 'missing'"):
        ingest(tmp_path / "store", StoreManifest(2, 2, 1, 1), refs,
               query_embeddings=qs, query_truth=truth)


def test_ingest_count_mismatch(tmp_path):
    emb = _ref_file(tmp_path, [{"id": "a", "embedding": [1, 0]}])
    with pytest.raises(IngestError, match="manifest"):
        ingest(tmp_path / "store", StoreManifest(2, 2, 5, 0), emb)
    emb = _ref_file(tmp_path, [{"id": i, "embedding": [1, 0]} for i in "abc"])
    with pytest.raises(IngestError, match=re.escape(f"{emb}, line 3, id 'c': more than 2 refs rows")):
        ingest(tmp_path / "store", StoreManifest(2, 2, 2, 0), emb)
    assert not (tmp_path / "store").exists()


def test_ingest_idempotent_digest(tmp_path):
    rng = np.random.default_rng(3)
    rows = [{"id": f"r{i}", "embedding": [float(x) for x in rng.standard_normal(4)]} for i in range(10)]
    emb = _ref_file(tmp_path, rows)
    coords = tmp_path / "coords.jsonl"
    _write_jsonl(coords, [{"id": f"r{i}", "lat": float(i), "lon": float(-i)} for i in range(10)])
    ingest(tmp_path / "s1", StoreManifest(4, 3, 10, 0), emb, ref_coords=coords)
    ingest(tmp_path / "s2", StoreManifest(4, 3, 10, 0), emb, ref_coords=coords)
    assert store_digest(tmp_path / "s1") == store_digest(tmp_path / "s2")


def test_ingest_bad_coordinate_names_id(tmp_path):
    emb = _ref_file(tmp_path, [{"id": "r0", "embedding": [1, 0]}])
    coords = tmp_path / "coords.jsonl"
    _write_jsonl(coords, [{"id": "r0", "lat": 95.0, "lon": 0.0}])
    with pytest.raises(IngestError, match="r0"):
        ingest(tmp_path / "store", StoreManifest(2, 2, 1, 0), emb, ref_coords=coords)


@pytest.mark.parametrize("record,problem", [
    ({"id": "r1", "lat": "x", "lon": 4.0}, "not both numbers"),
    ({"id": "r1", "lon": 4.0}, "missing field 'lat'"),
    ({"id": "r1", "lat": "12.5", "lon": True}, """'lat' "12.5" and 'lon' true are not both numbers"""),
    ({"id": "r1", "lat": 12.5, "lon": False}, "not both numbers"),
    ({"id": "r1", "lat": None, "lon": 4.0}, "not both numbers"),
    ({"id": "r1", "lat": [1.0], "lon": 4.0}, "not both numbers"),
    ({"id": "r1", "lat": 10 ** 400, "lon": 4.0}, "int too large to convert to float"),
], ids=["lat-not-number", "lon-missing", "string-and-true", "false", "null", "list", "huge-integer"])
def test_ingest_bad_coordinate_row_names_file_line_and_id(tmp_path, record, problem):
    """Nothing is coerced: ``float("12.5")`` or ``float(True)`` would load a coordinate the file does not hold."""
    emb = _ref_file(tmp_path, [{"id": "r0", "embedding": [1, 0]}, {"id": "r1", "embedding": [0, 1]}])
    coords = tmp_path / "coords.jsonl"
    _write_jsonl(coords, [{"id": "r0", "lat": 1.0, "lon": 2}, record])
    with pytest.raises(IngestError, match=re.escape(f"{coords}, line 2, id 'r1': ") + ".*" + re.escape(problem)):
        ingest(tmp_path / "store", StoreManifest(2, 2, 2, 0), emb, ref_coords=coords)
    assert not (tmp_path / "store").exists()


def test_non_utf8_ingest_line_is_ingest_error_naming_file_and_line(tmp_path):
    emb = tmp_path / "refs.jsonl"
    emb.write_bytes(b'{"id": "r0", "embedding": [1, 0]}\n{"id": "r\xff", "embedding": [0, 1]}\n')
    with pytest.raises(IngestError, match=re.escape(f"{emb}, line 2: byte 0xff is not UTF-8")):
        ingest(tmp_path / "store", StoreManifest(2, 2, 2, 0), emb)


# ---------------------------------------------------------------------------
# store persistence
# ---------------------------------------------------------------------------

def test_store_roundtrip_preserves_all_fields(tmp_path):
    rng = np.random.default_rng(9)
    refs = [
        make_ref("r0", rng.standard_normal(4), text=rng.standard_normal(3),
                 caption="a road", coord=GeoCoord(1.5, -2.5)),
        make_ref("r1", rng.standard_normal(4)),
    ]
    queries = [make_query("q0", rng.standard_normal(4), ["r0"],
                          text=rng.standard_normal(3), coord=GeoCoord(0.25, 0.75))]
    store = build_store(refs, queries, image_dim=4, text_dim=3)
    store.save(tmp_path / "s")
    back = Store.load(tmp_path / "s")

    r0 = back.reference("r0")
    assert np.array_equal(r0.image_emb, refs[0].image_emb)
    assert np.array_equal(r0.text_emb, refs[0].text_emb)
    assert r0.caption == "a road"
    assert r0.coord == GeoCoord(1.5, -2.5)
    assert back.reference("r1").text_emb is None
    q0 = back.query("q0")
    assert q0.ground_truth == ("r0",)
    assert np.array_equal(q0.image_emb, queries[0].image_emb)
    assert q0.coord == GeoCoord(0.25, 0.75)
    # save again: byte-identical
    back.save(tmp_path / "s2")
    assert store_digest(tmp_path / "s") == store_digest(tmp_path / "s2")


LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@settings(max_examples=200, deadline=None)
@given(st.text(st.one_of(st.characters(), st.sampled_from(LINE_BREAKS)), max_size=6))
def test_any_id_round_trips_or_is_rejected_at_write(rid):
    with tempfile.TemporaryDirectory() as d:
        try:
            build_store([make_ref(rid, [1.0, 0.5], text=[0.0, 1.0, 0.0])],
                        [make_query(rid, [0.5, 1.0], [rid], text=[1.0, 0.0, 0.0])], image_dim=2, text_dim=3).save(d)
        except ValueError:
            assert not geostore.valid_id(rid)
            return
        back = Store.load(d)
    assert back.ref_ids == [rid] and back.query_ids == [rid]
    assert back.ground_truth == {rid: (rid,)}
    assert np.array_equal(back.reference(rid).text_emb, [0.0, 1.0, 0.0])
    assert np.array_equal(back.query(rid).text_emb, [1.0, 0.0, 0.0])


def test_ids_with_lone_surrogates_rejected_on_write_and_ingest(tmp_path):
    rid = "a\ud800b"
    assert not geostore.valid_id(rid)
    with pytest.raises(ValueError, match="invalid id"):
        build_store([make_ref(rid, [1.0, 0.0])], [], image_dim=2).save(tmp_path / "s")
    emb = tmp_path / "refs.jsonl"
    emb.write_text('{"id": "ok", "embedding": [1.0, 0.0]}\n{"id": "a\\ud800b", "embedding": [0.0, 1.0]}\n',
                   encoding="utf-8")
    with pytest.raises(IngestError, match="line 2") as exc:
        ingest(tmp_path / "store", StoreManifest(2, 2, 2, 0), emb)
    assert exc.value.record_id == rid


@pytest.mark.parametrize("caption", ["a\ud800b", 7])
def test_caption_not_utf8_string_rejected_in_memory_on_ingest_and_on_load(tmp_path, caption):
    refs = [make_ref("ok", [1.0, 0.0], caption="fine"), make_ref("r1", [0.0, 1.0], caption=caption)]
    with pytest.raises(InvalidStore, match="caption") as exc:
        build_store(refs, [], image_dim=2)
    assert (exc.value.side, exc.value.row, exc.value.record_id) == ("refs", 1, "r1")
    if not isinstance(caption, str):
        return  # JSON input gives a non-string caption its own ingest error
    emb = _ref_file(tmp_path, [{"id": "ok", "embedding": [1.0, 0.0]}, {"id": "r1", "embedding": [0.0, 1.0]}])
    caps = tmp_path / "caps.jsonl"
    caps.write_text('{"id": "ok", "caption": "fine"}\n{"id": "r1", "caption": "a\\ud800b"}\n')
    with pytest.raises(IngestError, match=re.escape(f"{caps}, line 2")) as exc:
        ingest(tmp_path / "store", StoreManifest(2, 8, 2, 0), emb, ref_captions=caps)
    assert exc.value.record_id == "r1" and not (tmp_path / "store").exists()
    refs[1] = make_ref("r1", [0.0, 1.0], caption="also fine")
    build_store(refs, [], image_dim=2).save(tmp_path / "s")
    (tmp_path / "s" / "refs.captions.jsonl").write_bytes(caps.read_bytes())
    with pytest.raises(FormatError, match=re.escape(f"refs.captions.jsonl, line 2: id 'r1'")):
        Store.load(tmp_path / "s")


@pytest.mark.parametrize("brk", ["\r", "\x85", "\u2028"])
def test_ids_with_line_breaks_rejected_on_write_and_ingest(tmp_path, brk):
    rid = f"a{brk}b"
    with pytest.raises(ValueError, match="invalid id"):
        build_store([make_ref(rid, [1.0, 0.0])], [], image_dim=2).save(tmp_path / "s")
    emb = _ref_file(tmp_path, [{"id": "ok", "embedding": [1.0, 0.0]}, {"id": rid, "embedding": [0.0, 1.0]}])
    with pytest.raises(IngestError, match="line 2") as exc:
        ingest(tmp_path / "store", StoreManifest(2, 2, 2, 0), emb)
    assert str(emb) in str(exc.value) and exc.value.record_id == rid


@pytest.mark.parametrize("side", ["refs", "queries"])
@pytest.mark.parametrize("bad", [[0.0, 0.0], [1.0, np.nan], [np.inf, 0.0]])
def test_load_rejects_zero_and_nonfinite_image_rows(tmp_path, side, bad):
    # no store holding such a row can be built, so the bad matrix overwrites a saved one
    refs = [make_ref("a", [1.0, 0.0]), make_ref("z", [0.0, 1.0])]
    queries = [make_query("q", [1.0, 1.0], ["a"])]
    build_store(refs, queries, image_dim=2).save(tmp_path / "s")
    write_embedding_matrix([[1.0, 0.0], bad] if side == "refs" else [bad], tmp_path / "s" / f"{side}.img.emb")
    with pytest.raises(FormatError, match=f"{side}.img.emb: id '{'z' if side == 'refs' else 'q'}'"):
        Store.load(tmp_path / "s")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_load_rejects_nonfinite_text_rows(tmp_path, bad):
    refs = [make_ref("a", [1.0, 0.0], text=[1.0, 0.0, 0.0]), make_ref("b", [0.0, 1.0], text=[0.0, 0.0, 0.0])]
    queries = [make_query("q", [1.0, 1.0], ["a"], text=[0.0, 1.0, 0.0])]
    build_store(refs, queries, image_dim=2, text_dim=3).save(tmp_path / "s")
    write_embedding_matrix([[1.0, 0.0, 0.0], [bad, 0.0, 0.0]], tmp_path / "s" / "refs.txt.emb")
    with pytest.raises(FormatError, match="refs.txt.emb: id 'b' has a non-finite text embedding"):
        Store.load(tmp_path / "s")


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float32, hnp.array_shapes(min_dims=2, max_dims=2, max_side=5),
                  elements=st.sampled_from([0.0, 1.5, -2.0, 3.4e38, -3.4e38, np.nan, np.inf, -np.inf])))
@example(np.array([[3.4e38, 3.4e38, 1.0], [-3.4e38, -3.4e38, 1.0], [1.0, np.inf, -np.inf]], np.float32))
def test_store_refuses_exactly_the_nonfinite_text_rows_naming_the_first(text):
    n, dim = text.shape
    ids = [f"r{i}" for i in range(n)]
    # the float64-norm check the float32 row sum replaced, as the reference
    bad = np.flatnonzero(~np.isfinite(kernels.row_norms(text)))
    assert bad.tolist() == np.flatnonzero(~np.isfinite(text).all(axis=1)).tolist()
    build = lambda: Store(StoreManifest(2, dim, n, 0), Columns(ids, np.ones((n, 2), np.float32), text))
    if not bad.size:
        build()  # a finite row whose float32 sum overflows is accepted
        return
    with pytest.raises(InvalidStore) as exc:
        build()
    assert (exc.value.column, exc.value.row, exc.value.record_id) == ("text", bad[0], ids[bad[0]])
    assert str(exc.value) == f"refs: id '{ids[bad[0]]}' has a non-finite text embedding"


def _norm_and_sum_refusal(image: np.ndarray, text: np.ndarray):
    """The checks the row-sum screen replaced, as the reference: image rows by
    their float64 norms, text rows by one float32 sum per row, re-checked value
    by value where it is not finite. (column, first row, problem) or None."""
    norms = kernels.row_norms(image)
    with np.errstate(over="ignore", invalid="ignore"):
        text_ok = np.isfinite(np.add.reduce(text, axis=1))
    suspect = np.flatnonzero(~text_ok)
    text_ok[suspect] = np.isfinite(text[suspect]).all(axis=1)
    for column, ok, problem in (("image", np.isfinite(norms), "has a NaN/Inf embedding"),
                                ("image", norms > 0, "has a zero-norm embedding"),
                                ("text", text_ok, "has a non-finite text embedding")):
        bad = np.flatnonzero(~ok)
        if bad.size:
            return column, int(bad[0]), problem
    return None


def _assert_same_refusal(image, text):
    n = image.shape[0]
    ids = [f"r{i}" for i in range(n)]
    want = _norm_and_sum_refusal(image, text)
    build = lambda: Store(StoreManifest(image.shape[1], text.shape[1], n, 0), Columns(ids, image, text))
    if want is None:
        build()
        return
    with pytest.raises(InvalidStore) as exc:
        build()
    column, row, problem = want
    assert (exc.value.column, exc.value.row, exc.value.record_id) == (column, row, ids[row])
    assert str(exc.value) == f"refs: id '{ids[row]}' {problem}"


_SCREEN_VALUES = [0.0, -0.0, 1.5, -1.5, 3.4e38, -3.4e38, float(np.float32(1e-45)), float(np.float32(-1e-45)),
                  float(np.float32(1e-40)), np.nan, np.inf, -np.inf]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_store_screen_refuses_exactly_the_rows_the_norm_and_sum_checks_refused(data):
    n, image_dim, text_dim = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    image, text = (data.draw(hnp.arrays(np.float32, (n, dim), elements=st.sampled_from(_SCREEN_VALUES)))
                   for dim in (image_dim, text_dim))
    if data.draw(st.booleans()):  # rows whose sum is 0: [x, -x, 0, ...]
        row, x = data.draw(st.integers(0, n - 1)), data.draw(st.sampled_from([1.5, 3.4e38, 1e-45]))
        image[row] = 0.0
        image[row, 0], image[row, -1] = x, -x
    _assert_same_refusal(image, text)


@pytest.mark.parametrize("image,text", [
    ([[1.5, -1.5], [2.0, 1.0]], [[1.0], [1.0]]),  # values that cancel: a non-zero row whose sum is 0
    ([[1e-45, -1e-45], [1e-45, 1e-45], [0.0, 0.0]], [[1.0], [1.0], [1.0]]),  # subnormals only, then a zero row
    ([[3.4e38, 3.4e38], [1.0, 0.0]], [[3.4e38], [np.inf]]),  # finite rows whose sum overflows, then an infinity
    ([[0.0, 0.0], [np.nan, 1.0]], [[1.0], [1.0]]),  # a non-finite row is named before an earlier zero row
    ([[1.0, 0.0]], [[3.4e38, 3.4e38]]),  # a finite text row whose float32 sum overflows
], ids=["cancelling", "subnormal", "overflowing-sum", "nan-before-zero", "text-overflow"])
def test_store_screen_matches_the_norm_and_sum_checks_on_edge_rows(image, text):
    _assert_same_refusal(np.array(image, np.float32), np.array(text, np.float32))


def test_load_rejects_text_dim_other_than_manifest(tmp_path):
    refs = [make_ref("a", [1.0, 0.0], text=[1.0, 2.0, 3.0])]
    build_store(refs, [], image_dim=2, text_dim=3).save(tmp_path / "s")
    write_embedding_matrix([[1.0, 2.0, 3.0, 4.0]], tmp_path / "s" / "refs.txt.emb")
    with pytest.raises(FormatError, match="text embedding dim 4 does not match manifest 3"):
        Store.load(tmp_path / "s")


def _full_store(root):
    """A saved store with every column: text, coordinates, captions, queries and truth."""
    refs = [make_ref("r0", [1.0, 0.0], text=[1.0, 0.0, 0.0], caption="a road", coord=GeoCoord(1.0, 2.0)),
            make_ref("r1", [0.0, 1.0], text=[0.0, 1.0, 0.0], caption="a river", coord=GeoCoord(3.0, 4.0))]
    queries = [make_query("q0", [1.0, 0.5], ["r0"], text=[0.0, 0.0, 1.0], coord=GeoCoord(1.0, 2.0)),
               make_query("q1", [0.5, 1.0], ["r1"])]
    build_store(refs, queries, image_dim=2, text_dim=3).save(root)


def test_load_rejects_out_of_range_coordinate_column(tmp_path):
    _full_store(tmp_path / "s")
    geostore._write_rows(np.array([[1.0, 2.0], [95.0, 4.0]]), ["r0", "r1"], tmp_path / "s" / "refs.coords", "<f8")
    with pytest.raises(FormatError, match=re.escape("refs.coords.emb: id 'r1' has a coordinate outside")):
        Store.load(tmp_path / "s")


def test_load_refuses_legacy_coordinate_table(tmp_path):
    _full_store(tmp_path / "s")
    legacy = tmp_path / "s" / "refs.coords.jsonl"
    legacy.write_text('{"id":"r0","lat":1.0,"lon":2.0}\n{"id":"r1","lat":3.0,"lon":4.0}\n')
    with pytest.raises(FormatError, match=re.escape(str(legacy)) + ".*re-ingest or re-synth"):
        Store.load(tmp_path / "s")


def test_coordinate_column_is_float64_matrix_and_reads_back_bit_exact(tmp_path):
    lat, lon = 0.1 + 0.2, -(1.0 / 3.0)
    refs = [make_ref("r0", [1.0, 0.0], coord=GeoCoord(lat, lon)), make_ref("r1", [0.0, 1.0])]
    build_store(refs, [], image_dim=2).save(tmp_path / "s")
    assert (tmp_path / "s" / "refs.coords.ids").read_text() == "r0\n"
    assert read_embedding_matrix(tmp_path / "s" / "refs.coords.emb", "<f8").tolist() == [[lat, lon]]
    with pytest.raises(FormatError, match="format version 2, expected 1"):
        read_embedding_matrix(tmp_path / "s" / "refs.coords.emb")
    with pytest.raises(FormatError, match="format version 1, expected 2"):
        read_embedding_matrix(tmp_path / "s" / "refs.img.emb", "<f8")
    back = Store.load(tmp_path / "s")
    assert back.coord_of("r0") == GeoCoord(lat, lon) and back.coord_of("r1") is None


@pytest.mark.parametrize("stem,dtype", [("txt", "<f4"), ("coords", "<f8")])
def test_load_rejects_repeated_sidecar_id(tmp_path, stem, dtype):
    _full_store(tmp_path / "s")
    column = {"txt": "text", "coords": "coords"}[stem]
    for ids, problem in ((["r0", "r0"], "repeated id 'r0'"), (["r0"], f"1 ids for 2 {column} rows"),
                         (["r0", "r9"], f"unknown {column} id 'r9'")):
        geostore._write_rows(np.ones((2, 3 if stem == "txt" else 2)), ["r0", "r1"], tmp_path / "s" / f"refs.{stem}",
                             dtype)
        (tmp_path / "s" / f"refs.{stem}.ids").write_text("".join(i + "\n" for i in ids))
        with pytest.raises(FormatError, match=re.escape(f"refs.{stem}.ids: {problem}")):
            Store.load(tmp_path / "s")


def test_save_over_a_fuller_store_leaves_no_stale_column(tmp_path):
    _full_store(tmp_path / "s")
    (tmp_path / "s" / "refs.coords.jsonl").write_text("")  # a legacy table, from before the binary column
    geostore.save_groups({"r0": 0, "r1": 1}, tmp_path / "s" / geostore.GROUPS_FILE)
    bare = build_store([make_ref("r0", [1.0, 0.0]), make_ref("r1", [0.0, 1.0])], [], image_dim=2, text_dim=3)
    bare.save(tmp_path / "s")
    back = Store.load(tmp_path / "s")
    assert back.ref_text_emb("r0") is None and back.coord_of("r1") is None
    assert back.reference("r0").caption is None and back.query_ids == [] and back.ground_truth == {}
    bare.save(tmp_path / "bare")
    names = sorted(p.name for p in (tmp_path / "bare").iterdir())
    assert sorted(p.name for p in (tmp_path / "s").iterdir()) == names


@pytest.mark.parametrize("name", ["refs.img.ids", "refs.txt.ids", "manifest.txt"])
def test_non_utf8_store_file_is_format_error_naming_it(tmp_path, name):
    _full_store(tmp_path / "s")
    path = tmp_path / "s" / name
    path.write_bytes(path.read_bytes().replace(b"r1", b"r\xff").replace(b"query_count", b"query_c\xffount"))
    with pytest.raises(FormatError, match=re.escape(f"{path}, line") + ".*byte 0xff is not UTF-8"):
        Store.load(tmp_path / "s")


# ---------------------------------------------------------------------------
# synthetic generation
# ---------------------------------------------------------------------------

def test_synthetic_deterministic_digest(tmp_path):
    cfg = SynthConfig(n_locations=40, group_size=4, image_dim=8, text_dim=8)
    for name in ("a", "b"):
        store, groups = generate_synthetic(cfg, seed=7)
        store.save(tmp_path / name)
        geostore.save_groups(groups, tmp_path / name / geostore.GROUPS_FILE)
    assert store_digest(tmp_path / "a") == store_digest(tmp_path / "b")
    store_c, _ = generate_synthetic(cfg, seed=8)
    store_c.save(tmp_path / "c")
    assert store_digest(tmp_path / "a") != store_digest(tmp_path / "c")


def test_synthetic_config_validation():
    with pytest.raises(ValueError, match="group_size"):
        generate_synthetic(SynthConfig(n_locations=3, group_size=4), 0)
    with pytest.raises(ValueError, match="group_size must be >= 2"):
        generate_synthetic(SynthConfig(n_locations=8, group_size=1), 0)
    for value in (0.0, -0.5, 1.5, float("nan")):
        with pytest.raises(ValueError, match=re.escape("text_margin must be in (0, 1]")):
            generate_synthetic(SynthConfig(n_locations=8, group_size=2, text_margin=value), 0)
    with pytest.raises(ValueError, match="dims"):
        generate_synthetic(SynthConfig(n_locations=8, group_size=2, image_dim=0), 0)
    for name in ("image_noise", "group_spread"):
        for value in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=name):
                generate_synthetic(SynthConfig(n_locations=8, group_size=2, **{name: value}), 0)


def test_synthetic_coordinates_grouped():
    cfg = SynthConfig(n_locations=64, group_size=4, image_dim=8, text_dim=8)
    store, groups = generate_synthetic(cfg, seed=1)
    by_group = {}
    for rid in store.ref_ids:
        by_group.setdefault(groups[rid], []).append(rid)
    gids = sorted(by_group)
    for g in gids:
        members = by_group[g]
        for a in members:
            for b in members:
                assert haversine(store.coord_of(a), store.coord_of(b)) < 0.5
    for ga, gb in zip(gids, gids[1:]):
        d = haversine(store.coord_of(by_group[ga][0]), store.coord_of(by_group[gb][0]))
        assert d > 5.0


def test_synthetic_chance_level_when_noise_dominates():
    from georank.retriever import rank_store_queries

    cfg = SynthConfig(n_locations=1000, group_size=4, image_dim=64, text_dim=16,
                      image_noise=0.6, group_spread=0.02, text_margin=0.95)
    store, _ = generate_synthetic(cfg, seed=3)
    rankings = rank_store_queries(store, 1)
    r1 = sum(r.entries[0][0] in store.ground_truth[r.query_id] for r in rankings) / len(rankings)
    assert 0.19 <= r1 <= 0.32  # chance level 1/g = 0.25


def test_synthetic_text_nearest_centroid_accuracy():
    cfg = SynthConfig(n_locations=500, group_size=4, image_dim=16, text_dim=64, text_margin=0.95)
    store, _ = generate_synthetic(cfg, seed=5)
    ref_txt = np.stack([store.ref_text_emb(r) for r in store.ref_ids])
    ref_txt = ref_txt / np.linalg.norm(ref_txt, axis=1, keepdims=True)
    hits = 0
    for qid in store.query_ids:
        q = store.query(qid).text_emb
        scores = ref_txt @ (q / np.linalg.norm(q))
        hits += store.ref_ids[int(np.argmax(scores))] in store.ground_truth[qid]
    assert hits / len(store.query_ids) >= 0.99


def test_semipositive_map_covers_group_mates():
    cfg = SynthConfig(n_locations=12, group_size=3, image_dim=8, text_dim=8)
    store, groups = generate_synthetic(cfg, seed=2)
    semi = semipositive_map(groups, store)
    for qid, drop in semi.items():
        (pos,) = store.ground_truth[qid]
        assert pos not in drop
        assert len(drop) == 2  # group of 3 minus the positive
        for rid in drop:
            assert groups[rid] == groups[qid]


def test_groups_roundtrip(tmp_path):
    cfg = SynthConfig(n_locations=8, group_size=2, image_dim=4, text_dim=4)
    store, groups = generate_synthetic(cfg, seed=0)
    geostore.save_groups(groups, tmp_path / "g.jsonl")
    assert geostore.load_groups(tmp_path / "g.jsonl", store) == groups


@pytest.mark.parametrize("record,problem", [({"id": "r1"}, "missing field 'group'"),
                                            ({"id": 5, "group": 1}, "'id' is not a string")] + [
    ({"id": "r1", "group": group}, f"id 'r1' has group {json.dumps(group)}, not an integer")
    for group in ("x", True, "7", 2.9, 2.0, None, [1])])
def test_load_groups_bad_record_names_file_and_line(tmp_path, record, problem):
    path = tmp_path / "groups.jsonl"
    path.write_text(json.dumps({"id": "r0", "group": 0}) + "\n" + json.dumps(record) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}, line 2: ") + ".*" + re.escape(problem)):
        geostore.load_groups(path, store_of(["r0", "r1"]))


def test_load_groups_refuses_repeated_id_naming_file_line_and_id(tmp_path):
    path = tmp_path / "groups.jsonl"
    path.write_text(json.dumps({"id": "r0", "group": 0}) + "\n" + json.dumps({"id": "r0", "group": 1}) + "\n")
    with pytest.raises(IngestError, match=re.escape(f"{path}, line 2, id 'r0': duplicate group record")):
        geostore.load_groups(path, store_of(["r0"]))


# ids as a store accepts them, with non-ASCII ones drawn on purpose as well as by chance
_IDS = st.sampled_from(["ré", "東京-3", "🙂", "q\u00a0x"]) | st.text(min_size=1, max_size=8).filter(geostore.valid_id)


@st.composite
def _samples(draw):
    candidates = draw(st.lists(_IDS, min_size=2, max_size=5, unique=True))
    return TrainingSample(draw(_IDS), tuple(candidates), draw(st.integers(0, len(candidates) - 1)))


def _each_once(rankings):
    """Each query's first ranking, holding each candidate's first entry."""
    out = {}
    for r in rankings:
        entries = {}
        for rid, s in r.entries:
            entries.setdefault(rid, s)
        out.setdefault(r.query_id, Ranking(r.query_id, list(entries.items()), reranked=r.reranked))
    return list(out.values())


@settings(max_examples=60, deadline=None)
@given(rankings=st.lists(st.builds(
           lambda qid, entries, reranked: Ranking(qid, entries, reranked=reranked),
           _IDS, st.lists(st.tuples(_IDS, st.floats(allow_nan=False, allow_infinity=False)), max_size=4),
           st.booleans()), max_size=4),
       samples=st.lists(_samples(), max_size=4),
       groups=st.dictionaries(_IDS, st.integers(), max_size=6),
       poison=st.sampled_from([float("nan"), float("inf"), float("-inf")]))
def test_jsonl_tables_round_trip_through_one_writer_and_reader(rankings, samples, groups, poison):
    once = _each_once(rankings)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save_rankings(once, tmp / "rankings.jsonl")
        save_samples(samples, tmp / "samples.jsonl")
        geostore.save_groups(groups, tmp / "groups.jsonl")
        assert load_rankings(tmp / "rankings.jsonl") == once
        # samples and groups are read against a store holding exactly the ids they name
        candidates = list(dict.fromkeys(c for s in samples for c in s.candidate_ids))
        sample_store = store_of(candidates, {s.query_id: candidates[:1] for s in samples})
        assert load_samples(tmp / "samples.jsonl", sample_store) == samples
        assert geostore.load_groups(tmp / "groups.jsonl", store_of(list(groups))) == groups

        # a score JSON cannot hold, and a query or a candidate listed twice, which the reader
        # would refuse, are refused, and the file there stays as it was
        before = (tmp / "rankings.jsonl").read_bytes()
        new = "q" * 9  # longer than any id drawn
        for bad, problem in (([Ranking(new, [("r", poison)])], "JSON"),
                             ([Ranking(new, [("r", 0.0), ("r", 1.0)])], f"query '{new}': candidate 'r' is listed twice"),
                             ([Ranking(new, [])] * 2, f"query '{new}' is listed twice")):
            with pytest.raises(ValueError, match=problem):
                save_rankings(once + bad, tmp / "rankings.jsonl")
        if once != rankings:
            with pytest.raises(ValueError, match="is listed twice"):
                save_rankings(rankings, tmp / "rankings.jsonl")
        assert (tmp / "rankings.jsonl").read_bytes() == before
        assert sorted(p.name for p in tmp.iterdir()) == ["groups.jsonl", "rankings.jsonl", "samples.jsonl"]


def test_ingest_full_dual_side_store(tmp_path):
    rng = np.random.default_rng(17)
    refs = [{"id": f"r{i}", "embedding": [float(x) for x in rng.standard_normal(4)]} for i in range(5)]
    ref_txt = [{"id": f"r{i}", "embedding": [float(x) for x in rng.standard_normal(3)]} for i in range(5)]
    qs = [{"id": f"q{i}", "embedding": [float(x) for x in rng.standard_normal(4)]} for i in range(2)]
    q_txt = [{"id": f"q{i}", "embedding": [float(x) for x in rng.standard_normal(3)]} for i in range(2)]
    truth = [{"id": f"q{i}", "refs": [f"r{i}", f"r{i+1}"]} for i in range(2)]
    paths = {}
    for name, rows in (("refs", refs), ("ref_txt", ref_txt), ("qs", qs), ("q_txt", q_txt), ("truth", truth)):
        paths[name] = tmp_path / f"{name}.jsonl"
        _write_jsonl(paths[name], rows)
    store = ingest(
        tmp_path / "store",
        StoreManifest(4, 3, 5, 2),
        paths["refs"],
        ref_text_embeddings=paths["ref_txt"],
        query_embeddings=paths["qs"],
        query_text_embeddings=paths["q_txt"],
        query_truth=paths["truth"],
    )
    back = Store.load(tmp_path / "store")
    assert back.ground_truth["q1"] == ("r1", "r2")
    for i in range(5):
        assert back.ref_text_emb(f"r{i}") is not None
    for i in range(2):
        assert back.query_text_emb(f"q{i}") is not None
    assert store_digest(tmp_path / "store") == store_digest(tmp_path / "store")


@pytest.mark.parametrize("kind", ["emb", "gvck", "ids", "jsonl", "manifest"])
def test_failed_write_keeps_previous_file_and_leaves_no_temp(tmp_path, monkeypatch, kind):
    from georank.reranker import RerankerConfig, init_params, save_params

    if kind == "emb":
        path = tmp_path / "m.emb"
        write = lambda seed: write_embedding_matrix(np.full((3, 2), seed + 1, np.float32), path)
    elif kind == "ids":
        path = tmp_path / "m.ids"
        write = lambda seed: geostore.write_lines([f"r{seed}", "r2", "r3"], path)
    elif kind == "jsonl":
        path = tmp_path / "m.jsonl"
        write = lambda seed: geostore.write_jsonl(({"id": f"r{i}", "seed": seed} for i in range(3)), path)
    elif kind == "manifest":
        path = tmp_path / geostore.MANIFEST_FILE
        write = lambda seed: StoreManifest(seed + 1, 2, 3, 0).write(path)
    else:
        path = tmp_path / "m.gvck"
        cfg = lambda seed: RerankerConfig(image_dim=2, text_dim=2, latent_dim=2, aligner_hidden=2, init_seed=seed)
        write = lambda seed: save_params(path, init_params(cfg(seed)))
    write(0)
    before = path.read_bytes()
    fill_disk_after_first_write(monkeypatch)
    with pytest.raises(OSError, match="No space"):
        write(1)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    write(1)
    assert path.read_bytes() != before


def test_write_matrix_rejects_non_2d(tmp_path):
    with pytest.raises(ValueError, match="2-D"):
        write_embedding_matrix(np.ones(5, np.float32), tmp_path / "m.emb")


def test_ingest_text_dim_mismatch_names_id(tmp_path):
    emb = _ref_file(tmp_path, [{"id": "r0", "embedding": [1.0, 0.0]}])
    txt = tmp_path / "txt.jsonl"
    _write_jsonl(txt, [{"id": "r0", "embedding": [1.0, 2.0, 3.0, 4.0]}])
    with pytest.raises(IngestError, match="r0"):
        ingest(tmp_path / "store", StoreManifest(2, 3, 1, 0), emb, ref_text_embeddings=txt)


# ---------------------------------------------------------------------------
# one validator on every construction path
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("table,record,rid", [
    ("refs.captions.jsonl", {"id": "r1"}, "r1"),
    ("queries.truth.jsonl", {"id": "q1"}, "q1"),
    ("queries.truth.jsonl", {"id": "q1", "refs": ["nowhere"]}, "q1"),
    ("queries.truth.jsonl", {"id": "q9", "refs": ["r1"]}, "q9"),
    ("queries.truth.jsonl", {"id": "q1", "refs": []}, "q1"),
])
def test_load_rejects_malformed_side_table_naming_file_line_and_id(tmp_path, table, record, rid):
    _full_store(tmp_path / "s")
    path = tmp_path / "s" / table
    first = path.read_text().splitlines()[0]
    path.write_text(first + "\n" + json.dumps(record) + "\n")
    with pytest.raises(FormatError, match=re.escape(f"{path}, line 2")) as exc:
        Store.load(tmp_path / "s")
    assert f"id '{rid}'" in str(exc.value)


CORRUPTIONS = ["zero row", "nan image", "inf image", "nan text", "inf text", "image width", "text width",
               "duplicate id", "invalid id", "unknown truth", "latitude"]
# legal cells that must still construct and rank
LEGAL = [None, "tiny row", "huge row"]


@st.composite
def corrupted_store(draw):
    """Valid columns for both sides of a store, with at most one cell corrupted.
    Returns (manifest, refs, queries, truth, kind, named): ``named`` is the id
    the store's error must name (None for a width error, which has no row)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    image_dim, text_dim = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    sides = {}
    for name, prefix, n in (("refs", "r", draw(st.integers(2, 6))), ("queries", "q", draw(st.integers(2, 4)))):
        sides[name] = dict(
            ids=[f"{prefix}{i}" for i in range(n)],
            image=rng.standard_normal((n, image_dim)).astype(np.float32),
            text=rng.standard_normal((n, text_dim)).astype(np.float32),
            has_text=rng.random(n) < 0.7,
            coords=np.column_stack([rng.uniform(-90, 90, n), rng.uniform(-180, 180, n)]),
            has_coord=rng.random(n) < 0.7,
        )
        sides[name]["text"][~sides[name]["has_text"]] = 0.0
    truth = {q: tuple(rng.choice(sides["refs"]["ids"], size=int(rng.integers(1, 3)), replace=False))
             for q in sides["queries"]["ids"]}
    kind = draw(st.sampled_from(CORRUPTIONS + LEGAL))
    side = sides["queries"] if kind == "unknown truth" else sides[draw(st.sampled_from(["refs", "queries"]))]
    row = draw(st.integers(0, len(side["ids"]) - 1))
    named = side["ids"][row]
    if kind == "zero row":
        side["image"][row] = 0.0
    elif kind in ("nan image", "inf image", "nan text", "inf text"):
        column = side[kind.split()[1]]
        column[row, draw(st.integers(0, column.shape[1] - 1))] = np.nan if kind.startswith("nan") else np.inf
    elif kind in ("image width", "text width"):
        column = kind.split()[0]
        side[column] = np.hstack([side[column], side[column][:, :1]]) if draw(st.booleans()) else side[column][:, :-1]
        named = None
    elif kind == "duplicate id":
        other = (row + 1) % len(side["ids"])
        side["ids"][row] = named = side["ids"][other]
    elif kind == "invalid id":
        side["ids"][row] = named = draw(st.sampled_from(["", "a\nb", "a\rb", "a\u2028b", "a\ud800b"]))
    elif kind == "unknown truth":
        truth[named] += ("nowhere",)
    elif kind == "latitude":
        side["coords"][row, 0] = draw(st.sampled_from([90.5, -91.0, np.nan, np.inf]))
        side["has_coord"][row] = True
    elif kind in ("tiny row", "huge row"):
        side["image"][row] *= np.float32(2.0**-100 if kind == "tiny row" else 2.0**100)
    manifest = StoreManifest(image_dim, text_dim, len(sides["refs"]["ids"]), len(sides["queries"]["ids"]))
    return manifest, Columns(**sides["refs"]), Columns(**sides["queries"]), truth, kind, named


@settings(max_examples=300, deadline=None)
@given(corrupted_store(), st.integers(1, 8))
def test_in_memory_store_rejects_any_corrupted_cell_or_ranks_finite(case, k):
    manifest, refs, queries, truth, kind, named = case
    if kind in CORRUPTIONS:
        with pytest.raises(ValueError) as exc:
            Store(manifest, refs, queries, truth)
        assert (f"id '{named}'" if named is not None else "embedding dim") in str(exc.value)
        return
    store = Store(manifest, refs, queries, truth)
    for ranking in rank_store_queries(store, k):
        assert all(np.isfinite(score) for _, score in ranking.entries)


@st.composite
def partial_side(draw, prefix, n, image_dim, text_dim):
    """Columns of one side in which each row may lack text, a coordinate or a caption."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    has_text = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), bool)
    text = rng.standard_normal((n, text_dim)).astype(np.float32)
    text[~has_text] = 0.0
    coord = st.tuples(st.floats(-90, 90), st.floats(-180, 180))
    coords = draw(st.lists(st.one_of(st.none(), coord), min_size=n, max_size=n))
    caption = st.one_of(st.none(), st.text(st.characters(blacklist_categories=("Cs",)), max_size=5))
    return Columns([f"{prefix}{i}" for i in range(n)], rng.standard_normal((n, image_dim)).astype(np.float32) + 3.0,
                   text, has_text, np.array([c or (0.0, 0.0) for c in coords], float).reshape(n, 2),
                   np.array([c is not None for c in coords], bool),
                   draw(st.lists(caption, min_size=n, max_size=n)))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_save_load_round_trips_partial_columns(data):
    image_dim, text_dim = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    n_refs, n_queries = data.draw(st.integers(1, 5)), data.draw(st.integers(0, 3))
    refs = data.draw(partial_side("r", n_refs, image_dim, text_dim))
    queries = data.draw(partial_side("q", n_queries, image_dim, text_dim))
    truth = {q: (f"r{data.draw(st.integers(0, n_refs - 1))}",) for q in queries.ids}
    store = Store(StoreManifest(image_dim, text_dim, n_refs, n_queries), refs, queries, truth)
    with tempfile.TemporaryDirectory() as d:
        store.save(d)
        back = Store.load(d)
    assert back.ground_truth == store.ground_truth
    for got, want in ((back.refs, store.refs), (back.queries, store.queries)):
        assert got.ids == want.ids and got.captions == want.captions
        for column in ("image", "text", "has_text", "coords", "has_coord"):
            assert np.array_equal(getattr(got, column), getattr(want, column)), column
        assert getattr(got, "coords").tobytes() == want.coords.tobytes()


def _ingest_inputs(store: Store, root: Path, shuffle) -> dict:
    """``store`` as ingest's JSONL inputs under ``root``: image embeddings in
    row order, and each keyed table in the order ``shuffle`` gives its lines."""
    files = {}
    for prefix, cols in (("ref", store.refs), ("query", store.queries)):
        rows = range(len(cols.ids))
        tables = {
            "embeddings": [{"id": cols.ids[r], "embedding": cols.image[r].tolist()} for r in rows],
            "text_embeddings": shuffle([{"id": cols.ids[r], "embedding": cols.text[r].tolist()}
                                        for r in rows if cols.has_text[r]]),
            "captions": shuffle([{"id": cols.ids[r], "caption": cols.captions[r]}
                                 for r in rows if cols.captions[r] is not None]),
            "coords": shuffle([{"id": cols.ids[r], "lat": cols.coords[r, 0], "lon": cols.coords[r, 1]}
                               for r in rows if cols.has_coord[r]]),
        }
        for name, records in tables.items():
            files[f"{prefix}_{name}"] = _ref_file(root, records, name=f"{prefix}.{name}.jsonl")
    truth = [{"id": q, "refs": list(refs)} for q, refs in store.ground_truth.items()]
    files["query_truth"] = _ref_file(root, shuffle(truth), name="truth.jsonl")
    return files


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_ingest_of_an_exported_store_gives_back_its_columns_and_files(data):
    image_dim, text_dim = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    n_refs, n_queries = data.draw(st.integers(1, 5)), data.draw(st.integers(0, 3))
    refs = data.draw(partial_side("r", n_refs, image_dim, text_dim))
    queries = data.draw(partial_side("q", n_queries, image_dim, text_dim))
    truth = {q: (f"r{data.draw(st.integers(0, n_refs - 1))}",) for q in queries.ids}
    manifest = StoreManifest(image_dim, text_dim, n_refs, n_queries)
    store = Store(manifest, refs, queries, truth)
    with tempfile.TemporaryDirectory() as d:
        d = Path(d)
        files = _ingest_inputs(store, d, lambda records: data.draw(st.permutations(records)))
        back = ingest(d / "ingested", manifest, files.pop("ref_embeddings"), **files)
        store.save(d / "saved")
        assert store_digest(d / "ingested") == store_digest(d / "saved")
    assert back.ground_truth == store.ground_truth
    for got, want in ((back.refs, store.refs), (back.queries, store.queries)):
        assert got.ids == want.ids and got.captions == want.captions
        for column in ("image", "text", "has_text", "coords", "has_coord"):
            assert getattr(got, column).tobytes() == getattr(want, column).tobytes(), column


@pytest.mark.parametrize("fault", ["missing", "repeated", "unknown", "uncoerced-value"])
@pytest.mark.parametrize("table", ["ref_text_embeddings", "ref_captions", "ref_coords", "query_text_embeddings",
                                   "query_captions", "query_coords", "query_truth"])
def test_keyed_table_refuses_missing_repeated_or_unknown_id(tmp_path, table, fault):
    """So does a table whose value is not of its JSON type ("uncoerced-value"): a number for a
    caption, a string for a coordinate or the ground truth, a string and a boolean in an embedding."""
    refs = [make_ref(f"r{i}", [1.0, i], text=[i, 1.0], caption=f"c{i}", coord=GeoCoord(i, 0.0)) for i in range(2)]
    queries = [make_query(f"q{i}", [i, 1.0], ["r0"], text=[1.0, i], coord=GeoCoord(0.0, i)) for i in range(2)]
    for q in queries:
        q.caption = f"caption of {q.id}"
    store = build_store(refs, queries, image_dim=2, text_dim=2)
    files = _ingest_inputs(store, tmp_path, list)
    records = [json.loads(line) for line in files[table].read_text().splitlines()]
    second = records[1]
    rid = {"missing": None, "repeated": records[0]["id"], "unknown": "nowhere", "uncoerced-value": second["id"]}[fault]
    if fault == "uncoerced-value":
        field = next(key for key in second if key != "id")
        second[field] = {"embedding": ["1.5", True], "caption": 5, "lat": "12.5", "refs": "r0"}[field]
    elif rid is None:
        del second["id"]
    else:
        second["id"] = rid
    _write_jsonl(files[table], records)
    with pytest.raises(IngestError, match=re.escape(f"{files[table]}, line 2")) as exc:
        ingest(tmp_path / "store", store.manifest, files.pop("ref_embeddings"), **files)
    assert exc.value.record_id == rid and (rid is None or f"id '{rid}'" in str(exc.value))


@pytest.mark.parametrize("key", ["image_dim", "query_count"])
def test_manifest_missing_key_names_file(tmp_path, key):
    path = tmp_path / "manifest.txt"
    StoreManifest(2, 3, 1, 0).write(path)
    path.write_text("".join(line + "\n" for line in path.read_text().splitlines() if not line.startswith(key + "=")))
    with pytest.raises(IngestError, match=re.escape(f"{path}: manifest missing key '{key}'")):
        StoreManifest.read(path)


@pytest.mark.parametrize("line,problem", [
    ("image_dim=-2", "bad value for 'image_dim': -2 is outside [1, inf]"),
    ("text_dim=0", "bad value for 'text_dim': 0 is outside [1, inf]"),
    ("reference_count=-1", "bad value for 'reference_count': -1 is outside [0, inf]"),
    ("query_count=-3", "bad value for 'query_count': -3 is outside [0, inf]"),
    ("format_version=7", "bad value for 'format_version': 7 is outside [1, 1]"),
])
def test_manifest_value_out_of_range_names_file_and_line(tmp_path, line, problem):
    path = tmp_path / "manifest.txt"
    StoreManifest(2, 3, 1, 0).write(path)
    key = line.split("=")[0]
    lines = path.read_text().splitlines()
    at = next(i for i, old in enumerate(lines) if old.startswith(key + "="))
    lines[at] = line
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(IngestError, match=re.escape(f"{path}, line {at + 1}: {problem}")):
        StoreManifest.read(path)
    # a store is not built on such a manifest either, so none is written that could not be read back
    manifest = dataclasses.replace(StoreManifest(2, 3, 1, 0), **{key: int(line.split("=")[1])})
    with pytest.raises(InvalidStore, match=re.escape(f"{key} {line.split('=')[1]} is outside")):
        Store(manifest, Columns(["r0"], np.ones((1, 2))), Columns([], np.empty((0, 2))))


def test_synthetic_and_ingest_run_the_store_check(tmp_path, monkeypatch):
    calls = []
    real = Store.validate
    monkeypatch.setattr(Store, "validate", lambda self: calls.append(1) or real(self))
    generate_synthetic(SynthConfig(n_locations=8, group_size=2, image_dim=4, text_dim=4), seed=0)
    ingest(tmp_path / "s", StoreManifest(2, 2, 1, 0), _ref_file(tmp_path, [{"id": "r0", "embedding": [1.0, 0.0]}]))
    Store.load(tmp_path / "s")
    assert len(calls) == 3


@pytest.mark.parametrize("side, ids, problem", [
    ("both", ["r0"], "side must be refs or queries, got 'both'"),
    ("refs", [], "no text embeddings to attach"),
    ("queries", ["r0"], "text embeddings: unknown text id 'r0' among store queries"),
])
def test_attach_text_refuses_a_bad_side_no_ids_or_an_unknown_id_before_writing(tmp_path, side, ids, problem):
    store, _ = generate_synthetic(SynthConfig(n_locations=8, group_size=2, image_dim=4, text_dim=3), seed=0)
    store.save(tmp_path / "s")
    before = store_digest(tmp_path / "s")
    with pytest.raises(ValueError, match=re.escape(problem)):
        geostore.attach_text(tmp_path / "s", side, ids, np.ones((len(ids), 3)))
    assert store_digest(tmp_path / "s") == before


def test_attach_text_refuses_nonfinite_vector_before_writing(tmp_path):
    store, _ = generate_synthetic(SynthConfig(n_locations=8, group_size=2, image_dim=4, text_dim=3), seed=0)
    store.save(tmp_path / "s")
    before = store_digest(tmp_path / "s")
    with pytest.raises(ValueError, match="id 'r1' has a non-finite text embedding"):
        geostore.attach_text(tmp_path / "s", "refs", ["r0", "r1"], [[1.0, 0.0, 0.0], [0.0, np.nan, 0.0]])
    assert store_digest(tmp_path / "s") == before
    assert geostore.attach_text(tmp_path / "s", "refs", ["r1", "r0"], [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]) == 2
    back = Store.load(tmp_path / "s")
    assert back.ref_text_emb("r0").tolist() == [1.0, 0.0, 0.0] and back.ref_text_emb("r2") is None
