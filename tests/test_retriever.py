import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from georank import kernels, retriever
from georank.geostore import Columns, IngestError, Store, StoreManifest
from georank.retriever import (
    Ranking,
    brute_force_rank,
    load_rankings,
    rank_store_queries,
    save_rankings,
    top_k,
)

from conftest import build_store, fill_disk_after_first_write, make_query, make_ref, random_store


# ---------------------------------------------------------------------------
# top_k
# ---------------------------------------------------------------------------

def test_top_k_hand_ordering(simple_store):
    ranking = top_k(np.array([1.0, 0.0], np.float32), simple_store, 3, query_id="q1")
    assert ranking.ids() == ["e1", "e3", "e2"]
    scores = [s for _, s in ranking.entries]
    assert scores == pytest.approx([1.0, 0.6, 0.0], abs=1e-7)
    ranking.validate()


def test_top_k_truncation_bound(simple_store):
    ranking = top_k(np.array([1.0, 0.0], np.float32), simple_store, 99)
    assert len(ranking.entries) == 3


def test_top_k_tie_break_by_id():
    refs = [make_ref("zz", [1.0, 0.0]), make_ref("aa", [1.0, 0.0]), make_ref("mm", [0.0, 1.0])]
    store = build_store(refs, [], image_dim=2)
    ranking = top_k(np.array([1.0, 0.0]), store, 3)
    assert ranking.ids() == ["aa", "zz", "mm"]


def test_top_k_validations(simple_store):
    with pytest.raises(ValueError, match="k must be"):
        top_k(np.array([1.0, 0.0]), simple_store, 0)
    with pytest.raises(ValueError, match="k must be >= 1, got 0"):
        rank_store_queries(simple_store, 0)
    with pytest.raises(ValueError, match="dim"):
        top_k(np.ones(5), simple_store, 1)
    with pytest.raises(ValueError, match="zero-norm"):
        top_k(np.zeros(2), simple_store, 1)
    empty = build_store([], [], image_dim=2)
    with pytest.raises(ValueError, match="no references"):
        top_k(np.ones(2), empty, 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_phase1_refuses_a_non_finite_query(simple_store, bad, dtype):
    q = np.array([1.0, bad], dtype)
    with pytest.raises(ValueError, match="query has a NaN or infinite component"):
        top_k(q, simple_store, 2)
    with pytest.raises(ValueError, match="query has a NaN or infinite component"):
        brute_force_rank(q, simple_store)


def test_self_similarity_ranks_first():
    rng = np.random.default_rng(4)
    store = random_store(rng, 50, 0, image_dim=8)
    target = store.reference("r00017").image_emb
    ranking = top_k(target, store, 1)
    assert ranking.ids() == ["r00017"]
    assert ranking.entries[0][1] == pytest.approx(1.0, abs=1e-12)


def test_top_k_matches_brute_force_prefix():
    rng = np.random.default_rng(8)
    store = random_store(rng, 1000, 0, image_dim=16)
    full_ids = None
    for _ in range(25):
        q = rng.standard_normal(16)
        oracle = brute_force_rank(q, store)
        oracle.validate()
        for k in (1, 5, 10):
            assert top_k(q, store, k).ids() == oracle.ids()[:k]
        full_ids = top_k(q, store, 1000).ids()
        assert full_ids == oracle.ids()


def test_brute_force_handles_engineered_ties():
    # duplicates and power-of-two scalings give bit-equal cosine scores
    base = np.array([0.3, -1.2, 0.5], np.float32)
    refs = [
        make_ref("dup_b", base.copy()),
        make_ref("dup_a", base.copy()),
        make_ref("scaled", 2.0 * base),
        make_ref("other", [1.0, 0.0, 0.0]),
    ]
    store = build_store(refs, [], image_dim=3)
    q = np.asarray(base, np.float64)
    oracle = brute_force_rank(q, store)
    assert oracle.ids()[:3] == ["dup_a", "dup_b", "scaled"]
    assert top_k(q, store, 4).ids() == oracle.ids()


def test_rank_store_queries_in_order(simple_store):
    rankings = rank_store_queries(simple_store, 2)
    assert [r.query_id for r in rankings] == ["q1"]
    assert rankings[0].ids() == ["e1", "e3"]


def test_top_k_unswept_rows_rank_like_oracle():
    # zero, tiny and huge rows are outside the float32 sweep's range and are always re-scored exactly
    rng = np.random.default_rng(12)
    rows = list(rng.standard_normal((30, 5)))
    rows += [np.ones(5), 2.0**-100 * rows[0], 2.0**100 * rows[1], 2.0**100 * rows[1]]
    store = build_store([make_ref(f"r{i:02d}", v) for i, v in enumerate(rows)], [], image_dim=5)
    # a store rejects a zero row, so write one into a built store and index it again
    store.ref_image[30] = 0.0
    store.cosine_index = kernels.build_cosine_index(store.ref_image)
    assert store.cosine_index.unswept.tolist() == [30, 31, 32, 33]
    for q in (rows[0], rows[1], rng.standard_normal(5)):
        oracle = brute_force_rank(q, store).ids()
        for k in (1, 2, 3, 10, 34, 40):
            assert top_k(q, store, k).ids() == oracle[:k]
    assert brute_force_rank(rows[1], store).ids()[:3] == ["r01", "r32", "r33"]  # power-of-two scalings tie
    assert brute_force_rank(rows[1], store).ids()[-1] == "r30"  # zero row: NaN score, ranked last


def test_top_k_extreme_queries_rank_like_oracle():
    # float64 queries whose squared norm would over- or underflow are scaled by a power of two first
    rng = np.random.default_rng(15)
    v = np.random.default_rng(2572).standard_normal(4)
    rows = [v + 1.5e-3 * rng.standard_normal(4) for _ in range(60)] + list(rng.standard_normal((10, 4)))
    store = build_store([make_ref(f"r{i:02d}", r) for i, r in enumerate(rows)], [], image_dim=4)
    # a power-of-two scaling of v, however far its squared norm leaves float64's range, ranks as v does
    for e in (-1000, -600, -520, -40, 3, 60, 520, 1000):
        assert brute_force_rank(2.0**e * v, store).entries == brute_force_rank(v, store).entries
    for c in (1e-200, 1e200):  # rounded when scaled, so equal to v's scores to within rounding
        np.testing.assert_allclose([s for _, s in brute_force_rank(c * v, store).entries],
                                   [s for _, s in brute_force_rank(v, store).entries], rtol=0, atol=1e-12)
    for q in (1e-159 * v, 1e200 * v, 2.0**-600 * v, np.array([1e300, 1.0, 0.0, 0.0])):
        oracle = brute_force_rank(q, store).ids()
        for k in (1, 5, 10, 70):
            assert top_k(q, store, k).ids() == oracle[:k]


def test_top_k_scores_equal_oracle_scores():
    rng = np.random.default_rng(13)
    store = random_store(rng, 500, 0, image_dim=24)
    for _ in range(10):
        q = rng.standard_normal(24)
        assert top_k(q, store, 7).entries == brute_force_rank(q, store).entries[:7]


# ---------------------------------------------------------------------------
# properties of the float32 sweep + exact re-score
# ---------------------------------------------------------------------------

def _nudged(row: np.ndarray, component: int, ulps: int) -> np.ndarray:
    """``row`` (float32) with one component moved by ``ulps`` float32 steps."""
    out = row.copy()
    direction = np.float32(np.inf if ulps > 0 else -np.inf)
    for _ in range(abs(ulps)):
        out[component] = np.nextafter(out[component], direction)
    return out


def _at_swept_end(row: np.ndarray, top: bool, inside: bool) -> np.ndarray:
    """``row`` scaled by a power of two so that its float32 sum of squares lies
    just inside or just outside the bottom (2**-64) or the top (FLT_MAX) of the
    float32 sweep's range."""
    squares = float(np.einsum("i,i->", row, row))
    if top:
        e = math.floor((128 - math.log2(squares)) / 2) - (0 if inside else -1)
    else:
        e = math.ceil((-64 - math.log2(squares)) / 2) - (0 if inside else 1)
    return np.ldexp(row, e).astype(np.float32)


@st.composite
def sweep_cases(draw):
    """A store with exact duplicates, 2x-scaled rows, a cluster of rows a few
    float32 ulps away from an anchor row, and copies of the anchor scaled to
    either end of the sweep's range, just inside or outside it; and a query at
    or near the anchor (so the k-th place falls among near-ties) or anywhere,
    which the store also holds as its one query."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 40))
    rows = list(rng.standard_normal((draw(st.integers(1, 40)), dim)).astype(np.float32))
    anchor = rows[0]
    for _ in range(draw(st.integers(0, 12))):
        rows.append(_nudged(anchor, int(rng.integers(dim)), int(rng.integers(-3, 4))))
    for _ in range(draw(st.integers(0, 6))):
        rows.append(rows[int(rng.integers(len(rows)))].copy())
    for _ in range(draw(st.integers(0, 6))):
        rows.append(np.float32(2.0) * rows[int(rng.integers(len(rows)))])
    for _ in range(draw(st.integers(0, 4))):
        rows.append(_at_swept_end(_nudged(anchor, int(rng.integers(dim)), int(rng.integers(-3, 4))),
                                  top=draw(st.booleans()), inside=draw(st.booleans())))
    order = rng.permutation(len(rows))
    ids = [f"r{i:03d}" for i in rng.permutation(len(rows))]
    refs = [make_ref(ids[i], rows[j]) for i, j in enumerate(order)]
    kind = draw(st.sampled_from(["anchor", "near-anchor", "random"]))
    if kind == "anchor":
        q = anchor.astype(np.float64)
    elif kind == "near-anchor":
        q = anchor + 1e-7 * rng.standard_normal(dim)
    else:
        q = rng.standard_normal(dim)
    if draw(st.booleans()):
        q = q.astype(np.float32)
    k = draw(st.integers(1, len(rows) + 3))
    return build_store(refs, [make_query("q0", q, [ids[0]])], image_dim=dim), q, k


@settings(max_examples=300, deadline=None)
@given(sweep_cases())
def test_top_k_equals_brute_force_prefix_property(case):
    store, q, k = case
    oracle = brute_force_rank(q, store)
    ranking = top_k(q, store, k)
    assert ranking.ids() == oracle.ids()[:k]
    assert ranking.entries == oracle.entries[:k]
    ranking.validate()
    # the store's copy of q is float32
    assert rank_store_queries(store, k)[0].entries == top_k(store.query_image[0], store, k).entries


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 30), st.integers(1, 12), st.integers(1, 5))
def test_rank_store_queries_equals_top_k_property(seed, n_refs, n_queries, k, block):
    rng = np.random.default_rng(seed)
    store = random_store(rng, n_refs, n_queries, image_dim=6)
    # a query duplicating a reference puts exact ties at the top
    store.query_image[0] = store.ref_image[0]
    with pytest.MonkeyPatch.context() as mp:
        # several query blocks: ``block`` queries per tile
        mp.setattr(retriever, "SCORE_TILE_BYTES", block * retriever._TILE_BYTES_PER_SCORE * n_refs)
        rankings = rank_store_queries(store, k)
    assert [r.query_id for r in rankings] == store.query_ids
    for qid, q, ranking in zip(store.query_ids, store.query_image, rankings):
        single = top_k(q, store, k, query_id=qid)
        assert ranking.ids() == single.ids()
        assert ranking.entries == single.entries


def test_rank_store_queries_allocates_one_float32_tile_and_no_more():
    rng = np.random.default_rng(21)
    n, b, d = 20_000, 64, 8
    refs = Columns([f"r{i:05d}" for i in range(n)], rng.standard_normal((n, d)).astype(np.float32))
    queries = Columns([f"q{i:02d}" for i in range(b)], rng.standard_normal((b, d)).astype(np.float32))
    store = Store(StoreManifest(d, 4, n, b), refs, queries, {q: ("r00000",) for q in queries.ids})
    rank_store_queries(store, 10)  # builds the store's index
    tracemalloc.start()
    try:
        rank_store_queries(store, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a float64 tile would add 8·b·n bytes
    assert peak <= 4 * b * n + 64 * (n + b * d)


def test_duplicate_rows_tie_by_python_str_id_in_every_phase_1_path():
    # "a\x00" sorts after "a" as a Python str; a numpy "<U" array would see both as "a"
    rng = np.random.default_rng(22)
    dup = rng.standard_normal(6)
    refs = [make_ref("a\x00", dup), make_ref("b", rng.standard_normal(6)), make_ref("a", dup),
            make_ref("ab", rng.standard_normal(6))]
    store = build_store(refs, [make_query("q", dup, ["a"])], image_dim=6)
    for k in (1, 2, 4):
        assert top_k(dup, store, k).ids()[:2] == ["a", "a\x00"][:k]
        assert rank_store_queries(store, k)[0].ids()[:2] == ["a", "a\x00"][:k]
    assert brute_force_rank(dup, store).ids()[:2] == ["a", "a\x00"]


def test_first_top_k_retains_no_more_than_the_cosine_index():
    rng = np.random.default_rng(23)
    n, d = 20_000, 8
    refs = Columns([f"r{i:05d}" for i in range(n)], rng.standard_normal((n, d)).astype(np.float32))
    queries = Columns(["q0"], rng.standard_normal((1, d)).astype(np.float32))
    store = Store(StoreManifest(d, 4, n, 1), refs, queries, {"q0": ("r00000",)})
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ranking = top_k(store.query_image[0], store, 10)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(ranking.entries) == 10
    # the index's float32 norms, 4 bytes per reference, and a few objects; the store keeps no ranking state
    assert retained <= 4 * n + 16384


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_rankings_roundtrip(tmp_path):
    rankings = [
        Ranking("q1", [("a", 0.75), ("b", 0.25)]),
        Ranking("q2", [("c", 1.0)], reranked=True),
    ]
    path = tmp_path / "rankings.jsonl"
    save_rankings(rankings, path)
    back = load_rankings(path)
    assert [r.query_id for r in back] == ["q1", "q2"]
    assert back[0].entries == [("a", 0.75), ("b", 0.25)]
    assert back[0].reranked is False
    assert back[1].reranked is True


def test_save_rankings_rejects_nan_and_writes_nothing(tmp_path):
    path = tmp_path / "rankings.jsonl"
    with pytest.raises(ValueError, match="JSON"):
        save_rankings([Ranking("q1", [("a", 1.0)]), Ranking("q2", [("z", float("nan"))])], path)
    assert not path.exists()


@pytest.mark.parametrize("failure", ["nan score", "disk full"])
def test_failed_save_rankings_keeps_previous_file(tmp_path, monkeypatch, failure):
    path = tmp_path / "rankings.jsonl"
    save_rankings([Ranking("q0", [("a", 0.5)])], path)
    before = path.read_bytes()
    new = [Ranking("q1", [("a", 1.0)]), Ranking("q2", [("z", 0.25)])]
    if failure == "nan score":
        new[1].entries[0] = ("z", float("nan"))
    else:
        fill_disk_after_first_write(monkeypatch)
    with pytest.raises((ValueError, OSError)):
        save_rankings(new, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_rankings_malformed_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"query_id": "q", "entries": [["a", 0.5]]}\n{"nope": 1}\n')
    with pytest.raises(ValueError, match="line 2"):
        load_rankings(path)


def test_rankings_non_utf8_line_names_file_and_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b'{"query_id": "q", "entries": [["a", 0.5]]}\n\xff\n')
    with pytest.raises(ValueError, match="line 2") as exc:
        load_rankings(path)
    assert str(path) in str(exc.value) and not isinstance(exc.value, UnicodeDecodeError)


@pytest.mark.parametrize("lines,where,problem", [
    (['{"query_id": "q", "entries": [["a", 0.5], ["b", NaN]]}'], "line 1", "candidate 'b' has score nan"),
    (['{"query_id": "q", "entries": [["a", Infinity]]}'], "line 1", "candidate 'a' has score inf"),
    (['{"query_id": "q", "entries": [["a", 0.5], ["a", 0.4]]}'], "line 1", "candidate 'a' is listed twice"),
    (['{"query_id": "q", "entries": [["a", 0.5]]}'] * 2, "line 2, id 'q'", "duplicate ranking record"),
    (['{"query_id": "q", "entries": [["a", 1%s]]}' % ("0" * 400)], "line 1", "int too large to convert to float"),
    (['{"query_id": "q", "entries": []}', '{"query_id": 5, "entries": []}'], "line 2", "'query_id' is not a string"),
], ids=["nan", "inf", "repeated-candidate", "repeated-query", "huge-integer", "int-query-id"])
def test_load_rankings_refuses_nonfinite_score_or_repeated_id(tmp_path, lines, where, problem):
    path = tmp_path / "rankings.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(IngestError, match=re.escape(f"{path}, {where}: ") + ".*" + re.escape(problem)):
        load_rankings(path)


@pytest.mark.parametrize("entries,problem", [
    ('[[123, "0.5"]]', 'entry [123, "0.5"]'),
    ('[["r0", 0.5], [null, 0.4]]', "entry [null, 0.4]"),
    ('[["r0", "0.5"]]', 'entry ["r0", "0.5"]'),
    ('[["r0", 0.5], ["r1", true]]', 'entry ["r1", true]'),
    ('[["r0", false]]', 'entry ["r0", false]'),
    ('[["r0", null]]', 'entry ["r0", null]'),
    ('[["r0", [0.5]]]', 'entry ["r0", [0.5]]'),
], ids=["int-id", "null-id", "string-score", "true-score", "false-score", "null-score", "list-score"])
def test_load_rankings_refuses_a_non_string_id_or_a_score_that_is_not_a_number(tmp_path, entries, problem):
    """Nothing is coerced: ``str(123)`` or ``float(True)`` would load a ranking the file does not hold."""
    path = tmp_path / "rankings.jsonl"
    path.write_text('{"query_id": "q0", "entries": [["r9", 1]]}\n{"query_id": "q1", "entries": %s}\n' % entries)
    with pytest.raises(IngestError, match=re.escape(f"{path}, line 2: ") + ".*" + re.escape(
            f"{problem} is not a [string id, number] pair")):
        load_rankings(path)
    path.write_text('{"query_id": "q0", "entries": [["r9", 1], ["r8", 0.5]]}\n')
    assert [r.entries for r in load_rankings(path)] == [[("r9", 1.0), ("r8", 0.5)]]  # a JSON integer is a number


def test_ranking_validate_rejects_bad_order():
    with pytest.raises(ValueError, match="order"):
        Ranking("q", [("a", 0.1), ("b", 0.9)]).validate()
    with pytest.raises(ValueError, match="order"):
        Ranking("q", [("b", 0.5), ("a", 0.5)]).validate()


@pytest.mark.parametrize("reranked", ['"no"', '"true"', "1", "0", "null", "[true]"])
def test_load_rankings_refuses_a_reranked_flag_that_is_not_a_boolean(tmp_path, reranked):
    """``bool("no")`` is True: a flag that is not a JSON boolean is refused, not coerced."""
    path = tmp_path / "rankings.jsonl"
    path.write_text('{"query_id": "q0", "entries": [], "reranked": true}\n'
                    '{"query_id": "q1", "entries": [["r0", 0.5]], "reranked": %s}\n' % reranked)
    with pytest.raises(IngestError, match=re.escape(f"{path}, line 2: ") + ".*" + re.escape(
            f"'reranked' {reranked} is not true or false")):
        load_rankings(path)
