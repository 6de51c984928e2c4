import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from georank import kernels, retriever
from georank.retriever import (
    Ranking,
    brute_force_rank,
    cosine,
    load_rankings,
    rank_store_queries,
    save_rankings,
    top_k,
)

from conftest import build_store, fill_disk_after_first_write, make_query, make_ref, random_store


# ---------------------------------------------------------------------------
# cosine
# ---------------------------------------------------------------------------

def test_cosine_identical_direction():
    assert cosine(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 1.0


def test_cosine_orthogonal():
    assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


def test_cosine_45_degrees():
    assert cosine(np.array([1.0, 1.0]), np.array([1.0, 0.0])) == pytest.approx(math.sqrt(2) / 2, abs=1e-12)


def test_cosine_dim_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        cosine(np.ones(3), np.ones(4))


def test_cosine_zero_norm_rejected():
    with pytest.raises(ValueError, match="zero-norm"):
        cosine(np.zeros(3), np.ones(3))


def test_cosine_symmetry_and_scale_invariance():
    rng = np.random.default_rng(0)
    for _ in range(50):
        u = rng.standard_normal(16)
        v = rng.standard_normal(16)
        alpha = float(rng.uniform(0.01, 100.0))
        assert cosine(u, v) == cosine(v, u)
        assert cosine(alpha * u, v) == pytest.approx(cosine(u, v), abs=1e-12)
    assert -1.0 <= cosine(u, -u) <= 1.0


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
    with pytest.raises(ValueError, match="dim"):
        top_k(np.ones(5), simple_store, 1)
    with pytest.raises(ValueError, match="zero-norm"):
        top_k(np.zeros(2), simple_store, 1)
    empty = build_store([], [], image_dim=2)
    with pytest.raises(ValueError, match="no references"):
        top_k(np.ones(2), empty, 1)


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
    # float64 queries whose squared norm over- or underflows are scored exactly against every row
    rng = np.random.default_rng(15)
    v = np.random.default_rng(2572).standard_normal(4)
    rows = [v + 1.5e-3 * rng.standard_normal(4) for _ in range(60)] + list(rng.standard_normal((10, 4)))
    store = build_store([make_ref(f"r{i:02d}", r) for i, r in enumerate(rows)], [], image_dim=4)
    # at 1e-159 the squared norm is subnormal and comes out ~2e-5 low, so the
    # rows nearest v score 1.0 after clipping and tie, far beyond the sweep's margin
    assert [s for _, s in brute_force_rank(1e-159 * v, store).entries[:8]] == [1.0] * 8
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


@st.composite
def sweep_cases(draw):
    """A store with exact duplicates, 2x-scaled rows and a cluster of rows a few
    float32 ulps away from an anchor row, and a query at or near the anchor (so
    the k-th place falls among near-ties) or anywhere."""
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
    return build_store(refs, [], image_dim=dim), q, k


@settings(max_examples=300, deadline=None)
@given(sweep_cases())
def test_top_k_equals_brute_force_prefix_property(case):
    store, q, k = case
    oracle = brute_force_rank(q, store)
    ranking = top_k(q, store, k)
    assert ranking.ids() == oracle.ids()[:k]
    assert ranking.entries == oracle.entries[:k]
    ranking.validate()


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


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_rankings_roundtrip(tmp_path):
    rankings = [
        Ranking("q1", [("a", 0.75), ("b", 0.25)], k=2),
        Ranking("q2", [("c", 1.0)], k=1, reranked=True),
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
        save_rankings([Ranking("q1", [("a", 1.0)], k=1), Ranking("q2", [("z", float("nan"))], k=1)], path)
    assert not path.exists()


@pytest.mark.parametrize("failure", ["nan score", "disk full"])
def test_failed_save_rankings_keeps_previous_file(tmp_path, monkeypatch, failure):
    path = tmp_path / "rankings.jsonl"
    save_rankings([Ranking("q0", [("a", 0.5)], k=1)], path)
    before = path.read_bytes()
    new = [Ranking("q1", [("a", 1.0)], k=1), Ranking("q2", [("z", 0.25)], k=1)]
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


def test_ranking_validate_rejects_bad_order():
    with pytest.raises(ValueError, match="order"):
        Ranking("q", [("a", 0.1), ("b", 0.9)], k=2).validate()
    with pytest.raises(ValueError, match="order"):
        Ranking("q", [("b", 0.5), ("a", 0.5)], k=2).validate()


def test_restrict_ranking_matches_direct_pool_ranking():
    from georank.retriever import restrict_ranking

    rng = np.random.default_rng(21)
    store = random_store(rng, 40, 0, image_dim=8)
    q = rng.standard_normal(8)
    full = brute_force_rank(q, store)
    pool = set(store.ref_ids[::3])
    restricted = restrict_ranking(full, pool, k=5)
    assert len(restricted.entries) == 5
    assert all(rid in pool for rid, _ in restricted.entries)
    # equals ranking a store that contains only the pool
    sub = build_store([make_ref(rid, store.reference(rid).image_emb) for rid in store.ref_ids if rid in pool],
                      [], image_dim=8)
    direct = brute_force_rank(q, sub)
    assert restricted.ids() == direct.ids()[:5]


def test_restrict_ranking_single_positive_instances():
    from georank.geostore import build_eval_instances
    from georank.retriever import restrict_ranking

    rng = np.random.default_rng(22)
    refs = [make_ref(f"r{i}", rng.standard_normal(4)) for i in range(12)]
    query = make_query("q", rng.standard_normal(4), ["r2", "r5", "r7"])
    store = build_store(refs, [query], image_dim=4)
    full = brute_force_rank(query.image_emb, store, query_id="q")
    for inst in build_eval_instances(query, store):
        restricted = restrict_ranking(full, inst.candidate_pool, k=10)
        ids = restricted.ids()
        assert inst.positive_id in set(store.ref_ids)
        positives_present = [rid for rid in ids if rid in {"r2", "r5", "r7"}]
        assert positives_present in ([inst.positive_id], [])
