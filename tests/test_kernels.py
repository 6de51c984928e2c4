import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from georank import kernels


def test_cosine_scores_numpy_matches_manual():
    q = np.array([[1.0, 0.0]])
    refs = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]], np.float32)
    scores = kernels.cosine_scores(q, refs, kernels.row_norms(refs))
    assert scores.shape == (1, 3)
    # inputs are float32, so the 0.6 case is exact only to f32 resolution
    assert scores[0] == pytest.approx([1.0, 0.0, 0.6], abs=1e-7)


def test_cosine_scores_within_error_bound():
    rng = np.random.default_rng(3)
    for dim in (2, 37, 256):
        refs = (rng.standard_normal((500, dim)) * rng.uniform(1e-3, 1e3, (500, 1))).astype(np.float32)
        queries = rng.standard_normal((3, dim))
        qn = kernels.row_norms(queries)
        approx = kernels.cosine_scores(queries / qn[:, None], refs, kernels.row_norms(refs))
        assert approx.shape == (3, 500)
        for i in range(3):
            exact = kernels.exact_cosines(refs, queries[i:i + 1], qn[i:i + 1], kernels.row_norms(refs))
            assert np.max(np.abs(approx[i] - exact)) <= kernels.cosine_error_bound(dim)
    assert kernels.cosine_error_bound(1 << 24) == np.inf


@st.composite
def swept_cases(draw):
    """Float32 rows of one width whose values span up to 2**100 within a row,
    a third of them with norms around 2**-32 (the float32 sum of squares
    straddles 2**-64, the bottom of the swept range), a third around 2**64
    (it straddles FLT_MAX, the top) and a third around 1; and a float64 query,
    random or a row negated or not, scaled as phase 1 scales every query."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim, n = draw(st.integers(1, 4096)), 24
    spread = draw(st.sampled_from([0.0, 20.0, 100.0]))
    rows = rng.standard_normal((n, dim)) * 2.0 ** rng.uniform(-spread, 0.0, (n, dim))
    target = np.array([-32.0, 0.0, 64.0])[np.arange(n) % 3] + rng.uniform(-0.5, 0.5, n)
    refs = (rows * (2.0 ** target / np.linalg.norm(rows, axis=1))[:, None]).astype(np.float32)
    kind = draw(st.sampled_from(["random", "row", "negated row"]))
    if kind == "random":
        q = rng.standard_normal(dim) * 2.0 ** rng.uniform(-spread, 0.0, dim)
    else:
        q = refs[int(rng.integers(n))].astype(np.float64) * (1.0 if kind == "row" else -1.0)
    if not np.any(q):
        q[0] = 1.0
    return refs, np.ldexp(q, -np.frexp(np.abs(q).max())[1])


@settings(max_examples=200, deadline=None)
@given(swept_cases())
def test_sweep_with_the_index_norms_is_within_the_bound_of_the_exact_score(case):
    refs, q = case
    index = kernels.build_cosine_index(refs)
    swept = np.setdiff1d(np.arange(refs.shape[0]), index.unswept)
    assert swept.size
    qn = kernels.row_norms(q[None, :])
    approx = kernels.cosine_scores((q / qn)[None, :], refs, index.norms)[0]
    assert approx.dtype == np.float32
    exact = kernels.exact_cosines(refs, q[None, :], qn, kernels.row_norms(refs))
    assert np.max(np.abs(approx[swept] - exact[swept])) <= kernels.cosine_error_bound(refs.shape[1])


def test_survivor_margin_covers_twice_the_bound_and_the_threshold_rounding():
    for dim in (1, 64, 256, 4096, 1 << 20, (1 << 21) - 1):
        margin = kernels.survivor_margin(dim)
        assert margin.dtype == np.float32
        assert float(margin) >= 2.0 * kernels.cosine_error_bound(dim) + 2.0**-24
        assert kernels.cosine_error_bound(dim) < 0.25
    assert kernels.survivor_margin(1 << 21) == np.inf


def test_exact_cosines_independent_of_other_rows():
    rng = np.random.default_rng(9)
    refs = rng.standard_normal((301, 37)).astype(np.float32)
    q = rng.standard_normal((1, 37))
    qn = kernels.row_norms(q)
    full = kernels.exact_cosines(refs, q, qn, kernels.row_norms(refs))
    rows = rng.permutation(301)[:17]
    sub = refs[rows]
    np.testing.assert_array_equal(kernels.exact_cosines(sub, q, qn, kernels.row_norms(sub)), full[rows])


def test_exact_cosines_clips_as_np_clip_does():
    # one-wide rows |v| with unit query norms and reference "norms" of ±1 hand the clip v itself:
    # ±0, NaN, ±1, ±inf, values just inside and just past ±1, and subnormals
    one, past = 1.0, np.nextafter(1.0, 2.0)
    values = np.array([0.0, -0.0, np.nan, one, -one, past, -past, np.nextafter(1.0, 0.0),
                       np.nextafter(-1.0, 0.0), 1.5, -1.5, np.inf, -np.inf, 5e-324, -5e-324])
    refs, signs = np.abs(values)[:, None], np.where(np.signbit(values), -1.0, 1.0)
    got = kernels.exact_cosines(refs, np.ones((1, 1)), np.ones(1), signs)
    assert got.tobytes() == np.clip(values, -1.0, 1.0).tobytes()
    assert np.signbit(got[:2]).tolist() == [False, True]
    assert got[5:7].tolist() == [1.0, -1.0] and got[7:9].tolist() == values[7:9].tolist()


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.one_of(st.integers(1, 4096), st.sampled_from([8192, 8193, 10000])),
       st.integers(1, 9), st.integers(1, 5))
def test_exact_cosines_of_many_queries_equal_each_querys_own_pass(seed, dim, n_queries, rows_per_query):
    """Float32 rows re-scored together, each against its own query's row, score as
    each query's rows re-scored alone against its one row, also past numpy's
    8192-element einsum buffer."""
    rng = np.random.default_rng(seed)
    queries = rng.standard_normal((n_queries, dim))
    owner = np.repeat(np.arange(n_queries), rows_per_query)
    refs = rng.standard_normal((owner.size, dim)).astype(np.float32)
    refs[::2] = queries[owner[::2]]  # pairs at a cosine of about 1, where the clip acts
    qn, rn = kernels.row_norms(queries), kernels.row_norms(refs)
    together = kernels.exact_cosines(refs, queries[owner], qn[owner], rn)
    for i in range(n_queries):
        mine = owner == i
        alone = kernels.exact_cosines(refs[mine], queries[i:i + 1], qn[i:i + 1], kernels.row_norms(refs[mine]))
        assert alone.tobytes() == together[mine].tobytes()


def test_cosine_index_flags_rows_the_sweep_cannot_bound():
    # swept: a float32 sum of squares in [2**-64, FLT_MAX]; the last four rows sit at either end of it
    below, above = np.nextafter(np.float32(2.0**-32), np.float32(0)), np.nextafter(np.float32(2.0**64), np.float32(0))
    refs = np.array([[1.0, 2.0], [0.0, 0.0], [1e-30, 0.0], [np.inf, 1.0], [1e30, 1e30], [np.nan, 0.0],
                     [2.0**-32, 0.0], [below, 0.0], [above, 0.0], [2.0**64, 0.0]], np.float32)
    index = kernels.build_cosine_index(refs)
    assert index.norms.dtype == np.float32
    np.testing.assert_array_equal(index.unswept, [1, 2, 3, 4, 5, 7, 9])


def test_top_indices_orders_by_score_then_tie_rank():
    scores = np.array([0.5, 0.9, 0.5, 0.1])
    ids = ["d", "a", "b", "c"]
    np.testing.assert_array_equal(kernels.top_indices(scores, ids, 4), [1, 2, 0, 3])


# ids whose Python order differs from a numpy "<U" array's: "<U" drops trailing NULs
TIE_IDS = ["a", "a\x00", "ab", "b", "\u00e9", "\U0001f600", "a\x00b", ""]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0.5, -0.25, 0.0, -0.0, 1.0, np.inf, -np.inf, np.nan]),
                          st.sampled_from(TIE_IDS)), max_size=12),
       st.integers(0, 14))
def test_top_indices_is_score_desc_then_python_str_id_asc_with_nan_last(entries, k):
    s = np.array([e[0] for e in entries], np.float64)
    ids = [e[1] for e in entries]
    want = sorted(range(len(ids)), key=lambda i: (np.isnan(s[i]), 0.0 if np.isnan(s[i]) else -s[i], ids[i]))[:k]
    got = kernels.top_indices(s, ids, k)
    assert got.tolist() == want
    assert got.dtype == np.int64


def test_haversine_scalar_roundtrip():
    d = kernels.haversine_km(0.0, 0.0, 0.0, 1.0)
    assert isinstance(d, float)
    assert d == pytest.approx(6371.0 * np.pi / 180.0, rel=1e-9)


def test_haversine_arrays_match_scalar_calls():
    rng = np.random.default_rng(7)
    lat1, lat2 = rng.uniform(-90, 90, 200), rng.uniform(-90, 90, 200)
    lon1, lon2 = rng.uniform(-180, 180, 200), rng.uniform(-180, 180, 200)
    batch = kernels.haversine_km(lat1, lon1, lat2, lon2)
    scalar = [kernels.haversine_km(float(a), float(b), float(c), float(d))
              for a, b, c, d in zip(lat1, lon1, lat2, lon2)]
    np.testing.assert_array_equal(batch, scalar)
