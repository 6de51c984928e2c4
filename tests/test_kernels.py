import numpy as np
import pytest

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
            exact = kernels.exact_cosines(refs, queries[i], qn[i], kernels.row_norms(refs))
            assert np.max(np.abs(approx[i] - exact)) <= kernels.cosine_error_bound(dim)
    assert kernels.cosine_error_bound(1 << 24) == np.inf


def test_exact_cosines_independent_of_other_rows():
    rng = np.random.default_rng(9)
    refs = rng.standard_normal((301, 37)).astype(np.float32)
    q = rng.standard_normal(37)
    qn = kernels.row_norms(q[None, :])[0]
    full = kernels.exact_cosines(refs, q, qn, kernels.row_norms(refs))
    rows = rng.permutation(301)[:17]
    sub = refs[rows]
    np.testing.assert_array_equal(kernels.exact_cosines(sub, q, qn, kernels.row_norms(sub)), full[rows])


def test_cosine_index_flags_rows_the_sweep_cannot_bound():
    refs = np.array([[1.0, 2.0], [0.0, 0.0], [1e-30, 0.0], [np.inf, 1.0], [1e30, 1e30], [np.nan, 0.0]], np.float32)
    index = kernels.build_cosine_index(refs)
    assert index.norms.dtype == np.float64
    np.testing.assert_array_equal(index.unswept, [1, 2, 3, 4, 5])


def test_top_indices_orders_by_score_then_tie_rank():
    scores = np.array([0.5, 0.9, 0.5, 0.1])
    tie_rank = np.array([3, 0, 1, 2], np.int64)
    np.testing.assert_array_equal(kernels.top_indices(scores, tie_rank, 4), [1, 2, 0, 3])


def test_haversine_scalar_roundtrip():
    d = kernels.haversine_km(0.0, 0.0, 0.0, 1.0, 6371.0)
    assert isinstance(d, float)
    assert d == pytest.approx(6371.0 * np.pi / 180.0, rel=1e-9)


def test_haversine_arrays_match_scalar_calls():
    rng = np.random.default_rng(7)
    lat1, lat2 = rng.uniform(-90, 90, 200), rng.uniform(-90, 90, 200)
    lon1, lon2 = rng.uniform(-180, 180, 200), rng.uniform(-180, 180, 200)
    batch = kernels.haversine_km(lat1, lon1, lat2, lon2, 6371.0)
    scalar = [kernels.haversine_km(float(a), float(b), float(c), float(d), 6371.0)
              for a, b, c, d in zip(lat1, lon1, lat2, lon2)]
    np.testing.assert_array_equal(batch, scalar)
