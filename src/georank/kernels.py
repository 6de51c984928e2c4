"""Numeric kernels of phase-1 retrieval and of the positional metrics.

Retrieval scores a query in two steps. ``cosine_scores`` sweeps the float32
reference matrix with one BLAS product and gives approximate cosines whose
error is at most ``cosine_error_bound(dim)``; ``exact_cosines`` re-scores the
few rows that can still be in the top k with the float64 formula
``(r·q)/(‖q‖·‖r‖)``. The float64 dot products and norms are per-row einsum
reductions, so a row's score depends on that row and the query alone, not on
which other rows are scored with it: exact duplicates and power-of-two
scalings of a row score bit-equal, and a query scores a row identically
whether it is re-scored alone, among a few survivors or over the whole
matrix. ``top_indices`` orders scores by (score desc, tie rank asc).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_U32 = 2.0 ** -24  # unit roundoff of float32

# Rows whose norm lies outside this range can overflow or lose their products
# to underflow in the float32 sweep; they are always re-scored exactly.
_SWEPT_NORMS = (2.0 ** -64, 2.0 ** 64)
# Queries whose float64 norm lies outside this range are scored exactly against
# every row: their squared norm may have over- or underflowed, so the exact
# formula's scores are not accurate cosines and the sweep's margin does not hold.
_REGULAR_QUERY_NORMS = (2.0 ** -500, 2.0 ** 500)


@dataclass(frozen=True)
class CosineIndex:
    """What retrieval precomputes about a reference matrix: the float64 norm of
    every row (8 bytes per reference) and the rows the float32 sweep cannot
    bound, which every query re-scores exactly (zero, non-finite, tiny or huge
    rows; normally none)."""

    norms: np.ndarray
    unswept: np.ndarray


def row_norms(m: np.ndarray) -> np.ndarray:
    """Float64 Euclidean norm of each row of ``m`` (any float dtype), without a
    float64 copy of ``m``; each row's value depends on that row alone."""
    return np.sqrt(np.einsum("ij,ij->i", m, m, dtype=np.float64))


def build_cosine_index(refs: np.ndarray) -> CosineIndex:
    norms = row_norms(refs)
    lo, hi = _SWEPT_NORMS
    return CosineIndex(norms=norms, unswept=np.flatnonzero(~((norms >= lo) & (norms <= hi))))


def regular_queries(query_norms: np.ndarray) -> np.ndarray:
    """Which queries the float32 sweep can bound, from their float64 norms."""
    lo, hi = _REGULAR_QUERY_NORMS
    return (query_norms >= lo) & (query_norms <= hi)


def cosine_error_bound(dim: int) -> float:
    """Bound on |approximate - exact cosine| for ``cosine_scores`` at ``dim``.

    A float32 dot product of d terms is off by at most γ_d·Σ|r_j·q_j| ≤
    γ_d·‖r‖·‖q‖, γ_d = d·u/(1 - d·u) with u = 2⁻²⁴, in any summation order.
    Rounding the unit query to float32 adds u; the float64 re-score, norms and
    division add well under u more, and 2u of slack is kept on top. Valid for
    swept rows and regular queries only.
    """
    du = dim * _U32
    if du >= 0.5:
        return np.inf
    return du / (1.0 - du) + 4.0 * _U32


def cosine_scores(queries: np.ndarray, refs: np.ndarray, ref_norms: np.ndarray) -> np.ndarray:
    """Approximate cosines (b, n) of unit ``queries`` (b, d) against every row of
    ``refs`` (n, d): one float32 BLAS product divided by the float64 row norms.
    Accurate to ``cosine_error_bound(d)`` on swept rows and regular queries."""
    # non-finite results (irregular queries, unswept rows) are the caller's to handle
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q32 = queries.astype(np.float32)
        # one query runs as a GEMV, which OpenBLAS does faster than a one-row GEMM
        dots = (q32[0] @ refs.T)[None, :] if q32.shape[0] == 1 else q32 @ refs.T
        return dots / ref_norms


def exact_cosines(refs: np.ndarray, query: np.ndarray, query_norm: float, ref_norms: np.ndarray) -> np.ndarray:
    """``(r·q)/(‖q‖·‖r‖)`` in float64 for each row of ``refs``, clipped to [-1, 1].
    ``query`` is float64; the norms come from ``row_norms``."""
    dots = np.einsum("ij,j->i", refs, query, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.clip(dots / (query_norm * ref_norms), -1.0, 1.0)


def top_indices(scores: np.ndarray, tie_rank: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k best entries by (score desc, tie_rank asc); NaN ranks last."""
    order = np.lexsort((tie_rank, -scores))
    return order[: min(k, scores.shape[0])].astype(np.int64)


def haversine_km(lat1, lon1, lat2, lon2, radius_km):
    """Great-circle distance in km; scalar in, scalar out; arrays elementwise."""
    p1 = np.radians(np.atleast_1d(np.asarray(lat1, dtype=np.float64)))
    l1 = np.radians(np.atleast_1d(np.asarray(lon1, dtype=np.float64)))
    p2 = np.radians(np.atleast_1d(np.asarray(lat2, dtype=np.float64)))
    l2 = np.radians(np.atleast_1d(np.asarray(lon2, dtype=np.float64)))
    sdlat = np.sin((p2 - p1) / 2.0)
    sdlon = np.sin((l2 - l1) / 2.0)
    a = sdlat * sdlat + np.cos(p1) * np.cos(p2) * sdlon * sdlon
    out = 2.0 * radius_km * np.arctan2(np.sqrt(a), np.sqrt(1.0 - a))
    return float(out[0]) if np.ndim(lat1) == 0 else out
