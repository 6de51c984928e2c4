"""Numeric kernels of phase-1 retrieval and of the positional metrics.

Retrieval scores a query in two steps. ``cosine_scores`` sweeps the float32
reference matrix with one BLAS product, divided in place by the float32 row
norms of a ``CosineIndex``, and gives a float32 tile of approximate cosines
whose error is at most ``cosine_error_bound(dim)``; ``survivor_margin`` turns
that bound into the float32 margin below the k-th best score within which a
row can still be in the exact top k. ``exact_cosines`` re-scores those few rows
with the float64 formula ``(r·q)/(‖q‖·‖r‖)``, each row against its own query's
row, given the float64 norms of those rows alone (``row_norms``); it is the
one exact-cosine path, serving one query's rows, the survivors of many queries
at once, and the pairs of ``cvlang.stability_report``. The float64 dot products
and norms are per-row einsum reductions, so a row's score depends on that row
and its query alone, not on which other rows are scored with it: exact
duplicates and power-of-two scalings of a row score bit-equal, and a query
scores a float32 row identically whether it is re-scored alone, among a few
survivors, among other queries' survivors or over the whole matrix. (A float64
row longer than numpy's 8192-element einsum buffer is summed in one piece when
it is alone and in pieces among other rows, so phase 1 takes the norms of such
queries one at a time.) ``top_indices`` is the one ordering rule of every
ranking georank makes: score descending, then id ascending, NaN last.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

try:  # the ufunc behind np.clip, without its Python wrapper
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy < 2
    from numpy.core.umath import clip as _clip

_U32 = 2.0 ** -24  # unit roundoff of float32

# A row is swept when its float32 sum of squares lies in this range. Below it,
# underflow in the row's squares and products could be a noticeable share of
# the row; above it, the sum has overflowed. Other rows (zero, non-finite, tiny
# or huge) are re-scored exactly by every query.
_SWEPT_SQUARED_NORMS = (2.0 ** -64, float(np.finfo(np.float32).max))


@dataclass(frozen=True)
class CosineIndex:
    """What the float32 sweep needs of a reference matrix: the float32 norm of
    every row (4 bytes per reference) and the rows the sweep cannot bound,
    which every query re-scores exactly (normally none)."""

    norms: np.ndarray
    unswept: np.ndarray


def row_norms(m: np.ndarray) -> np.ndarray:
    """Float64 Euclidean norm of each row of ``m`` (any float dtype), without a
    float64 copy of ``m``; each row's value depends on that row alone."""
    return np.sqrt(np.einsum("ij,ij->i", m, m, dtype=np.float64))


def build_cosine_index(refs: np.ndarray) -> CosineIndex:
    """The index of a float32 matrix, from one float32 sum-of-squares pass."""
    with np.errstate(over="ignore", invalid="ignore"):
        squares = np.einsum("ij,ij->i", refs, refs)
        norms = np.sqrt(squares)
    lo, hi = _SWEPT_SQUARED_NORMS
    return CosineIndex(norms=norms, unswept=np.flatnonzero(~((squares >= lo) & (squares <= hi))))


def cosine_error_bound(dim: int) -> float:
    """Bound B on |approximate - exact score| at ``dim``: for a swept row r and
    a query q, the float32 score that ``cosine_scores`` gives with the index's
    norms and the float64 score that ``exact_cosines`` gives differ by at most B.
    q is float64 with its largest |component| in [0.5, 1), as phase 1 scales
    every query, and is swept as fl32(q/‖q‖) with the norm and the division in
    float64. About (1.5·d + 3)·2⁻²⁴; infinite from d·2⁻²⁴ ≥ 1/8 on.

    Let u = 2⁻²⁴, γ = d·u/(1 - d·u) and c = (r·q)/(‖r‖·‖q‖), |c| ≤ 1. An
    operation rounds with relative error at most u, or, when it underflows,
    loses at most FLT_MIN = 2⁻¹²⁶, with gradual underflow or flushed to zero
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., §2.2).
    A sum of d rounded terms, taken in any order, with or without FMA, is off
    by at most γ times the sum of their absolute values (§3.1). The underflow
    losses of its at most 2d operations, each grown at most twofold by later
    roundings, add at most 4d·FLT_MIN.

    1. Query: the float64 norm and division are off by ε = (d + 2)·2⁻⁵² at
       most, so |q̂_j - q_j/‖q‖| ≤ μ·|q_j|/‖q‖ + FLT_MIN with μ = u + 2ε.
    2. Norm: a swept row's float32 sum of squares is ŝ = ‖r‖²(1 + θ'),
       |θ'| ≤ θ = γ + τ, where τ = d·2⁻⁵⁸ ≥ 4d·FLT_MIN/‖r‖², since ŝ ≥ 2⁻⁶⁴
       gives ‖r‖² > 2⁻⁶⁶. The float32 norm fl(√ŝ) is ‖r‖(1 + ρ'), |ρ'| ≤ ρ =
       u + (1 + u)·θ/(1 + √(1 - θ)), as |√(1 + x) - 1| ≤ |x|/(1 + √(1 - |x|)).
    3. Dot: by 1, q̂·r is within (μ + τ)‖r‖ of c‖r‖ (√d·FLT_MIN ≤ τ) and
       ‖q̂‖ ≤ 1 + μ + τ, so its float32 sum is off by at most
       γ(1 + μ + τ)‖r‖ + τ‖r‖ more (4d·FLT_MIN/‖r‖ ≤ τ), and the dot is
       ‖r‖(c + e), |e| ≤ e₁ = μ + γ(1 + μ) + 3τ, as γ < 1.
    4. Division: the score is (c + e)(1 + δ)/(1 + ρ'), |δ| ≤ u, plus at most
       FLT_MIN ≤ τ if it underflows; with |c| ≤ 1 it is within
       ((1 + u)·e₁ + u + ρ)/(1 - ρ) + τ of c.
    5. Exact score: float64 products, sums, norms and division put
       ``exact_cosines`` within (d + 3)·2⁻⁵² of c; clipping to [-1, 1] only
       moves it toward c.

    B is the sum of 4 and 5, plus one τ more for evaluating it in float64.
    """
    du = dim * _U32
    if du >= 0.125:
        return math.inf
    gamma, tau, eps = du / (1.0 - du), dim * 2.0 ** -58, (dim + 2) * 2.0 ** -52
    mu = _U32 + 2.0 * eps
    theta = gamma + tau
    rho = _U32 + (1.0 + _U32) * theta / (1.0 + math.sqrt(1.0 - theta))
    e1 = mu + gamma * (1.0 + mu) + 3.0 * tau
    return ((1.0 + _U32) * e1 + _U32 + rho) / (1.0 - rho) + 2.0 * tau + (dim + 3) * 2.0 ** -52


@functools.cache
def survivor_margin(dim: int) -> np.float32:
    """The float32 margin M such that, for the k-th best float32 score kth of a
    swept row, the float32 threshold ``kth - M`` is at most kth - 2B, B =
    ``cosine_error_bound(dim)``, so rounding can only widen the survivors.

    M is the float32 at or above 2B + u, u = 2⁻²⁴. B < 1/4 where it is
    finite, so |kth| ≤ 1 + B and |kth - M| < 2, and the subtraction rounds by
    at most half a float32 ulp in [1, 2), which is u. Every row whose exact
    score reaches the k-th best exact score E_k then survives: k rows score
    at least kth, so E_k ≥ kth - B, and such a row scores at least E_k - B.
    """
    want = 2.0 * cosine_error_bound(dim) + _U32
    m = np.float32(want)
    return m if float(m) >= want else np.nextafter(m, np.float32(np.inf))


def cosine_scores(queries: np.ndarray, refs: np.ndarray, ref_norms: np.ndarray) -> np.ndarray:
    """Approximate cosines (b, n), float32, of unit ``queries`` (b, d) against
    every row of ``refs`` (n, d): one float32 BLAS product, divided in place by
    the index's row norms. Accurate to ``cosine_error_bound(d)`` on swept rows."""
    # unswept rows can divide by zero or overflow; their scores are the caller's to replace
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q32 = queries.astype(np.float32)
        # one query runs as a GEMV, which OpenBLAS does faster than a one-row GEMM
        dots = (q32[0] @ refs.T)[None, :] if q32.shape[0] == 1 else q32 @ refs.T
        dots /= ref_norms
    return dots


def exact_cosines(refs: np.ndarray, queries: np.ndarray, query_norms: np.ndarray, ref_norms: np.ndarray) -> np.ndarray:
    """``(r·q)/(‖q‖·‖r‖)`` in float64 for each row r of ``refs`` against its own
    row q of ``queries`` (phase 1's are float64), clipped to [-1, 1]; one row of
    ``queries`` (shape (1, d)) scores every row of ``refs`` against that one
    query. The norms come from ``row_norms``, ``query_norms`` one per row of
    ``queries``."""
    dots = np.einsum("ij,ij->i", refs, queries, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        dots /= query_norms * ref_norms
        return _clip(dots, -1.0, 1.0, out=dots)


def top_indices(scores: np.ndarray, ids, k: int) -> np.ndarray:
    """Indices of the k best entries of ``scores`` by (score desc, id asc), ``ids``
    the entries' own ids compared as Python ``str``; NaN ranks last. The
    indices are put in id order first, by Python's sort (numpy ``<U`` arrays
    would drop trailing NULs), and a stable sort by descending score keeps
    that order among equal scores and among NaNs."""
    by_id = np.array(sorted(range(len(ids)), key=ids.__getitem__), np.int64)
    return by_id[(-scores[by_id]).argsort(kind="stable")[:k]]


EARTH_RADIUS_KM = 6371.0


def haversine_km(lat1, lon1, lat2, lon2):
    """Great-circle distance in km on a sphere of radius ``EARTH_RADIUS_KM``;
    scalar in, scalar out; arrays elementwise."""
    p1 = np.radians(np.atleast_1d(np.asarray(lat1, dtype=np.float64)))
    l1 = np.radians(np.atleast_1d(np.asarray(lon1, dtype=np.float64)))
    p2 = np.radians(np.atleast_1d(np.asarray(lat2, dtype=np.float64)))
    l2 = np.radians(np.atleast_1d(np.asarray(lon2, dtype=np.float64)))
    sdlat = np.sin((p2 - p1) / 2.0)
    sdlon = np.sin((l2 - l1) / 2.0)
    a = sdlat * sdlat + np.cos(p1) * np.cos(p2) * sdlon * sdlon
    out = 2.0 * EARTH_RADIUS_KM * np.arctan2(np.sqrt(a), np.sqrt(1.0 - a))
    return float(out[0]) if np.ndim(lat1) == 0 else out
