"""Phase-1 ranking: cosine similarity and top-k candidate selection.

``top_k`` and ``rank_store_queries`` score queries in blocks against the
store's cached ``CosineIndex`` (float64 row norms, 8 bytes per reference):

1. one float32 BLAS product over ``ref_image`` gives approximate cosines for a
   block of queries, the block sized so its score tile stays within
   ``SCORE_TILE_BYTES``;
2. per query, the k-th best approximate score is found by partition;
3. every row within twice ``kernels.cosine_error_bound(d)`` of it survives, so
   every row that can be in the exact top k does;
4. the survivors are re-scored with the float64 formula
   ``(r·q)/(‖q‖·‖r‖)``, clipped to [-1, 1], and ordered by (score desc, id asc).

The float64 score of a row does not depend on which other rows survive, so a
query gets the same ids and scores from ``top_k``, ``rank_store_queries`` and
``brute_force_rank``, the exhaustive sort kept as the oracle for the sweep and
selection.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import kernels
from .geostore import Store, write_lines

# Upper bound on the memory of one block's approximate scores: 4 bytes of
# float32 product plus 8 of float64 cosine per (query, reference) pair.
SCORE_TILE_BYTES = 64 << 20
_TILE_BYTES_PER_SCORE = 12


@dataclass
class Ranking:
    """Ordered (reference_id, score) entries for one query, best first."""

    query_id: str
    entries: list[tuple[str, float]] = field(default_factory=list)
    k: int = 0
    reranked: bool = False

    def ids(self) -> list[str]:
        return [rid for rid, _ in self.entries]

    def validate(self) -> None:
        for (a_id, a_s), (b_id, b_s) in zip(self.entries, self.entries[1:]):
            if a_s < b_s or (a_s == b_s and a_id >= b_id):
                raise ValueError(f"ranking for '{self.query_id}' violates (score desc, id asc) order")


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity of two equal-dim vectors, clipped to [-1, 1].

    Both norms use the same accumulation, so the result is exactly symmetric
    in its arguments.
    """
    u = np.asarray(u)
    v = np.asarray(v)
    if u.ndim != 1 or v.ndim != 1 or u.shape[0] != v.shape[0]:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    if not np.any(u) or not np.any(v):
        raise ValueError("cosine undefined for zero-norm vector")
    a = u.astype(np.float64, copy=False)
    b = v.astype(np.float64, copy=False)
    score = np.dot(a, b) / (np.sqrt(np.dot(a, a)) * np.sqrt(np.dot(b, b)))
    return float(np.clip(score, -1.0, 1.0))


def _check_query(query_emb: np.ndarray, store: Store) -> np.ndarray:
    """``query_emb`` as float64, after the checks every phase-1 entry point makes."""
    query_emb = np.asarray(query_emb)
    if store.ref_image.shape[0] == 0:
        raise ValueError("store holds no references")
    if query_emb.ndim != 1 or query_emb.shape[0] != store.manifest.image_dim:
        raise ValueError(
            f"query dim {query_emb.shape} does not match store image_dim {store.manifest.image_dim}"
        )
    if not np.any(query_emb):
        raise ValueError("cosine undefined for zero-norm query")
    return query_emb.astype(np.float64)


def _survivors(approx: np.ndarray, k: int, margin: float, unswept: np.ndarray) -> np.ndarray | slice:
    """Rows of one query's approximate scores that can be in its exact top k:
    those within ``margin`` of the k-th best, plus the unswept rows (whose
    approximate score is -inf). All rows when the k-th best is not finite."""
    n = approx.shape[0]
    if k >= n:
        return slice(None)
    kth = np.partition(approx, n - k)[n - k]
    if not np.isfinite(kth):
        return slice(None)
    rows = np.flatnonzero(approx >= kth - margin)
    return np.concatenate([rows, unswept]) if unswept.size else rows


def _rank_block(queries: np.ndarray, store: Store, k: int, query_ids: list[str]) -> list[Ranking]:
    """top_k for each row of ``queries`` (b, d), float64 rows that passed ``_check_query``."""
    index = store.cosine_index
    qnorms = kernels.row_norms(queries)
    regular = kernels.regular_queries(qnorms)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        unit = queries / qnorms[:, None]
    approx = kernels.cosine_scores(unit, store.ref_image, index.norms)
    if index.unswept.size:
        approx[:, index.unswept] = -np.inf
    approx[~regular] = np.nan  # scored exactly against every row
    margin = 2.0 * kernels.cosine_error_bound(queries.shape[1])
    out = []
    for i, qid in enumerate(query_ids):
        rows = _survivors(approx[i], k, margin, index.unswept)
        scores = kernels.exact_cosines(store.ref_image[rows], queries[i], qnorms[i], index.norms[rows])
        best = kernels.top_indices(scores, store.ref_tie_rank[rows], k)
        ref_rows = best if isinstance(rows, slice) else rows[best]
        entries = [(store.ref_ids[r], float(s)) for r, s in zip(ref_rows, scores[best])]
        out.append(Ranking(query_id=qid, entries=entries, k=k))
    return out


def top_k(query_emb: np.ndarray, store: Store, k: int, query_id: str = "") -> Ranking:
    """The k most cosine-similar references; ties broken by ascending id."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return _rank_block(_check_query(query_emb, store)[None, :], store, k, [query_id])[0]


def brute_force_rank(query_emb: np.ndarray, store: Store, query_id: str = "") -> Ranking:
    """Exhaustive exact ordering of every reference; oracle for top_k.

    Every row is scored with the float64 formula and the whole list sorted by
    (score desc, id asc): no sweep, no selection, no cached index.
    """
    q = _check_query(query_emb, store)
    refs = store.ref_image
    scores = kernels.exact_cosines(refs, q, kernels.row_norms(q[None, :])[0], kernels.row_norms(refs))
    order = np.lexsort((store.ref_tie_rank, -scores))
    entries = [(store.ref_ids[i], float(scores[i])) for i in order]
    return Ranking(query_id=query_id, entries=entries, k=len(entries))


def rank_store_queries(store: Store, k: int) -> list[Ranking]:
    """top_k for every query in the store, in store order, one float32 GEMM
    per block of queries."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    block = max(1, SCORE_TILE_BYTES // (_TILE_BYTES_PER_SCORE * max(1, len(store.ref_ids))))
    out = []
    for start in range(0, len(store.query_ids), block):
        qids = store.query_ids[start:start + block]
        queries = np.stack([_check_query(q, store) for q in store.query_image[start:start + block]])
        out.extend(_rank_block(queries, store, k, qids))
    return out


def restrict_ranking(ranking: Ranking, pool, k: int | None = None) -> Ranking:
    """Drop entries outside ``pool`` and truncate to k; order is untouched.

    Restricting a full ranking to a candidate pool equals ranking the pool
    directly (cosine scores do not depend on the pool), which is how
    single-positive evaluation instances are scored.
    """
    pool = set(pool)
    entries = [(rid, s) for rid, s in ranking.entries if rid in pool]
    if k is not None:
        entries = entries[:k]
    return Ranking(query_id=ranking.query_id, entries=entries, k=k if k is not None else len(entries),
                   reranked=ranking.reranked)


def save_rankings(rankings: list[Ranking], path: str | Path) -> None:
    """Line-delimited JSON, one ranking per line, through ``write_lines``. A NaN
    or infinite score raises ValueError, since JSON has no token for it, and
    like any failure part way leaves the file at ``path`` as it was."""
    def lines():
        for r in rankings:
            rec = {"query_id": r.query_id, "entries": [[rid, s] for rid, s in r.entries]}
            if r.reranked:
                rec["reranked"] = True
            yield json.dumps(rec, sort_keys=True, separators=(",", ":"), allow_nan=False)

    write_lines(lines(), path)


def load_rankings(path: str | Path) -> list[Ranking]:
    out = []
    with open(path, "rb") as fh:
        for ln, raw in enumerate(fh, start=1):
            try:
                raw = raw.decode("utf-8").strip()
                if not raw:
                    continue
                rec = json.loads(raw)
                entries = [(str(rid), float(s)) for rid, s in rec["entries"]]
                out.append(
                    Ranking(
                        query_id=rec["query_id"],
                        entries=entries,
                        k=len(entries),
                        reranked=bool(rec.get("reranked", False)),
                    )
                )
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}, line {ln}: malformed ranking record ({exc})") from None
    return out
