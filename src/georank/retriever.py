"""Phase-1 ranking: cosine similarity and top-k candidate selection.

Every query is first scaled by the power of two that brings its largest
|component| into [0.5, 1), which leaves its cosines' float64 arithmetic
bit for bit as it was and keeps its squared norm from over- or underflowing;
a query with a NaN or infinite component, or none non-zero, is refused, a
block of queries by array operations that refuse its first bad query as a
lone query is refused. ``top_k`` (a block of one) and ``rank_store_queries``
then score queries in blocks against the store's ``CosineIndex`` (float32
row norms, 4 bytes per reference, built on first use):

1. per block, one float32 BLAS product over ``ref_image``, divided in place
   by the index's norms, gives a float32 tile of approximate cosines, the
   block sized so its tile stays within ``SCORE_TILE_BYTES``;
2. per query, the k-th best approximate score is found by partition, and
   every row within ``kernels.survivor_margin(d)`` (twice
   ``kernels.cosine_error_bound(d)``, rounded so it can only widen) of it
   survives, so every row that can be in the exact top k does;
3. per block, the survivors of all its queries are gathered at once and
   re-scored by ``kernels.exact_cosines``, each against its own query's
   row, with the float64 formula ``(r·q)/(‖q‖·‖r‖)``, from the float64 norms
   of those rows alone, clipped to [-1, 1]; the gathered rows (12·d bytes a
   survivor) stay within the block's tile, so within ``SCORE_TILE_BYTES``, in
   several passes over consecutive runs of whole queries when they would not.
   A query whose survivors are every row is scored from the matrix itself;
4. per query, its survivors are ordered by ``kernels.top_indices``: score
   descending, then id ascending.

The float64 score of a row does not depend on which other rows, or which
other queries' rows, are re-scored with it, so a query gets the same ids and
scores from ``top_k``, ``rank_store_queries`` and ``brute_force_rank``, the
exhaustive sort kept as the oracle for the sweep and selection. All three,
and ``cvlang.stability_report``, score through the one pairwise kernel
``kernels.exact_cosines``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import kernels
from .geostore import Store, load_jsonl, write_jsonl

# Upper bound on the memory of one block's approximate scores: the float32
# tile, 4 bytes per (query, reference) pair.
SCORE_TILE_BYTES = 64 << 20
_TILE_BYTES_PER_SCORE = 4


@dataclass
class Ranking:
    """Ordered (reference_id, score) entries for one query, best first."""

    query_id: str
    entries: list[tuple[str, float]] = field(default_factory=list)
    reranked: bool = False

    def ids(self) -> list[str]:
        return [rid for rid, _ in self.entries]

    def validate(self) -> None:
        """Raise ValueError, naming the query and the id, at a candidate listed
        twice or a NaN or infinite score (what ``load_rankings`` refuses), and
        at an entry out of (score desc, id asc) order."""
        refuse_repeats(self.ids(), f"query '{self.query_id}': candidate")
        for rid, score in self.entries:
            if not math.isfinite(score):
                raise ValueError(f"query '{self.query_id}': candidate '{rid}' has score {score}")
        for (a_id, a_s), (b_id, b_s) in zip(self.entries, self.entries[1:]):
            if a_s < b_s or (a_s == b_s and a_id >= b_id):
                raise ValueError(f"ranking for '{self.query_id}' violates (score desc, id asc) order")


def _check_queries(queries: np.ndarray, store: Store) -> np.ndarray:
    """The rows of ``queries`` as float64, each scaled by the power of two that brings
    its largest |component| into [0.5, 1), after the checks every phase-1 entry point
    makes: a store with no references, then rows that are not ``image_dim`` wide, then
    the first row with a NaN or infinite component or none non-zero. The scaling is
    exact unless a component falls below float64's normal range, and it moves no
    cosine: the products and norms of ``kernels.exact_cosines`` scale by the same
    power of two."""
    if store.ref_image.shape[0] == 0:
        raise ValueError("store holds no references")
    if queries.ndim != 2 or queries.shape[1] != store.manifest.image_dim:
        raise ValueError(
            f"query dim {queries.shape[1:]} does not match store image_dim {store.manifest.image_dim}"
        )
    largest = np.maximum.reduce(np.abs(queries), axis=1)
    if not (0 < np.minimum.reduce(largest) and np.maximum.reduce(largest) < np.inf):  # NaN fails both
        first = largest[~((largest > 0) & (largest < np.inf))][0]
        if not math.isfinite(first):
            raise ValueError("query has a NaN or infinite component")
        raise ValueError("cosine undefined for zero-norm query")
    return np.ldexp(queries, -np.frexp(largest)[1][:, None], dtype=np.float64)


def _survivors(approx: np.ndarray, k: int, margin: np.float32, unswept: np.ndarray) -> np.ndarray | None:
    """Rows of one query's approximate scores that can be in its exact top k:
    those at or above the k-th best minus ``margin``, plus the unswept rows
    (whose approximate score is -inf). None, for every row, when that
    threshold is -inf or k covers every row."""
    n = approx.shape[0]
    if k >= n:
        return None
    threshold = np.partition(approx, n - k)[n - k] - margin
    if not threshold > -np.inf:
        return None
    rows = (approx >= threshold).nonzero()[0]
    return np.concatenate([rows, unswept]) if unswept.size else rows


def ordered_entries(ids, scores: np.ndarray, k: int) -> list[tuple[str, float]]:
    """The k best (id, score) entries by ``kernels.top_indices``."""
    best = kernels.top_indices(scores, ids, k).tolist()
    values = scores.tolist()
    return [(ids[i], values[i]) for i in best]


def _rank_block(queries: np.ndarray, store: Store, k: int, query_ids: list[str]) -> list[Ranking]:
    """top_k for each row of ``queries`` (b, d), float64 rows from ``_check_queries``.

    One float32 sweep of the block; per query, its k-th-value partition and its
    survivors; then one gather and one ``kernels.exact_cosines`` pass for the
    survivors of a run of consecutive whole queries, each survivor against its
    own query's row (a run of one query passes its one row), the run's gathered
    reference and query rows within the block's tile unless it holds one query
    only; then ``ordered_entries`` per query. A query whose survivors are every
    row is scored from the matrix itself."""
    index, refs, ref_ids = store.cosine_index, store.ref_image, store.ref_ids
    if queries.shape[1] > 8192:
        # numpy's einsum sums a float64 row longer than its 8192-element buffer in one piece
        # when the row is alone and in buffer-sized pieces among other rows: such queries
        # take their norms one at a time, as a lone query does
        qnorms = np.concatenate([kernels.row_norms(q) for q in queries[:, None]])
    else:
        qnorms = kernels.row_norms(queries)
    approx = kernels.cosine_scores(queries / qnorms[:, None], refs, index.norms)
    if index.unswept.size:
        approx[:, index.unswept] = -np.inf
    margin = kernels.survivor_margin(queries.shape[1])
    # a pass gathers no more than the block's tile holds, so a pass at most doubles the sweep's memory
    pass_rows = approx.nbytes // (queries.shape[1] * (refs.itemsize + queries.itemsize))
    out: list[Ranking | None] = [None] * len(query_ids)

    def rescore(run: list[tuple[int, np.ndarray]]) -> None:
        if len(run) == 1:
            (i, rows), = run
            rowq, normq = queries[i:i + 1], qnorms[i:i + 1]
        else:
            rows = np.concatenate([r for _, r in run])
            owner = np.repeat([i for i, _ in run], [r.size for _, r in run])
            rowq, normq = queries[owner], qnorms[owner]
        gathered = refs[rows]
        scores = kernels.exact_cosines(gathered, rowq, normq, kernels.row_norms(gathered))
        ids = [ref_ids[r] for r in rows.tolist()]
        end = 0
        for i, r in run:
            start, end = end, end + r.size
            out[i] = Ranking(query_id=query_ids[i], entries=ordered_entries(ids[start:end], scores[start:end], k))

    run, held, all_norms = [], 0, None
    for i, qid in enumerate(query_ids):
        rows = _survivors(approx[i], k, margin, index.unswept)
        if rows is None:
            if all_norms is None:
                all_norms = kernels.row_norms(refs)
            scores = kernels.exact_cosines(refs, queries[i:i + 1], qnorms[i:i + 1], all_norms)
            out[i] = Ranking(query_id=qid, entries=ordered_entries(ref_ids, scores, k))
            continue
        if run and held + rows.size > pass_rows:
            rescore(run)
            run, held = [], 0
        run.append((i, rows))
        held += rows.size
    if run:
        rescore(run)
    return out


def top_k(query_emb: np.ndarray, store: Store, k: int, query_id: str = "") -> Ranking:
    """The k most cosine-similar references; ties broken by ascending id."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return _rank_block(_check_queries(np.asarray(query_emb)[None], store), store, k, [query_id])[0]


def brute_force_rank(query_emb: np.ndarray, store: Store, query_id: str = "") -> Ranking:
    """Exhaustive exact ordering of every reference; oracle for top_k.

    Every row is scored with the float64 formula and the whole list ordered
    by ``kernels.top_indices``: no sweep, no selection, no cached index.
    """
    q = _check_queries(np.asarray(query_emb)[None], store)
    refs = store.ref_image
    scores = kernels.exact_cosines(refs, q, kernels.row_norms(q), kernels.row_norms(refs))
    return Ranking(query_id=query_id, entries=ordered_entries(store.ref_ids, scores, len(scores)))


def rank_store_queries(store: Store, k: int) -> list[Ranking]:
    """top_k for every query in the store, in store order, one float32 GEMM
    per block of queries."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    block = max(1, SCORE_TILE_BYTES // (_TILE_BYTES_PER_SCORE * max(1, len(store.ref_ids))))
    out = []
    for start in range(0, len(store.query_ids), block):
        queries = _check_queries(store.query_image[start:start + block], store)
        out.extend(_rank_block(queries, store, k, store.query_ids[start:start + block]))
    return out


def refuse_repeats(ids, what: str) -> None:
    """Raise ValueError naming the first of ``ids`` that an earlier one equals."""
    seen = set()
    for i in ids:
        if i in seen:
            raise ValueError(f"{what} '{i}' is listed twice")
        seen.add(i)


def save_rankings(rankings: list[Ranking], path: str | Path) -> None:
    """One ranking per line through ``write_jsonl``. A query or a candidate listed twice, which
    ``load_rankings`` refuses, or a NaN or infinite score raises ValueError and leaves ``path`` as it was."""
    refuse_repeats((r.query_id for r in rankings), "query")
    for r in rankings:
        refuse_repeats(r.ids(), f"query '{r.query_id}': candidate")
    write_jsonl(({"query_id": r.query_id, "entries": [[rid, s] for rid, s in r.entries]}
                 | ({"reranked": True} if r.reranked else {}) for r in rankings), path)


def _ranking(rec: dict) -> Ranking:
    if not isinstance(rec["query_id"], str):
        raise TypeError("'query_id' is not a string")
    entries = [(rid, s) for rid, s in rec["entries"]]
    for rid, s in entries:
        if not isinstance(rid, str) or type(s) not in (int, float):  # bool, an int subclass, is no score
            raise TypeError(f"entry {json.dumps([rid, s])} is not a [string id, number] pair")
        if not math.isfinite(s):
            raise ValueError(f"candidate '{rid}' has score {s}")
    refuse_repeats((rid for rid, _ in entries), "candidate")
    reranked = rec.get("reranked", False)
    if type(reranked) is not bool:
        raise TypeError(f"'reranked' {json.dumps(reranked)} is not true or false")
    return Ranking(query_id=rec["query_id"], entries=[(rid, float(s)) for rid, s in entries], reranked=reranked)


def load_rankings(path: str | Path, store: Store | None = None) -> list[Ranking]:
    """One ranking per line; an id that is not a string, a score that is not
    a finite JSON number, a ``reranked`` that is not a JSON boolean, a
    candidate listed twice or a query id seen before raises IngestError
    naming the file and line. Given ``store``, a query id or candidate id
    the store lacks raises IngestError naming the file, the line and the
    id."""
    unknown = None if store is None else lambda r: store.unknown_id(r.query_id, r.ids())
    return load_jsonl(path, _ranking, "ranking record", key=lambda r: r.query_id, unknown=unknown)
