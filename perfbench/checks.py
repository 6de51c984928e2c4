"""Computations the benchmark makes apart from georank, to check its outputs.

Nothing here imports georank: the cosine ranking, the scorer forward pass and
the recall counts are written from the documented formats and formulas, so a
fault in the program cannot hide in the reference it is checked against.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

# float64 scores may differ from the program's by a few ulps (GEMM versus GEMV
# accumulation order); ids whose scores lie this close count as tied.
SCORE_TIE_TOL = 1e-12
# The program scores in float32; the reference forward pass runs in float64.
RERANK_SCORE_ATOL = 1e-4
_TINY32 = np.finfo(np.float32).tiny


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's own computation."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# phase-1 ranking
# ---------------------------------------------------------------------------

class CosineOracle:
    """Exact float64 cosine top-k by (score desc, id asc), computed in row blocks."""

    BLOCK = 4096

    def __init__(self, ref_image: np.ndarray, ref_ids: list[str], k: int):
        self.refs = ref_image
        self.ids = ref_ids
        self.k = k
        order = sorted(range(len(ref_ids)), key=ref_ids.__getitem__)
        self.id_rank = np.empty(len(ref_ids), np.int64)
        self.id_rank[order] = np.arange(len(ref_ids))
        self.norms = np.concatenate([
            np.sqrt(np.einsum("ij,ij->i", b, b)) for b in self._blocks()
        ])

    def _blocks(self):
        for start in range(0, self.refs.shape[0], self.BLOCK):
            yield self.refs[start:start + self.BLOCK].astype(np.float64)

    def scores(self, query: np.ndarray, rows: np.ndarray) -> np.ndarray:
        q = query.astype(np.float64)
        r = self.refs[rows].astype(np.float64)
        return np.clip((r @ q) / (math.sqrt(q @ q) * self.norms[rows]), -1.0, 1.0)

    def top(self, queries: np.ndarray) -> list[tuple[list[str], np.ndarray]]:
        """Best k (ids, scores) for each row of ``queries``."""
        q = queries.astype(np.float64)
        qn = np.sqrt(np.einsum("ij,ij->i", q, q))
        best = [np.empty(0, np.int64)] * len(q)
        best_s = [np.empty(0)] * len(q)
        start = 0
        for block in self._blocks():
            n = block.shape[0]
            s = np.clip((block @ q.T) / (self.norms[start:start + n, None] * qn[None, :]), -1.0, 1.0)
            for j in range(len(q)):
                rows = np.concatenate([best[j], np.arange(start, start + n)])
                sc = np.concatenate([best_s[j], s[:, j]])
                keep = np.lexsort((self.id_rank[rows], -sc))[: self.k]
                best[j], best_s[j] = rows[keep], sc[keep]
            start += n
        return [([self.ids[i] for i in rows], sc) for rows, sc in zip(best, best_s)]


def check_top_k(ids: list[str], expected_ids: list[str], expected_scores: np.ndarray,
                query: np.ndarray, oracle: CosineOracle, pos: dict[str, int], what: str) -> None:
    """``ids`` must equal the oracle's order, up to ties within SCORE_TIE_TOL."""
    if ids == expected_ids:
        return
    require(len(ids) == len(expected_ids) and len(set(ids)) == len(ids), f"{what}: wrong length or duplicates")
    got = oracle.scores(query, np.array([pos[i] for i in ids]))
    for a in range(len(ids) - 1):
        require(got[a] >= got[a + 1] - SCORE_TIE_TOL, f"{what}: {ids[a]} ranked above a better id")
    require(got[-1] >= expected_scores[-1] - SCORE_TIE_TOL, f"{what}: {ids[-1]} is not among the best {len(ids)}")


# ---------------------------------------------------------------------------
# phase-2 scorer, from the GVCK checkpoint layout
# ---------------------------------------------------------------------------

def read_checkpoint(path: Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Config and model tensors of a GVCK file (optimizer ``opt.*`` tensors skipped)."""
    data = Path(path).read_bytes()
    require(data[:4] == b"GVCK", f"{path}: bad checkpoint magic")
    _, cfg_len = struct.unpack_from("<II", data, 4)
    off = 12 + cfg_len
    config = json.loads(data[12:off].decode("utf-8"))
    tensors = {}
    while off < len(data):
        (name_len,) = struct.unpack_from("<I", data, off)
        name = data[off + 4: off + 4 + name_len].decode("utf-8")
        off += 4 + name_len
        (rank,) = struct.unpack_from("<I", data, off)
        dims = struct.unpack_from(f"<{rank}Q", data, off + 4)
        off += 4 + 8 * rank
        count = int(np.prod(dims)) if rank else 1
        arr = np.frombuffer(data, "<f4", count, off).reshape(dims)
        off += 4 * count
        if not name.startswith("opt."):
            tensors[name] = arr.astype(np.float64)
    return config, tensors


class Scorer:
    """Project + fuse, Linear/LayerNorm/ReLU aligner blocks, bilinear logit, sigmoid."""

    def __init__(self, checkpoint: Path):
        self.config, self.t = read_checkpoint(checkpoint)

    def _aligned(self, img: np.ndarray, txt: np.ndarray, side: str) -> np.ndarray:
        t = self.t
        sfx = "" if self.config["shared_projections"] else ("_q" if side == "query" else "_r")
        x = (img.astype(np.float64) @ t[f"proj_img{sfx}.w"].T + t[f"proj_img{sfx}.b"]
             + txt.astype(np.float64) @ t[f"proj_txt{sfx}.w"].T + t[f"proj_txt{sfx}.b"])
        for i in range(self.config["aligner_layers"]):
            z = x @ t[f"align{i}.w"].T + t[f"align{i}.b"]
            zc = z - z.mean(axis=-1, keepdims=True)
            var = (zc * zc).mean(axis=-1, keepdims=True)
            y = t[f"align{i}.ln_scale"] * zc / np.sqrt(var + self.config["ln_epsilon"]) + t[f"align{i}.ln_shift"]
            x = np.maximum(y, 0.0)
        return x

    def scores(self, q_img, q_txt, c_img, c_txt) -> np.ndarray:
        aq = self._aligned(np.atleast_2d(q_img), np.atleast_2d(q_txt), "query")[0]
        ar = self._aligned(c_img, c_txt, "reference")
        logits = ar @ (self.t["score.w"] @ aq) + float(self.t["score.b"])
        return 0.5 * (1.0 + np.tanh(0.5 * logits))


def check_rerank(cand_ids: list[str], entries: list[tuple[str, float]], expected: np.ndarray, what: str) -> None:
    """A permutation of the candidates, in (score desc, id asc) order, with the reference scores."""
    ids = [rid for rid, _ in entries]
    require(sorted(ids) == sorted(cand_ids), f"{what}: reranking is not a permutation of its input")
    for (a, sa), (b, sb) in zip(entries, entries[1:]):
        require(sa > sb or (sa == sb and a < b), f"{what}: {a} before {b} breaks (score desc, id asc)")
    by_id = dict(entries)
    got = np.array([by_id[i] for i in cand_ids])
    err = float(np.max(np.abs(got - expected)))
    require(err <= RERANK_SCORE_ATOL, f"{what}: scores differ from the reference forward pass by {err:.2e}")


# ---------------------------------------------------------------------------
# evaluation, ingestion, training
# ---------------------------------------------------------------------------

def recall_count(rankings: list[list[str]], truth: list[set[str]], k: int) -> int:
    return sum(any(r in t for r in ids[:k]) for ids, t in zip(rankings, truth))


def check_report(report: dict, base: list[list[str]], rr: list[list[str]], truth: list[set[str]],
                 ks=(1, 5, 10)) -> None:
    """A compare report in its JSON form (``report.json``) against the benchmark's own
    recall counts: R@10 unmoved by reranking, and 0 km threshold recall equal to R@k."""
    n = len(base)
    for k in ks:
        for side, ranks in (("baseline", base), ("reranked", rr)):
            want = recall_count(ranks, truth, k) / n
            require(report["recall"][str(k)][side] == want, f"compare: {side} R@{k} is not {want}")
            require(report["threshold_recall"]["0"][str(k)][side] == want,
                    f"compare: {side} 0 km recall@{k} differs from exact-hit recall {want}")
    require(recall_count(rr, truth, 10) == recall_count(base, truth, 10), "compare: reranking moved R@10")


def float32_digest(rows) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(np.ascontiguousarray(row, dtype="<f4"))
    return h.hexdigest()


def coords_digest(lat: list[float], lon: list[float]) -> str:
    return hashlib.sha256(json.dumps([lat, lon]).encode("ascii")).hexdigest()


def subnormal_count(grads: dict) -> int:
    """Nonzero gradient elements below the smallest normal float32."""
    return sum(int(np.count_nonzero((g != 0) & (np.abs(g) < _TINY32))) for g in grads.values())
