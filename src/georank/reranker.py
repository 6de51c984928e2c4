"""Pair scoring network: project image+text to a shared latent space, fuse by
element-wise sum, align each side with FC+LayerNorm+ReLU blocks, then score
query/reference pairs through a bilinear map and a sigmoid. The hand-derived
backward pass of those logits, ``logit_gradients``, sits beside the forward.

Parameters are a name -> array mapping so the optimizer, gradient checker,
and checkpoint format all see the same named tensors; the arrays are views of
one contiguous vector, so the optimizer updates them all at once.

``rerank_many`` keeps the aligned rows of the references it has scored, per
store and per read-only params (``load_params``), and projects and aligns each
reference row once in a zero-padded block of ``ROW_BLOCK`` rows; queries are
aligned apart from them, in zero-padded blocks of ``QUERY_BLOCK`` rows.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import struct
import weakref
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geostore import FormatError, Store, QueryRecord, atomic_write
from .retriever import Ranking

CKPT_MAGIC = b"GVCK"
CKPT_VERSION = 1

# sigmoid outputs clamped to the open interval so scores are strictly in (0,1)
_SCORE_FLOOR = np.nextafter(0.0, 1.0)
_SCORE_CEIL = np.nextafter(1.0, 0.0)

# Rows per block in which ``rerank_many`` projects and aligns references, and
# rows per block in which it aligns queries; the two never share a block. In
# float32 a row's result from a zero-padded block of either size does not
# depend on its position, its neighbours or the padding, so a cached row is
# the row any later block would compute, and a query's scores do not depend on
# which queries share its block. A row of a 4-row block need not round like a
# row of a 16-row block.
ROW_BLOCK = 16
QUERY_BLOCK = 4

# The scorer's fixed shape: query and reference share the projections, and
# the aligner is ALIGNER_LAYERS blocks (latent -> hidden -> latent) whose
# LayerNorm adds LN_EPSILON to the variance. Every checkpoint's config block
# records these values under the keys of FIXED_CONFIG, and a block holding
# any other value is refused.
ALIGNER_LAYERS = 2
LN_EPSILON = 1e-5
FIXED_CONFIG = {"aligner_layers": ALIGNER_LAYERS, "ln_epsilon": LN_EPSILON, "shared_projections": True}


@dataclass
class RerankerConfig:
    image_dim: int = 1024
    text_dim: int = 1536
    latent_dim: int = 512
    aligner_hidden: int = 512
    init_seed: int = 0

    def validate(self) -> None:
        for name in ("image_dim", "text_dim", "latent_dim", "aligner_hidden"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.init_seed < 0:
            raise ValueError(f"init_seed must be >= 0, got {self.init_seed}")

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self) | FIXED_CONFIG, sort_keys=True, separators=(",", ":"),
                          allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "RerankerConfig":
        values = json.loads(text)
        if not isinstance(values, dict):
            raise ValueError("not a JSON object")
        for key, fixed in FIXED_CONFIG.items():
            if key not in values:
                raise ValueError(f"no '{key}' key")
            value = values.pop(key)
            if type(value) is not type(fixed) or value != fixed:
                raise ValueError(f"'{key}' is {json.dumps(value)}; this scorer has {json.dumps(fixed)}")
        cfg = cls(**values)
        cfg.validate()
        return cfg


def expected_shapes(config: RerankerConfig) -> dict[str, tuple[int, ...]]:
    """Canonical tensor names and shapes; also fixes the init draw order."""
    h, hid = config.latent_dim, config.aligner_hidden
    shapes: dict[str, tuple[int, ...]] = {
        "proj_img.w": (h, config.image_dim),
        "proj_img.b": (h,),
        "proj_txt.w": (h, config.text_dim),
        "proj_txt.b": (h,),
    }
    for i, (d_in, d_out) in enumerate(((h, hid), (hid, h))):
        shapes[f"align{i}.w"] = (d_out, d_in)
        shapes[f"align{i}.b"] = (d_out,)
        shapes[f"align{i}.ln_scale"] = (d_out,)
        shapes[f"align{i}.ln_shift"] = (d_out,)
    shapes["score.w"] = (h, h)
    shapes["score.b"] = ()
    return shapes


class TensorViews(Mapping):
    """Read-only name -> array mapping whose arrays are views of one flat
    vector, ``flat``, laid out in the order of ``shapes``.

    Writing into a view writes into ``flat``, and ``views[name] += x`` works
    because the in-place result is the view itself; binding a name to any
    other array raises ``TypeError``, since that array would not be in
    ``flat``.
    """

    def __init__(self, flat: np.ndarray, shapes: dict[str, tuple[int, ...]]):
        self.flat = flat
        self._views: dict[str, np.ndarray] = {}
        offset = 0
        for name, shape in shapes.items():
            size = math.prod(shape)
            self._views[name] = flat[offset : offset + size].reshape(shape)
            offset += size
        if offset != flat.size:
            raise ValueError(f"layout covers {offset} elements, flat vector has {flat.size}")

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    def __setitem__(self, name: str, value) -> None:
        if value is not self._views.get(name):
            raise TypeError(f"cannot rebind tensor '{name}': it is a view of one flat vector; assign into it in place")

    def __iter__(self):
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)


class RerankerParams:
    """Named parameter tensors plus the config they were built for.

    ``tensors`` is a ``TensorViews`` over one contiguous vector, ``flat``,
    in ``expected_shapes`` order. Construction copies the given arrays into
    it and rejects missing, extra or misshapen tensors. ``copy`` and
    ``astype`` give writable params, whatever ``flat``'s flags.
    """

    def __init__(self, config: RerankerConfig, tensors: Mapping[str, np.ndarray]):
        shapes = expected_shapes(config)
        if set(tensors) != set(shapes):
            missing = set(shapes) - set(tensors)
            extra = set(tensors) - set(shapes)
            raise ValueError(f"parameter names mismatch (missing {sorted(missing)}, extra {sorted(extra)})")
        for name, shape in shapes.items():
            if np.shape(tensors[name]) != shape:
                raise ValueError(f"tensor '{name}' has shape {np.shape(tensors[name])}, expected {shape}")
        flat = np.empty(sum(math.prod(s) for s in shapes.values()), np.result_type(*tensors.values()))
        self.config = config
        self.tensors = TensorViews(flat, shapes)
        self._reference_rows = weakref.WeakKeyDictionary()
        for name, view in self.tensors.items():
            view[...] = tensors[name]

    @classmethod
    def from_flat(cls, config: RerankerConfig, flat: np.ndarray) -> "RerankerParams":
        """Params whose tensors are views of ``flat`` itself, not a copy."""
        params = cls.__new__(cls)
        params.config = config
        params.tensors = TensorViews(flat, expected_shapes(config))
        params._reference_rows = weakref.WeakKeyDictionary()
        return params

    @property
    def flat(self) -> np.ndarray:
        return self.tensors.flat

    def validate(self) -> None:
        for name, t in self.tensors.items():
            if not np.all(np.isfinite(t)):
                raise ValueError(f"tensor '{name}' contains NaN/Inf")

    @property
    def dtype(self):
        return self.flat.dtype

    def astype(self, dtype) -> "RerankerParams":
        return RerankerParams.from_flat(self.config, self.flat.astype(dtype))

    def copy(self) -> "RerankerParams":
        return RerankerParams.from_flat(self.config, self.flat.copy())

    def digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.tensors):
            h.update(name.encode("utf-8"))
            h.update(np.asarray(self.tensors[name], dtype="<f4").tobytes())
        return h.hexdigest()


def init_params(config: RerankerConfig) -> RerankerParams:
    """Uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases, identity LayerNorm."""
    config.validate()
    rng = np.random.default_rng(config.init_seed)
    tensors: dict[str, np.ndarray] = {}
    for name, shape in expected_shapes(config).items():
        if name.endswith(".w"):
            fan_out, fan_in = (shape[0], shape[1]) if len(shape) == 2 else (shape[0], shape[0])
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            tensors[name] = rng.uniform(-bound, bound, size=shape).astype(np.float32)
        elif name.endswith(".ln_scale"):
            tensors[name] = np.ones(shape, np.float32)
        else:
            tensors[name] = np.zeros(shape, np.float32)
    return RerankerParams(config, tensors)


# ---------------------------------------------------------------------------
# forward pieces
# ---------------------------------------------------------------------------

def _linear(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w.T`` for (m, k) rows ``x`` and an (n, k) weight ``w``, computed
    as ``(w @ x.T).T``: for a few rows against a wide weight, OpenBLAS runs
    ``x @ w.T`` on a path that spends its time packing ``w``, and the swapped
    product on its fast one. In float32 both run the same kernel with the
    same accumulation order, so the result is bit for bit ``x @ w.T``.
    """
    return np.ascontiguousarray((w @ x.T).T)


def row_mean(z: np.ndarray) -> np.ndarray:
    """``z.mean(axis=-1, keepdims=True)``, bit for bit, without the Python
    wrapper of ``np.mean``, which at the aligner's widths costs as much as
    the sum itself."""
    return np.add.reduce(z, axis=-1, keepdims=True) / z.shape[-1]


def project_fuse(image_emb: np.ndarray, text_emb: np.ndarray, params: RerankerParams) -> np.ndarray:
    """Element-wise sum of the projected image and text embeddings; query and
    reference share the projections."""
    wi, bi, wt, bt = (params.tensors[n] for n in ("proj_img.w", "proj_img.b", "proj_txt.w", "proj_txt.b"))
    dt = params.dtype
    img = np.atleast_2d(np.asarray(image_emb, dtype=dt))
    txt = np.atleast_2d(np.asarray(text_emb, dtype=dt))
    if img.shape[1] != wi.shape[1]:
        raise ValueError(f"image dim {img.shape[1]} does not match projection {wi.shape[1]}")
    if txt.shape[1] != wt.shape[1]:
        raise ValueError(f"text dim {txt.shape[1]} does not match projection {wt.shape[1]}")
    fused = (_linear(img, wi) + bi) + (_linear(txt, wt) + bt)
    return fused if np.ndim(image_emb) == 2 else fused[0]


def aligner_blocks(params: RerankerParams) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    return [
        (
            params.tensors[f"align{i}.w"],
            params.tensors[f"align{i}.b"],
            params.tensors[f"align{i}.ln_scale"],
            params.tensors[f"align{i}.ln_shift"],
        )
        for i in range(ALIGNER_LAYERS)
    ]


def align(fused: np.ndarray, params: RerankerParams, cache: list | None = None) -> np.ndarray:
    """Linear -> LayerNorm -> ReLU blocks applied to fused vectors.

    Given a ``cache`` list, each block appends its (input, normalised,
    1/std, pre-ReLU output) rows, which ``logit_gradients`` reads.
    """
    dt = params.dtype
    x = np.atleast_2d(np.asarray(fused, dtype=dt))
    if x.shape[1] != params.config.latent_dim:
        raise ValueError(f"fused dim {x.shape[1]} does not match latent_dim {params.config.latent_dim}")
    for w, b, scale, shift in aligner_blocks(params):
        z = _linear(x, w) + b
        mu = row_mean(z)
        zc = z - mu
        var = row_mean(zc * zc)
        inv = 1.0 / np.sqrt(var + LN_EPSILON)
        xhat = zc * inv
        y = scale * xhat + shift
        if cache is not None:
            cache.append((x, xhat, inv, y))
        x = np.maximum(y, 0)
    return x if np.ndim(fused) == 2 else x[0]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return np.clip(out, _SCORE_FLOOR, _SCORE_CEIL)


def score_logits(
    query_img: np.ndarray,
    query_txt: np.ndarray,
    cand_img: np.ndarray,
    cand_txt: np.ndarray,
    params: RerankerParams,
    counts=None,
    cache: dict | None = None,
) -> np.ndarray:
    """Pre-sigmoid pair logits of B queries against one stack of their candidates.

    Queries are (B, dim) rows, or a single 1-D query. Candidates are one
    (sum(counts), dim) stack: the first ``counts[0]`` rows belong to query 0,
    the next ``counts[1]`` to query 1, and so on. ``counts`` defaults to every
    row belonging to a single query. Each candidate's logit is its aligned row
    dotted with its own query's row of ``u = aligned_q @ score.w.T``, plus
    ``score.b``.

    Both sides share the aligner, so the query rows and then the candidate
    rows go through it in one pass. Given a ``cache`` dict, everything
    ``logit_gradients`` reads is stored in it, among which ``segment`` (each
    candidate row's query index) and ``starts`` (each query's first row).
    """
    query_img, query_txt = np.atleast_2d(query_img), np.atleast_2d(query_txt)
    cache_align = None if cache is None else cache.setdefault("cache_align", [])
    fused_q = project_fuse(query_img, query_txt, params)
    fused_c = project_fuse(cand_img, cand_txt, params)
    aligned = align(np.concatenate([fused_q, fused_c]), params, cache_align)
    aligned_q, aligned_c = aligned[: len(fused_q)], aligned[len(fused_q) :]
    counts = [len(aligned_c)] if counts is None else counts
    segment = np.repeat(np.arange(len(aligned_q)), counts)
    if len(segment) != len(aligned_c):
        raise ValueError(f"candidate counts cover {len(segment)} rows, but {len(aligned_c)} candidates were given")
    logits, u_c = _bilinear(aligned_q, aligned_c, segment, params)
    if cache is not None:
        cache.update(inputs=(query_img, query_txt, cand_img, cand_txt), aligned_q=aligned_q, aligned_c=aligned_c,
                     segment=segment, starts=np.cumsum(counts) - counts, u_c=u_c)
    return logits


def _bilinear(aligned_q: np.ndarray, aligned_c: np.ndarray, segment: np.ndarray, params: RerankerParams):
    """Float64 logits ``a_r·u + b`` of aligned candidate rows, each with the
    ``u = a_q·Wᵀ`` of its own query (``segment`` holds its query's row), and
    those ``u`` rows."""
    u_c = _linear(aligned_q, params.tensors["score.w"])[segment]
    return np.asarray(np.einsum("ij,ij->i", aligned_c, u_c) + params.tensors["score.b"], np.float64), u_c


def logit_gradients(cache: dict, g_logit: np.ndarray, params: RerankerParams) -> TensorViews:
    """Gradient of ``sum(g_logit * logit)`` for the ``score_logits`` call that
    filled ``cache``, as views of one zeroed vector laid out like
    ``params.flat``. Per-query sums are segment reductions over the stacked
    candidate rows, so each weight gradient is one product over every row."""
    grads = TensorViews(np.zeros_like(params.flat), expected_shapes(params.config))
    aligned_q, aligned_c = cache["aligned_q"], cache["aligned_c"]
    grads["score.b"] += np.asarray(g_logit.sum(), params.dtype)
    s_q = np.add.reduceat(g_logit[:, None] * aligned_c, cache["starts"], axis=0)
    grads["score.w"] += s_q.T @ aligned_q
    dout = np.concatenate([s_q @ params.tensors["score.w"], g_logit[:, None] * cache["u_c"]])

    blocks = aligner_blocks(params)
    for i in reversed(range(len(blocks))):
        w, b, scale, shift = blocks[i]
        x_in, xhat, inv, y = cache["cache_align"][i]
        dy = dout * (y > 0)
        grads[f"align{i}.ln_scale"] += (dy * xhat).sum(axis=0)
        grads[f"align{i}.ln_shift"] += dy.sum(axis=0)
        dxhat = dy * scale
        m1 = row_mean(dxhat)
        m2 = row_mean(dxhat * xhat)
        dz = inv * (dxhat - m1 - xhat * m2)
        grads[f"align{i}.w"] += dz.T @ x_in
        grads[f"align{i}.b"] += dz.sum(axis=0)
        dout = dz @ w

    q_img, q_txt, c_img, c_txt = cache["inputs"]
    # the query side's terms, then the reference side's, into the shared projections
    for d_fused, img, txt in ((dout[: len(aligned_q)], q_img, q_txt), (dout[len(aligned_q) :], c_img, c_txt)):
        grads["proj_img.w"] += d_fused.T @ img
        grads["proj_img.b"] += d_fused.sum(axis=0)
        grads["proj_txt.w"] += d_fused.T @ txt
        grads["proj_txt.b"] += d_fused.sum(axis=0)
    return grads


def score_candidates(query_img, query_txt, cand_img, cand_txt, params: RerankerParams) -> np.ndarray:
    return _sigmoid(score_logits(query_img, query_txt, cand_img, cand_txt, params))


def gather_candidates(store: Store, ids) -> tuple[np.ndarray, np.ndarray]:
    """Stacked (m, image_dim) image and (m, text_dim) text embeddings of reference ``ids``."""
    return _gather_rows(store, store.ref_rows(ids))


def _gather_rows(store: Store, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    missing = np.flatnonzero(~store.refs.has_text[rows])
    if missing.size:
        raise ValueError(f"candidate '{store.ref_ids[rows[missing[0]]]}' has no text embedding")
    return store.refs.image[rows], store.refs.text[rows]


def _align_block(fused: np.ndarray, params: RerankerParams) -> np.ndarray:
    """``align`` of at most QUERY_BLOCK fused query rows, run as one zero-padded block of QUERY_BLOCK rows."""
    block = np.zeros((QUERY_BLOCK, fused.shape[1]), params.dtype)
    block[: len(fused)] = fused
    return align(block, params)[: len(fused)]


class ReferenceRows:
    """Aligned rows of one store's references under one set of params, each
    computed the first time it is asked for. ``slot`` maps a store row to its
    row of ``aligned`` (-1 while not computed); ``aligned`` grows as rows are
    added, so memory follows the rows touched, not the store's size. It takes
    no lock: threads that rerank at once should each load their own params."""

    def __init__(self, store: Store, params: RerankerParams):
        self.slot = np.full(len(store.ref_ids), -1, np.int32)
        self.aligned = np.empty((min(ROW_BLOCK, len(store.ref_ids)), params.config.latent_dim), params.dtype)
        self.count = 0

    def fill(self, rows: np.ndarray, store: Store, params: RerankerParams) -> None:
        """Compute the store ``rows`` not yet cached, ROW_BLOCK at a time in zero-padded blocks."""
        missing = rows[self.slot[rows] < 0]
        if missing.size:  # a warm call has none, and np.unique of nothing costs a few microseconds
            missing = np.unique(missing)
        for lo in range(0, len(missing), ROW_BLOCK):
            block = missing[lo : lo + ROW_BLOCK]
            n = len(block)
            img, txt = (np.zeros((ROW_BLOCK, col.shape[1]), col.dtype) for col in (store.refs.image, store.refs.text))
            img[:n], txt[:n] = _gather_rows(store, block)
            self._append(block, align(project_fuse(img, txt, params), params)[:n])

    def lookup(self, rows: np.ndarray) -> np.ndarray:
        """Aligned rows of store ``rows``, all of which ``fill`` has computed."""
        return self.aligned[self.slot[rows]]

    def _append(self, rows: np.ndarray, aligned: np.ndarray) -> None:
        end = self.count + len(rows)
        if end > len(self.aligned):
            size = max(end, min(2 * len(self.aligned), len(self.slot)))  # never more rows than the store has
            grown = np.empty((size, self.aligned.shape[1]), self.aligned.dtype)
            grown[: self.count] = self.aligned[: self.count]
            self.aligned = grown
        self.aligned[self.count : end] = aligned
        self.slot[rows] = np.arange(self.count, end)
        self.count = end


def reference_rows(store: Store, params: RerankerParams) -> ReferenceRows:
    """The aligned-row cache ``rerank_many`` reads for ``store`` under ``params``.
    Read-only params (as ``load_params`` returns them) keep one per store,
    held weakly; writable params may change between calls, so each call gets
    a new, empty one."""
    if params.flat.flags.writeable:
        return ReferenceRows(store, params)
    if store not in params._reference_rows:
        params._reference_rows[store] = ReferenceRows(store, params)
    return params._reference_rows[store]


def order_by_score(ids, scores) -> list[tuple[str, float]]:
    """(id, score) pairs by score descending, ties by ascending id."""
    order = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))
    return [(ids[i], float(scores[i])) for i in order]


def rerank_many(queries: list[QueryRecord], rankings: list[Ranking], params: RerankerParams,
                store: Store) -> list[Ranking]:
    """``rerank`` of each ranking with its query, the i-th of ``queries``.

    Every ranking's candidates are resolved first, and the rows not yet in
    ``reference_rows`` are computed for the whole set in full blocks. Each
    query is projected as one row, and the queries are aligned QUERY_BLOCK to
    a block; each ranking's logits are ``score_logits``'s bilinear tail with
    its own query's aligned row. Queries are walked a block at a time, so
    memory on their side stays fixed however many there are."""
    for q in queries:
        if q.text_emb is None:
            raise ValueError(f"query '{q.id}' has no text embedding")
    ids = [r.ids() for r in rankings]
    rows = [store.ref_rows(i) for i in ids]
    cache = reference_rows(store, params)
    cache.fill(np.concatenate(rows) if rows else np.empty(0, np.intp), store, params)
    out = []
    for lo in range(0, len(rankings), QUERY_BLOCK):
        fused_q = np.concatenate([project_fuse(q.image_emb[None], q.text_emb[None], params)
                                  for q in queries[lo : lo + QUERY_BLOCK]])
        for i, aligned_q in enumerate(_align_block(fused_q, params), start=lo):
            logits, _ = _bilinear(aligned_q[None], cache.lookup(rows[i]), np.zeros(len(ids[i]), np.intp), params)
            out.append(Ranking(query_id=queries[i].id, entries=order_by_score(ids[i], _sigmoid(logits)),
                               k=rankings[i].k, reranked=True))
    return out


def rerank(query: QueryRecord, ranking: Ranking, params: RerankerParams, store: Store) -> Ranking:
    """Reorder the candidate list by pair score, ties by id; the id set never changes."""
    return rerank_many([query], [ranking], params, store)[0]


# ---------------------------------------------------------------------------
# checkpoint format
# ---------------------------------------------------------------------------

def save_checkpoint(path: str | Path, config: RerankerConfig, tensors: dict[str, np.ndarray]) -> None:
    """GVCK file: magic, version, config JSON, then framed named f32 tensors."""
    cfg = config.to_json().encode("utf-8")
    with atomic_write(path) as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<II", CKPT_VERSION, len(cfg)))
        fh.write(cfg)
        for name, tensor in tensors.items():
            arr = np.asarray(tensor, dtype="<f4")  # ascontiguousarray would promote 0-d to 1-d
            nb = name.encode("utf-8")
            fh.write(struct.pack("<I", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<I", arr.ndim))
            for d in arr.shape:
                fh.write(struct.pack("<Q", d))
            fh.write(arr.tobytes())


class _Reader:
    def __init__(self, data: bytes, path):
        self.data = data
        self.off = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.data):
            raise FormatError(f"{self.path}: truncated checkpoint")
        chunk = self.data[self.off : self.off + n]
        self.off += n
        return chunk

    def done(self) -> bool:
        return self.off == len(self.data)


def load_checkpoint(path: str | Path) -> tuple[RerankerConfig, dict[str, np.ndarray]]:
    rd = _Reader(Path(path).read_bytes(), path)
    if rd.take(4) != CKPT_MAGIC:
        raise FormatError(f"{path}: bad magic, expected {CKPT_MAGIC!r}")
    version, cfg_len = struct.unpack("<II", rd.take(8))
    if version != CKPT_VERSION:
        raise FormatError(f"{path}: checkpoint version {version}, expected {CKPT_VERSION}")
    try:
        config = RerankerConfig.from_json(rd.take(cfg_len).decode("utf-8"))
    except (json.JSONDecodeError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: unreadable config block ({exc})") from None
    tensors: dict[str, np.ndarray] = {}
    while not rd.done():
        (name_len,) = struct.unpack("<I", rd.take(4))
        try:
            name = rd.take(name_len).decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{path}: tensor name is not UTF-8") from None
        if name in tensors:
            raise FormatError(f"{path}: tensor '{name}' appears twice")
        (rank,) = struct.unpack("<I", rd.take(4))
        dims = struct.unpack(f"<{rank}Q", rd.take(8 * rank)) if rank else ()
        # math.prod on Python ints cannot wrap, so huge dims fail as truncation
        payload = rd.take(math.prod(dims) * 4)
        try:
            tensors[name] = np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
        except ValueError as exc:  # zero-size, but more or larger dims than numpy allows
            raise FormatError(f"{path}: tensor '{name}' has an impossible shape ({exc})") from None
    return config, tensors


def save_params(path: str | Path, params: RerankerParams) -> None:
    save_checkpoint(path, params.config, params.tensors)


def load_params(path: str | Path) -> RerankerParams:
    """Load model tensors, read-only; optimizer-state tensors ('opt.*') are ignored.
    A missing, extra, misshapen or non-finite tensor is a ``FormatError``."""
    config, tensors = load_checkpoint(path)
    try:
        params = RerankerParams(config, {k: v for k, v in tensors.items() if not k.startswith("opt.")})
        params.validate()
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
    # read-only, so rerank can keep aligned reference rows across calls; the
    # views are taken again, because views taken before the flag stay writable
    params.flat.flags.writeable = False
    return RerankerParams.from_flat(config, params.flat)
