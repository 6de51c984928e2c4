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
import os
import struct
import weakref
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geostore import Columns, FormatError, QueryRecord, Store, atomic_write
from .retriever import Ranking, ordered_entries, refuse_repeats

CKPT_MAGIC = b"GVCK"
CKPT_VERSION = 1

# elements per isfinite pass of a loaded flat vector, so its mask stays small
FINITE_CHUNK = 1 << 16
# one float32 element, a zero-stride view of which stands in for a payload
# whose header's dims are tested before the payload is read
_ZERO = np.zeros((), "<f4")

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
        for field in dataclasses.fields(cls):  # all five are integers; a bool or a float is refused
            if field.name not in values:
                raise ValueError(f"no '{field.name}' key")
            if type(values[field.name]) is not int:
                raise ValueError(f"'{field.name}' {json.dumps(values[field.name])} is not an integer")
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


def _all_finite(flat: np.ndarray) -> bool:
    """Whether every element of ``flat`` is finite, tested FINITE_CHUNK
    elements at a time so the mask stays small."""
    mask = np.empty(min(flat.size, FINITE_CHUNK), bool)
    for lo in range(0, flat.size, FINITE_CHUNK):
        part = flat[lo : lo + FINITE_CHUNK]
        if not np.isfinite(part, out=mask[: part.size]).all():
            return False
    return True


class RerankerParams:
    """Named parameter tensors plus the config they were built for.

    ``tensors`` is a ``TensorViews`` over ``flat`` itself, not a copy, in
    ``expected_shapes`` order, which must cover ``flat`` exactly. ``copy``
    and ``astype`` give writable params, whatever ``flat``'s flags.
    """

    def __init__(self, config: RerankerConfig, flat: np.ndarray):
        self.config = config
        self.tensors = TensorViews(flat, expected_shapes(config))
        self._reference_rows = weakref.WeakKeyDictionary()

    @property
    def flat(self) -> np.ndarray:
        return self.tensors.flat

    def validate(self) -> None:
        """Raise ValueError naming the first tensor, in ``expected_shapes``
        order, that holds a NaN or an Inf, after one pass over ``flat``."""
        if not _all_finite(self.flat):
            bad = next(name for name, t in self.tensors.items() if not np.isfinite(t).all())
            raise ValueError(f"tensor '{bad}' contains NaN/Inf")

    @property
    def dtype(self):
        return self.flat.dtype

    def astype(self, dtype) -> "RerankerParams":
        return RerankerParams(self.config, self.flat.astype(dtype))

    def copy(self) -> "RerankerParams":
        return RerankerParams(self.config, self.flat.copy())

    def digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.tensors):
            h.update(name.encode("utf-8"))
            h.update(np.asarray(self.tensors[name], dtype="<f4").tobytes())
        return h.hexdigest()


def init_params(config: RerankerConfig) -> RerankerParams:
    """Uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases, identity LayerNorm,
    each weight drawn in ``expected_shapes`` order into its view of one float32 vector."""
    config.validate()
    rng = np.random.default_rng(config.init_seed)
    size = sum(math.prod(s) for s in expected_shapes(config).values())
    params = RerankerParams(config, np.zeros(size, np.float32))
    for name, view in params.tensors.items():
        if name.endswith(".w"):
            fan_out, fan_in = view.shape
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            view[...] = rng.uniform(-bound, bound, size=view.shape)
        elif name.endswith(".ln_scale"):
            view[...] = 1
    return params


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
    """Element-wise sum of the projected (rows, image_dim) image and (rows,
    text_dim) text embeddings; query and reference share the projections."""
    wi, bi, wt, bt = (params.tensors[n] for n in ("proj_img.w", "proj_img.b", "proj_txt.w", "proj_txt.b"))
    img, txt = np.asarray(image_emb, dtype=params.dtype), np.asarray(text_emb, dtype=params.dtype)
    if img.shape[1] != wi.shape[1]:
        raise ValueError(f"image dim {img.shape[1]} does not match projection {wi.shape[1]}")
    if txt.shape[1] != wt.shape[1]:
        raise ValueError(f"text dim {txt.shape[1]} does not match projection {wt.shape[1]}")
    return (_linear(img, wi) + bi) + (_linear(txt, wt) + bt)


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
    """Linear -> LayerNorm -> ReLU blocks applied to (rows, latent_dim) fused rows.

    Given a ``cache`` list, each block appends its (input, normalised,
    1/std, pre-ReLU output) rows, which ``logit_gradients`` reads.
    """
    x = np.asarray(fused, dtype=params.dtype)
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
    return x


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
    counts,
    cache: dict | None = None,
) -> np.ndarray:
    """Pre-sigmoid pair logits of B queries against one stack of their candidates.

    Queries are (B, dim) rows. Candidates are one (sum(counts), dim) stack:
    the first ``counts[0]`` rows belong to query 0, the next ``counts[1]`` to
    query 1, and so on. Each candidate's logit is its aligned row dotted with
    its own query's row of ``u = aligned_q @ score.w.T``, plus ``score.b``.

    Both sides share the aligner, so the query rows and then the candidate
    rows go through it in one pass. Given a ``cache`` dict, everything
    ``logit_gradients`` reads is stored in it, among which ``segment`` (each
    candidate row's query index) and ``starts`` (each query's first row).
    """
    cache_align = None if cache is None else cache.setdefault("cache_align", [])
    fused_q = project_fuse(query_img, query_txt, params)
    fused_c = project_fuse(cand_img, cand_txt, params)
    aligned = align(np.concatenate([fused_q, fused_c]), params, cache_align)
    aligned_q, aligned_c = aligned[: len(fused_q)], aligned[len(fused_q) :]
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


def scorer_inputs(side: Columns, rows: np.ndarray, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Copies of the image and text rows of ``side``, ``store.queries`` or
    ``store.refs``, at the store row indices ``rows``. A row without a text
    embedding raises ValueError naming the ``kind`` ("query" or
    "candidate") and id of the first."""
    lacking = ~side.has_text[rows]
    if lacking.any():
        raise ValueError(f"{kind} '{side.ids[rows[lacking][0]]}' has no text embedding")
    return side.image[rows], side.text[rows]


def _padded(rows: np.ndarray, size: int) -> np.ndarray:
    """``rows`` followed by zero rows, ``size`` rows in all."""
    block = np.zeros((size, rows.shape[1]), rows.dtype)
    block[: len(rows)] = rows
    return block


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
            img, txt = (_padded(x, ROW_BLOCK) for x in scorer_inputs(store.refs, block, "candidate"))
            self._append(block, align(project_fuse(img, txt, params), params)[: len(block)])

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


def rerank_many(rankings: list[Ranking], params: RerankerParams, store: Store) -> list[Ranking]:
    """``rerank`` of each ranking with its query, the store row its ``query_id`` names.

    Every ranking's candidates are resolved first, and the rows not yet in
    ``reference_rows`` are computed for the whole set in full blocks. The
    queries are gathered QUERY_BLOCK at a time, each projected as one row,
    and aligned as one zero-padded block; each ranking's logits are
    ``score_logits``'s bilinear tail with its own query's aligned row. Queries
    are walked a block at a time, so memory on their side stays fixed however
    many there are. Each ranking's candidates are ordered by
    ``kernels.top_indices``. A ranking that lists a candidate twice raises
    ValueError naming its query and that id before any row is aligned."""
    ids = [r.ids() for r in rankings]
    for r, candidates in zip(rankings, ids):
        refuse_repeats(candidates, f"query '{r.query_id}': candidate")
    q_rows = store.query_rows([r.query_id for r in rankings])
    rows = [store.ref_rows(i) for i in ids]
    cache = reference_rows(store, params)
    cache.fill(np.concatenate(rows) if rows else np.empty(0, np.intp), store, params)
    out = []
    for lo in range(0, len(rankings), QUERY_BLOCK):
        img, txt = scorer_inputs(store.queries, q_rows[lo : lo + QUERY_BLOCK], "query")
        fused_q = np.concatenate([project_fuse(img[j : j + 1], txt[j : j + 1], params) for j in range(len(img))])
        for i, aligned_q in enumerate(align(_padded(fused_q, QUERY_BLOCK), params)[: len(fused_q)], start=lo):
            logits, _ = _bilinear(aligned_q[None], cache.lookup(rows[i]), np.zeros(len(ids[i]), np.intp), params)
            entries = ordered_entries(ids[i], _sigmoid(logits), len(ids[i]))
            out.append(Ranking(query_id=rankings[i].query_id, entries=entries, reranked=True))
    return out


def rerank(query: QueryRecord, ranking: Ranking, params: RerankerParams, store: Store) -> Ranking:
    """Reorder the candidate list by pair score, ties by id; the id set never
    changes, and a candidate listed twice is refused as ``rerank_many``
    refuses it. ``query`` must be the query ``ranking`` is for; it is scored
    from its store row."""
    if query.id != ranking.query_id:
        raise ValueError(f"query '{query.id}' is not the query of the ranking, '{ranking.query_id}'")
    return rerank_many([ranking], params, store)[0]


# ---------------------------------------------------------------------------
# checkpoint format
# ---------------------------------------------------------------------------

def save_checkpoint(path: str | Path, config: RerankerConfig, tensors: Mapping[str, np.ndarray]) -> None:
    """GVCK file: magic, version, config JSON, then framed named f32 tensors.
    Each payload is written from the array's own buffer, copied only if the
    array is not already C-contiguous little-endian float32."""
    cfg = config.to_json().encode("utf-8")
    with atomic_write(path) as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<II", CKPT_VERSION, len(cfg)))
        fh.write(cfg)
        for name, tensor in tensors.items():
            arr = np.asarray(tensor, dtype="<f4")  # ascontiguousarray would promote 0-d to 1-d
            nb = name.encode("utf-8")
            fh.write(struct.pack(f"<I{len(nb)}sI{arr.ndim}Q", len(nb), nb, arr.ndim, *arr.shape))
            fh.write(np.ascontiguousarray(arr))


def _read_frames(fh, path) -> tuple[RerankerConfig, dict[str, tuple[tuple[int, ...], int]]]:
    """The config and, in file order, each tensor's shape and payload offset
    of the checkpoint open as ``fh``, read header by header: payloads are
    sought past, not read. Refusals come in file order, a frame's before the
    next one's; truncation is checked against the file's size."""
    size = os.fstat(fh.fileno()).st_size
    off = 0

    def take(n: int, skip: bool = False) -> bytes:
        nonlocal off
        if off + n > size:
            raise FormatError(f"{path}: truncated checkpoint")
        off += n
        if skip:
            fh.seek(off)
            return b""
        chunk = fh.read(n)
        if len(chunk) != n:  # the file shrank after it was measured
            raise FormatError(f"{path}: truncated checkpoint")
        return chunk

    if take(4) != CKPT_MAGIC:
        raise FormatError(f"{path}: bad magic, expected {CKPT_MAGIC!r}")
    version, cfg_len = struct.unpack("<II", take(8))
    if version != CKPT_VERSION:
        raise FormatError(f"{path}: checkpoint version {version}, expected {CKPT_VERSION}")
    try:
        config = RerankerConfig.from_json(take(cfg_len).decode("utf-8"))
    except (json.JSONDecodeError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: unreadable config block ({exc})") from None
    frames: dict[str, tuple[tuple[int, ...], int]] = {}
    while off < size:
        (name_len,) = struct.unpack("<I", take(4))
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{path}: tensor name is not UTF-8") from None
        if name in frames:
            raise FormatError(f"{path}: tensor '{name}' appears twice")
        (rank,) = struct.unpack("<I", take(4))
        dims = struct.unpack(f"<{rank}Q", take(8 * rank))
        # math.prod on Python ints cannot wrap, so huge dims fail as truncation
        count = math.prod(dims)
        frames[name] = dims, off
        take(4 * count, skip=True)
        try:
            np.ndarray(dims, "<f4", buffer=_ZERO, strides=(0,) * rank)
        except ValueError as exc:  # more dims than numpy allows, or zero-size but too big
            raise FormatError(f"{path}: tensor '{name}' has an impossible shape ({exc})") from None
    return config, frames


def _read_payload(fh, offset: int, out: np.ndarray, path) -> None:
    """Read the payload at ``offset`` straight into the C-contiguous ``out``."""
    fh.seek(offset)
    raw = out.reshape(-1).view(np.uint8)
    if fh.readinto(raw) != raw.size:  # the file shrank after it was measured
        raise FormatError(f"{path}: truncated checkpoint")


def load_checkpoint(path: str | Path) -> tuple[RerankerConfig, dict[str, np.ndarray]]:
    """The config and every tensor of a checkpoint, ``opt.*`` included, in file order."""
    with open(path, "rb") as fh:
        config, frames = _read_frames(fh, path)
        tensors: dict[str, np.ndarray] = {}
        for name, (dims, offset) in frames.items():
            tensors[name] = np.empty(dims, "<f4")
            _read_payload(fh, offset, tensors[name], path)
    return config, tensors


def save_params(path: str | Path, params: RerankerParams) -> None:
    save_checkpoint(path, params.config, params.tensors)


def load_params(path: str | Path) -> RerankerParams:
    """Model tensors, read-only, as views of one flat vector that each
    payload is read into once; optimizer-state tensors ('opt.*') are sought
    past unread. A missing, extra, misshapen or non-finite tensor is a
    ``FormatError``, in that order, after every frame's header is read."""
    with open(path, "rb") as fh:
        config, frames = _read_frames(fh, path)
        model = {name: frame for name, frame in frames.items() if not name.startswith("opt.")}
        shapes = expected_shapes(config)
        if model.keys() != shapes.keys():
            missing, extra = sorted(shapes.keys() - model.keys()), sorted(model.keys() - shapes.keys())
            raise FormatError(f"{path}: parameter names mismatch (missing {missing}, extra {extra})")
        for name, shape in shapes.items():
            if model[name][0] != shape:
                raise FormatError(f"{path}: tensor '{name}' has shape {model[name][0]}, expected {shape}")
        flat = np.empty(sum(math.prod(s) for s in shapes.values()), "<f4")
        params = RerankerParams(config, flat)
        for name, view in params.tensors.items():
            _read_payload(fh, model[name][1], view, path)
    try:
        params.validate()
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
    # read-only, so rerank can keep aligned reference rows across calls; the
    # views are taken again, because views taken before the flag stay writable
    flat.flags.writeable = False
    return RerankerParams(config, flat)
