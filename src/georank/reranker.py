"""Pair scoring network: project image+text to a shared latent space, fuse by
element-wise sum, align each side with FC+LayerNorm+ReLU blocks, then score
query/reference pairs through a bilinear map and a sigmoid.

Parameters are a name -> array mapping so the optimizer, gradient checker,
and checkpoint format all see the same named tensors; the arrays are views of
one contiguous vector, so the optimizer updates them all at once.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import struct
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


@dataclass
class RerankerConfig:
    image_dim: int = 1024
    text_dim: int = 1536
    latent_dim: int = 512
    aligner_layers: int = 2
    aligner_hidden: int = 512
    ln_epsilon: float = 1e-5
    shared_projections: bool = True
    init_seed: int = 0

    def validate(self) -> None:
        for name in ("image_dim", "text_dim", "latent_dim", "aligner_hidden"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.aligner_layers < 1:
            raise ValueError("aligner_layers must be >= 1")
        if self.ln_epsilon <= 0:
            raise ValueError("ln_epsilon must be positive")

    def aligner_dims(self) -> list[tuple[int, int]]:
        """(in, out) per block; the stack starts and ends at latent_dim."""
        h, hid, n = self.latent_dim, self.aligner_hidden, self.aligner_layers
        ins = [h] + [hid] * (n - 1)
        outs = [hid] * (n - 1) + [h]
        return list(zip(ins, outs))

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "RerankerConfig":
        cfg = cls(**json.loads(text))
        cfg.validate()
        return cfg


def expected_shapes(config: RerankerConfig) -> dict[str, tuple[int, ...]]:
    """Canonical tensor names and shapes; also fixes the init draw order."""
    h = config.latent_dim
    shapes: dict[str, tuple[int, ...]] = {}
    sides = ("",) if config.shared_projections else ("_q", "_r")
    for side in sides:
        shapes[f"proj_img{side}.w"] = (h, config.image_dim)
        shapes[f"proj_img{side}.b"] = (h,)
        shapes[f"proj_txt{side}.w"] = (h, config.text_dim)
        shapes[f"proj_txt{side}.b"] = (h,)
    for i, (d_in, d_out) in enumerate(config.aligner_dims()):
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
    it and rejects missing, extra or misshapen tensors.
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
        for name, view in self.tensors.items():
            view[...] = tensors[name]

    @classmethod
    def from_flat(cls, config: RerankerConfig, flat: np.ndarray) -> "RerankerParams":
        """Params whose tensors are views of ``flat`` itself, not a copy."""
        params = cls.__new__(cls)
        params.config = config
        params.tensors = TensorViews(flat, expected_shapes(config))
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


def proj_names(config: RerankerConfig, side: str) -> tuple[str, str, str, str]:
    """Names of the image weight, image bias, text weight and text bias that
    project one side ('query' or 'reference') into the latent space."""
    if side not in ("query", "reference"):
        raise ValueError(f"side must be 'query' or 'reference', got '{side}'")
    suffix = "" if config.shared_projections else ("_q" if side == "query" else "_r")
    return f"proj_img{suffix}.w", f"proj_img{suffix}.b", f"proj_txt{suffix}.w", f"proj_txt{suffix}.b"


def project_fuse(image_emb: np.ndarray, text_emb: np.ndarray, params: RerankerParams, side: str = "query") -> np.ndarray:
    """Element-wise sum of the projected image and text embeddings."""
    wi, bi, wt, bt = (params.tensors[n] for n in proj_names(params.config, side))
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
    n = params.config.aligner_layers
    return [
        (
            params.tensors[f"align{i}.w"],
            params.tensors[f"align{i}.b"],
            params.tensors[f"align{i}.ln_scale"],
            params.tensors[f"align{i}.ln_shift"],
        )
        for i in range(n)
    ]


def align(fused: np.ndarray, params: RerankerParams, cache: list | None = None) -> np.ndarray:
    """Linear -> LayerNorm -> ReLU blocks applied to fused vectors.

    Given a ``cache`` list, each block appends its (input, normalised,
    1/std, pre-ReLU output) rows, which the trainer's backward pass reads.
    """
    dt = params.dtype
    x = np.atleast_2d(np.asarray(fused, dtype=dt))
    if x.shape[1] != params.config.latent_dim:
        raise ValueError(f"fused dim {x.shape[1]} does not match latent_dim {params.config.latent_dim}")
    eps = params.config.ln_epsilon
    for w, b, scale, shift in aligner_blocks(params):
        z = _linear(x, w) + b
        mu = row_mean(z)
        zc = z - mu
        var = row_mean(zc * zc)
        inv = 1.0 / np.sqrt(var + eps)
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
    rows go through it in one pass. Given a ``cache`` dict, the activations
    the trainer's backward pass reads are stored in it: ``aligned_q``,
    ``aligned_c``, ``cache_align`` (that pass's per-block caches, see
    ``align``), ``segment`` (each candidate row's query index) and ``u_c``
    (each candidate row's query ``u``).
    """
    cache_align = None if cache is None else cache.setdefault("cache_align", [])
    fused_q = project_fuse(np.atleast_2d(query_img), np.atleast_2d(query_txt), params, "query")
    fused_c = project_fuse(cand_img, cand_txt, params, "reference")
    aligned = align(np.concatenate([fused_q, fused_c]), params, cache_align)
    aligned_q, aligned_c = aligned[: len(fused_q)], aligned[len(fused_q) :]
    segment = np.repeat(np.arange(len(aligned_q)), [len(aligned_c)] if counts is None else counts)
    if len(segment) != len(aligned_c):
        raise ValueError(f"candidate counts cover {len(segment)} rows, but {len(aligned_c)} candidates were given")
    u_c = _linear(aligned_q, params.tensors["score.w"])[segment]
    if cache is not None:
        cache.update(aligned_q=aligned_q, aligned_c=aligned_c, segment=segment, u_c=u_c)
    return np.asarray(np.einsum("ij,ij->i", aligned_c, u_c) + params.tensors["score.b"], np.float64)


def score_candidates(query_img, query_txt, cand_img, cand_txt, params: RerankerParams) -> np.ndarray:
    return _sigmoid(score_logits(query_img, query_txt, cand_img, cand_txt, params))


def gather_candidates(store: Store, ids) -> tuple[np.ndarray, np.ndarray]:
    """Stacked (m, image_dim) image and (m, text_dim) text embeddings of reference ``ids``."""
    rows = store.ref_rows(ids)
    missing = np.flatnonzero(~store.refs.has_text[rows])
    if missing.size:
        raise ValueError(f"candidate '{store.ref_ids[rows[missing[0]]]}' has no text embedding")
    return store.refs.image[rows], store.refs.text[rows]


def order_by_score(ids, scores) -> list[tuple[str, float]]:
    """(id, score) pairs by score descending, ties by ascending id."""
    order = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))
    return [(ids[i], float(scores[i])) for i in order]


def rerank(query: QueryRecord, ranking: Ranking, params: RerankerParams, store: Store) -> Ranking:
    """Reorder the candidate list by pair score, ties by id; the id set never changes."""
    if query.text_emb is None:
        raise ValueError(f"query '{query.id}' has no text embedding")
    ids = ranking.ids()
    if not ids:
        return Ranking(query_id=query.id, entries=[], k=ranking.k, reranked=True)
    scores = score_candidates(query.image_emb, query.text_emb, *gather_candidates(store, ids), params)
    return Ranking(query_id=query.id, entries=order_by_score(ids, scores), k=ranking.k, reranked=True)


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
    """Load model tensors; optimizer-state tensors ('opt.*') are ignored.
    A missing, extra, misshapen or non-finite tensor is a ``FormatError``."""
    config, tensors = load_checkpoint(path)
    try:
        params = RerankerParams(config, {k: v for k, v in tensors.items() if not k.startswith("opt.")})
        params.validate()
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
    return params
