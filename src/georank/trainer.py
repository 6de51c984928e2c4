"""Learning-to-rank training for the pair scorer.

Margin ranking loss over each query's top-k candidate list, hand-derived
gradients (verified against central finite differences), SGD/Adam, and
deterministic epoch shuffling. A batch is stacked in a canonical sample
order and run through one forward and one backward pass, so the batch
gradient is independent of the order samples arrive in.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geostore import Store, write_lines
from .retriever import Ranking
from .reranker import (
    RerankerConfig,
    RerankerParams,
    TensorViews,
    _sigmoid,
    aligner_blocks,
    expected_shapes,
    gather_candidates,
    init_params,
    order_by_score,
    proj_names,
    row_mean,
    save_params,
    score_logits,
)

# validation samples scored per forward pass, which bounds its gathered copies
VALIDATION_PASS = 64


@dataclass(frozen=True)
class TrainingSample:
    """One query with its phase-1 candidate list and the positive's position."""

    query_id: str
    candidate_ids: tuple[str, ...]
    positive_index: int

    def validate(self) -> None:
        if len(self.candidate_ids) < 2:
            raise ValueError(f"sample '{self.query_id}' needs at least one negative candidate")
        if not (0 <= self.positive_index < len(self.candidate_ids)):
            raise ValueError(f"sample '{self.query_id}' positive_index {self.positive_index} out of range")
        if len(set(self.candidate_ids)) != len(self.candidate_ids):
            raise ValueError(f"sample '{self.query_id}' has duplicate candidates")


# the values TrainConfig.validate accepts; the command line offers the same
OPTIMIZERS = ("sgd", "adam")
LOSS_ON = ("scores", "logits")


@dataclass
class TrainConfig:
    margin: float = 1.0
    optimizer: str = "adam"
    lr: float = 1e-4
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 16
    epochs: int = 10
    shuffle_seed: int = 0
    grad_clip: float | None = None
    loss_on: str = "scores"

    def validate(self) -> None:
        if self.margin < 0:
            raise ValueError("margin must be >= 0")
        if self.lr < 0:
            raise ValueError("lr must be >= 0")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer '{self.optimizer}'")
        if self.loss_on not in LOSS_ON:
            raise ValueError(f"loss_on must be one of {', '.join(LOSS_ON)}, got '{self.loss_on}'")
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("batch_size must be >= 1 and epochs >= 0")


# ---------------------------------------------------------------------------
# loss and gradients
# ---------------------------------------------------------------------------

def margin_loss(pos_score: float, neg_scores, margin: float) -> float:
    """Mean hinge over negatives: max(0, margin - (pos - neg)); 0 iff separated."""
    neg_scores = list(neg_scores)
    if not neg_scores:
        raise ValueError("margin_loss needs at least one negative score")
    total = 0.0
    for s in neg_scores:
        total += max(0.0, margin - (pos_score - s))
    return total / len(neg_scores)


def _aligner_backward(dout: np.ndarray, blocks, caches, grads: dict) -> np.ndarray:
    for i in reversed(range(len(blocks))):
        w, b, scale, shift = blocks[i]
        x_in, xhat, inv, y = caches[i]
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
    return dout


def _stacked_logits(samples: list[TrainingSample], params: RerankerParams, store: Store, cache: dict | None = None):
    """Logits of every sample's candidates, stacked in sample order, from one
    forward pass; returns them with the per-sample candidate counts. Given a
    ``cache``, the gathered inputs are stored in it beside ``score_logits``'s."""
    q_rows = store.query_rows([s.query_id for s in samples])
    missing = np.flatnonzero(~store.queries.has_text[q_rows])
    if missing.size:
        raise ValueError(f"query '{samples[missing[0]].query_id}' has no text embedding")
    q_img, q_txt = store.queries.image[q_rows], store.queries.text[q_rows]
    c_img, c_txt = gather_candidates(store, [rid for s in samples for rid in s.candidate_ids])
    counts = np.array([len(s.candidate_ids) for s in samples])
    if cache is not None:
        cache.update(q_img=q_img, q_txt=q_txt, c_img=c_img, c_txt=c_txt)
    return score_logits(q_img, q_txt, c_img, c_txt, params, counts, cache), counts


def _forward(batch: list[TrainingSample], params: RerankerParams, store: Store, margin: float, loss_on: str):
    """Mean loss over ``batch`` from one stacked forward pass, and what ``_backward`` reads."""
    ctx: dict = {}
    logits, counts = _stacked_logits(batch, params, store, ctx)
    scores = _sigmoid(logits)

    basis = logits if loss_on == "logits" else scores
    starts = np.cumsum(counts) - counts
    pos = starts + np.array([s.positive_index for s in batch])
    is_neg = np.ones(len(logits), bool)
    is_neg[pos] = False
    hinge = margin - (basis[pos][ctx["segment"]] - basis)
    active = is_neg & (hinge > 0)
    n_neg = counts - 1
    # np.maximum propagates NaN so a poisoned loss is caught by the train loop
    sample_losses = np.add.reduceat(np.where(is_neg, np.maximum(hinge, 0.0), 0.0), starts) / n_neg
    loss = float(sample_losses.sum() / len(batch))
    ctx.update(logits=logits, scores=scores, starts=starts, pos=pos, n_neg=n_neg, active=active)
    return loss, ctx


def _backward(ctx, params: RerankerParams, loss_on: str) -> TensorViews:
    """Gradients of ``_forward``'s mean batch loss, as views of one zeroed
    vector laid out like ``params.flat``. Per-sample sums are segment
    reductions over the stacked candidate rows, so each weight gradient is one
    product over every row of the batch.

    Under ``loss_on="logits"`` the hinge depends on logit differences only,
    so ``score.b`` gets an exact zero, not the float32 rounding noise of a
    sum that is zero in exact arithmetic."""
    cfg = params.config
    dtype = params.dtype
    grads = TensorViews(np.zeros_like(params.flat), expected_shapes(cfg))

    starts, segment, n_neg = ctx["starts"], ctx["segment"], ctx["n_neg"]
    # an active negative's hinge adds +1/n_neg to its own basis gradient and -1/n_neg to its positive's
    g_basis = np.where(ctx["active"], 1.0 / n_neg[segment], 0.0)
    g_basis[ctx["pos"]] = -np.add.reduceat(ctx["active"].astype(np.int64), starts) / n_neg
    g_basis /= len(starts)
    if loss_on == "scores":
        s = ctx["scores"]
        g_logit = (g_basis * s * (1.0 - s)).astype(dtype)
    else:
        g_logit = g_basis.astype(dtype)

    aligned_q = ctx["aligned_q"]
    aligned_c = ctx["aligned_c"]
    w_score = params.tensors["score.w"]

    if loss_on == "scores":
        grads["score.b"] += np.asarray(g_logit.sum(), dtype)
    s_q = np.add.reduceat(g_logit[:, None] * aligned_c, starts, axis=0)
    grads["score.w"] += s_q.T @ aligned_q
    d_aligned_q = s_q @ w_score
    d_aligned_c = g_logit[:, None] * ctx["u_c"]

    d_fused = _aligner_backward(np.concatenate([d_aligned_q, d_aligned_c]), aligner_blocks(params),
                                ctx["cache_align"], grads)
    d_fused_q, d_fused_c = d_fused[: len(d_aligned_q)], d_fused[len(d_aligned_q) :]

    niq, biq, ntq, btq = proj_names(cfg, "query")
    nir, bir, ntr, btr = proj_names(cfg, "reference")
    grads[niq] += d_fused_q.T @ ctx["q_img"]
    grads[biq] += d_fused_q.sum(axis=0)
    grads[ntq] += d_fused_q.T @ ctx["q_txt"]
    grads[btq] += d_fused_q.sum(axis=0)
    grads[nir] += d_fused_c.T @ ctx["c_img"]
    grads[bir] += d_fused_c.sum(axis=0)
    grads[ntr] += d_fused_c.T @ ctx["c_txt"]
    grads[btr] += d_fused_c.sum(axis=0)
    return grads


def loss_and_gradients(
    sample: TrainingSample,
    params: RerankerParams,
    store: Store,
    margin: float,
    loss_on: str = "scores",
) -> tuple[float, TensorViews]:
    """Loss of one sample plus analytic gradients for every parameter tensor.

    Negatives already separated by more than the margin contribute exactly
    zero gradient.
    """
    return batch_gradients([sample], params, store, TrainConfig(margin=margin, loss_on=loss_on))


def sample_loss(sample: TrainingSample, params: RerankerParams, store: Store, margin: float, loss_on: str = "scores") -> float:
    loss, _ = _forward([sample], params, store, margin, loss_on)
    return loss


def batch_gradients(
    batch: list[TrainingSample],
    params: RerankerParams,
    store: Store,
    config: TrainConfig,
) -> tuple[float, TensorViews]:
    """Mean loss and mean gradient over a batch: one forward and one backward
    pass over its samples stacked in canonical order."""
    if not batch:
        raise ValueError("empty batch")
    ordered = sorted(batch, key=lambda s: (s.query_id, s.positive_index, s.candidate_ids))
    for sample in ordered:
        sample.validate()
    loss, ctx = _forward(ordered, params, store, config.margin, config.loss_on)
    return loss, _backward(ctx, params, config.loss_on)


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

def init_optimizer_state(params: RerankerParams, config: TrainConfig) -> dict:
    """Adam's step count and its first and second moments, each moment one
    vector laid out like ``params.flat``; SGD keeps no state."""
    if config.optimizer == "sgd":
        return {}
    return {"t": 0, "m": np.zeros_like(params.flat), "v": np.zeros_like(params.flat)}


def optimizer_step(
    params: RerankerParams,
    grads,
    state: dict,
    config: TrainConfig,
) -> tuple[RerankerParams, dict]:
    """One SGD or Adam update of ``params`` and ``state``, in place; returns both.

    The update is a few whole-vector operations on ``params.flat``. Each
    element sees the operations of the per-tensor update in the same order,
    so the result is the same bit for bit. ``grads`` maps every tensor name
    to its gradient; a ``TensorViews`` (what ``batch_gradients`` returns) is
    used without a copy.
    """
    for name, t in params.tensors.items():
        if name not in grads or np.shape(grads[name]) != t.shape:
            raise ValueError(f"gradient shape mismatch for '{name}'")
    if isinstance(grads, TensorViews):
        g = grads.flat
    else:
        g = np.concatenate([np.ravel(grads[name]) for name in params.tensors])
    if config.grad_clip is not None:
        g64 = g.astype(np.float64)
        norm = math.sqrt(g64 @ g64)
        if norm > config.grad_clip:
            g = g * (config.grad_clip / norm)

    theta = params.flat
    if config.optimizer == "sgd":
        theta -= config.lr * g
        return params, state

    t_step = state["t"] + 1
    b1, b2 = config.adam_beta1, config.adam_beta2
    m, v = state["m"], state["v"]
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g * g
    step = m / (1.0 - b1 ** t_step)
    step *= config.lr
    denom = v / (1.0 - b2 ** t_step)
    np.sqrt(denom, out=denom)
    denom += config.adam_eps
    step /= denom
    theta -= step
    state["t"] = t_step
    return params, state


# ---------------------------------------------------------------------------
# sample construction
# ---------------------------------------------------------------------------

def build_training_samples(
    queries,
    rankings: list[Ranking],
    semipositives: dict[str, set[str]] | None = None,
) -> tuple[list[TrainingSample], int]:
    """One sample per query (per positive, for multi-positive queries) whose
    positive landed in the phase-1 candidate list; the rest are counted as
    skipped. ``semipositives`` maps query ids to reference ids to drop from
    the negative side."""
    by_id = {r.query_id: r for r in rankings}
    samples: list[TrainingSample] = []
    skipped = 0
    for q in queries:
        ranking = by_id.get(q.id)
        if ranking is None:
            raise ValueError(f"no ranking for query '{q.id}'")
        positives = set(q.ground_truth)
        if not positives:
            raise ValueError(f"query '{q.id}' has an empty ground-truth set")
        all_ids = ranking.ids()
        for pos in sorted(positives):
            ids = [rid for rid in all_ids if rid == pos or rid not in positives]
            if semipositives is not None:
                drop = semipositives.get(q.id, set())
                ids = [rid for rid in ids if rid == pos or rid not in drop]
            if pos in ids and len(ids) >= 2:
                samples.append(TrainingSample(q.id, tuple(ids), ids.index(pos)))
            else:
                skipped += 1
    return samples, skipped


def save_samples(samples: list[TrainingSample], path: str | Path) -> None:
    write_lines((json.dumps({"candidates": list(s.candidate_ids), "positive_index": s.positive_index,
                             "query_id": s.query_id}, sort_keys=True, separators=(",", ":")) for s in samples), path)


def load_samples(path: str | Path) -> list[TrainingSample]:
    out = []
    with open(path, "rb") as fh:
        for ln, raw in enumerate(fh, start=1):
            try:
                raw = raw.decode("utf-8").strip()
                if not raw:
                    continue
                rec = json.loads(raw)
                s = TrainingSample(rec["query_id"], tuple(rec["candidates"]), int(rec["positive_index"]))
                s.validate()
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}, line {ln}: malformed sample ({exc})") from None
            out.append(s)
    return out


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

@dataclass
class EpochStats:
    epoch: int
    mean_loss: float
    val_r1: float | None
    val_r5: float | None
    seconds: float


@dataclass
class TrainReport:
    epochs: list[EpochStats] = field(default_factory=list)
    train_count: int = 0
    val_count: int = 0

    def deterministic_dict(self) -> dict:
        """Report content without wall-clock timings (those vary run to run)."""
        return {
            "train_count": self.train_count,
            "val_count": self.val_count,
            "epochs": [
                {"epoch": e.epoch, "mean_loss": e.mean_loss, "val_r1": e.val_r1, "val_r5": e.val_r5}
                for e in self.epochs
            ],
        }

    def digest(self) -> str:
        blob = json.dumps(self.deterministic_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def write_jsonl(self, path: str | Path) -> None:
        write_lines((json.dumps({"epoch": e.epoch, "mean_loss": e.mean_loss, "seconds": e.seconds, "val_r1": e.val_r1,
                                 "val_r5": e.val_r5}, sort_keys=True, separators=(",", ":")) for e in self.epochs), path)

    def write_csv(self, path: str | Path) -> None:
        lines = ["epoch,mean_loss,val_r1,val_r5,seconds"]
        for e in self.epochs:
            r1 = "" if e.val_r1 is None else f"{e.val_r1:.6f}"
            r5 = "" if e.val_r5 is None else f"{e.val_r5:.6f}"
            lines.append(f"{e.epoch},{e.mean_loss:.8f},{r1},{r5},{e.seconds:.3f}")
        write_lines(lines, path)


def _candidate_recall(samples: list[TrainingSample], params: RerankerParams, store: Store) -> tuple[float, float]:
    """R@1 / R@5 of the positive within each sample's candidate list after
    reranking; every VALIDATION_PASS samples are scored in one stacked forward."""
    hits1 = hits5 = 0
    for b0 in range(0, len(samples), VALIDATION_PASS):
        block = samples[b0 : b0 + VALIDATION_PASS]
        logits, counts = _stacked_logits(block, params, store)
        for s, scores in zip(block, np.split(_sigmoid(logits), np.cumsum(counts)[:-1])):
            ranked = [rid for rid, _ in order_by_score(s.candidate_ids, scores)]
            rank = ranked.index(s.candidate_ids[s.positive_index])
            hits1 += rank == 0
            hits5 += rank < 5
    n = len(samples)
    return hits1 / n, hits5 / n


def train(
    samples: list[TrainingSample],
    store: Store,
    reranker_config: RerankerConfig,
    config: TrainConfig,
    val_split: float = 0.2,
    checkpoint_dir: str | Path | None = None,
) -> tuple[RerankerParams, TrainReport]:
    """Shuffled mini-batch training; deterministic given seeds; checkpoints each epoch."""
    config.validate()
    if not samples:
        raise ValueError("no training samples")
    for s in samples:
        s.validate()
    if not (0.0 <= val_split < 1.0):
        raise ValueError("val_split must be in [0, 1)")

    params = init_params(reranker_config)
    rng = np.random.default_rng(config.shuffle_seed)
    perm = rng.permutation(len(samples))
    n_val = int(round(len(samples) * val_split))
    val_set = [samples[i] for i in perm[:n_val]]
    train_set = [samples[i] for i in perm[n_val:]]
    if not train_set:
        raise ValueError("val_split leaves no training samples")

    state = init_optimizer_state(params, config)
    report = TrainReport(train_count=len(train_set), val_count=len(val_set))
    ckpt = Path(checkpoint_dir) if checkpoint_dir is not None else None
    if ckpt is not None:
        ckpt.mkdir(parents=True, exist_ok=True)

    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        order = rng.permutation(len(train_set))
        loss_sum = 0.0
        for b0 in range(0, len(order), config.batch_size):
            chunk = order[b0 : b0 + config.batch_size]
            batch = [train_set[i] for i in chunk]
            loss, grads = batch_gradients(batch, params, store, config)
            if not np.isfinite(loss):
                raise RuntimeError(f"NaN loss in epoch {epoch}, batch starting at sample {b0}")
            params, state = optimizer_step(params, grads, state, config)
            loss_sum += loss * len(batch)
        mean_loss = loss_sum / len(train_set)
        val_r1, val_r5 = _candidate_recall(val_set, params, store) if val_set else (None, None)
        report.epochs.append(EpochStats(epoch, mean_loss, val_r1, val_r5, time.perf_counter() - started))
        if ckpt is not None:
            save_params(ckpt / f"epoch_{epoch:03d}.gvck", params)
    if ckpt is not None:
        save_params(ckpt / "final.gvck", params)
    return params, report


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def finite_difference_gradients(
    sample: TrainingSample,
    params: RerankerParams,
    store: Store,
    margin: float,
    loss_on: str = "scores",
    epsilon: float = 1e-4,
) -> dict[str, np.ndarray]:
    """Central differences of the sample loss for every parameter element (float64).

    Elements are perturbed by direct index assignment: reshape views of 0-d
    arrays can silently be copies (numpy 2.x), which would leave the loss
    unperturbed.
    """
    p = params.astype(np.float64)
    out: dict[str, np.ndarray] = {}
    for name, tensor in p.tensors.items():
        grad = np.zeros_like(tensor)
        for idx in np.ndindex(tensor.shape):
            orig = float(tensor[idx])
            tensor[idx] = orig + epsilon
            up = sample_loss(sample, p, store, margin, loss_on)
            tensor[idx] = orig - epsilon
            down = sample_loss(sample, p, store, margin, loss_on)
            tensor[idx] = orig
            grad[idx] = (up - down) / (2.0 * epsilon)
        out[name] = grad
    return out


def gradient_check(
    sample: TrainingSample,
    params: RerankerParams,
    store: Store,
    margin: float,
    loss_on: str = "scores",
    epsilon: float = 1e-4,
) -> dict[str, float]:
    """Per-tensor max relative error of analytic vs finite-difference gradients."""
    p = params.astype(np.float64)
    _, analytic = loss_and_gradients(sample, p, store, margin, loss_on)
    numeric = finite_difference_gradients(sample, p, store, margin, loss_on, epsilon)
    errors: dict[str, float] = {}
    for name in analytic:
        a = np.atleast_1d(analytic[name])
        n = np.atleast_1d(numeric[name])
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
        errors[name] = float(np.max(np.abs(a - n) / denom)) if a.size else 0.0
    return errors


def make_gradcheck_fixture(seed: int, n_candidates: int = 5) -> tuple[TrainingSample, RerankerParams, Store]:
    """Small random store/sample/params for gradient verification."""
    from .geostore import Columns, StoreManifest

    rng = np.random.default_rng(seed)
    cfg = RerankerConfig(
        image_dim=7, text_dim=5, latent_dim=6, aligner_layers=2, aligner_hidden=6, init_seed=seed + 1
    )
    # one image then one text draw per row, candidates first, then the query
    rows = rng.standard_normal((n_candidates + 1, cfg.image_dim + cfg.text_dim)).astype(np.float32)
    ids = [f"c{i}" for i in range(n_candidates)]
    refs = Columns(ids, rows[:-1, :cfg.image_dim], rows[:-1, cfg.image_dim:])
    query = Columns(["q0"], rows[-1:, :cfg.image_dim], rows[-1:, cfg.image_dim:])
    store = Store(StoreManifest(cfg.image_dim, cfg.text_dim, n_candidates, 1), refs, query, {"q0": ("c1",)})
    sample = TrainingSample("q0", tuple(ids), 1)
    return sample, init_params(cfg), store


def run_gradcheck(seed: int, margin: float = 1.0, loss_on: str = "scores", epsilon: float = 1e-4) -> float:
    """Max relative error over all tensors for one seeded fixture."""
    sample, params, store = make_gradcheck_fixture(seed)
    errors = gradient_check(sample, params, store, margin, loss_on, epsilon)
    return max(errors.values())
