"""Learning-to-rank training for the pair scorer.

Margin ranking loss over each query's top-k candidate list, hand-derived
gradients (verified against central finite differences), Adam, and
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

from . import kernels
from .geostore import Store, load_jsonl, write_jsonl, write_lines
from .retriever import Ranking
from .reranker import (
    RerankerConfig,
    RerankerParams,
    TensorViews,
    _sigmoid,
    init_params,
    logit_gradients,
    save_params,
    score_logits,
    scorer_inputs,
)

# validation samples scored per forward pass, which bounds its gathered copies
VALIDATION_PASS = 64


@dataclass(frozen=True)
class TrainingSample:
    """One query with its phase-1 candidate list and the positive's position;
    construction raises ValueError unless it holds a negative, the position
    is in range and the candidates are distinct."""

    query_id: str
    candidate_ids: tuple[str, ...]
    positive_index: int

    def __post_init__(self) -> None:
        if len(self.candidate_ids) < 2:
            raise ValueError(f"sample '{self.query_id}' needs at least one negative candidate")
        if not (0 <= self.positive_index < len(self.candidate_ids)):
            raise ValueError(f"sample '{self.query_id}' positive_index {self.positive_index} out of range")
        if len(set(self.candidate_ids)) != len(self.candidate_ids):
            raise ValueError(f"sample '{self.query_id}' has duplicate candidates")


# the values TrainConfig.validate accepts for loss_on; the command line offers the same
LOSS_ON = ("scores", "logits")
# Adam's moment decay rates and denominator guard (Kingma & Ba, arXiv:1412.6980)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# elements an Adam step updates at a time: the block's slices of the four vectors and its two
# scratch buffers (about 1.5 MB in float32) stay in a core's L2 cache between the step's operations
ADAM_BLOCK = 1 << 16
# the step of gradient_check's central differences, taken in float64
GRADCHECK_EPSILON = 1e-4


@dataclass
class TrainConfig:
    margin: float = 1.0
    lr: float = 1e-4
    batch_size: int = 16
    epochs: int = 10
    shuffle_seed: int = 0
    loss_on: str = "scores"
    val_split: float = 0.2

    def validate(self) -> None:
        for name, value in (("margin", self.margin), ("lr", self.lr)):
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be a finite number >= 0, got {value}")
        if self.loss_on not in LOSS_ON:
            raise ValueError(f"loss_on must be one of {', '.join(LOSS_ON)}, got '{self.loss_on}'")
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("batch_size must be >= 1 and epochs >= 0")
        if self.shuffle_seed < 0:
            raise ValueError(f"shuffle_seed must be >= 0, got {self.shuffle_seed}")
        if not (0.0 <= self.val_split < 1.0):
            raise ValueError("val_split must be in [0, 1)")


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


def _stacked_logits(samples: list[TrainingSample], params: RerankerParams, store: Store, cache: dict | None = None):
    """Logits of every sample's candidates, stacked in sample order, from one
    ``score_logits`` pass, which fills ``cache``; returns them with the
    per-sample candidate counts."""
    q_img, q_txt = scorer_inputs(store.queries, store.query_rows([s.query_id for s in samples]), "query")
    c_img, c_txt = scorer_inputs(store.refs, store.ref_rows([r for s in samples for r in s.candidate_ids]), "candidate")
    counts = np.array([len(s.candidate_ids) for s in samples])
    return score_logits(q_img, q_txt, c_img, c_txt, params, counts, cache), counts


def _forward(batch: list[TrainingSample], params: RerankerParams, store: Store, config: TrainConfig):
    """Mean loss over ``batch`` from one stacked forward pass, and what ``_backward`` reads."""
    scorer: dict = {}
    logits, counts = _stacked_logits(batch, params, store, scorer)
    scores = _sigmoid(logits)

    basis = logits if config.loss_on == "logits" else scores
    starts, segment = scorer["starts"], scorer["segment"]
    pos = starts + np.array([s.positive_index for s in batch])
    is_neg = np.ones(len(logits), bool)
    is_neg[pos] = False
    hinge = config.margin - (basis[pos][segment] - basis)
    active = is_neg & (hinge > 0)
    n_neg = counts - 1
    # np.maximum propagates NaN so a poisoned loss is caught by the train loop
    sample_losses = np.add.reduceat(np.where(is_neg, np.maximum(hinge, 0.0), 0.0), starts) / n_neg
    loss = float(sample_losses.sum() / len(batch))
    return loss, dict(scorer=scorer, logits=logits, scores=scores, pos=pos, n_neg=n_neg, active=active)


def _backward(ctx, params: RerankerParams, loss_on: str) -> TensorViews:
    """Gradients of ``_forward``'s mean batch loss: the hinge's gradient with
    respect to the logits, taken back through the scorer by ``logit_gradients``.

    Under ``loss_on="logits"`` the hinge depends on logit differences only,
    so ``score.b`` gets an exact zero, not the float32 rounding noise of a
    sum that is zero in exact arithmetic."""
    starts, segment, n_neg = ctx["scorer"]["starts"], ctx["scorer"]["segment"], ctx["n_neg"]
    # an active negative's hinge adds +1/n_neg to its own basis gradient and -1/n_neg to its positive's
    g_basis = np.where(ctx["active"], 1.0 / n_neg[segment], 0.0)
    g_basis[ctx["pos"]] = -np.add.reduceat(ctx["active"].astype(np.int64), starts) / n_neg
    g_basis /= len(starts)
    if loss_on == "scores":
        s = ctx["scores"]
        g_basis = g_basis * s * (1.0 - s)
    grads = logit_gradients(ctx["scorer"], g_basis.astype(params.dtype), params)
    if loss_on == "logits":
        grads["score.b"][...] = 0
    return grads


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
    loss, ctx = _forward(ordered, params, store, config)
    return loss, _backward(ctx, params, config.loss_on)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def init_optimizer_state(params: RerankerParams) -> dict:
    """Adam's step count and its first and second moments, each moment one
    vector laid out like ``params.flat``."""
    return {"t": 0, "m": np.zeros_like(params.flat), "v": np.zeros_like(params.flat)}


def optimizer_step(
    params: RerankerParams,
    grads: TensorViews,
    state: dict,
    config: TrainConfig,
) -> tuple[RerankerParams, dict]:
    """One Adam update of ``params`` and ``state``, in place; returns both.

    ``grads`` is laid out like ``params``, in its dtype (as
    ``batch_gradients`` returns it). The update walks ``params.flat``,
    ``grads.flat`` and the moments ``ADAM_BLOCK`` elements at a time,
    running every operation on a block, in place or into two block-sized
    buffers, before the next block, so no temporary is as large as the
    parameter vector. Each element sees the operations of the per-tensor
    update in the same order, so the result is the same bit for bit.
    """
    if not isinstance(grads, TensorViews) or grads.flat.dtype != params.dtype or grads.layout != params.tensors.layout:
        raise ValueError("gradients are not laid out like the parameters (names, order, shapes and dtype)")
    g, theta, m, v = grads.flat, params.flat, state["m"], state["v"]
    t_step = state["t"] + 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1, c2 = 1.0 - b1 ** t_step, 1.0 - b2 ** t_step
    step = np.empty(min(theta.size, ADAM_BLOCK), theta.dtype)
    denom = np.empty_like(step)
    for lo in range(0, theta.size, ADAM_BLOCK):
        block = slice(lo, lo + ADAM_BLOCK)
        gb, mb, vb = g[block], m[block], v[block]
        s, d = step[: len(gb)], denom[: len(gb)]
        mb *= b1
        np.multiply(gb, 1.0 - b1, out=s)
        mb += s
        vb *= b2
        np.multiply(gb, 1.0 - b2, out=s)
        s *= gb
        vb += s
        np.divide(mb, c1, out=s)
        s *= config.lr
        np.divide(vb, c2, out=d)
        np.sqrt(d, out=d)
        d += ADAM_EPS
        s /= d
        theta[block] -= s
    state["t"] = t_step
    return params, state


# ---------------------------------------------------------------------------
# sample construction
# ---------------------------------------------------------------------------

def build_training_samples(
    store: Store,
    rankings: list[Ranking],
    semipositives: dict[str, set[str]] | None = None,
) -> tuple[list[TrainingSample], int]:
    """One sample per store query (per positive, for multi-positive queries)
    whose positive landed in the phase-1 candidate list; the rest are
    counted as skipped. Positives are the store's ground truth, which is
    never empty. ``semipositives`` maps query ids to reference ids to drop
    from the negative side."""
    by_id = {r.query_id: r for r in rankings}
    samples: list[TrainingSample] = []
    skipped = 0
    for qid in store.query_ids:
        ranking = by_id.get(qid)
        if ranking is None:
            raise ValueError(f"no ranking for query '{qid}'")
        positives = set(store.ground_truth[qid])
        all_ids = ranking.ids()
        for pos in sorted(positives):
            ids = [rid for rid in all_ids if rid == pos or rid not in positives]
            if semipositives is not None:
                drop = semipositives.get(qid, set())
                ids = [rid for rid in ids if rid == pos or rid not in drop]
            if pos in ids and len(ids) >= 2:
                samples.append(TrainingSample(qid, tuple(ids), ids.index(pos)))
            else:
                skipped += 1
    return samples, skipped


def save_samples(samples: list[TrainingSample], path: str | Path) -> None:
    write_jsonl(({"candidates": list(s.candidate_ids), "positive_index": s.positive_index, "query_id": s.query_id}
                 for s in samples), path)


def _sample(rec: dict) -> TrainingSample:
    query_id, candidates, positive = rec["query_id"], rec["candidates"], rec["positive_index"]
    if not isinstance(candidates, list) or not all(isinstance(i, str) for i in (query_id, *candidates)):
        raise TypeError("a sample needs a string 'query_id' and a 'candidates' list of string ids")
    if type(positive) is not int:  # bool, an int subclass, is no index
        raise TypeError(f"'positive_index' {json.dumps(positive)} is not an integer")
    return TrainingSample(query_id, tuple(candidates), positive)


def load_samples(path: str | Path, store: Store) -> list[TrainingSample]:
    """One sample per line; a malformed one, or a query id or candidate id ``store`` lacks, raises
    IngestError naming the file and line, and the id where there is one."""
    return load_jsonl(path, _sample, "sample", unknown=lambda s: store.unknown_id(s.query_id, s.candidate_ids))


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
        write_jsonl(({"epoch": e.epoch, "mean_loss": e.mean_loss, "seconds": e.seconds, "val_r1": e.val_r1,
                      "val_r5": e.val_r5} for e in self.epochs), path)

    def write_csv(self, path: str | Path) -> None:
        lines = ["epoch,mean_loss,val_r1,val_r5,seconds"]
        for e in self.epochs:
            r1 = "" if e.val_r1 is None else f"{e.val_r1:.6f}"
            r5 = "" if e.val_r5 is None else f"{e.val_r5:.6f}"
            lines.append(f"{e.epoch},{e.mean_loss:.8f},{r1},{r5},{e.seconds:.3f}")
        write_lines(lines, path)


def _candidate_recall(samples: list[TrainingSample], params: RerankerParams, store: Store) -> tuple[float, float]:
    """R@1 / R@5 of the positive within each sample's candidate list after
    reranking, from the positive's index among the first 5 by ``kernels.top_indices``;
    every VALIDATION_PASS samples are scored in one stacked forward."""
    hits1 = hits5 = 0
    for b0 in range(0, len(samples), VALIDATION_PASS):
        block = samples[b0 : b0 + VALIDATION_PASS]
        logits, counts = _stacked_logits(block, params, store)
        for s, scores in zip(block, np.split(_sigmoid(logits), np.cumsum(counts)[:-1])):
            top5 = kernels.top_indices(scores, s.candidate_ids, 5).tolist()
            hits1 += top5[0] == s.positive_index
            hits5 += s.positive_index in top5
    n = len(samples)
    return hits1 / n, hits5 / n


def validation_split(samples: list[TrainingSample], val_split: float,
                     rng: np.random.Generator) -> tuple[list[TrainingSample], list[TrainingSample]]:
    """(train, validation) samples, split by query: the distinct query ids, in
    the order their first sample comes, are permuted by ``rng``, and the first
    ``round(n_queries · val_split)`` of them are held out with all their
    samples, so no query's samples (one per positive) fall on both sides.
    Each side lists its queries in permuted order, a query's samples in their
    order in ``samples``. With one sample per query this is a permutation of
    the samples themselves."""
    by_query: dict[str, list[TrainingSample]] = {}
    for s in samples:
        by_query.setdefault(s.query_id, []).append(s)
    groups = list(by_query.values())
    perm = rng.permutation(len(groups))
    n_val = int(round(len(groups) * val_split))
    return [s for i in perm[n_val:] for s in groups[i]], [s for i in perm[:n_val] for s in groups[i]]


def train(
    samples: list[TrainingSample],
    store: Store,
    reranker_config: RerankerConfig,
    config: TrainConfig,
    checkpoint_dir: str | Path,
) -> tuple[RerankerParams, TrainReport]:
    """Shuffled mini-batch training; deterministic given seeds; checkpoints each epoch into
    ``checkpoint_dir``. A directory already holding a ``.gvck`` is refused before anything is
    written, so no checkpoint of another run stays beside this run's."""
    config.validate()
    if not samples:
        raise ValueError("no training samples")
    ckpt = Path(checkpoint_dir)
    if any(ckpt.glob("*.gvck")):
        raise ValueError(f"{ckpt} already holds .gvck checkpoints; train into a directory without any")

    params = init_params(reranker_config)
    rng = np.random.default_rng(config.shuffle_seed)
    train_set, val_set = validation_split(samples, config.val_split, rng)
    if not train_set:
        raise ValueError("val_split leaves no training samples")

    state = init_optimizer_state(params)
    report = TrainReport(train_count=len(train_set), val_count=len(val_set))
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
        save_params(ckpt / f"epoch_{epoch:03d}.gvck", params)
    save_params(ckpt / "final.gvck", params)
    return params, report


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def gradient_check(
    batch: list[TrainingSample],
    params: RerankerParams,
    store: Store,
    config: TrainConfig,
) -> dict[str, float]:
    """Per-tensor max relative error of ``batch_gradients`` against central
    differences of ``_forward``'s loss, both in float64, stepping each
    element of a float64 copy of ``params.flat`` in place by
    ``GRADCHECK_EPSILON``. ``config`` is checked as ``train`` checks it;
    its ``margin`` and ``loss_on`` define the loss."""
    config.validate()
    p = params.astype(np.float64)
    _, analytic = batch_gradients(batch, p, store, config)
    numeric = p.tensors.zeros_like()
    for i, orig in enumerate(p.flat.tolist()):
        p.flat[i] = orig + GRADCHECK_EPSILON
        up = _forward(batch, p, store, config)[0]
        p.flat[i] = orig - GRADCHECK_EPSILON
        down = _forward(batch, p, store, config)[0]
        p.flat[i] = orig
        numeric.flat[i] = (up - down) / (2.0 * GRADCHECK_EPSILON)
    errors: dict[str, float] = {}
    for name in analytic:
        a, n = analytic[name], numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
        errors[name] = float(np.max(np.abs(a - n) / denom))
    return errors


def make_gradcheck_fixture(seed: int) -> tuple[TrainingSample, RerankerParams, Store]:
    """Small random store/sample/params for gradient verification: one query and five candidates."""
    from .geostore import Columns, StoreManifest

    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    cfg = RerankerConfig(image_dim=7, text_dim=5, latent_dim=6, aligner_hidden=6, init_seed=seed + 1)
    # one image then one text draw per row, candidates first, then the query
    ids = [f"c{i}" for i in range(5)]
    rows = rng.standard_normal((len(ids) + 1, cfg.image_dim + cfg.text_dim)).astype(np.float32)
    refs = Columns(ids, rows[:-1, :cfg.image_dim], rows[:-1, cfg.image_dim:])
    query = Columns(["q0"], rows[-1:, :cfg.image_dim], rows[-1:, cfg.image_dim:])
    store = Store(StoreManifest(cfg.image_dim, cfg.text_dim, len(ids), 1), refs, query, {"q0": ("c1",)})
    sample = TrainingSample("q0", tuple(ids), 1)
    return sample, init_params(cfg), store


def run_gradcheck(seed: int, config: TrainConfig) -> float:
    """Max relative error over all tensors for one seeded fixture."""
    sample, params, store = make_gradcheck_fixture(seed)
    return max(gradient_check([sample], params, store, config).values())
