import functools
import json
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from georank.geostore import FormatError, GeoCoord, Store, read_embedding_matrix, write_embedding_matrix
from georank import reranker, trainer
from georank.reranker import (
    QUERY_BLOCK,
    ROW_BLOCK,
    RerankerConfig,
    RerankerParams,
    _linear,
    _sigmoid,
    align,
    expected_shapes,
    init_params,
    load_checkpoint,
    load_params,
    project_fuse,
    rerank,
    rerank_many,
    row_mean,
    save_checkpoint,
    save_params,
    score_logits,
    scorer_inputs,
)
from georank.retriever import Ranking, ordered_entries, top_k

from conftest import build_store, make_query, make_ref, random_store


def tiny_config(**overrides):
    base = dict(image_dim=2, text_dim=3, latent_dim=2, aligner_hidden=2, init_seed=0)
    base.update(overrides)
    return RerankerConfig(**base)


def manual_params(config, **tensors):
    """Zero-initialized tensors (identity LayerNorm) with selective overrides,
    filled into views of one float32 vector."""
    shapes = expected_shapes(config)
    p = RerankerParams(config, np.zeros(sum(int(np.prod(s)) for s in shapes.values()), np.float32))
    for name, view in p.tensors.items():
        if name.endswith(".ln_scale"):
            view[...] = 1
    for name, value in tensors.items():
        p.tensors[name][...] = np.asarray(value, np.float32).reshape(shapes[name])
    p.validate()
    return p


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def test_init_bound_closed_form():
    cfg = RerankerConfig(image_dim=1024, text_dim=1536, latent_dim=512, init_seed=3)
    params = init_params(cfg)
    w = params.tensors["proj_img.w"]
    bound = np.sqrt(6.0 / (1024 + 512))
    assert np.all(np.abs(w) <= bound)
    # the text projection's fan sum is 1536+512=2048 -> bound sqrt(6/2048)
    wt = params.tensors["proj_txt.w"]
    assert np.all(np.abs(wt) <= np.sqrt(6.0 / 2048))
    assert np.sqrt(6.0 / (1024 + 512)) == pytest.approx(0.0625, abs=1e-12)


def test_init_biases_and_layernorm_defaults():
    params = init_params(tiny_config())
    assert np.all(params.tensors["proj_img.b"] == 0)
    assert np.all(params.tensors["align0.ln_scale"] == 1)
    assert np.all(params.tensors["align0.ln_shift"] == 0)
    assert params.tensors["score.b"] == 0


def test_init_deterministic_digest():
    a = init_params(tiny_config(init_seed=42))
    b = init_params(tiny_config(init_seed=42))
    c = init_params(tiny_config(init_seed=43))
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()


def test_config_validation():
    with pytest.raises(ValueError):
        RerankerConfig(latent_dim=0).validate()
    with pytest.raises(ValueError, match="init_seed"):
        RerankerConfig(init_seed=-1).validate()


# ---------------------------------------------------------------------------
# forward pieces
# ---------------------------------------------------------------------------

def test_project_fuse_hand_case():
    params = manual_params(
        tiny_config(),
        **{"proj_img.w": np.eye(2), "proj_txt.w": [[1, 0, 0], [0, 1, 0]]},
    )
    fused = project_fuse(np.array([[1.0, 2.0]]), np.array([[3.0, 4.0, 5.0]]), params)
    assert fused[0] == pytest.approx([4.0, 6.0], abs=1e-12)


def test_project_fuse_zero_text_is_image_projection():
    params = init_params(tiny_config())
    img = np.array([[0.5, -1.5]], np.float32)
    fused = project_fuse(img, np.zeros((1, 3)), params)
    wi, bi = params.tensors["proj_img.w"], params.tensors["proj_img.b"]
    assert fused[0] == pytest.approx((img @ wi.T + bi)[0], abs=1e-7)


def test_project_fuse_dim_mismatch():
    params = init_params(tiny_config())
    with pytest.raises(ValueError, match="image dim"):
        project_fuse(np.ones((1, 3)), np.ones((1, 3)), params)
    with pytest.raises(ValueError, match="text dim"):
        project_fuse(np.ones((1, 2)), np.ones((1, 2)), params)


def test_align_hand_case_identity_block():
    params = manual_params(tiny_config(), **{"align0.w": np.eye(2), "align1.w": np.eye(2)})
    out = align(np.array([[1.0, -1.0]]), params)
    assert out[0] == pytest.approx([1.0, 0.0], abs=1e-4)


def test_align_zero_fixed_point_and_nonnegative():
    params = init_params(tiny_config(latent_dim=4, aligner_hidden=4))
    zero = align(np.zeros((1, 4)), params)
    assert np.all(zero == 0)
    rng = np.random.default_rng(0)
    out = align(rng.standard_normal((10, 4)), params)
    assert np.all(out >= 0)


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------

def _score_one(query, ref, params):
    """The sigmoid score of one (image, text) query against one (image, text) reference."""
    rows = [np.atleast_2d(x) for x in (*query, *ref)]
    return float(_sigmoid(score_logits(*rows, params, [1]))[0])


def test_score_zero_weights_gives_half():
    params = manual_params(tiny_config())
    rng = np.random.default_rng(1)
    for _ in range(5):
        s = _score_one((rng.standard_normal(2), rng.standard_normal(3)),
                       (rng.standard_normal(2), rng.standard_normal(3)), params)
        assert s == 0.5


def test_score_saturates_with_large_bias():
    params = manual_params(tiny_config(), **{"score.b": 20.0})
    s = _score_one((np.ones(2), np.ones(3)), (np.ones(2), np.ones(3)), params)
    assert s == pytest.approx(1.0, abs=1e-8)
    assert 0.0 < s < 1.0


def test_score_strictly_inside_unit_interval_even_when_saturated():
    params = manual_params(tiny_config(), **{"score.b": 1000.0})
    s = _score_one((np.ones(2), np.ones(3)), (np.ones(2), np.ones(3)), params)
    assert 0.0 < s < 1.0
    params = manual_params(tiny_config(), **{"score.b": -1000.0})
    s = _score_one((np.ones(2), np.ones(3)), (np.ones(2), np.ones(3)), params)
    assert 0.0 < s < 1.0


def _oracle_score(q_img, q_txt, r_img, r_txt, params):
    """Independent re-evaluation of the composed closed form, float64."""
    t = {k: v.astype(np.float64) for k, v in params.tensors.items()}

    def fuse(img, txt):
        return t["proj_img.w"] @ img + t["proj_img.b"] + t["proj_txt.w"] @ txt + t["proj_txt.b"]

    def aligned(x):
        for i in range(2):
            z = t[f"align{i}.w"] @ x + t[f"align{i}.b"]
            mu = z.mean()
            sigma = np.sqrt(((z - mu) ** 2).mean() + 1e-5)
            x = np.maximum(t[f"align{i}.ln_scale"] * (z - mu) / sigma + t[f"align{i}.ln_shift"], 0.0)
        return x

    a_q = aligned(fuse(np.asarray(q_img, np.float64), np.asarray(q_txt, np.float64)))
    a_r = aligned(fuse(np.asarray(r_img, np.float64), np.asarray(r_txt, np.float64)))
    logit = float((t["score.w"] @ a_q) @ a_r + t["score.b"])
    return 1.0 / (1.0 + np.exp(-logit))


def test_score_matches_independent_reimplementation():
    cfg = tiny_config(latent_dim=5, aligner_hidden=7, image_dim=4, text_dim=6, init_seed=9)
    params = init_params(cfg).astype(np.float64)
    rng = np.random.default_rng(2)
    for _ in range(10):
        q = (rng.standard_normal(4), rng.standard_normal(6))
        r = (rng.standard_normal(4), rng.standard_normal(6))
        assert _score_one(q, r, params) == pytest.approx(_oracle_score(*q, *r, params), abs=1e-12)


def test_score_trace_consistency():
    params = init_params(tiny_config(init_seed=5))
    rng = np.random.default_rng(3)
    q_img, q_txt, r_img, r_txt = (rng.standard_normal(d) for d in (2, 3, 2, 3))
    logit = float(score_logits(q_img[None, :], q_txt[None, :], r_img[None, :], r_txt[None, :], params, [1])[0])
    score = _score_one((q_img, q_txt), (r_img, r_txt), params)
    assert score == pytest.approx(1.0 / (1.0 + np.exp(-logit)), abs=1e-12)
    assert 0.0 < score < 1.0
    assert np.all(align(project_fuse(q_img[None, :], q_txt[None, :], params), params) >= 0)
    assert np.all(align(project_fuse(r_img[None, :], r_txt[None, :], params), params) >= 0)


def test_align_cache_does_not_change_output():
    params = init_params(tiny_config(latent_dim=4, aligner_hidden=5, init_seed=2))
    x = np.random.default_rng(5).standard_normal((6, 4))
    cache = []
    assert np.array_equal(align(x, params, cache=cache), align(x, params))
    assert len(cache) == 2


def test_rerank_scores_the_network_training_optimises():
    """One forward: the logits rerank scores equal, bit for bit, those the
    trainer's loss and gradients are taken from."""
    sample, _, store = trainer.make_gradcheck_fixture(3)
    cfg = RerankerConfig(image_dim=7, text_dim=5, latent_dim=6, aligner_hidden=6, init_seed=4)
    params = init_params(cfg)
    q = store.query(sample.query_id)
    logits = score_logits(*scorer_inputs(store.queries, store.query_rows([q.id]), "query"),
                          *scorer_inputs(store.refs, store.ref_rows(sample.candidate_ids), "candidate"), params,
                          [len(sample.candidate_ids)])
    _, ctx = trainer._forward([sample], params, store, trainer.TrainConfig(margin=1.0, loss_on="scores"))
    assert np.array_equal(ctx["logits"], logits)
    assert np.array_equal(ctx["scores"], _sigmoid(logits))
    candidates = Ranking(q.id, [(rid, 0.0) for rid in sample.candidate_ids])
    ranked = rerank(q, candidates, params, store)
    by_id = dict(zip(sample.candidate_ids, _sigmoid(logits)))
    assert all(score == by_id[rid] for rid, score in ranked.entries)


def test_stacked_score_logits_match_per_query_calls():
    params = init_params(tiny_config(latent_dim=4, aligner_hidden=5, init_seed=3))
    rng = np.random.default_rng(9)
    q_img, q_txt = rng.standard_normal((3, 2)), rng.standard_normal((3, 3))
    c_img, c_txt = rng.standard_normal((8, 2)), rng.standard_normal((8, 3))
    stacked = score_logits(q_img, q_txt, c_img, c_txt, params, counts=[4, 1, 3])
    for b, (lo, hi) in enumerate([(0, 4), (4, 5), (5, 8)]):
        one = score_logits(q_img[b : b + 1], q_txt[b : b + 1], c_img[lo:hi], c_txt[lo:hi], params, [hi - lo])
        np.testing.assert_allclose(stacked[lo:hi], one, rtol=1e-5, atol=1e-6)
    for counts in ([4, 1, 2], [4, 1, 4]):
        with pytest.raises(ValueError, match="counts cover"):
            score_logits(q_img, q_txt, c_img, c_txt, params, counts=counts)


def test_score_deterministic_bitwise():
    params = init_params(tiny_config(init_seed=7))
    rng = np.random.default_rng(4)
    q_img, q_txt = rng.standard_normal((1, 2)), rng.standard_normal((1, 3))
    c_img, c_txt = rng.standard_normal((6, 2)), rng.standard_normal((6, 3))
    a = _sigmoid(score_logits(q_img, q_txt, c_img, c_txt, params, [6]))
    b = _sigmoid(score_logits(q_img, q_txt, c_img, c_txt, params, [6]))
    assert np.array_equal(a, b)


def test_shared_projection_shape_contract_both_ways():
    params = init_params(tiny_config())
    rng = np.random.default_rng(6)
    a = (rng.standard_normal(2), rng.standard_normal(3))
    b = (rng.standard_normal(2), rng.standard_normal(3))
    s_ab = _score_one(a, b, params)
    s_ba = _score_one(b, a, params)
    assert 0.0 < s_ab < 1.0 and 0.0 < s_ba < 1.0


# ---------------------------------------------------------------------------
# dense layers as (W·xᵀ)ᵀ: bit for bit the x·Wᵀ they replace
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(m=st.integers(1, 300), k=st.integers(1, 1536), n=st.integers(1, 1536), seed=st.integers(0, 2**32 - 1))
def test_linear_is_bitwise_x_times_w_transposed(m, k, n, seed):
    """In float32, ``(w @ x.T).T`` equals ``x @ w.T`` bit for bit. This is a
    property of the BLAS numpy links, not of georank; it was verified on
    OpenBLAS 0.3.31 (AVX-512) only."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((m, k)).astype(np.float32)
    w = rng.standard_normal((n, k)).astype(np.float32)
    got = _linear(x, w)
    assert got.dtype == np.float32 and got.flags.c_contiguous
    assert np.array_equal(got, x @ w.T)


def _reference_logits(q_img, q_txt, c_img, c_txt, params, counts):
    """The scorer forward written with x @ w.T and np.mean: (logits, aligned_q, aligned_c, u_c)."""
    t = params.tensors
    fused = [(img @ t["proj_img.w"].T + t["proj_img.b"]) + (txt @ t["proj_txt.w"].T + t["proj_txt.b"])
             for img, txt in ((q_img, q_txt), (c_img, c_txt))]
    x = np.concatenate(fused)
    for i in range(2):
        z = x @ t[f"align{i}.w"].T + t[f"align{i}.b"]
        zc = z - z.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt((zc * zc).mean(axis=-1, keepdims=True) + 1e-5)
        x = np.maximum(t[f"align{i}.ln_scale"] * (zc * inv) + t[f"align{i}.ln_shift"], 0)
    aligned_q, aligned_c = x[: len(q_img)], x[len(q_img) :]
    u_c = (aligned_q @ t["score.w"].T)[np.repeat(np.arange(len(q_img)), counts)]
    return np.einsum("ij,ij->i", aligned_c, u_c) + t["score.b"], aligned_q, aligned_c, u_c


@pytest.mark.parametrize("latent", [64, 512])
def test_score_logits_bitwise_equal_to_reference_forward(latent):
    """The float32 forward equals one written with ``x @ w.T`` and ``np.mean``
    bit for bit. The products' equality is a property of the BLAS; it was
    verified on OpenBLAS 0.3.31 (AVX-512) only."""
    cfg = RerankerConfig(image_dim=96, text_dim=80, latent_dim=latent, aligner_hidden=latent, init_seed=6)
    params = init_params(cfg)
    rng = np.random.default_rng(latent)
    q_img, q_txt = rng.standard_normal((3, 96)).astype(np.float32), rng.standard_normal((3, 80)).astype(np.float32)
    c_img, c_txt = rng.standard_normal((16, 96)).astype(np.float32), rng.standard_normal((16, 80)).astype(np.float32)
    for counts in ([10, 1, 5], [16]):
        b = len(counts)
        want = _reference_logits(q_img[:b], q_txt[:b], c_img, c_txt, params, counts)
        assert np.array_equal(score_logits(q_img[:b], q_txt[:b], c_img, c_txt, params, counts), want[0])
        cache = {}
        assert np.array_equal(score_logits(q_img[:b], q_txt[:b], c_img, c_txt, params, counts, cache), want[0])
        for name, value in zip(("aligned_q", "aligned_c", "u_c"), want[1:]):
            assert np.array_equal(cache[name], value), name
    # one query with all ten candidates
    want = _reference_logits(q_img[:1], q_txt[:1], c_img[:10], c_txt[:10], params, [10])[0]
    assert np.array_equal(score_logits(q_img[:1], q_txt[:1], c_img[:10], c_txt[:10], params, [10]), want)


@pytest.mark.parametrize("loss_on", ["scores", "logits"])
@pytest.mark.parametrize("latent", [64, 512])
def test_batch_gradients_bitwise_equal_to_reference_forward(latent, loss_on, monkeypatch):
    """Gradients are bit for bit those of a forward and backward written with
    ``x @ w.T`` and ``np.mean``. The products' equality is a property of the
    BLAS; it was verified on OpenBLAS 0.3.31 (AVX-512) only."""
    rng = np.random.default_rng(latent)
    store = random_store(rng, 30, 4, 48, text_dim=40, with_text=True)
    samples = [trainer.TrainingSample(f"q{i:05d}", tuple(f"r{j:05d}" for j in rng.choice(30, 6, replace=False)),
                                      int(rng.integers(0, 6))) for i in range(4)]
    cfg = RerankerConfig(image_dim=48, text_dim=40, latent_dim=latent, aligner_hidden=latent, init_seed=2)
    params, config = init_params(cfg), trainer.TrainConfig(loss_on=loss_on)
    loss, grads = trainer.batch_gradients(samples, params, store, config)
    monkeypatch.setattr(reranker, "_linear", lambda x, w: x @ w.T)
    monkeypatch.setattr(reranker, "row_mean", lambda z: z.mean(axis=-1, keepdims=True))
    want_loss, want = trainer.batch_gradients(samples, params, store, config)
    assert loss == want_loss
    assert np.array_equal(grads.flat, want.flat)


# ---------------------------------------------------------------------------
# frozen oracle: the scorer's forward, backward and rerank loop with a new
# array for every operation, which the lean code must match byte for byte
# ---------------------------------------------------------------------------

def _frozen_project_fuse(image_emb, text_emb, params):
    t = params.tensors
    img, txt = np.asarray(image_emb, dtype=params.dtype), np.asarray(text_emb, dtype=params.dtype)
    return (_linear(img, t["proj_img.w"]) + t["proj_img.b"]) + (_linear(txt, t["proj_txt.w"]) + t["proj_txt.b"])


def _frozen_blocks(params):
    return [tuple(params.tensors[f"align{i}.{part}"] for part in ("w", "b", "ln_scale", "ln_shift"))
            for i in range(reranker.ALIGNER_LAYERS)]


def _frozen_align(fused, params, cache=None):
    x = np.asarray(fused, dtype=params.dtype)
    for w, b, scale, shift in _frozen_blocks(params):
        z = _linear(x, w) + b
        mu = row_mean(z)
        zc = z - mu
        var = row_mean(zc * zc)
        inv = 1.0 / np.sqrt(var + reranker.LN_EPSILON)
        xhat = zc * inv
        y = scale * xhat + shift
        if cache is not None:
            cache.append((x, xhat, inv, y))
        x = np.maximum(y, 0)
    return x


def _frozen_sigmoid(x):
    x = np.asarray(x, np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return np.clip(out, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))


def _frozen_bilinear(aligned_q, aligned_c, segment, params):
    u_c = _linear(aligned_q, params.tensors["score.w"])[segment]
    return np.asarray(np.einsum("ij,ij->i", aligned_c, u_c) + params.tensors["score.b"], np.float64), u_c


def _frozen_score_logits(query_img, query_txt, cand_img, cand_txt, params, counts, cache=None):
    cache_align = None if cache is None else cache.setdefault("cache_align", [])
    fused_q = _frozen_project_fuse(query_img, query_txt, params)
    fused_c = _frozen_project_fuse(cand_img, cand_txt, params)
    aligned = _frozen_align(np.concatenate([fused_q, fused_c]), params, cache_align)
    aligned_q, aligned_c = aligned[: len(fused_q)], aligned[len(fused_q) :]
    segment = np.repeat(np.arange(len(aligned_q)), counts)
    logits, u_c = _frozen_bilinear(aligned_q, aligned_c, segment, params)
    if cache is not None:
        cache.update(inputs=(query_img, query_txt, cand_img, cand_txt), aligned_q=aligned_q, aligned_c=aligned_c,
                     segment=segment, starts=np.cumsum(counts) - counts, u_c=u_c)
    return logits


def _frozen_logit_gradients(cache, g_logit, params):
    grads = reranker.TensorViews(np.zeros_like(params.flat), expected_shapes(params.config))
    aligned_q, aligned_c = cache["aligned_q"], cache["aligned_c"]
    grads["score.b"] += np.asarray(g_logit.sum(), params.dtype)
    s_q = np.add.reduceat(g_logit[:, None] * aligned_c, cache["starts"], axis=0)
    grads["score.w"] += s_q.T @ aligned_q
    dout = np.concatenate([s_q @ params.tensors["score.w"], g_logit[:, None] * cache["u_c"]])
    blocks = _frozen_blocks(params)
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
    for d_fused, img, txt in ((dout[: len(aligned_q)], q_img, q_txt), (dout[len(aligned_q) :], c_img, c_txt)):
        grads["proj_img.w"] += d_fused.T @ img
        grads["proj_img.b"] += d_fused.sum(axis=0)
        grads["proj_txt.w"] += d_fused.T @ txt
        grads["proj_txt.b"] += d_fused.sum(axis=0)
    return grads


def _frozen_rerank_many(rankings, params, store):
    """The rerank loop over a new reference-row cache: the set's distinct rows
    in ascending row order, ROW_BLOCK to a zero-padded block, then the
    queries, each projected as one row, QUERY_BLOCK to a zero-padded block."""
    ids = [r.ids() for r in rankings]
    rows = [store.ref_rows(i) for i in ids]
    distinct = np.unique(np.concatenate(rows)) if rows else np.empty(0, np.intp)
    aligned = np.zeros((len(store.ref_ids), params.config.latent_dim), params.dtype)
    for lo in range(0, len(distinct), ROW_BLOCK):
        block = distinct[lo : lo + ROW_BLOCK]
        img, txt = (reranker._padded(x, ROW_BLOCK) for x in scorer_inputs(store.refs, block, "candidate"))
        aligned[block] = _frozen_align(_frozen_project_fuse(img, txt, params), params)[: len(block)]
    q_rows = store.query_rows([r.query_id for r in rankings])
    out = []
    for lo in range(0, len(rankings), QUERY_BLOCK):
        img, txt = scorer_inputs(store.queries, q_rows[lo : lo + QUERY_BLOCK], "query")
        fused_q = np.concatenate([_frozen_project_fuse(img[j : j + 1], txt[j : j + 1], params) for j in range(len(img))])
        for i, aligned_q in enumerate(_frozen_align(reranker._padded(fused_q, QUERY_BLOCK), params)[: len(fused_q)],
                                      start=lo):
            logits, _ = _frozen_bilinear(aligned_q[None], aligned[rows[i]], np.zeros(len(ids[i]), np.intp), params)
            out.append(ordered_entries(ids[i], _frozen_sigmoid(logits), len(ids[i])))
    return out


def _entry_bytes(entries):
    """A ranking's ids, and its scores as float64 bytes, so -0.0 and NaN payloads count."""
    return [rid for rid, _ in entries], np.array([s for _, s in entries], np.float64).tobytes()


@st.composite
def _scorer_cases(draw):
    """A random store with text, random params (float32 or float64, every
    tensor random) and 1-9 rankings of 0-12 distinct candidates each."""
    width = st.one_of(st.integers(1, 64), st.just(512))
    image_dim, text_dim, latent, hidden = (draw(width) for _ in range(4))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n_refs, n_queries = draw(st.integers(1, 30)), draw(st.integers(1, 9))
    store = random_store(rng, n_refs, n_queries, image_dim, text_dim, with_text=True)
    params = init_params(RerankerConfig(image_dim=image_dim, text_dim=text_dim, latent_dim=latent,
                                        aligner_hidden=hidden, init_seed=seed % 1000))
    for name, t in params.tensors.items():
        if not name.endswith(".w"):
            t[...] = 0.5 * rng.standard_normal(t.shape) + name.endswith(".ln_scale")
    params = params.astype(draw(st.sampled_from([np.float32, np.float64])))
    rankings = []
    for qid in rng.choice(store.query_ids, draw(st.integers(1, n_queries)), replace=False).tolist():
        picked = rng.choice(n_refs, min(n_refs, draw(st.integers(0, 12))), replace=False)
        rankings.append(Ranking(qid, [(store.ref_ids[r], float(rng.standard_normal())) for r in picked]))
    return store, params, rankings


@settings(max_examples=40, deadline=None)
@given(case=_scorer_cases())
def test_rerank_many_and_lone_rerank_equal_the_frozen_loop_byte_for_byte(case):
    store, params, rankings = case
    want = [_entry_bytes(e) for e in _frozen_rerank_many(rankings, params, store)]
    assert [_entry_bytes(r.entries) for r in rerank_many(rankings, params, store)] == want
    lone = [rerank(store.query(r.query_id), r, params, store).entries for r in rankings]
    assert [_entry_bytes(e) for e in lone] == [_entry_bytes(_frozen_rerank_many([r], params, store)[0])
                                               for r in rankings]


@settings(max_examples=40, deadline=None)
@given(case=_scorer_cases(), loss_on=st.sampled_from(trainer.LOSS_ON), margin=st.sampled_from([0.05, 1.0]))
def test_score_logits_gradients_and_adam_step_equal_the_frozen_scorer_byte_for_byte(case, loss_on, margin):
    """``score_logits`` and every array it caches, ``batch_gradients``' loss
    and gradients (signed zeros included) and the flat vector after one Adam
    step on them, each against the frozen forward and backward."""
    store, params, rankings = case
    inputs = (*scorer_inputs(store.queries, store.query_rows([r.query_id for r in rankings]), "query"),
              *scorer_inputs(store.refs, store.ref_rows([rid for r in rankings for rid in r.ids()]), "candidate"))
    counts = np.array([len(r.entries) for r in rankings])
    got_cache, want_cache = {}, {}
    got = score_logits(*inputs, params, counts, got_cache)
    assert got.tobytes() == _frozen_score_logits(*inputs, params, counts, want_cache).tobytes()
    assert got_cache.keys() == want_cache.keys()
    for key in ("aligned_q", "aligned_c", "segment", "starts", "u_c"):
        assert got_cache[key].tobytes() == want_cache[key].tobytes(), key
    for got_block, want_block in zip(got_cache["cache_align"], want_cache["cache_align"], strict=True):
        assert [a.tobytes() for a in got_block] == [a.tobytes() for a in want_block]

    samples = [trainer.TrainingSample(r.query_id, tuple(r.ids()), len(r.entries) // 2)
               for r in rankings if len(r.entries) >= 2]
    if not samples:
        return
    config = trainer.TrainConfig(margin=margin, loss_on=loss_on, lr=3e-3)
    loss, grads = trainer.batch_gradients(samples, params, store, config)
    with pytest.MonkeyPatch.context() as frozen:
        frozen.setattr(trainer, "score_logits", _frozen_score_logits)
        frozen.setattr(trainer, "_sigmoid", _frozen_sigmoid)
        frozen.setattr(trainer, "logit_gradients", _frozen_logit_gradients)
        want_loss, want = trainer.batch_gradients(samples, params, store, config)
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    assert grads.flat.tobytes() == want.flat.tobytes()
    stepped = [trainer.optimizer_step(params.copy(), g, trainer.init_optimizer_state(params), config)[0].flat
               for g in (grads, want)]
    assert stepped[0].tobytes() == stepped[1].tobytes()


def test_sigmoid_equals_the_frozen_one_on_zeros_subnormals_overflow_infinities_and_nans():
    """Both signs of zero, of the smallest subnormal and of a NaN (with a
    payload too), exp's overflow edges and the infinities, at every position
    of arrays short and long enough for numpy's vector loops."""
    nan_payload = np.array([0x7FF8000000000123], np.uint64).view(np.float64)[0]
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 700.0, -700.0, 745.2, -745.2, 710.0, -710.0,
                        np.inf, -np.inf, np.nan, -np.nan, nan_payload, -nan_payload, 36.8, -36.8, 1e-17, -1e-17])
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 7, 8, 9, 16, 17, 64, 100):
        for _ in range(20):
            x = np.where(rng.random(n) < 0.5, rng.choice(special, n), 30.0 * rng.standard_normal(n))
            assert _sigmoid(x).tobytes() == _frozen_sigmoid(x).tobytes(), x
    assert _sigmoid(special).tobytes() == _frozen_sigmoid(special).tobytes()
    assert _sigmoid(np.float32(3.0)).tobytes() == _frozen_sigmoid(np.float32(3.0)).tobytes()


# ---------------------------------------------------------------------------
# rerank
# ---------------------------------------------------------------------------

def _store_with_text():
    rng = np.random.default_rng(10)
    refs = [make_ref(f"r{i}", rng.standard_normal(2), text=rng.standard_normal(3)) for i in range(5)]
    queries = [make_query("q0", rng.standard_normal(2), ["r2"], text=rng.standard_normal(3))]
    return build_store(refs, queries, image_dim=2, text_dim=3)


def test_rerank_is_a_permutation():
    store = _store_with_text()
    params = init_params(tiny_config(init_seed=11))
    baseline = top_k(store.query("q0").image_emb, store, 5, query_id="q0")
    out = rerank(store.query("q0"), baseline, params, store)
    assert sorted(out.ids()) == sorted(baseline.ids())
    assert len(out.entries) == len(baseline.entries)
    assert out.reranked is True
    out.validate()


def test_rerank_singleton_is_identity():
    store = _store_with_text()
    params = init_params(tiny_config(init_seed=11))
    baseline = top_k(store.query("q0").image_emb, store, 1, query_id="q0")
    out = rerank(store.query("q0"), baseline, params, store)
    assert out.ids() == baseline.ids()


def test_rerank_empty_ranking_comes_back_empty_and_reranked():
    store = _store_with_text()
    out = rerank(store.query("q0"), Ranking("q0", []), init_params(tiny_config(init_seed=11)), store)
    assert (out.query_id, out.entries, out.reranked) == ("q0", [], True)


def test_rerank_zero_weights_falls_back_to_id_order():
    store = _store_with_text()
    params = manual_params(tiny_config())
    baseline = top_k(store.query("q0").image_emb, store, 5, query_id="q0")
    out = rerank(store.query("q0"), baseline, params, store)
    assert out.ids() == sorted(baseline.ids())
    assert all(s == 0.5 for _, s in out.entries)


def test_rerank_refuses_a_candidate_listed_twice_before_aligning_a_row(monkeypatch):
    """``save_rankings`` refuses a repeated candidate, so reranking one would write nothing."""
    store = _store_with_text()
    params = init_params(tiny_config(init_seed=11))
    baseline = top_k(store.query("q0").image_emb, store, 5, query_id="q0")
    twice = Ranking("q0", baseline.entries + baseline.entries[:1])
    monkeypatch.setattr(reranker, "align", lambda *args: pytest.fail("a row was aligned"))
    problem = re.escape(f"query 'q0': candidate '{baseline.ids()[0]}' is listed twice")
    with pytest.raises(ValueError, match=problem):
        rerank(store.query("q0"), twice, params, store)
    with pytest.raises(ValueError, match=problem):
        rerank_many([baseline, twice], params, store)


def test_rerank_missing_candidate_text_names_id():
    rng = np.random.default_rng(12)
    refs = [
        make_ref("ok", rng.standard_normal(2), text=rng.standard_normal(3)),
        make_ref("no_text", rng.standard_normal(2)),
    ]
    queries = [make_query("q0", rng.standard_normal(2), ["ok"], text=rng.standard_normal(3))]
    store = build_store(refs, queries, image_dim=2, text_dim=3)
    ranking = top_k(store.query("q0").image_emb, store, 2, query_id="q0")
    with pytest.raises(ValueError, match="no_text"):
        rerank(store.query("q0"), ranking, init_params(tiny_config()), store)


def test_rerank_missing_query_text_rejected():
    rng = np.random.default_rng(13)
    refs = [make_ref("r0", rng.standard_normal(2), text=rng.standard_normal(3))]
    queries = [make_query("q0", rng.standard_normal(2), ["r0"])]
    store = build_store(refs, queries, image_dim=2, text_dim=3)
    ranking = top_k(store.query("q0").image_emb, store, 1, query_id="q0")
    with pytest.raises(ValueError, match="q0"):
        rerank(store.query("q0"), ranking, init_params(tiny_config()), store)


def test_rerank_refuses_a_query_that_is_not_the_rankings():
    store = random_store(np.random.default_rng(16), 6, 2, 2, 3, with_text=True)
    ranking = top_k(store.query("q00000").image_emb, store, 3, query_id="q00000")
    with pytest.raises(ValueError, match="query 'q00001' is not the query of the ranking, 'q00000'"):
        rerank(store.query("q00001"), ranking, init_params(tiny_config()), store)


def test_a_query_without_text_is_refused_alike_by_rerank_many_and_train(tmp_path):
    rng = np.random.default_rng(17)
    refs = [make_ref(f"r{i}", rng.standard_normal(2), text=rng.standard_normal(3)) for i in range(3)]
    queries = [make_query("q0", rng.standard_normal(2), ["r0"], text=rng.standard_normal(3)),
               make_query("q1", rng.standard_normal(2), ["r1"])]
    store = build_store(refs, queries, image_dim=2, text_dim=3)
    rankings = [Ranking(q, [(r, 0.0) for r in ("r0", "r1", "r2")]) for q in ("q0", "q1")]
    with pytest.raises(ValueError) as by_rerank:
        rerank_many(rankings, init_params(tiny_config()), store)
    samples = [trainer.TrainingSample(q, ("r0", "r1", "r2"), 1) for q in ("q0", "q1")]
    with pytest.raises(ValueError) as by_train:
        trainer.train(samples, store, tiny_config(), trainer.TrainConfig(epochs=1, val_split=0.0), tmp_path)
    assert str(by_rerank.value) == str(by_train.value) == "query 'q1' has no text embedding"


# ---------------------------------------------------------------------------
# aligned reference rows: computed once per (store, read-only params)
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _block_params(image_dim, text_dim, latent):
    """Initial weights with random biases and LayerNorm affines, so that a
    zero-padding row is not zero once projected."""
    params = init_params(RerankerConfig(image_dim=image_dim, text_dim=text_dim, latent_dim=latent,
                                        aligner_hidden=latent, init_seed=3))
    rng = np.random.default_rng(latent)
    for name, t in params.tensors.items():
        if not name.endswith(".w"):
            t[...] = 0.1 * rng.standard_normal(t.shape) + name.endswith(".ln_scale")
    return params


@settings(max_examples=60, deadline=None)
@given(dims=st.sampled_from([(7, 5, 6), (64, 64, 64), (128, 128, 128), (256, 256, 512), (1024, 1536, 512)]),
       rows=st.integers(1, ROW_BLOCK), seed=st.integers(0, 2**32 - 1))
def test_a_rows_result_does_not_depend_on_its_row_block(dims, rows, seed):
    """In float32, a row projected and aligned in a zero-padded block of
    ROW_BLOCK rows comes out the same bit for bit at any position, beside any
    neighbours and any zero padding; and a fused query row aligned in a
    zero-padded block of QUERY_BLOCK rows comes out the same at any position,
    beside any other query rows. At 128 wide a row of a 4-row block rounds
    differently from a row of a 16-row block, which is why queries and
    references never share a block. This is a property of the BLAS numpy
    links, not of georank; it was verified on OpenBLAS 0.3.31 only."""
    params = _block_params(*dims)
    rng = np.random.default_rng(seed)
    img, txt = (np.zeros((ROW_BLOCK, d), np.float32) for d in dims[:2])
    img[:rows], txt[:rows] = (rng.standard_normal((rows, d)).astype(np.float32) for d in dims[:2])
    at, alone_at = rng.integers(rows), rng.integers(ROW_BLOCK)
    alone_img, alone_txt = np.zeros_like(img), np.zeros_like(txt)
    alone_img[alone_at], alone_txt[alone_at] = img[at], txt[at]
    block = align(project_fuse(img, txt, params), params)
    alone = align(project_fuse(alone_img, alone_txt, params), params)
    assert np.array_equal(block[at], alone[alone_at])
    queries = project_fuse(img[: min(rows, QUERY_BLOCK)], txt[: min(rows, QUERY_BLOCK)], params)
    at, alone_at = rng.integers(len(queries)), rng.integers(QUERY_BLOCK)
    alone = np.zeros((QUERY_BLOCK, queries.shape[1]), np.float32)
    alone[alone_at] = queries[at]
    in_block = align(reranker._padded(queries, QUERY_BLOCK), params)[at]
    assert np.array_equal(in_block, align(alone, params)[alone_at])
    assert np.array_equal(in_block, align(reranker._padded(queries[at : at + 1], QUERY_BLOCK), params)[0])


def _saved_store_and_checkpoint(tmp_path, image_dim, text_dim, latent, n_refs=300, n_queries=40):
    rng = np.random.default_rng(latent)
    random_store(rng, n_refs, n_queries, image_dim, text_dim, with_text=True).save(tmp_path / "store")
    cfg = RerankerConfig(image_dim=image_dim, text_dim=text_dim, latent_dim=latent, aligner_hidden=latent, init_seed=8)
    save_params(tmp_path / "model.gvck", init_params(cfg))
    return lambda: (Store.load(tmp_path / "store"), load_params(tmp_path / "model.gvck"))


def _rerank_each(store, params, query_ids, k=20):
    out = {}
    for qid in query_ids:
        q = store.query(qid)
        out[qid] = rerank(q, top_k(q.image_emb, store, k, query_id=qid), params, store).entries
    return out


@pytest.mark.parametrize("dims", [(64, 64, 64), (256, 256, 512)])
def test_rerank_does_not_depend_on_the_order_rows_enter_the_cache(tmp_path, dims):
    """Fresh (store, params) pairs, so each pass starts from an empty cache:
    forward, reverse, and forward again after a warm-up pass give the same entries."""
    fresh = _saved_store_and_checkpoint(tmp_path, *dims)
    store, params = fresh()
    forward = _rerank_each(store, params, store.query_ids)
    store, params = fresh()
    reverse = _rerank_each(store, params, store.query_ids[::-1])
    store, params = fresh()
    _rerank_each(store, params, store.query_ids)
    warm = _rerank_each(store, params, store.query_ids)
    assert forward == reverse == warm


def test_a_warm_pass_aligns_only_its_queries_and_the_cache_holds_the_rows_touched(tmp_path, monkeypatch):
    fresh = _saved_store_and_checkpoint(tmp_path, 8, 6, 5, n_refs=200, n_queries=12)
    store, params = fresh()
    rankings = [top_k(store.query(q).image_emb, store, 20, query_id=q) for q in store.query_ids]
    blocks = []
    real_align = reranker.align

    def counted_align(fused, p, cache=None):
        blocks.append(len(fused))
        return real_align(fused, p, cache)

    monkeypatch.setattr(reranker, "align", counted_align)

    first = [rerank(store.query(r.query_id), r, params, store).entries for r in rankings]
    cold = len(blocks)
    cache = reranker.reference_rows(store, params)
    touched = np.unique(np.concatenate([store.ref_rows(r.ids()) for r in rankings]))
    assert np.array_equal(np.flatnonzero(cache.slot >= 0), touched)
    assert cache.count == len(touched) < len(store.ref_ids)
    assert cache.count <= len(cache.aligned) <= len(store.ref_ids)  # doubling stops at the store's size
    seen, new_rows = set(), []
    for r in rankings:
        new_rows.append(len(set(r.ids()) - seen))
        seen |= set(r.ids())
    # a lone cold call: its m new rows in ceil(m/16) 16-row blocks, then its query in a 4-row block of its own
    assert blocks == [b for m in new_rows for b in [ROW_BLOCK] * -(-m // ROW_BLOCK) + [QUERY_BLOCK]]

    second = [rerank(store.query(r.query_id), r, params, store).entries for r in rankings]
    assert blocks[cold:] == [QUERY_BLOCK] * len(rankings)  # one query block each, no reference block
    assert second == first

    store, params = fresh()
    del blocks[:]
    many = rerank_many(rankings, params, store)
    # the file: every distinct row in full 16-row blocks first, then the queries four to a block
    assert blocks == [ROW_BLOCK] * -(-len(touched) // ROW_BLOCK) + [QUERY_BLOCK] * -(-len(rankings) // QUERY_BLOCK)
    assert [r.entries for r in many] == first


@pytest.mark.parametrize("dims", [(8, 6, 5), (64, 64, 64)])
def test_rerank_many_of_shuffled_rankings_equals_lone_reranks(tmp_path, dims):
    """Each ranking is scored with the query its ``query_id`` names, whatever
    the order of the list, and the output keeps the list's order."""
    fresh = _saved_store_and_checkpoint(tmp_path, *dims, n_refs=200, n_queries=13)
    store, params = fresh()
    rankings = [top_k(store.query(q).image_emb, store, 1 + i % 12, query_id=q) for i, q in enumerate(store.query_ids)]
    shuffled = [rankings[i] for i in np.random.default_rng(sum(dims)).permutation(len(rankings))]
    many = rerank_many(shuffled, params, store)
    store, params = fresh()
    assert [(r.query_id, r.entries) for r in many] == [
        (r.query_id, r.entries) for r in (rerank(store.query(s.query_id), s, params, store) for s in shuffled)]


def test_rerank_with_writable_params_reuses_no_row_after_an_in_place_change():
    store = random_store(np.random.default_rng(15), 40, 1, 8, 6, with_text=True)
    params = init_params(RerankerConfig(image_dim=8, text_dim=6, latent_dim=5, aligner_hidden=7, init_seed=2))
    q = store.query("q00000")
    ranking = top_k(q.image_emb, store, 10, query_id=q.id)
    before = rerank(q, ranking, params, store).entries
    params.tensors["proj_img.w"][0, 0] += 1.0
    after = rerank(q, ranking, params, store).entries
    assert after == rerank(q, ranking, params.copy(), store).entries
    assert after != before


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip_bitexact(tmp_path):
    cfg = tiny_config(latent_dim=3, aligner_hidden=4, init_seed=21)
    params = init_params(cfg)
    path = tmp_path / "model.gvck"
    save_params(path, params)
    back = load_params(path)
    assert back.config == cfg
    assert set(back.tensors) == set(params.tensors)
    for name in params.tensors:
        assert np.array_equal(back.tensors[name], params.tensors[name])


# The 610 bytes save_params writes for init_params of GOLDEN_CONFIG. Its config
# block records the scorer's fixed shape: "aligner_layers":2, "ln_epsilon":1e-05
# and "shared_projections":true.
GOLDEN_CONFIG = RerankerConfig(image_dim=1, text_dim=1, latent_dim=1, aligner_hidden=1, init_seed=3)
GOLDEN_GVCK = bytes.fromhex(
    "4756434b010000008c0000007b22616c69676e65725f68696464656e223a312c22616c69676e65725f6c617965727322"
    "3a322c22696d6167655f64696d223a312c22696e69745f73656564223a332c226c6174656e745f64696d223a312c226c"
    "6e5f657073696c6f6e223a31652d30352c227368617265645f70726f6a656374696f6e73223a747275652c2274657874"
    "5f64696d223a317d0a00000070726f6a5f696d672e770200000001000000000000000100000000000000a9b9b7bf0a00"
    "000070726f6a5f696d672e62010000000100000000000000000000000a00000070726f6a5f7478742e77020000000100"
    "00000000000001000000000000002a6669bf0a00000070726f6a5f7478742e6201000000010000000000000000000000"
    "08000000616c69676e302e7702000000010000000000000001000000000000002c96853f08000000616c69676e302e62"
    "010000000100000000000000000000000f000000616c69676e302e6c6e5f7363616c6501000000010000000000000000"
    "00803f0f000000616c69676e302e6c6e5f73686966740100000001000000000000000000000008000000616c69676e31"
    "2e77020000000100000000000000010000000000000067b9913e08000000616c69676e312e6201000000010000000000"
    "0000000000000f000000616c69676e312e6c6e5f7363616c650100000001000000000000000000803f0f000000616c69"
    "676e312e6c6e5f7368696674010000000100000000000000000000000700000073636f72652e77020000000100000000"
    "000000010000000000000024f7b3bf0700000073636f72652e620000000000000000"
)


def test_golden_checkpoint_loads_and_saves_back_byte_identical(tmp_path):
    path, again = tmp_path / "golden.gvck", tmp_path / "again.gvck"
    path.write_bytes(GOLDEN_GVCK)
    params = load_params(path)
    assert params.config == GOLDEN_CONFIG
    assert params.digest() == init_params(GOLDEN_CONFIG).digest()
    save_params(again, params)
    assert again.read_bytes() == GOLDEN_GVCK
    save_params(again, init_params(GOLDEN_CONFIG))
    assert again.read_bytes() == GOLDEN_GVCK


@pytest.mark.parametrize("key, value", [
    ("aligner_layers", 3), ("ln_epsilon", 1e-6), ("shared_projections", False), ("shared_projections", 1),
    ("aligner_layers", None), ("ln_epsilon", None), ("shared_projections", None), ("not a JSON object", []),
])
def test_a_checkpoint_config_off_the_fixed_shape_is_refused_naming_file_and_key(tmp_path, key, value):
    """The golden checkpoint with one fixed key set to another value, or removed (None); or with a
    config block that is a JSON array, not an object."""
    (cfg_len,) = struct.unpack_from("<I", GOLDEN_GVCK, 8)
    config = json.loads(GOLDEN_GVCK[12 : 12 + cfg_len])
    if value is None:
        del config[key]
    elif value == []:
        config = list(config.items())
    else:
        config[key] = value
    block = json.dumps(config, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path = tmp_path / "edited.gvck"
    path.write_bytes(GOLDEN_GVCK[:8] + struct.pack("<I", len(block)) + block + GOLDEN_GVCK[12 + cfg_len :])
    with pytest.raises(FormatError, match=key) as exc:
        load_params(path)
    assert str(path) in str(exc.value)


def test_loaded_params_are_read_only_and_their_copies_writable(tmp_path):
    path = tmp_path / "model.gvck"
    save_params(path, init_params(tiny_config()))
    params = load_params(path)
    with pytest.raises(ValueError, match="read-only"):
        params.flat[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        params.tensors["score.w"][0, 0] = 1.0
    for writable in (params.copy(), params.astype(np.float32), params.astype(np.float64)):
        writable.tensors["score.w"][0, 0] = 2.0
    assert params.tensors["score.w"][0, 0] != 2.0


def test_checkpoint_preserves_extra_optimizer_tensors(tmp_path):
    params = init_params(tiny_config())
    extra = {"opt.t": np.array(3.0, np.float32), "opt.m.score.w": np.ones((2, 2), np.float32)}
    path = tmp_path / "model.gvck"
    # older checkpoints hold optimizer state beside the weights
    save_checkpoint(path, params.config, dict(params.tensors) | extra)
    _, tensors = load_checkpoint(path)
    assert np.array_equal(tensors["opt.m.score.w"], extra["opt.m.score.w"])
    assert tensors["opt.t"] == 3.0
    back = load_params(path)  # opt.* filtered out
    assert not any(k.startswith("opt.") for k in back.tensors)


def test_params_tensors_are_views_of_one_flat_vector():
    params = init_params(tiny_config())
    assert params.flat.size == sum(t.size for t in params.tensors.values())
    for name, t in params.tensors.items():
        assert t.base is params.flat, name
    with pytest.raises(TypeError, match="score.w"):
        params.tensors["score.w"] = np.zeros((2, 2), np.float32)
    params.tensors["score.b"] += 1.5  # in place: the view stays bound
    assert params.flat[-1] == 1.5
    assert params.copy().flat is not params.flat


@pytest.mark.parametrize("edit, match", [
    ("nan", "tensor 'score.b' contains NaN/Inf"),
    ("name", "parameter names mismatch"),
    ("shape", "tensor 'score.w' has shape"),
])
def test_load_params_bad_tensor_is_format_error_naming_file(tmp_path, edit, match):
    params = init_params(tiny_config())
    tensors = dict(params.tensors)
    if edit == "nan":
        tensors["score.b"] = np.array(np.nan, np.float32)
    elif edit == "name":
        tensors["score.x"] = tensors.pop("score.b")
    else:
        tensors["score.w"] = np.zeros((2, 3), np.float32)
    path = tmp_path / "model.gvck"
    save_checkpoint(path, params.config, tensors)
    with pytest.raises(FormatError, match=match) as exc:
        load_params(path)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("kind", ["gvck", "emb", "coords"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_corrupted_file_raises_only_format_error(kind, data):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / f"file.{kind}"
        if kind == "gvck":
            save_params(path, init_params(tiny_config(aligner_hidden=3)))
            load = load_params
        elif kind == "coords":
            refs = [make_ref(f"r{i}", [1.0, float(i)], coord=GeoCoord(10.0 * i, -20.0 * i)) for i in range(3)]
            build_store(refs, [], image_dim=2).save(d)
            path = Path(d) / "refs.coords.emb"
            load = lambda _: Store.load(d)
        else:
            write_embedding_matrix(np.arange(12, dtype=np.float32).reshape(4, 3), path)
            load = read_embedding_matrix
        blob = bytearray(path.read_bytes())
        if data.draw(st.booleans(), label="truncate"):
            del blob[data.draw(st.integers(0, len(blob) - 1), label="keep"):]
        else:
            bit = data.draw(st.integers(0, 8 * len(blob) - 1), label="bit")
            blob[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(blob))
        try:
            load(path)  # a flip inside a payload value can leave a valid file
        except FormatError as exc:
            assert str(path) in str(exc)


def test_checkpoint_bad_magic_and_truncation(tmp_path):
    params = init_params(tiny_config())
    path = tmp_path / "model.gvck"
    save_params(path, params)
    data = path.read_bytes()

    bad = tmp_path / "bad.gvck"
    bad.write_bytes(b"NOPE" + data[4:])
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(bad)

    trunc = tmp_path / "trunc.gvck"
    trunc.write_bytes(data[:-3])
    with pytest.raises(FormatError, match="truncated"):
        load_checkpoint(trunc)

    wrong_version = bytearray(data)
    wrong_version[4] = 7
    vpath = tmp_path / "v.gvck"
    vpath.write_bytes(bytes(wrong_version))
    with pytest.raises(FormatError, match="version"):
        load_checkpoint(vpath)


def _tensor_frame(name: str, dims: tuple[int, ...], payload: bytes) -> bytes:
    nb = name.encode("utf-8")
    return (struct.pack("<I", len(nb)) + nb + struct.pack("<I", len(dims))
            + b"".join(struct.pack("<Q", d) for d in dims) + payload)


def test_checkpoint_repeated_tensor_name_rejected(tmp_path):
    path = tmp_path / "model.gvck"
    save_params(path, init_params(tiny_config()))
    path.write_bytes(path.read_bytes() + _tensor_frame("score.b", (), struct.pack("<f", 5.0)))
    with pytest.raises(FormatError, match="score.b") as exc:
        load_checkpoint(path)
    assert str(path) in str(exc.value)


def test_checkpoint_impossible_tensor_shape_rejected(tmp_path):
    path = tmp_path / "model.gvck"
    save_params(path, init_params(tiny_config()))
    path.write_bytes(path.read_bytes() + _tensor_frame("empty", (0,) * 70, b""))  # more dims than numpy allows
    with pytest.raises(FormatError, match="tensor 'empty' has an impossible shape") as exc:
        load_checkpoint(path)
    assert str(path) in str(exc.value)


def test_checkpoint_overflowing_dims_are_truncation(tmp_path):
    path = tmp_path / "model.gvck"
    save_params(path, init_params(tiny_config()))
    path.write_bytes(path.read_bytes() + _tensor_frame("big", (2**40, 2**40), b"\0" * 16))
    with pytest.raises(FormatError, match="truncated checkpoint"):
        load_checkpoint(path)


def test_checkpoint_non_utf8_tensor_name_rejected(tmp_path):
    path = tmp_path / "model.gvck"
    save_params(path, init_params(tiny_config()))
    data = bytearray(path.read_bytes())
    (cfg_len,) = struct.unpack_from("<I", data, 8)
    data[12 + cfg_len + 4] = 0xFF  # first byte of the first tensor name
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match="tensor name is not UTF-8") as exc:
        load_checkpoint(path)
    assert str(path) in str(exc.value)


def test_checkpoint_random_tensor_roundtrip(tmp_path):
    rng = np.random.default_rng(14)
    cfg = tiny_config()
    tensors = {
        f"t{i}": rng.standard_normal(tuple(rng.integers(1, 6, size=rng.integers(0, 4)))).astype(np.float32)
        for i in range(30)
    }
    path = tmp_path / "raw.gvck"
    save_checkpoint(path, cfg, tensors)
    _, back = load_checkpoint(path)
    for name, t in tensors.items():
        assert np.array_equal(back[name], t)
        assert back[name].shape == t.shape


@pytest.mark.parametrize("key, value", [
    ("latent_dim", True), ("init_seed", False), ("latent_dim", 2.5), ("image_dim", 1.0), ("text_dim", "1"),
    ("aligner_hidden", None),
])
def test_a_checkpoint_config_integer_field_that_is_not_a_json_integer_is_refused_naming_file_and_key(
        tmp_path, key, value):
    """The golden checkpoint with one of the five integer fields set to a bool, a float, a string or null."""
    (cfg_len,) = struct.unpack_from("<I", GOLDEN_GVCK, 8)
    config = json.loads(GOLDEN_GVCK[12 : 12 + cfg_len])
    config[key] = value
    block = json.dumps(config, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path = tmp_path / "edited.gvck"
    path.write_bytes(GOLDEN_GVCK[:8] + struct.pack("<I", len(block)) + block + GOLDEN_GVCK[12 + cfg_len :])
    for load in (load_checkpoint, load_params):
        with pytest.raises(FormatError, match=f"unreadable config block \\('{key}' .* is not an integer\\)") as exc:
            load(path)
        assert str(path) in str(exc.value)


@pytest.mark.parametrize("key", ["image_dim", "text_dim", "latent_dim", "aligner_hidden", "init_seed"])
def test_a_checkpoint_config_lacking_an_integer_field_is_refused_naming_file_and_key(tmp_path, key):
    """The golden checkpoint with one of the five integer fields removed: no field takes its default."""
    (cfg_len,) = struct.unpack_from("<I", GOLDEN_GVCK, 8)
    config = json.loads(GOLDEN_GVCK[12 : 12 + cfg_len])
    del config[key]
    block = json.dumps(config, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path = tmp_path / "edited.gvck"
    path.write_bytes(GOLDEN_GVCK[:8] + struct.pack("<I", len(block)) + block + GOLDEN_GVCK[12 + cfg_len :])
    for load in (load_checkpoint, load_params):
        with pytest.raises(FormatError, match=f"unreadable config block \\(no '{key}' key\\)") as exc:
            load(path)
        assert str(path) in str(exc.value)


def test_save_checkpoint_writes_any_layout_and_dtype_as_little_endian_f4(tmp_path):
    base = np.arange(12, dtype=np.float32).reshape(3, 4)
    tensors = {
        "transposed": base.T,  # not C-contiguous
        "strided": base[:, ::2],
        "f64": base.astype(np.float64),
        "big_endian": base.astype(">f4"),
        "scalar": np.float32(2.5),
        "empty": np.zeros((0, 3), np.float32),
    }
    path = tmp_path / "layouts.gvck"
    save_checkpoint(path, tiny_config(), tensors)
    again = tmp_path / "again.gvck"
    save_checkpoint(again, tiny_config(), {name: np.array(t, "<f4", order="C") for name, t in tensors.items()})
    assert path.read_bytes() == again.read_bytes()
    _, back = load_checkpoint(path)
    for name, t in tensors.items():
        assert back[name].dtype == np.dtype("<f4") and back[name].shape == np.shape(t), name
        assert np.array_equal(back[name], t), name


def test_tensors_out_of_canonical_order_between_optimizer_state_load_bit_equal(tmp_path):
    params = init_params(tiny_config(latent_dim=3, aligner_hidden=4, init_seed=9))
    canonical = tmp_path / "canonical.gvck"
    save_params(canonical, params)
    names = list(params.tensors)
    rng = np.random.default_rng(3)
    shuffled: dict[str, np.ndarray] = {}
    for i, name in enumerate(rng.permutation(names)):
        shuffled[name] = params.tensors[name]
        shuffled[f"opt.m.{i}"] = np.full((i + 1, 2), np.nan, np.float32)  # never read by load_params
    assert list(shuffled)[0] != names[0]
    mixed = tmp_path / "mixed.gvck"
    save_checkpoint(mixed, params.config, shuffled)
    want, got = load_params(canonical), load_params(mixed)
    assert got.config == want.config
    assert list(got.tensors) == names
    assert got.flat.tobytes() == want.flat.tobytes()
    assert not got.flat.flags.writeable
    for name, view in got.tensors.items():
        assert view.base is got.flat and not view.flags.writeable, name
    _, tensors = load_checkpoint(mixed)
    assert list(tensors) == list(shuffled)
    for name, t in shuffled.items():
        assert np.array_equal(tensors[name], t, equal_nan=True), name


def _faulty(tmp_path, params, edits: dict, extra: dict | None = None) -> Path:
    """``params``' tensors in canonical order with ``edits`` applied (name -> array, or name -> None to
    drop it), then the ``extra`` frames, raw, at the end."""
    tensors = {name: t for name, t in (dict(params.tensors) | edits).items() if t is not None}
    path = tmp_path / "faulty.gvck"
    save_checkpoint(path, params.config, tensors)
    path.write_bytes(path.read_bytes() + b"".join(_tensor_frame(n, d, p) for n, (d, p) in (extra or {}).items()))
    return path


@pytest.mark.parametrize("fault", ["misnamed+misshapen", "misshapen+nan", "two nans", "impossible extra",
                                   "impossible opt", "impossible after duplicate"])
def test_a_checkpoint_with_two_faults_raises_the_first_in_refusal_order(tmp_path, fault):
    params = init_params(tiny_config())
    nan = np.array(np.nan, np.float32)
    impossible = {"opt.zero": ((0,) * 70, b"")}
    if fault == "misnamed+misshapen":
        path = _faulty(tmp_path, params, {"score.w": np.zeros((2, 3), np.float32), "score.b": None,
                                          "score.x": nan})
        match = r"parameter names mismatch \(missing \['score.b'\], extra \['score.x'\]\)"
    elif fault == "misshapen+nan":
        path = _faulty(tmp_path, params, {"proj_img.w": np.full((2, 2), np.nan, np.float32),
                                          "score.w": np.zeros((3, 2), np.float32)})
        match = r"tensor 'score.w' has shape \(3, 2\), expected \(2, 2\)"
    elif fault == "two nans":  # the file holds score.b first; the canonical order names proj_img.b first
        tensors = dict(params.tensors) | {"proj_img.b": np.full(2, np.inf, np.float32), "score.b": nan}
        path = tmp_path / "faulty.gvck"
        save_checkpoint(path, params.config, {"score.b": tensors.pop("score.b")} | tensors)
        match = "tensor 'proj_img.b' contains NaN/Inf"
    elif fault == "impossible extra":
        path = _faulty(tmp_path, params, {"score.b": None, "score.w": nan},
                       {"extra": ((0,) * 70, b"")})
        match = "tensor 'extra' has an impossible shape"
    elif fault == "impossible opt":
        path = _faulty(tmp_path, params, {"score.w": np.zeros((3, 2), np.float32), "score.b": nan}, impossible)
        match = "tensor 'opt.zero' has an impossible shape"
    else:  # a duplicate frame before the impossible one is refused first
        path = _faulty(tmp_path, params, {}, {"score.b": ((), struct.pack("<f", 1.0))} | impossible)
        match = "tensor 'score.b' appears twice"
    with pytest.raises(FormatError, match=match) as exc:
        load_params(path)
    assert str(path) in str(exc.value)
    if fault.startswith("impossible"):
        with pytest.raises(FormatError, match=match):
            load_checkpoint(path)


def test_load_params_reads_each_payload_once_into_the_flat_vector(tmp_path):
    """The traced peak of a load is the flat vector plus a fixed slack (the finiteness mask, the file
    buffer and the headers); a load that held the file's bytes or a copy of any tensor beside it
    would exceed it by that tensor's size."""
    import tracemalloc

    cfg = RerankerConfig(image_dim=1024, text_dim=1536, latent_dim=128, aligner_hidden=128)
    params = init_params(cfg)
    path = tmp_path / "model.gvck"
    save_checkpoint(path, cfg, dict(params.tensors) | {"opt.m.proj_txt.w": params.tensors["proj_txt.w"]})
    load_params(path)  # first use of every code path outside the trace
    tracemalloc.start()
    try:
        back = load_params(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back.flat.tobytes() == params.flat.tobytes()
    payload = back.flat.nbytes
    assert payload > 10 * reranker.FINITE_CHUNK
    assert peak <= payload + 2 * reranker.FINITE_CHUNK, (peak, payload)
