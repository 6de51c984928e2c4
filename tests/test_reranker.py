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
    RerankerConfig,
    RerankerParams,
    _linear,
    _sigmoid,
    align,
    expected_shapes,
    gather_candidates,
    init_params,
    load_checkpoint,
    load_params,
    project_fuse,
    rerank,
    save_checkpoint,
    save_params,
    score_candidates,
    score_logits,
)
from georank.retriever import Ranking, top_k

from conftest import build_store, make_query, make_ref, random_store


def tiny_config(**overrides):
    base = dict(image_dim=2, text_dim=3, latent_dim=2, aligner_layers=1, aligner_hidden=2, init_seed=0)
    base.update(overrides)
    return RerankerConfig(**base)


def manual_params(config, **tensors):
    """Zero-initialized tensors (identity LayerNorm) with selective overrides."""
    full = {}
    for name, shape in expected_shapes(config).items():
        if name.endswith(".ln_scale"):
            full[name] = np.ones(shape, np.float32)
        else:
            full[name] = np.zeros(shape, np.float32)
    for name, value in tensors.items():
        full[name] = np.asarray(value, np.float32).reshape(expected_shapes(config)[name])
    p = RerankerParams(config, full)
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
    with pytest.raises(ValueError):
        RerankerConfig(aligner_layers=0).validate()


# ---------------------------------------------------------------------------
# forward pieces
# ---------------------------------------------------------------------------

def test_project_fuse_hand_case():
    params = manual_params(
        tiny_config(),
        **{"proj_img.w": np.eye(2), "proj_txt.w": [[1, 0, 0], [0, 1, 0]]},
    )
    fused = project_fuse(np.array([1.0, 2.0]), np.array([3.0, 4.0, 5.0]), params)
    assert fused == pytest.approx([4.0, 6.0], abs=1e-12)


def test_project_fuse_zero_text_is_image_projection():
    params = init_params(tiny_config())
    img = np.array([0.5, -1.5], np.float32)
    fused = project_fuse(img, np.zeros(3), params)
    wi, bi = params.tensors["proj_img.w"], params.tensors["proj_img.b"]
    assert fused == pytest.approx(img @ wi.T + bi, abs=1e-7)


def test_project_fuse_dim_mismatch():
    params = init_params(tiny_config())
    with pytest.raises(ValueError, match="image dim"):
        project_fuse(np.ones(3), np.ones(3), params)
    with pytest.raises(ValueError, match="text dim"):
        project_fuse(np.ones(2), np.ones(2), params)


def test_align_hand_case_identity_block():
    params = manual_params(tiny_config(), **{"align0.w": np.eye(2)})
    out = align(np.array([1.0, -1.0]), params)
    assert out == pytest.approx([1.0, 0.0], abs=1e-4)


def test_align_zero_fixed_point_and_nonnegative():
    params = init_params(tiny_config(latent_dim=4, aligner_hidden=4, aligner_layers=2))
    zero = align(np.zeros(4), params)
    assert np.all(zero == 0)
    rng = np.random.default_rng(0)
    out = align(rng.standard_normal((10, 4)), params)
    assert np.all(out >= 0)


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------

def _score_one(query, ref, params):
    """``score_candidates`` of one (image, text) query against one (image, text) reference."""
    return float(score_candidates(query[0], query[1], np.atleast_2d(ref[0]), np.atleast_2d(ref[1]), params)[0])


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
    cfg = params.config

    def fuse(img, txt):
        return t["proj_img.w"] @ img + t["proj_img.b"] + t["proj_txt.w"] @ txt + t["proj_txt.b"]

    def aligned(x):
        for i in range(cfg.aligner_layers):
            z = t[f"align{i}.w"] @ x + t[f"align{i}.b"]
            mu = z.mean()
            sigma = np.sqrt(((z - mu) ** 2).mean() + cfg.ln_epsilon)
            x = np.maximum(t[f"align{i}.ln_scale"] * (z - mu) / sigma + t[f"align{i}.ln_shift"], 0.0)
        return x

    a_q = aligned(fuse(np.asarray(q_img, np.float64), np.asarray(q_txt, np.float64)))
    a_r = aligned(fuse(np.asarray(r_img, np.float64), np.asarray(r_txt, np.float64)))
    logit = float((t["score.w"] @ a_q) @ a_r + t["score.b"])
    return 1.0 / (1.0 + np.exp(-logit))


def test_score_matches_independent_reimplementation():
    cfg = tiny_config(latent_dim=5, aligner_hidden=7, aligner_layers=2, image_dim=4, text_dim=6, init_seed=9)
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
    logit = float(score_logits(q_img, q_txt, r_img[None, :], r_txt[None, :], params)[0])
    score = _score_one((q_img, q_txt), (r_img, r_txt), params)
    assert score == pytest.approx(1.0 / (1.0 + np.exp(-logit)), abs=1e-12)
    assert 0.0 < score < 1.0
    assert np.all(align(project_fuse(q_img, q_txt, params, "query"), params) >= 0)
    assert np.all(align(project_fuse(r_img, r_txt, params, "reference"), params) >= 0)


def test_align_cache_does_not_change_output():
    params = init_params(tiny_config(latent_dim=4, aligner_hidden=5, aligner_layers=3, init_seed=2))
    x = np.random.default_rng(5).standard_normal((6, 4))
    cache = []
    assert np.array_equal(align(x, params, cache=cache), align(x, params))
    assert len(cache) == 3


@pytest.mark.parametrize("shared", [True, False])
def test_rerank_scores_the_network_training_optimises(shared):
    """One forward: the logits rerank scores equal, bit for bit, those the
    trainer's loss and gradients are taken from."""
    sample, _, store = trainer.make_gradcheck_fixture(3)
    cfg = RerankerConfig(image_dim=7, text_dim=5, latent_dim=6, aligner_layers=2,
                         aligner_hidden=6, shared_projections=shared, init_seed=4)
    params = init_params(cfg)
    q = store.query(sample.query_id)
    logits = score_logits(q.image_emb, q.text_emb, *gather_candidates(store, sample.candidate_ids), params)
    _, ctx = trainer._forward([sample], params, store, 1.0, "scores")
    assert np.array_equal(ctx["logits"], logits)
    assert np.array_equal(ctx["scores"], _sigmoid(logits))
    candidates = Ranking(q.id, [(rid, 0.0) for rid in sample.candidate_ids], k=len(sample.candidate_ids))
    ranked = rerank(q, candidates, params, store)
    by_id = dict(zip(sample.candidate_ids, _sigmoid(logits)))
    assert all(score == by_id[rid] for rid, score in ranked.entries)


def test_stacked_score_logits_match_per_query_calls():
    params = init_params(tiny_config(latent_dim=4, aligner_hidden=5, aligner_layers=2, init_seed=3))
    rng = np.random.default_rng(9)
    q_img, q_txt = rng.standard_normal((3, 2)), rng.standard_normal((3, 3))
    c_img, c_txt = rng.standard_normal((8, 2)), rng.standard_normal((8, 3))
    stacked = score_logits(q_img, q_txt, c_img, c_txt, params, counts=[4, 1, 3])
    for b, (lo, hi) in enumerate([(0, 4), (4, 5), (5, 8)]):
        one = score_logits(q_img[b], q_txt[b], c_img[lo:hi], c_txt[lo:hi], params)
        np.testing.assert_allclose(stacked[lo:hi], one, rtol=1e-5, atol=1e-6)
    for counts in ([4, 1, 2], None):
        with pytest.raises(ValueError, match="counts cover"):
            score_logits(q_img, q_txt, c_img, c_txt, params, counts=counts)


def test_score_deterministic_bitwise():
    params = init_params(tiny_config(init_seed=7))
    rng = np.random.default_rng(4)
    q_img, q_txt = rng.standard_normal(2), rng.standard_normal(3)
    c_img, c_txt = rng.standard_normal((6, 2)), rng.standard_normal((6, 3))
    a = score_candidates(q_img, q_txt, c_img, c_txt, params)
    b = score_candidates(q_img, q_txt, c_img, c_txt, params)
    assert np.array_equal(a, b)


def test_shared_projection_shape_contract_both_ways():
    params = init_params(tiny_config())
    rng = np.random.default_rng(6)
    a = (rng.standard_normal(2), rng.standard_normal(3))
    b = (rng.standard_normal(2), rng.standard_normal(3))
    s_ab = _score_one(a, b, params)
    s_ba = _score_one(b, a, params)
    assert 0.0 < s_ab < 1.0 and 0.0 < s_ba < 1.0


def test_separate_projections_have_their_own_tensors():
    cfg = tiny_config(shared_projections=False)
    params = init_params(cfg)
    assert "proj_img_q.w" in params.tensors and "proj_img_r.w" in params.tensors
    params.validate()
    rng = np.random.default_rng(8)
    s = _score_one((rng.standard_normal(2), rng.standard_normal(3)),
                   (rng.standard_normal(2), rng.standard_normal(3)), params)
    assert 0.0 < s < 1.0


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
    t, cfg = params.tensors, params.config
    fused = [(img @ t["proj_img.w"].T + t["proj_img.b"]) + (txt @ t["proj_txt.w"].T + t["proj_txt.b"])
             for img, txt in ((q_img, q_txt), (c_img, c_txt))]
    x = np.concatenate(fused)
    for i in range(cfg.aligner_layers):
        z = x @ t[f"align{i}.w"].T + t[f"align{i}.b"]
        zc = z - z.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt((zc * zc).mean(axis=-1, keepdims=True) + cfg.ln_epsilon)
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
    # no counts: every candidate belongs to the one query, as rerank passes it
    want = _reference_logits(q_img[:1], q_txt[:1], c_img[:10], c_txt[:10], params, [10])[0]
    assert np.array_equal(score_logits(q_img[0], q_txt[0], c_img[:10], c_txt[:10], params), want)


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
    for module in (reranker, trainer):
        monkeypatch.setattr(module, "row_mean", lambda z: z.mean(axis=-1, keepdims=True))
    want_loss, want = trainer.batch_gradients(samples, params, store, config)
    assert loss == want_loss
    assert np.array_equal(grads.flat, want.flat)


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


def test_rerank_zero_weights_falls_back_to_id_order():
    store = _store_with_text()
    params = manual_params(tiny_config())
    baseline = top_k(store.query("q0").image_emb, store, 5, query_id="q0")
    out = rerank(store.query("q0"), baseline, params, store)
    assert out.ids() == sorted(baseline.ids())
    assert all(s == 0.5 for _, s in out.entries)


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


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip_bitexact(tmp_path):
    cfg = tiny_config(latent_dim=3, aligner_hidden=4, aligner_layers=2, init_seed=21)
    params = init_params(cfg)
    path = tmp_path / "model.gvck"
    save_params(path, params)
    back = load_params(path)
    assert back.config == cfg
    assert set(back.tensors) == set(params.tensors)
    for name in params.tensors:
        assert np.array_equal(back.tensors[name], params.tensors[name])


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
    params = init_params(tiny_config(aligner_layers=2))
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
            save_params(path, init_params(tiny_config(aligner_layers=2, aligner_hidden=3)))
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
