import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from georank import trainer
from georank.geostore import IngestError
from georank.reranker import (
    RerankerConfig,
    RerankerParams,
    TensorViews,
    _sigmoid,
    expected_shapes,
    init_params,
    load_checkpoint,
    load_params,
    rerank,
    score_logits,
    scorer_inputs,
)
from georank.retriever import Ranking
from georank.trainer import (
    TrainConfig,
    TrainingSample,
    batch_gradients,
    build_training_samples,
    gradient_check,
    init_optimizer_state,
    load_samples,
    make_gradcheck_fixture,
    margin_loss,
    optimizer_step,
    run_gradcheck,
    save_samples,
    train,
)

from conftest import build_store, make_query, make_ref, store_of


# ---------------------------------------------------------------------------
# margin loss
# ---------------------------------------------------------------------------

def test_margin_loss_hand_case():
    assert margin_loss(0.9, [0.5, 0.2], 1.0) == pytest.approx(0.45, abs=1e-12)


def test_margin_loss_inactive_hinge():
    assert margin_loss(2.0, [0.5], 1.0) == 0.0


def test_margin_loss_equality_case():
    assert margin_loss(0.9, [0.9], 1.0) == pytest.approx(1.0, abs=1e-12)


def test_margin_loss_empty_negatives():
    with pytest.raises(ValueError, match="negative"):
        margin_loss(0.5, [], 1.0)


@pytest.mark.parametrize("setting,value", [
    ("lr", -1.0), ("lr", math.nan), ("lr", math.inf), ("margin", -1.0), ("margin", math.nan), ("margin", math.inf),
    ("loss_on", "hinge"), ("batch_size", 0), ("epochs", -1),
])
def test_train_config_refuses_a_setting_out_of_range_naming_it(setting, value):
    with pytest.raises(ValueError, match=setting):
        TrainConfig(**{setting: value}).validate()


@pytest.mark.parametrize("candidates,positive,problem", [
    (("a",), 0, "at least one negative"),
    (("a", "b"), 2, "positive_index 2 out of range"),
    (("a", "b"), -1, "positive_index -1 out of range"),
    (("a", "b", "a"), 0, "duplicate candidates"),
])
def test_invalid_training_sample_raises_on_construction(candidates, positive, problem):
    with pytest.raises(ValueError, match=f"sample 'q' .*{problem}"):
        TrainingSample("q", candidates, positive)


def test_margin_loss_nonnegative_random():
    rng = np.random.default_rng(0)
    for _ in range(200):
        pos = float(rng.uniform(-2, 2))
        negs = rng.uniform(-2, 2, size=rng.integers(1, 10)).tolist()
        m = float(rng.uniform(0, 2))
        assert margin_loss(pos, negs, m) >= 0.0


def test_margin_loss_zero_iff_separated():
    rng = np.random.default_rng(1)
    for _ in range(200):
        m = float(rng.uniform(0.1, 1.0))
        negs = rng.uniform(0, 1, size=5).tolist()
        pos = max(negs) + m + 1e-9
        assert margin_loss(pos, negs, m) == 0.0
        pos_bad = max(negs) + m - 1e-3
        assert margin_loss(pos_bad, negs, m) > 0.0


def test_margin_loss_gating_invariant():
    # a negative separated by more than m can move by delta < gap - m freely
    rng = np.random.default_rng(2)
    for _ in range(100):
        m = float(rng.uniform(0.05, 0.5))
        negs = rng.uniform(0.0, 0.4, size=6).tolist()
        pos = max(negs) + m + float(rng.uniform(0.05, 0.5))
        i = int(rng.integers(0, len(negs)))
        gap = pos - negs[i] - m
        delta = float(rng.uniform(0, gap * 0.999))
        moved = list(negs)
        moved[i] = negs[i] + delta
        assert margin_loss(pos, moved, m) == margin_loss(pos, negs, m)


def test_margin_loss_monotone_in_margin():
    rng = np.random.default_rng(3)
    for _ in range(100):
        pos = float(rng.uniform(0, 1))
        negs = rng.uniform(0, 1, size=4).tolist()
        m = float(rng.uniform(0.1, 1.0))
        assert margin_loss(pos, negs, 2 * m) >= margin_loss(pos, negs, m)


# ---------------------------------------------------------------------------
# analytic gradients
# ---------------------------------------------------------------------------

def test_all_margins_satisfied_gives_exact_zero_gradients():
    sample, params, store = make_gradcheck_fixture(0)
    scores = _sigmoid(score_logits(*scorer_inputs(store.queries, store.query_rows(["q0"]), "query"),
                                   *scorer_inputs(store.refs, store.ref_rows(sample.candidate_ids), "candidate"),
                                   params, [len(sample.candidate_ids)]))
    best = int(np.argmax(scores))
    gap = float(np.sort(scores)[-1] - np.sort(scores)[-2])
    winning = TrainingSample("q0", sample.candidate_ids, best)
    loss, grads = batch_gradients([winning], params, store, TrainConfig(margin=gap / 2))
    assert loss == 0.0
    for name, g in grads.items():
        assert np.all(g == 0), name


def test_gradients_match_finite_differences():
    for seed in (1, 2, 3):
        assert run_gradcheck(seed, TrainConfig()) <= 1e-4


def test_gradients_match_finite_differences_logits_mode():
    assert run_gradcheck(4, TrainConfig(loss_on="logits")) <= 1e-4


def test_gradient_shapes_match_parameters():
    sample, params, store = make_gradcheck_fixture(7)
    _, grads = batch_gradients([sample], params, store, TrainConfig(margin=1.0))
    assert set(grads) == set(params.tensors)
    for name in grads:
        assert grads[name].shape == params.tensors[name].shape


def _mixed_fixture(seed, n_refs=8, n_queries=4):
    """Queries q0.. and references c0.. with random embeddings and a small scorer."""
    rng = np.random.default_rng(seed)
    refs = [make_ref(f"c{i}", rng.standard_normal(7), text=rng.standard_normal(5)) for i in range(n_refs)]
    queries = [make_query(f"q{j}", rng.standard_normal(7), ["c0"], text=rng.standard_normal(5))
               for j in range(n_queries)]
    cfg = RerankerConfig(image_dim=7, text_dim=5, latent_dim=6, aligner_hidden=6, init_seed=seed + 1)
    return build_store(refs, queries, image_dim=7, text_dim=5), init_params(cfg)


# three queries with 5, 3 and 2 candidates
MIXED_BATCH = [
    TrainingSample("q0", ("c0", "c1", "c2", "c3", "c4"), 1),
    TrainingSample("q1", ("c5", "c2", "c7"), 2),
    TrainingSample("q2", ("c6", "c3"), 0),
]


@pytest.mark.parametrize("loss_on", ["scores", "logits"])
def test_batch_gradients_match_finite_differences(loss_on):
    store, params = _mixed_fixture(21)
    for name, err in gradient_check(MIXED_BATCH, params, store, TrainConfig(margin=1.0, loss_on=loss_on)).items():
        assert err <= 1e-4, f"{name}: max relative error {err:.2e}"


def test_batch_gradient_order_invariant():
    store, params = _mixed_fixture(8)
    batch = MIXED_BATCH + [TrainingSample("q0", ("c0", "c1", "c2", "c3", "c4"), 3)]
    config = TrainConfig()
    loss_a, grads_a = batch_gradients(batch, params, store, config)
    for perm in itertools.permutations(batch):
        loss_b, grads_b = batch_gradients(list(perm), params, store, config)
        assert loss_a == loss_b
        for name in grads_a:
            assert np.array_equal(grads_a[name], grads_b[name]), name


@st.composite
def mixed_batches(draw):
    """1-6 samples over queries q0-q3, each with 2-8 distinct candidates of c0-c7."""
    batch = []
    for _ in range(draw(st.integers(1, 6))):
        ids = draw(st.lists(st.integers(0, 7), min_size=2, max_size=8, unique=True))
        batch.append(TrainingSample(f"q{draw(st.integers(0, 3))}", tuple(f"c{i}" for i in ids),
                                    draw(st.integers(0, len(ids) - 1))))
    return batch


@settings(max_examples=60, deadline=None)
@given(mixed_batches(), st.integers(0, 2**16), st.sampled_from(["scores", "logits"]))
@example(batch=[TrainingSample("q2", ("c3", "c5", "c4"), 1)] * 2, seed=1479, loss_on="logits")
def test_batch_gradients_equal_mean_of_sample_gradients_property(batch, seed, loss_on):
    """In float64. In float32 the batch's sums and the per-sample sums round
    apart by about an ulp of the largest terms, which exceeds ``atol`` on an
    element those terms cancel to (the example: 1.7e-6 off on -0.0019, in a
    gradient whose largest element is 8.5)."""
    store, params = _mixed_fixture(seed)
    params = params.astype(np.float64)
    loss, grads = batch_gradients(batch, params, store, TrainConfig(loss_on=loss_on))
    per_sample = [batch_gradients([s], params, store, TrainConfig(loss_on=loss_on)) for s in batch]
    assert loss == pytest.approx(np.mean([l for l, _ in per_sample]), rel=1e-6, abs=1e-9)
    for name, g in grads.items():
        mean = np.mean([gs[name] for _, gs in per_sample], axis=0)
        np.testing.assert_allclose(g, mean, rtol=1e-4, atol=1e-6, err_msg=name)


@pytest.mark.parametrize("per_pass", [7, trainer.VALIDATION_PASS])
def test_candidate_recall_equals_rerank_per_sample(tmp_path, monkeypatch, per_pass):
    samples, store, rr = _train_fixture()
    params, _ = train(samples, store, rr, TrainConfig(epochs=2, lr=3e-3, batch_size=8, val_split=0.0), tmp_path)
    ranks = []
    for s in samples:
        candidates = Ranking(s.query_id, [(rid, 0.0) for rid in s.candidate_ids])
        ranks.append(rerank(store.query(s.query_id), candidates, params, store).ids()
                     .index(s.candidate_ids[s.positive_index]))
    monkeypatch.setattr(trainer, "VALIDATION_PASS", per_pass)
    r1, r5 = trainer._candidate_recall(samples, params, store)
    assert r1 == sum(r == 0 for r in ranks) / len(samples)
    assert r5 == sum(r < 5 for r in ranks) / len(samples)
    assert 0 < r1 < 1


def test_candidate_recall_breaks_tied_scores_by_ascending_id():
    samples, store, rr = _train_fixture()
    # zeroed params score every pair sigmoid(0), so the order is the candidates' id order alone
    params = RerankerParams(rr, np.zeros(sum(math.prod(s) for s in expected_shapes(rr).values()), np.float32))
    positives = [s.candidate_ids[s.positive_index] for s in samples]
    r1, r5 = trainer._candidate_recall(samples, params, store)
    assert r1 == sum(p == min(s.candidate_ids) for p, s in zip(positives, samples)) / len(samples)
    assert r5 == sum(p in sorted(s.candidate_ids)[:5] for p, s in zip(positives, samples)) / len(samples)
    assert 0 < r1 < r5 < 1


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def _scalar_params(theta: float):
    cfg = RerankerConfig(image_dim=1, text_dim=1, latent_dim=1, aligner_hidden=1)
    params = init_params(cfg).astype(np.float64)
    for t in params.tensors.values():
        t[...] = theta
    return params


def _grads(params, value: float) -> TensorViews:
    """Gradients laid out like ``params``, every element ``value``."""
    return TensorViews(np.full_like(params.flat, value), expected_shapes(params.config))


def test_adam_first_step_closed_form():
    params = _scalar_params(0.0)
    config = TrainConfig(lr=0.001)
    state = init_optimizer_state(params)
    new, state = optimizer_step(params, _grads(params, 1.0), state, config)
    # bias-corrected m_hat/sqrt(v_hat) = 1 on the first step
    expected = -0.001 / (1.0 + 1e-8)
    for t in new.tensors.values():
        assert t == pytest.approx(expected, abs=1e-15)
    assert state["t"] == 1


def test_optimizer_shape_mismatch():
    """Gradients not laid out like the parameters are refused: other shapes,
    another tensor order, another dtype (the step's scratch buffers hold the
    parameters' dtype), or a plain mapping, even of the right arrays."""
    params = _scalar_params(0.0)
    shapes = expected_shapes(params.config)
    wider = RerankerConfig(image_dim=3, text_dim=1, latent_dim=1, aligner_hidden=1)
    wider_shapes = expected_shapes(wider)
    for grads in (TensorViews(np.zeros(sum(np.prod(s, dtype=int) for s in wider_shapes.values())), wider_shapes),
                  TensorViews(np.zeros_like(params.flat), dict(reversed(shapes.items()))),
                  TensorViews(np.zeros(params.flat.size, np.float32), shapes),
                  {name: np.zeros_like(t) for name, t in params.tensors.items()}):
        with pytest.raises(ValueError, match="shape"):
            optimizer_step(params, grads, init_optimizer_state(params), TrainConfig())


def _per_tensor_step(tensors, grads, state, config):
    """Reference Adam: one loop over the tensors, each updated on its own,
    with Kingma & Ba's defaults, which ``trainer.ADAM_*`` must hold."""
    t_step = state["t"] + 1
    b1, b2, eps = 0.9, 0.999, 1e-8
    bc1, bc2 = 1.0 - b1 ** t_step, 1.0 - b2 ** t_step
    new, new_m, new_v = {}, {}, {}
    for name, theta in tensors.items():
        g = grads[name]
        m = b1 * state["m"][name] + (1.0 - b1) * g
        v = b2 * state["v"][name] + (1.0 - b2) * g * g
        new_m[name], new_v[name] = m, v
        new[name] = theta - config.lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
    return new, {"t": t_step, "m": new_m, "v": new_v}


def _assert_steps_match_per_tensor_loop(params, config):
    """Four flat Adam steps on ``params`` equal ``_per_tensor_step`` bit
    for bit, on seeded gradients of ``params``' dtype; returns the reference."""
    ref = {name: t.copy() for name, t in params.tensors.items()}
    ref_state = {"t": 0, "m": {n: np.zeros_like(t) for n, t in ref.items()},
                 "v": {n: np.zeros_like(t) for n, t in ref.items()}}
    state = init_optimizer_state(params)
    rng = np.random.default_rng(0)
    for _ in range(4):
        # magnitudes from 1e-9 to 10, so eps matters for some elements and not for others
        grads = {name: np.asarray(rng.standard_normal(t.shape) * 10.0 ** rng.uniform(-9, 1, t.shape), params.dtype)
                 for name, t in ref.items()}
        given = TensorViews(np.zeros_like(params.flat), expected_shapes(params.config))
        for name, g in grads.items():
            given[name][...] = g
        params, state = optimizer_step(params, given, state, config)
        ref, ref_state = _per_tensor_step(ref, grads, ref_state, config)
        for name, t in ref.items():
            assert params.tensors[name].dtype == t.dtype == params.dtype
            assert np.array_equal(params.tensors[name], t), name
        for key in ("m", "v"):
            assert np.array_equal(state[key], np.concatenate([t.ravel() for t in ref_state[key].values()])), key
    return ref


def test_flat_optimizer_bit_exact_against_per_tensor_loop():
    cfg = RerankerConfig(image_dim=5, text_dim=4, latent_dim=6, aligner_hidden=3, init_seed=2)
    ref = _assert_steps_match_per_tensor_loop(init_params(cfg), TrainConfig(lr=3e-3))
    assert ref["score.b"] != 0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_blockwise_optimizer_bit_exact_across_blocks(dtype):
    """A vector of several ``ADAM_BLOCK``-element blocks ending in a partial
    one steps exactly as the per-tensor loop does, in float32 and in
    gradcheck's float64."""
    cfg = RerankerConfig(image_dim=96, text_dim=64, latent_dim=256, aligner_hidden=192, init_seed=3)
    params = init_params(cfg).astype(dtype)
    assert params.flat.size > 3 * trainer.ADAM_BLOCK and params.flat.size % trainer.ADAM_BLOCK
    _assert_steps_match_per_tensor_loop(params, TrainConfig(lr=3e-3))


def test_optimizer_step_allocates_no_full_size_temporary():
    """One step on a vector of over a million elements allocates (as numpy
    reports to tracemalloc) less than half the parameter vector's bytes."""
    cfg = RerankerConfig(image_dim=512, text_dim=512, latent_dim=512, aligner_hidden=512)
    params = init_params(cfg)
    assert params.flat.size >= 1_000_000
    grads = TensorViews(np.random.default_rng(0).standard_normal(params.flat.size).astype(params.dtype),
                        expected_shapes(cfg))
    state = init_optimizer_state(params)
    tracemalloc.start()
    try:
        optimizer_step(params, grads, state, TrainConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < params.flat.nbytes / 2, (peak, params.flat.nbytes)
    assert state["t"] == 1 and np.any(state["m"])


# ---------------------------------------------------------------------------
# sample construction
# ---------------------------------------------------------------------------

def _ranking(qid, ids):
    return Ranking(qid, [(rid, 1.0 - 0.01 * i) for i, rid in enumerate(ids)])


def test_build_samples_positive_at_rank_3():
    ids = ["n0", "n1", "p"] + [f"x{i}" for i in range(7)]
    samples, skipped = build_training_samples(store_of(["p"], {"q": ["p"]}), [_ranking("q", ids)])
    assert skipped == 0
    (s,) = samples
    assert s.positive_index == 2
    assert len(s.candidate_ids) == 10
    assert sum(1 for c in s.candidate_ids if c != "p") == 9


def test_build_samples_skips_when_positive_missing():
    store = store_of(["p"], {"q": ["p"]})
    samples, skipped = build_training_samples(store, [_ranking("q", [f"x{i}" for i in range(10)])])
    assert samples == [] and skipped == 1


def test_build_samples_counting():
    truth, rankings = {}, []
    for i in range(100):
        qid = f"q{i:03d}"
        truth[qid] = [f"p{i}"]
        ids = [f"p{i}"] + [f"n{i}_{j}" for j in range(9)] if i < 80 else [f"n{i}_{j}" for j in range(10)]
        rankings.append(_ranking(qid, ids))
    samples, skipped = build_training_samples(store_of([f"p{i}" for i in range(100)], truth), rankings)
    assert len(samples) == 80 and skipped == 20


def test_build_samples_multi_positive_expansion():
    ids = ["p1", "n0", "p2", "n1", "n2"]
    samples, skipped = build_training_samples(store_of(["p1", "p2"], {"q": ["p1", "p2"]}), [_ranking("q", ids)])
    assert skipped == 0
    assert len(samples) == 2
    by_positive = {s.candidate_ids[s.positive_index]: s for s in samples}
    # each instance excludes the other positive from its candidate list
    assert "p2" not in by_positive["p1"].candidate_ids
    assert "p1" not in by_positive["p2"].candidate_ids


def test_build_samples_semipositive_exclusion():
    ids = ["semi1", "p", "semi2", "n0", "n1"]
    samples, skipped = build_training_samples(
        store_of(["p"], {"q": ["p"]}), [_ranking("q", ids)], semipositives={"q": {"semi1", "semi2"}}
    )
    (s,) = samples
    assert s.candidate_ids == ("p", "n0", "n1")
    assert s.positive_index == 0


def test_build_samples_missing_ranking():
    with pytest.raises(ValueError, match="no ranking for query 'q'"):
        build_training_samples(store_of(["p"], {"q": ["p"]}), [])


def test_samples_jsonl_roundtrip(tmp_path):
    samples = [TrainingSample("q1", ("a", "b", "c"), 1), TrainingSample("q2", ("d", "e"), 0)]
    path = tmp_path / "samples.jsonl"
    save_samples(samples, path)
    assert load_samples(path, store_of(["a", "b", "c", "d", "e"], {"q1": ["b"], "q2": ["d"]})) == samples


def test_samples_jsonl_rejects_invalid(tmp_path):
    path = tmp_path / "samples.jsonl"
    path.write_text('{"query_id": "q", "candidates": ["a", "b"], "positive_index": 7}\n')
    with pytest.raises(ValueError, match="line 1"):
        load_samples(path, store_of(["a", "b"], {"q": ["a"]}))


_IDS = "a sample needs a string 'query_id' and a 'candidates' list of string ids"


@pytest.mark.parametrize("record,problem", [
    ('"query_id": 7, "candidates": ["r00", "r01"], "positive_index": 0', _IDS),
    ('"query_id": "q", "candidates": ["r01", 2], "positive_index": 0', _IDS),
    ('"query_id": "q", "candidates": "r0r1", "positive_index": 0', _IDS),
    ('"query_id": "q", "candidates": ["r00", "r01"], "positive_index": "1"', """'positive_index' "1" is not"""),
    ('"query_id": "q", "candidates": ["r00", "r01"], "positive_index": true', "'positive_index' true is not"),
    ('"query_id": "q", "candidates": ["r00", "r01"], "positive_index": 1.0', "'positive_index' 1.0 is not"),
], ids=["int-query", "int-candidate", "string-candidates", "string-index", "true-index", "float-index"])
def test_samples_jsonl_refuses_a_non_string_id_or_a_non_integer_index(tmp_path, record, problem):
    """Nothing is coerced: ``["r01", 2]`` once loaded, and ``train`` then failed on reference id '2'."""
    path = tmp_path / "samples.jsonl"
    path.write_text('{"query_id": "p", "candidates": ["r00", "r01"], "positive_index": 1}\n{%s}\n' % record)
    with pytest.raises(IngestError, match=re.escape(f"{path}, line 2: ") + ".*" + re.escape(problem)):
        load_samples(path, store_of(["r00", "r01"], {"p": ["r00"], "q": ["r00"]}))


def test_samples_non_utf8_line_names_file_and_line(tmp_path):
    path = tmp_path / "samples.jsonl"
    path.write_bytes(b'{"query_id": "q", "candidates": ["a", "b"], "positive_index": 0}\n\xff\n')
    with pytest.raises(ValueError, match="line 2") as exc:
        load_samples(path, store_of(["a", "b"], {"q": ["a"]}))
    assert str(path) in str(exc.value) and not isinstance(exc.value, UnicodeDecodeError)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def _train_fixture(n_locations=40):
    from georank.geostore import SynthConfig, generate_synthetic
    from georank.retriever import rank_store_queries

    cfg = SynthConfig(n_locations=n_locations, group_size=4, image_dim=8, text_dim=8, text_margin=0.95)
    store, _ = generate_synthetic(cfg, seed=1)
    samples, _ = build_training_samples(store, rank_store_queries(store, 10))
    rr = RerankerConfig(image_dim=8, text_dim=8, latent_dim=8, aligner_hidden=8, init_seed=0)
    return samples, store, rr


def test_train_deterministic_given_seeds(tmp_path):
    samples, store, rr = _train_fixture()
    config = TrainConfig(epochs=3, lr=1e-3, batch_size=8, shuffle_seed=5, val_split=0.25)
    p1, r1 = train(samples, store, rr, config, tmp_path / "a")
    p2, r2 = train(samples, store, rr, config, tmp_path / "b")
    assert p1.digest() == p2.digest()
    assert r1.digest() == r2.digest()
    assert (tmp_path / "a" / "epoch_003.gvck").exists()
    assert (tmp_path / "a" / "final.gvck").exists()
    assert load_params(tmp_path / "a" / "final.gvck").digest() == p1.digest()
    # weights only: nothing reads optimizer moments back
    for epoch in (1, 2, 3):
        path = tmp_path / "a" / f"epoch_{epoch:03d}.gvck"
        _, tensors = load_checkpoint(path)
        assert set(tensors) == set(expected_shapes(rr))
        load_params(path)


def test_logits_loss_leaves_score_bias_at_zero(tmp_path):
    # the README recipe, 3 epochs: the hinge on logits is shift-invariant, so
    # score.b gets an exact zero gradient and Adam never moves it
    from georank.geostore import SynthConfig, generate_synthetic
    from georank.retriever import rank_store_queries

    store, _ = generate_synthetic(SynthConfig(n_locations=1000, group_size=4), seed=7)
    samples, _ = build_training_samples(store, rank_store_queries(store, 10))
    rr = RerankerConfig(image_dim=64, text_dim=64, latent_dim=64, aligner_hidden=64)
    config = TrainConfig(lr=3e-3, epochs=3, batch_size=8, loss_on="logits")
    params, _ = train(samples, store, rr, config, tmp_path)
    assert params.tensors["score.b"] == 0
    assert not np.array_equal(params.tensors["score.w"], init_params(rr).tensors["score.w"])


def test_train_zero_lr_leaves_params_unchanged(tmp_path):
    samples, store, rr = _train_fixture(16)
    config = TrainConfig(epochs=2, lr=0.0, shuffle_seed=0, val_split=0.0)
    params, _ = train(samples, store, rr, config, tmp_path)
    assert params.digest() == init_params(rr).digest()


def test_train_loss_decreases_and_reports(tmp_path):
    samples, store, rr = _train_fixture()
    config = TrainConfig(epochs=4, lr=3e-3, batch_size=8, shuffle_seed=0, val_split=0.25)
    params, report = train(samples, store, rr, config, tmp_path)
    assert report.train_count + report.val_count == len(samples)
    assert len(report.epochs) == 4
    assert report.epochs[-1].mean_loss < report.epochs[0].mean_loss
    assert all(e.mean_loss >= 0 for e in report.epochs)
    assert 0.0 <= report.epochs[-1].val_r1 <= 1.0


def test_train_nan_loss_aborts_with_batch_diagnostic(tmp_path):
    samples, store, rr = _train_fixture(16)
    store.refs.image[:] = float("nan")  # a NaN margin or lr would be refused by TrainConfig.validate
    with pytest.raises(RuntimeError, match="epoch 1"):
        train(samples, store, rr, TrainConfig(epochs=1, val_split=0.0), tmp_path)


def _per_sample_split(samples, val_split, rng):
    """The split by sample that ``validation_split`` replaced, as (train, validation)."""
    perm = rng.permutation(len(samples))
    n_val = int(round(len(samples) * val_split))
    return [samples[i] for i in perm[n_val:]], [samples[i] for i in perm[:n_val]]


def _two_positive_store(n_queries=12, n_refs=30):
    """A store whose every query has two positives, and one ranking per query
    listing both positives among eight candidates."""
    rng = np.random.default_rng(4)
    refs = [make_ref(f"r{i:02d}", rng.standard_normal(3), text=rng.standard_normal(2)) for i in range(n_refs)]
    queries, rankings = [], []
    for q in range(n_queries):
        candidates = [f"r{i:02d}" for i in rng.choice(n_refs, 8, replace=False)]
        queries.append(make_query(f"q{q:02d}", rng.standard_normal(3), candidates[2:4], text=rng.standard_normal(2)))
        rankings.append(Ranking(f"q{q:02d}", [(rid, 0.0) for rid in candidates]))
    return build_store(refs, queries, image_dim=3, text_dim=2), rankings


def test_validation_split_keeps_every_sample_of_a_query_on_one_side(tmp_path):
    store, rankings = _two_positive_store()
    samples, skipped = build_training_samples(store, rankings)
    assert skipped == 0 and len(samples) == 2 * len(store.query_ids)
    straddled = False
    for seed, val_split in itertools.product(range(10), (0.2, 0.5)):
        train_set, val_set = trainer.validation_split(samples, val_split, np.random.default_rng(seed))
        train_ids, val_ids = {s.query_id for s in train_set}, {s.query_id for s in val_set}
        assert not train_ids & val_ids
        assert len(val_ids) == round(len(store.query_ids) * val_split)
        assert sorted(train_set + val_set, key=samples.index) == samples
        old_train, old_val = _per_sample_split(samples, val_split, np.random.default_rng(seed))
        straddled |= bool({s.query_id for s in old_train} & {s.query_id for s in old_val})
    assert straddled  # a split by sample puts some query on both sides
    rr = RerankerConfig(image_dim=3, text_dim=2, latent_dim=4, aligner_hidden=4)
    # 4 of 12 queries held out: 8 samples, where a split by sample would hold out round(24 * 0.3) = 7
    _, report = train(samples, store, rr, TrainConfig(epochs=1, val_split=0.3, shuffle_seed=3), tmp_path)
    assert (report.train_count, report.val_count) == (16, 8)


@pytest.mark.parametrize("val_split", [0.0, 0.2, 0.25, 0.5])
def test_validation_split_of_one_sample_per_query_is_the_split_by_sample(val_split):
    """Same sides, same order, and the generator left in the same state, so
    every epoch's shuffle, and so every checkpoint, stays as it was."""
    samples, _, _ = _train_fixture()
    assert len({s.query_id for s in samples}) == len(samples)
    for seed in range(5):
        rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert trainer.validation_split(samples, val_split, rng) == _per_sample_split(samples, val_split, old_rng)
        assert rng.bit_generator.state == old_rng.bit_generator.state


def test_train_requires_samples(tmp_path):
    _, store, rr = _train_fixture(16)
    with pytest.raises(ValueError, match="no training samples"):
        train([], store, rr, TrainConfig(epochs=1), tmp_path / "ckpt")
    assert not (tmp_path / "ckpt").exists()


@pytest.mark.parametrize("val_split, problem", [(1.0, "val_split must be in"), (-0.1, "val_split must be in"),
                                                (float("nan"), "val_split must be in"),
                                                (0.99, "val_split leaves no training samples")])
def test_train_refuses_a_val_split_that_leaves_nothing_to_train_on(tmp_path, val_split, problem):
    samples, store, rr = _train_fixture(16)
    with pytest.raises(ValueError, match=problem):
        train(samples, store, rr, TrainConfig(epochs=1, val_split=val_split), tmp_path / "ckpt")
    assert not (tmp_path / "ckpt").exists()


def test_train_report_csv_and_jsonl(tmp_path):
    samples, store, rr = _train_fixture(16)
    _, report = train(samples, store, rr, TrainConfig(epochs=2, lr=1e-3, val_split=0.25), tmp_path / "ckpt")
    report.write_csv(tmp_path / "r.csv")
    report.write_jsonl(tmp_path / "r.jsonl")
    lines = (tmp_path / "r.csv").read_text().splitlines()
    assert lines[0] == "epoch,mean_loss,val_r1,val_r5,seconds"
    assert len(lines) == 3


def test_loss_and_gradients_missing_text_names_id():
    import numpy as np
    from georank.reranker import RerankerConfig, init_params
    from georank.trainer import TrainConfig, TrainingSample, batch_gradients

    rng = np.random.default_rng(30)
    refs = [
        make_ref("c0", rng.standard_normal(3), text=rng.standard_normal(2)),
        make_ref("c1_no_text", rng.standard_normal(3)),
    ]
    query = make_query("q0", rng.standard_normal(3), ["c0"], text=rng.standard_normal(2))
    store = build_store(refs, [query], image_dim=3, text_dim=2)
    params = init_params(RerankerConfig(image_dim=3, text_dim=2, latent_dim=4, aligner_hidden=4))
    with pytest.raises(ValueError, match="c1_no_text"):
        batch_gradients([TrainingSample("q0", ("c0", "c1_no_text"), 0)], params, store, TrainConfig())


def test_gradients_match_finite_differences_with_randomized_layernorm():
    # default init keeps ln_scale=1/ln_shift=0; randomize them so the
    # LayerNorm backward is exercised with non-trivial affine parameters
    import numpy as np
    from georank.trainer import gradient_check, make_gradcheck_fixture

    sample, params, store = make_gradcheck_fixture(12)
    rng = np.random.default_rng(99)
    for name, t in params.tensors.items():
        if name.endswith((".ln_scale", ".ln_shift", ".b")):
            t[...] = t + rng.uniform(-0.5, 0.5, t.shape)
    errors = gradient_check([sample], params, store, TrainConfig(margin=1.0))
    assert max(errors.values()) <= 1e-4


def test_gradcheck_after_optimizer_step():
    # after a step, 0-d tensors must still be perturbable by the checker
    import numpy as np
    from georank.trainer import (TrainConfig, batch_gradients, gradient_check, init_optimizer_state,
                                 make_gradcheck_fixture, optimizer_step)

    sample, params, store = make_gradcheck_fixture(13)
    config = TrainConfig(lr=1e-2)
    _, grads = batch_gradients([sample], params, store, config)
    stepped, _ = optimizer_step(params, grads, init_optimizer_state(params), config)
    assert isinstance(stepped.tensors["score.b"], np.ndarray)
    errors = gradient_check([sample], stepped, store, TrainConfig(margin=1.0))
    assert max(errors.values()) <= 1e-4
