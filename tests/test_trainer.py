import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from georank import trainer
from georank.reranker import (
    RerankerConfig,
    TensorViews,
    expected_shapes,
    gather_candidates,
    init_params,
    load_checkpoint,
    load_params,
    rerank,
    score_candidates,
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
    loss_and_gradients,
    make_gradcheck_fixture,
    margin_loss,
    optimizer_step,
    run_gradcheck,
    save_samples,
    train,
)

from conftest import build_store, make_query, make_ref


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
    q = store.query("q0")
    scores = score_candidates(q.image_emb, q.text_emb, *gather_candidates(store, sample.candidate_ids), params)
    best = int(np.argmax(scores))
    gap = float(np.sort(scores)[-1] - np.sort(scores)[-2])
    winning = TrainingSample("q0", sample.candidate_ids, best)
    loss, grads = loss_and_gradients(winning, params, store, margin=gap / 2)
    assert loss == 0.0
    for name, g in grads.items():
        assert np.all(g == 0), name


def test_gradients_match_finite_differences():
    for seed in (1, 2, 3):
        assert run_gradcheck(seed) <= 1e-4


def test_gradients_match_finite_differences_logits_mode():
    assert run_gradcheck(4, loss_on="logits") <= 1e-4


def test_gradients_match_finite_differences_separate_projections():
    sample, _, store = make_gradcheck_fixture(5)
    cfg = RerankerConfig(image_dim=7, text_dim=5, latent_dim=6, aligner_layers=2,
                         aligner_hidden=6, shared_projections=False, init_seed=6)
    errors = gradient_check(sample, init_params(cfg), store, margin=1.0)
    assert max(errors.values()) <= 1e-4


def test_gradient_shapes_match_parameters():
    sample, params, store = make_gradcheck_fixture(7)
    _, grads = loss_and_gradients(sample, params, store, margin=1.0)
    assert set(grads) == set(params.tensors)
    for name in grads:
        assert grads[name].shape == params.tensors[name].shape


def _mixed_fixture(seed, shared=True, n_refs=8, n_queries=4):
    """Queries q0.. and references c0.. with random embeddings and a small scorer."""
    rng = np.random.default_rng(seed)
    refs = [make_ref(f"c{i}", rng.standard_normal(7), text=rng.standard_normal(5)) for i in range(n_refs)]
    queries = [make_query(f"q{j}", rng.standard_normal(7), ["c0"], text=rng.standard_normal(5))
               for j in range(n_queries)]
    cfg = RerankerConfig(image_dim=7, text_dim=5, latent_dim=6, aligner_layers=2, aligner_hidden=6,
                         shared_projections=shared, init_seed=seed + 1)
    return build_store(refs, queries, image_dim=7, text_dim=5), init_params(cfg)


# three queries with 5, 3 and 2 candidates
MIXED_BATCH = [
    TrainingSample("q0", ("c0", "c1", "c2", "c3", "c4"), 1),
    TrainingSample("q1", ("c5", "c2", "c7"), 2),
    TrainingSample("q2", ("c6", "c3"), 0),
]


@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("loss_on", ["scores", "logits"])
def test_batch_gradients_match_finite_differences(shared, loss_on):
    store, params = _mixed_fixture(21, shared)
    p = params.astype(np.float64)
    config = TrainConfig(margin=1.0, loss_on=loss_on)
    _, analytic = batch_gradients(MIXED_BATCH, p, store, config)
    eps = 1e-4
    for name, tensor in p.tensors.items():
        numeric = np.zeros_like(tensor)
        for idx in np.ndindex(tensor.shape):
            orig = float(tensor[idx])
            tensor[idx] = orig + eps
            up = batch_gradients(MIXED_BATCH, p, store, config)[0]
            tensor[idx] = orig - eps
            down = batch_gradients(MIXED_BATCH, p, store, config)[0]
            tensor[idx] = orig
            numeric[idx] = (up - down) / (2.0 * eps)
        a, n = np.atleast_1d(analytic[name]), np.atleast_1d(numeric)
        err = np.max(np.abs(a - n) / np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6))
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
def test_batch_gradients_equal_mean_of_sample_gradients_property(batch, seed, loss_on):
    store, params = _mixed_fixture(seed)
    loss, grads = batch_gradients(batch, params, store, TrainConfig(loss_on=loss_on))
    per_sample = [loss_and_gradients(s, params, store, 1.0, loss_on) for s in batch]
    assert loss == pytest.approx(np.mean([l for l, _ in per_sample]), rel=1e-6, abs=1e-9)
    for name, g in grads.items():
        mean = np.mean([gs[name] for _, gs in per_sample], axis=0)
        np.testing.assert_allclose(g, mean, rtol=1e-4, atol=1e-6, err_msg=name)


@pytest.mark.parametrize("per_pass", [7, trainer.VALIDATION_PASS])
def test_candidate_recall_equals_rerank_per_sample(monkeypatch, per_pass):
    samples, store, rr = _train_fixture()
    params, _ = train(samples, store, rr, TrainConfig(epochs=2, lr=3e-3, batch_size=8), val_split=0.0)
    ranks = []
    for s in samples:
        candidates = Ranking(s.query_id, [(rid, 0.0) for rid in s.candidate_ids], k=len(s.candidate_ids))
        ranks.append(rerank(store.query(s.query_id), candidates, params, store).ids()
                     .index(s.candidate_ids[s.positive_index]))
    monkeypatch.setattr(trainer, "VALIDATION_PASS", per_pass)
    r1, r5 = trainer._candidate_recall(samples, params, store)
    assert r1 == sum(r == 0 for r in ranks) / len(samples)
    assert r5 == sum(r < 5 for r in ranks) / len(samples)
    assert 0 < r1 < 1


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

def _scalar_params(theta: float):
    cfg = RerankerConfig(image_dim=1, text_dim=1, latent_dim=1, aligner_layers=1, aligner_hidden=1)
    params = init_params(cfg).astype(np.float64)
    for t in params.tensors.values():
        t[...] = theta
    return params


def test_sgd_closed_form():
    params = _scalar_params(1.0)
    grads = {name: np.full_like(t, 0.5) for name, t in params.tensors.items()}
    config = TrainConfig(optimizer="sgd", lr=0.1)
    new, _ = optimizer_step(params, grads, {}, config)
    for t in new.tensors.values():
        assert t == pytest.approx(0.95, abs=1e-12)


def test_sgd_zero_gradient_fixed_point():
    params = _scalar_params(0.7)
    before = params.copy()
    grads = {name: np.zeros_like(t) for name, t in params.tensors.items()}
    new, _ = optimizer_step(params, grads, {}, TrainConfig(optimizer="sgd", lr=0.1))
    for name, t in new.tensors.items():
        assert np.array_equal(t, before.tensors[name])


def test_adam_first_step_closed_form():
    params = _scalar_params(0.0)
    grads = {name: np.ones_like(t) for name, t in params.tensors.items()}
    config = TrainConfig(optimizer="adam", lr=0.001)
    state = init_optimizer_state(params, config)
    new, state = optimizer_step(params, grads, state, config)
    # bias-corrected m_hat/sqrt(v_hat) = 1 on the first step
    expected = -0.001 / (1.0 + 1e-8)
    for t in new.tensors.values():
        assert t == pytest.approx(expected, abs=1e-15)
    assert state["t"] == 1


def test_optimizer_shape_mismatch():
    params = _scalar_params(0.0)
    grads = {name: np.zeros((3, 3)) for name in params.tensors}
    with pytest.raises(ValueError, match="shape"):
        optimizer_step(params, grads, {}, TrainConfig(optimizer="sgd"))


def _per_tensor_step(tensors, grads, state, config):
    """Reference SGD/Adam: one loop over the tensors, each updated on its own."""
    if config.optimizer == "sgd":
        return {name: t - config.lr * grads[name] for name, t in tensors.items()}, state
    t_step = state["t"] + 1
    b1, b2 = config.adam_beta1, config.adam_beta2
    bc1, bc2 = 1.0 - b1 ** t_step, 1.0 - b2 ** t_step
    new, new_m, new_v = {}, {}, {}
    for name, theta in tensors.items():
        g = grads[name]
        m = b1 * state["m"][name] + (1.0 - b1) * g
        v = b2 * state["v"][name] + (1.0 - b2) * g * g
        new_m[name], new_v[name] = m, v
        new[name] = theta - config.lr * (m / bc1) / (np.sqrt(v / bc2) + config.adam_eps)
    return new, {"t": t_step, "m": new_m, "v": new_v}


@pytest.mark.parametrize("as_views", [False, True])
@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
def test_flat_optimizer_bit_exact_against_per_tensor_loop(optimizer, as_views):
    cfg = RerankerConfig(image_dim=5, text_dim=4, latent_dim=6, aligner_layers=2, aligner_hidden=3, init_seed=2)
    params = init_params(cfg)
    config = TrainConfig(optimizer=optimizer, lr=3e-3)
    state = init_optimizer_state(params, config)
    ref = {name: t.copy() for name, t in params.tensors.items()}
    ref_state = {"t": 0, "m": {n: np.zeros_like(t) for n, t in ref.items()},
                 "v": {n: np.zeros_like(t) for n, t in ref.items()}}
    rng = np.random.default_rng(0)
    for _ in range(4):
        # magnitudes from 1e-9 to 10, so eps matters for some elements and not for others
        grads = {name: np.asarray(rng.standard_normal(t.shape) * 10.0 ** rng.uniform(-9, 1, t.shape), np.float32)
                 for name, t in ref.items()}
        given = grads
        if as_views:
            given = TensorViews(np.zeros_like(params.flat), expected_shapes(cfg))
            for name, g in grads.items():
                given[name][...] = g
        params, state = optimizer_step(params, given, state, config)
        ref, ref_state = _per_tensor_step(ref, grads, ref_state, config)
        for name, t in ref.items():
            assert params.tensors[name].dtype == np.float32
            assert np.array_equal(params.tensors[name], t), name
    assert ref["score.b"] != 0


def test_grad_clip_rescales_global_norm():
    params = _scalar_params(0.0)
    grads = {name: np.full_like(t, 10.0) for name, t in params.tensors.items()}
    total = np.sqrt(sum(np.sum(g**2) for g in grads.values()))
    config = TrainConfig(optimizer="sgd", lr=1.0, grad_clip=1.0)
    new, _ = optimizer_step(params, grads, {}, config)
    moved = np.sqrt(sum(np.sum(t**2) for t in new.tensors.values()))
    assert moved == pytest.approx(1.0, rel=1e-9)
    assert total > 1.0


# ---------------------------------------------------------------------------
# sample construction
# ---------------------------------------------------------------------------

def _ranking(qid, ids):
    return Ranking(qid, [(rid, 1.0 - 0.01 * i) for i, rid in enumerate(ids)], k=len(ids))


def test_build_samples_positive_at_rank_3():
    q = make_query("q", [1.0], ["p"])
    ids = ["n0", "n1", "p"] + [f"x{i}" for i in range(7)]
    samples, skipped = build_training_samples([q], [_ranking("q", ids)])
    assert skipped == 0
    (s,) = samples
    assert s.positive_index == 2
    assert len(s.candidate_ids) == 10
    assert sum(1 for c in s.candidate_ids if c != "p") == 9


def test_build_samples_skips_when_positive_missing():
    q = make_query("q", [1.0], ["p"])
    samples, skipped = build_training_samples([q], [_ranking("q", [f"x{i}" for i in range(10)])])
    assert samples == [] and skipped == 1


def test_build_samples_counting():
    queries, rankings = [], []
    for i in range(100):
        qid = f"q{i:03d}"
        queries.append(make_query(qid, [1.0], [f"p{i}"]))
        ids = [f"p{i}"] + [f"n{i}_{j}" for j in range(9)] if i < 80 else [f"n{i}_{j}" for j in range(10)]
        rankings.append(_ranking(qid, ids))
    samples, skipped = build_training_samples(queries, rankings)
    assert len(samples) == 80 and skipped == 20


def test_build_samples_multi_positive_expansion():
    q = make_query("q", [1.0], ["p1", "p2"])
    ids = ["p1", "n0", "p2", "n1", "n2"]
    samples, skipped = build_training_samples([q], [_ranking("q", ids)])
    assert skipped == 0
    assert len(samples) == 2
    by_positive = {s.candidate_ids[s.positive_index]: s for s in samples}
    # each instance excludes the other positive from its candidate list
    assert "p2" not in by_positive["p1"].candidate_ids
    assert "p1" not in by_positive["p2"].candidate_ids


def test_build_samples_semipositive_exclusion():
    q = make_query("q", [1.0], ["p"])
    ids = ["semi1", "p", "semi2", "n0", "n1"]
    samples, skipped = build_training_samples(
        [q], [_ranking("q", ids)], semipositives={"q": {"semi1", "semi2"}}
    )
    (s,) = samples
    assert s.candidate_ids == ("p", "n0", "n1")
    assert s.positive_index == 0


def test_build_samples_missing_ranking():
    q = make_query("q", [1.0], ["p"])
    with pytest.raises(ValueError, match="no ranking"):
        build_training_samples([q], [])


def test_samples_jsonl_roundtrip(tmp_path):
    samples = [TrainingSample("q1", ("a", "b", "c"), 1), TrainingSample("q2", ("d", "e"), 0)]
    path = tmp_path / "samples.jsonl"
    save_samples(samples, path)
    assert load_samples(path) == samples


def test_samples_jsonl_rejects_invalid(tmp_path):
    path = tmp_path / "samples.jsonl"
    path.write_text('{"query_id": "q", "candidates": ["a", "b"], "positive_index": 7}\n')
    with pytest.raises(ValueError, match="line 1"):
        load_samples(path)


def test_samples_non_utf8_line_names_file_and_line(tmp_path):
    path = tmp_path / "samples.jsonl"
    path.write_bytes(b'{"query_id": "q", "candidates": ["a", "b"], "positive_index": 0}\n\xff\n')
    with pytest.raises(ValueError, match="line 2") as exc:
        load_samples(path)
    assert str(path) in str(exc.value) and not isinstance(exc.value, UnicodeDecodeError)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def _train_fixture(n_locations=40):
    from georank.geostore import SynthConfig, generate_synthetic
    from georank.retriever import rank_store_queries

    cfg = SynthConfig(n_locations=n_locations, group_size=4, image_dim=8, text_dim=8, text_margin=0.95)
    store, _ = generate_synthetic(cfg, seed=1)
    rankings = rank_store_queries(store, 10)
    queries = [store.query(qid) for qid in store.query_ids]
    samples, _ = build_training_samples(queries, rankings)
    rr = RerankerConfig(image_dim=8, text_dim=8, latent_dim=8, aligner_layers=2, aligner_hidden=8, init_seed=0)
    return samples, store, rr


def test_train_deterministic_given_seeds(tmp_path):
    samples, store, rr = _train_fixture()
    config = TrainConfig(epochs=3, lr=1e-3, batch_size=8, shuffle_seed=5)
    p1, r1 = train(samples, store, rr, config, val_split=0.25, checkpoint_dir=tmp_path / "a")
    p2, r2 = train(samples, store, rr, config, val_split=0.25, checkpoint_dir=tmp_path / "b")
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


def test_logits_loss_leaves_score_bias_at_zero():
    # the README recipe, 3 epochs: the hinge on logits is shift-invariant, so
    # score.b gets an exact zero gradient and Adam never moves it
    from georank.geostore import SynthConfig, generate_synthetic
    from georank.retriever import rank_store_queries

    store, _ = generate_synthetic(SynthConfig(n_locations=1000, group_size=4), seed=7)
    queries = [store.query(qid) for qid in store.query_ids]
    samples, _ = build_training_samples(queries, rank_store_queries(store, 10))
    rr = RerankerConfig(image_dim=64, text_dim=64, latent_dim=64, aligner_hidden=64)
    config = TrainConfig(lr=3e-3, epochs=3, batch_size=8, loss_on="logits")
    params, _ = train(samples, store, rr, config)
    assert params.tensors["score.b"] == 0
    assert not np.array_equal(params.tensors["score.w"], init_params(rr).tensors["score.w"])


def test_train_zero_lr_leaves_params_unchanged():
    samples, store, rr = _train_fixture(16)
    config = TrainConfig(epochs=2, lr=0.0, optimizer="sgd", shuffle_seed=0)
    params, _ = train(samples, store, rr, config, val_split=0.0)
    assert params.digest() == init_params(rr).digest()


def test_train_loss_decreases_and_reports():
    samples, store, rr = _train_fixture()
    config = TrainConfig(epochs=4, lr=3e-3, batch_size=8, shuffle_seed=0)
    params, report = train(samples, store, rr, config, val_split=0.25)
    assert report.train_count + report.val_count == len(samples)
    assert len(report.epochs) == 4
    assert report.epochs[-1].mean_loss < report.epochs[0].mean_loss
    assert all(e.mean_loss >= 0 for e in report.epochs)
    assert 0.0 <= report.epochs[-1].val_r1 <= 1.0


def test_train_nan_loss_aborts_with_batch_diagnostic():
    samples, store, rr = _train_fixture(16)
    config = TrainConfig(epochs=1, margin=float("nan"))
    with pytest.raises(RuntimeError, match="epoch 1"):
        train(samples, store, rr, config, val_split=0.0)


def test_train_requires_samples():
    _, store, rr = _train_fixture(16)
    with pytest.raises(ValueError, match="no training samples"):
        train([], store, rr, TrainConfig(epochs=1))


def test_train_report_csv_and_jsonl(tmp_path):
    samples, store, rr = _train_fixture(16)
    _, report = train(samples, store, rr, TrainConfig(epochs=2, lr=1e-3), val_split=0.25)
    report.write_csv(tmp_path / "r.csv")
    report.write_jsonl(tmp_path / "r.jsonl")
    lines = (tmp_path / "r.csv").read_text().splitlines()
    assert lines[0] == "epoch,mean_loss,val_r1,val_r5,seconds"
    assert len(lines) == 3


def test_loss_and_gradients_missing_text_names_id():
    import numpy as np
    from georank.reranker import RerankerConfig, init_params
    from georank.trainer import TrainingSample, loss_and_gradients

    rng = np.random.default_rng(30)
    refs = [
        make_ref("c0", rng.standard_normal(3), text=rng.standard_normal(2)),
        make_ref("c1_no_text", rng.standard_normal(3)),
    ]
    query = make_query("q0", rng.standard_normal(3), ["c0"], text=rng.standard_normal(2))
    store = build_store(refs, [query], image_dim=3, text_dim=2)
    params = init_params(RerankerConfig(image_dim=3, text_dim=2, latent_dim=4,
                                        aligner_layers=1, aligner_hidden=4))
    with pytest.raises(ValueError, match="c1_no_text"):
        loss_and_gradients(TrainingSample("q0", ("c0", "c1_no_text"), 0), params, store, 1.0)


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
    errors = gradient_check(sample, params, store, margin=1.0)
    assert max(errors.values()) <= 1e-4


def test_gradcheck_after_optimizer_step():
    # after a step, 0-d tensors must still be perturbable by the checker
    import numpy as np
    from georank.trainer import (TrainConfig, gradient_check, init_optimizer_state,
                                 loss_and_gradients, make_gradcheck_fixture, optimizer_step)

    sample, params, store = make_gradcheck_fixture(13)
    config = TrainConfig(lr=1e-2)
    _, grads = loss_and_gradients(sample, params, store, config.margin)
    stepped, _ = optimizer_step(params, grads, init_optimizer_state(params, config), config)
    assert isinstance(stepped.tensors["score.b"], np.ndarray)
    errors = gradient_check(sample, stepped, store, margin=1.0)
    assert max(errors.values()) <= 1e-4
