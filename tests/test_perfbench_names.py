"""The georank names the benchmark in ``perfbench/`` reaches into.

perfbench calls, wraps and laps georank functions by name, so a rename that
the rest of the suite does not notice would break only the benchmark run.
These tests pin those names: the wrapped ones are read from perfbench's own
constants, the others are listed here as perfbench uses them.
"""

import ast
import collections
import functools
import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import numpy as np

from georank import geostore, reranker, trainer
from georank.cli import main
from georank.evaluator import EvalConfig, compare_rankings
from georank.geostore import Store, StoreManifest, SynthConfig, generate_synthetic, ingest
from georank.reranker import RerankerConfig, _sigmoid, init_params, load_params, save_params, score_logits
from georank.retriever import load_rankings, rank_store_queries, save_rankings

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# module.function names perfbench calls or times, beside those in its constants
CALLED = [
    "cli.main", "evaluator.EvalConfig", "evaluator.compare_rankings", "evaluator.threshold_recall",
    "geostore.Store", "geostore.StoreManifest", "geostore.ingest", "kernels.cosine_scores",
    "kernels.haversine_km", "kernels.top_indices", "reranker.load_params", "reranker.rerank",
    "reranker.save_params", "retriever.load_rankings", "retriever.rank_store_queries", "retriever.top_k",
    "trainer.batch_gradients", "trainer.optimizer_step", "trainer.save_params",
]
# the ingest keywords perfbench passes
INGEST_KEYWORDS = ["ref_embeddings", "ref_text_embeddings", "ref_coords", "query_embeddings",
                   "query_text_embeddings", "query_coords", "query_truth"]


def _constant(file: str, name: str):
    """The literal value perfbench's ``file`` assigns to the module-level ``name``."""
    for node in ast.parse((PERFBENCH / file).read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{file} no longer assigns {name}")


def _checks():
    """perfbench's ``checks.py``, loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_checks", PERFBENCH / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    return checks


def test_functions_perfbench_wraps_and_laps_exist():
    wrapped = [f"{mod}.{fn}" for table in (_constant("run.py", "LAP_AFTER"), _constant("layers.py", "EXTRA"))
               for mod, fns in table.items() for fn in fns]
    for dotted in CALLED + wrapped:
        mod, name = dotted.split(".")
        assert callable(getattr(importlib.import_module(f"georank.{mod}"), name, None)), dotted


def test_store_api_perfbench_uses(tmp_path, monkeypatch):
    for name in _constant("layers.py", "STORE_METHODS"):
        assert name in Store.__dict__, name  # layers.install wraps Store.__dict__[name]
    assert isinstance(Store.__dict__["load"], classmethod)
    assert set(INGEST_KEYWORDS) <= set(inspect.signature(ingest).parameters)

    rows = {
        "refs.emb": [{"id": f"r{i}", "embedding": [1.0, float(i)]} for i in range(3)],
        "refs.text": [{"id": f"r{i}", "embedding": [float(i), 1.0]} for i in range(3)],
        "refs.coords": [{"id": f"r{i}", "lat": 0.5 * i, "lon": -0.5 * i} for i in range(3)],
        "queries.emb": [{"id": "q0", "embedding": [1.0, 0.5]}],
        "queries.text": [{"id": "q0", "embedding": [0.5, 1.0]}],
        "queries.coords": [{"id": "q0", "lat": 0.0, "lon": 0.0}],
        "queries.truth": [{"id": "q0", "refs": ["r0"]}],
    }
    for name, recs in rows.items():
        (tmp_path / f"{name}.jsonl").write_text("".join(json.dumps(r) + "\n" for r in recs))
    files = dict(zip(INGEST_KEYWORDS, (tmp_path / f"{name}.jsonl" for name in rows)))
    # run.py laps its clock after each call of this module attribute during ingest
    calls = []
    parse = geostore._parse_embedding_rows
    monkeypatch.setattr(geostore, "_parse_embedding_rows", lambda *a, **kw: calls.append(a) or parse(*a, **kw))
    ingest(tmp_path / "store", StoreManifest(2, 2, 3, 1), **files)
    assert calls

    store = Store.load(tmp_path / "store")
    q = store.query(store.query_ids[0])
    assert (q.id, q.image_emb.tolist(), q.text_emb.tolist()) == ("q0", [1.0, 0.5], [0.5, 1.0])
    assert store.ref_ids == ["r0", "r1", "r2"] and store.ref_image.shape == (3, 2)
    assert store.query_image.shape == (1, 2)
    assert store.ref_text_emb("r2").tolist() == [2.0, 1.0] and store.query_text_emb("q0") is not None
    assert (store.coord_of("r1").lat, store.coord_of("r1").lon) == (0.5, -0.5)
    assert store.ground_truth == {"q0": ("r0",)}


def test_compare_report_passes_the_benchmark_check(tmp_path, reranked_pair):
    """perfbench's correctness check reads the compare report's keys, both from
    ``compare_rankings(...).to_dict()`` and from ``report.json``; a change to
    them that would fail the benchmark fails here first."""
    checks = _checks()
    store_dir, baseline, reranked = reranked_pair
    store, base, rr = Store.load(store_dir), load_rankings(baseline), load_rankings(reranked)
    ids = [[r.ids() for r in rankings] for rankings in (base, rr)]
    truth = [set(store.ground_truth[r.query_id]) for r in base]
    coords = {r: store.coord_of(r) for r in store.ref_ids}  # as run.py builds them
    report = compare_rankings(base, rr, store.ground_truth, EvalConfig(), coords).to_dict()
    checks.check_report(json.loads(json.dumps(report)), *ids, truth)
    out = tmp_path / "report"
    assert main(["compare", "--store", str(store_dir), "--baseline", str(baseline), "--reranked", str(reranked),
                 "--out", str(out)]) == 0
    checks.check_report(json.loads((out / "report.json").read_text()), *ids, truth)


def test_the_benchmark_scorer_reads_a_saved_checkpoint(tmp_path):
    """perfbench's reference forward reads a checkpoint's tensors and its config
    block, ``aligner_layers``, ``ln_epsilon`` and ``shared_projections``
    included; on a checkpoint ``save_params`` wrote, its scores must be
    the scorer's sigmoid scores within the tolerance the benchmark checks rerank by."""
    checks = _checks()
    params = init_params(RerankerConfig(image_dim=12, text_dim=10, latent_dim=8, aligner_hidden=16, init_seed=4))
    rng = np.random.default_rng(0)
    for name, t in params.tensors.items():  # random biases and LayerNorm affines, so every tensor counts
        if not name.endswith(".w"):
            t[...] = 0.5 * rng.standard_normal(t.shape) + name.endswith(".ln_scale")
    path = tmp_path / "model.gvck"
    save_params(path, params)
    q_img, q_txt = rng.standard_normal(12).astype(np.float32), rng.standard_normal(10).astype(np.float32)
    c_img, c_txt = rng.standard_normal((10, 12)).astype(np.float32), rng.standard_normal((10, 10)).astype(np.float32)
    want = checks.Scorer(path).scores(q_img, q_txt, c_img, c_txt)
    got = _sigmoid(score_logits(q_img[None], q_txt[None], c_img, c_txt, load_params(path), [len(c_img)]))
    assert np.ptp(want) > 100 * checks.RERANK_SCORE_ATOL  # scores that differ, not one saturated value
    assert np.max(np.abs(got - want)) <= checks.RERANK_SCORE_ATOL


def test_the_calls_perfbench_laps_and_times_go_through_module_attributes(tmp_path, monkeypatch):
    """perfbench laps and times georank by replacing module attributes, so a
    call inlined or made through another name would drop out of what
    ``train_samples_per_s`` laps and ``reranker.rerank_ms`` covers. ``train``
    calls ``trainer.batch_gradients`` and ``trainer.optimizer_step`` once per
    batch and ``trainer.save_params`` once per epoch and once for
    ``final.gvck``; ``reranker.rerank`` and ``georank rerank`` go through
    ``reranker.rerank_many``; it and ``ReferenceRows.fill`` align through
    ``reranker.align``."""
    calls = collections.Counter()

    def counted(key, real, *args, **kwargs):
        calls[key] += 1
        return real(*args, **kwargs)

    for mod, name in ((trainer, "batch_gradients"), (trainer, "optimizer_step"), (trainer, "save_params"),
                      (reranker, "rerank_many"), (reranker, "align")):
        monkeypatch.setattr(mod, name, functools.partial(counted, f"{mod.__name__}.{name}", getattr(mod, name)))
    store, _ = generate_synthetic(SynthConfig(n_locations=24, group_size=4, image_dim=8, text_dim=8), seed=2)
    store.save(tmp_path / "store")
    samples, _ = trainer.build_training_samples(store, rank_store_queries(store, 10))
    config = trainer.TrainConfig(epochs=3, batch_size=5, val_split=0.25)
    _, report = trainer.train(samples, store, RerankerConfig(image_dim=8, text_dim=8, latent_dim=4, aligner_hidden=4),
                              config, tmp_path / "train")
    batches = config.epochs * -(-report.train_count // config.batch_size)
    assert calls["georank.trainer.batch_gradients"] == calls["georank.trainer.optimizer_step"] == batches
    assert calls["georank.trainer.save_params"] == config.epochs + 1

    params = load_params(tmp_path / "train" / "final.gvck")
    rankings = rank_store_queries(store, 20)
    calls.clear()
    cache = reranker.ReferenceRows(store, params)
    cache.fill(store.ref_rows(rankings[0].ids()), store, params)
    assert calls["georank.reranker.align"] == -(-20 // reranker.ROW_BLOCK)
    calls.clear()
    reranker.rerank(store.query(rankings[1].query_id), rankings[1], params, store)
    # the ranking's rows not yet cached, 16 to a block, then its query's block
    assert calls == {"georank.reranker.rerank_many": 1, "georank.reranker.align": -(-20 // reranker.ROW_BLOCK) + 1}
    save_rankings(rankings, tmp_path / "baseline.jsonl")
    calls.clear()
    assert main(["rerank", "--store", str(tmp_path / "store"), "--rankings", str(tmp_path / "baseline.jsonl"),
                 "--checkpoint", str(tmp_path / "train" / "final.gvck"), "--out", str(tmp_path / "out.jsonl")]) == 0
    assert calls["georank.reranker.rerank_many"] == 1 and calls["georank.reranker.align"] > 0
