"""The georank names the benchmark in ``perfbench/`` reaches into.

perfbench calls, wraps and laps georank functions by name, so a rename that
the rest of the suite does not notice would break only the benchmark run.
These tests pin those names: the wrapped ones are read from perfbench's own
constants, the others are listed here as perfbench uses them.
"""

import ast
import importlib
import inspect
import json
from pathlib import Path

from georank import geostore
from georank.geostore import Store, StoreManifest, ingest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# module.function names perfbench calls or times, beside those in its constants
CALLED = [
    "cli.main", "evaluator.EvalConfig", "evaluator.compare_rankings", "evaluator.threshold_recall",
    "geostore.Store", "geostore.StoreManifest", "geostore.ingest", "kernels.cosine_scores",
    "kernels.haversine_km", "kernels.top_indices", "reranker.load_params", "reranker.rerank",
    "reranker.save_params", "reranker.score_candidates", "retriever.load_rankings",
    "retriever.rank_store_queries", "retriever.top_k", "trainer.batch_gradients",
    "trainer.optimizer_step", "trainer.save_params",
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
