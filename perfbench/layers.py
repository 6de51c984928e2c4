"""Per-layer metrics, from wrapping georank's public functions from outside.

``install`` replaces every public function of the traced modules, and the
load/save/reference methods of ``geostore.Store``, with a wrapper that counts
calls and adds up wall time. A wrapper is installed on the module attribute
and on every name another georank module imported it under (for example
``trainer.save_params``), so calls through either name are seen. Times are
inclusive: a wrapped function that calls another wrapped function counts the
callee's time too. Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

from checks import subnormal_count

MODULES = ("geostore", "retriever", "kernels", "reranker", "trainer", "evaluator", "cli")
STORE_METHODS = ("load", "save", "reference")
# private functions that are layers of their own
EXTRA = {"trainer": ("_candidate_recall",)}

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER_UNITS = {
    "geostore.ingest_s": "s", "geostore.load_s": "s", "geostore.save_s": "s",
    "geostore.reference_calls": "count", "geostore.store_bytes": "bytes",
    "retriever.top_k_ms": "ms", "retriever.rank_store_queries_s": "s",
    "kernels.cosine_scores_ms": "ms", "kernels.cosine_scores_bytes": "bytes", "kernels.top_indices_ms": "ms",
    "kernels.haversine_calls": "count", "kernels.haversine_s": "s",
    "reranker.rerank_ms": "ms", "reranker.score_candidates_ms": "ms", "reranker.load_params_s": "s",
    "reranker.save_params_s": "s", "reranker.checkpoint_bytes": "bytes",
    "trainer.batch_gradients_ms": "ms", "trainer.optimizer_step_ms": "ms", "trainer.validation_s": "s",
    "trainer.subnormal_grad_elems": "count", "evaluator.threshold_recall_s": "s",
    "cli.synth_s": "s", "cli.retrieve_s": "s", "cli.build_samples_s": "s", "cli.train_s": "s",
    "cli.rerank_s": "s", "cli.compare_s": "s",
}


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._hooks: dict[str, object] = {}

    def _wrap(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.seconds[key] += time.perf_counter() - start
                self.calls[key] += 1
            hook = self._hooks.get(key)
            if hook is not None:
                hook(self.counts, args, result)
            return result
        return wrapper

    def mean(self, key: str, scale: float = 1.0) -> float:
        """Mean wall time per call of ``key`` times ``scale``; 0 when it was never called."""
        n = self.calls.get(key, 0)
        return self.seconds[key] / n * scale if n else 0.0

    def per_call(self, total: float, key: str) -> float:
        n = self.calls.get(key, 0)
        return total / n if n else 0.0


def _count_cosine_bytes(counts, args, result) -> None:
    query, refs = args[0], args[1]
    counts["cosine_bytes"] += query.nbytes + refs.nbytes + result.nbytes


def _count_subnormals(counts, args, result) -> None:
    counts["subnormal_grad_elems"] += subnormal_count(result[1])


def georank_modules() -> dict:
    return {name: importlib.import_module(f"georank.{name}") for name in MODULES}


def replace(mods: dict, orig, new) -> None:
    """Put ``new`` in place of ``orig`` on every georank module that holds it."""
    for mod in mods.values():
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, new)


def install() -> Tracer:
    tracer = Tracer()
    mods = georank_modules()
    for mod_name, mod in mods.items():
        names = [n for n, f in vars(mod).items()
                 if inspect.isfunction(f) and f.__module__ == mod.__name__ and not n.startswith("_")]
        for name in names + list(EXTRA.get(mod_name, ())):
            orig = getattr(mod, name)
            replace(mods, orig, tracer._wrap(f"{mod_name}.{name}", orig))
    store = mods["geostore"].Store
    for name in STORE_METHODS:
        raw = store.__dict__[name]
        if isinstance(raw, classmethod):
            setattr(store, name, classmethod(tracer._wrap(f"geostore.Store.{name}", raw.__func__)))
        else:
            setattr(store, name, tracer._wrap(f"geostore.Store.{name}", raw))
    tracer._hooks["kernels.cosine_scores"] = _count_cosine_bytes
    tracer._hooks["trainer.batch_gradients"] = _count_subnormals
    return tracer


def per_layer(run, tracer: Tracer) -> dict:
    """Per-layer metrics of a finished traced run. Counts marked 'pipeline' cover
    the CLI pipeline only, which does the same work in every run of a seed."""
    t = tracer
    before, after = run.pipeline_counts
    compares = "evaluator.compare_rankings"
    values = {
        "geostore.ingest_s": t.mean("geostore.ingest"),
        "geostore.load_s": t.mean("geostore.Store.load"),
        "geostore.save_s": t.mean("geostore.Store.save"),
        "geostore.reference_calls": after["reference"] - before["reference"],  # pipeline
        "geostore.store_bytes": run.store_bytes,
        "retriever.top_k_ms": t.mean("retriever.top_k", 1e3),
        "retriever.rank_store_queries_s": t.mean("retriever.rank_store_queries"),
        "kernels.cosine_scores_ms": t.mean("kernels.cosine_scores", 1e3),
        "kernels.cosine_scores_bytes": t.per_call(t.counts["cosine_bytes"], "kernels.cosine_scores"),
        "kernels.top_indices_ms": t.mean("kernels.top_indices", 1e3),
        "kernels.haversine_calls": t.per_call(t.calls.get("kernels.haversine_km", 0), compares),
        "kernels.haversine_s": t.per_call(t.seconds.get("kernels.haversine_km", 0.0), compares),
        "reranker.rerank_ms": t.mean("reranker.rerank", 1e3),
        "reranker.score_candidates_ms": t.mean("reranker.score_candidates", 1e3),
        "reranker.load_params_s": t.mean("reranker.load_params"),
        "reranker.save_params_s": t.mean("reranker.save_params"),
        "reranker.checkpoint_bytes": run.checkpoint_bytes,
        "trainer.batch_gradients_ms": t.mean("trainer.batch_gradients", 1e3),
        "trainer.optimizer_step_ms": t.mean("trainer.optimizer_step", 1e3),
        "trainer.validation_s": t.mean("trainer._candidate_recall"),
        "trainer.subnormal_grad_elems": after["subnormal"] - before["subnormal"],  # pipeline
        "evaluator.threshold_recall_s": t.per_call(t.seconds.get("evaluator.threshold_recall", 0.0), compares),
    }
    for stage, seconds in run.stage_s.items():
        values[f"cli.{stage}_s"] = seconds
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}


def pipeline_mark(tracer: Tracer) -> dict:
    return {"reference": tracer.calls.get("geostore.Store.reference", 0),
            "subnormal": tracer.counts.get("subnormal_grad_elems", 0)}
