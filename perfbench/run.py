#!/usr/bin/env python3
"""Run one georank benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload pipeline-1k --seed 1 --seconds 8 --trace 0

Run it from the repository root; it imports georank from ``src/``. Inputs are
generated from ``--seed`` in a separate process and cached under
``.perfbench/inputs``; run directories under ``.perfbench/runs`` are removed
when the run ends. ``--trace 0`` prints the end-to-end metrics and ``--trace 1``
the per-layer ones (see README.md). An operation of the measured loop that
raises is counted in ``failed``; a failure anywhere else, a failed correctness
check, or a loop operation that never succeeds exits 1, and a checkout without
``src/georank`` exits 2; neither prints a result.
"""

from __future__ import annotations

import ctypes
import os
import sys

# Pinned before numpy loads, so BLAS starts with this many threads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

# glibc's malloc raises its mmap and trim thresholds as a process frees large
# blocks, and where they end up varies from process to process: train-paper's
# set-up took 0.033 s in some runs and 0.07 s (14k page faults each) in others.
# Fixing them at the most the heuristic reaches (32 MiB, trim at twice that)
# makes every run reuse freed memory the same way.
MALLOC = {"mmap_threshold": 32 << 20, "trim_threshold": 64 << 20}
try:
    _libc = ctypes.CDLL("libc.so.6")
    MALLOC_PINNED = bool(_libc.mallopt(-3, MALLOC["mmap_threshold"]) and _libc.mallopt(-1, MALLOC["trim_threshold"]))
except OSError:  # not glibc
    MALLOC_PINNED = False

import argparse  # noqa: E402
import gc  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
from checks import CheckFailed, require  # noqa: E402
from clock import Clock  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
CACHED_INPUTS_PER_WORKLOAD = 11
K = 10


@dataclass(frozen=True)
class Workload:
    refs: int
    queries: int
    image_dim: int
    text_dim: int
    train_args: tuple[str, ...]
    readme_synth: bool  # the pipeline starts from `georank synth --seed 7`, as the README does
    held_out_r1_floor: float | None = None


WORKLOADS = {
    "pipeline-1k": Workload(
        1000, 1000, 64, 64,
        ("--epochs", "20", "--lr", "0.003", "--batch-size", "8", "--latent-dim", "64", "--aligner-hidden", "64"),
        readme_synth=True, held_out_r1_floor=0.90,
    ),
    # Both train on logits: with the default loss on sigmoid scores the latent-512
    # scorer saturates, reranking turns near random, and top1_localised swings by a
    # third from seed to seed (see README.md).
    "serve-50k": Workload(50_000, 64, 256, 256, ("--epochs", "5", "--loss-on", "logits"), readme_synth=False),
    "train-paper": Workload(240, 240, 1024, 1536, ("--epochs", "3", "--loss-on", "logits"), readme_synth=False),
}

# Share of --seconds each repeated operation gets. The operations take turns,
# each time the one furthest below its share, so every metric's samples span
# the whole measured loop rather than one stretch of it.
SHARE = {"localise": 0.35, "batch": 0.25, "rerank": 0.15, "evaluate": 0.15, "ingest": 0.10}
MIN_SAMPLES = {"localise": 40}  # enough for a tail with ten samples beyond it
MIN_OP_SECONDS = 1.0  # no metric rests on less, whatever its share
LOCALISE_GROUP_S = 0.02
TAIL_BEYOND = 10
TAIL_BLOCK = 100
# Set-up is repeated until both hold, and its median reported.
SETUP_SECONDS = 2.0
SETUP_MIN_REPS = 3

END_TO_END_UNITS = {
    "setup_s": "s", "pipeline_s": "s", "train_samples_per_s": "samples/s", "top1_localised": "queries",
    "localise_p50_ms": "ms", "localise_tail_ms": "ms", "batch_localise_qps": "queries/s",
    "rerank_qps": "rankings/s", "ingest_rows_per_s": "rows/s", "evaluate_qps": "queries/s", "peak_rss_mb": "MB",
}
# Functions that long operations call many times. After each call the clock laps
# once LAP_EVERY_S has passed since its last lap, so an operation of seconds is
# normalised piece by piece rather than by the probes at its two ends alone.
LAP_AFTER = {"geostore": ("_parse_embedding_rows",), "retriever": ("top_k",), "reranker": ("rerank",),
             "trainer": ("batch_gradients",), "evaluator": ("threshold_recall",)}
LAP_EVERY_S = 0.1
STAGES = ("synth", "retrieve", "build_samples", "train", "rerank", "compare")
VAL_SPLIT = 0.2  # georank train's default
README_SYNTH_SEED = "7"


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(), "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS, "numpy": np.__version__, "python": platform.python_version(),
        "numba": importlib.util.find_spec("numba") is not None,
        "malloc": MALLOC if MALLOC_PINNED else "unpinned",
    }


def ensure_inputs(name: str, w: Workload, seed: int) -> Path:
    """Generated ingest inputs for (workload, seed), made in a child process and cached.
    The cache key covers the sizes and the generator's source, so neither can go stale."""
    cache = WORK / "inputs"
    key = hashlib.sha256((HERE / "gen.py").read_bytes() + repr(
        (w.refs, w.queries, w.image_dim, w.text_dim)).encode()).hexdigest()[:12]
    final = cache / f"{name}-{key}-seed{seed}"
    if not (final / "expected.json").exists():
        tmp = cache / f".{final.name}.{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(
            [sys.executable, str(HERE / "gen.py"), "--refs", str(w.refs), "--queries", str(w.queries),
             "--image-dim", str(w.image_dim), "--text-dim", str(w.text_dim), "--seed", str(seed),
             "--out", str(tmp)],
            check=True, timeout=150,
        )
        shutil.rmtree(final, ignore_errors=True)
        os.replace(tmp, final)
        old = sorted((p for p in cache.glob(f"{name}-*") if p != final), key=lambda p: p.stat().st_mtime)
        for p in old[: max(0, len(old) + 1 - CACHED_INPUTS_PER_WORKLOAD)]:
            shutil.rmtree(p, ignore_errors=True)
    os.utime(final)
    return final


def block_tail(samples) -> float:
    """The highest whole percentile (p99 at most) with at least TAIL_BEYOND samples beyond it."""
    p = min(99, math.floor(100 * (1 - TAIL_BEYOND / len(samples))))
    return float(np.percentile(samples, p, method="lower"))


def tail(samples: list[float]) -> float:
    """Median of ``block_tail`` over consecutive blocks of at least TAIL_BLOCK samples
    (one block if there are fewer). Samples are in the order they were taken, so a
    burst of host contention raises the tail of one block, not the median of them;
    a tail over the whole run would rest on its ten highest samples, which one such
    burst can supply."""
    blocks = np.array_split(np.asarray(samples), max(1, len(samples) // TAIL_BLOCK))
    return statistics.median(block_tail(b) for b in blocks)


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


class Run:
    def __init__(self, name: str, seconds: float, inputs: Path, out: Path, tracer):
        from georank import cli, evaluator, geostore, reranker, retriever

        self.cli, self.evaluator, self.geostore = cli, evaluator, geostore
        self.reranker, self.retriever = reranker, retriever
        self.w = WORKLOADS[name]
        self.seconds = seconds
        self.inputs = inputs
        self.out = out
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, float] = {}
        self.stage_s = dict.fromkeys(STAGES, 0.0)
        self.verified: dict[str, tuple[list[str], list]] = {}
        self.clock = Clock()
        self.epoch_ends: list[float] = []
        self._install_laps()

    def _install_laps(self) -> None:
        """Lap the clock inside long operations (LAP_AFTER), and after every epoch's
        checkpoint, which also gives the time of each epoch."""
        mods = layers.georank_modules()

        def lap_after(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.clock.lap_if_due(LAP_EVERY_S)
                return result
            return wrapper

        for mod_name, names in LAP_AFTER.items():
            for name in names:
                fn = getattr(mods[mod_name], name)
                layers.replace(mods, fn, lap_after(fn))

        save = mods["trainer"].save_params

        def save_and_mark(path, *args, **kwargs):
            result = save(path, *args, **kwargs)
            if Path(path).name.startswith("epoch_"):
                self.clock.lap()
                self.epoch_ends.append(self.clock.elapsed)
            return result

        layers.replace(mods, save, functools.wraps(save)(save_and_mark))

    def timed(self, fn, *args, **kwargs):
        """One operation of the program, timed in host-normalised seconds (clock.py).
        The cyclic garbage collector is run first, untimed, so the collections an
        operation pays for are those its own allocations cause, not leftovers of
        whatever ran before it."""
        gc.collect()
        self.clock.lap()
        self.attempted += 1
        start = self.clock.elapsed
        result = fn(*args, **kwargs)
        self.clock.lap()
        return self.clock.elapsed - start, result

    def georank(self, *argv: str) -> float:
        """One CLI stage through georank.cli.main; its own output goes to stderr."""
        with contextlib.redirect_stdout(sys.stderr):
            dt, code = self.timed(self.cli.main, list(argv))
        require(code == 0, f"georank {argv[0]} exited {code}")
        return dt

    # -- ingest and set-up ----------------------------------------------------

    def ingest(self) -> Path:
        """Ingest the generated JSONL once and check the store reads back bit-exact."""
        inp, dest = self.inputs, self.out / "ingested"
        manifest = self.geostore.StoreManifest.read(inp / "manifest.txt")
        files = dict(
            ref_embeddings=inp / "refs.emb.jsonl", ref_text_embeddings=inp / "refs.text.jsonl",
            ref_coords=inp / "refs.coords.jsonl", query_embeddings=inp / "queries.emb.jsonl",
            query_text_embeddings=inp / "queries.text.jsonl", query_coords=inp / "queries.coords.jsonl",
            query_truth=inp / "queries.truth.jsonl",
        )
        self.ingest_times = [self.timed(self.geostore.ingest, dest, manifest, **files)[0]]
        # later rounds run in the measured loop, into a directory nothing reads
        self.ingest_again = lambda: self.geostore.ingest(self.out / "ingest-again", manifest, **files) and None

        store = self.geostore.Store.load(dest)
        expected = json.loads((inp / "expected.json").read_text())
        got = {
            "ref_img": checks.float32_digest(store.ref_image),
            "ref_txt": checks.float32_digest(store.ref_text_emb(r) for r in store.ref_ids),
            "query_img": checks.float32_digest(store.query_image),
            "query_txt": checks.float32_digest(store.query_text_emb(q) for q in store.query_ids),
            "coords": checks.coords_digest([store.coord_of(r).lat for r in store.ref_ids],
                                           [store.coord_of(r).lon for r in store.ref_ids]),
        }
        for key, digest in expected.items():
            require(got[key] == digest, f"ingest: {key} does not read back bit-exact")
        width = len(str(max(self.w.refs - 1, 1)))
        require(store.ref_ids == [f"r{i:0{width}d}" for i in range(self.w.refs)], "ingest: reference ids differ")
        require(all(store.ground_truth[q] == ("r" + q[1:],) for q in store.query_ids), "ingest: ground truth differs")
        return dest

    def synth_argv(self, dest: Path) -> tuple[str, ...]:
        # The README's seed, not the benchmark's: the recipe's held-out R@1 depends on
        # the synth seed (0.105 to 0.95 over seeds 1-10, see README.md), so only the
        # documented store gives a quality that repeats.
        return ("synth", "--out", str(dest), "--locations", str(self.w.refs), "--group-size", "4",
                "--seed", README_SYNTH_SEED)

    def bring_up(self, store_dir: Path, ckpt: Path) -> float:
        """What a server does before its first answer, timed: load store and checkpoint,
        answer once. The previous store is dropped first, so one is in memory at a time."""
        self.served = None

        def once():
            store = self.geostore.Store.load(store_dir)
            params = self.reranker.load_params(ckpt)
            q = store.query(store.query_ids[0])
            self.reranker.rerank(q, self.retriever.top_k(q.image_emb, store, K, query_id=q.id), params, store)
            return store, params

        dt, self.served = self.timed(once)
        return dt

    def setup_s(self, once) -> float:
        """Median of ``once()`` timings, repeated for at least SETUP_SECONDS."""
        times: list[float] = []
        while len(times) < SETUP_MIN_REPS or sum(times) < SETUP_SECONDS:
            times.append(once())
        return statistics.median(times)

    # -- the CLI pipeline -----------------------------------------------------

    def pipeline(self, store: Path) -> Path:
        o = self.out
        base, samples, train, rr, report = (o / "baseline.jsonl", o / "samples.jsonl", o / "train",
                                            o / "reranked.jsonl", o / "report")
        ckpt = train / "final.gvck"
        if self.w.readme_synth:
            self.stage_s["synth"] = self.georank(*self.synth_argv(store))
        s = ("--store", str(store))
        self.stage_s["retrieve"] = self.georank("retrieve", *s, "--k", str(K), "--out", str(base))
        self.stage_s["build_samples"] = self.georank("build-samples", *s, "--rankings", str(base),
                                                     "--out", str(samples))
        self.stage_s["train"] = self.georank("train", *s, "--samples", str(samples), "--out", str(train),
                                             *self.w.train_args)
        self.stage_s["rerank"] = self.georank("rerank", *s, "--rankings", str(base), "--checkpoint", str(ckpt),
                                              "--out", str(rr))
        self.stage_s["compare"] = self.georank("compare", *s, "--baseline", str(base), "--reranked", str(rr),
                                               "--out", str(report))
        self.metrics["pipeline_s"] = sum(self.stage_s.values())

        epochs = read_jsonl(train / "train_report.jsonl")
        n_samples = len(samples.read_text().splitlines())
        train_count = n_samples - int(round(n_samples * VAL_SPLIT))
        # Median time from one epoch's checkpoint to the next: an epoch's training,
        # validation and checkpoint write. The first epoch, which also pays for the
        # stage's start, is left out.
        require(len(self.epoch_ends) == len(epochs), "train: not one checkpoint per epoch")
        periods = [b - a for a, b in zip(self.epoch_ends, self.epoch_ends[1:])]
        self.metrics["train_samples_per_s"] = train_count / statistics.median(periods)
        require(all(math.isfinite(e["mean_loss"]) for e in epochs), "train: a loss is not finite")
        if self.w.held_out_r1_floor is not None:
            require(epochs[-1]["val_r1"] >= self.w.held_out_r1_floor,
                    f"train: held-out R@1 {epochs[-1]['val_r1']} below {self.w.held_out_r1_floor}")
        self.outputs = {"baseline": base, "reranked": rr, "report": report / "report.json"}
        return ckpt

    # -- checks ---------------------------------------------------------------

    def prepare_checks(self, store, ckpt: Path) -> None:
        self.store = store
        self.oracle = checks.CosineOracle(store.ref_image, store.ref_ids, K)
        self.oracle_top = self.oracle.top(store.query_image)
        self.scorer = checks.Scorer(ckpt)
        self.ref_pos = {r: i for i, r in enumerate(store.ref_ids)}
        self.query_pos = {q: i for i, q in enumerate(store.query_ids)}
        self.truth = [set(store.ground_truth[q]) for q in store.query_ids]

    def verify(self, qid: str, ids: list[str], entries: list, what: str) -> None:
        """Phase-1 ids and reranked entries for one query: checked in full the first
        time they are seen, and required to be identical every time after."""
        seen = self.verified.get(qid)
        if seen is not None:
            require(seen == (ids, entries), f"{what}: results for {qid} changed between calls")
            return
        store, i = self.store, self.query_pos[qid]
        want_ids, want_scores = self.oracle_top[i]
        checks.check_top_k(ids, want_ids, want_scores, store.query_image[i], self.oracle, self.ref_pos,
                           f"{what} top_k {qid}")
        expected = self.scorer.scores(store.query_image[i], store.query_text_emb(qid),
                                      store.ref_image[[self.ref_pos[r] for r in ids]],
                                      np.stack([store.ref_text_emb(r) for r in ids]))
        checks.check_rerank(ids, entries, expected, f"{what} rerank {qid}")
        self.verified[qid] = (ids, entries)

    def check_pipeline(self) -> None:
        store = self.store
        base = self.retriever.load_rankings(self.outputs["baseline"])
        rr = self.retriever.load_rankings(self.outputs["reranked"])
        require([b.query_id for b in base] == store.query_ids, "retrieve: not one ranking per query, in order")
        require([r.query_id for r in rr] == store.query_ids, "rerank: not one ranking per query, in order")
        for b, r in zip(base, rr):
            self.verify(b.query_id, b.ids(), r.entries, "pipeline")
        base_ids, rr_ids = [b.ids() for b in base], [r.ids() for r in rr]
        checks.check_report(json.loads(self.outputs["report"].read_text()), base_ids, rr_ids, self.truth)
        top1 = checks.recall_count(rr_ids, self.truth, 1)
        self.metrics["top1_localised"] = top1
        if self.w.held_out_r1_floor is not None:
            require(top1 > checks.recall_count(base_ids, self.truth, 1), "rerank: R@1 did not rise above baseline")
        self.base, self.rr = base, rr

    # -- the measured loop ----------------------------------------------------

    def measure(self, params) -> dict[str, list[float]]:
        store, qids = self.store, self.store.query_ids
        top_k, rerank = self.retriever.top_k, self.reranker.rerank
        coords = {r: store.coord_of(r) for r in store.ref_ids}
        config = self.evaluator.EvalConfig()
        first_report: list[dict] = []

        group = [1]

        def localise(first):
            """Back-to-back single-query localisations for about LOCALISE_GROUP_S, each
            timed on its own. A probe between every two would evict their data from
            the cache, and a sub-millisecond query would then time the cache refill."""
            raw, results = [], []
            for i in range(first, first + group[0]):
                q = store.query(qids[i % len(qids)])
                start = time.perf_counter()
                ranking = top_k(q.image_emb, store, K, query_id=q.id)
                results.append((ranking, rerank(q, ranking, params, store)))
                raw.append(time.perf_counter() - start)
            group[0] = max(1, int(LOCALISE_GROUP_S / statistics.median(raw)))
            return raw, results

        def check_localise(results):
            for ranking, reranked in results:
                self.verify(ranking.query_id, ranking.ids(), reranked.entries, "localise")

        def batch(_):
            base = self.retriever.rank_store_queries(store, K)
            return base, [rerank(store.query(r.query_id), r, params, store) for r in base]

        def check_batch(result):
            for b, r in zip(*result, strict=True):
                self.verify(b.query_id, b.ids(), r.entries, "batch")

        def rerank_all(_):
            return [rerank(store.query(r.query_id), r, params, store) for r in self.base]

        def check_rerank_all(rr):
            require([r.entries for r in rr] == [r.entries for r in self.rr], "rerank: results changed")

        def evaluate(_):
            return self.evaluator.compare_rankings(self.base, self.rr, store.ground_truth, config, coords).to_dict()

        def check_evaluate(report):
            if not first_report:
                checks.check_report(json.loads(json.dumps(report)), [b.ids() for b in self.base],
                                    [r.ids() for r in self.rr], self.truth)
                first_report.append(report)
            require(report == first_report[0], "evaluate: report changed between calls")

        ops = {
            "localise": (localise, check_localise),
            "batch": (batch, check_batch),
            "rerank": (rerank_all, check_rerank_all),
            "evaluate": (evaluate, check_evaluate),
            "ingest": (lambda _: self.ingest_again(), lambda _: None),
        }
        times = {name: [] for name in ops}
        times["ingest"] = list(self.ingest_times)
        done = {name: len(t) for name, t in times.items()}  # samples taken and attempts failed
        spent = {name: sum(t) for name, t in times.items()}
        start = time.perf_counter()
        while True:
            behind = [n for n in ops if done[n] < MIN_SAMPLES.get(n, 1) or spent[n] < MIN_OP_SECONDS]
            if time.perf_counter() - start >= self.seconds:
                if not behind:
                    break
                name = behind[0]
            else:
                name = min(ops, key=lambda n: spent[n] / SHARE[n])
            op, check = ops[name]
            began = time.perf_counter()
            try:
                dt, result = self.timed(op, done[name])
            except Exception as exc:  # counted as failed; the loop goes on
                self.failed += 1
                done[name] += 1
                spent[name] += time.perf_counter() - began
                print(f"perfbench: {name} failed: {exc!r}", file=sys.stderr)
                continue
            if name == "localise":  # share the group's normalised time out by raw time
                raw, result = result
                samples = [dt * r / sum(raw) for r in raw]
                self.attempted += len(raw) - 1
            else:
                samples = [dt]
            check(result)
            times[name] += samples
            done[name] += len(samples)
            spent[name] += dt
        for name, t in times.items():
            require(len(t) > 0, f"{name}: every attempt failed")
        return times

    def execute(self) -> dict:
        ingested = self.ingest()
        if self.w.readme_synth:
            store_dir = self.out / "store"
            self.metrics["setup_s"] = self.setup_s(lambda: self.georank(*self.synth_argv(store_dir)))
        else:
            store_dir = ingested
        mark = layers.pipeline_mark(self.tracer) if self.tracer else None
        ckpt = self.pipeline(store_dir)
        if self.tracer:
            self.pipeline_counts = (mark, layers.pipeline_mark(self.tracer))
        self.store_bytes = dir_bytes(store_dir)
        self.checkpoint_bytes = ckpt.stat().st_size

        if self.w.readme_synth:
            self.bring_up(store_dir, ckpt)
        else:
            self.metrics["setup_s"] = self.setup_s(lambda: self.bring_up(store_dir, ckpt))
        store, params = self.served
        self.prepare_checks(store, ckpt)
        self.check_pipeline()

        times = self.measure(params)
        n = len(store.query_ids)
        self.metrics["localise_p50_ms"] = statistics.median(times["localise"]) * 1e3
        self.metrics["localise_tail_ms"] = tail(times["localise"]) * 1e3
        self.metrics["batch_localise_qps"] = n / statistics.median(times["batch"])
        self.metrics["rerank_qps"] = n / statistics.median(times["rerank"])
        self.metrics["evaluate_qps"] = n / statistics.median(times["evaluate"])
        self.metrics["ingest_rows_per_s"] = (self.w.refs + self.w.queries) / statistics.median(times["ingest"])
        self.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print("samples: " + json.dumps({k: len(v) for k, v in times.items()}), file=sys.stderr)
        print(f"host probe: median {statistics.median(self.clock.probes) * 1e3:.4f} ms "
              f"over {len(self.clock.probes)} probes", file=sys.stderr)
        if self.tracer:
            print("end-to-end while traced: " + json.dumps(self.metrics), file=sys.stderr)
            return layers.per_layer(self, self.tracer)
        return {name: {"value": self.metrics[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description="Run one georank benchmark workload.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "georank" / "__init__.py").is_file():
        print(f"perfbench: no georank sources at {ROOT / 'src' / 'georank'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    print("machine: " + json.dumps(machine(), sort_keys=True), file=sys.stderr)
    inputs = ensure_inputs(args.workload, WORKLOADS[args.workload], args.seed)

    tracer = layers.install() if args.trace else None
    out = WORK / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    run = Run(args.workload, args.seconds, inputs, out, tracer)
    try:
        metrics = run.execute()
    except CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out, ignore_errors=True)
    print(json.dumps({"correct": True, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
