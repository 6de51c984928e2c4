import errno
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from georank import cvlang, geostore, reranker
from georank.cli import main
from georank.geostore import Columns, GeoCoord, QueryRecord, ReferenceRecord, Store, StoreManifest


def _columns(records, image_dim, text_dim):
    """Store columns of ``records``. The text width is that of the records'
    text (``text_dim`` when none has any), so a store whose text disagrees
    with its manifest reaches the store's own check."""
    with_text = [r.text_emb for r in records if r.text_emb is not None]
    text = np.zeros((len(records), np.size(with_text[0]) if with_text else text_dim), np.float32)
    has_text = np.array([r.text_emb is not None for r in records], bool)
    for row in np.flatnonzero(has_text):
        text[row] = records[row].text_emb
    has_coord = np.array([r.coord is not None for r in records], bool)
    coords = np.array([(r.coord.lat, r.coord.lon) if r.coord else (0.0, 0.0) for r in records], float).reshape(-1, 2)
    image = np.array([r.image_emb for r in records], np.float32).reshape(len(records), -1 if records else image_dim)
    return Columns([r.id for r in records], image, text, has_text, coords, has_coord, [r.caption for r in records])


def build_store(refs, queries, image_dim, text_dim=8):
    manifest = StoreManifest(image_dim, text_dim, len(refs), len(queries))
    truth = {q.id: q.ground_truth for q in queries}
    return Store(manifest, _columns(refs, image_dim, text_dim), _columns(queries, image_dim, text_dim), truth)


def store_of(ref_ids, truth=None):
    """A store holding exactly ``ref_ids`` and one query per key of ``truth``
    (query id -> its ground-truth ids), every row the one-wide image [1.0]."""
    truth = truth or {}
    return build_store([make_ref(r, [1.0]) for r in ref_ids], [make_query(q, [1.0], t) for q, t in truth.items()],
                       image_dim=1)


def make_ref(rid, image, text=None, caption=None, coord=None):
    return ReferenceRecord(
        id=rid,
        image_emb=np.asarray(image, np.float32),
        text_emb=None if text is None else np.asarray(text, np.float32),
        caption=caption,
        coord=coord,
    )


def make_query(qid, image, truth, text=None, coord=None):
    return QueryRecord(
        id=qid,
        image_emb=np.asarray(image, np.float32),
        ground_truth=tuple(truth),
        text_emb=None if text is None else np.asarray(text, np.float32),
        coord=coord,
    )


def fill_disk_after_first_write(monkeypatch):
    """Make every file that ``geostore`` opens fail with ENOSPC after its first write."""
    real_open = open

    def disk_fills_after_first_write(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        first = fh.write

        def write_once(data):
            fh.write = full
            return first(data)

        def full(data):
            raise OSError(errno.ENOSPC, "No space left on device")

        fh.write = write_once
        return fh

    monkeypatch.setattr(geostore, "open", disk_fills_after_first_write, raising=False)


@pytest.fixture
def simple_store():
    """Three references with hand-checkable cosine order for query [1,0]."""
    refs = [
        make_ref("e1", [1.0, 0.0], text=[1.0, 0.0, 0.0]),
        make_ref("e2", [0.0, 1.0], text=[0.0, 1.0, 0.0]),
        make_ref("e3", [0.6, 0.8], text=[0.0, 0.0, 1.0]),
    ]
    queries = [make_query("q1", [1.0, 0.0], ["e1"], text=[1.0, 0.0, 0.0])]
    return build_store(refs, queries, image_dim=2, text_dim=3)


@pytest.fixture
def reranked_pair(tmp_path):
    """A synthetic store (with coordinates), its top-10 rankings and those
    rankings reordered by an untrained scorer, all written by the CLI:
    (store dir, baseline.jsonl, reranked.jsonl)."""
    store, baseline, reranked, ckpt = (tmp_path / n for n in ("store", "baseline.jsonl", "reranked.jsonl", "i.gvck"))
    assert main(["synth", "--out", str(store), "--locations", "20", "--group-size", "3", "--image-dim", "8",
                 "--text-dim", "8", "--seed", "3"]) == 0
    assert main(["retrieve", "--store", str(store), "--k", "10", "--out", str(baseline)]) == 0
    config = reranker.RerankerConfig(image_dim=8, text_dim=8, latent_dim=8, aligner_hidden=8, init_seed=5)
    reranker.save_params(ckpt, reranker.init_params(config))
    assert main(["rerank", "--store", str(store), "--rankings", str(baseline), "--checkpoint", str(ckpt),
                 "--out", str(reranked)]) == 0
    return store, baseline, reranked


def random_store(rng, n_refs, n_queries, image_dim, text_dim=4, with_text=False, with_coords=False):
    refs = []
    for i in range(n_refs):
        refs.append(
            make_ref(
                f"r{i:05d}",
                rng.standard_normal(image_dim),
                text=rng.standard_normal(text_dim) if with_text else None,
                coord=GeoCoord(float(rng.uniform(-60, 60)), float(rng.uniform(-170, 170))) if with_coords else None,
            )
        )
    queries = []
    for i in range(n_queries):
        truth = [f"r{int(rng.integers(0, n_refs)):05d}"]
        queries.append(
            make_query(
                f"q{i:05d}",
                rng.standard_normal(image_dim),
                truth,
                text=rng.standard_normal(text_dim) if with_text else None,
            )
        )
    return build_store(refs, queries, image_dim, text_dim)


# ---------------------------------------------------------------------------
# a local stand-in for an embedding endpoint
# ---------------------------------------------------------------------------

class _StubHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.server.seen.append({"body": body, "auth": self.headers.get("Authorization")})
        step = min(len(self.server.seen) - 1, len(self.server.script) - 1)
        status, payload = self.server.script[step]
        if callable(payload):
            payload = payload(body)
        blob = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    def log_message(self, *args):
        pass


@pytest.fixture
def quick_retries(monkeypatch):
    """Two retries after the first attempt, with no backoff between them."""
    monkeypatch.setattr(cvlang, "EMBED_MAX_RETRIES", 2)
    monkeypatch.setattr(cvlang, "EMBED_BACKOFF_S", 0.0)


@pytest.fixture
def stub_server(quick_retries):
    """An HTTP endpoint on localhost that records each request in ``seen`` and
    answers the n-th with ``script[n]`` (the last entry once they run out)."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    server.seen = []
    server.script = [(200, {"embeddings": []})]
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join()
