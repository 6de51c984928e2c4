"""Generate one workload's ingest inputs from a seed, without importing georank.

Writes line-delimited JSON in the layout ``georank ingest`` reads, plus
``expected.json`` with SHA-256 digests of the float32 matrices the store must
read back, so the benchmark can check ingestion bit for bit without holding a
second copy of the data.

    python3 perfbench/gen.py --refs 1000 --queries 1000 --image-dim 64 \
        --text-dim 64 --seed 1 --out DIR

The data imitates the program's synthetic confusion groups: locations come in
groups of four whose image embeddings sit close together, text embeddings
separate the locations, and every reference has its own coordinate (groups
0.1 degree apart on a grid, locations jittered by up to 0.001 degree).
Components are rounded to 4 decimals, so each value has a short exact text
form and the float32 the store holds is fully determined by the text.
"""

from __future__ import annotations

import argparse
import json
import math
from pathlib import Path

import numpy as np

from checks import coords_digest, float32_digest

GROUP_SIZE = 4
IMAGE_NOISE = 0.7
GROUP_SPREAD = 0.15
TEXT_MARGIN = 0.95


def _unit_rows(rng, n, dim):
    v = rng.standard_normal((n, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def make_dataset(refs: int, queries: int, image_dim: int, text_dim: int, seed: int) -> dict:
    """Rounded float64 arrays, coordinates and ids; deterministic in the arguments."""
    rng = np.random.default_rng([seed, refs, image_dim, text_dim])
    n_groups = -(-refs // GROUP_SIZE)
    cols = max(1, math.ceil(math.sqrt(n_groups)))
    group = np.arange(refs) // GROUP_SIZE
    loc_img = _unit_rows(rng, n_groups, image_dim)[group] + GROUP_SPREAD * rng.standard_normal(
        (refs, image_dim)) / math.sqrt(image_dim)
    loc_txt = _unit_rows(rng, refs, text_dim)
    text_sigma = math.sqrt(1.0 / TEXT_MARGIN - 1.0)

    def img_view(rows):
        return loc_img[rows] + IMAGE_NOISE * rng.standard_normal((len(rows), image_dim)) / math.sqrt(image_dim)

    def txt_view(rows):
        return loc_txt[rows] + text_sigma * rng.standard_normal((len(rows), text_dim)) / math.sqrt(text_dim)

    all_rows = np.arange(refs)
    q_rows = np.sort(rng.choice(refs, size=queries, replace=False))
    lat = 0.1 * (group // cols) + rng.uniform(-0.001, 0.001, refs)
    lon = 0.1 * (group % cols) + rng.uniform(-0.001, 0.001, refs)
    width = len(str(max(refs - 1, 1)))
    ref_ids = [f"r{i:0{width}d}" for i in all_rows]
    return {
        "ref_ids": ref_ids,
        "ref_img": np.round(img_view(all_rows), 4),
        "ref_txt": np.round(txt_view(all_rows), 4),
        "lat": lat,
        "lon": lon,
        "query_ids": [f"q{i:0{width}d}" for i in q_rows],
        "query_rows": q_rows,
        "query_img": np.round(img_view(q_rows), 4),
        "query_txt": np.round(txt_view(q_rows), 4),
    }


def _write_embeddings(path: Path, ids, rows: np.ndarray) -> None:
    # "%.4f" prints a value already rounded to 4 decimals exactly, and formats a
    # whole row in one call, several times faster than joining repr()s.
    row_format = '{"id":"%s","embedding":[' + ",".join(["%.4f"] * rows.shape[1]) + "]}\n"
    with open(path, "w", encoding="utf-8") as fh:
        for rid, row in zip(ids, rows.tolist()):
            fh.write(row_format % (rid, *row))


def _write_records(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def write_dataset(data: dict, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    image_dim, text_dim = data["ref_img"].shape[1], data["ref_txt"].shape[1]
    (out / "manifest.txt").write_text(
        f"format_version=1\nimage_dim={image_dim}\ntext_dim={text_dim}\n"
        f"reference_count={len(data['ref_ids'])}\nquery_count={len(data['query_ids'])}\n",
        encoding="utf-8",
    )
    _write_embeddings(out / "refs.emb.jsonl", data["ref_ids"], data["ref_img"])
    _write_embeddings(out / "refs.text.jsonl", data["ref_ids"], data["ref_txt"])
    _write_embeddings(out / "queries.emb.jsonl", data["query_ids"], data["query_img"])
    _write_embeddings(out / "queries.text.jsonl", data["query_ids"], data["query_txt"])
    lat, lon = data["lat"].tolist(), data["lon"].tolist()
    _write_records(out / "refs.coords.jsonl",
                   ({"id": rid, "lat": lat[i], "lon": lon[i]} for i, rid in enumerate(data["ref_ids"])))
    q_rows = data["query_rows"].tolist()
    _write_records(out / "queries.coords.jsonl",
                   ({"id": qid, "lat": lat[r], "lon": lon[r]} for qid, r in zip(data["query_ids"], q_rows)))
    _write_records(out / "queries.truth.jsonl",
                   ({"id": qid, "refs": [data["ref_ids"][r]]} for qid, r in zip(data["query_ids"], q_rows)))
    expected = {
        "ref_img": float32_digest(data["ref_img"]),
        "ref_txt": float32_digest(data["ref_txt"]),
        "query_img": float32_digest(data["query_img"]),
        "query_txt": float32_digest(data["query_txt"]),
        "coords": coords_digest(lat, lon),
    }
    (out / "expected.json").write_text(json.dumps(expected, indent=1) + "\n", encoding="utf-8")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--refs", type=int, required=True)
    ap.add_argument("--queries", type=int, required=True)
    ap.add_argument("--image-dim", type=int, required=True)
    ap.add_argument("--text-dim", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    a = ap.parse_args()
    write_dataset(make_dataset(a.refs, a.queries, a.image_dim, a.text_dim, a.seed), Path(a.out))


if __name__ == "__main__":
    main()
