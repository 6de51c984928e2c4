"""Retrieval metrics and before/after-reranking comparison reports.

Recall@k, average precision, haversine distance, positional-threshold recall,
and JSON/CSV/SVG report emission. Published full-scale figures are carried as
non-asserted reference context in the report footer.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import kernels
from .geostore import GeoCoord, write_lines
from .retriever import Ranking, refuse_repeats

# Figures reported for the original full-scale pipeline (pretrained vision
# backbone plus hosted text embeddings). Context only; never asserted.
REFERENCE_CONTEXT = {
    "note": (
        "Full-scale reference figures require the pretrained vision backbone, a hosted "
        "text-embedding service, and the complete benchmark datasets; desk-scale runs "
        "are not expected to reproduce them and no test asserts them."
    ),
    "vigor_same_area_recall_pct": {"r1": [77.86, 85.64], "r5": [95.18, 96.18], "r10": [97.21, 97.21]},
    "drone_to_satellite": {"r1_pct": 93.15, "ap_pct": 95.23},
    "description_stability": {"cosine": 0.83, "jaccard": 0.44, "mean_length_words": 185.49, "std_length_words": 14.76},
}


@dataclass
class EvalConfig:
    ks: tuple[int, ...] = (1, 5, 10)
    thresholds_km: tuple[float, ...] = (0.0, 0.5)
    earth_radius_km: float = 6371.0

    def validate(self) -> None:
        if not self.ks or any(k <= 0 for k in self.ks) or list(self.ks) != sorted(self.ks):
            raise ValueError("ks must be ascending positive integers")
        if not all(math.isfinite(t) and t >= 0 for t in self.thresholds_km):
            raise ValueError(f"thresholds must be finite and >= 0, got {self.thresholds_km}")
        if not (math.isfinite(self.earth_radius_km) and self.earth_radius_km > 0):
            raise ValueError(f"earth_radius_km must be a positive finite number, got {self.earth_radius_km}")


def haversine(p: GeoCoord, q: GeoCoord, radius_km: float = 6371.0) -> float:
    """Great-circle distance between two coordinates in km."""
    return kernels.haversine_km(p.lat, p.lon, q.lat, q.lon, radius_km)


def _walk(rankings: list[Ranking], ground_truth: dict, coords: Mapping[str, GeoCoord] | None = None,
          depth: int = 0) -> tuple[np.ndarray, list[float], tuple | None]:
    """Measure a set of rankings in one pass; an empty set, an unknown query
    id or an empty set of positives is a ValueError.

    Returns the 1-based rank of each ranking's first positive (inf where it
    has none), each ranking's average precision (added up as
    ``average_precision`` does), and, when ``coords`` is given, the pairs of
    each of a ranking's top ``depth`` entries with each of its true
    locations: ``(owner, rank, near, truth, latlon)``, the ranking's index,
    the entry's rank, and the entry's and the true location's row of the
    float64 (lat, lon) array ``latlon``, which holds the coordinate of each
    distinct id, looked up once."""
    if not rankings:
        raise ValueError("no rankings to evaluate")
    first, ap = np.full(len(rankings), np.inf), []
    owner, rank, near, truth = [], [], [], []
    for i, r in enumerate(rankings):
        if r.query_id not in ground_truth:
            raise ValueError(f"unknown query id '{r.query_id}' in rankings")
        truth_ids = ground_truth[r.query_id]
        positives = set(truth_ids)
        if not positives:
            raise ValueError("empty positive set")
        ids = [rid for rid, _ in r.entries]
        hit_ranks = [j for j, rid in enumerate(ids, start=1) if rid in positives]
        total = 0.0
        for hits, j in enumerate(hit_ranks, start=1):
            total += hits / j
        ap.append(total / len(positives))
        if hit_ranks:
            first[i] = hit_ranks[0]
        if coords is not None:
            top = ids[:depth]
            for g in truth_ids:
                owner += [i] * len(top)
                rank += range(1, len(top) + 1)
                near += top
                truth += [g] * len(top)
    if coords is None:
        return first, ap, None
    row = {rid: n for n, rid in enumerate(dict.fromkeys(truth + near))}
    latlon = np.array([_lat_lon(coords, rid) for rid in row], np.float64).reshape(-1, 2)
    rows = [np.fromiter(map(row.__getitem__, col), np.intp, len(col)) for col in (near, truth)]
    return first, ap, (np.array(owner, np.intp), np.array(rank, np.float64), *rows, latlon)


def _lat_lon(coords: Mapping[str, GeoCoord], rid: str) -> tuple[float, float]:
    try:
        c = coords[rid]
    except KeyError:
        raise ValueError(f"missing coordinate for id '{rid}'") from None
    return c.lat, c.lon


def _near_ranks(pairs: tuple, count: int, thresholds_km, radius_km: float) -> dict[float, np.ndarray]:
    """For each threshold, the rank of each of ``count`` rankings' first
    entry among ``pairs`` (as ``_walk`` returns them) that lies within the
    threshold (inclusive) of a true location; inf where there is none. Every
    pair is measured once, in one vectorised haversine call."""
    owner, rank, near, truth, latlon = pairs
    lat, lon = latlon[:, 0], latlon[:, 1]
    dist = kernels.haversine_km(lat[near], lon[near], lat[truth], lon[truth], radius_km)
    out = {}
    for t in thresholds_km:
        out[t] = np.full(count, np.inf)
        hit = dist <= t
        np.minimum.at(out[t], owner[hit], rank[hit])
    return out


def _share(ranks: np.ndarray, k: int) -> float:
    """Fraction of rankings whose rank is at most k."""
    return int(np.count_nonzero(ranks <= k)) / len(ranks)


def recall_at_k(rankings: list[Ranking], ground_truth: dict[str, tuple | set], k: int) -> float:
    """Fraction of queries with any positive among the first k entries."""
    return _share(_walk(rankings, ground_truth)[0], k)


def average_precision(ranking: Ranking, positives: set[str]) -> float:
    """Mean of precision at each positive's rank; unretrieved positives count zero."""
    if not positives:
        raise ValueError("empty positive set")
    hits = 0
    total = 0.0
    for rank, (rid, _) in enumerate(ranking.entries, start=1):
        if rid in positives:
            hits += 1
            total += hits / rank
    return total / len(positives)


def threshold_recall(
    rankings: list[Ranking],
    coords: Mapping[str, GeoCoord],
    ground_truth: dict[str, tuple | set],
    threshold_km: float,
    k: int,
    radius_km: float = 6371.0,
) -> float:
    """Fraction of queries where a top-k reference lies within threshold_km
    (inclusive) of a true location."""
    pairs = _walk(rankings, ground_truth, coords, k)[2]
    return _share(_near_ranks(pairs, len(rankings), (threshold_km,), radius_km)[threshold_km], k)


def _table(walk: tuple, config: EvalConfig) -> dict:
    """The metric table of one ranking set, from its ``_walk`` to depth ``config.ks[-1]``."""
    first, ap, pairs = walk
    out = {
        "query_count": len(first),
        "recall": {k: _share(first, k) for k in config.ks},
        "mean_ap": sum(ap) / len(ap),
    }
    if pairs is not None:
        near = _near_ranks(pairs, len(first), config.thresholds_km, config.earth_radius_km)
        out["threshold_recall"] = {t: {k: _share(near[t], k) for k in config.ks} for t in config.thresholds_km}
    return out


def evaluate_rankings(
    rankings: list[Ranking],
    ground_truth: dict,
    config: EvalConfig,
    coords: Mapping[str, GeoCoord] | None = None,
) -> dict:
    """Single-sided metric table for one ranking set."""
    config.validate()
    return _table(_walk(rankings, ground_truth, coords, config.ks[-1]), config)


@dataclass
class EvalReport:
    """Side-by-side baseline vs reranked metrics with deltas."""

    query_count: int
    skipped_query_count: int
    k_max: int
    recall: dict[int, dict[str, float]]
    mean_ap: dict[str, float]
    threshold_recall: dict[float, dict[int, dict[str, float]]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "query_count": self.query_count,
            "skipped_query_count": self.skipped_query_count,
            "k_max": self.k_max,
            "recall": {str(k): v for k, v in self.recall.items()},
            "mean_ap": self.mean_ap,
            "threshold_recall": {
                f"{t:g}": {str(k): v for k, v in per_k.items()} for t, per_k in self.threshold_recall.items()
            },
            "reference_context": REFERENCE_CONTEXT,
        }

    def parts(self) -> tuple[dict, list[str], list[str]]:
        """The report.json payload, report.csv lines and report.svg lines that ``write_report`` takes."""
        rows = [f"{name},{v['baseline']:.6f},{v['reranked']:.6f},{v['delta']:+.6f}"
                for name, v in metric_rows(vars(self))]
        svg = _bars_svg([(side, color, {k: v[side] for k, v in self.recall.items()})
                         for side, color in (("baseline", "#888888"), ("reranked", "#2b7bba"))])
        return self.to_dict(), ["metric,baseline,reranked,delta", *rows], svg


def compare_rankings(
    baseline: list[Ranking],
    reranked: list[Ranking],
    ground_truth: dict,
    config: EvalConfig,
    coords: Mapping[str, GeoCoord] | None = None,
) -> EvalReport:
    """Baseline vs reranked report: one ranking per query on each side, and
    each reranked list a permutation of its baseline's. ``skipped_query_count``
    is the number of baseline rankings that hold no positive."""
    config.validate()
    for name, rankings in (("baseline", baseline), ("reranked", reranked)):
        refuse_repeats((r.query_id for r in rankings), f"{name} query")
    base_by_id, rr_by_id = {r.query_id: r for r in baseline}, {r.query_id: r for r in reranked}
    if base_by_id.keys() != rr_by_id.keys():
        raise ValueError("query-set mismatch between baseline and reranked rankings")
    for qid, r in rr_by_id.items():
        if sorted(r.ids()) != sorted(base_by_id[qid].ids()):
            raise ValueError(f"reranking changed the candidates of query '{qid}'; it must only permute them")
    base_walk = _walk(baseline, ground_truth, coords, config.ks[-1])
    base = _table(base_walk, config)
    rr = _table(_walk(reranked, ground_truth, coords, config.ks[-1]), config)

    def side(metric_base, metric_rr):
        return {"baseline": metric_base, "reranked": metric_rr, "delta": metric_rr - metric_base}

    return EvalReport(
        query_count=len(baseline),
        skipped_query_count=int(np.isinf(base_walk[0]).sum()),
        k_max=max(len(r.entries) for r in baseline),
        recall={k: side(base["recall"][k], rr["recall"][k]) for k in config.ks},
        mean_ap=side(base["mean_ap"], rr["mean_ap"]),
        threshold_recall={t: {k: side(v, rr["threshold_recall"][t][k]) for k, v in per_k.items()}
                          for t, per_k in base.get("threshold_recall", {}).items()},
    )


def _bars_svg(series: list[tuple[str, str, dict[int, float]]]) -> list[str]:
    """Lines of a minimal grouped recall bar chart (one bar per series per k), deterministic bytes."""
    width, height, pad = 420, 240, 36
    groups = sorted(series[0][2])
    bar_w = 28
    group_w = (width - 2 * pad) / max(len(groups), 1)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
    ]
    for gi, k in enumerate(groups):
        x0 = pad + gi * group_w + group_w / 2 - bar_w * len(series) / 2
        for si, (_, color, values) in enumerate(series):
            v = values[k]
            h = (height - 2 * pad) * v
            x = x0 + si * bar_w
            y = height - pad - h
            parts.append(f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w}" height="{h:.1f}" fill="{color}"/>')
            parts.append(
                f'<text x="{x + bar_w / 2:.1f}" y="{y - 4:.1f}" font-size="9" text-anchor="middle">{v:.3f}</text>'
            )
        parts.append(
            f'<text x="{pad + gi * group_w + group_w / 2:.1f}" y="{height - pad + 14}"'
            f' font-size="11" text-anchor="middle">R@{k}</text>'
        )
    legend = ", ".join(f"{name} ({color})" for name, color, _ in series)
    parts.append(f'<text x="{pad}" y="{pad - 16}" font-size="11">recall: {legend}</text>')
    parts.append("</svg>")
    return parts


def metric_rows(table: Mapping):
    """The name and value of each metric of a table, in report.csv order:
    ``recall@{k}``, ``mean_ap``, then ``recall@{k}@{t}km`` for each threshold.
    ``table`` is an ``evaluate_rankings`` table, whose values are floats, or
    an ``EvalReport``'s fields, whose values are baseline/reranked/delta dicts."""
    for k, v in table["recall"].items():
        yield f"recall@{k}", v
    yield "mean_ap", table["mean_ap"]
    for t, per_k in table.get("threshold_recall", {}).items():
        for k, v in per_k.items():
            yield f"recall@{k}@{t:g}km", v


def single_run_parts(metrics: dict) -> tuple[dict, list[str], list[str]]:
    """The report.json payload, report.csv lines and report.svg lines of an
    ``evaluate_rankings`` table, as ``write_report`` takes them."""
    rows = [f"{name},{v:.6f}" for name, v in metric_rows(metrics)]
    svg = _bars_svg([("recall", "#2b7bba", metrics["recall"])])
    return metrics | {"reference_context": REFERENCE_CONTEXT}, ["metric,value", *rows], svg


def write_report(out_dir: str | Path, payload: dict, csv_lines, svg=None) -> None:
    """``out_dir``/report.json (``payload``: indented, keys sorted), report.csv
    (``csv_lines``) and, when given, report.svg (``svg`` lines); ``out_dir`` is
    created. A NaN or infinite number in ``payload`` raises ValueError before
    any file is written, so the report already there stays as it was."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_lines([text], out / "report.json")
    write_lines(csv_lines, out / "report.csv")
    if svg is not None:
        write_lines(svg, out / "report.svg")
