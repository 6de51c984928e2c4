"""Retrieval metrics and before/after-reranking comparison reports.

Recall@k, average precision, haversine distance, positional-threshold recall,
and JSON/CSV/SVG report emission. Published full-scale figures are carried as
non-asserted reference context in the report footer.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import kernels
from .geostore import GeoCoord, write_lines
from .retriever import Ranking

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
        if any(t < 0 for t in self.thresholds_km):
            raise ValueError("thresholds must be >= 0")
        if self.earth_radius_km <= 0:
            raise ValueError("earth_radius_km must be positive")


def haversine(p: GeoCoord, q: GeoCoord, radius_km: float = 6371.0) -> float:
    """Great-circle distance between two coordinates in km."""
    return kernels.haversine_km(p.lat, p.lon, q.lat, q.lon, radius_km)


def _check_known(rankings: list[Ranking], ground_truth: dict) -> None:
    """The precondition of every metric: a non-empty set of known query ids."""
    if not rankings:
        raise ValueError("no rankings to evaluate")
    for r in rankings:
        if r.query_id not in ground_truth:
            raise ValueError(f"unknown query id '{r.query_id}' in rankings")


def _positive_ranks(rankings: list[Ranking], ground_truth: dict) -> np.ndarray:
    """The 1-based rank of each ranking's first positive; inf where it has none."""
    first = np.full(len(rankings), np.inf)
    for i, r in enumerate(rankings):
        truth = set(ground_truth[r.query_id])
        first[i] = next((j for j, (rid, _) in enumerate(r.entries, start=1) if rid in truth), np.inf)
    return first


def _near_ranks(rankings: list[Ranking], coords: Mapping[str, GeoCoord], ground_truth: dict,
                thresholds_km, depth: int, radius_km: float) -> dict[float, np.ndarray]:
    """For each threshold, the 1-based rank of each ranking's first entry among
    its top ``depth`` that lies within the threshold (inclusive) of a true
    location; inf where there is none. Every (entry, true location) pair is
    measured once, in one vectorised haversine call."""

    def coord(rid: str) -> GeoCoord:
        try:
            return coords[rid]
        except KeyError:
            raise ValueError(f"missing coordinate for id '{rid}'") from None

    owner, rank, near, truth = [], [], [], []
    for i, r in enumerate(rankings):
        truth_coords = [coord(g) for g in ground_truth[r.query_id]]
        m = len(truth_coords)
        for j, (rid, _) in enumerate(r.entries[:depth], start=1):
            c = coord(rid)
            owner.extend([i] * m)
            rank.extend([j] * m)
            near.extend([c] * m)
            truth.extend(truth_coords)
    dist = kernels.haversine_km(
        np.array([c.lat for c in near]), np.array([c.lon for c in near]),
        np.array([t.lat for t in truth]), np.array([t.lon for t in truth]), radius_km,
    )
    owner, rank = np.array(owner, np.int64), np.array(rank, np.float64)
    out = {}
    for t in thresholds_km:
        out[t] = np.full(len(rankings), np.inf)
        hit = dist <= t
        np.minimum.at(out[t], owner[hit], rank[hit])
    return out


def _share(ranks: np.ndarray, k: int) -> float:
    """Fraction of rankings whose rank is at most k."""
    return int(np.count_nonzero(ranks <= k)) / len(ranks)


def recall_at_k(rankings: list[Ranking], ground_truth: dict[str, tuple | set], k: int) -> float:
    """Fraction of queries with any positive among the first k entries."""
    _check_known(rankings, ground_truth)
    return _share(_positive_ranks(rankings, ground_truth), k)


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


def _mean_ap(rankings: list[Ranking], ground_truth: dict) -> float:
    return sum(average_precision(r, set(ground_truth[r.query_id])) for r in rankings) / len(rankings)


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
    _check_known(rankings, ground_truth)
    return _share(_near_ranks(rankings, coords, ground_truth, (threshold_km,), k, radius_km)[threshold_km], k)


def _table(rankings: list[Ranking], first: np.ndarray, ground_truth: dict, config: EvalConfig,
           coords: Mapping[str, GeoCoord] | None) -> dict:
    """The metric table of one checked ranking set, given the rank of each
    ranking's first positive."""
    out = {
        "query_count": len(rankings),
        "recall": {k: _share(first, k) for k in config.ks},
        "mean_ap": _mean_ap(rankings, ground_truth),
    }
    if coords is not None:
        near = _near_ranks(rankings, coords, ground_truth, config.thresholds_km, config.ks[-1], config.earth_radius_km)
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
    _check_known(rankings, ground_truth)
    return _table(rankings, _positive_ranks(rankings, ground_truth), ground_truth, config, coords)


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

    def write_json(self, path: str | Path) -> None:
        write_lines([json.dumps(self.to_dict(), indent=2, sort_keys=True, allow_nan=False)], path)

    def write_csv(self, path: str | Path) -> None:
        lines = ["metric,baseline,reranked,delta"]
        for k, v in self.recall.items():
            lines.append(f"recall@{k},{v['baseline']:.6f},{v['reranked']:.6f},{v['delta']:+.6f}")
        v = self.mean_ap
        lines.append(f"mean_ap,{v['baseline']:.6f},{v['reranked']:.6f},{v['delta']:+.6f}")
        for t, per_k in self.threshold_recall.items():
            for k, v in per_k.items():
                lines.append(f"recall@{k}@{t:g}km,{v['baseline']:.6f},{v['reranked']:.6f},{v['delta']:+.6f}")
        write_lines(lines, path)

    def write_svg(self, path: str | Path) -> None:
        write_lines(_recall_bars_svg(self.recall), path)


def compare_rankings(
    baseline: list[Ranking],
    reranked: list[Ranking],
    ground_truth: dict,
    config: EvalConfig,
    coords: Mapping[str, GeoCoord] | None = None,
) -> EvalReport:
    """Baseline vs reranked report; reranking must not have changed any top-k set.
    ``skipped_query_count`` is the number of baseline rankings that hold no positive."""
    config.validate()
    base_ids = sorted(r.query_id for r in baseline)
    rr_ids = sorted(r.query_id for r in reranked)
    if base_ids != rr_ids:
        raise ValueError("query-set mismatch between baseline and reranked rankings")
    _check_known(baseline, ground_truth)  # reranked holds the same query ids
    base_first, rr_first = _positive_ranks(baseline, ground_truth), _positive_ranks(reranked, ground_truth)
    k_max = max(len(r.entries) for r in baseline)
    r_base, r_rr = _share(base_first, k_max), _share(rr_first, k_max)
    if r_base != r_rr:
        raise ValueError(
            f"reranking changed recall@{k_max} ({r_base} -> {r_rr}); it must only permute the candidate set"
        )
    base = _table(baseline, base_first, ground_truth, config, coords)
    rr = _table(reranked, rr_first, ground_truth, config, coords)

    def side(metric_base, metric_rr):
        return {"baseline": metric_base, "reranked": metric_rr, "delta": metric_rr - metric_base}

    return EvalReport(
        query_count=len(baseline),
        skipped_query_count=int(np.isinf(base_first).sum()),
        k_max=k_max,
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


def _recall_bars_svg(recall: dict[int, dict[str, float]]) -> list[str]:
    return _bars_svg(
        [
            ("baseline", "#888888", {k: v["baseline"] for k, v in recall.items()}),
            ("reranked", "#2b7bba", {k: v["reranked"] for k, v in recall.items()}),
        ]
    )


def single_run_files(metrics: dict, out_dir: str | Path) -> None:
    """Emit report.json/report.csv/report.svg for a single ranking set (CLI `eval`)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = dict(metrics)
    payload["reference_context"] = REFERENCE_CONTEXT
    write_lines([json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)], out / "report.json")
    lines = ["metric,value"]
    for k, v in metrics["recall"].items():
        lines.append(f"recall@{k},{v:.6f}")
    lines.append(f"mean_ap,{metrics['mean_ap']:.6f}")
    for t, per_k in metrics.get("threshold_recall", {}).items():
        for k, v in per_k.items():
            lines.append(f"recall@{k}@{t:g}km,{v:.6f}")
    write_lines(lines, out / "report.csv")
    write_lines(_bars_svg([("recall", "#2b7bba", dict(metrics["recall"]))]), out / "report.svg")
