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
    for r in rankings:
        if r.query_id not in ground_truth:
            raise ValueError(f"unknown query id '{r.query_id}' in rankings")


def recall_at_k(rankings: list[Ranking], ground_truth: dict[str, tuple | set], k: int) -> float:
    """Fraction of queries with any positive among the first k entries."""
    if not rankings:
        raise ValueError("no rankings to evaluate")
    _check_known(rankings, ground_truth)
    hits = 0
    for r in rankings:
        truth = set(ground_truth[r.query_id])
        hits += any(rid in truth for rid, _ in r.entries[:k])
    return hits / len(rankings)


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


def mean_average_precision(rankings: list[Ranking], ground_truth: dict) -> float:
    if not rankings:
        raise ValueError("no rankings to evaluate")
    _check_known(rankings, ground_truth)
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
    (inclusive) of a true location.

    Every (top-k reference, true location) pair of every query is measured in
    one vectorised haversine call.
    """
    if not rankings:
        raise ValueError("no rankings to evaluate")
    _check_known(rankings, ground_truth)

    def coord(rid: str) -> GeoCoord:
        try:
            return coords[rid]
        except KeyError:
            raise ValueError(f"missing coordinate for id '{rid}'") from None

    owner, near, truth = [], [], []
    for i, r in enumerate(rankings):
        truth_coords = [coord(g) for g in ground_truth[r.query_id]]
        for rid, _ in r.entries[:k]:
            c = coord(rid)
            owner.extend([i] * len(truth_coords))
            near.extend([c] * len(truth_coords))
            truth.extend(truth_coords)
    dist = kernels.haversine_km(
        np.array([c.lat for c in near]), np.array([c.lon for c in near]),
        np.array([t.lat for t in truth]), np.array([t.lon for t in truth]), radius_km,
    )
    hits = np.unique(np.asarray(owner)[dist <= threshold_km]).size
    return hits / len(rankings)


def evaluate_rankings(
    rankings: list[Ranking],
    ground_truth: dict,
    config: EvalConfig,
    coords: Mapping[str, GeoCoord] | None = None,
) -> dict:
    """Single-sided metric table for one ranking set."""
    config.validate()
    out = {
        "query_count": len(rankings),
        "recall": {k: recall_at_k(rankings, ground_truth, k) for k in config.ks},
        "mean_ap": mean_average_precision(rankings, ground_truth),
    }
    if coords is not None:
        out["threshold_recall"] = {
            t: {k: threshold_recall(rankings, coords, ground_truth, t, k, config.earth_radius_km) for k in config.ks}
            for t in config.thresholds_km
        }
    return out


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
        write_lines([json.dumps(self.to_dict(), indent=2, sort_keys=True)], path)

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
    skipped_query_count: int = 0,
) -> EvalReport:
    """Baseline vs reranked report; reranking must not have changed any top-k set."""
    config.validate()
    base_ids = sorted(r.query_id for r in baseline)
    rr_ids = sorted(r.query_id for r in reranked)
    if base_ids != rr_ids:
        raise ValueError("query-set mismatch between baseline and reranked rankings")
    k_max = max(len(r.entries) for r in baseline)
    r_base = recall_at_k(baseline, ground_truth, k_max)
    r_rr = recall_at_k(reranked, ground_truth, k_max)
    if r_base != r_rr:
        raise ValueError(
            f"reranking changed recall@{k_max} ({r_base} -> {r_rr}); it must only permute the candidate set"
        )

    def side(metric_base, metric_rr):
        return {"baseline": metric_base, "reranked": metric_rr, "delta": metric_rr - metric_base}

    recall = {
        k: side(recall_at_k(baseline, ground_truth, k), recall_at_k(reranked, ground_truth, k)) for k in config.ks
    }
    mean_ap = side(mean_average_precision(baseline, ground_truth), mean_average_precision(reranked, ground_truth))
    thr: dict[float, dict[int, dict[str, float]]] = {}
    if coords is not None:
        for t in config.thresholds_km:
            thr[t] = {
                k: side(
                    threshold_recall(baseline, coords, ground_truth, t, k, config.earth_radius_km),
                    threshold_recall(reranked, coords, ground_truth, t, k, config.earth_radius_km),
                )
                for k in config.ks
            }
    return EvalReport(
        query_count=len(baseline),
        skipped_query_count=skipped_query_count,
        k_max=k_max,
        recall=recall,
        mean_ap=mean_ap,
        threshold_recall=thr,
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
    write_lines([json.dumps(payload, indent=2, sort_keys=True)], out / "report.json")
    lines = ["metric,value"]
    for k, v in metrics["recall"].items():
        lines.append(f"recall@{k},{v:.6f}")
    lines.append(f"mean_ap,{metrics['mean_ap']:.6f}")
    for t, per_k in metrics.get("threshold_recall", {}).items():
        for k, v in per_k.items():
            lines.append(f"recall@{k}@{t:g}km,{v:.6f}")
    write_lines(lines, out / "report.csv")
    write_lines(_bars_svg([("recall", "#2b7bba", dict(metrics["recall"]))]), out / "report.svg")
