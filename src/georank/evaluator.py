"""Retrieval metrics and before/after-reranking comparison reports.

Recall@k, average precision, haversine distance, positional-threshold recall,
and JSON/CSV/SVG report emission. Published full-scale figures are carried as
non-asserted reference context in the report footer.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
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

    def validate(self) -> None:
        if not self.ks or self.ks[0] <= 0 or any(a >= b for a, b in zip(self.ks, self.ks[1:])):
            raise ValueError(f"ks must be strictly ascending positive integers, got {self.ks}")
        if not all(math.isfinite(t) and t >= 0 for t in self.thresholds_km):
            raise ValueError(f"thresholds must be finite and >= 0, got {self.thresholds_km}")
        named = {}
        for t in self.thresholds_km:  # a report names each threshold f"{t:g}"
            if f"{t:g}" in named:
                raise ValueError(f"thresholds {named[f'{t:g}']} and {t} share the report name '{t:g}'")
            named[f"{t:g}"] = t


def haversine(p: GeoCoord, q: GeoCoord) -> float:
    """Great-circle distance between two coordinates in km."""
    return kernels.haversine_km(p.lat, p.lon, q.lat, q.lon)


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


def _near_ranks(pairs: tuple, count: int, thresholds_km) -> list[np.ndarray]:
    """For each threshold, the rank of each of ``count`` rankings' first
    entry among ``pairs`` (as ``_walk`` returns them) that lies within the
    threshold (inclusive) of a true location; inf where there is none. Every
    pair is measured once, in one vectorised haversine call."""
    owner, rank, near, truth, latlon = pairs
    lat, lon = latlon[:, 0], latlon[:, 1]
    dist = kernels.haversine_km(lat[near], lon[near], lat[truth], lon[truth])
    out = []
    for t in thresholds_km:
        out.append(np.full(count, np.inf))
        hit = dist <= t
        np.minimum.at(out[-1], owner[hit], rank[hit])
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
) -> float:
    """Fraction of queries where a top-k reference lies within threshold_km
    (inclusive) of a true location."""
    pairs = _walk(rankings, ground_truth, coords, k)[2]
    return _share(_near_ranks(pairs, len(rankings), (threshold_km,))[0], k)


class Report(dict):
    """The metric table of an ``eval`` or ``compare`` report, keyed as its
    report.json keys it: ``query_count``, ``recall[str(k)]``, ``mean_ap`` and
    ``threshold_recall[f"{t:g}"][str(k)]`` (empty without coordinates), each
    level in the order of ``EvalConfig``'s ks and thresholds.
    ``evaluate_rankings`` gives one ranking set's table, whose metrics are
    floats; ``compare_rankings`` gives the leaf-by-leaf baseline/reranked/delta
    of two such tables, with the counts ``skipped_query_count`` and ``k_max``."""

    def to_dict(self) -> dict:
        """The report.json payload: the table and the reference context."""
        return self | {"reference_context": REFERENCE_CONTEXT}

    def parts(self) -> tuple[dict, list[str], list[str]]:
        """The report.json payload, report.csv lines and report.svg lines that ``write_report`` takes."""
        if isinstance(self["mean_ap"], dict):
            head = "metric,baseline,reranked,delta"
            rows = [f"{name},{v['baseline']:.6f},{v['reranked']:.6f},{v['delta']:+.6f}"
                    for name, v in metric_rows(self)]
            series = [(side, color, {k: v[side] for k, v in self["recall"].items()})
                      for side, color in (("baseline", "#888888"), ("reranked", "#2b7bba"))]
        else:
            head, rows = "metric,value", [f"{name},{v:.6f}" for name, v in metric_rows(self)]
            series = [("recall", "#2b7bba", self["recall"])]
        return self.to_dict(), [head, *rows], _bars_svg(series)


def _metrics(walk: tuple, config: EvalConfig) -> dict:
    """The metrics of one ranking set, from its ``_walk`` to depth ``config.ks[-1]``."""
    first, ap, pairs = walk
    near = [] if pairs is None else _near_ranks(pairs, len(first), config.thresholds_km)
    return {
        "recall": {str(k): _share(first, k) for k in config.ks},
        "mean_ap": sum(ap) / len(ap),
        "threshold_recall": {f"{t:g}": {str(k): _share(ranks, k) for k in config.ks}
                             for t, ranks in zip(config.thresholds_km, near)},
    }


def _sides(base, rr):
    """The leaf-by-leaf baseline/reranked/delta of two metric tables, or of two metrics."""
    if isinstance(base, dict):
        return {key: _sides(v, rr[key]) for key, v in base.items()}
    return {"baseline": base, "reranked": rr, "delta": rr - base}


def evaluate_rankings(
    rankings: list[Ranking],
    ground_truth: dict,
    config: EvalConfig,
    coords: Mapping[str, GeoCoord] | None = None,
) -> Report:
    """The metric table of one ranking set."""
    config.validate()
    return Report(_metrics(_walk(rankings, ground_truth, coords, config.ks[-1]), config), query_count=len(rankings))


def compare_rankings(
    baseline: list[Ranking],
    reranked: list[Ranking],
    ground_truth: dict,
    config: EvalConfig,
    coords: Mapping[str, GeoCoord] | None = None,
) -> Report:
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
    rr = _metrics(_walk(reranked, ground_truth, coords, config.ks[-1]), config)
    return Report(
        _sides(_metrics(base_walk, config), rr),
        query_count=len(baseline),
        skipped_query_count=int(np.isinf(base_walk[0]).sum()),
        k_max=max(len(r.entries) for r in baseline),
    )


def _bars_svg(series: list[tuple[str, str, dict[str, float]]]) -> list[str]:
    """Lines of a minimal grouped recall bar chart (one bar per series per k,
    in the order of the first series' keys), deterministic bytes."""
    width, height, pad, bar_w = 420, 240, 36, 28
    groups = list(series[0][2])
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
    """The name and value of each metric of a report table (a ``Report`` or its
    report.json, parsed) in the table's order: ``recall@{k}``, ``mean_ap``, then
    ``recall@{k}@{t}km`` for each threshold; a ``compare`` value is a baseline/reranked/delta dict."""
    for k, v in table["recall"].items():
        yield f"recall@{k}", v
    yield "mean_ap", table["mean_ap"]
    for t, per_k in table["threshold_recall"].items():
        for k, v in per_k.items():
            yield f"recall@{k}@{t}km", v


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
