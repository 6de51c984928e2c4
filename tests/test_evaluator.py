import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from georank import evaluator
from georank.evaluator import (
    EvalConfig,
    Report,
    average_precision,
    compare_rankings,
    evaluate_rankings,
    haversine,
    recall_at_k,
    threshold_recall,
    write_report,
)
from georank.geostore import GeoCoord
from georank.retriever import Ranking


def ranking_with_truth_at(qid, rank, n=10, truth="pos"):
    ids = [f"{qid}_n{i}" for i in range(n)]
    ids[rank - 1] = truth
    return Ranking(qid, [(rid, 1.0 - 0.01 * i) for i, rid in enumerate(ids)], k=n)


# ---------------------------------------------------------------------------
# recall
# ---------------------------------------------------------------------------

def test_recall_perfect():
    rankings = [ranking_with_truth_at(f"q{i}", 1, truth=f"p{i}") for i in range(4)]
    truth = {f"q{i}": {f"p{i}"} for i in range(4)}
    assert recall_at_k(rankings, truth, 1) == 1.0


def test_recall_hand_counts():
    rankings = [
        ranking_with_truth_at("q1", 1, n=15, truth="p1"),
        ranking_with_truth_at("q2", 4, n=15, truth="p2"),
        ranking_with_truth_at("q3", 12, n=15, truth="p3"),
    ]
    truth = {"q1": {"p1"}, "q2": {"p2"}, "q3": {"p3"}}
    assert recall_at_k(rankings, truth, 1) == pytest.approx(1 / 3)
    assert recall_at_k(rankings, truth, 5) == pytest.approx(2 / 3)
    assert recall_at_k(rankings, truth, 10) == pytest.approx(2 / 3)


def test_recall_monotone_in_k():
    rng = np.random.default_rng(0)
    for _ in range(30):
        rank = int(rng.integers(1, 12))
        rankings = [ranking_with_truth_at("q", rank, n=12)]
        truth = {"q": {"pos"}}
        values = [recall_at_k(rankings, truth, k) for k in range(1, 13)]
        assert values == sorted(values)


def test_recall_unknown_query_id():
    with pytest.raises(ValueError, match="mystery"):
        recall_at_k([ranking_with_truth_at("mystery", 1)], {"known": {"x"}}, 1)


# ---------------------------------------------------------------------------
# average precision
# ---------------------------------------------------------------------------

def test_ap_single_positive_closed_form():
    for r in range(1, 11):
        ranking = ranking_with_truth_at("q", r, n=12)
        assert average_precision(ranking, {"pos"}) == pytest.approx(1.0 / r, abs=0)


def test_ap_two_positives_hand_case():
    ids = ["a", "x", "b", "y"]
    ranking = Ranking("q", [(i, 1.0 - 0.1 * n) for n, i in enumerate(ids)], k=4)
    assert average_precision(ranking, {"a", "b"}) == pytest.approx(5 / 6, abs=1e-12)


def test_ap_empty_positives():
    with pytest.raises(ValueError, match="empty"):
        average_precision(ranking_with_truth_at("q", 1), set())


def test_ap_unretrieved_positive_counts_zero():
    ranking = ranking_with_truth_at("q", 1, n=5)
    assert average_precision(ranking, {"pos", "absent"}) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# haversine
# ---------------------------------------------------------------------------

def test_haversine_identity():
    p = GeoCoord(12.34, -56.78)
    assert haversine(p, p) == 0.0


def test_haversine_quarter_arc():
    d = haversine(GeoCoord(0, 0), GeoCoord(90, 0))
    assert d == pytest.approx(math.pi / 2 * 6371.0, rel=1e-6)


def test_haversine_antipodal():
    d = haversine(GeoCoord(0, 0), GeoCoord(0, 180))
    assert d == pytest.approx(math.pi * 6371.0, rel=1e-6)


def test_haversine_symmetry_and_identity_random():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        p = GeoCoord(float(rng.uniform(-90, 90)), float(rng.uniform(-180, 180)))
        q = GeoCoord(float(rng.uniform(-90, 90)), float(rng.uniform(-180, 180)))
        assert haversine(p, q) == pytest.approx(haversine(q, p), rel=1e-12)
        assert haversine(p, p) == 0.0
        assert haversine(p, q) >= 0.0


def test_haversine_triangle_inequality():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        pts = [GeoCoord(float(rng.uniform(-90, 90)), float(rng.uniform(-180, 180))) for _ in range(3)]
        ab = haversine(pts[0], pts[1])
        bc = haversine(pts[1], pts[2])
        ac = haversine(pts[0], pts[2])
        assert ac <= ab + bc + 1e-9


def test_haversine_custom_radius(monkeypatch):
    # both distance paths read the module constant: on a unit sphere a quarter arc is pi/2 km
    assert evaluator.EARTH_RADIUS_KM == 6371.0
    monkeypatch.setattr(evaluator, "EARTH_RADIUS_KM", 1.0)
    assert haversine(GeoCoord(0, 0), GeoCoord(90, 0)) == pytest.approx(math.pi / 2, rel=1e-9)
    rankings, coords = [Ranking("q", [("near", 0.9)], k=1)], {"near": GeoCoord(0, 0), "truth": GeoCoord(90, 0)}
    assert threshold_recall(rankings, coords, {"q": {"truth"}}, 1.571, 1) == 1.0
    assert threshold_recall(rankings, coords, {"q": {"truth"}}, 1.570, 1) == 0.0


# ---------------------------------------------------------------------------
# threshold recall
# ---------------------------------------------------------------------------

def _spaced_fixture():
    # references on a grid, >1 km apart; queries retrieve fixed lists
    coords = {f"r{i}": GeoCoord(0.02 * i, 0.0) for i in range(20)}
    truth = {"q1": {"r3"}, "q2": {"r7"}}
    rankings = [
        Ranking("q1", [(f"r{i}", 1.0 - 0.01 * i) for i in (3, 1, 2)], k=3),
        Ranking("q2", [(f"r{i}", 1.0 - 0.01 * i) for i in (1, 2, 4)], k=3),
    ]
    return rankings, coords, truth


def test_threshold_recall_within_threshold_counts():
    coords = {"near": GeoCoord(0.0, 0.0), "truth": GeoCoord(0.0027, 0.0)}  # ~0.3 km apart
    rankings = [Ranking("q", [("near", 0.9)], k=1)]
    ground_truth = {"q": {"truth"}}
    assert threshold_recall(rankings, coords, ground_truth, 0.5, 1) == 1.0
    assert threshold_recall(rankings, coords, ground_truth, 0.2, 1) == 0.0


def test_threshold_zero_equals_exact_recall():
    rankings, coords, truth = _spaced_fixture()
    for k in (1, 2, 3):
        assert threshold_recall(rankings, coords, truth, 0.0, k) == recall_at_k(rankings, truth, k)


def test_threshold_recall_monotone():
    rankings, coords, truth = _spaced_fixture()
    for k in (1, 2, 3):
        assert threshold_recall(rankings, coords, truth, 0.5, k) >= threshold_recall(rankings, coords, truth, 0.0, k)
    for thr in (0.0, 0.5, 10.0):
        assert threshold_recall(rankings, coords, truth, thr, 3) >= threshold_recall(rankings, coords, truth, thr, 1)


def test_threshold_recall_matches_per_pair_loop():
    # the vectorised sweep against the per-pair scalar loop it replaced
    rng = np.random.default_rng(31)
    coords = {f"r{i}": GeoCoord(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))) for i in range(40)}
    coords["r40"] = coords["r0"]  # a distinct id at the same place
    ids = sorted(coords)
    truth = {f"q{j}": set(rng.choice(ids, size=int(rng.integers(1, 4)), replace=False)) for j in range(25)}
    rankings = [Ranking(q, [(rid, 1.0 - 0.01 * i) for i, rid in enumerate(rng.choice(ids, 8, replace=False))], k=8)
                for q in truth]
    rankings.append(Ranking("q_empty", [], k=0))
    truth["q_empty"] = {"r1"}

    def loop(threshold, k):
        hits = 0
        for r in rankings:
            hits += any(haversine(coords[rid], coords[g]) <= threshold
                        for rid, _ in r.entries[:k] for g in truth[r.query_id])
        return hits / len(rankings)

    thresholds = (0.0, 5.0, 30.0, 80.0, haversine(coords["r3"], coords["r7"]))
    for threshold in thresholds:
        for k in (1, 3, 8):
            assert threshold_recall(rankings, coords, truth, threshold, k) == loop(threshold, k)
    # the table measures each ranking once for every k and threshold
    table = evaluate_rankings(rankings, truth, EvalConfig(ks=(1, 3, 8), thresholds_km=thresholds), coords)
    assert table["threshold_recall"] == {f"{t:g}": {str(k): loop(t, k) for k in (1, 3, 8)} for t in thresholds}
    exact = {str(k): sum(any(rid in truth[r.query_id] for rid, _ in r.entries[:k]) for r in rankings) / len(rankings)
             for k in (1, 3, 8)}
    assert table["recall"] == exact


def test_threshold_recall_missing_coordinate():
    rankings, coords, truth = _spaced_fixture()
    del coords["r4"]
    with pytest.raises(ValueError, match="r4"):
        threshold_recall(rankings, coords, truth, 0.5, 3)


# ---------------------------------------------------------------------------
# comparison reports
# ---------------------------------------------------------------------------

def _permutation_pair(n_queries=5):
    baseline, reranked = [], []
    truth = {}
    for i in range(5):
        qid = f"q{i}"
        base = ranking_with_truth_at(qid, 3, truth=f"p{i}")
        ids = base.ids()
        promoted = [ids[2]] + ids[:2] + ids[3:]  # truth moves rank 3 -> 1
        scores = sorted((s for _, s in base.entries), reverse=True)
        reranked.append(Ranking(qid, list(zip(promoted, scores)), k=base.k, reranked=True))
        baseline.append(base)
        truth[qid] = {f"p{i}"}
    return baseline, reranked, truth


def test_compare_identity_has_zero_deltas():
    baseline, _, truth = _permutation_pair()
    report = compare_rankings(baseline, baseline, truth, EvalConfig())
    for k, v in report["recall"].items():
        assert v["delta"] == 0.0
    assert report["mean_ap"]["delta"] == 0.0


def test_compare_promotion_lifts_r1_only():
    baseline, reranked, truth = _permutation_pair()
    report = compare_rankings(baseline, reranked, truth, EvalConfig())
    assert report["recall"]["1"]["baseline"] == 0.0
    assert report["recall"]["1"]["reranked"] == 1.0
    assert report["recall"]["1"]["delta"] == 1.0
    assert report["recall"]["10"]["delta"] == 0.0
    assert report["mean_ap"]["delta"] > 0


def test_compare_rejects_query_set_mismatch():
    baseline, reranked, truth = _permutation_pair()
    with pytest.raises(ValueError, match="query-set"):
        compare_rankings(baseline[:-1], reranked, truth, EvalConfig())


def test_compare_rejects_changed_candidate_set():
    # replacing the positive with an intruder changes recall@k_max: must be rejected
    base = ranking_with_truth_at("q", 1)
    tampered = Ranking("q", [("intruder", 1.0)] + base.entries[1:], k=10)
    with pytest.raises(ValueError, match="permute"):
        compare_rankings([base], [tampered], {"q": {"pos"}}, EvalConfig())


def test_compare_rejects_intruder_in_place_of_a_negative():
    # the positive stays, so recall@k_max does not move, but the candidate set changed
    base = ranking_with_truth_at("q", 1)
    tampered = Ranking("q", base.entries[:-1] + [("intruder", 0.0)], k=10)
    with pytest.raises(ValueError, match="query 'q'.*permute"):
        compare_rankings([base], [tampered], {"q": {"pos"}}, EvalConfig())


@pytest.mark.parametrize("side", ["baseline", "reranked"])
def test_compare_rejects_repeated_query_id(side):
    baseline, reranked, truth = _permutation_pair()
    qid = baseline[0].query_id
    twice = {"baseline": (baseline + baseline[:1], reranked), "reranked": (baseline, reranked + reranked[:1])}[side]
    with pytest.raises(ValueError, match=f"{side} query '{qid}' is listed twice"):
        compare_rankings(*twice, truth, EvalConfig())


def test_compare_report_files(tmp_path):
    baseline, reranked, truth = _permutation_pair()
    coords = {}
    for r in baseline:
        for i, (rid, _) in enumerate(r.entries):
            coords[rid] = GeoCoord(0.02 * i, 0.1)
    truth["q0"] = {"elsewhere"}
    coords["elsewhere"] = GeoCoord(10.0, 10.0)
    report = compare_rankings(baseline, reranked, truth, EvalConfig(), coords=coords)
    write_report(tmp_path, *report.parts())
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["skipped_query_count"] == 1
    assert payload["recall"]["1"]["delta"] == 0.8
    assert "reference_context" in payload
    assert payload["reference_context"]["description_stability"]["cosine"] == 0.83
    csv = (tmp_path / "report.csv").read_text()
    assert csv.startswith("metric,baseline,reranked,delta")
    assert "recall@1@0.5km" in csv
    svg = (tmp_path / "report.svg").read_text()
    assert svg.startswith("<svg") and "baseline" in svg
    assert re.findall(r">R@(\d+)<", svg) == ["1", "5", "10"]  # bars in ks order, not in key-string order
    before = (tmp_path / "report.json").read_bytes()
    report["mean_ap"]["delta"] = float("nan")
    with pytest.raises(ValueError):
        write_report(tmp_path, *report.parts())
    assert (tmp_path / "report.json").read_bytes() == before


def test_single_run_files(tmp_path):
    baseline, _, truth = _permutation_pair()
    metrics = evaluate_rankings(baseline, truth, EvalConfig())
    write_report(tmp_path, *metrics.parts())
    for name in ("report.json", "report.csv", "report.svg"):
        assert (tmp_path / name).exists()
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["recall"]["10"] == 1.0
    assert (tmp_path / "report.csv").read_text().splitlines()[:3] == ["metric,value", "recall@1,0.000000",
                                                                      "recall@5,1.000000"]
    svg = (tmp_path / "report.svg").read_text()
    assert svg.startswith("<svg") and re.findall(r">R@(\d+)<", svg) == ["1", "5", "10"]
    before = {name: (tmp_path / name).read_bytes() for name in ("report.json", "report.csv", "report.svg")}
    with pytest.raises(ValueError):
        write_report(tmp_path, *Report(metrics, mean_ap=float("nan")).parts())
    assert {name: (tmp_path / name).read_bytes() for name in before} == before


def test_eval_config_validation():
    for ks in ((5, 1), (), (1, 1, 5), (0, 1)):
        with pytest.raises(ValueError, match="ks must be strictly ascending"):
            EvalConfig(ks=ks).validate()
    with pytest.raises(ValueError):
        EvalConfig(thresholds_km=(-1.0,)).validate()
    for thresholds in ((math.nan, 0.5), (0.0, math.inf)):
        with pytest.raises(ValueError, match="thresholds"):
            EvalConfig(thresholds_km=thresholds).validate()
    # a report names a threshold f"{t:g}", so two with one name would share a report.json key
    for thresholds, named in (((0.5, 0.5000001), "0.5 and 0.5000001"), ((0.0, 0.5, 0.5), "0.5 and 0.5")):
        with pytest.raises(ValueError, match=f"thresholds {named} share the report name '0.5'"):
            EvalConfig(thresholds_km=thresholds).validate()
    EvalConfig().validate()


def test_mean_ap_over_rankings():
    rankings = [ranking_with_truth_at("q1", 1, truth="p1"), ranking_with_truth_at("q2", 4, truth="p2")]
    truth = {"q1": {"p1"}, "q2": {"p2"}}
    assert evaluate_rankings(rankings, truth, EvalConfig())["mean_ap"] == pytest.approx((1.0 + 0.25) / 2)


POOL = [f"r{i}" for i in range(12)]


@st.composite
def ranking_sets(draw):
    """Rankings of 1-6 queries over a small id pool, several true locations per
    query, coordinates within a few km of each other, and reranked lists that
    permute the baseline's."""
    coords = {rid: GeoCoord(draw(st.floats(0.0, 0.05)), draw(st.floats(0.0, 0.05))) for rid in POOL}
    baseline, reranked, truth = [], [], {}
    for q in range(draw(st.integers(1, 6))):
        ids = draw(st.lists(st.sampled_from(POOL), max_size=8, unique=True))
        truth[f"q{q}"] = tuple(draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=3, unique=True)))
        for out, order in ((baseline, ids), (reranked, draw(st.permutations(ids)))):
            out.append(Ranking(f"q{q}", [(rid, 1.0 - 0.01 * i) for i, rid in enumerate(order)], k=len(ids)))
    ks = tuple(sorted(draw(st.sets(st.integers(1, 8), min_size=1))))
    thresholds = tuple(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5, 6.0]), min_size=1, max_size=3, unique=True)))
    return baseline, reranked, truth, coords, EvalConfig(ks=ks, thresholds_km=thresholds)


@settings(max_examples=200, deadline=None)
@given(ranking_sets())
def test_one_walk_table_equals_the_reference_metrics(case):
    baseline, reranked, truth, coords, config = case

    def reference(rankings):
        """The table from the public per-metric functions, and from per-pair loops."""
        loop_recall = {str(k): sum(any(rid in truth[r.query_id] for rid in r.ids()[:k]) for r in rankings)
                       / len(rankings) for k in config.ks}
        loop_near = {f"{t:g}": {str(k): sum(any(haversine(coords[rid], coords[g]) <= t for rid in r.ids()[:k]
                                                for g in truth[r.query_id]) for r in rankings) / len(rankings)
                                for k in config.ks} for t in config.thresholds_km}
        aps = [average_precision(r, set(truth[r.query_id])) for r in rankings]
        table = {
            "query_count": len(rankings),
            "recall": {str(k): recall_at_k(rankings, truth, k) for k in config.ks},
            "mean_ap": sum(aps) / len(aps),
            "threshold_recall": {f"{t:g}": {str(k): threshold_recall(rankings, coords, truth, t, k)
                                            for k in config.ks} for t in config.thresholds_km},
        }
        assert table["recall"] == loop_recall and table["threshold_recall"] == loop_near
        return table

    base, rr = reference(baseline), reference(reranked)
    assert evaluate_rankings(baseline, truth, config, coords) == base
    assert evaluate_rankings(reranked, truth, config, coords) == rr
    report = compare_rankings(baseline, reranked, truth, config, coords)
    for side, table in (("baseline", base), ("reranked", rr)):
        assert {k: v[side] for k, v in report["recall"].items()} == table["recall"]
        assert report["mean_ap"][side] == table["mean_ap"]
        assert {t: {k: v[side] for k, v in per_k.items()} for t, per_k in report["threshold_recall"].items()} == \
            table["threshold_recall"]
    assert report["query_count"] == len(baseline)
    assert report["skipped_query_count"] == sum(not set(r.ids()) & set(truth[r.query_id]) for r in baseline)
