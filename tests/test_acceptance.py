"""Acceptance criteria, one test per criterion.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one line per
criterion. Each test pins the tolerances stated for it; the synthetic
end-to-end experiment (A3) uses the calibrated recipe recorded in the README.
"""

import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

from georank import cli, evaluator
from georank.cvlang import (
    MCQAnswerSheet,
    jaccard,
    load_question_bank,
    render_description,
    stability_report,
    validate_sheet,
)
from georank.geostore import (
    FormatError,
    SynthConfig,
    generate_synthetic,
    read_embedding_matrix,
    write_embedding_matrix,
)
from georank.reranker import RerankerConfig, load_checkpoint, rerank, save_checkpoint
from georank.retriever import Ranking, brute_force_rank, rank_store_queries, top_k
from georank.evaluator import average_precision, haversine, recall_at_k, threshold_recall
from georank.geostore import GeoCoord
from georank.trainer import GRADCHECK_EPSILON, TrainConfig, build_training_samples, margin_loss, run_gradcheck, train

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"


def _report(line: str):
    print(f"\n{line}")


# ---------------------------------------------------------------------------

def test_a1_retrieval_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    dim = 64
    refs = rng.standard_normal((10_000, dim)).astype(np.float32)
    # engineered ties: exact duplicates and power-of-two scalings
    for i in range(50):
        refs[5000 + i] = refs[i]
    for i in range(25):
        refs[6000 + i] = 2.0 * refs[100 + i]

    from conftest import build_store, make_ref

    store = build_store([make_ref(f"r{i:05d}", refs[i]) for i in range(refs.shape[0])], [], image_dim=dim)
    queries = rng.standard_normal((200, dim)).astype(np.float32)
    queries[:10] = refs[:10]  # self-matches hit the duplicate ties

    checked = 0
    for qi in range(queries.shape[0]):
        oracle = brute_force_rank(queries[qi], store)
        oracle_ids = oracle.ids()
        for k in (1, 5, 10):
            assert top_k(queries[qi], store, k).ids() == oracle_ids[:k]
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"A1 runtime {elapsed:.1f}s exceeds 30s"
    _report(f"A1 PASS — top_k == brute-force oracle on {checked} (query,k) pairs incl. ties, {elapsed:.1f}s")


def test_a2_gradient_correctness():
    started = time.perf_counter()
    worst = 0.0
    assert GRADCHECK_EPSILON == 1e-4
    for seed in range(1, 11):
        err = run_gradcheck(seed, TrainConfig(margin=1.0, loss_on="scores"))
        assert err <= 1e-4, f"seed {seed}: max relative error {err:.3e} > 1e-4"
        worst = max(worst, err)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"A2 runtime {elapsed:.1f}s exceeds 60s"
    _report(f"A2 PASS — analytic vs central differences over 10 seeds, worst {worst:.2e} <= 1e-4, {elapsed:.1f}s")


def test_a3_synthetic_disambiguation_experiment(tmp_path):
    started = time.perf_counter()
    synth = SynthConfig(
        n_locations=1000, group_size=4, image_dim=64, text_dim=64,
        image_noise=0.7, group_spread=0.15, text_margin=0.95,
    )
    store, _ = generate_synthetic(synth, seed=7)
    baseline = rank_store_queries(store, 10)
    base_r1 = recall_at_k(baseline, store.ground_truth, 1)
    assert 0.25 <= base_r1 <= 0.40, f"baseline R@1 {base_r1:.3f} outside [0.25, 0.40]"

    samples, skipped = build_training_samples(store, baseline)
    rr_config = RerankerConfig(image_dim=64, text_dim=64, latent_dim=64, aligner_hidden=64, init_seed=0)
    tr_config = TrainConfig(lr=3e-3, epochs=20, batch_size=8, shuffle_seed=0, loss_on="scores", val_split=0.2)
    params, report = train(samples, store, rr_config, tr_config, tmp_path)
    val_r1 = report.epochs[-1].val_r1
    assert len(report.epochs) <= 20
    assert val_r1 >= 0.90, f"held-out R@1 {val_r1:.3f} < 0.90 after {len(report.epochs)} epochs"

    reranked = [rerank(store.query(r.query_id), r, params, store) for r in baseline]
    r10_base = recall_at_k(baseline, store.ground_truth, 10)
    r10_rr = recall_at_k(reranked, store.ground_truth, 10)
    assert r10_base == r10_rr, "reranking changed R@10"
    for b, r in zip(baseline, reranked):
        assert set(b.ids()) == set(r.ids())
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"A3 runtime {elapsed:.1f}s exceeds 5 min"
    _report(
        f"A3 PASS — baseline R@1 {base_r1:.3f} -> held-out R@1 {val_r1:.3f} in {len(report.epochs)} epochs; "
        f"R@10 {r10_base:.4f} bit-identical; skipped {skipped}; {elapsed:.1f}s"
    )


def test_a4_loss_properties():
    rng = np.random.default_rng(104)
    # non-negativity
    for _ in range(200):
        loss = margin_loss(float(rng.uniform(-2, 2)), rng.uniform(-2, 2, 5).tolist(), float(rng.uniform(0, 2)))
        assert loss >= 0.0
    # zero iff the separation property holds
    for _ in range(200):
        m = float(rng.uniform(0.1, 1.0))
        negs = rng.uniform(0.0, 1.0, 5).tolist()
        assert margin_loss(max(negs) + m + 1e-9, negs, m) == 0.0
        assert margin_loss(max(negs) + m - 1e-3, negs, m) > 0.0
    # hand-computed case at double precision
    assert margin_loss(0.9, [0.5, 0.2], 1.0) == pytest.approx(0.45, abs=1e-12)
    # gradient gating: a separated negative can move freely below the margin boundary
    for _ in range(100):
        m = float(rng.uniform(0.05, 0.5))
        negs = rng.uniform(0.0, 0.4, 6).tolist()
        pos = max(negs) + m + float(rng.uniform(0.05, 0.5))
        i = int(rng.integers(0, 6))
        delta = float(rng.uniform(0.0, (pos - negs[i] - m) * 0.999))
        moved = list(negs)
        moved[i] += delta
        assert margin_loss(pos, moved, m) == margin_loss(pos, negs, m)
    _report("A4 PASS — margin loss non-negativity, separation zero-point, 0.45 hand case, gating on 100 configs")


def test_a5_haversine_accuracy():
    assert haversine(GeoCoord(0, 0), GeoCoord(90, 0)) == pytest.approx(np.pi / 2 * 6371.0, rel=1e-6)
    assert haversine(GeoCoord(0, 0), GeoCoord(0, 180)) == pytest.approx(np.pi * 6371.0, rel=1e-6)
    rng = np.random.default_rng(105)
    for _ in range(1000):
        p = GeoCoord(float(rng.uniform(-90, 90)), float(rng.uniform(-180, 180)))
        q = GeoCoord(float(rng.uniform(-90, 90)), float(rng.uniform(-180, 180)))
        assert haversine(p, q) == pytest.approx(haversine(q, p), rel=1e-12)
        assert haversine(p, p) == 0.0
    for _ in range(1000):
        a, b, c = (GeoCoord(float(rng.uniform(-90, 90)), float(rng.uniform(-180, 180))) for _ in range(3))
        assert haversine(a, c) <= haversine(a, b) + haversine(b, c) + 1e-9
    _report("A5 PASS — closed-form arcs at 1e-6, symmetry/identity on 1000 pairs, triangle on 1000 triples")


def test_a6_metric_monotonicity():
    rng = np.random.default_rng(106)
    for fixture in range(100):
        n = int(rng.integers(5, 20))
        ids = [f"c{i}" for i in range(n)]
        scores = sorted(rng.uniform(0, 1, n).tolist(), reverse=True)
        truth_id = ids[int(rng.integers(0, n))]
        rankings = [Ranking("q", list(zip(ids, scores)))]
        truth = {"q": {truth_id}}
        recalls = [recall_at_k(rankings, truth, k) for k in range(1, n + 1)]
        assert recalls == sorted(recalls)
        coords = {rid: GeoCoord(float(rng.uniform(-10, 10)), float(rng.uniform(-10, 10))) for rid in ids}
        k = int(rng.integers(1, n + 1))
        thresholds = sorted(rng.uniform(0, 2000, 4).tolist())
        tr = [threshold_recall(rankings, coords, truth, t, k) for t in thresholds]
        assert tr == sorted(tr)
    for r in range(1, 11):
        ids = [f"c{i}" for i in range(12)]
        ids[r - 1] = "pos"
        ranking = Ranking("q", [(rid, 1.0 - 0.05 * i) for i, rid in enumerate(ids)])
        assert average_precision(ranking, {"pos"}) == pytest.approx(1.0 / r, abs=0)
    _report("A6 PASS — recall/threshold monotonicity on 100 fixtures; AP == 1/r exactly for r in 1..10")


def test_a7_template_fidelity():
    bank = load_question_bank()
    names = ("first_options", "last_options", "alternating", "urban_example", "middle_options")
    for name in names:
        rec = json.loads((GOLDEN / f"sheet_{name}.json").read_text())
        sheet = MCQAnswerSheet(rec["image_id"], rec["answers"])
        expected = (GOLDEN / f"desc_{name}.txt").read_text()
        assert render_description(sheet, bank) == expected, f"golden mismatch for {name}"
    base = json.loads((GOLDEN / "sheet_first_options.json").read_text())["answers"]
    rejected = 0
    for q in bank.questions:
        corrupted = MCQAnswerSheet("x", dict(base))
        corrupted.answers[q.id] = "not-a-valid-option"
        violations = validate_sheet(corrupted, bank)
        assert violations and q.id in violations[0]
        rejected += 1
    assert rejected == 30
    _report("A7 PASS — 5 golden renderings byte-exact; all 30 single-question corruptions rejected")


def test_a8_stability_metrics():
    corpus = {"i1": "a road beside the river", "i2": "dense urban grid with parks"}
    emb = {"i1": np.array([0.6, 0.8]), "i2": np.array([1.0, 0.0])}
    report = stability_report(corpus, dict(corpus), emb, {k: v.copy() for k, v in emb.items()})
    assert report.mean_cosine == pytest.approx(1.0, abs=1e-12)
    assert report.mean_jaccard == 1.0
    assert jaccard("a b", "b c") == 1 / 3
    # published stability figures are reference context only, never assertions
    ref = evaluator.REFERENCE_CONTEXT["description_stability"]
    assert ref == {"cosine": 0.83, "jaccard": 0.44, "mean_length_words": 185.49, "std_length_words": 14.76}
    readme = README.read_text(encoding="utf-8")
    for token in ("0.83", "0.44", "185.49", "14.76"):
        assert token in readme, f"reference value {token} missing from README"
    _report("A8 PASS — duplicate corpus gives cosine/jaccard 1.0; 'a b'/'b c' == 1/3; reference values documented only")


def test_a9_format_round_trips(tmp_path):
    rng = np.random.default_rng(109)
    for i in range(100):
        rows = rng.standard_normal((int(rng.integers(0, 40)), int(rng.integers(1, 30)))).astype(np.float32)
        path = tmp_path / f"m{i}.emb"
        write_embedding_matrix(rows, path)
        assert np.array_equal(read_embedding_matrix(path), rows)

    tensors = {
        f"t{i}": rng.standard_normal(tuple(rng.integers(1, 5, size=int(rng.integers(0, 4))))).astype(np.float32)
        for i in range(100)
    }
    ckpt = tmp_path / "all.gvck"
    save_checkpoint(ckpt, RerankerConfig(), tensors)
    _, back = load_checkpoint(ckpt)
    for name, t in tensors.items():
        assert np.array_equal(back[name], t) and back[name].shape == t.shape

    good = tmp_path / "good.emb"
    write_embedding_matrix(rng.standard_normal((5, 3)).astype(np.float32), good)
    data = good.read_bytes()
    (tmp_path / "trunc.emb").write_bytes(data[:-1])
    with pytest.raises(FormatError, match="truncated"):
        read_embedding_matrix(tmp_path / "trunc.emb")
    (tmp_path / "magic.emb").write_bytes(b"ZZZZ" + data[4:])
    with pytest.raises(FormatError, match="magic"):
        read_embedding_matrix(tmp_path / "magic.emb")
    ck = ckpt.read_bytes()
    (tmp_path / "trunc.gvck").write_bytes(ck[:-2])
    with pytest.raises(FormatError, match="truncated"):
        load_checkpoint(tmp_path / "trunc.gvck")
    (tmp_path / "magic.gvck").write_bytes(b"ZZZZ" + ck[4:])
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(tmp_path / "magic.gvck")
    _report("A9 PASS — 100 matrices + 100 checkpoint tensors bit-exact; truncation/bad-magic raise as specified")


def _run_pipeline(root: Path) -> str:
    store = root / "store"
    baseline = root / "baseline.jsonl"
    samples = root / "samples.jsonl"
    train_dir = root / "train"
    reranked = root / "reranked.jsonl"
    compare_dir = root / "compare"
    steps = [
        ["synth", "--out", str(store), "--locations", "200", "--group-size", "4",
         "--image-dim", "32", "--text-dim", "32", "--seed", "7"],
        ["retrieve", "--store", str(store), "--k", "10", "--out", str(baseline)],
        ["build-samples", "--store", str(store), "--rankings", str(baseline), "--out", str(samples)],
        ["train", "--store", str(store), "--samples", str(samples), "--out", str(train_dir),
         "--epochs", "5", "--lr", "0.003", "--batch-size", "8", "--shuffle-seed", "0",
         "--latent-dim", "32", "--aligner-hidden", "32", "--init-seed", "0"],
        ["rerank", "--store", str(store), "--rankings", str(baseline),
         "--checkpoint", str(train_dir / "final.gvck"), "--out", str(reranked)],
        ["compare", "--store", str(store), "--baseline", str(baseline),
         "--reranked", str(reranked), "--out", str(compare_dir)],
    ]
    for step in steps:
        assert cli.main(step) == 0, f"pipeline step failed: {step[0]}"
    payload = json.loads((compare_dir / "report.json").read_text())
    assert payload["recall"]["1"]["delta"] > 0, "reranking did not lift R@1 on the synthetic set"
    assert payload["recall"]["10"]["delta"] == 0.0
    return hashlib.sha256((compare_dir / "report.json").read_bytes()).hexdigest()


def test_a10_pipeline_determinism(tmp_path):
    digest_a = _run_pipeline(tmp_path / "run_a")
    digest_b = _run_pipeline(tmp_path / "run_b")
    assert digest_a == digest_b, "report.json digests differ between identical runs"
    ckpt_a = hashlib.sha256((tmp_path / "run_a/train/final.gvck").read_bytes()).hexdigest()
    ckpt_b = hashlib.sha256((tmp_path / "run_b/train/final.gvck").read_bytes()).hexdigest()
    assert ckpt_a == ckpt_b, "checkpoint digests differ between identical runs"
    _report(f"A10 PASS — identical seeds give identical report.json ({digest_a[:12]}…) and checkpoints")
