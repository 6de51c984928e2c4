import json
import math
import os
import socket
import struct
import subprocess
import sys
import urllib.request
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import georank
from georank import cvlang, kernels
from georank.cli import main
from georank.cvlang import (
    EMBED_TOKEN_ENV,
    EmbedEndpointConfig,
    EmbedServiceError,
    MCQAnswerSheet,
    embed_texts,
    jaccard,
    load_question_bank,
    mock_embedding,
    render_description,
    sheets_from_jsonl,
    stability_report,
    validate_sheet,
)

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def bank():
    return load_question_bank()


def load_sheet(name):
    rec = json.loads((GOLDEN / f"sheet_{name}.json").read_text())
    return MCQAnswerSheet(rec["image_id"], rec["answers"])


# ---------------------------------------------------------------------------
# question bank and validation
# ---------------------------------------------------------------------------

def test_bank_has_thirty_questions(bank):
    assert len(bank.questions) == 30
    assert [q.id for q in bank.questions] == [f"Q{i}" for i in range(1, 31)]
    assert "urban" in bank.by_id["Q1"].options
    assert bank.by_id["Q24"].options == ("yes", "no")


def test_validate_accepts_golden_sheets(bank):
    for name in ("first_options", "last_options", "alternating", "urban_example", "middle_options"):
        assert validate_sheet(load_sheet(name), bank) == []


def test_validate_flags_bad_answer(bank):
    sheet = load_sheet("first_options")
    sheet.answers["Q1"] = "metropolis"
    violations = validate_sheet(sheet, bank)
    assert len(violations) == 1
    assert "Q1" in violations[0] and "metropolis" in violations[0] and "urban" in violations[0]


def test_validate_flags_missing_answer(bank):
    sheet = load_sheet("first_options")
    del sheet.answers["Q30"]
    assert any(v == "unanswered Q30" for v in validate_sheet(sheet, bank))


def test_validate_flags_unknown_question(bank):
    sheet = load_sheet("first_options")
    sheet.answers["Q31"] = "yes"
    assert any("Q31" in v for v in validate_sheet(sheet, bank))


def test_validate_rejects_every_single_corruption(bank):
    base = load_sheet("first_options")
    for q in bank.questions:
        sheet = MCQAnswerSheet("x", dict(base.answers))
        sheet.answers[q.id] = "definitely-not-an-option"
        violations = validate_sheet(sheet, bank)
        assert len(violations) == 1 and q.id in violations[0]


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def test_render_matches_golden_files(bank):
    for name in ("first_options", "last_options", "alternating", "urban_example", "middle_options"):
        expected = (GOLDEN / f"desc_{name}.txt").read_text()
        assert render_description(load_sheet(name), bank) == expected


def test_render_worked_example_prefix(bank):
    out = render_description(load_sheet("urban_example"), bank)
    assert out.startswith(
        "The image shows a urban area with a grid pattern road layout, featuring Parks such as roundabouts."
    )


def test_render_deterministic(bank):
    sheet = load_sheet("alternating")
    assert render_description(sheet, bank) == render_description(sheet, bank)


def test_render_rejects_invalid_sheet(bank):
    sheet = load_sheet("first_options")
    sheet.answers["Q5"] = "skyscrapers"
    with pytest.raises(ValueError, match="Q5"):
        render_description(sheet, bank)


def test_render_single_slot_difference(bank):
    a = load_sheet("first_options")
    b = MCQAnswerSheet("b", dict(a.answers))
    b.answers["Q24"] = "no"
    out_a = render_description(a, bank)
    out_b = render_description(b, bank)
    assert a.answers["Q24"] == "yes"
    assert out_b == out_a.replace("Traffic lights: yes", "Traffic lights: no")
    assert out_a != out_b


def test_render_differing_sheets_differ(bank):
    rng = np.random.default_rng(0)
    base = load_sheet("first_options")
    for _ in range(20):
        q = bank.questions[int(rng.integers(0, 30))]
        alternative = [o for o in q.options if o != base.answers[q.id]]
        if not alternative:
            continue
        other = MCQAnswerSheet("o", dict(base.answers))
        other.answers[q.id] = alternative[0]
        assert render_description(other, bank) != render_description(base, bank)


def test_render_word_count_is_skeleton_plus_answer_words(bank):
    skeleton = len(bank.template.split()) - 30  # each slot is one whitespace token
    for name in ("first_options", "last_options", "alternating"):
        sheet = load_sheet(name)
        rendered = render_description(sheet, bank)
        answer_words = sum(len(sheet.answers[f"Q{i}"].split()) for i in range(1, 31))
        assert len(rendered.split()) == skeleton + answer_words


def test_sheets_jsonl_loader(tmp_path, bank):
    sheet = load_sheet("urban_example")
    path = tmp_path / "sheets.jsonl"
    path.write_text(json.dumps({"image_id": sheet.image_id, "answers": sheet.answers}) + "\n")
    (loaded,) = sheets_from_jsonl(path)
    assert loaded.answers == sheet.answers
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{}\n")
    with pytest.raises(ValueError, match="line 1"):
        sheets_from_jsonl(bad)


def test_sheets_non_utf8_line_names_file_and_line(tmp_path):
    path = tmp_path / "sheets.jsonl"
    path.write_bytes(b'{"image_id": "a", "answers": {}}\n\xff\n')
    with pytest.raises(ValueError, match="line 2") as exc:
        sheets_from_jsonl(path)
    assert str(path) in str(exc.value) and not isinstance(exc.value, UnicodeDecodeError)


# ---------------------------------------------------------------------------
# jaccard and stability
# ---------------------------------------------------------------------------

def test_jaccard_identical():
    assert jaccard("The road, the road!", "the ROAD") == 1.0


def test_jaccard_hand_case():
    assert jaccard("a b", "b c") == pytest.approx(1 / 3, abs=0)


def test_jaccard_disjoint():
    assert jaccard("one two", "three four") == 0.0


def test_jaccard_empty_both():
    assert jaccard("", "  ") == 1.0


def test_jaccard_symmetric_and_one_iff_equal_sets():
    rng = np.random.default_rng(1)
    vocab = ["road", "bridge", "park", "river", "urban", "field"]
    for _ in range(100):
        a = " ".join(rng.choice(vocab, size=rng.integers(1, 6)))
        b = " ".join(rng.choice(vocab, size=rng.integers(1, 6)))
        assert jaccard(a, b) == jaccard(b, a)
        if jaccard(a, b) == 1.0:
            assert set(a.split()) == set(b.split())


def test_stability_duplicate_corpus():
    corpus = {"i1": "a road by the river", "i2": "an urban grid"}
    emb = {"i1": np.array([1.0, 0.0]), "i2": np.array([0.5, 0.5])}
    report = stability_report(corpus, dict(corpus), emb, {k: v.copy() for k, v in emb.items()})
    assert report.mean_cosine == pytest.approx(1.0, abs=1e-12)
    assert report.mean_jaccard == 1.0
    assert report.count == 2


def test_stability_forced_extremes():
    corpus_a = {"i": "alpha beta"}
    corpus_b = {"i": "gamma delta"}
    emb_a = {"i": np.array([1.0, 0.0])}
    emb_b = {"i": np.array([0.0, 1.0])}
    report = stability_report(corpus_a, corpus_b, emb_a, emb_b)
    assert report.mean_jaccard == 0.0
    assert report.mean_cosine == 0.0


def test_stability_length_statistics():
    corpus_a = {"i": "one two three"}       # 3 words
    corpus_b = {"i": "one two three four"}  # 4 words
    emb = {"i": np.array([1.0, 0.0])}
    report = stability_report(corpus_a, corpus_b, emb, dict(emb))
    assert report.mean_length == pytest.approx(3.5)
    assert report.std_length == pytest.approx(0.5)


def test_stability_misalignment_rejected():
    with pytest.raises(ValueError, match="misalignment"):
        stability_report({"a": "x"}, {"b": "x"}, {"a": np.ones(2)}, {"b": np.ones(2)})
    with pytest.raises(ValueError, match="empty corpora"):
        stability_report({}, {}, {}, {})


def _pair_cosine(u, v) -> float:
    """The mean cosine of a one-pair corpus: the cosine of ``u`` and ``v``."""
    return stability_report({"i": "x"}, {"i": "x"}, {"i": u}, {"i": v}).mean_cosine


@pytest.mark.parametrize("u, v, expected", [
    ([1.0, 0.0], [1.0, 0.0], 1.0),
    ([1.0, 0.0], [0.0, 1.0], 0.0),
    ([1.0, 1.0], [1.0, 0.0], math.sqrt(2) / 2),
])
def test_stability_cosine_hand_cases(u, v, expected):
    assert _pair_cosine(np.array(u), np.array(v)) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("u, v", [(np.ones(3), np.ones(4)), (np.ones((1, 3)), np.ones((1, 3)))])
def test_stability_dimension_mismatch_rejected(u, v):
    with pytest.raises(ValueError, match="dimension mismatch"):
        _pair_cosine(u, v)


def test_stability_pairs_of_different_widths_rejected():
    with pytest.raises(ValueError, match=r"dimension mismatch: \(3,\) vs \(4,\)"):
        stability_report({"a": "x", "b": "x"}, {"a": "x", "b": "x"}, {"a": np.ones(3), "b": np.ones(4)},
                         {"a": np.ones(3), "b": np.ones(4)})


@pytest.mark.parametrize("u, v", [(np.zeros(3), np.ones(3)), (np.ones(3), np.zeros(3))])
def test_stability_zero_norm_rejected(u, v):
    with pytest.raises(ValueError, match="cosine undefined for zero-norm vector"):
        _pair_cosine(u, v)


def test_stability_cosine_is_phase_one_arithmetic_symmetric_and_scale_invariant():
    rng = np.random.default_rng(0)
    for dim in (2, 16, 257, 1536):
        for dtype in (np.float32, np.float64):
            u, v = rng.standard_normal((2, dim)).astype(dtype)
            alpha = float(rng.uniform(0.01, 100.0))
            cos = _pair_cosine(u, v)
            q = v.astype(np.float64)
            norms = kernels.row_norms(q[None]), kernels.row_norms(u[None])
            assert cos == kernels.exact_cosines(u[None], q[None], *norms)[0]  # phase 1's score of the pair
            assert cos == _pair_cosine(v, u)
            # scaling a float32 vector rounds it, by up to float32's unit roundoff per value
            assert _pair_cosine(alpha * u, v) == pytest.approx(cos, abs=1e-12 if dtype is np.float64 else 1e-6)
    assert -1.0 <= _pair_cosine(u, -u) <= 1.0


def _frozen_stability_cosines(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The pair cosines as ``stability_report`` computed them before it called
    ``kernels.exact_cosines``, with ``kernels.row_norms`` inlined."""
    dots = np.einsum("ij,ij->i", a, b, dtype=np.float64)
    norms_a = np.sqrt(np.einsum("ij,ij->i", a, a, dtype=np.float64))
    norms_b = np.sqrt(np.einsum("ij,ij->i", b, b, dtype=np.float64))
    return np.clip(dots / (norms_a * norms_b), -1.0, 1.0)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3, 16, 64, 257, 1536, 4096, 8192, 8193, 10000]),
       st.integers(1, 9), st.sampled_from([np.float32, np.float64]), st.sampled_from([np.float32, np.float64]))
def test_stability_cosine_bytes_equal_a_frozen_copy_of_the_inlined_arithmetic(seed, dim, count, dtype_a, dtype_b):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((count, dim)) * 2.0 ** rng.integers(-20, 20, (count, 1))
    b = rng.standard_normal((count, dim))
    b[::2] = np.ldexp(a[::2], 3) * (-1.0) ** rng.integers(0, 2)  # parallel pairs: cosines at ±1, clipped
    a, b = a.astype(dtype_a), b.astype(dtype_b)
    ids = [f"i{j}" for j in range(count)]
    report = stability_report({i: "x" for i in ids}, {i: "x" for i in ids}, dict(zip(ids, a)), dict(zip(ids, b)))
    want = float(np.mean(_frozen_stability_cosines(a, b)))
    assert struct.pack("<d", report.mean_cosine) == struct.pack("<d", want)


# ---------------------------------------------------------------------------
# embeddings: mock mode
# ---------------------------------------------------------------------------

def test_mock_embedding_deterministic_and_unit_norm():
    a = mock_embedding("hello world", 8)
    b = mock_embedding("hello world", 8)
    assert np.array_equal(a, b)
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-6)
    # frozen construction: sha256-seeded generator, so stable across processes
    assert a[:3] == pytest.approx([0.3857869803905487, 0.4586872458457947, 0.19975535571575165], abs=1e-6)


def test_mock_embedding_distinct_texts():
    texts = [f"scene number {i}" for i in range(1000)]
    vecs = embed_texts(texts, EmbedEndpointConfig(url="mock:", text_dim=1536))
    assert vecs.shape == (1000, 1536)
    gram = vecs @ vecs.T
    np.fill_diagonal(gram, 0.0)
    assert gram.max() < 0.5


def test_mock_embed_texts_order_and_empty():
    endpoint = EmbedEndpointConfig(url="mock:", text_dim=16)
    out = embed_texts(["a", "b", "a"], endpoint)
    assert np.array_equal(out[0], out[2])
    assert not np.array_equal(out[0], out[1])
    assert embed_texts([], endpoint).shape == (0, 16)


# ---------------------------------------------------------------------------
# embeddings: live endpoint against a local stub
# ---------------------------------------------------------------------------

def _endpoint(server):
    return EmbedEndpointConfig(url=f"http://127.0.0.1:{server.server_address[1]}/embed", text_dim=4)


def test_live_endpoint_roundtrip(stub_server, monkeypatch):
    monkeypatch.setenv("GEOVLM_EMBED_TOKEN", "secret-token")
    stub_server.script = [(200, lambda body: {"embeddings": [[1.0, 0.0, 0.0, float(i)] for i, _ in enumerate(body["input"])]})]
    out = embed_texts(["alpha", "beta"], _endpoint(stub_server))
    assert out.shape == (2, 4)
    assert out[1][3] == 1.0
    (req,) = stub_server.seen
    assert req["body"] == {"input": ["alpha", "beta"], "model": "text-embedding-3-small"}
    assert req["auth"] == "Bearer secret-token"


def test_live_endpoint_batching(stub_server, monkeypatch):
    monkeypatch.setattr(cvlang, "EMBED_BATCH_SIZE", 2)
    stub_server.script = [(200, lambda body: {"embeddings": [[0.0] * 4 for _ in body["input"]]})]
    embed_texts([f"t{i}" for i in range(5)], _endpoint(stub_server))
    assert len(stub_server.seen) == 3
    assert [len(r["body"]["input"]) for r in stub_server.seen] == [2, 2, 1]


@pytest.mark.parametrize("text_dim", [0, -1])
def test_text_dim_below_1_is_refused_before_any_request(stub_server, text_dim):
    endpoint = EmbedEndpointConfig(url=f"http://127.0.0.1:{stub_server.server_address[1]}/embed", text_dim=text_dim)
    with pytest.raises(ValueError, match="text_dim"):
        embed_texts(["x"], endpoint)
    assert stub_server.seen == []


def test_live_endpoint_dim_mismatch(stub_server):
    stub_server.script = [(200, {"embeddings": [[1.0] * 8]})]
    with pytest.raises(EmbedServiceError, match="dim"):
        embed_texts(["x"], _endpoint(stub_server))


def test_live_endpoint_wrong_embedding_count(stub_server):
    stub_server.script = [(200, {"embeddings": [[1.0] * 4] * 2})]
    with pytest.raises(EmbedServiceError, match="endpoint returned 2 embeddings for 1 inputs"):
        embed_texts(["x"], _endpoint(stub_server))


def test_live_endpoint_retries_then_fails(stub_server):
    stub_server.script = [(500, {"error": "boom"})]
    with pytest.raises(EmbedServiceError, match="unreachable"):
        embed_texts(["x"], _endpoint(stub_server))
    assert len(stub_server.seen) == 3  # initial + 2 retries


def test_live_endpoint_transient_500_recovers(stub_server):
    stub_server.script = [(500, {"error": "boom"}), (200, {"embeddings": [[1.0, 2.0, 3.0, 4.0]]})]
    out = embed_texts(["x"], _endpoint(stub_server))
    assert out.tolist() == [[1.0, 2.0, 3.0, 4.0]]
    assert len(stub_server.seen) == 2


def test_live_endpoint_hard_error_surfaces_body(stub_server):
    stub_server.script = [(404, {"error": "no such model"})]
    with pytest.raises(EmbedServiceError, match="404") as exc:
        embed_texts(["x"], _endpoint(stub_server))
    assert "no such model" in str(exc.value)
    assert len(stub_server.seen) == 1  # non-transient: no retry


@pytest.mark.parametrize("body", [[1, 2], {"embeddings": 5}, {"embeddings": [1.0]},
                                  {"embeddings": [["a", "b", "c", "d"]]}, b"<html>busy</html>"])
def test_live_endpoint_malformed_body_is_embed_service_error(stub_server, tmp_path, capsys, body):
    stub_server.script = [(200, body)]
    with pytest.raises(EmbedServiceError, match="malformed response"):
        embed_texts(["x"], _endpoint(stub_server))
    texts, out = tmp_path / "texts.jsonl", tmp_path / "emb.jsonl"
    texts.write_text(json.dumps({"id": "a", "text": "x"}) + "\n")
    assert main(["embed", "--texts", str(texts), "--endpoint", _endpoint(stub_server).url, "--text-dim", "4",
                 "--out", str(out)]) == 1
    assert "malformed response" in capsys.readouterr().err
    assert not out.exists()


def test_closed_port_is_tried_max_retries_plus_one_times(quick_retries, monkeypatch):
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    calls = []
    urlopen = urllib.request.urlopen
    monkeypatch.setattr(urllib.request, "urlopen", lambda *a, **kw: calls.append(a) or urlopen(*a, **kw))
    endpoint = EmbedEndpointConfig(url=f"http://127.0.0.1:{port}/embed", text_dim=4)
    with pytest.raises(EmbedServiceError, match="unreachable after 3 attempts"):
        embed_texts(["x"], endpoint)
    assert len(calls) == 3


def test_no_authorization_header_without_token(stub_server, monkeypatch):
    monkeypatch.delenv(EMBED_TOKEN_ENV, raising=False)
    stub_server.script = [(200, {"embeddings": [[1.0, 2.0, 3.0, 4.0]]})]
    embed_texts(["x"], _endpoint(stub_server))
    (req,) = stub_server.seen
    assert req["auth"] is None


def test_live_endpoint_roundtrip_without_requests_installed(stub_server):
    stub_server.script = [(200, {"embeddings": [[1.0, 2.0, 3.0, 4.0]]})]
    code = ("import sys\n"
            "sys.modules['requests'] = None  # any import of requests now fails\n"
            "from georank.cvlang import EmbedEndpointConfig, embed_texts\n"
            f"print(embed_texts(['x'], EmbedEndpointConfig(url={_endpoint(stub_server).url!r}, text_dim=4)).tolist())")
    env = dict(os.environ, PYTHONPATH=str(Path(georank.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[[1.0, 2.0, 3.0, 4.0]]"
    assert len(stub_server.seen) == 1
