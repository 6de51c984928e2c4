"""Cross-view language tooling: MCQ answer-sheet validation, templated scene
description rendering, description stability metrics, and the text-embedding
client with a deterministic offline mock.

The 30-question bank and the sentence template ship as a data file
(``data/cross_view_mcq.json``) so they can be audited without reading code.
"""

from __future__ import annotations

import hashlib
import json
import re
import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .retriever import cosine

EMBED_TOKEN_ENV = "GEOVLM_EMBED_TOKEN"

_SLOT_RE = re.compile(r"\[(Q\d+)\]")
_WORD_RE = re.compile(r"[a-z0-9]+")


@dataclass(frozen=True)
class Question:
    id: str
    text: str
    options: tuple[str, ...]


@dataclass
class QuestionBank:
    questions: list[Question]
    template: str

    def __post_init__(self):
        if len(self.questions) != 30:
            raise ValueError(f"question bank must have exactly 30 questions, got {len(self.questions)}")
        expected = [f"Q{i}" for i in range(1, 31)]
        if [q.id for q in self.questions] != expected:
            raise ValueError("question ids must be Q1..Q30 in order")
        for q in self.questions:
            if not q.options:
                raise ValueError(f"{q.id} has an empty option list")
        slots = set(_SLOT_RE.findall(self.template))
        if slots != set(expected):
            raise ValueError("template slots must cover Q1..Q30 exactly")
        self.by_id = {q.id: q for q in self.questions}


def load_question_bank(path: str | Path | None = None) -> QuestionBank:
    """Load the packaged bank, or a user-supplied JSON with the same schema."""
    if path is None:
        raw = resources.files("georank.data").joinpath("cross_view_mcq.json").read_text(encoding="utf-8")
    else:
        raw = Path(path).read_text(encoding="utf-8")
    data = json.loads(raw)
    questions = [Question(q["id"], q["text"], tuple(q["options"])) for q in data["questions"]]
    return QuestionBank(questions, data["template"])


@dataclass
class MCQAnswerSheet:
    image_id: str
    answers: dict[str, str]


def validate_sheet(sheet: MCQAnswerSheet, bank: QuestionBank) -> list[str]:
    """Every violation names the question, the answer, and the allowed options."""
    violations = []
    for q in bank.questions:
        answer = sheet.answers.get(q.id)
        if answer is None:
            violations.append(f"unanswered {q.id}")
        elif answer not in q.options:
            violations.append(f"{q.id}: answer '{answer}' not one of: {'/'.join(q.options)}")
    for key in sheet.answers:
        if key not in bank.by_id:
            violations.append(f"unknown question id '{key}'")
    return violations


def render_description(sheet: MCQAnswerSheet, bank: QuestionBank) -> str:
    """Byte-exact substitution of the 30 answers into the sentence template.

    No grammatical smoothing happens: "a urban area" is emitted verbatim.
    """
    violations = validate_sheet(sheet, bank)
    if violations:
        raise ValueError(f"sheet '{sheet.image_id}' is invalid: " + "; ".join(violations))
    return _SLOT_RE.sub(lambda m: sheet.answers[m.group(1)], bank.template)


def sheets_from_jsonl(path: str | Path) -> list[MCQAnswerSheet]:
    sheets = []
    with open(path, "rb") as fh:
        for ln, raw in enumerate(fh, start=1):
            try:
                raw = raw.decode("utf-8").strip()
                if not raw:
                    continue
                rec = json.loads(raw)
                sheets.append(MCQAnswerSheet(rec["image_id"], dict(rec["answers"])))
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}, line {ln}: malformed answer sheet ({exc})") from None
    return sheets


# ---------------------------------------------------------------------------
# stability metrics
# ---------------------------------------------------------------------------

def _words(text: str) -> set[str]:
    return set(_WORD_RE.findall(text.casefold()))


def jaccard(a: str, b: str) -> float:
    """Word-set overlap over union (case-folded, punctuation stripped); both empty -> 1."""
    wa, wb = _words(a), _words(b)
    if not wa and not wb:
        return 1.0
    return len(wa & wb) / len(wa | wb)


@dataclass
class StabilityReport:
    mean_cosine: float
    mean_jaccard: float
    mean_length: float
    std_length: float
    count: int

    def to_dict(self) -> dict:
        return {
            "mean_cosine": self.mean_cosine,
            "mean_jaccard": self.mean_jaccard,
            "mean_length_words": self.mean_length,
            "std_length_words": self.std_length,
            "count": self.count,
        }


def stability_report(
    corpus_a: dict[str, str],
    corpus_b: dict[str, str],
    embeddings_a: dict[str, np.ndarray],
    embeddings_b: dict[str, np.ndarray],
) -> StabilityReport:
    """Agreement between two description runs aligned by image id."""
    ids = sorted(corpus_a)
    for name, other in (("corpus_b", corpus_b), ("embeddings_a", embeddings_a), ("embeddings_b", embeddings_b)):
        if sorted(other) != ids:
            raise ValueError(f"id misalignment between corpus_a and {name}")
    if not ids:
        raise ValueError("empty corpora")
    cos_vals = [cosine(embeddings_a[i], embeddings_b[i]) for i in ids]
    jac_vals = [jaccard(corpus_a[i], corpus_b[i]) for i in ids]
    lengths = [len(corpus_a[i].split()) for i in ids] + [len(corpus_b[i].split()) for i in ids]
    return StabilityReport(
        mean_cosine=float(np.mean(cos_vals)),
        mean_jaccard=float(np.mean(jac_vals)),
        mean_length=float(np.mean(lengths)),
        std_length=float(np.std(lengths)),
        count=len(ids),
    )


# ---------------------------------------------------------------------------
# text-embedding service client
# ---------------------------------------------------------------------------

class EmbedServiceError(Exception):
    """Embedding endpoint failure after retries, or a malformed response."""


@dataclass
class EmbedEndpointConfig:
    url: str = "mock:"
    model: str = "text-embedding-3-small"
    text_dim: int = 1536
    timeout_s: float = 30.0
    max_retries: int = 3
    backoff_s: float = 0.5
    batch_size: int = 256

    @property
    def mock(self) -> bool:
        return self.url.startswith("mock:")


def mock_embedding(text: str, dim: int) -> np.ndarray:
    """Deterministic unit-norm vector derived from the text's SHA-256."""
    seed = int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")
    v = np.random.default_rng(seed).standard_normal(dim)
    return (v / np.linalg.norm(v)).astype(np.float32)


def _post_batch(texts: list[str], endpoint: EmbedEndpointConfig) -> list[list[float]]:
    import os

    import requests

    headers = {}
    token = os.environ.get(EMBED_TOKEN_ENV)
    if token:
        headers["Authorization"] = f"Bearer {token}"
    body = {"input": texts, "model": endpoint.model}
    last_error = None
    for attempt in range(endpoint.max_retries + 1):
        if attempt:
            time.sleep(endpoint.backoff_s * (2 ** (attempt - 1)))
        try:
            resp = requests.post(endpoint.url, json=body, headers=headers, timeout=endpoint.timeout_s)
        except requests.RequestException as exc:
            last_error = f"request failed: {exc}"
            continue
        if resp.status_code in (429, 500, 502, 503, 504):
            last_error = f"HTTP {resp.status_code}: {resp.text[:500]}"
            continue
        if resp.status_code != 200:
            raise EmbedServiceError(f"HTTP {resp.status_code}: {resp.text[:500]}")
        try:
            return resp.json()["embeddings"]
        except (ValueError, KeyError) as exc:
            raise EmbedServiceError(f"malformed response: {exc}") from None
    raise EmbedServiceError(f"endpoint unreachable after {endpoint.max_retries + 1} attempts ({last_error})")


def embed_texts(texts: list[str], endpoint: EmbedEndpointConfig) -> np.ndarray:
    """One (n, text_dim) float32 row per text, in input order."""
    if endpoint.mock:
        if not texts:
            return np.empty((0, endpoint.text_dim), np.float32)
        return np.stack([mock_embedding(t, endpoint.text_dim) for t in texts])
    out = np.empty((len(texts), endpoint.text_dim), np.float32)
    row = 0
    for start in range(0, len(texts), endpoint.batch_size):
        chunk = texts[start : start + endpoint.batch_size]
        vectors = _post_batch(chunk, endpoint)
        if len(vectors) != len(chunk):
            raise EmbedServiceError(f"endpoint returned {len(vectors)} embeddings for {len(chunk)} inputs")
        for vec in vectors:
            if len(vec) != endpoint.text_dim:
                raise EmbedServiceError(
                    f"embedding dim {len(vec)} does not match configured text_dim {endpoint.text_dim}"
                )
            out[row] = np.asarray(vec, np.float32)
            row += 1
    return out
