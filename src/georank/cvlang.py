"""Cross-view language tooling: MCQ answer-sheet validation, templated scene
description rendering, description stability metrics, and the text-embedding
client with a deterministic offline mock.

The 30-question bank and the sentence template ship as a data file
(``data/cross_view_mcq.json``) so they can be audited without reading code.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import kernels
from .geostore import INVALID_ID, IngestError, load_jsonl, valid_id

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


def _question(q: dict) -> Question:
    options = q["options"]
    if not isinstance(q["text"], str) or not isinstance(options, list) or not all(isinstance(o, str) for o in options):
        raise TypeError(f"question {json.dumps(q['id'])} needs a 'text' string and an 'options' list of strings")
    return Question(q["id"], q["text"], tuple(options))


def load_question_bank(path: str | Path | None = None) -> QuestionBank:
    """Load the packaged bank, or a user-supplied JSON with the same schema.
    A user bank that is not UTF-8 JSON of that schema, or that breaks a rule
    of ``QuestionBank``, raises IngestError naming the file."""
    source = resources.files("georank.data").joinpath("cross_view_mcq.json") if path is None else Path(path)
    try:
        data = json.loads(source.read_text(encoding="utf-8"))
        return QuestionBank([_question(q) for q in data["questions"]], data["template"])
    except KeyError as exc:
        raise IngestError(f"question bank missing field {exc}", file=str(source)) from None
    except (TypeError, ValueError) as exc:
        raise IngestError(f"malformed question bank ({exc})", file=str(source)) from None


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


def _sheet(rec: dict) -> MCQAnswerSheet:
    image_id, answers = rec["image_id"], rec["answers"]
    if not isinstance(image_id, str):
        raise TypeError(f"'image_id' {json.dumps(image_id)} is not a string")
    if not valid_id(image_id):
        raise ValueError(f"'image_id' {json.dumps(image_id)} is not a valid id: {INVALID_ID}")
    if not isinstance(answers, dict):
        raise TypeError("'answers' is not an object of question id -> answer")
    return MCQAnswerSheet(image_id, answers)


def sheets_from_jsonl(path: str | Path) -> list[MCQAnswerSheet]:
    """One answer sheet per line; a sheet without an ``image_id`` that
    ``geostore.valid_id`` accepts and an ``answers`` object, or an
    ``image_id`` seen before, raises IngestError naming the file and line."""
    return load_jsonl(path, _sheet, "answer sheet", key=lambda sheet: sheet.image_id)


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
    """Agreement between two description runs aligned by image id. Each
    pair's cosine is phase 1's float64 arithmetic (``kernels.exact_cosines``
    of each row of one run against its own row of the other), so it is
    exactly symmetric."""
    ids = sorted(corpus_a)
    for name, other in (("corpus_b", corpus_b), ("embeddings_a", embeddings_a), ("embeddings_b", embeddings_b)):
        if sorted(other) != ids:
            raise ValueError(f"id misalignment between corpus_a and {name}")
    if not ids:
        raise ValueError("empty corpora")
    a, b = ([np.asarray(emb[i]) for i in ids] for emb in (embeddings_a, embeddings_b))
    for v in a + b:
        if v.ndim != 1 or v.shape != a[0].shape:
            raise ValueError(f"dimension mismatch: {a[0].shape} vs {v.shape}")
    a, b = np.stack(a), np.stack(b)
    if not (a.any(axis=1).all() and b.any(axis=1).all()):
        raise ValueError("cosine undefined for zero-norm vector")
    cos_vals = kernels.exact_cosines(a, b, kernels.row_norms(b), kernels.row_norms(a))
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


# texts per POST, seconds each attempt may wait, retries after the first
# attempt, and the first retry's backoff (doubled on each retry after it)
EMBED_BATCH_SIZE = 256
EMBED_TIMEOUT_S = 30.0
EMBED_MAX_RETRIES = 3
EMBED_BACKOFF_S = 0.5


@dataclass
class EmbedEndpointConfig:
    url: str = "mock:"
    model: str = "text-embedding-3-small"
    text_dim: int = 1536

    @property
    def mock(self) -> bool:
        return self.url.startswith("mock:")


def mock_embedding(text: str, dim: int) -> np.ndarray:
    """Deterministic unit-norm vector derived from the text's SHA-256."""
    seed = int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")
    v = np.random.default_rng(seed).standard_normal(dim)
    return (v / np.linalg.norm(v)).astype(np.float32)


# statuses worth another attempt: rate limiting and server-side failures
_RETRIED_STATUSES = (429, 500, 502, 503, 504)


def _embeddings_of(body: bytes) -> list[list[float]]:
    """The vectors of a 200 response, which must be ``{"embeddings": [[numbers], ...]}``."""
    try:
        vectors = json.loads(body)
    except ValueError as exc:
        raise EmbedServiceError(f"malformed response: not JSON ({exc})") from None
    vectors = vectors.get("embeddings") if isinstance(vectors, dict) else None
    if not isinstance(vectors, list) or not all(
            isinstance(v, list) and all(type(x) in (int, float) for x in v) for v in vectors):
        raise EmbedServiceError('malformed response: expected {"embeddings": [[numbers], ...]}')
    return vectors


def _post_batch(texts: list[str], endpoint: EmbedEndpointConfig) -> list[list[float]]:
    """POST one batch, retrying connection failures, timeouts and the statuses
    of ``_RETRIED_STATUSES`` with exponential backoff; any other status fails
    at once with its body."""
    # imported here, not at the top: http.client loads ssl, about 5 MB of
    # resident memory that no command but a live ``embed`` needs
    import http.client
    import urllib.error
    import urllib.request

    headers = {"Content-Type": "application/json"}
    token = os.environ.get(EMBED_TOKEN_ENV)
    if token:
        headers["Authorization"] = f"Bearer {token}"
    body = json.dumps({"input": texts, "model": endpoint.model}).encode("utf-8")
    last_error = None
    for attempt in range(EMBED_MAX_RETRIES + 1):
        if attempt:
            time.sleep(EMBED_BACKOFF_S * (2 ** (attempt - 1)))
        request = urllib.request.Request(endpoint.url, data=body, headers=headers, method="POST")
        try:
            try:
                resp = urllib.request.urlopen(request, timeout=EMBED_TIMEOUT_S)
            except urllib.error.HTTPError as exc:
                resp = exc  # a status urllib raises on is a response too, and must be closed like one
            with resp:
                status, payload = resp.status, resp.read()
        except (OSError, http.client.HTTPException) as exc:
            last_error = f"request failed: {exc}"
            continue
        if status == 200:
            return _embeddings_of(payload)
        last_error = f"HTTP {status}: {payload[:500].decode('utf-8', 'replace')}"
        if status not in _RETRIED_STATUSES:
            raise EmbedServiceError(last_error)
    raise EmbedServiceError(f"endpoint unreachable after {EMBED_MAX_RETRIES + 1} attempts ({last_error})")


def embed_texts(texts: list[str], endpoint: EmbedEndpointConfig) -> np.ndarray:
    """One (n, text_dim) float32 row per text, in input order."""
    if endpoint.text_dim < 1:
        raise ValueError(f"text_dim must be >= 1, got {endpoint.text_dim}")
    if endpoint.mock:
        if not texts:
            return np.empty((0, endpoint.text_dim), np.float32)
        return np.stack([mock_embedding(t, endpoint.text_dim) for t in texts])
    out = np.empty((len(texts), endpoint.text_dim), np.float32)
    row = 0
    for start in range(0, len(texts), EMBED_BATCH_SIZE):
        chunk = texts[start : start + EMBED_BATCH_SIZE]
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
