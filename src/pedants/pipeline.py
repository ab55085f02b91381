"""The rule- and type-aware answer-correctness judge.

A two-stage pipeline: 7-class extractors predict question-type and
correctness-rule probability vectors, which are concatenated with token
precision/recall/F1 and a tf-idf encoding of (question, reference,
candidate) to feed a binary logistic-regression judge. A trained bundle is
immutable and safe to share across concurrent judging workers.

Judging and training share one feature path: each example is prepared once
(every string normalized once and held once, the best reference chosen),
its pair and triple token lists are built from those strings where they are
encoded, each is tf-idf-encoded once (one triple vectorizer serves the rule
extractor and the judge), and the three linear models score a whole batch
with one kernel (``linear._scores``). ``judge`` is ``judge_batch`` of one
example, with the same bits, and ``assemble_features`` and the judge's
training inputs come from the same batch code.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from . import linear, vectorizer
from .errors import MissingAnnotations
from .io import QAExample, QuestionType, RuleLabel, open_atomic
from .linear import DEFAULT_SEED, LinearModel
from .metrics import PrfScores, _best_bag
from .textnorm import PEDANTS_POLICY, normalize, tokenize
from .vectorizer import SparseVector, TfidfModel

BUNDLE_FORMAT_VERSION = "1"

N_TYPES = 7
N_RULES = 7
N_TOKEN_SCORES = 3
# Dense prefix of every assembled vector: type probs, rule probs, (f1, p, r).
DENSE_DIM = N_TYPES + N_RULES + N_TOKEN_SCORES

_WH_LOOKUP = {t.value: t for t in QuestionType}


@dataclass(frozen=True)
class Judgment:
    """A verdict plus the intermediate signals that explain it."""

    correct: bool
    confidence: float  # probability of the positive ("correct") class
    predicted_rule: RuleLabel
    predicted_type: QuestionType
    token_scores: PrfScores
    chosen_reference: int

    def to_dict(self) -> dict:
        return {
            "correct": self.correct,
            "confidence": self.confidence,
            "rule": self.predicted_rule.value,
            "qtype": self.predicted_type.value,
            "f1": self.token_scores.f1,
            "precision": self.token_scores.precision,
            "recall": self.token_scores.recall,
            "reference_index": self.chosen_reference,
        }


@dataclass
class PedantsModel:
    """The full judging bundle: two extractors, the final judge, and the
    vocabularies each was fitted with. The rule extractor and the judge read
    one triple vectorizer: ``rule_vectorizer is judge_vectorizer``."""

    type_vectorizer: TfidfModel
    type_model: LinearModel
    rule_vectorizer: TfidfModel
    rule_model: LinearModel
    judge_vectorizer: TfidfModel
    judge_model: LinearModel
    seed: int
    fingerprint: dict = field(default_factory=dict)
    format_version: str = BUNDLE_FORMAT_VERSION

    def __post_init__(self):
        if self.type_model.classes != N_TYPES or self.rule_model.classes != N_RULES:
            raise ValueError("extractors must be 7-class models")
        if self.judge_model.classes != 2:
            raise ValueError("final judge must be binary")
        if not isinstance(self.fingerprint, dict):
            raise ValueError(f"fingerprint must be an object, got {self.fingerprint!r}")
        checks = [
            (self.type_model.feature_dim, self.type_vectorizer.dimension, "type"),
            (self.rule_model.feature_dim, self.rule_vectorizer.dimension, "rule"),
            (self.judge_model.feature_dim, DENSE_DIM + self.judge_vectorizer.dimension, "judge"),
        ]
        for got, want, name in checks:
            if got != want:
                raise ValueError(f"{name} model dimension {got} != expected {want}")
        if self.judge_vectorizer != self.rule_vectorizer:
            raise ValueError("rule and judge vectorizers differ; both must be the triple vectorizer")
        self.judge_vectorizer = self.rule_vectorizer

    @functools.cached_property
    def _kernel(self) -> tuple[np.ndarray, np.ndarray]:
        """The weights in the layout judge_batch reads, built on first use,
        so a bundle that is only trained and saved holds no copy."""
        return _weights(self.type_model, self.rule_model, self.judge_model)

    def to_dict(self) -> dict:
        return {
            "format_version": self.format_version,
            "config": linear.config_dict(self.seed),
            "fingerprint": self.fingerprint,
            "type_extractor": {
                "vectorizer": self.type_vectorizer.to_dict(),
                "model": self.type_model.to_dict(),
            },
            "rule_extractor": {
                "vectorizer": self.rule_vectorizer.to_dict(),
                "model": self.rule_model.to_dict(),
            },
            "final_judge": {
                "vectorizer": self.judge_vectorizer.to_dict(),
                "model": self.judge_model.to_dict(),
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PedantsModel":
        version = data.get("format_version") if isinstance(data, dict) else None
        if version != BUNDLE_FORMAT_VERSION:
            raise ValueError(f"unsupported bundle format_version: {version!r}")
        try:
            model = cls(
                type_vectorizer=TfidfModel.from_dict(data["type_extractor"]["vectorizer"]),
                type_model=LinearModel.from_dict(data["type_extractor"]["model"]),
                rule_vectorizer=TfidfModel.from_dict(data["rule_extractor"]["vectorizer"]),
                rule_model=LinearModel.from_dict(data["rule_extractor"]["model"]),
                judge_vectorizer=TfidfModel.from_dict(data["final_judge"]["vectorizer"]),
                judge_model=LinearModel.from_dict(data["final_judge"]["model"]),
                seed=linear.config_seed(data["config"]),
                fingerprint=data.get("fingerprint", {}),
                format_version=version,
            )
        except TypeError as exc:  # a section that is not an object
            raise ValueError(f"malformed bundle: {exc}") from exc
        except KeyError as exc:
            raise ValueError(f"missing field {exc}") from exc
        # every seed a bundle states is the one it was trained with
        seeds = {
            "type_extractor.model.config": model.type_model.seed,
            "rule_extractor.model.config": model.rule_model.seed,
            "final_judge.model.config": model.judge_model.seed,
        }
        if "seed" in model.fingerprint:
            seeds["fingerprint"] = model.fingerprint["seed"]
        for section, seed in seeds.items():
            if type(seed) is not int or seed != model.seed:
                raise ValueError(f"{section}: seed {seed!r} differs from config seed {model.seed}")
        return model

    def to_json(self) -> str:
        # sort_keys + compact separators keep serialization byte-reproducible
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def save(self, path: str | Path) -> None:
        with open_atomic(path) as handle:
            handle.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "PedantsModel":
        try:
            return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc


class _Prepared(NamedTuple):
    """One example with each string normalized once (PEDANTS_POLICY) and
    held once; its encoders' token lists are built where they are encoded."""

    question: str
    reference: str  # the best-F1 reference
    candidate: str
    ref_index: int
    scores: PrfScores  # token scores against that reference


def _prepare(example: QAExample) -> _Prepared:
    question = normalize(example.question, PEDANTS_POLICY)
    candidate = normalize(example.candidate, PEDANTS_POLICY)
    references = [normalize(ref, PEDANTS_POLICY) for ref in example.references]
    ref_idx, scores = _best_bag(tokenize(candidate), [tokenize(ref) for ref in references])
    return _Prepared(question, references[ref_idx], candidate, ref_idx, scores)


def _pairs(rows: Sequence[Sequence[str]]) -> Iterator[list[str]]:
    """The pair tokens of (question, reference, ...) normalized rows."""
    return (vectorizer._pair(row[0], row[1]) for row in rows)


def _triples(rows: Sequence[Sequence[str]]) -> Iterator[list[str]]:
    """The triple tokens of (question, reference, candidate, ...) normalized rows."""
    return (vectorizer._triple(vectorizer._pair(row[0], row[1]), row[2]) for row in rows)


Encoding = tuple[np.ndarray, np.ndarray]  # indices and values, as _tfidf gives them


def _weights(
    type_model: LinearModel, rule_model: LinearModel, judge_model: LinearModel | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The weights ``_prefix`` gathers from, as ``linear._kernel_weights``
    lays them out: the type extractor's, and the rule extractor's with, when
    given, the judge's triple columns beside them, so one gather of a
    triple's columns serves both."""
    triple, bias = rule_model.weights, rule_model.bias
    if judge_model is not None:
        triple = np.vstack((triple, judge_model.weights[:, DENSE_DIM:]))
        bias = np.concatenate((bias, judge_model.bias))
    return (
        linear._kernel_weights(type_model.weights, type_model.bias),
        linear._kernel_weights(triple, bias),
    )


def _prefix(
    scores: Sequence[PrfScores],
    pairs: Sequence[Encoding],
    triples: Sequence[Encoding],
    weights: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """A batch's dense prefix, (rows, 17): type probs, rule probs and
    (f1, p, r); and the triples' scores past the rule extractor's columns
    (the judge's text scores, its bias included, when ``weights`` holds
    them)."""
    type_weights, triple_weights = weights
    prefix = np.empty((len(scores), DENSE_DIM))
    linear._scores(type_weights, linear._flatten(pairs), out=prefix[:, :N_TYPES])
    triple_scores = linear._scores(triple_weights, linear._flatten(triples))
    prefix[:, N_TYPES : N_TYPES + N_RULES] = triple_scores[:, :N_RULES]
    linear._softmax(prefix[:, : N_TYPES + N_RULES].reshape(len(scores), 2, N_TYPES))
    prefix[:, N_TYPES + N_RULES :] = [(s.f1, s.precision, s.recall) for s in scores]
    return prefix, triple_scores[:, N_RULES:]


def _encode_and_prefix(
    prepared: Sequence[_Prepared], model: PedantsModel
) -> tuple[np.ndarray, np.ndarray, list[Encoding]]:
    """``_prefix`` of prepared examples, and their triples' encodings. Each
    pair and each triple is encoded once; the triple serves the rule
    extractor and the judge."""
    pairs, triples = [], []
    for p in prepared:
        pair = vectorizer._pair(p.question, p.reference)
        pairs.append(vectorizer._tfidf(pair, model.type_vectorizer))
        triple = vectorizer._triple(pair, p.candidate)
        triples.append(vectorizer._tfidf(triple, model.judge_vectorizer))
    return *_prefix([p.scores for p in prepared], pairs, triples, model._kernel), triples


def _judge_input(prefix: np.ndarray, triple: Encoding) -> Encoding:
    """The judge's input: the nonzero entries of the dense prefix, then the
    triple's block shifted past it."""
    cols = np.flatnonzero(prefix)
    return np.concatenate((cols, triple[0] + DENSE_DIM)), np.concatenate((prefix[cols], triple[1]))


def _fit_extractor(
    docs: Callable, rows: Sequence, labels: list[int], n_classes: int, seed: int
) -> tuple[TfidfModel, LinearModel, list[Encoding]]:
    """Fit a vocabulary on the token lists ``docs(rows)`` yields, build them
    again to encode each once, and train on the encodings; returns the
    vocabulary, the model and the encodings."""
    tfidf = vectorizer.fit(docs(rows))
    vectors = [SparseVector(tfidf.dimension, *vectorizer._tfidf(doc, tfidf)) for doc in docs(rows)]
    model = linear.train(list(zip(vectors, labels)), seed, n_classes=n_classes)
    return tfidf, model, [(v.indices, v.values) for v in vectors]


def train_type_extractor(
    examples: Sequence[tuple[str, str, QuestionType]], seed: int = DEFAULT_SEED
) -> tuple[TfidfModel, LinearModel]:
    """Fit a tf-idf vocabulary on (q, a) pairs and train the 7-class
    question-type classifier."""
    rows = [[normalize(text, PEDANTS_POLICY) for text in ex[:2]] for ex in examples]
    return _fit_extractor(_pairs, rows, [qtype.code for *_, qtype in examples], N_TYPES, seed)[:2]


def train_rule_extractor(
    examples: Sequence[tuple[str, str, str, RuleLabel]], seed: int = DEFAULT_SEED
) -> tuple[TfidfModel, LinearModel]:
    """Fit a tf-idf vocabulary on (q, a, candidate) triples and train the
    7-class correctness-rule classifier."""
    rows = [[normalize(text, PEDANTS_POLICY) for text in ex[:3]] for ex in examples]
    return _fit_extractor(_triples, rows, [rule.code for *_, rule in examples], N_RULES, seed)[:2]


def assemble_features(example: QAExample, model: PedantsModel) -> SparseVector:
    """The judge's input for one example: 7 type probs, 7 rule probs and the
    token scores (f1, p, r) against the best-F1 reference, then the tf-idf
    triple encoding."""
    prefix, _, triples = _encode_and_prefix([_prepare(example)], model)
    dim = DENSE_DIM + model.judge_vectorizer.dimension
    return SparseVector(dim, *_judge_input(prefix[0], triples[0]))


def _corpus_fingerprint(examples: Sequence[QAExample], seed: int) -> dict:
    digest = hashlib.sha256()
    for ex in examples:
        digest.update(json.dumps(ex.to_dict(), sort_keys=True).encode("utf-8"))
        digest.update(b"\n")
    return {"seed": seed, "corpus_sha256": digest.hexdigest()}


def train_pedants(train_set: Sequence[QAExample], seed: int = DEFAULT_SEED) -> PedantsModel:
    """Train the full bundle on examples annotated with label, rule, and type.

    Deterministic given (data, seed): retraining yields a byte-identical
    serialized bundle.
    """
    missing = [
        i
        for i, ex in enumerate(train_set)
        if ex.human_label is None or ex.rule is None or ex.qtype is None
    ]
    if missing:
        raise MissingAnnotations(missing)

    prepared = [_prepare(ex) for ex in train_set]
    # one triple vectorizer serves the rule extractor and the judge, and each
    # pair and triple is encoded once, for the fits and the judge's inputs
    type_vec, type_model, pairs = _fit_extractor(
        _pairs, prepared, [ex.qtype.code for ex in train_set], N_TYPES, seed
    )
    triple_vec, rule_model, triples = _fit_extractor(
        _triples, prepared, [ex.rule.code for ex in train_set], N_RULES, seed
    )

    # The judge's inputs come from the batch kernel that judging uses.
    weights = _weights(type_model, rule_model)
    prefix, _ = _prefix([p.scores for p in prepared], pairs, triples, weights)
    dim = DENSE_DIM + triple_vec.dimension
    data = [
        (SparseVector(dim, *_judge_input(row, triple)), int(ex.human_label))
        for row, triple, ex in zip(prefix, triples, train_set)
    ]
    # the texts and encodings are not needed by the judge's fit, where memory peaks
    del prepared, pairs, triples, prefix, weights
    judge_model = linear.train(data, seed, n_classes=2)

    return PedantsModel(
        type_vectorizer=type_vec,
        type_model=type_model,
        rule_vectorizer=triple_vec,
        rule_model=rule_model,
        judge_vectorizer=triple_vec,
        judge_model=judge_model,
        seed=seed,
        fingerprint=_corpus_fingerprint(train_set, seed),
    )


def _argmax(values: Sequence[float]) -> int:
    """Index of the largest value; ties resolve to the lowest index."""
    return max(range(len(values)), key=values.__getitem__)


def _question_type(question: str, type_probs: Sequence[float]) -> QuestionType:
    """Extractor argmax, with a wh-word fallback when the extractor is unsure.

    When the top probability is below 0.5, the earliest wh-word in the
    normalized question wins; a question with no wh-word defaults to "what".
    The fallback affects only the reported type, never the judge's input.
    """
    top = _argmax(type_probs)
    if type_probs[top] >= 0.5:
        return QuestionType.from_code(top)
    for tok in question.split():
        if tok in _WH_LOOKUP:
            return _WH_LOOKUP[tok]
    return QuestionType.WHAT


def judge_batch(examples: Sequence[QAExample], model: PedantsModel) -> list[Judgment]:
    """Run the full pipeline on a batch of examples.

    Each example is prepared and encoded alone; the three linear models
    score the whole batch at once, and each row gets the same bits as in a
    batch of any other size.
    """
    if not examples:
        return []
    prepared = [_prepare(ex) for ex in examples]
    prefix, text_scores, _ = _encode_and_prefix(prepared, model)
    # the judge's scores: its prefix terms summed along each row, then the text
    scores = np.add.reduce(prefix[:, None, :] * model.judge_model.weights[:, :DENSE_DIM], axis=2)
    scores += text_scores
    probs = linear._softmax(scores)
    return [
        Judgment(
            correct=negative < positive,  # the argmax; a tie is the negative class
            confidence=positive,
            predicted_rule=RuleLabel.from_code(_argmax(row[N_TYPES : N_TYPES + N_RULES])),
            predicted_type=_question_type(p.question, row[:N_TYPES]),
            token_scores=p.scores,
            chosen_reference=p.ref_index,
        )
        for p, row, (negative, positive) in zip(prepared, prefix.tolist(), probs.tolist())
    ]


def judge(example: QAExample, model: PedantsModel) -> Judgment:
    """Run the full pipeline on one example: a batch of one, with the same
    bits as in any batch."""
    return judge_batch([example], model)[0]
