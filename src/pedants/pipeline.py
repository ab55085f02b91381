"""The rule- and type-aware answer-correctness judge.

A two-stage pipeline: 7-class extractors predict question-type and
correctness-rule probability vectors, which are concatenated with token
precision/recall/F1 and a tf-idf encoding of (question, reference,
candidate) to feed a binary logistic-regression judge. A trained bundle is
immutable and safe to share across concurrent judging workers.

Judging and training share one feature path: each example is prepared once
(every string normalized once, the best reference chosen), and the
encoders and scorers pass index/value arrays. The public per-stage
functions (assemble_features, encode_*, predict_proba) wrap the same code.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from . import linear, vectorizer
from .errors import EmptyReferences, MissingAnnotations
from .linear import LinearModel, TrainConfig
from .metrics import PrfScores, _best_bag
from .textnorm import PEDANTS_POLICY, normalize, tokenize
from .vectorizer import SparseVector, TfidfModel

BUNDLE_FORMAT_VERSION = "1"

N_TYPES = 7
N_RULES = 7
N_TOKEN_SCORES = 3
# Dense prefix of every assembled vector: type probs, rule probs, (f1, p, r).
DENSE_DIM = N_TYPES + N_RULES + N_TOKEN_SCORES


class QuestionType(Enum):
    """The seven wh-categories a question can fall into. Codes 0..6 follow
    declaration order."""

    WHO = "who"
    WHY = "why"
    HOW = "how"
    WHAT = "what"
    WHEN = "when"
    WHERE = "where"
    WHICH = "which"

    @property
    def code(self) -> int:
        return _TYPE_CODE[self]

    @classmethod
    def from_code(cls, code: int) -> "QuestionType":
        return _TYPE_ORDER[code]


_TYPE_ORDER = list(QuestionType)
_TYPE_CODE = {t: i for i, t in enumerate(_TYPE_ORDER)}
_WH_LOOKUP = {t.value: t for t in QuestionType}


class RuleLabel(Enum):
    """The seven answer-correctness rules. Codes 0..6 follow declaration
    order (R1..R7)."""

    R1 = "R1"  # entity aliasing
    R2 = "R2"  # numerical information
    R3 = "R3"  # less details
    R4 = "R4"  # more details
    R5 = "R5"  # semantic equivalence
    R6 = "R6"  # irrelevant information
    R7 = "R7"  # other possible answers

    @property
    def code(self) -> int:
        return _RULE_CODE[self]

    @classmethod
    def from_code(cls, code: int) -> "RuleLabel":
        return _RULE_ORDER[code]


_RULE_ORDER = list(RuleLabel)
_RULE_CODE = {r: i for i, r in enumerate(_RULE_ORDER)}


@dataclass
class QAExample:
    """One judging instance: a question, reference answer(s), a candidate."""

    question: str
    references: tuple[str, ...]
    candidate: str
    human_label: bool | None = None
    rule: RuleLabel | None = None
    qtype: QuestionType | None = None
    model_id: str | None = None
    dataset_id: str | None = None

    def __post_init__(self):
        self.references = tuple(self.references)
        if not self.references:
            raise EmptyReferences("a QAExample needs at least one reference answer")

    def to_dict(self) -> dict:
        out: dict = {
            "question": self.question,
            "references": list(self.references),
            "candidate": self.candidate,
        }
        if self.human_label is not None:
            out["label"] = int(self.human_label)
        if self.rule is not None:
            out["rule"] = self.rule.value
        if self.qtype is not None:
            out["qtype"] = self.qtype.value
        if self.model_id is not None:
            out["model_id"] = self.model_id
        if self.dataset_id is not None:
            out["dataset_id"] = self.dataset_id
        return out

    @classmethod
    def from_dict(cls, obj: dict) -> "QAExample":
        label = obj.get("label")
        return cls(
            question=obj["question"],
            references=tuple(obj["references"]),
            candidate=obj["candidate"],
            human_label=None if label is None else bool(label),
            rule=None if obj.get("rule") is None else RuleLabel(obj["rule"]),
            qtype=None if obj.get("qtype") is None else QuestionType(obj["qtype"]),
            model_id=obj.get("model_id"),
            dataset_id=obj.get("dataset_id"),
        )


@dataclass
class FeatureVector:
    """Assembled judge input: 7 type probs + 7 rule probs + 3 token scores +
    the tf-idf triple encoding."""

    type_probs: np.ndarray
    rule_probs: np.ndarray
    token_scores: PrfScores
    text: SparseVector

    @property
    def dimension(self) -> int:
        return DENSE_DIM + self.text.dimension

    def to_sparse(self) -> SparseVector:
        indices, values = _judge_input(
            self.type_probs,
            self.rule_probs,
            self.token_scores,
            np.asarray(self.text.indices, dtype=np.intp),
            np.asarray(self.text.values, dtype=np.float64),
        )
        return vectorizer._sparse(self.dimension, indices, values)


def _judge_input(
    type_probs: np.ndarray,
    rule_probs: np.ndarray,
    scores: PrfScores,
    text_indices: np.ndarray,
    text_values: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The judge's sparse input as index/value arrays: the nonzero entries of
    the dense prefix, then the tf-idf block shifted past it."""
    dense = np.concatenate((type_probs, rule_probs, (scores.f1, scores.precision, scores.recall)))
    nonzero = np.flatnonzero(dense)
    return (
        np.concatenate((nonzero, text_indices + DENSE_DIM)),
        np.concatenate((dense[nonzero], text_values)),
    )


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
    vocabularies each was fitted with."""

    type_vectorizer: TfidfModel
    type_model: LinearModel
    rule_vectorizer: TfidfModel
    rule_model: LinearModel
    judge_vectorizer: TfidfModel
    judge_model: LinearModel
    config: TrainConfig
    fingerprint: dict = field(default_factory=dict)
    format_version: str = BUNDLE_FORMAT_VERSION

    def __post_init__(self):
        if self.type_model.classes != N_TYPES or self.rule_model.classes != N_RULES:
            raise ValueError("extractors must be 7-class models")
        if self.judge_model.classes != 2:
            raise ValueError("final judge must be binary")
        checks = [
            (self.type_model.feature_dim, self.type_vectorizer.dimension, "type"),
            (self.rule_model.feature_dim, self.rule_vectorizer.dimension, "rule"),
            (self.judge_model.feature_dim, DENSE_DIM + self.judge_vectorizer.dimension, "judge"),
        ]
        for got, want, name in checks:
            if got != want:
                raise ValueError(f"{name} model dimension {got} != expected {want}")

    def to_dict(self) -> dict:
        return {
            "format_version": self.format_version,
            "config": self.config.to_dict(),
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
            return cls(
                type_vectorizer=TfidfModel.from_dict(data["type_extractor"]["vectorizer"]),
                type_model=LinearModel.from_dict(data["type_extractor"]["model"]),
                rule_vectorizer=TfidfModel.from_dict(data["rule_extractor"]["vectorizer"]),
                rule_model=LinearModel.from_dict(data["rule_extractor"]["model"]),
                judge_vectorizer=TfidfModel.from_dict(data["final_judge"]["vectorizer"]),
                judge_model=LinearModel.from_dict(data["final_judge"]["model"]),
                config=TrainConfig.from_dict(data["config"]),
                fingerprint=data.get("fingerprint", {}),
                format_version=version,
            )
        except TypeError as exc:  # a section that is not an object
            raise ValueError(f"malformed bundle: {exc}") from exc

    def to_json(self) -> str:
        # sort_keys + compact separators keep serialization byte-reproducible
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def save(self, path: str | Path) -> None:
        from .io import open_atomic  # io imports this module

        with open_atomic(path) as handle:
            handle.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "PedantsModel":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


class _Prepared(NamedTuple):
    """One example with each string normalized once (PEDANTS_POLICY), and
    the texts its encoders read."""

    question: str
    ref_index: int
    scores: PrfScores  # token scores against the best-F1 reference
    pair: str  # "[CLS] q [SEP] ref"
    triple: str  # "[CLS] q [SEP] ref [SEP] candidate"


def _prepare(example: QAExample) -> _Prepared:
    question = normalize(example.question, PEDANTS_POLICY)
    candidate = normalize(example.candidate, PEDANTS_POLICY)
    references = [normalize(ref, PEDANTS_POLICY) for ref in example.references]
    ref_idx, scores = _best_bag(tokenize(candidate), [tokenize(ref) for ref in references])
    ref = references[ref_idx]
    return _Prepared(
        question,
        ref_idx,
        scores,
        vectorizer._pair_text(question, ref),
        vectorizer._triple_text(question, ref, candidate),
    )


class _Extractors(NamedTuple):
    """The fitted parts of a bundle that feed the judge; a PedantsModel
    carries the same attributes."""

    type_vectorizer: TfidfModel
    type_model: LinearModel
    rule_vectorizer: TfidfModel
    rule_model: LinearModel
    judge_vectorizer: TfidfModel


def _extract(
    prepared: _Prepared, parts: _Extractors | PedantsModel
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Type probs, rule probs, and the judge's tf-idf block as index/value
    arrays. The triple is split once for the rule and judge vectorizers."""
    triple = prepared.triple.split()
    type_probs = linear._proba(
        parts.type_model, *vectorizer._tfidf(prepared.pair.split(), parts.type_vectorizer)
    )
    rule_probs = linear._proba(parts.rule_model, *vectorizer._tfidf(triple, parts.rule_vectorizer))
    return type_probs, rule_probs, vectorizer._tfidf(triple, parts.judge_vectorizer)


def _fit_extractor(
    texts: list[str], labels: list[int], n_classes: int, config: TrainConfig
) -> tuple[TfidfModel, LinearModel]:
    tfidf = vectorizer.fit(texts)
    data = [(vectorizer.transform(text, tfidf), y) for text, y in zip(texts, labels)]
    return tfidf, linear.train(data, config, n_classes=n_classes)


def train_type_extractor(
    examples: Sequence[tuple[str, str, QuestionType]], config: TrainConfig = TrainConfig()
) -> tuple[TfidfModel, LinearModel]:
    """Fit a tf-idf vocabulary on (q, a) pair texts and train the 7-class
    question-type classifier."""
    return _fit_extractor(
        [vectorizer.build_pair_text(q, a) for q, a, _ in examples],
        [qtype.code for _, _, qtype in examples],
        N_TYPES,
        config,
    )


def train_rule_extractor(
    examples: Sequence[tuple[str, str, str, RuleLabel]], config: TrainConfig = TrainConfig()
) -> tuple[TfidfModel, LinearModel]:
    """Fit a tf-idf vocabulary on (q, a, candidate) triple texts and train
    the 7-class correctness-rule classifier."""
    return _fit_extractor(
        [vectorizer.build_triple_text(q, a, cand) for q, a, cand, _ in examples],
        [rule.code for _, _, _, rule in examples],
        N_RULES,
        config,
    )


def assemble_features(example: QAExample, model: PedantsModel) -> FeatureVector:
    """Feature vector for one example: token scores against the best-F1
    reference, extractor probability blocks, and the triple encoding."""
    prepared = _prepare(example)
    type_probs, rule_probs, text = _extract(prepared, model)
    return FeatureVector(
        type_probs,
        rule_probs,
        prepared.scores,
        vectorizer._sparse(model.judge_vectorizer.dimension, *text),
    )


def _corpus_fingerprint(examples: Sequence[QAExample], config: TrainConfig) -> dict:
    digest = hashlib.sha256()
    for ex in examples:
        digest.update(json.dumps(ex.to_dict(), sort_keys=True).encode("utf-8"))
        digest.update(b"\n")
    return {"seed": config.seed, "corpus_sha256": digest.hexdigest()}


def train_pedants(
    train_set: Sequence[QAExample], config: TrainConfig = TrainConfig()
) -> PedantsModel:
    """Train the full bundle on examples annotated with label, rule, and type.

    Deterministic given (data, config): retraining yields a byte-identical
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
    type_vec, type_model = _fit_extractor(
        [p.pair for p in prepared], [ex.qtype.code for ex in train_set], N_TYPES, config
    )
    rule_vec, rule_model = _fit_extractor(
        [p.triple for p in prepared], [ex.rule.code for ex in train_set], N_RULES, config
    )
    judge_vec = vectorizer.fit([p.triple for p in prepared])

    # Judge training reuses the exact feature path used at inference time.
    parts = _Extractors(type_vec, type_model, rule_vec, rule_model, judge_vec)
    dim = DENSE_DIM + judge_vec.dimension
    data = []
    for p, ex in zip(prepared, train_set):
        type_probs, rule_probs, text = _extract(p, parts)
        x = _judge_input(type_probs, rule_probs, p.scores, *text)
        data.append((vectorizer._sparse(dim, *x), int(ex.human_label)))
    del prepared  # the texts are not needed by the judge's fit, where memory peaks
    judge_model = linear.train(data, config, n_classes=2)

    return PedantsModel(
        type_vectorizer=type_vec,
        type_model=type_model,
        rule_vectorizer=rule_vec,
        rule_model=rule_model,
        judge_vectorizer=judge_vec,
        judge_model=judge_model,
        config=config,
        fingerprint=_corpus_fingerprint(train_set, config),
    )


def _question_type(question: str, type_probs: np.ndarray) -> QuestionType:
    top = int(np.argmax(type_probs))
    if type_probs[top] >= 0.5:
        return QuestionType.from_code(top)
    for tok in question.split():
        if tok in _WH_LOOKUP:
            return _WH_LOOKUP[tok]
    return QuestionType.WHAT


def predicted_question_type(question: str, type_probs: np.ndarray) -> QuestionType:
    """Extractor argmax, with a wh-word fallback when the extractor is unsure.

    When the top probability is below 0.5, the earliest wh-word in the
    question wins; a question with no wh-word defaults to "what". The
    fallback affects only the reported type, never the feature vector.
    """
    return _question_type(normalize(question, PEDANTS_POLICY), type_probs)


def judge(example: QAExample, model: PedantsModel) -> Judgment:
    """Run the full pipeline on one example."""
    prepared = _prepare(example)
    type_probs, rule_probs, text = _extract(prepared, model)
    probs = linear._proba(
        model.judge_model, *_judge_input(type_probs, rule_probs, prepared.scores, *text)
    )
    return Judgment(
        correct=int(np.argmax(probs)) == 1,
        confidence=float(probs[1]),
        predicted_rule=RuleLabel.from_code(int(np.argmax(rule_probs))),
        predicted_type=_question_type(prepared.question, type_probs),
        token_scores=prepared.scores,
        chosen_reference=prepared.ref_index,
    )
