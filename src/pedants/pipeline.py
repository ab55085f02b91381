"""The rule- and type-aware answer-correctness judge.

A two-stage pipeline: 7-class extractors predict question-type and
correctness-rule probability vectors, which are concatenated with token
precision/recall/F1 and a tf-idf encoding of (question, reference,
candidate) to feed a binary logistic-regression judge. A trained bundle is
immutable and safe to share across concurrent judging workers.

Judging and training share one feature path: each example is prepared once
(each string normalized once into its token list, the best reference
chosen), and its pair and triple are built from those lists and encoded
once (one triple vectorizer serves the rule extractor and the judge). A
block's pairs, then its triples, are one flat batch, scored by one gather
and one ``reduceat`` against one stacked kernel (``_stack``). ``judge`` is
``judge_batch`` of one example, with the same bits, and ``assemble_features``
and the judge's training inputs come from the same block code.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from . import linear, vectorizer
from .errors import MissingAnnotations
from .io import QAExample, QuestionType, RuleLabel, open_atomic
from .linear import DEFAULT_SEED, LinearModel
from .metrics import PrfScores, _best_bag
from .textnorm import PEDANTS_POLICY, bag, tokens
from .vectorizer import Batch, SparseVector, TfidfModel

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
    def _kernel(self) -> np.ndarray:
        """The stacked weights judging gathers from (``_stack``), built on
        first use, so a bundle that is only loaded, or trained and saved,
        holds no copy."""
        return _stack(self.type_model, self.rule_model, self.judge_model)

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
    """One example with each string normalized once (PEDANTS_POLICY) into
    its token list, and its best reference chosen; its encoders' token lists
    are built from these where they are encoded."""

    question: list[str]
    references: list[list[str]]
    candidate: list[str]
    ref_index: int  # the best-F1 reference
    scores: PrfScores  # token scores against that reference


def _prepare(example: QAExample) -> _Prepared:
    question = tokens(example.question, PEDANTS_POLICY)
    candidate = tokens(example.candidate, PEDANTS_POLICY)
    references = [tokens(ref, PEDANTS_POLICY) for ref in example.references]
    ref_idx, scores = _best_bag(bag(candidate), [bag(ref) for ref in references])
    return _Prepared(question, references, candidate, ref_idx, scores)


def _stack(
    type_model: LinearModel, rule_model: LinearModel, judge_model: LinearModel | None = None
) -> np.ndarray:
    """The weights a block of pairs, then triples, is scored with: the
    ``linear._kernel_weights`` rows of the type extractor, then those of the
    rule extractor with, when given, the judge's triple columns and bias
    beside them (zero beside the type extractor's). Written in place, so
    building it takes no more memory than it holds."""
    split = type_model.feature_dim + 1
    cols = N_RULES if judge_model is None else N_RULES + judge_model.classes
    kernel = np.zeros((split + rule_model.feature_dim + 1, cols))
    kernel[: split - 1, :N_TYPES] = type_model.weights.T
    kernel[split - 1, :N_TYPES] = type_model.bias
    kernel[split:-1, :N_RULES] = rule_model.weights.T
    kernel[-1, :N_RULES] = rule_model.bias
    if judge_model is not None:
        kernel[split:-1, N_RULES:] = judge_model.weights[:, DENSE_DIM:].T
        kernel[-1, N_RULES:] = judge_model.bias
    return kernel


def _prefix(scores: np.ndarray, token_scores: Sequence[PrfScores]) -> np.ndarray:
    """The (rows, 17) dense prefix of a block from its pairs' and then its
    triples' scores: type probs, rule probs and (f1, p, r)."""
    n = len(token_scores)
    prefix = np.empty((n, DENSE_DIM))
    prefix[:, :N_TYPES] = scores[:n, :N_TYPES]
    prefix[:, N_TYPES : N_TYPES + N_RULES] = scores[n:, :N_RULES]
    linear._softmax(prefix[:, : N_TYPES + N_RULES].reshape(n, 2, N_TYPES))
    prefix[:, N_TYPES + N_RULES :] = [(s.f1, s.precision, s.recall) for s in token_scores]
    return prefix


def _score(prepared: Sequence[_Prepared], model: PedantsModel) -> tuple[Batch, np.ndarray]:
    """The block of prepared examples' pairs, then triples, and its scores
    under the model's stacked kernel."""
    pairs = [vectorizer._pair(p.question, p.references[p.ref_index]) for p in prepared]
    triples = [vectorizer._triple(pair, p.candidate) for pair, p in zip(pairs, prepared)]
    block = vectorizer._encode((pairs, model.type_vectorizer), (triples, model.judge_vectorizer))
    return block, linear._scores(model._kernel, block)


def _judge_input(prefix: np.ndarray, triple: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The judge's input: the nonzero entries of the dense prefix, then the
    triple's block shifted past it."""
    cols = np.flatnonzero(prefix)
    return np.concatenate((cols, triple[0] + DENSE_DIM)), np.concatenate((prefix[cols], triple[1]))


def _fit_extractor(
    docs: list[list[str]], labels: list[int], n_classes: int, seed: int
) -> tuple[TfidfModel, LinearModel, Batch]:
    """Fit a vocabulary on token lists, encode them in one block and train
    on views of its rows; returns the vocabulary, the model and the block."""
    tfidf = vectorizer.fit(docs)
    block = vectorizer._encode((docs, tfidf))
    model = linear.train(vectorizer._rows(block), labels, tfidf.dimension, n_classes, seed)
    return tfidf, model, block


def train_type_extractor(
    examples: Sequence[tuple[str, str, QuestionType]], seed: int = DEFAULT_SEED
) -> tuple[TfidfModel, LinearModel]:
    """Fit a tf-idf vocabulary on (q, a) pairs and train the 7-class
    question-type classifier."""
    rows = ([tokens(text, PEDANTS_POLICY) for text in ex[:2]] for ex in examples)
    docs = [vectorizer._pair(q, a) for q, a in rows]
    return _fit_extractor(docs, [qtype.code for *_, qtype in examples], N_TYPES, seed)[:2]


def train_rule_extractor(
    examples: Sequence[tuple[str, str, str, RuleLabel]], seed: int = DEFAULT_SEED
) -> tuple[TfidfModel, LinearModel]:
    """Fit a tf-idf vocabulary on (q, a, candidate) triples and train the
    7-class correctness-rule classifier."""
    rows = ([tokens(text, PEDANTS_POLICY) for text in ex[:3]] for ex in examples)
    docs = [vectorizer._triple(vectorizer._pair(q, a), c) for q, a, c in rows]
    return _fit_extractor(docs, [rule.code for *_, rule in examples], N_RULES, seed)[:2]


def assemble_features(example: QAExample, model: PedantsModel) -> SparseVector:
    """The judge's input for one example: 7 type probs, 7 rule probs and the
    token scores (f1, p, r) against the best-F1 reference, then the tf-idf
    triple encoding."""
    prepared = _prepare(example)
    (indices, values, starts), scores = _score([prepared], model)
    # the triple's entries, without its bias entry, in its vectorizer's columns
    shift = model.type_vectorizer.dimension + 1
    triple = indices[starts[1] : -1] - shift, values[starts[1] : -1]
    dim = DENSE_DIM + model.judge_vectorizer.dimension
    return SparseVector(dim, *_judge_input(_prefix(scores, [prepared.scores])[0], triple))


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

    # one object per distinct token keeps the corpus's documents small
    canon: dict[str, str] = {}
    pairs, triples, token_scores = [], [], []
    for p in map(_prepare, train_set):
        chosen = (p.question, p.references[p.ref_index], p.candidate)
        question, reference, candidate = ([canon.setdefault(t, t) for t in f] for f in chosen)
        pairs.append(vectorizer._pair(question, reference))
        triples.append(vectorizer._triple(pairs[-1], candidate))
        token_scores.append(p.scores)
    del canon
    # one triple vectorizer serves the rule extractor and the judge, and each
    # pair and triple is encoded once, for the fits and the judge's inputs
    labels = [ex.qtype.code for ex in train_set]
    type_vec, type_model, pairs = _fit_extractor(pairs, labels, N_TYPES, seed)
    labels = [ex.rule.code for ex in train_set]
    triple_vec, rule_model, triples = _fit_extractor(triples, labels, N_RULES, seed)

    # The judge's inputs come from the stacked kernel that judging uses: the
    # pairs' block reads its leading rows, the triples' block those after.
    kernel = _stack(type_model, rule_model)
    scores = np.concatenate(
        (linear._scores(kernel, pairs), linear._scores(kernel[type_vec.dimension + 1 :], triples))
    )
    prefix = _prefix(scores, token_scores)
    inputs = [_judge_input(row, triple) for row, triple in zip(prefix, vectorizer._rows(triples))]
    # the encodings are not needed by the judge's fit, where memory peaks
    del pairs, triples, kernel, scores, prefix
    labels = [int(ex.human_label) for ex in train_set]
    judge_model = linear.train(inputs, labels, DENSE_DIM + triple_vec.dimension, 2, seed)

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


def _question_type(question: Sequence[str], type_probs: Sequence[float]) -> QuestionType:
    """Extractor argmax, with a wh-word fallback when the extractor is unsure.

    When the top probability is below 0.5, the earliest wh-word among the
    normalized question's tokens wins; a question with no wh-word defaults
    to "what". The fallback affects only the reported type, never the
    judge's input.
    """
    top = _argmax(type_probs)
    if type_probs[top] >= 0.5:
        return QuestionType.from_code(top)
    for tok in question:
        if tok in _WH_LOOKUP:
            return _WH_LOOKUP[tok]
    return QuestionType.WHAT


def _judgments(prepared: Sequence[_Prepared], model: PedantsModel) -> list[Judgment]:
    """The judgments of prepared examples: one block, encoded once and
    scored by one gather, and each row gets the same bits as in a block of
    any other size."""
    if not prepared:
        return []
    block, scores = _score(prepared, model)
    prefix = _prefix(scores, [p.scores for p in prepared])
    # the judge's scores: its prefix terms summed along each row, then the text
    dense = prefix[:, None, :] * model.judge_model.weights[:, :DENSE_DIM]
    judge_scores = np.add.reduce(dense, axis=2)
    judge_scores += scores[len(prepared) :, N_RULES:]
    probs = linear._softmax(judge_scores)
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


def judge_batch(examples: Sequence[QAExample], model: PedantsModel) -> list[Judgment]:
    """Run the full pipeline on a batch of examples: each is prepared alone,
    and the three linear models score the whole batch at once."""
    return _judgments([_prepare(ex) for ex in examples], model)


def judge(example: QAExample, model: PedantsModel) -> Judgment:
    """Run the full pipeline on one example: a batch of one, with the same
    bits as in any batch."""
    return judge_batch([example], model)[0]
