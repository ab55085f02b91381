"""The rule- and type-aware answer-correctness judge.

A two-stage pipeline: 7-class extractors predict question-type and
correctness-rule probability vectors, which are concatenated with token
precision/recall/F1 and a tf-idf encoding of (question, reference,
candidate) to feed a binary logistic-regression judge. A trained bundle is
frozen, each fitted fact held once, and safe to share across judging workers.

Judging and training share one feature path: each example is prepared once
(each string normalized once into its token list, the best reference
chosen), and its pair and triple are built from those lists and encoded
once (one triple vectorizer serves the rule extractor and the judge). A
block's pairs, then its triples, are one ``vectorizer.Batch``, the one
sparse-row type, scored by one gather and one ``reduceat`` against one
stacked kernel (``_stack``); ``judge`` is ``judge_batch`` of one example.
``train_pedants`` fits the extractors through ``train_type_extractor`` and
``train_rule_extractor``, each on its documents' block, and
``_judge_block`` builds the judge's inputs, also the one-row ``Batch`` of
``assemble_features``.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from . import linear, vectorizer
from .errors import MissingAnnotations, SingleClassCorpus
from .io import QAExample, QuestionType, RuleLabel, open_atomic
from .linear import DEFAULT_SEED, LinearModel
from .metrics import PrfScores, _best_tokens
from .textnorm import PEDANTS_POLICY, tokens
from .vectorizer import Batch, TfidfModel, check_count

BUNDLE_FORMAT_VERSION = "1"
# A bundle's sections, in the order of a model's fields.
_SECTIONS = ("type_extractor", "rule_extractor", "final_judge")

N_TYPES = len(QuestionType)
N_RULES = len(RuleLabel)
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


@dataclass(frozen=True)
class PedantsModel:
    """The full judging bundle: two extractors, the final judge, and the
    vocabularies each was fitted with, all trained with ``seed``. The rule
    extractor and the judge read one triple vectorizer, ``rule_vectorizer``."""

    type_vectorizer: TfidfModel
    type_model: LinearModel
    rule_vectorizer: TfidfModel
    rule_model: LinearModel
    judge_model: LinearModel
    seed: int
    fingerprint: dict = field(default_factory=dict)

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
            (self.judge_model.feature_dim, DENSE_DIM + self.rule_vectorizer.dimension, "judge"),
        ]
        for got, want, name in checks:
            if got != want:
                raise ValueError(f"{name} model dimension {got} != expected {want}")
        seed = self.fingerprint.get("seed", check_count(self.seed, "training config seed"))
        if type(seed) is not int or seed != self.seed:
            raise ValueError(f"fingerprint: seed {seed!r} differs from config seed {self.seed}")

    @property
    def judge_vectorizer(self) -> TfidfModel:
        """The judge's text vectorizer: the rule extractor's triple vectorizer."""
        return self.rule_vectorizer

    @functools.cached_property
    def _kernel(self) -> np.ndarray:
        """The stacked weights judging gathers from (``_stack``), built on
        first use, so a bundle that is only loaded, or trained and saved,
        holds no copy."""
        return _stack(self.type_model, self.rule_model, self.judge_model)

    @functools.cached_property
    def _dense_weights(self) -> np.ndarray:
        """The judge's (2, 17) weights of the dense prefix, copied once on
        first use, so no block slices them again."""
        return np.ascontiguousarray(self.judge_model.weights[:, :DENSE_DIM])

    def to_dict(self) -> dict:
        out = {"format_version": BUNDLE_FORMAT_VERSION, "fingerprint": self.fingerprint}
        out["config"] = linear.config_dict(self.seed)
        vectorizers = (self.type_vectorizer, self.rule_vectorizer, self.rule_vectorizer)
        models = (self.type_model, self.rule_model, self.judge_model)
        for section, vec, model in zip(_SECTIONS, vectorizers, models):
            # each model's config states the bundle's seed again
            stored = {**model.to_dict(), "config": linear.config_dict(self.seed)}
            out[section] = {"vectorizer": vec.to_dict(), "model": stored}
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "PedantsModel":
        version = data.get("format_version") if isinstance(data, dict) else None
        if version != BUNDLE_FORMAT_VERSION:
            raise ValueError(f"unsupported bundle format_version: {version!r}")
        try:
            seed = linear.config_seed(data["config"])
            parts = []
            for section in _SECTIONS:
                vec_data, model_data = data[section]["vectorizer"], data[section]["model"]
                parts += [TfidfModel.from_dict(vec_data), LinearModel.from_dict(model_data)]
                # every seed a bundle states is the one it was trained with
                stated = linear.config_seed(model_data["config"])
                if stated != seed:
                    raise ValueError(
                        f"{section}.model.config: seed {stated!r} differs from config seed {seed}"
                    )
            type_vec, type_model, rule_vec, rule_model, judge_vec, judge_model = parts
            if judge_vec != rule_vec:
                raise ValueError(
                    "rule and judge vectorizers differ; both must be the triple vectorizer"
                )
            fingerprint = data.get("fingerprint", {})
            return cls(type_vec, type_model, rule_vec, rule_model, judge_model, seed, fingerprint)
        except TypeError as exc:  # a section that is not an object
            raise ValueError(f"malformed bundle: {exc}") from exc
        except KeyError as exc:
            raise ValueError(f"missing field {exc}") from exc

    def save(self, path: str | Path) -> None:
        # sorted keys and compact separators keep the bytes reproducible; a
        # top-level section at a time bounds peak memory
        with open_atomic(path) as handle:
            for i, (key, value) in enumerate(sorted(self.to_dict().items())):
                handle.write(("," if i else "{") + json.dumps(key) + ":")
                handle.write(json.dumps(value, sort_keys=True, separators=(",", ":")))
            handle.write("}\n")

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
    ref_idx, scores = _best_tokens(candidate, references)
    return _Prepared(question, references, candidate, ref_idx, scores)


def _stack(
    type_model: LinearModel, rule_model: LinearModel, judge_model: LinearModel
) -> np.ndarray:
    """The weights a block of pairs, then triples, is scored with: the
    ``linear._kernel_weights`` rows of the type extractor, then those of the
    rule extractor with the judge's triple columns and bias beside them
    (zero beside the type extractor's). Written in place, so building it
    takes no more memory than it holds."""
    split = type_model.feature_dim + 1
    kernel = np.zeros((split + rule_model.feature_dim + 1, N_RULES + judge_model.classes))
    kernel[: split - 1, :N_TYPES] = type_model.weights.T
    kernel[split - 1, :N_TYPES] = type_model.bias
    kernel[split:-1, :N_RULES] = rule_model.weights.T
    kernel[-1, :N_RULES] = rule_model.bias
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
    block = vectorizer._encode((pairs, model.type_vectorizer), (triples, model.rule_vectorizer))
    return block, linear._scores(model._kernel, block)


def _judge_block(prefix: np.ndarray, triples: Batch) -> Batch:
    """The judge's inputs: each row's nonzero dense-prefix entries, then its
    triple's entries and bias entry shifted past the prefix."""
    keep = prefix != 0
    rows, cols = np.nonzero(keep)
    at = triples.starts[rows]
    kept = keep.sum(axis=1)
    return Batch(
        np.insert(triples.indices + DENSE_DIM, at, cols),
        np.insert(triples.values, at, prefix[keep]),
        triples.starts + (np.cumsum(kept) - kept),
    )


def _fit_extractor(
    docs: list[list[str]], labels: Sequence[QuestionType | RuleLabel], n_classes: int, seed: int
) -> tuple[TfidfModel, LinearModel, Batch]:
    """Fit a vocabulary on token lists, encode them in one block and train
    on it and the labels' codes; returns the vocabulary, the model and the
    block."""
    tfidf = vectorizer.fit(docs)
    block = vectorizer._encode((docs, tfidf))
    model = linear.train(block, [label.code for label in labels], n_classes, seed)
    return tfidf, model, block


def train_type_extractor(
    pairs: list[list[str]], qtypes: Sequence[QuestionType], seed: int = DEFAULT_SEED
) -> tuple[TfidfModel, LinearModel, Batch]:
    """Fit a tf-idf vocabulary on pairs, "[CLS] q [SEP] a" token lists
    (``vectorizer._pair``), and train the 7-class question-type classifier."""
    return _fit_extractor(pairs, qtypes, N_TYPES, seed)


def train_rule_extractor(
    triples: list[list[str]], rules: Sequence[RuleLabel], seed: int = DEFAULT_SEED
) -> tuple[TfidfModel, LinearModel, Batch]:
    """Fit a tf-idf vocabulary on triples, "[CLS] q [SEP] a [SEP] candidate"
    token lists (``vectorizer._triple``), and train the 7-class
    correctness-rule classifier."""
    return _fit_extractor(triples, rules, N_RULES, seed)


def assemble_features(example: QAExample, model: PedantsModel) -> Batch:
    """The judge's input for one example as a one-row ``Batch``: the nonzero
    of 7 type probs, 7 rule probs and the token scores (f1, p, r) against the
    best-F1 reference, then the tf-idf triple encoding and the bias entry."""
    prepared = _prepare(example)
    block, scores = _score([prepared], model)
    # the triple's row, in its vectorizer's columns
    start, shift = block.starts[1], model.type_vectorizer.dimension + 1
    triple = Batch(block.indices[start:] - shift, block.values[start:], np.zeros(1, np.intp))
    return _judge_block(_prefix(scores, [prepared.scores]), triple)


def _corpus_fingerprint(examples: Sequence[QAExample], seed: int) -> dict:
    import hashlib  # here, its one user, so that judging does not load it

    digest = hashlib.sha256()
    for ex in examples:
        digest.update(json.dumps(ex.to_dict(), sort_keys=True).encode("utf-8"))
        digest.update(b"\n")
    return {"seed": seed, "corpus_sha256": digest.hexdigest()}


def train_pedants(train_set: Sequence[QAExample], seed: int = DEFAULT_SEED) -> PedantsModel:
    """Train the full bundle on examples annotated with label, rule, and type.

    Deterministic given (data, seed): retraining yields a byte-identical
    serialized bundle. Raises MissingAnnotations naming the examples that
    lack one of the three, and SingleClassCorpus naming a field, qtype, rule
    or label, whose one value every example has.
    """
    missing = [
        i
        for i, ex in enumerate(train_set)
        if ex.human_label is None or ex.rule is None or ex.qtype is None
    ]
    if missing:
        raise MissingAnnotations(missing)
    qtypes, rules = [ex.qtype for ex in train_set], [ex.rule for ex in train_set]
    labels = [int(ex.human_label) for ex in train_set]
    for name, values in (("qtype", qtypes), ("rule", rules), ("label", labels)):
        if len(set(values)) == 1:  # the value as a record writes it, not its class code
            one = getattr(values[0], "value", values[0])
            raise SingleClassCorpus(f"every example has {name} {one!r}; need at least 2 classes")

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
    type_vec, type_model, pairs = train_type_extractor(pairs, qtypes, seed)
    triple_vec, rule_model, triples = train_rule_extractor(triples, rules, seed)

    # each extractor's kernel holds its rows of the stacked kernel judging uses
    kernels = [linear._kernel_weights(m.weights, m.bias) for m in (type_model, rule_model)]
    scores = np.concatenate([linear._scores(k, b) for k, b in zip(kernels, (pairs, triples))])
    inputs = _judge_block(_prefix(scores, token_scores), triples)
    # the encodings are not needed by the judge's fit, where memory peaks
    del pairs, triples, kernels, scores
    judge_model = linear.train(inputs, labels, 2, seed)

    models = type_vec, type_model, triple_vec, rule_model, judge_model
    return PedantsModel(*models, seed, _corpus_fingerprint(train_set, seed))


def _question_type(question: Sequence[str], type_probs: Sequence[float]) -> QuestionType:
    """Extractor argmax, with a wh-word fallback when the extractor is unsure.

    When the top probability is below 0.5, the earliest wh-word among the
    normalized question's tokens wins; a question with no wh-word defaults
    to "what". The fallback affects only the reported type, never the
    judge's input.
    """
    top = type_probs.index(max(type_probs))  # a tie goes to the lowest index
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
    dense = prefix[:, None, :] * model._dense_weights
    judge_scores = np.add.reduce(dense, axis=2)
    judge_scores += scores[len(prepared) :, N_RULES:]
    probs = linear._softmax(judge_scores)
    return [
        Judgment(
            correct=negative < positive,  # the argmax; a tie is the negative class
            confidence=positive,
            predicted_rule=RuleLabel.from_code(rules.index(max(rules))),  # ties: the lowest
            predicted_type=_question_type(p.question, row[:N_TYPES]),
            token_scores=p.scores,
            chosen_reference=p.ref_index,
        )
        for p, row, (negative, positive) in zip(prepared, prefix.tolist(), probs.tolist())
        for rules in [row[N_TYPES : N_TYPES + N_RULES]]
    ]


def judge_batch(examples: Sequence[QAExample], model: PedantsModel) -> list[Judgment]:
    """Run the full pipeline on a batch of examples: each is prepared alone,
    and the three linear models score the whole batch at once."""
    return _judgments([_prepare(ex) for ex in examples], model)


def judge(example: QAExample, model: PedantsModel) -> Judgment:
    """Run the full pipeline on one example: ``judge_batch``'s body on a
    batch of one, with the same bits as in any batch."""
    return _judgments([_prepare(example)], model)[0]
