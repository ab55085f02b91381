"""TF-IDF encoding of questions and answer pairs/triples.

Vocabulary fitting is deterministic (tokens sorted lexicographically), idf
uses the smoothed form ln((1+N)/(1+df)) + 1, and encoded vectors are
L2-normalized. Question/answer segments are joined with literal "[CLS]" and
"[SEP]" marker tokens, which live in the vocabulary like any other token.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import EmptyCorpus
from .textnorm import PEDANTS_POLICY, NormPolicy, normalize

CLS_TOKEN = "[CLS]"
SEP_TOKEN = "[SEP]"

FORMAT_VERSION = 1

_NO_INDICES = np.empty(0, dtype=np.intp)
_NO_VALUES = np.empty(0, dtype=np.float64)


@dataclass(frozen=True)
class TfidfConfig:
    min_df: int = 1

    def __post_init__(self):
        if self.min_df < 1:
            raise ValueError(f"vectorizer config min_df must be at least 1, got {self.min_df!r}")


@dataclass(frozen=True, eq=False)
class SparseVector:
    """Sorted (index, weight) pairs in a fixed-dimension space.

    ``indices`` (intp) and ``values`` (float64) are read-only numpy arrays,
    copied from the arguments and checked once: aligned, indices strictly
    increasing in [0, dimension), values finite.
    """

    dimension: int
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        indices = np.array(self.indices, dtype=np.intp)
        values = np.array(self.values, dtype=np.float64)
        if indices.ndim != 1 or indices.shape != values.shape:
            raise ValueError("indices and values must align")
        if indices.size and (
            indices[0] < 0 or indices[-1] >= self.dimension or (np.diff(indices) <= 0).any()
        ):
            raise ValueError(f"indices out of order or out of range [0, {self.dimension})")
        if not np.isfinite(values).all():
            raise ValueError("weights must be finite")
        indices.flags.writeable = values.flags.writeable = False
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "values", values)

    def __eq__(self, other):
        if not isinstance(other, SparseVector):
            return NotImplemented
        return (
            self.dimension == other.dimension
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.values, other.values)
        )

    def norm(self) -> float:
        return math.sqrt(float(self.values @ self.values))

    @property
    def nnz(self) -> int:
        return self.indices.size


@dataclass
class TfidfModel:
    """Fitted vocabulary and idf weights; immutable once fitted."""

    vocabulary: dict[str, int]
    idf: list[float]
    doc_count: int
    config: TfidfConfig = field(default_factory=TfidfConfig)

    @property
    def dimension(self) -> int:
        return len(self.vocabulary)

    def to_dict(self) -> dict:
        # vocab list is ordered by column index, so the mapping round-trips
        vocab = [None] * len(self.vocabulary)
        for tok, col in self.vocabulary.items():
            vocab[col] = tok
        return {
            "version": FORMAT_VERSION,
            # idf smoothing and L2 normalization are fixed; the bundle states both
            "config": {"smooth_idf": True, "l2_normalize": True, "min_df": self.config.min_df},
            "vocab": vocab,
            "idf": list(self.idf),
            "doc_count": self.doc_count,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TfidfModel":
        """Load a fitted model, rejecting one no fit could have produced."""
        version = data.get("version") if isinstance(data, dict) else None
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported vectorizer format: {version!r}")
        vocab = data["vocab"]
        if not isinstance(vocab, list) or not all(isinstance(tok, str) for tok in vocab):
            raise ValueError("vectorizer vocabulary must be an array of strings")
        try:
            cfg = data["config"]
            idf = np.array(data["idf"], dtype=np.float64)  # a null reads as NaN
            doc_count = int(data["doc_count"])
            min_df = cfg["min_df"]
            fixed = cfg["smooth_idf"] is True and cfg["l2_normalize"] is True
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"malformed vectorizer: {exc}") from exc
        try:
            min_df = int(min_df)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed vectorizer config min_df: {exc}") from exc
        if not fixed:
            raise ValueError("vectorizer must use smoothed idf and L2 normalization")
        if idf.shape != (len(vocab),):
            raise ValueError(f"vectorizer has {idf.size} idf weights for {len(vocab)} tokens")
        vocabulary = {tok: i for i, tok in enumerate(vocab)}
        if len(vocabulary) != len(vocab):
            raise ValueError("vectorizer vocabulary has duplicate tokens")
        if not (np.isfinite(idf).all() and (idf > 0).all()):
            raise ValueError("vectorizer idf weights must be finite and positive")
        return cls(
            vocabulary=vocabulary, idf=idf.tolist(), doc_count=doc_count,
            config=TfidfConfig(min_df=min_df),
        )


def fit(corpus: list[str], config: TfidfConfig = TfidfConfig()) -> TfidfModel:
    """Fit vocabulary and idf weights on whitespace-tokenized documents.

    Documents are expected to be normalized already (see the encode helpers);
    fitting itself only splits on whitespace.
    """
    if not corpus:
        raise EmptyCorpus("cannot fit a tf-idf model on an empty corpus")
    df: Counter[str] = Counter()
    for doc in corpus:
        df.update(set(doc.split()))
    n_docs = len(corpus)
    tokens = sorted(tok for tok, count in df.items() if count >= config.min_df)
    vocabulary = {tok: i for i, tok in enumerate(tokens)}
    idf = [math.log((1 + n_docs) / (1 + df[tok])) + 1.0 for tok in tokens]
    return TfidfModel(vocabulary=vocabulary, idf=idf, doc_count=n_docs, config=config)


def _tfidf(tokens: Sequence[str], model: TfidfModel) -> tuple[np.ndarray, np.ndarray]:
    """tf x idf of a token list as sorted column indices and their weights.

    Out-of-vocabulary tokens are dropped; with no in-vocabulary token both
    arrays are empty (the zero vector, left unnormalized). The squared
    weights are summed in index order, so a document always encodes to the
    same bits.
    """
    vocab = model.vocabulary
    counts: dict[int, int] = {}
    for tok in tokens:
        col = vocab.get(tok)
        if col is not None:
            counts[col] = counts.get(col, 0) + 1
    if not counts:
        return _NO_INDICES, _NO_VALUES
    indices = sorted(counts)
    idf = model.idf
    values = [counts[i] * idf[i] for i in indices]
    norm = math.sqrt(sum(v * v for v in values))
    values = [v / norm for v in values]
    return np.array(indices, dtype=np.intp), np.array(values, dtype=np.float64)


def transform(text: str, model: TfidfModel) -> SparseVector:
    """Encode one whitespace-tokenized document as tf x idf, L2-normalized.

    Out-of-vocabulary tokens are dropped; a document with no in-vocabulary
    tokens encodes to the zero vector, which is left unnormalized.
    """
    return SparseVector(model.dimension, *_tfidf(text.split(), model))


def _pair_text(question: str, answer: str) -> str:
    """The "[CLS] q [SEP] a" text of already normalized strings."""
    return f"{CLS_TOKEN} {question} {SEP_TOKEN} {answer}"


def _triple_text(question: str, answer: str, candidate: str) -> str:
    """The "[CLS] q [SEP] a [SEP] candidate" text of already normalized strings."""
    return f"{_pair_text(question, answer)} {SEP_TOKEN} {candidate}"


def build_pair_text(question: str, answer: str, policy: NormPolicy = PEDANTS_POLICY) -> str:
    """Normalized "[CLS] q [SEP] a" string for question-type features."""
    return _pair_text(normalize(question, policy), normalize(answer, policy))


def build_triple_text(
    question: str, answer: str, candidate: str, policy: NormPolicy = PEDANTS_POLICY
) -> str:
    """Normalized "[CLS] q [SEP] a [SEP] candidate" string."""
    return _triple_text(
        normalize(question, policy), normalize(answer, policy), normalize(candidate, policy)
    )


def encode_pair(
    question: str, answer: str, model: TfidfModel, policy: NormPolicy = PEDANTS_POLICY
) -> SparseVector:
    return transform(build_pair_text(question, answer, policy), model)


def encode_triple(
    question: str,
    answer: str,
    candidate: str,
    model: TfidfModel,
    policy: NormPolicy = PEDANTS_POLICY,
) -> SparseVector:
    return transform(build_triple_text(question, answer, candidate, policy), model)
