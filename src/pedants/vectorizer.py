"""TF-IDF encoding of questions and answer pairs/triples.

Vocabulary fitting is deterministic (tokens sorted lexicographically) and
keeps every token it sees, idf uses the smoothed form ln((1+N)/(1+df)) + 1,
and encoded vectors are L2-normalized. Fitting and encoding read token
lists: ``_pair`` and ``_triple`` build the "[CLS] q [SEP] a [SEP] candidate"
tokens of normalized token lists. The "[CLS]" and "[SEP]" markers live in
the vocabulary like any other token. One encoder, ``_encode``, writes a
block of token lists as the flat batch ``linear._scores`` reads: a judged
block's pairs and triples, each fit's documents, or the one document of
``transform``, ``encode_pair`` or ``encode_triple``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptyCorpus
from .textnorm import PEDANTS_POLICY, tokens

CLS_TOKEN = "[CLS]"
SEP_TOKEN = "[SEP]"

FORMAT_VERSION = 1


# Idf smoothing, L2 normalization and keeping every token (min_df 1) are
# fixed; a bundle states all three.
_CONFIG = {"smooth_idf": True, "l2_normalize": True, "min_df": 1}


def check_fixed(config: dict, constants: dict, what: str) -> None:
    """Reject a bundle setting that is not its fixed value in ``constants``,
    naming it. A bool is not a number: ``1`` is not ``True``, nor ``True`` 1."""
    for name, constant in constants.items():
        value = config[name]
        if isinstance(value, bool) != isinstance(constant, bool) or value != constant:
            raise ValueError(f"{what}: {name} must be {constant!r}, got {value!r}")


def check_count(value, what: str) -> int:
    """A bundle's integer field: a JSON integer of at least 0, not a bool or
    a float such as 2.0."""
    if type(value) is not int or value < 0:
        raise ValueError(f"malformed {what}: must be an integer of at least 0, got {value!r}")
    return value


def check_numbers(values, what: str) -> list:
    """A bundle's array of numbers: a JSON array of JSON numbers only, not
    strings, bools, nulls or nested values, which numpy would parse or
    coerce. One C-level pass over the items."""
    if not isinstance(values, list):
        raise ValueError(f"malformed {what}: must be an array, got {type(values).__name__}")
    other = set(map(type, values)) - {int, float}
    if other:
        names = ", ".join(sorted(t.__name__ for t in other))
        raise ValueError(f"malformed {what}: must be numbers, got {names}")
    return values


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
            "config": dict(_CONFIG),
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
        what = "vectorizer config (smoothed idf, L2 normalization, every token kept)"
        try:
            check_fixed(data["config"], _CONFIG, what)
            idf = np.array(check_numbers(data["idf"], "vectorizer idf"), dtype=np.float64)
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"malformed vectorizer: {exc}") from exc
        doc_count = check_count(data["doc_count"], "vectorizer doc_count")
        if idf.shape != (len(vocab),):
            raise ValueError(f"vectorizer has {idf.size} idf weights for {len(vocab)} tokens")
        vocabulary = {tok: i for i, tok in enumerate(vocab)}
        if len(vocabulary) != len(vocab):
            raise ValueError("vectorizer vocabulary has duplicate tokens")
        if not (np.isfinite(idf).all() and (idf > 0).all()):
            raise ValueError("vectorizer idf weights must be finite and positive")
        return cls(vocabulary=vocabulary, idf=idf.tolist(), doc_count=doc_count)


def fit(corpus: Iterable[Sequence[str]]) -> TfidfModel:
    """Fit vocabulary and idf weights on documents given as token lists,
    already normalized; the corpus is read once, so a generator will do."""
    df: Counter[str] = Counter()
    n_docs = 0
    for tokens in corpus:
        df.update(set(tokens))
        n_docs += 1
    if not n_docs:
        raise EmptyCorpus("cannot fit a tf-idf model on an empty corpus")
    tokens = sorted(df)
    vocabulary = {tok: i for i, tok in enumerate(tokens)}
    idf = [math.log((1 + n_docs) / (1 + df[tok])) + 1.0 for tok in tokens]
    return TfidfModel(vocabulary=vocabulary, idf=idf, doc_count=n_docs)


Batch = tuple[np.ndarray, np.ndarray, np.ndarray]  # indices, values, starts


def _encode(*segments: tuple[Iterable[Sequence[str]], TfidfModel]) -> Batch:
    """tf x idf of token lists, L2-normalized, as one ``linear._scores``
    batch: each document's sorted columns and weights, then its bias entry
    (value 1), and the offset of each document's first entry. A segment's
    columns and then its bias column follow the previous segment's, as its
    model's ``linear._kernel_weights`` rows follow theirs when stacked.
    Out-of-vocabulary tokens are dropped, and the squared weights are summed
    in column order, so a document always encodes to the same bits."""
    indices, values, starts = [], [], []
    offset = 0
    for docs, model in segments:
        vocab, idf = model.vocabulary, model.idf
        bias = offset + model.dimension
        for doc in docs:
            starts.append(len(indices))
            counts: dict[int, int] = {}
            for tok in doc:
                col = vocab.get(tok)
                if col is not None:
                    counts[col] = counts.get(col, 0) + 1
            if counts:
                cols = sorted(counts)
                weights = [counts[col] * idf[col] for col in cols]
                norm = math.sqrt(sum(w * w for w in weights))
                indices += [col + offset for col in cols] if offset else cols
                values += [w / norm for w in weights]
            indices.append(bias)
            values.append(1.0)
        offset = bias + 1
    return np.array(indices, np.intp), np.array(values, np.float64), np.array(starts, np.intp)


def _rows(batch: Batch) -> list[tuple[np.ndarray, np.ndarray]]:
    """A one-segment batch's rows as views without their bias entries."""
    indices, values, starts = batch
    bounds = [*starts.tolist(), len(indices)]
    return [(indices[s : e - 1], values[s : e - 1]) for s, e in zip(bounds, bounds[1:])]


def _vector(doc: Sequence[str], model: TfidfModel) -> SparseVector:
    return SparseVector(model.dimension, *_rows(_encode(([doc], model)))[0])


def transform(text: str, model: TfidfModel) -> SparseVector:
    """Encode one whitespace-tokenized document as tf x idf, L2-normalized.

    Out-of-vocabulary tokens are dropped; a document with no in-vocabulary
    tokens encodes to the zero vector, which is left unnormalized.
    """
    return _vector(text.split(), model)


def _pair(question: Sequence[str], answer: Sequence[str]) -> list[str]:
    """The "[CLS] q [SEP] a" tokens of normalized token lists."""
    return [CLS_TOKEN, *question, SEP_TOKEN, *answer]


def _triple(pair: list[str], candidate: Sequence[str]) -> list[str]:
    """A pair's tokens extended with "[SEP] candidate", a normalized token list."""
    return [*pair, SEP_TOKEN, *candidate]


def encode_pair(question: str, answer: str, model: TfidfModel) -> SparseVector:
    return _vector(_pair(tokens(question, PEDANTS_POLICY), tokens(answer, PEDANTS_POLICY)), model)


def encode_triple(question: str, answer: str, candidate: str, model: TfidfModel) -> SparseVector:
    pair = _pair(tokens(question, PEDANTS_POLICY), tokens(answer, PEDANTS_POLICY))
    return _vector(_triple(pair, tokens(candidate, PEDANTS_POLICY)), model)
