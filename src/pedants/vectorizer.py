"""TF-IDF encoding of questions and answer pairs/triples.

Vocabulary fitting is deterministic (tokens sorted lexicographically) and
keeps every token it sees, idf uses the smoothed form ln((1+N)/(1+df)) + 1,
and encoded vectors are L2-normalized. Fitting and encoding read token
lists: ``_pair`` and ``_triple`` build the "[CLS] q [SEP] a [SEP] candidate"
tokens of normalized token lists. The "[CLS]" and "[SEP]" markers live in
the vocabulary like any other token. One encoder, ``_encode``, writes every
``Batch``, the one sparse-row type, that ``linear`` scores and trains on: a
judged block's pairs and triples, each fit's documents, or the one row of
``transform``, ``encode_pair`` or ``encode_triple``.
"""

from __future__ import annotations

import functools
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


def check_numbers(values, what: str) -> np.ndarray:
    """A bundle's array of numbers as a float64 array: a JSON array of JSON
    numbers only, not strings, bools, nulls or nested values, which numpy
    would parse or coerce (checked in one C-level pass over the items), nor
    an integer past float64's range."""
    if not isinstance(values, list):
        raise ValueError(f"malformed {what}: must be an array, got {type(values).__name__}")
    other = set(map(type, values)) - {int, float}
    if other:
        names = ", ".join(sorted(t.__name__ for t in other))
        raise ValueError(f"malformed {what}: must be numbers, got {names}")
    try:
        return np.array(values, dtype=np.float64)
    except OverflowError as exc:
        raise ValueError(f"malformed {what}: {exc}") from exc


@dataclass(frozen=True)
class TfidfModel:
    """Fitted tokens, in column order, and their idf weights; immutable once
    fitted."""

    tokens: tuple[str, ...]
    idf: list[float]
    doc_count: int

    def __post_init__(self):
        """The one check of a model's values, fitted, built or loaded:
        distinct string tokens, an idf weight per token, each a finite and
        positive float, and a document count of at least 0."""
        if not all(isinstance(tok, str) for tok in self.tokens):
            raise ValueError("vectorizer vocabulary must hold strings only")
        n_idf, n_tokens = len(self.idf), len(self.tokens)
        if n_idf != n_tokens:
            raise ValueError(f"vectorizer has {n_idf} idf weights for {n_tokens} tokens")
        # a float saves as the float it loads as; NaN compares false
        if not all(isinstance(w, float) and 0 < w < math.inf for w in self.idf):
            raise ValueError("vectorizer idf weights must be finite and positive floats")
        if len(self.vocabulary) != n_tokens:
            raise ValueError("vectorizer vocabulary has duplicate tokens")
        check_count(self.doc_count, "vectorizer doc_count")

    @functools.cached_property
    def vocabulary(self) -> dict[str, int]:
        """Each token's column."""
        return {tok: col for col, tok in enumerate(self.tokens)}

    @property
    def dimension(self) -> int:
        return len(self.tokens)

    def to_dict(self) -> dict:
        return {
            "version": FORMAT_VERSION,
            "config": dict(_CONFIG),
            "vocab": list(self.tokens),
            "idf": list(self.idf),
            "doc_count": self.doc_count,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TfidfModel":
        """Load a fitted model from its JSON, checking the shape of the
        JSON; the constructor checks the values."""
        version = data.get("version") if isinstance(data, dict) else None
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported vectorizer format: {version!r}")
        vocab = data["vocab"]
        if not isinstance(vocab, list):
            raise ValueError("vectorizer vocabulary must be an array of strings")
        what = "vectorizer config (smoothed idf, L2 normalization, every token kept)"
        try:
            check_fixed(data["config"], _CONFIG, what)
        except TypeError as exc:
            raise ValueError(f"malformed vectorizer: {exc}") from exc
        idf = check_numbers(data["idf"], "vectorizer idf").tolist()
        return cls(tokens=tuple(vocab), idf=idf, doc_count=data["doc_count"])


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
    tokens = tuple(sorted(df))
    idf = [math.log((1 + n_docs) / (1 + df[tok])) + 1.0 for tok in tokens]
    return TfidfModel(tokens=tokens, idf=idf, doc_count=n_docs)


class Batch:
    """Sparse rows, one after another: each row's sorted columns (``indices``)
    and weights (``values``), closed by a bias entry of value 1, and the
    offset of each row's first entry (``starts``). ``len`` counts the rows."""

    __slots__ = ("indices", "values", "starts")

    def __init__(self, indices: np.ndarray, values: np.ndarray, starts: np.ndarray):
        self.indices, self.values, self.starts = indices, values, starts

    def __len__(self) -> int:
        return len(self.starts)

    def rows(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Each row's (indices, values) as views, without its bias entry."""
        bounds = [*self.starts.tolist(), len(self.indices)]
        indices, values = self.indices, self.values
        return [(indices[s : e - 1], values[s : e - 1]) for s, e in zip(bounds, bounds[1:])]


def _encode(*segments: tuple[Iterable[Sequence[str]], TfidfModel]) -> Batch:
    """tf x idf of token lists, L2-normalized, as one ``Batch``: each
    document's sorted columns and weights, then its bias entry. A segment's
    columns and then its bias column follow the previous segment's, as its
    model's ``linear._kernel_weights`` rows follow theirs when stacked.
    Out-of-vocabulary tokens are dropped, and the squared weights are summed
    left to right in column order, without compensation, so a document
    encodes to the same bits under every CPython version."""
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
                squares = 0.0
                for w in weights:  # not sum(), which compensates from CPython 3.12
                    squares += w * w
                norm = math.sqrt(squares)
                indices += [col + offset for col in cols] if offset else cols
                values += [w / norm for w in weights]
            indices.append(bias)
            values.append(1.0)
        offset = bias + 1
    return Batch(
        np.array(indices, np.intp), np.array(values, np.float64), np.array(starts, np.intp)
    )


def transform(text: str, model: TfidfModel) -> Batch:
    """One whitespace-tokenized document as ``_encode``'s one-row ``Batch``."""
    return _encode(([text.split()], model))


def _pair(question: Sequence[str], answer: Sequence[str]) -> list[str]:
    """The "[CLS] q [SEP] a" tokens of normalized token lists."""
    return [CLS_TOKEN, *question, SEP_TOKEN, *answer]


def _triple(pair: list[str], candidate: Sequence[str]) -> list[str]:
    """A pair's tokens extended with "[SEP] candidate", a normalized token list."""
    return [*pair, SEP_TOKEN, *candidate]


def encode_pair(question: str, answer: str, model: TfidfModel) -> Batch:
    pair = _pair(tokens(question, PEDANTS_POLICY), tokens(answer, PEDANTS_POLICY))
    return _encode(([pair], model))


def encode_triple(question: str, answer: str, candidate: str, model: TfidfModel) -> Batch:
    pair = _pair(tokens(question, PEDANTS_POLICY), tokens(answer, PEDANTS_POLICY))
    return _encode(([_triple(pair, tokens(candidate, PEDANTS_POLICY))], model))
