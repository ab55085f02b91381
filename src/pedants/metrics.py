"""Exact match, token precision/recall/F1, and threshold judging.

Token overlap is a multiset (bag) intersection: duplicate tokens count once
per surviving copy. With duplicate-free answers this degrades to plain set
overlap, matching the usual short-answer convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import EmptyReferences
from .textnorm import EM_POLICY, NormPolicy, TokenBag, normalize, tokenize


@dataclass(frozen=True)
class PrfScores:
    """Precision, recall, and their harmonic mean, each in [0, 1]."""

    precision: float
    recall: float
    f1: float

    @classmethod
    def from_pr(cls, precision: float, recall: float) -> "PrfScores":
        if precision + recall == 0:
            return cls(precision, recall, 0.0)
        return cls(precision, recall, 2 * precision * recall / (precision + recall))


@dataclass(frozen=True)
class Threshold:
    """A correctness cutoff: a score is judged correct when score >= value."""

    value: float

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {self.value}")


def exact_match(candidate: str, references: Sequence[str], policy: NormPolicy = EM_POLICY) -> bool:
    """True iff the normalized candidate equals any normalized reference."""
    if isinstance(references, str):  # not read one character at a time
        raise ValueError("exact_match needs a sequence of references, not one string")
    if not references:
        raise EmptyReferences("exact_match needs at least one reference")
    cand = normalize(candidate, policy)
    return any(cand == normalize(ref, policy) for ref in references)


def _bag_prf(cand: TokenBag, ref: TokenBag) -> PrfScores:
    """Bag-overlap precision/recall/F1 of two tokenized, normalized strings."""
    if not cand.tokens and not ref.tokens:
        return PrfScores(1.0, 1.0, 1.0)
    if not cand.tokens or not ref.tokens:
        return PrfScores(0.0, 0.0, 0.0)
    # the multiset intersection size, walking the smaller bag
    small, large = cand.counts, ref.counts
    if len(small) > len(large):
        small, large = large, small
    overlap = 0
    for tok, n in small.items():
        m = large.get(tok, 0)
        overlap += n if n < m else m
    return PrfScores.from_pr(overlap / len(cand.tokens), overlap / len(ref.tokens))


def _best_bag(cand: TokenBag, refs: Sequence[TokenBag]) -> tuple[int, PrfScores]:
    """Index and scores of the F1-maximizing reference bag; ties keep the first."""
    best_idx = 0
    best = _bag_prf(cand, refs[0])
    for i, ref in enumerate(refs[1:], start=1):
        scores = _bag_prf(cand, ref)
        if scores.f1 > best.f1:
            best_idx, best = i, scores
    return best_idx, best


def token_prf(candidate: str, reference: str, policy: NormPolicy = EM_POLICY) -> PrfScores:
    """Bag-of-tokens precision/recall/F1 of candidate against one reference.

    Precision is denominated by the candidate's tokens, recall by the
    reference's. Two empty strings agree vacuously (all ones); exactly one
    empty string scores zero.
    """
    return _bag_prf(tokenize(normalize(candidate, policy)), tokenize(normalize(reference, policy)))


def best_reference(
    candidate: str, references: Sequence[str], policy: NormPolicy = EM_POLICY
) -> tuple[int, PrfScores]:
    """Index and scores of the reference maximizing F1; ties keep the first.

    The candidate and each reference are normalized once.
    """
    if isinstance(references, str):  # not read one character at a time
        raise ValueError("best_reference needs a sequence of references, not one string")
    if not references:
        raise EmptyReferences("best_reference needs at least one reference")
    return _best_bag(
        tokenize(normalize(candidate, policy)),
        [tokenize(normalize(ref, policy)) for ref in references],
    )


def threshold_judge(scores: PrfScores, threshold: Threshold) -> bool:
    """Judge correctness by comparing F1 against an at-least cutoff."""
    return scores.f1 >= threshold.value
