"""Exact match and token precision/recall/F1 against the best reference.

Both read normalized token lists (``textnorm.tokens``), and one kernel,
``_best_tokens``, scores a candidate's list against each reference's. Token
overlap is a multiset (bag) intersection: duplicate tokens count once per
surviving copy. With duplicate-free answers this degrades to plain set
overlap, matching the usual short-answer convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import EmptyReferences
from .textnorm import EM_POLICY, NormPolicy, tokens


@dataclass(frozen=True)
class PrfScores:
    """Precision, recall, and their harmonic mean, each in [0, 1]."""

    precision: float
    recall: float
    f1: float


def exact_match(candidate: str, references: Sequence[str], policy: NormPolicy = EM_POLICY) -> bool:
    """True iff the candidate's token list equals any reference's."""
    if isinstance(references, str):  # not read one character at a time
        raise ValueError("exact_match needs a sequence of references, not one string")
    if not references:
        raise EmptyReferences("exact_match needs at least one reference")
    cand = tokens(candidate, policy)
    return any(cand == tokens(ref, policy) for ref in references)


def _best_tokens(
    candidate: Sequence[str], references: Sequence[Sequence[str]]
) -> tuple[int, PrfScores]:
    """Index and bag-overlap scores of the reference token list (one or
    more) with the highest F1 against the candidate's; ties keep the first.
    Two empty lists agree vacuously (all ones); one empty list scores zero."""
    counts: dict[str, int] = {}
    for tok in candidate:
        counts[tok] = counts.get(tok, 0) + 1
    best_idx, best = 0, None
    for i, ref in enumerate(references):
        if not candidate or not ref:
            p = r = f1 = 0.0 if candidate or ref else 1.0
        else:
            # the multiset intersection size: each reference token takes one
            # of the candidate's copies, while one is left
            left, overlap = dict(counts), 0
            for tok in ref:
                n = left.get(tok)
                if n:
                    left[tok] = n - 1
                    overlap += 1
            p, r = overlap / len(candidate), overlap / len(ref)
            f1 = 2 * p * r / (p + r) if overlap else 0.0
        if best is None or f1 > best[2]:
            best_idx, best = i, (p, r, f1)
    return best_idx, PrfScores(*best)


def token_prf(candidate: str, reference: str, policy: NormPolicy = EM_POLICY) -> PrfScores:
    """Bag-of-tokens precision/recall/F1 of candidate against one reference.

    Precision is denominated by the candidate's tokens, recall by the
    reference's. Two empty strings agree vacuously (all ones); exactly one
    empty string scores zero.
    """
    return _best_tokens(tokens(candidate, policy), [tokens(reference, policy)])[1]


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
    return _best_tokens(tokens(candidate, policy), [tokens(ref, policy) for ref in references])

