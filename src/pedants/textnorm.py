"""Deterministic text normalization into token lists, and lemmatization.

Every downstream metric and encoder funnels strings through this module so
that reference and candidate answers are always processed identically.
Normalization is idempotent: applying a policy twice gives the same string
as applying it once. Metrics and encoders read plain token lists from
``tokens``, the list whose join by single spaces is ``normalize``'s string;
the metrics count them where they score them.

Each step runs in C where it can. NFC and lowercasing run on the whole
string, which is then split into tokens on whitespace: only a token that is
not alphanumeric has punctuation deleted (``str.translate``) and is
NFC-normalized again, or goes through the article pattern, and lemmas come
from a cache. This gives the same string as applying each step to the whole
string, because punctuation is never whitespace, whitespace never composes
with a neighbour under NFC, and an article never spans whitespace. Two
caches hold state between calls, each with a fixed entry limit: the
translate table's code points (PUNCT_TABLE_SIZE) and the lemmas of tokens
(LEMMA_CACHE_SIZE).
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

_ARTICLE_RE = re.compile(r"\b(?:a|an|the)\b", re.IGNORECASE)

# Entry limits of the two caches: the punctuation table's code points and
# lemma's tokens. Past a limit, lookups are computed and not stored.
PUNCT_TABLE_SIZE = 8192
LEMMA_CACHE_SIZE = 8192


class _PunctTable(dict):
    """``str.translate`` table that deletes punctuation (Unicode category P*).

    It fills itself on lookup, so only code points that occur are stored,
    and stops storing at PUNCT_TABLE_SIZE entries.
    """

    def __missing__(self, code: int) -> int | None:
        out = None if unicodedata.category(chr(code)).startswith("P") else code
        if len(self) < PUNCT_TABLE_SIZE:
            self[code] = out
        return out


_PUNCT_TABLE = _PunctTable()


@dataclass(frozen=True)
class NormPolicy:
    """The two normalization steps that tell the presets apart.

    Every policy NFC-normalizes and lowercases the string, splits it into
    tokens on whitespace, deletes punctuation from each token (and
    NFC-normalizes it again, since deleting characters can expose combining
    marks to new bases), and joins the tokens that are left with single
    spaces. Then, in this order, lemmatization reduces each token and
    article removal drops "a", "an" and "the"; articles go last so a
    reduced token can never reintroduce one, which keeps re-normalization a
    no-op.
    """

    strip_articles: bool = False
    lemmatize: bool = False


# Exact-match preset: lowercase, drop articles and punctuation, collapse
# whitespace, the SQuAD-style convention.
EM_POLICY = NormPolicy(strip_articles=True)

# Pipeline preprocessing preset: also lemmatize, but keep articles (they
# are informative for question phrasing).
PEDANTS_POLICY = NormPolicy(lemmatize=True)

POLICY_PRESETS: dict[str, NormPolicy] = {
    "em": EM_POLICY,
    "pedants": PEDANTS_POLICY,
}


# Irregular plurals and words the suffix rules would mangle. Entries whose
# lemma would be longer than the surface form (mice -> mouse) are deliberately
# absent: lemmas never grow.
_LEMMA_EXCEPTIONS = {
    "children": "child",
    "men": "man",
    "women": "woman",
    "feet": "foot",
    "teeth": "tooth",
    "geese": "goose",
    "people": "person",
    "lives": "life",
    "leaves": "leaf",
    "wolves": "wolf",
    "knives": "knife",
    "wives": "wife",
    "halves": "half",
    "shelves": "shelf",
    "loaves": "loaf",
    "thieves": "thief",
    "movies": "movie",
    "cookies": "cookie",
    "goes": "go",
    "buses": "bus",
    "ashes": "ash",
    "crises": "crisis",
    "analyses": "analysis",
    "theses": "thesis",
    "species": "species",
    "series": "series",
    "news": "news",
}


@lru_cache(maxsize=LEMMA_CACHE_SIZE)
def lemma(token: str) -> str:
    """Reduce an English plural/inflected suffix on a single token.

    Pure function of the token; deterministic and never longer than the
    input. Non-alphabetic tokens pass through unchanged. Results are cached
    for up to LEMMA_CACHE_SIZE tokens.
    """
    if token in _LEMMA_EXCEPTIONS:
        return _LEMMA_EXCEPTIONS[token]
    if len(token) <= 3 or not token.isalpha():
        return token
    if token.endswith("sses"):
        return token[:-2]
    if token.endswith("ies"):
        return token[:-3] + "y" if len(token) > 4 else token[:-1]
    if token.endswith("zzes"):
        return token[:-3]
    if token.endswith(("ches", "shes", "oes")) and len(token) > 5:
        return token[:-2]
    if token.endswith("xes"):
        return token[:-2]
    if token.endswith("s") and not token.endswith(("ss", "us", "is")):
        return token[:-1]
    return token


def normalize(text: str, policy: NormPolicy) -> str:
    """Apply a normalization policy to a raw string. Total and idempotent."""
    # an alphanumeric token holds no punctuation; a token left empty drops
    tokens = filter(None, [
        tok if tok.isalnum() else unicodedata.normalize("NFC", tok.translate(_PUNCT_TABLE))
        for tok in unicodedata.normalize("NFC", text).lower().split()
    ])
    if policy.lemmatize:
        tokens = map(lemma, tokens)
    if policy.strip_articles:
        tokens = _drop_articles(tokens)
    return " ".join(tokens)


def _drop_articles(tokens: Iterable[str]) -> list[str]:
    """Article removal on whitespace-free tokens.

    An alphanumeric token is all word characters, so the article pattern can
    only match it whole; any other token goes through the pattern and may
    split into several. Matches never span whitespace, so this equals the
    pattern on the joined string.
    """
    kept = []
    for tok in tokens:
        if tok.isalnum():
            if len(tok) > 3 or not _ARTICLE_RE.fullmatch(tok):
                kept.append(tok)
        else:
            kept += _ARTICLE_RE.sub(" ", tok).split()
    return kept


def tokens(text: str, policy: NormPolicy) -> list[str]:
    """``normalize``'s tokens, each non-empty and free of whitespace; every
    normalization runs through ``normalize``, where it is timed and counted."""
    return normalize(text, policy).split()

