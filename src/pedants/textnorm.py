"""Deterministic text normalization, tokenization, and lemmatization.

Every downstream metric and encoder funnels strings through this module so
that reference and candidate answers are always processed identically.
Normalization is idempotent: applying a policy twice gives the same string
as applying it once.

Each step runs in C where it can. NFC and lowercasing run on the whole
string. A policy that collapses whitespace then works token by token: only
a token that is not alphanumeric has punctuation deleted (``str.translate``)
and is NFC-normalized again, and lemmas come from a cache. This gives the
same string as applying each step to the whole string, because punctuation
is never whitespace and whitespace never composes with a neighbour under
NFC. Two caches hold state between calls, each with a fixed entry limit:
the translate table's code points (PUNCT_TABLE_SIZE) and the lemmas of
tokens (LEMMA_CACHE_SIZE).
"""

from __future__ import annotations

import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

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
    """Switchboard of normalization steps, applied in a fixed order.

    Step order: NFC unicode normalization (always), lowercase, punctuation
    removal, lemmatization, article removal, whitespace collapsing. NFC runs
    again after punctuation removal, or after lowercasing when punctuation
    is kept, since either step can leave a string that NFC would change.
    Lemmatization rejoins tokens with single spaces, so enabling it implies
    whitespace collapsing; articles are removed after lemmatization so a
    reduced token can never reintroduce one. Both constraints keep
    re-normalization a no-op.

    With whitespace collapsing (or lemmatization) the string is split into
    tokens after lowercasing: punctuation removal and lemmatization act on
    each token, the tokens that are left are joined with single spaces, and
    article removal runs on the joined string. Without it, punctuation
    removal and article removal act on the whole string.
    """

    lowercase: bool = True
    strip_articles: bool = False
    strip_punct: bool = True
    collapse_whitespace: bool = True
    lemmatize: bool = False


# Exact-match preset: lowercase, drop articles and punctuation, collapse
# whitespace. Lowercasing follows the SQuAD-style convention.
EM_POLICY = NormPolicy(
    lowercase=True,
    strip_articles=True,
    strip_punct=True,
    collapse_whitespace=True,
    lemmatize=False,
)

# Pipeline preprocessing preset: lemmatize and remove punctuation; articles
# are kept (they are informative for question phrasing), lowercase for
# stability.
PEDANTS_POLICY = NormPolicy(
    lowercase=True,
    strip_articles=False,
    strip_punct=True,
    collapse_whitespace=True,
    lemmatize=True,
)

POLICY_PRESETS: dict[str, NormPolicy] = {
    "em": EM_POLICY,
    "pedants": PEDANTS_POLICY,
}


@dataclass
class TokenBag:
    """Ordered tokens plus their multiplicities."""

    tokens: tuple[str, ...]
    counts: Counter[str]

    def __len__(self) -> int:
        return len(self.tokens)


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
    s = unicodedata.normalize("NFC", text)
    if policy.lowercase:
        s = s.lower()
        if not policy.strip_punct:
            # lowering can undo NFC ("\u03aa\u0301"); punctuation removal
            # normalizes again, so only the other policies need it here
            s = unicodedata.normalize("NFC", s)
    if not (policy.collapse_whitespace or policy.lemmatize):
        if policy.strip_punct:
            # deleting characters can expose combining marks to new bases
            s = unicodedata.normalize("NFC", s.translate(_PUNCT_TABLE))
        if policy.strip_articles:
            s = _ARTICLE_RE.sub(" ", s)
        return s.strip()
    tokens = s.split()
    if policy.strip_punct:
        # an alphanumeric token holds no punctuation; a token left empty drops
        tokens = filter(None, [
            tok if tok.isalnum() else unicodedata.normalize("NFC", tok.translate(_PUNCT_TABLE))
            for tok in tokens
        ])
    if policy.lemmatize:
        tokens = map(lemma, tokens)
    s = " ".join(tokens)
    if policy.strip_articles:
        s = " ".join(_ARTICLE_RE.sub(" ", s).split())
    return s


def tokenize(text: str) -> TokenBag:
    """Split a normalized string on whitespace runs into a token bag."""
    tokens = tuple(text.split())
    return TokenBag(tokens=tokens, counts=Counter(tokens))


def lemmatize(bag: TokenBag) -> TokenBag:
    """Map every token in a bag through :func:`lemma`."""
    tokens = tuple(lemma(tok) for tok in bag.tokens)
    return TokenBag(tokens=tokens, counts=Counter(tokens))
