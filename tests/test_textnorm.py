import itertools
import multiprocessing
import random
import threading
import unicodedata

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oracles import reference_normalize
from pedants import textnorm
from pedants.textnorm import (
    EM_POLICY,
    LEMMA_CACHE_SIZE,
    PEDANTS_POLICY,
    PUNCT_TABLE_SIZE,
    NormPolicy,
    lemma,
    lemmatize,
    normalize,
    tokenize,
)

ALL_POLICIES = [NormPolicy(*flags) for flags in itertools.product([False, True], repeat=5)]

# mix of plain text, unicode, articles, and tokens that exercise the lemma rules
_ALPHABET = list("abcdefgh XYZ .,!?'-:;()[]\t0é") + [
    "the",
    " an ",
    " a ",
    "thes",
    "İ",
    "-́",
    "cats",
    "cities",
    "é",
]


def _random_strings(n, seed=7):
    rng = random.Random(seed)
    for _ in range(n):
        yield "".join(rng.choice(_ALPHABET) for _ in range(rng.randint(0, 25)))


def test_em_policy_examples():
    assert normalize("The Yankees", EM_POLICY) == "yankees"
    assert normalize("Mt.  Everest", EM_POLICY) == "mt everest"
    assert normalize("", EM_POLICY) == ""


def test_pedants_policy_keeps_articles_and_lemmatizes():
    assert normalize("The wetlands areas", PEDANTS_POLICY) == "the wetland area"
    assert normalize("Jan 20, 2021", PEDANTS_POLICY) == "jan 20 2021"


@pytest.mark.parametrize("policy", [EM_POLICY, PEDANTS_POLICY])
def test_normalize_idempotent_on_presets(policy):
    for s in _random_strings(300):
        once = normalize(s, policy)
        assert normalize(once, policy) == once


def test_normalize_idempotent_on_every_flag_combination():
    for policy in ALL_POLICIES:
        for s in _random_strings(120, seed=13):
            once = normalize(s, policy)
            assert normalize(once, policy) == once, (policy, s)


def test_no_articles_survive_when_stripping_enabled():
    for policy in ALL_POLICIES:
        if not policy.strip_articles:
            continue
        for s in _random_strings(120, seed=29):
            tokens = tokenize(normalize(s, policy)).tokens
            assert not any(tok in ("a", "an", "the") for tok in tokens)


def test_tokenize_examples():
    assert tokenize("joe biden").tokens == ("joe", "biden")
    assert tokenize("jan 20 2021").tokens == ("jan", "20", "2021")
    assert tokenize("biden biden").counts == {"biden": 2}


def test_tokenize_invariants():
    for s in _random_strings(200, seed=3):
        bag = tokenize(normalize(s, EM_POLICY))
        assert sum(bag.counts.values()) == len(bag.tokens)
        assert all(tok and not tok.isspace() for tok in bag.tokens)


def test_lemma_examples():
    assert lemma("wetlands") == "wetland"
    assert lemma("biden") == "biden"
    assert lemma("cities") == "city"
    assert lemma("classes") == "class"
    assert lemma("watches") == "watch"
    assert lemma("heroes") == "hero"
    assert lemma("houses") == "house"
    assert lemma("children") == "child"
    assert lemma("2021") == "2021"
    assert lemma("species") == "species"


def test_lemmatize_bags():
    assert lemmatize(tokenize("wetlands")).tokens == ("wetland",)
    assert lemmatize(tokenize("")).tokens == ()
    bag = lemmatize(tokenize("cats cats dog"))
    assert bag.counts == {"cat": 2, "dog": 1}


def test_lemma_deterministic_idempotent_never_longer():
    words = [
        "wetlands", "cities", "ties", "classes", "boxes", "watches", "dishes",
        "heroes", "potatoes", "shoes", "toes", "quizzes", "prizes", "houses",
        "buses", "children", "geese", "analyses", "series", "news", "gas",
        "was", "is", "dog", "answers", "questions", "aliases", "dates",
    ]
    for _ in range(2):  # same answers both times
        for w in words:
            out = lemma(w)
            assert len(out) <= len(w), w
            assert lemma(out) == out, w
    rng = random.Random(11)
    for _ in range(500):
        w = "".join(rng.choice("abcdeiosxz") for _ in range(rng.randint(1, 9)))
        out = lemma(w)
        assert len(out) <= len(w)
        assert lemma(out) == out, w


# Characters where token-wise normalization could part from the oracle's
# whole-string route: whitespace beyond ASCII (U+2000, U+3000, U+0085,
# U+1680 and others), combining marks that a deleted punctuation mark
# exposes to a new base, connector punctuation (Pc), sigma in its three
# forms, a capital whose lowercase adds a combining mark, a ligature and
# the Hangul jamo that compose into a syllable.
SPECIAL_CHARS = list(
    " \t\n\u2000\u3000\u0085\u1680\u00a0\u2028\x1c\u0301\u0308\u0307.,!-'\u2026$%+"
    "_\u203f\u2040\u2054\ufe33\uff3f\u03a3\u03c3\u03c2\u03aa\u1fbc\u0130\ufb01\u1100\u1161\u11a8eE5"
)
SPECIAL_WORDS = [
    "the", "a", "an", "The", "AN", "$the$", "_the_", "the\u0301", "e.\u0301", "a.\u0308",
    "\u039f\u0394\u039f\u03a3", "cats", "Cities,", "boxes", *sorted(textnorm._LEMMA_EXCEPTIONS),
]
texts = st.one_of(
    st.lists(
        st.one_of(st.sampled_from(SPECIAL_CHARS), st.sampled_from(SPECIAL_WORDS), st.characters()),
        max_size=16,
    ).map("".join),
    st.text(max_size=40),
)



def oracle(text, policy):
    """reference_normalize, with the one change normalize makes on purpose:
    a policy that lowercases but keeps punctuation applies NFC again after
    lowercasing, because lowering can leave a string that NFC changes
    ("\u03aa\u0301"), and the reference is then not idempotent."""
    if policy.lowercase and not policy.strip_punct:
        text = unicodedata.normalize("NFC", unicodedata.normalize("NFC", text).lower())
    return reference_normalize(text, policy)


NORM_SETTINGS = settings(
    max_examples=400,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@NORM_SETTINGS
@given(text=texts)
@example("e.\u0301")
@example("$the$ _the_ a\u2000an\u3000the\u0085x\u1680y")
@example("\u039f\u0394\u039f\u03a3. \u03c3\u03c2 \u2040\u203f")
@example("Children, lives; series' The geese\u2026")
@example("\u03aa\u0301 \u1fbc\u0301")
def test_normalize_matches_reference_under_every_policy(text):
    assert len(ALL_POLICIES) == 32
    for policy in ALL_POLICIES:
        assert normalize(text, policy) == oracle(text, policy), policy


def test_reference_differs_only_where_lowering_undoes_nfc():
    text = "\u03aa\u0301"  # lowers to U+03CA U+0301, which NFC composes to U+0390
    for policy in ALL_POLICIES:
        differs = policy.lowercase and not policy.strip_punct
        assert (normalize(text, policy) != reference_normalize(text, policy)) == differs
        assert normalize(text, policy) == oracle(text, policy)
    for s in _random_strings(300, seed=5):
        for policy in ALL_POLICIES:
            assert normalize(s, policy) == reference_normalize(s, policy)


@NORM_SETTINGS
@given(text=st.text())
@example("\u03aa\u0301")
@example("\u1fbc\u0301ses \u03ab\u0301")
def test_normalize_idempotent_on_arbitrary_unicode(text):
    for policy in ALL_POLICIES:
        once = normalize(text, policy)
        assert normalize(once, policy) == once, policy


def test_caches_stop_growing_at_their_limits(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("normalization started a process pool")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    threads = threading.active_count()
    textnorm._PUNCT_TABLE.clear()
    lemma.cache_clear()
    try:
        # twice as many distinct code points as the table holds, all below
        # the surrogates; the whole-string path looks every one of them up
        text = "".join(map(chr, range(0xA0, 0xA0 + 2 * PUNCT_TABLE_SIZE)))
        policy = NormPolicy(collapse_whitespace=False)
        for _ in range(2):  # past the limit, lookups still give the same output
            assert normalize(text, policy) == reference_normalize(text, policy)
            assert len(textnorm._PUNCT_TABLE) == PUNCT_TABLE_SIZE

        words = " ".join(f"word{i}s" for i in range(2 * LEMMA_CACHE_SIZE)) + " cats"
        for _ in range(2):
            assert normalize(words, PEDANTS_POLICY) == reference_normalize(words, PEDANTS_POLICY)
            info = lemma.cache_info()
            assert info.maxsize == LEMMA_CACHE_SIZE
            assert info.currsize == LEMMA_CACHE_SIZE

        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads
    finally:
        textnorm._PUNCT_TABLE.clear()
        lemma.cache_clear()
