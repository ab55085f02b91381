"""The judge's prepare-once path against the same judge composed from public,
per-call pieces, on the seed corpus and on generated examples."""

import string

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import first_max_reference, per_call_judge
from pedants.io import load_seed_corpus
from pedants.metrics import best_reference
from pedants.pipeline import QAExample, judge
from pedants.textnorm import EM_POLICY, PEDANTS_POLICY

CONFIDENCE_TOL = 1e-12

# raw words of the seed corpus, with their case, plurals and punctuation, so
# generated examples hit the bundle's vocabularies
SEED_WORDS = sorted(
    {
        word
        for ex in load_seed_corpus()
        for text in (ex.question, ex.candidate, *ex.references)
        for word in text.split()
    }
)
PUNCT = string.punctuation + "¡¿«»—–…“”‘’·"

words = st.lists(st.sampled_from(SEED_WORDS), max_size=8).map(" ".join)
unicode_text = st.text(max_size=24)
punct_only = st.text(alphabet=PUNCT, min_size=1, max_size=6)
field = st.one_of(words, words, unicode_text, punct_only)

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def references(draw):
    """1-4 references, often with F1 ties: a copy or a word-reversed
    rewrite of an earlier reference scores exactly like it."""
    refs = draw(st.lists(field, min_size=1, max_size=4))
    while len(refs) < 4 and draw(st.booleans()):
        src = refs[draw(st.integers(0, len(refs) - 1))]
        tie = src if draw(st.booleans()) else " ".join(reversed(src.split()))
        refs.insert(draw(st.integers(0, len(refs))), tie)
    return refs


@st.composite
def examples(draw):
    wh = draw(st.sampled_from(["", "Who ", "When ", "Which ", "What ", "why ", "HOW "]))
    return QAExample(
        question=wh + draw(field),
        references=tuple(draw(references())),
        candidate=draw(field),
    )


def _assert_same(fast, slow):
    assert fast.correct == slow.correct
    assert fast.predicted_rule is slow.predicted_rule
    assert fast.predicted_type is slow.predicted_type
    assert fast.chosen_reference == slow.chosen_reference
    assert fast.token_scores == slow.token_scores
    assert abs(fast.confidence - slow.confidence) <= CONFIDENCE_TOL


def test_seed_corpus_matches_per_call_judge(seed_corpus, seed_model):
    for ex in seed_corpus:
        _assert_same(judge(ex, seed_model), per_call_judge(ex, seed_model))


@SETTINGS
@given(ex=examples())
def test_generated_examples_match_per_call_judge(seed_model, ex):
    _assert_same(judge(ex, seed_model), per_call_judge(ex, seed_model))


@pytest.mark.parametrize("policy", [EM_POLICY, PEDANTS_POLICY], ids=["em", "pedants"])
@SETTINGS
@given(candidate=field, refs=references())
def test_best_reference_is_first_max_token_prf(policy, candidate, refs):
    assert best_reference(candidate, refs, policy) == first_max_reference(candidate, refs, policy)
