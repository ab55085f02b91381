"""The paper's claim that the judge is more stable than exact match, as
properties of the seed bundle: a change of surface form that normalization
removes (case, punctuation at the edges of words, runs of whitespace), made
to any field of an example, leaves every field of its judgment identical.

Reordering the references is not among them: among references with tied
F1 the first is chosen, so today their order can move the confidence."""

import unicodedata

from hypothesis import given, settings
from hypothesis import strategies as st

from pedants.io import load_seed_corpus
from pedants.pipeline import QAExample, judge

SEED_CORPUS = load_seed_corpus()
PUNCT = ".,;:!?\"'()[]{}-…«»¿¡“”"
assert all(unicodedata.category(ch).startswith("P") for ch in PUNCT)

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def restyled(draw, text):
    """``text`` recased as a whole, its words wrapped in punctuation, and
    joined and surrounded by runs of whitespace."""
    text = draw(st.sampled_from([str, str.upper, str.lower, str.title]))(text)
    edge = st.text(alphabet=PUNCT, max_size=3)
    space = st.text(alphabet=" \t\n", min_size=1, max_size=3)
    out = draw(st.one_of(st.just(""), space))
    for word in text.split():
        out += draw(edge) + word + draw(edge) + draw(space)
    return out


@st.composite
def restyled_examples(draw):
    """A seed-corpus example and the same example with any of its fields
    restyled, each in its own way."""
    ex = draw(st.sampled_from(SEED_CORPUS))

    def field(text):
        return draw(restyled(text)) if draw(st.booleans()) else text

    changed = QAExample(
        question=field(ex.question),
        references=tuple(field(ref) for ref in ex.references),
        candidate=field(ex.candidate),
    )
    return ex, changed


@SETTINGS
@given(pair=restyled_examples())
def test_surface_form_leaves_every_judgment_field_identical(seed_model, pair):
    ex, changed = pair
    assert judge(changed, seed_model) == judge(ex, seed_model)

