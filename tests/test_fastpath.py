"""The judge's prepare-once, batch-scored path against the same judge
composed from public, per-call pieces, on the seed corpus and on generated
examples and batches."""

import json
import string

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import first_max_reference, per_call_judge
from pedants.cli import _Block
from pedants.io import load_seed_corpus
from pedants.linear import LinearModel
from pedants.metrics import best_reference, exact_match
from pedants.pipeline import DENSE_DIM, PedantsModel, QAExample, judge, judge_batch
from pedants.textnorm import EM_POLICY, PEDANTS_POLICY, POLICY_PRESETS
from pedants.vectorizer import TfidfModel, encode_pair, encode_triple

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



@pytest.mark.parametrize("norm", ["em", "pedants"])
@SETTINGS
@given(ex=examples(), threshold=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0, 1)))
def test_cli_string_records_are_exact_match_and_best_reference(seed_model, norm, ex, threshold):
    # the CLI's em and f1 records hold what the public metrics give, scored
    # alone or beside the pedants judge, which prepares them under its policy
    policy = POLICY_PRESETS[norm]
    idx, scores = best_reference(ex.candidate, ex.references, policy)
    want = {
        "em": {"correct": exact_match(ex.candidate, ex.references, policy)},
        "f1": {
            "correct": scores.f1 >= threshold,
            "f1": scores.f1,
            "precision": scores.precision,
            "recall": scores.recall,
            "threshold": threshold,
            "reference_index": idx,
        },
    }
    assert _Block("", norm, threshold, ["em", "f1"]).records([ex]) == [want]
    (records,) = _Block("", norm, threshold, ["em", "f1", "pedants"], seed_model).records([ex])
    assert {name: records[name] for name in want} == want

def _restricted(tfidf, keep):
    """The vectorizer cut down to the kept tokens, and the old column of
    each new one."""
    cols = [col for col, tok in enumerate(tfidf.tokens) if keep(tok)]
    kept = tuple(tfidf.tokens[c] for c in cols)
    return TfidfModel(kept, [tfidf.idf[c] for c in cols], tfidf.doc_count), cols


def _linear(model, cols, prefix=0):
    keep = list(range(prefix)) + [prefix + c for c in cols]
    return LinearModel(model.weights[:, keep].copy(), model.bias)


@pytest.fixture(scope="module")
def sparse_model(seed_model):
    """The seed bundle without the marker tokens and with about half of each
    vocabulary, a different half for the pair and the triple: many pairs
    and triples have no in-vocabulary token."""
    no_marker = lambda tok: not tok.startswith("[")  # noqa: E731
    pair_vec, pair_cols = _restricted(
        seed_model.type_vectorizer, lambda tok: no_marker(tok) and len(tok) % 2 == 0
    )
    triple_vec, triple_cols = _restricted(
        seed_model.judge_vectorizer, lambda tok: no_marker(tok) and len(tok) % 2 == 1
    )
    return PedantsModel(
        type_vectorizer=pair_vec,
        type_model=_linear(seed_model.type_model, pair_cols),
        rule_vectorizer=triple_vec,
        rule_model=_linear(seed_model.rule_model, triple_cols),
        judge_model=_linear(seed_model.judge_model, triple_cols, DENSE_DIM),
        seed=seed_model.seed,
    )


# Under sparse_model: punctuation normalizes to nothing, and the pair keeps
# even-length tokens, the triple odd-length ones.
EMPTY_BOTH = QAExample(question="¿?", references=("—",), candidate="…")
EMPTY_PAIR = QAExample(question="¿?", references=("—",), candidate="Biden")
EMPTY_TRIPLE = QAExample(question="Berlin?", references=("Canada",), candidate="…")


@st.composite
def batches(draw):
    """256 rows cycled from a few generated examples, with rows whose pair,
    triple or both encode to nothing under sparse_model placed first, last
    and in the middle."""
    pool = draw(st.lists(examples(), min_size=1, max_size=6))
    rows = [pool[i % len(pool)] for i in range(256)]
    first, middle, last = draw(st.permutations([EMPTY_BOTH, EMPTY_PAIR, EMPTY_TRIPLE]))
    rows[0], rows[draw(st.integers(1, 254))], rows[-1] = first, middle, last
    return rows


BATCH_SETTINGS = settings(SETTINGS, max_examples=25)


@pytest.mark.parametrize("bundle", ["seed_model", "sparse_model"])
@BATCH_SETTINGS
@given(rows=batches())
def test_batch_size_never_changes_a_row(bundle, request, rows):
    model = request.getfixturevalue(bundle)
    alone = [json.dumps(judge(ex, model).to_dict()) for ex in rows]
    for size in (1, 7, 256):
        batched = [
            json.dumps(j.to_dict())
            for start in range(0, len(rows), size)
            for j in judge_batch(rows[start : start + size], model)
        ]
        assert batched == alone
    for ex in {id(ex): ex for ex in rows}.values():
        _assert_same(judge(ex, model), per_call_judge(ex, model))


def test_sparse_model_has_empty_encodings(sparse_model):
    def empty(ex):
        # an encoding with no entries is its bias entry alone
        q, ref, cand = ex.question, ex.references[0], ex.candidate
        return (
            len(encode_pair(q, ref, sparse_model.type_vectorizer).indices) == 1,
            len(encode_triple(q, ref, cand, sparse_model.judge_vectorizer).indices) == 1,
        )

    assert empty(EMPTY_BOTH) == (True, True)
    assert empty(EMPTY_PAIR) == (True, False)
    assert empty(EMPTY_TRIPLE) == (False, True)


def test_empty_batch(seed_model):
    assert judge_batch([], seed_model) == []
