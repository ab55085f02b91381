import json
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pedants.errors import EmptyCorpus
from pedants.textnorm import PEDANTS_POLICY, normalize, tokens
from pedants.vectorizer import (
    CLS_TOKEN,
    SEP_TOKEN,
    TfidfModel,
    _encode,
    _pair,
    _triple,
    encode_pair,
    encode_triple,
    fit,
    transform,
)
from test_fastpath import EMPTY_BOTH, EMPTY_PAIR, EMPTY_TRIPLE, SETTINGS, field
from test_fastpath import sparse_model  # noqa: F401 (a fixture)


def docs(*texts: str) -> list[list[str]]:
    """Token lists, as fit reads them, of whitespace-separated documents."""
    return [text.split() for text in texts]


def _left_to_right(values) -> float:
    """The plain float sum, one addition at a time; ``sum()`` compensates
    its rounding from CPython 3.12 on."""
    total = 0.0
    for value in values:
        total += value
    return total


def _compensated(values) -> float:
    """The Neumaier-compensated sum that CPython 3.12+ ``sum()`` takes of floats."""
    total = compensation = 0.0
    for value in values:
        t = total + value
        if abs(total) >= abs(value):
            compensation += (total - t) + value
        else:
            compensation += (value - t) + total
        total = t
    return total + compensation


def _row(batch, model) -> tuple[np.ndarray, np.ndarray]:
    """The entries of a per-call encoder's one-row batch, which its bias
    entry, column ``model.dimension`` with value 1, must close."""
    assert batch.starts.tolist() == [0]
    assert batch.indices[-1] == model.dimension and batch.values[-1] == 1.0
    ((indices, values),) = batch.rows()
    return indices, values


def _arrays(batch) -> tuple[bytes, ...]:
    """A batch's three arrays as bytes, so two batches compare bit for bit."""
    return batch.indices.tobytes(), batch.values.tobytes(), batch.starts.tobytes()


def triple_tokens(question: str, answer: str, candidate: str) -> list[str]:
    norm = [tokens(text, PEDANTS_POLICY) for text in (question, answer, candidate)]
    return _triple(_pair(norm[0], norm[1]), norm[2])


def test_fit_document_frequencies_and_idf():
    model = fit(docs("a b", "b c"))
    # df(b)=2=N so idf collapses to 1; df(a)=df(c)=1
    assert model.doc_count == 2
    assert model.idf[model.vocabulary["b"]] == pytest.approx(1.0, abs=1e-12)
    expected = math.log(3 / 2) + 1  # independent evaluation of the smoothing formula
    assert model.idf[model.vocabulary["a"]] == pytest.approx(expected, abs=1e-12)
    assert model.idf[model.vocabulary["c"]] == pytest.approx(expected, abs=1e-12)


def test_vocabulary_is_sorted_bijection():
    model = fit(docs("delta alpha", "charlie bravo alpha"))
    tokens = sorted(model.vocabulary)
    assert [model.vocabulary[t] for t in tokens] == list(range(len(tokens)))
    assert all(w > 0 and math.isfinite(w) for w in model.idf)


def test_fit_empty_corpus():
    with pytest.raises(EmptyCorpus):
        fit([])
    with pytest.raises(EmptyCorpus):
        fit(iter([]))


def test_fit_reads_a_one_shot_generator_like_a_list():
    corpus = docs("zeta alpha alpha", "beta gamma", "alpha beta", "", "gamma")
    from_list = fit(corpus)
    from_generator = fit(tokens for tokens in corpus)
    assert from_generator.to_dict() == from_list.to_dict()
    assert from_generator.doc_count == 5


def test_fit_reads_token_lists_not_strings():
    # a token may hold any character but whitespace, and a document's
    # tokens are counted once each for document frequency
    model = fit([["a", "b", "a"], ["ab"]])
    assert sorted(model.vocabulary) == ["a", "ab", "b"]
    assert model.idf[model.vocabulary["a"]] == model.idf[model.vocabulary["ab"]]


def test_fit_deterministic_serialization():
    corpus = docs("zeta alpha alpha", "beta gamma", "alpha beta")
    first = json.dumps(fit(corpus).to_dict(), sort_keys=True)
    second = json.dumps(fit(corpus).to_dict(), sort_keys=True)
    assert first == second


def test_serialization_round_trip():
    model = fit(docs("a b", "b c"))
    clone = TfidfModel.from_dict(model.to_dict())
    assert clone.vocabulary == model.vocabulary
    assert clone.idf == model.idf
    assert clone.to_dict()["config"] == {"smooth_idf": True, "l2_normalize": True, "min_df": 1}


def test_transform_unit_norm_and_nonzero_for_fitting_docs():
    corpus = ["alpha beta", "beta gamma gamma", "delta"]
    model = fit(docs(*corpus))
    for doc in corpus:
        _, values = _row(transform(doc, model), model)
        assert values.size > 0
        assert math.sqrt(values @ values) == pytest.approx(1.0, abs=1e-9)


def test_transform_all_oov_is_zero_vector():
    # the zero vector: the row is its bias entry alone
    model = fit(docs("alpha beta"))
    batch = transform("missing tokens only", model)
    assert batch.indices.tolist() == [model.dimension] and batch.values.tolist() == [1.0]


def test_transform_drops_oov_but_keeps_direction():
    # adding OOV tokens must not change the encoded vector
    model = fit(docs("alpha beta", "beta gamma"))
    base = transform("alpha beta", model)
    noisy = transform("alpha zzz beta qqq", model)
    assert _arrays(base) == _arrays(noisy)


def test_pair_and_triple_tokens():
    who, biden = ["who", "is", "it"], ["joe", "biden"]
    assert _pair(who, biden) == ["[CLS]", "who", "is", "it", "[SEP]", "joe", "biden"]
    pair = _pair(["q"], [])
    assert pair == ["[CLS]", "q", "[SEP]"]
    assert _triple(pair, ["c", "d"]) == ["[CLS]", "q", "[SEP]", "[SEP]", "c", "d"]
    assert pair == ["[CLS]", "q", "[SEP]"]  # the pair is not extended in place
    assert _triple(_pair([], []), []) == ["[CLS]", "[SEP]", "[SEP]"]


def test_encode_triple_matches_bag_of_words_oracle():
    corpus = [
        triple_tokens("Who is the president of the US in 2023?", "Joe Biden", "Joseph Biden"),
        triple_tokens("Where is the Eiffel Tower located?", "Paris", "France"),
    ]
    model = fit(corpus)
    indices, values = _row(
        encode_triple(
            "Who is the president of the US in 2023?", "Joe Biden", "Joseph Biden", model
        ),
        model,
    )
    # hand-built oracle: count the tokens of the normalized concatenation,
    # weight by idf, then L2-normalize
    tokens = "[CLS] who is the president of the us in 2023 [SEP] joe biden [SEP] joseph biden"
    assert corpus[0] == tokens.split()
    expected_counts: dict[str, int] = {}
    for tok in tokens.split():
        expected_counts[tok] = expected_counts.get(tok, 0) + 1
    weights = {
        model.vocabulary[tok]: count * model.idf[model.vocabulary[tok]]
        for tok, count in expected_counts.items()
        if tok in model.vocabulary
    }
    norm = math.sqrt(_left_to_right(w * w for w in weights.values()))
    for idx, value in zip(indices.tolist(), values.tolist()):
        assert value == pytest.approx(weights[idx] / norm, abs=1e-12)
    assert set(indices.tolist()) == set(weights)


def test_separators_are_ordinary_vocabulary_tokens():
    model = fit([triple_tokens("q one", "a one", "c one")])
    assert CLS_TOKEN in model.vocabulary
    assert SEP_TOKEN in model.vocabulary
    indices, _ = _row(encode_pair("totally new question", "unseen answer", model), model)
    # only the separators survive as in-vocabulary tokens
    cols = {model.vocabulary[CLS_TOKEN], model.vocabulary[SEP_TOKEN]}
    assert set(indices.tolist()) == cols


def test_random_documents_norms():
    rng = random.Random(41)
    vocab_pool = [f"tok{i}" for i in range(30)]
    corpus = [
        " ".join(rng.choice(vocab_pool) for _ in range(rng.randint(1, 12))) for _ in range(40)
    ]
    model = fit(docs(*corpus))
    for doc in corpus:
        _, values = _row(transform(doc, model), model)
        assert math.sqrt(values @ values) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda d: d["idf"].pop(), "idf weights"),
        (lambda d: d["vocab"].__setitem__(1, d["vocab"][0]), "duplicate"),
        (lambda d: d["idf"].__setitem__(0, 0.0), "finite and positive"),
        (lambda d: d["idf"].__setitem__(0, float("inf")), "finite and positive"),
        (lambda d: d["idf"].__setitem__(0, float("nan")), "finite and positive"),
        (lambda d: d["idf"].__setitem__(0, None), "idf: must be numbers"),
        (lambda d: d["config"].__setitem__("smooth_idf", False), "smoothed idf"),
        (lambda d: d["config"].__setitem__("l2_normalize", False), "L2 normalization"),
        (lambda d: d["config"].__setitem__("l2_normalize", 1), "L2 normalization"),
        (lambda d: d["config"].__setitem__("min_df", 2), "min_df"),
        (lambda d: d["config"].__setitem__("min_df", True), "min_df"),
    ],
    ids=[
        "short-idf",
        "duplicate-token",
        "zero-idf",
        "inf-idf",
        "nan-idf",
        "null-idf",
        "unsmoothed-idf",
        "unnormalized",
        "truthy-not-true",
        "min-df-2",
        "boolean-min-df",
    ],
)
def test_from_dict_rejects_corrupt_models(damage, message):
    data = json.loads(json.dumps(fit(docs("a b", "b c", "c d")).to_dict()))
    assert TfidfModel.from_dict(data).to_dict() == data
    damage(data)
    with pytest.raises(ValueError, match=message):
        TfidfModel.from_dict(data)


@SETTINGS
@given(question=field, answer=field, candidate=field)
def test_encoders_equal_transform_of_the_joined_text(seed_model, question, answer, candidate):
    # the encoders build token lists; the text they stand for is the
    # "[CLS] q [SEP] a [SEP] c" string of the normalized fields, fields that
    # normalize to nothing included
    q, a, c = (normalize(text, PEDANTS_POLICY) for text in (question, answer, candidate))
    pair_text = f"{CLS_TOKEN} {q} {SEP_TOKEN} {a}"
    triple_text = f"{pair_text} {SEP_TOKEN} {c}"
    for model in (seed_model.type_vectorizer, seed_model.judge_vectorizer):
        pair, triple = transform(pair_text, model), transform(triple_text, model)
        assert _arrays(encode_pair(question, answer, model)) == _arrays(pair)
        assert _arrays(encode_triple(question, answer, candidate, model)) == _arrays(triple)


def _tfidf_oracle(doc: list[str], model: TfidfModel) -> tuple[list[int], list[float]]:
    """tf x idf of one token list, written out: counts, sorted columns, the
    squared weights summed left to right in column order, then each weight
    divided."""
    counts = Counter(model.vocabulary[tok] for tok in doc if tok in model.vocabulary)
    cols = sorted(counts)
    weights = [counts[col] * model.idf[col] for col in cols]
    norm = math.sqrt(_left_to_right(w * w for w in weights))
    return cols, [w / norm for w in weights]


def _check_block(rows, model):
    """The block encoder on the pairs, then the triples, of (q, a, c) rows
    gives each document the bits of ``encode_pair``/``encode_triple`` and of
    the oracle, in its segment's columns, closed by its segment's bias."""
    norm = [[tokens(text, PEDANTS_POLICY) for text in row] for row in rows]
    pairs = [_pair(q, a) for q, a, _ in norm]
    triples = [_triple(pair, c) for pair, (*_, c) in zip(pairs, norm)]
    pair_vec, triple_vec = model.type_vectorizer, model.judge_vectorizer
    block = _encode((pairs, pair_vec), (triples, triple_vec))
    indices, values, starts = block.indices, block.values, block.starts
    n = len(rows)
    assert starts.dtype == indices.dtype == np.intp and values.dtype == np.float64
    assert len(starts) == 2 * n and starts[0] == 0
    ends = [*starts[1:].tolist(), len(indices)]
    offset = pair_vec.dimension + 1
    for i, (start, end) in enumerate(zip(starts.tolist(), ends)):
        row, (q, a, c) = i % n, rows[i % n]
        if i < n:
            alone, shift = encode_pair(q, a, pair_vec), 0
            doc, vocab = pairs[row], pair_vec
        else:
            alone, shift = encode_triple(q, a, c, triple_vec), offset
            doc, vocab = triples[row], triple_vec
        alone_indices, alone_values = _row(alone, vocab)
        # the bias entry closes the document, in its segment's bias row
        assert indices[end - 1] == shift + vocab.dimension and values[end - 1] == 1.0
        got_indices, got_values = indices[start : end - 1] - shift, values[start : end - 1]
        assert got_indices.tolist() == alone_indices.tolist()
        assert got_values.tobytes() == alone_values.tobytes()
        cols, weights = _tfidf_oracle(doc, vocab)
        assert got_indices.tolist() == cols
        assert got_values.tobytes() == np.array(weights, dtype=np.float64).tobytes()


REPEATS = ("Who who is is is it?", "Biden Biden biden", "the the cats cat")


@pytest.mark.parametrize("bundle", ["seed_model", "sparse_model"])
def test_block_encoder_equals_per_call_encoders_on_edge_rows(bundle, request):
    # repeated tokens; all-OOV rows (the bias entry alone); a row whose pair
    # is OOV while its triple is not, and the reverse (under sparse_model)
    edge = [REPEATS, ("zzqx qqq", "xyzzy", "plugh")] + [
        (ex.question, ex.references[0], ex.candidate)
        for ex in (EMPTY_BOTH, EMPTY_PAIR, EMPTY_TRIPLE)
    ]
    model = request.getfixturevalue(bundle)
    _check_block(edge, model)
    for row in edge:
        _check_block([row], model)


@SETTINGS
@given(rows=st.lists(st.tuples(field, field, field), min_size=1, max_size=5))
def test_block_encoder_equals_per_call_encoders(seed_model, sparse_model, rows):  # noqa: F811
    for model in (seed_model, sparse_model):
        _check_block(rows, model)


def test_norm_sums_squares_left_to_right_on_every_python():
    # a nine-token document whose squared weights sum to other bits with
    # compensation than without: the encoder takes the plain sum on every
    # interpreter, so it encodes to the same bits under CPython 3.10-3.13
    model = fit(docs("alpha bravo", "bravo charlie delta", "echo foxtrot golf hotel",
                     "india juliet", "kilo lima alpha", "delta echo", "golf", "hotel india kilo"))
    doc = "bravo lima india kilo golf lima india echo india".split()
    block = _encode(([doc], model))
    indices, values = block.indices, block.values
    counts = Counter(model.vocabulary[tok] for tok in doc)
    cols = sorted(counts)
    weights = [counts[col] * model.idf[col] for col in cols]
    squares = [w * w for w in weights]
    assert _left_to_right(squares) != _compensated(squares)
    norm = math.sqrt(_left_to_right(squares))
    assert indices[:-1].tolist() == cols
    assert values[:-1].tobytes() == np.array([w / norm for w in weights]).tobytes()
    assert values[:-1].tobytes() != np.array(
        [w / math.sqrt(_compensated(squares)) for w in weights]
    ).tobytes()
