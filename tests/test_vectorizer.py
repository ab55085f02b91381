import json
import math
import random

import numpy as np
import pytest

from pedants.errors import EmptyCorpus
from pedants.vectorizer import (
    CLS_TOKEN,
    SEP_TOKEN,
    SparseVector,
    TfidfConfig,
    TfidfModel,
    build_triple_text,
    encode_pair,
    encode_triple,
    fit,
    transform,
)


def test_fit_document_frequencies_and_idf():
    model = fit(["a b", "b c"])
    # df(b)=2=N so idf collapses to 1; df(a)=df(c)=1
    assert model.doc_count == 2
    assert model.idf[model.vocabulary["b"]] == pytest.approx(1.0, abs=1e-12)
    expected = math.log(3 / 2) + 1  # independent evaluation of the smoothing formula
    assert model.idf[model.vocabulary["a"]] == pytest.approx(expected, abs=1e-12)
    assert model.idf[model.vocabulary["c"]] == pytest.approx(expected, abs=1e-12)


def test_vocabulary_is_sorted_bijection():
    model = fit(["delta alpha", "charlie bravo alpha"])
    tokens = sorted(model.vocabulary)
    assert [model.vocabulary[t] for t in tokens] == list(range(len(tokens)))
    assert all(w > 0 and math.isfinite(w) for w in model.idf)


def test_fit_empty_corpus():
    with pytest.raises(EmptyCorpus):
        fit([])


def test_fit_deterministic_serialization():
    corpus = ["zeta alpha alpha", "beta gamma", "alpha beta"]
    first = json.dumps(fit(corpus).to_dict(), sort_keys=True)
    second = json.dumps(fit(corpus).to_dict(), sort_keys=True)
    assert first == second


def test_serialization_round_trip():
    model = fit(["a b", "b c"], TfidfConfig(min_df=1))
    clone = TfidfModel.from_dict(model.to_dict())
    assert clone.vocabulary == model.vocabulary
    assert clone.idf == model.idf
    assert clone.config == model.config


def test_transform_unit_norm_and_nonzero_for_fitting_docs():
    corpus = ["alpha beta", "beta gamma gamma", "delta"]
    model = fit(corpus)
    for doc in corpus:
        vec = transform(doc, model)
        assert vec.nnz > 0
        assert vec.norm() == pytest.approx(1.0, abs=1e-9)


def test_transform_all_oov_is_zero_vector():
    model = fit(["alpha beta"])
    vec = transform("missing tokens only", model)
    assert vec.nnz == 0
    assert vec.norm() == 0.0


def test_transform_drops_oov_but_keeps_direction():
    # adding OOV tokens must not change the encoded vector
    model = fit(["alpha beta", "beta gamma"])
    base = transform("alpha beta", model)
    noisy = transform("alpha zzz beta qqq", model)
    assert base == noisy


def test_encode_triple_matches_bag_of_words_oracle():
    corpus = [
        build_triple_text("Who is the president of the US in 2023?", "Joe Biden", "Joseph Biden"),
        build_triple_text("Where is the Eiffel Tower located?", "Paris", "France"),
    ]
    model = fit(corpus)
    vec = encode_triple(
        "Who is the president of the US in 2023?", "Joe Biden", "Joseph Biden", model
    )
    # hand-built oracle: count tokens of the normalized concatenation, weight
    # by idf, then L2-normalize
    text = corpus[0]
    expected_counts: dict[str, int] = {}
    for tok in text.split():
        expected_counts[tok] = expected_counts.get(tok, 0) + 1
    weights = {
        model.vocabulary[tok]: count * model.idf[model.vocabulary[tok]]
        for tok, count in expected_counts.items()
        if tok in model.vocabulary
    }
    norm = math.sqrt(sum(w * w for w in weights.values()))
    for idx, value in zip(vec.indices, vec.values):
        assert value == pytest.approx(weights[idx] / norm, abs=1e-12)
    assert set(vec.indices) == set(weights)


def test_separators_are_ordinary_vocabulary_tokens():
    model = fit([build_triple_text("q one", "a one", "c one")])
    assert CLS_TOKEN in model.vocabulary
    assert SEP_TOKEN in model.vocabulary
    vec = encode_pair("totally new question", "unseen answer", model)
    # only the separators survive as in-vocabulary tokens
    cols = {model.vocabulary[CLS_TOKEN], model.vocabulary[SEP_TOKEN]}
    assert set(vec.indices) == cols


def test_sparse_vector_validation():
    with pytest.raises(ValueError):
        SparseVector(3, (0, 0), (1.0, 1.0))  # duplicate index
    with pytest.raises(ValueError):
        SparseVector(3, (2, 1), (1.0, 1.0))  # unsorted
    with pytest.raises(ValueError):
        SparseVector(3, (3,), (1.0,))  # out of range
    with pytest.raises(ValueError):
        SparseVector(3, (0,), (math.inf,))  # non-finite
    with pytest.raises(ValueError):
        SparseVector(3, (-1,), (1.0,))  # negative
    with pytest.raises(ValueError):
        SparseVector(3, (0, 1), (1.0,))  # misaligned


def test_sparse_vector_holds_read_only_copies():
    indices, values = np.array([0, 2]), np.array([0.5, 1.5])
    vec = SparseVector(3, indices, values)
    assert vec.indices.dtype == np.intp and vec.values.dtype == np.float64
    indices[0], values[0] = 1, 9.0  # the caller's arrays are not the vector's
    assert vec.indices.tolist() == [0, 2] and vec.values.tolist() == [0.5, 1.5]
    for array in (vec.indices, vec.values):
        with pytest.raises(ValueError):
            array[0] = 1
    assert vec == SparseVector(3, (0, 2), (0.5, 1.5))
    assert vec != SparseVector(3, (0, 2), (0.5, 1.0))
    assert vec != SparseVector(4, (0, 2), (0.5, 1.5))
    assert SparseVector(3, (), ()) == SparseVector(3, [], [])


def test_min_document_frequency_filter():
    corpus = ["alpha beta", "beta gamma", "beta alpha"]
    model = fit(corpus, TfidfConfig(min_df=2))
    assert set(model.vocabulary) == {"alpha", "beta"}
    vec = transform("gamma", model)  # filtered token behaves as OOV
    assert vec.nnz == 0


def test_random_documents_norms():
    rng = random.Random(41)
    vocab_pool = [f"tok{i}" for i in range(30)]
    corpus = [
        " ".join(rng.choice(vocab_pool) for _ in range(rng.randint(1, 12))) for _ in range(40)
    ]
    model = fit(corpus)
    for doc in corpus:
        assert transform(doc, model).norm() == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda d: d["idf"].pop(), "idf weights"),
        (lambda d: d["vocab"].__setitem__(1, d["vocab"][0]), "duplicate"),
        (lambda d: d["idf"].__setitem__(0, 0.0), "finite and positive"),
        (lambda d: d["idf"].__setitem__(0, float("inf")), "finite and positive"),
        (lambda d: d["idf"].__setitem__(0, float("nan")), "finite and positive"),
        (lambda d: d["idf"].__setitem__(0, None), "finite and positive"),
        (lambda d: d["config"].__setitem__("smooth_idf", False), "smoothed idf"),
        (lambda d: d["config"].__setitem__("l2_normalize", False), "L2 normalization"),
        (lambda d: d["config"].__setitem__("l2_normalize", 1), "L2 normalization"),
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
    ],
)
def test_from_dict_rejects_corrupt_models(damage, message):
    data = json.loads(json.dumps(fit(["a b", "b c", "c d"]).to_dict()))
    assert TfidfModel.from_dict(data).to_dict() == data
    damage(data)
    with pytest.raises(ValueError, match=message):
        TfidfModel.from_dict(data)
