import json

import numpy as np
import pytest

import oracles
from oracles import (
    batch_gd_predict,
    batch_gd_train,
    reference_mean_loss,
    reference_train,
    train_vectors,
)
from pedants import linear
from pedants.errors import DimensionMismatch, SingleClassCorpus
from pedants.linear import (
    LOGIT_CLAMP,
    L2_PENALTY,
    LinearModel,
    _flatten,
    _mean_loss,
    predict_proba,
    train,
)
from pedants.vectorizer import SparseVector


def _dense_to_sparse(row) -> SparseVector:
    entries = [(i, float(v)) for i, v in enumerate(row) if v != 0.0]
    if not entries:
        return SparseVector(len(row), (), ())
    idx, vals = zip(*entries)
    return SparseVector(len(row), idx, vals)


def _label(model, x) -> int:
    """The argmax class; ties resolve to the lowest class index."""
    return int(np.argmax(predict_proba(model, x)))


def _make_blobs(n_per_class=10, seed=99, spread=0.4):
    rng = np.random.default_rng(seed)
    pos = rng.normal(loc=(2.0, 2.0), scale=spread, size=(n_per_class, 2))
    neg = rng.normal(loc=(-2.0, -2.0), scale=spread, size=(n_per_class, 2))
    X = np.vstack([pos, neg])
    y = np.array([1] * n_per_class + [0] * n_per_class)
    return X, y


def test_separable_two_points():
    data = [
        (_dense_to_sparse([1.0, 0.0]), 0),
        (_dense_to_sparse([0.0, 1.0]), 1),
    ]
    model = train_vectors(data)
    assert [_label(model, x) for x, _ in data] == [0, 1]


def test_training_is_deterministic():
    X, y = _make_blobs()
    data = [(_dense_to_sparse(row), int(label)) for row, label in zip(X, y)]
    first = train_vectors(data, seed=668)
    second = train_vectors(data, seed=668)
    assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
        second.to_dict(), sort_keys=True
    )


def test_agrees_with_batch_gd_oracle_on_blobs():
    for seed in (99, 100, 101):
        X, y = _make_blobs(seed=seed)
        data = [(_dense_to_sparse(row), int(label)) for row, label in zip(X, y)]
        model = train_vectors(data)
        ours = [_label(model, x) for x, _ in data]
        W, b = batch_gd_train(X, y)
        oracle = batch_gd_predict(W, b, X).tolist()
        assert ours == oracle


def test_zero_model_probabilities():
    two = LinearModel(2, np.zeros((2, 3)), np.zeros(2))
    x = _dense_to_sparse([1.0, 2.0, 0.0])
    assert predict_proba(two, x) == pytest.approx([0.5, 0.5], abs=1e-12)
    seven = LinearModel(7, np.zeros((7, 3)), np.zeros(7))
    assert predict_proba(seven, x) == pytest.approx([1 / 7] * 7, abs=1e-12)


def test_softmax_hand_oracle_on_one_hot_input():
    weights = np.array([[1.0, 0.0], [2.0, 0.0], [0.5, 0.0]])
    model = LinearModel(3, weights, np.zeros(3))
    probs = predict_proba(model, _dense_to_sparse([1.0, 0.0]))
    import math

    exp = [math.exp(1.0), math.exp(2.0), math.exp(0.5)]
    total = sum(exp)
    assert probs == pytest.approx([e / total for e in exp], abs=1e-12)


def test_predict_tie_break_and_argmax():
    uniform = LinearModel(3, np.zeros((3, 2)), np.zeros(3))
    assert _label(uniform, _dense_to_sparse([1.0, 1.0])) == 0  # ties -> lowest index
    biased = LinearModel(2, np.zeros((2, 2)), np.array([0.0, 2.1972245773362196]))
    x = _dense_to_sparse([0.0, 0.0])
    probs = predict_proba(biased, x)
    assert probs[1] == pytest.approx(0.9, abs=1e-9)
    assert _label(biased, x) == 1


def test_seven_class_dominant_input():
    weights = np.zeros((7, 7))
    np.fill_diagonal(weights, 5.0)
    model = LinearModel(7, weights, np.zeros(7))
    for cls in range(7):
        one_hot = [0.0] * 7
        one_hot[cls] = 1.0
        assert _label(model, _dense_to_sparse(one_hot)) == cls


def test_probabilities_no_nan_even_for_huge_inputs():
    model = LinearModel(2, np.array([[1e6, -1e6], [-1e6, 1e6]]), np.zeros(2))
    probs = predict_proba(model, _dense_to_sparse([1e6, 1e6]))
    assert np.all(np.isfinite(probs))
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(probs > 0) and np.all(probs < 1)


def test_single_class_corpus_rejected():
    data = [(_dense_to_sparse([1.0, 0.0]), 1), (_dense_to_sparse([0.0, 1.0]), 1)]
    with pytest.raises(SingleClassCorpus):
        train_vectors(data)


def test_train_checks_its_labels():
    # the trainer trusts its arrays, but not its labels
    encodings = [(np.array([0], dtype=np.intp), np.array([1.0]))] * 2
    with pytest.raises(ValueError, match="out of range for 2 classes"):
        train(encodings, [0, 2], 1, 2)
    with pytest.raises(ValueError, match="3 labels for 2 examples"):
        train(encodings, [0, 1, 1], 1, 2)
    with pytest.raises(ValueError, match="no training examples"):
        train([], [], 1, 2)
    with pytest.raises(SingleClassCorpus):
        train(encodings, [1, 1], 1, 2)
    assert train(encodings, [0, 1], 1, 7).classes == 7


def test_dimension_mismatch_on_predict():
    model = LinearModel(2, np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(DimensionMismatch):
        predict_proba(model, _dense_to_sparse([1.0]))


def test_serialization_round_trip_bit_exact():
    X, y = _make_blobs(seed=123)
    data = [(_dense_to_sparse(row), int(label)) for row, label in zip(X, y)]
    model = train_vectors(data)
    clone = LinearModel.from_dict(model.to_dict())
    assert np.array_equal(clone.weights, model.weights)
    assert np.array_equal(clone.bias, model.bias)
    assert clone.seed == model.seed


def test_feature_scaling_keeps_argmax_on_separable_data():
    X, y = _make_blobs(seed=7)
    base = [(_dense_to_sparse(row), int(label)) for row, label in zip(X, y)]
    scaled = [(_dense_to_sparse(row * 3.0), int(label)) for row, label in zip(X, y)]
    model_base = train_vectors(base)
    model_scaled = train_vectors(scaled)
    labels_base = [_label(model_base, x) for x, _ in base]
    labels_scaled = [_label(model_scaled, x) for x, _ in scaled]
    assert labels_base == labels_scaled


def test_final_loss_never_exceeds_initial():
    # conflicting duplicate features: zero weights are already near-optimal
    data = [
        (_dense_to_sparse([1.0, 1.0]), 0),
        (_dense_to_sparse([1.0, 1.0]), 1),
    ]
    model = train_vectors(data)
    batch = _flatten([(x.indices, x.values) for x, _ in data])
    labels = np.array([y for _, y in data])
    final = _mean_loss(model.weights, model.bias, batch, labels)
    initial = _mean_loss(np.zeros_like(model.weights), np.zeros_like(model.bias), batch, labels)
    assert final <= initial + 1e-12


def _random_examples(rng, n, dim, n_labels, signal=0.0, empty_share=0.15):
    """Rows of normal noise on features n_labels and up, plus feature `label`
    set to `signal` when that is nonzero. Some rows have no entries, and the
    first two carry labels 0 and 1, so at least two classes are present."""
    examples = []
    for i in range(n):
        label = i if i < 2 else int(rng.integers(n_labels))
        nnz = 0 if rng.random() < empty_share else int(rng.integers(1, 9))
        entries = dict(zip(rng.choice(range(n_labels, dim), nnz, replace=False).tolist(),
                           rng.normal(0.0, 1.0, nnz).tolist()))
        if nnz and signal:
            entries[label] = signal
        idx = sorted(entries)
        examples.append((SparseVector(dim, tuple(idx), tuple(entries[j] for j in idx)), label))
    return examples


_TRAINER_CASES = pytest.mark.parametrize(
    "n_classes, n_labels, signal, seed",
    [(2, 2, 0.0, 1), (7, 7, 0.0, 2), (2, 2, 20.0, 3), (7, 7, 20.0, 4), (7, 4, 0.0, 5)],
    ids=["2-class", "7-class", "2-class-clamped", "7-class-clamped", "unused-classes"],
)


@_TRAINER_CASES
def test_train_matches_reference_trainer_bit_for_bit(
    n_classes, n_labels, signal, seed, monkeypatch
):
    # with no decay the weight scale stays exactly 1.0, so the lazy-scale
    # trainer must give the eager oracle's bits (the oracle reads the same
    # constant)
    monkeypatch.setattr(linear, "L2_PENALTY", 0.0)
    rng = np.random.default_rng(seed)
    examples = _random_examples(rng, 80, 40, n_labels, signal)
    assert any(x.nnz == 0 for x, _ in examples)
    model = train_vectors(examples, seed=seed, n_classes=n_classes)
    assert model.to_dict() == reference_train(examples, seed=seed, n_classes=n_classes).to_dict()
    # scoring reads its own copy of the weights, so their layout cannot move
    # a probability's bits
    fortran = LinearModel(model.classes, np.asfortranarray(model.weights), model.bias, seed)
    assert not fortran.weights.flags["C_CONTIGUOUS"]
    for x, _ in examples:
        assert predict_proba(fortran, x).tobytes() == predict_proba(model, x).tobytes()
    if signal:  # the trained model scores past the clamp
        scores = [model.weights[:, x.indices] @ x.values + model.bias for x, _ in examples]
        assert np.abs(scores).max() > LOGIT_CLAMP


def _epoch_losses(monkeypatch, module, name):
    """Record every loss ``module.name`` returns: one before the first epoch
    and one after each."""
    losses = []
    loss = getattr(module, name)

    def recorded(*args):
        losses.append(loss(*args))
        return losses[-1]

    monkeypatch.setattr(module, name, recorded)
    return losses


def _assert_tracks_reference(examples, seed, n_classes, monkeypatch):
    """The lazy-scale trainer stays within 1e-9 of max |w| of the eager
    oracle, and runs as many epochs and picks the same best one."""
    ours = _epoch_losses(monkeypatch, linear, "_mean_loss")
    theirs = _epoch_losses(monkeypatch, oracles, "reference_mean_loss")
    model = train_vectors(examples, seed=seed, n_classes=n_classes)
    reference = reference_train(examples, seed=seed, n_classes=n_classes)
    bound = 1e-9 * np.abs(reference.weights).max()
    assert bound > 0
    assert np.abs(model.weights - reference.weights).max() <= bound
    assert np.abs(model.bias - reference.bias).max() <= bound
    assert len(ours) == len(theirs) > 2
    assert np.argmin(ours) == np.argmin(theirs)


@_TRAINER_CASES
def test_train_tracks_eager_reference_with_decay(n_classes, n_labels, signal, seed, monkeypatch):
    assert L2_PENALTY > 0
    examples = _random_examples(np.random.default_rng(seed), 80, 40, n_labels, signal)
    _assert_tracks_reference(examples, seed, n_classes, monkeypatch)


@_TRAINER_CASES
def test_train_folds_a_small_weight_scale(n_classes, n_labels, signal, seed, monkeypatch):
    # the first epoch's 80 decays take the scale below this floor, so the
    # trainer folds the scale into the weights within that epoch
    floor = 0.999
    assert (1.0 - linear.ETA0 * L2_PENALTY) ** 80 < floor
    monkeypatch.setattr(linear, "_MIN_SCALE", floor)
    examples = _random_examples(np.random.default_rng(seed), 80, 40, n_labels, signal)
    _assert_tracks_reference(examples, seed, n_classes, monkeypatch)


@pytest.mark.parametrize("empty_share", [0.0, 0.3, 1.0], ids=["full", "some-empty", "all-empty"])
def test_batched_loss_matches_per_example_loss(empty_share):
    rng = np.random.default_rng(7)
    for case in range(40):
        n_classes = (2, 7)[case % 2]
        scale = (0.5, 20.0)[case // 2 % 2]  # the larger one reaches the clamp
        examples = _random_examples(rng, 30, 25, n_classes, empty_share=empty_share)
        arrays = [(x.indices, x.values) for x, _ in examples]
        labels = np.array([y for _, y in examples], dtype=np.intp)
        weights = rng.normal(0.0, scale, (n_classes, 25))
        bias = rng.normal(0.0, scale, n_classes)
        batched = _mean_loss(weights, bias, _flatten(arrays), labels)
        per_example = reference_mean_loss(weights, bias, arrays, labels, L2_PENALTY)
        assert batched == pytest.approx(per_example, rel=1e-12, abs=0)


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda d: d["weights"].pop(), "weights"),
        (lambda d: d["weights"].append(0.0), "weights"),
        (lambda d: d["bias"].pop(), "biases"),
        (lambda d: d["weights"].__setitem__(2, float("nan")), "finite"),
        (lambda d: d["weights"].__setitem__(0, float("-inf")), "finite"),
        (lambda d: d["bias"].__setitem__(1, float("inf")), "finite"),
        (lambda d: d.__setitem__("classes", float("inf")), "malformed"),
    ],
    ids=["short", "long", "short-bias", "nan-weight", "inf-weight", "inf-bias", "inf-classes"],
)
def test_from_dict_rejects_corrupt_models(damage, message):
    X, y = _make_blobs()
    model = train_vectors([(_dense_to_sparse(row), int(label)) for row, label in zip(X, y)])
    data = json.loads(json.dumps(model.to_dict()))
    assert LinearModel.from_dict(data).to_dict() == data
    damage(data)
    with pytest.raises(ValueError, match=message):
        LinearModel.from_dict(data)
