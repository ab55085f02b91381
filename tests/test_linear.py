import json

import numpy as np
import pytest

import oracles
from oracles import (
    batch_gd_predict,
    batch_gd_train,
    batch_of,
    lazy_reference_train,
    reference_mean_loss,
    reference_train,
    train_vectors,
)
from pedants import linear
from pedants.errors import SingleClassCorpus
from pedants.linear import (
    LOGIT_CLAMP,
    L2_PENALTY,
    LinearModel,
    _mean_loss,
    predict_proba,
    train,
)
from pedants.vectorizer import Batch


def _dense_to_sparse(row) -> tuple[np.ndarray, np.ndarray]:
    """A dense row's nonzero entries as (indices, values)."""
    idx = np.flatnonzero(row)
    return idx, np.asarray(row, np.float64)[idx]


def _proba(model, x) -> np.ndarray:
    """The class probabilities of one (indices, values) row, a batch of one."""
    return predict_proba(model, batch_of([x], model.feature_dim))[0]


def _label(model, x) -> int:
    """The argmax class; ties resolve to the lowest class index."""
    return int(np.argmax(_proba(model, x)))


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
    model = train_vectors(data, 2)
    assert [_label(model, x) for x, _ in data] == [0, 1]


def test_training_is_deterministic():
    X, y = _make_blobs()
    data = [(_dense_to_sparse(row), int(label)) for row, label in zip(X, y)]
    first = train_vectors(data, 2, seed=668)
    second = train_vectors(data, 2, seed=668)
    assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
        second.to_dict(), sort_keys=True
    )


def test_agrees_with_batch_gd_oracle_on_blobs():
    for seed in (99, 100, 101):
        X, y = _make_blobs(seed=seed)
        data = [(_dense_to_sparse(row), int(label)) for row, label in zip(X, y)]
        model = train_vectors(data, 2)
        ours = [_label(model, x) for x, _ in data]
        W, b = batch_gd_train(X, y)
        oracle = batch_gd_predict(W, b, X).tolist()
        assert ours == oracle


def test_zero_model_probabilities():
    two = LinearModel(np.zeros((2, 3)), np.zeros(2))
    x = _dense_to_sparse([1.0, 2.0, 0.0])
    assert _proba(two, x) == pytest.approx([0.5, 0.5], abs=1e-12)
    seven = LinearModel(np.zeros((7, 3)), np.zeros(7))
    assert _proba(seven, x) == pytest.approx([1 / 7] * 7, abs=1e-12)


def _planted_scores(rng, rows: int, width: int, first: int) -> np.ndarray:
    """(rows, width) scores, spread so that many lie past the clamp, with
    the softmax rows cycling from ``first`` through a constant row, a row
    whose maximum is tied, a row of values at and just past both clamp
    bounds, a row of huge values and signed zeros, and a random row."""
    scores = rng.normal(0.0, 2 * LOGIT_CLAMP, size=(rows, width))
    edges = [-1e3, -LOGIT_CLAMP - 1e-9, -LOGIT_CLAMP, LOGIT_CLAMP, LOGIT_CLAMP + 1e-9, 1e3]
    for i, row in enumerate(scores):
        kind = (first + i) % 5
        if kind == 0:
            row[:] = row[0]
        elif kind == 1:
            row[rng.permutation(width)[:2]] = row.max() + abs(row[0])
        elif kind == 2:
            row[:] = rng.choice(edges, size=width)
        elif kind == 3:
            row[:] = rng.choice([-1e300, -0.0, 0.0, 1e300], size=width)
    return scores


@pytest.mark.parametrize("n", [1, 7, 256, 2000])
@pytest.mark.parametrize("layout", ["prefix", "judge", "rows"])
def test_softmax_has_the_keepdims_oracle_bits(n, layout):
    # the layouts the package hands it: a judged block's (n, 2, 7) type and
    # rule columns of its (n, 17) prefix, the judge's (n, 2) scores, and an
    # extractor's (n, 7) scores in predict_proba and the training loss
    shape, base, view = {
        "prefix": ((n, 2, 7), (n, 17), lambda a: a[:, :14].reshape(n, 2, 7)),
        "judge": ((n, 2), (n, 2), lambda a: a),
        "rows": ((n, 7), (n, 7), lambda a: a),
    }[layout]
    rng = np.random.default_rng(n)
    for first in range(5):  # each kind of row comes first, so n = 1 sees all five
        got, want = np.full(base, 0.25), np.full(base, 0.25)
        values = _planted_scores(rng, int(np.prod(shape[:-1])), shape[-1], first)
        view(got)[...] = view(want)[...] = values.reshape(shape)
        linear._softmax(view(got))
        oracles.keepdims_softmax(view(want))
        # every bit, and the columns beside the view untouched
        assert got.tobytes() == want.tobytes()
        assert np.isfinite(got).all()


def test_softmax_hand_oracle_on_one_hot_input():
    weights = np.array([[1.0, 0.0], [2.0, 0.0], [0.5, 0.0]])
    model = LinearModel(weights, np.zeros(3))
    probs = _proba(model, _dense_to_sparse([1.0, 0.0]))
    import math

    exp = [math.exp(1.0), math.exp(2.0), math.exp(0.5)]
    total = sum(exp)
    assert probs == pytest.approx([e / total for e in exp], abs=1e-12)


def test_predict_tie_break_and_argmax():
    uniform = LinearModel(np.zeros((3, 2)), np.zeros(3))
    assert _label(uniform, _dense_to_sparse([1.0, 1.0])) == 0  # ties -> lowest index
    biased = LinearModel(np.zeros((2, 2)), np.array([0.0, 2.1972245773362196]))
    x = _dense_to_sparse([0.0, 0.0])
    probs = _proba(biased, x)
    assert probs[1] == pytest.approx(0.9, abs=1e-9)
    assert _label(biased, x) == 1


def test_seven_class_dominant_input():
    weights = np.zeros((7, 7))
    np.fill_diagonal(weights, 5.0)
    model = LinearModel(weights, np.zeros(7))
    for cls in range(7):
        one_hot = [0.0] * 7
        one_hot[cls] = 1.0
        assert _label(model, _dense_to_sparse(one_hot)) == cls


def test_probabilities_no_nan_even_for_huge_inputs():
    model = LinearModel(np.array([[1e6, -1e6], [-1e6, 1e6]]), np.zeros(2))
    probs = _proba(model, _dense_to_sparse([1e6, 1e6]))
    assert np.all(np.isfinite(probs))
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(probs > 0) and np.all(probs < 1)


def test_single_class_corpus_rejected():
    data = [(_dense_to_sparse([1.0, 0.0]), 1), (_dense_to_sparse([0.0, 1.0]), 1)]
    with pytest.raises(SingleClassCorpus):
        train_vectors(data, 2)


def test_train_checks_its_labels():
    # the trainer trusts its arrays, but not its labels
    batch = batch_of([([0], [1.0])] * 2, 1)
    with pytest.raises(ValueError, match="out of range for 2 classes"):
        train(batch, [0, 2], 2)
    with pytest.raises(ValueError, match="3 labels for 2 examples"):
        train(batch, [0, 1, 1], 2)
    with pytest.raises(ValueError, match="no training examples"):
        train(batch_of([], 1), [], 2)
    with pytest.raises(SingleClassCorpus):
        train(batch, [1, 1], 2)
    assert train(batch, [0, 1], 7).classes == 7


def test_dimension_mismatch_on_predict():
    # predict_proba checks its batch: a ValueError names the model's
    # dimension for a batch of another dimension, a negative column or a
    # value that is not finite
    model = LinearModel(np.zeros((2, 3)), np.zeros(2))
    one = np.zeros(1, np.intp)
    bad = [
        batch_of([([0], [1.0])], 1),  # a smaller vectorizer's: its bias in column 1
        batch_of([([0], [1.0])], 5),  # a larger one's: its bias past column 3
        Batch(np.array([0, 2]), np.array([1.0, 1.0]), one),  # no bias entry
        Batch(np.array([0, 3, 3]), np.array([1.0, 1.0, 1.0]), one),  # two
        Batch(np.array([0, 3]), np.array([1.0, 2.0]), one),  # a bias entry not 1
        Batch(np.array([-1, 3]), np.array([1.0, 1.0]), one),
        Batch(np.array([0, 3]), np.array([np.inf, 1.0]), one),
        Batch(np.array([0, 3]), np.array([np.nan, 1.0]), one),
        Batch(np.array([0, 3]), np.array([1.0]), one),  # misaligned
    ]
    for batch in bad:
        with pytest.raises(ValueError, match=r"\b3\b"):
            predict_proba(model, batch)
    good = batch_of([([0, 2], [1.0, 2.0]), ([], [])], 3)
    assert predict_proba(model, good).shape == (2, 2)


def test_predict_proba_scores_a_batch_of_any_size():
    # (rows, C) probabilities, each row with the bits it has alone, and a
    # batch of no rows gives (0, C)
    rng = np.random.default_rng(5)
    model = LinearModel(rng.normal(0.0, 3.0, (7, 6)), rng.normal(0.0, 1.0, 7))
    rows = [_dense_to_sparse(rng.normal(0.0, 2.0, 6) * (rng.random(6) < 0.5)) for _ in range(9)]
    probs = predict_proba(model, batch_of(rows, 6))
    assert probs.shape == (9, 7)
    for x, row in zip(rows, probs, strict=True):
        assert _proba(model, x).tobytes() == row.tobytes()
        assert row == pytest.approx(oracles.softmax(model.weights[:, x[0]] @ x[1] + model.bias))
    assert predict_proba(model, batch_of([], 6)).shape == (0, 7)


def test_serialization_round_trip_bit_exact():
    X, y = _make_blobs(seed=123)
    data = [(_dense_to_sparse(row), int(label)) for row, label in zip(X, y)]
    model = train_vectors(data, 2)
    clone = LinearModel.from_dict(model.to_dict())
    assert np.array_equal(clone.weights, model.weights)
    assert np.array_equal(clone.bias, model.bias)


def test_feature_scaling_keeps_argmax_on_separable_data():
    X, y = _make_blobs(seed=7)
    base = [(_dense_to_sparse(row), int(label)) for row, label in zip(X, y)]
    scaled = [(_dense_to_sparse(row * 3.0), int(label)) for row, label in zip(X, y)]
    model_base = train_vectors(base, 2)
    model_scaled = train_vectors(scaled, 2)
    labels_base = [_label(model_base, x) for x, _ in base]
    labels_scaled = [_label(model_scaled, x) for x, _ in scaled]
    assert labels_base == labels_scaled


def test_final_loss_never_exceeds_initial():
    # conflicting duplicate features: zero weights are already near-optimal
    data = [
        (_dense_to_sparse([1.0, 1.0]), 0),
        (_dense_to_sparse([1.0, 1.0]), 1),
    ]
    model = train_vectors(data, 2)
    batch = batch_of([x for x, _ in data], 2)
    labels = np.array([y for _, y in data])
    final = _mean_loss(model.weights, model.bias, batch, labels)
    initial = _mean_loss(np.zeros_like(model.weights), np.zeros_like(model.bias), batch, labels)
    assert final <= initial + 1e-12


def _random_examples(rng, n, dim, n_labels, signal=0.0, noise=1.0, empty_share=0.15):
    """Rows of normal noise of deviation `noise` on features n_labels and up,
    plus feature `label` set to `signal` when that is nonzero. Some rows have
    no entries, and the first two carry labels 0 and 1, so at least two
    classes are present."""
    examples = []
    for i in range(n):
        label = i if i < 2 else int(rng.integers(n_labels))
        nnz = 0 if rng.random() < empty_share else int(rng.integers(1, 9))
        entries = dict(zip(rng.choice(range(n_labels, dim), nnz, replace=False).tolist(),
                           rng.normal(0.0, noise, nnz).tolist()))
        if nnz and signal:
            entries[label] = signal
        idx = sorted(entries)
        examples.append(((idx, [entries[j] for j in idx]), label))
    return examples


# Steps of the clamped cases cross the clamp: those of "2-class-clamped"
# cross both bounds, "7-class-clamped" adds steps past +30 alone, and
# "low-clamped" steps past -30 alone, so a clamp that tests one bound fails.
_CASES = {
    "2-class": (2, 2, 0.0, 1.0, 1),
    "7-class": (7, 7, 0.0, 1.0, 2),
    "2-class-clamped": (2, 2, 20.0, 1.0, 3),
    "7-class-clamped": (7, 7, 20.0, 1.0, 4),
    "unused-classes": (7, 4, 0.0, 1.0, 5),
    "low-clamped": (7, 3, 5.0, 4.0, 10),
}
_TRAINER_CASES = pytest.mark.parametrize(
    "n_classes, n_labels, signal, noise, seed", list(_CASES.values()), ids=list(_CASES)
)


def test_low_clamped_case_has_steps_past_the_lower_bound_alone(monkeypatch):
    # lazy_reference_train passes each step's scores, and only those, to
    # oracles.softmax: it scores its epoch loss with linear._mean_loss
    n_classes, n_labels, signal, noise, seed = _CASES["low-clamped"]
    steps = []
    softmax = oracles.softmax

    def recorded(scores):
        steps.append((scores.max(), scores.min()))
        return softmax(scores)

    monkeypatch.setattr(oracles, "softmax", recorded)
    examples = _random_examples(np.random.default_rng(seed), 80, 40, n_labels, signal, noise)
    lazy_reference_train(examples, 40, seed=seed, n_classes=n_classes)
    assert len(steps) > len(examples)  # more than one epoch
    assert any(hi <= LOGIT_CLAMP < -lo for hi, lo in steps)


@_TRAINER_CASES
def test_train_matches_reference_trainer_bit_for_bit(
    n_classes, n_labels, signal, noise, seed, monkeypatch
):
    # with no decay the weight scale stays exactly 1.0, so the lazy-scale
    # trainer must give the eager oracle's bits (the oracle reads the same
    # constant)
    monkeypatch.setattr(linear, "L2_PENALTY", 0.0)
    rng = np.random.default_rng(seed)
    examples = _random_examples(rng, 80, 40, n_labels, signal, noise)
    assert any(not idx for (idx, _), _ in examples)
    model = train_vectors(examples, 40, seed=seed, n_classes=n_classes)
    reference = reference_train(examples, 40, seed=seed, n_classes=n_classes)
    assert model.to_dict() == reference.to_dict()
    # scoring reads its own copy of the weights, so their layout cannot move
    # a probability's bits
    fortran = LinearModel(np.asfortranarray(model.weights), model.bias)
    assert not fortran.weights.flags["C_CONTIGUOUS"]
    batch = batch_of([x for x, _ in examples], 40)
    assert predict_proba(fortran, batch).tobytes() == predict_proba(model, batch).tobytes()
    if signal:  # the trained model scores past the clamp
        scores = [model.weights[:, idx] @ vals + model.bias for (idx, vals), _ in examples]
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


def _assert_tracks_reference(examples, dim, seed, n_classes, monkeypatch):
    """The lazy-scale trainer stays within 1e-9 of max |w| of the eager
    oracle, and runs as many epochs and picks the same best one."""
    ours = _epoch_losses(monkeypatch, linear, "_mean_loss")
    theirs = _epoch_losses(monkeypatch, oracles, "reference_mean_loss")
    model = train_vectors(examples, dim, seed=seed, n_classes=n_classes)
    reference = reference_train(examples, dim, seed=seed, n_classes=n_classes)
    bound = 1e-9 * np.abs(reference.weights).max()
    assert bound > 0
    assert np.abs(model.weights - reference.weights).max() <= bound
    assert np.abs(model.bias - reference.bias).max() <= bound
    assert len(ours) == len(theirs) > 2
    assert np.argmin(ours) == np.argmin(theirs)


@_TRAINER_CASES
def test_train_tracks_eager_reference_with_decay(
    n_classes, n_labels, signal, noise, seed, monkeypatch
):
    assert L2_PENALTY > 0
    examples = _random_examples(np.random.default_rng(seed), 80, 40, n_labels, signal, noise)
    _assert_tracks_reference(examples, 40, seed, n_classes, monkeypatch)


@_TRAINER_CASES
def test_train_folds_a_small_weight_scale(
    n_classes, n_labels, signal, noise, seed, monkeypatch
):
    # the first epoch's 80 decays take the scale below this floor, so the
    # trainer folds the scale into the weights within that epoch
    floor = 0.999
    assert (1.0 - linear.ETA0 * L2_PENALTY) ** 80 < floor
    monkeypatch.setattr(linear, "_MIN_SCALE", floor)
    examples = _random_examples(np.random.default_rng(seed), 80, 40, n_labels, signal, noise)
    _assert_tracks_reference(examples, 40, seed, n_classes, monkeypatch)


@_TRAINER_CASES
def test_train_matches_lazy_reference_with_decay_bit_for_bit(
    n_classes, n_labels, signal, noise, seed, monkeypatch
):
    # with decay on, the trainer's step has the bits of the same arithmetic
    # written as plain expressions, at the default scale floor and at one
    # the first epoch's decays cross, so the scale is also folded
    assert L2_PENALTY > 0
    assert (1.0 - linear.ETA0 * L2_PENALTY) ** 80 < 0.999
    examples = _random_examples(np.random.default_rng(seed), 80, 40, n_labels, signal, noise)
    for floor in (linear._MIN_SCALE, 0.999):
        monkeypatch.setattr(linear, "_MIN_SCALE", floor)
        model = train_vectors(examples, 40, seed=seed, n_classes=n_classes)
        reference = lazy_reference_train(examples, 40, seed=seed, n_classes=n_classes)
        assert model.to_dict() == reference.to_dict()


@pytest.mark.parametrize("empty_share", [0.0, 0.3, 1.0], ids=["full", "some-empty", "all-empty"])
def test_batched_loss_matches_per_example_loss(empty_share):
    rng = np.random.default_rng(7)
    for case in range(40):
        n_classes = (2, 7)[case % 2]
        scale = (0.5, 20.0)[case // 2 % 2]  # the larger one reaches the clamp
        examples = _random_examples(rng, 30, 25, n_classes, empty_share=empty_share)
        arrays = [(np.array(idx, np.intp), np.array(vals)) for (idx, vals), _ in examples]
        labels = np.array([y for _, y in examples], dtype=np.intp)
        weights = rng.normal(0.0, scale, (n_classes, 25))
        bias = rng.normal(0.0, scale, n_classes)
        batched = _mean_loss(weights, bias, batch_of(arrays, 25), labels)
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
    model = train_vectors([(_dense_to_sparse(row), int(label)) for row, label in zip(X, y)], 2)
    data = json.loads(json.dumps(model.to_dict()))
    assert LinearModel.from_dict(data).to_dict() == data
    damage(data)
    with pytest.raises(ValueError, match=message):
        LinearModel.from_dict(data)
