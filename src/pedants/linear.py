"""Deterministic logistic regression on sparse features.

Training is epoch-ordered SGD: one pass per epoch over a seed-shuffled
permutation of the examples, inverse-scaling learning rate, L2 weight decay,
and an epoch-loss stopping rule. The weights are held as a scalar times an
array and the decay shrinks only the scalar, so a step costs O(classes x
entries) of its example. (data, seed) fully determines the model;
no ambient randomness is consulted. Multiclass probabilities come from a
single multinomial softmax, which for two classes reduces to the sigmoid
pair of the score difference. ``vectorizer.Batch`` is the one sparse-row
type: the training loss, ``predict_proba`` and the pipeline's batched judge
score it with one kernel (``_scores``), which sums each row alone, so a row
has the same bits in any batch, and the trainer reads a ``Batch`` as it is.
A frozen ``LinearModel`` holds its weights and bias only: its class count
and dimension are their shape, and its seed is its bundle's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import SingleClassCorpus
from .io import DEFAULT_SEED
from .vectorizer import Batch, check_count, check_fixed, check_numbers

# Numerical guard: scores are clamped here before exponentiation, so no
# NaN/Inf can ever leave the softmax.
LOGIT_CLAMP = 30.0


# The trainer's fixed SGD settings. The learning rate at 0-based epoch e is
# ETA0 / (1 + e)**LR_POWER, each step decays the weights by L2_PENALTY, and
# training stops once an epoch improves the regularized mean log loss by less
# than TOLERANCE, or after MAX_EPOCHS. Only the seed of the shuffle is chosen;
# its default, DEFAULT_SEED, is defined in io, where the CLI reads it without
# loading numpy.
L2_PENALTY = 1e-4
TOLERANCE = 1e-3
MAX_EPOCHS = 1000
ETA0 = 0.5
LR_POWER = 0.5
_FIXED = {
    "l2_penalty": L2_PENALTY,
    "tolerance": TOLERANCE,
    "max_epochs": MAX_EPOCHS,
    "eta0": ETA0,
    "lr_power": LR_POWER,
}
# The trainer folds its weight scale into the weights once the scale falls
# below this, before it can underflow.
_MIN_SCALE = 1e-9


def config_dict(seed: int) -> dict:
    """A bundle's training config: the seed, and the fixed settings it was
    trained with."""
    return {"seed": seed, **_FIXED}


def config_seed(config: dict) -> int:
    """The seed of a bundle's training config, whose other settings must be
    the trainer's constants."""
    check_fixed(config, _FIXED, "training config")
    return check_count(config["seed"], "training config seed")


@dataclass(frozen=True)
class LinearModel:
    weights: np.ndarray  # (C, D)
    bias: np.ndarray  # (C,)

    def __post_init__(self):
        """The one check of a model's values, trained, built or loaded: 2-D
        weights, a bias per class, and every weight and bias a finite float."""
        if self.weights.ndim != 2:
            raise ValueError(f"model weights must be 2-D, got {self.weights.ndim}-D")
        if self.bias.shape != (self.classes,):
            raise ValueError(f"model has {self.bias.size} biases, expected {self.classes}")
        if not all(a.dtype.kind == "f" and np.isfinite(a).all() for a in (self.weights, self.bias)):
            raise ValueError("model weights and biases must be finite floats")

    @property
    def classes(self) -> int:
        return int(self.weights.shape[0])

    @property
    def feature_dim(self) -> int:
        return int(self.weights.shape[1])

    def to_dict(self) -> dict:
        return {
            "classes": self.classes,
            "dim": self.feature_dim,
            "weights": self.weights.ravel().tolist(),  # row-major
            "bias": self.bias.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LinearModel":
        """Load a trained model from its JSON, checking the shape of the
        JSON; the constructor checks the values."""
        classes = check_count(data["classes"], "linear model classes")
        dim = check_count(data["dim"], "linear model dim")
        weights = check_numbers(data["weights"], "linear model weights")
        bias = check_numbers(data["bias"], "linear model bias")
        if weights.shape != (classes * dim,):
            raise ValueError(f"model has {weights.size} weights, expected {classes}x{dim}")
        return cls(weights=weights.reshape(classes, dim), bias=bias)


def _kernel_weights(weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Class-major (C, D) weights and their (C,) bias as the feature-major
    (D + 1, C) array ``_scores`` gathers from, with the bias as last row.
    It is C-ordered, so a gather does not copy it first."""
    return np.ascontiguousarray(np.vstack((weights.T, bias)))


def _scores(weights: np.ndarray, batch: Batch) -> np.ndarray:
    """The (rows, C) class scores of a batch, given weights laid out by
    ``_kernel_weights``: a row's bias entry picks its model's bias row.

    Each row is summed alone, by one ``reduceat`` whatever the batch size,
    so a row's bits do not depend on the batch it sits in. Trusts the
    arrays: indices are in range and values finite, as the vectorizers of a
    loaded bundle guarantee.
    """
    terms = weights.take(batch.indices, axis=0)
    terms *= batch.values[:, None]
    return np.add.reduceat(terms, batch.starts, axis=0)


def _softmax(scores: np.ndarray) -> np.ndarray:
    """Scores to class probabilities along the last axis, in place.

    Scores are clamped first, so no NaN/Inf can leave it. Every reduction
    runs along the contiguous class axis, the same for any number of rows.
    The reductions keep their dimensions: dropping them and broadcasting
    back through ``[..., None]`` gives the same bits but costs more per call
    on the few rows of a one-row judge.
    """
    np.maximum(scores, -LOGIT_CLAMP, out=scores)
    np.minimum(scores, LOGIT_CLAMP, out=scores)
    scores -= np.maximum.reduce(scores, axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= np.add.reduce(scores, axis=-1, keepdims=True)
    return scores


def _mean_loss(weights: np.ndarray, bias: np.ndarray, batch: Batch, labels: np.ndarray) -> float:
    """Regularized mean log loss of class-major (C, D) weights on a batch,
    in one pass; temporaries are O(classes x entries), never N x D."""
    probs = _softmax(_scores(_kernel_weights(weights, bias), batch))
    n = len(labels)
    return (
        -float(np.sum(np.log(probs[np.arange(n), labels]))) / n
        + 0.5 * L2_PENALTY * float(np.sum(weights * weights))
    )


def train(
    batch: Batch, labels: Sequence[int], n_classes: int, seed: int = DEFAULT_SEED
) -> LinearModel:
    """Train an ``n_classes``-class logistic regression with seeded,
    reproducible SGD.

    ``batch`` holds one row per example, as ``vectorizer._encode`` writes
    them, and ``labels`` the class of each. Its arrays are trusted, as
    ``_scores`` trusts them: intp indices in [0, D), each once, then the
    bias entry, column D, the dimension read from the batch's last entry;
    and finite float64 values. Returns the lowest-loss iterate observed
    (including the zero initialization), so the final training loss never
    exceeds the initial one. Raises SingleClassCorpus when fewer than two
    labels are present and ValueError when a label is out of range.

    A step is a fixed sequence of small numpy calls, through local names
    and in place, as their per-call overhead is its cost. A call with a
    Python or numpy scalar operand costs nearly twice one with array
    operands, so the step's scalars (the weight scale, the learning rate,
    the clamp bounds, and the softmax's max and sum) are 0-d arrays,
    written in place. Its softmax is ``_softmax``'s operations in order on
    the one vector, so it has the bits ``_softmax`` gives one row: the max
    is read from the scores as a list, and the clamp, which leaves a score
    within its bounds as it is, runs only when a score lies outside them.
    """
    if not batch:
        raise ValueError("no training examples")
    if len(labels) != len(batch):
        raise ValueError(f"{len(labels)} labels for {len(batch)} examples")
    labels = np.array(labels, dtype=np.intp)
    present = set(labels.tolist())
    if len(present) < 2:
        raise SingleClassCorpus(f"need at least 2 classes, got labels {sorted(present)}")
    if max(present) >= n_classes or min(present) < 0:
        raise ValueError(f"labels {sorted(present)} out of range for {n_classes} classes")

    examples, dim = batch.rows(), int(batch.indices[-1])
    # Feature-major weights w = scale * v (Bottou's lazy weight scale): the
    # decay multiplies only the scalar, so a step touches just its
    # example's rows of v, one gather and one scatter. rows.T is (C, nnz)
    # and F-ordered, the layout weights[:, idx] has, so BLAS scores it with
    # the same rounding; with no decay scale stays exactly 1.0 and every
    # bit is the eager trainer's.
    v = np.zeros((dim, n_classes), dtype=np.float64)
    scale = 1.0
    bias = np.zeros(n_classes, dtype=np.float64)

    rng = np.random.default_rng(seed)
    prev_loss = _mean_loss(v.T, bias, batch, labels)
    best_loss = prev_loss
    best_weights, best_bias = v.T.copy(), bias.copy()  # copies are C-ordered (C, D)

    ys = labels.tolist()
    scores = np.empty(n_classes, dtype=np.float64)  # scores, probabilities, then the step
    # the step's scalar operands, as 0-d arrays written in place
    cur_scale, cur_eta, top, norm = (np.ones((), np.float64) for _ in range(4))
    low, high = np.array(-LOGIT_CLAMP), np.array(LOGIT_CLAMP)
    take, matmul, multiply, add = v.take, np.matmul, np.multiply, np.add
    subtract, divide, maximum, minimum = np.subtract, np.divide, np.maximum, np.minimum
    exp, total = np.exp, np.add.reduce
    for epoch in range(MAX_EPOCHS):
        cur_eta[()] = eta = ETA0 / (1.0 + epoch) ** LR_POWER
        decay = max(0.0, 1.0 - eta * L2_PENALTY)
        for i in rng.permutation(len(examples)).tolist():
            idx, vals = examples[i]
            rows = take(idx, 0)
            matmul(rows.T, vals, scores)
            multiply(scores, cur_scale, scores)
            add(scores, bias, scores)
            # the softmax, written out as the docstring says
            listed = scores.tolist()
            top[()] = hi = max(listed)
            if hi > LOGIT_CLAMP or min(listed) < -LOGIT_CLAMP:
                maximum(scores, low, out=scores)
                minimum(scores, high, out=scores)
                top[()] = max(scores.tolist())
            subtract(scores, top, scores)
            exp(scores, scores)
            total(scores, out=norm)
            divide(scores, norm, scores)
            scores[ys[i]] -= 1.0  # the gradient of the loss in the scores
            multiply(cur_eta, scores, scores)
            subtract(bias, scores, bias)
            # w <- decay * w - eta * g x, as v under the decayed scale
            scale *= decay
            cur_scale[()] = scale
            divide(scores, cur_scale, scores)
            subtract(rows, multiply(vals[:, None], scores), rows)
            v[idx] = rows
            if scale < _MIN_SCALE:
                v *= scale
                scale = cur_scale[()] = 1.0
        wt = v * scale
        loss = _mean_loss(wt.T, bias, batch, labels)
        if loss < best_loss:
            best_loss = loss
            best_weights, best_bias = wt.T.copy(), bias.copy()
        if prev_loss - loss < TOLERANCE:
            break
        prev_loss = loss

    return LinearModel(weights=best_weights, bias=best_bias)


def predict_proba(model: LinearModel, batch: Batch) -> np.ndarray:
    """The (rows, C) class probabilities of a batch of any size, each row with
    the bits it has in any batch. Unlike ``_scores``, raises ValueError naming
    the model's dimension D for a column outside [0, D], a row not closed by
    one bias entry (column D, value 1) or a value that is not finite."""
    dim, indices, values = model.feature_dim, batch.indices, batch.values
    if indices.shape != values.shape or ((indices < 0) | (indices > dim)).any():
        raise ValueError(f"batch columns must lie in [0, {dim}], the model's dimension")
    bias = np.flatnonzero(indices == dim)  # each row's last entry, and no other
    closed = np.array_equal(np.append(batch.starts, indices.size), np.append(0, bias + 1))
    if not closed or (values[bias] != 1).any():
        raise ValueError(f"each batch row must end with its bias entry, column {dim} valued 1")
    if not np.isfinite(values).all():
        raise ValueError(f"batch values must be finite for a model of dimension {dim}")
    return _softmax(_scores(_kernel_weights(model.weights, model.bias), batch))
