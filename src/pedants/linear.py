"""Deterministic logistic regression on sparse features.

Training is epoch-ordered SGD: one pass per epoch over a seed-shuffled
permutation of the examples, inverse-scaling learning rate, L2 weight decay,
and an epoch-loss stopping rule. The weights are held as a scalar times an
array and the decay shrinks only the scalar, so a step costs O(classes x
entries) of its example. (data, seed) fully determines the model;
no ambient randomness is consulted. Multiclass probabilities come from a
single multinomial softmax, which for two classes reduces to the sigmoid
pair of the score difference. The training loss, predict_proba and the
pipeline's batched judge all score with one kernel (``_scores``), which
sums each row of a flattened batch alone, so a row gets the same bits in a
batch of any size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, SingleClassCorpus
from .io import DEFAULT_SEED
from .vectorizer import SparseVector, check_count, check_fixed, check_numbers

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


@dataclass
class LinearModel:
    classes: int
    weights: np.ndarray  # (C, D)
    bias: np.ndarray  # (C,)
    seed: int = DEFAULT_SEED

    @property
    def feature_dim(self) -> int:
        return int(self.weights.shape[1])

    def to_dict(self) -> dict:
        return {
            "classes": self.classes,
            "dim": self.feature_dim,
            "weights": [float(w) for w in self.weights.ravel()],  # row-major
            "bias": [float(b) for b in self.bias],
            "config": config_dict(self.seed),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LinearModel":
        """Load a trained model, rejecting misshapen or non-finite parameters."""
        classes = check_count(data["classes"], "linear model classes")
        dim = check_count(data["dim"], "linear model dim")
        weights = check_numbers(data["weights"], "linear model weights")
        bias = check_numbers(data["bias"], "linear model bias")
        try:
            weights = np.array(weights, dtype=np.float64)
            bias = np.array(bias, dtype=np.float64)
        except OverflowError as exc:  # an integer past float64's range
            raise ValueError(f"malformed linear model: {exc}") from exc
        if weights.shape != (classes * dim,):
            raise ValueError(f"model has {weights.size} weights, expected {classes}x{dim}")
        if bias.shape != (classes,):
            raise ValueError(f"model has {bias.size} biases, expected {classes}")
        if not (np.isfinite(weights).all() and np.isfinite(bias).all()):
            raise ValueError("model weights and biases must be finite")
        return cls(
            classes=classes,
            weights=weights.reshape(classes, dim),
            bias=bias,
            seed=config_seed(data["config"]),
        )


_BIAS_ENTRY = (np.array([-1], dtype=np.intp), np.array([1.0]))


def _flatten(rows: Iterable[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, ...]:
    """Rows of (indices, values) arrays as one batch: concatenated indices
    and values, and the offset of each row's first entry.

    Each row ends in a bias entry, index -1 with value 1, which picks the
    bias row of ``_kernel_weights``; so no row is empty.
    """
    indices, values, starts, n = [], [], [], 0
    for idx, vals in rows:
        indices += (idx, _BIAS_ENTRY[0])
        values += (vals, _BIAS_ENTRY[1])
        starts.append(n)
        n += len(idx) + 1
    return np.concatenate(indices), np.concatenate(values), np.array(starts, dtype=np.intp)


def _kernel_weights(weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Class-major (C, D) weights and their (C,) bias as the feature-major
    (D + 1, C) array ``_scores`` gathers from, with the bias as last row.
    It is C-ordered, so a gather does not copy it first."""
    return np.ascontiguousarray(np.vstack((weights.T, bias)))


def _scores(weights: np.ndarray, batch: tuple[np.ndarray, ...]) -> np.ndarray:
    """The (rows, C) class scores of a batch from ``_flatten`` or
    ``vectorizer._encode``, given weights laid out by ``_kernel_weights``.

    Each row is summed alone, by one ``reduceat`` whatever the batch size,
    so a row's bits do not depend on the batch it sits in. Trusts the
    arrays: indices are in range and values finite, as the vectorizers of a
    loaded bundle guarantee.
    """
    indices, values, starts = batch
    terms = weights.take(indices, axis=0)
    terms *= values[:, None]
    return np.add.reduceat(terms, starts, axis=0)


def _softmax(scores: np.ndarray) -> np.ndarray:
    """Scores to class probabilities along the last axis, in place.

    Scores are clamped first, so no NaN/Inf can leave it. Every reduction
    runs along the contiguous class axis, the same for any number of rows.
    """
    np.maximum(scores, -LOGIT_CLAMP, out=scores)
    np.minimum(scores, LOGIT_CLAMP, out=scores)
    scores -= np.maximum.reduce(scores, axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= np.add.reduce(scores, axis=-1, keepdims=True)
    return scores


def _mean_loss(
    weights: np.ndarray, bias: np.ndarray, batch: tuple[np.ndarray, ...], labels: np.ndarray
) -> float:
    """Regularized mean log loss of class-major (C, D) weights on a batch
    from ``_flatten``, in one pass; temporaries are O(classes x entries),
    never N x D."""
    probs = _softmax(_scores(_kernel_weights(weights, bias), batch))
    n = len(labels)
    return (
        -float(np.sum(np.log(probs[np.arange(n), labels]))) / n
        + 0.5 * L2_PENALTY * float(np.sum(weights * weights))
    )


def train(
    encodings: Sequence[tuple[np.ndarray, np.ndarray]],
    labels: Sequence[int],
    dim: int,
    n_classes: int,
    seed: int = DEFAULT_SEED,
) -> LinearModel:
    """Train an ``n_classes``-class logistic regression on ``dim`` features
    with seeded, reproducible SGD.

    ``encodings`` holds one (indices, values) pair of arrays per example, as
    the tf-idf encoders give them, and ``labels`` the class of each. The
    arrays are trusted, as ``_scores`` trusts them: intp indices in
    [0, dim), each once, and finite float64 values. Returns the lowest-loss iterate observed
    (including the zero initialization), so the final training loss never
    exceeds the initial one. Raises SingleClassCorpus when fewer than two
    labels are present and ValueError when a label is out of range.
    """
    if not encodings:
        raise ValueError("no training examples")
    if len(labels) != len(encodings):
        raise ValueError(f"{len(labels)} labels for {len(encodings)} examples")
    labels = np.array(labels, dtype=np.intp)
    present = set(labels.tolist())
    if len(present) < 2:
        raise SingleClassCorpus(f"need at least 2 classes, got labels {sorted(present)}")
    if max(present) >= n_classes or min(present) < 0:
        raise ValueError(f"labels {sorted(present)} out of range for {n_classes} classes")

    batch = _flatten(encodings)
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
    for epoch in range(MAX_EPOCHS):
        eta = ETA0 / (1.0 + epoch) ** LR_POWER
        decay = max(0.0, 1.0 - eta * L2_PENALTY)
        for i in rng.permutation(len(encodings)).tolist():
            idx, vals = encodings[i]
            rows = v.take(idx, axis=0)
            # the softmax, in place on a preallocated buffer
            np.matmul(rows.T, vals, out=scores)
            np.multiply(scores, scale, out=scores)
            np.add(scores, bias, out=scores)
            np.maximum(scores, -LOGIT_CLAMP, out=scores)
            np.minimum(scores, LOGIT_CLAMP, out=scores)
            np.subtract(scores, np.maximum.reduce(scores), out=scores)
            np.exp(scores, out=scores)
            np.divide(scores, np.add.reduce(scores), out=scores)
            scores[ys[i]] -= 1.0  # the gradient of the loss in the scores
            np.multiply(eta, scores, out=scores)
            bias -= scores
            # w <- decay * w - eta * g x, as v under the decayed scale
            scale *= decay
            np.divide(scores, scale, out=scores)
            rows -= np.multiply.outer(vals, scores)
            v[idx] = rows
            if scale < _MIN_SCALE:
                v *= scale
                scale = 1.0
        wt = v * scale
        loss = _mean_loss(wt.T, bias, batch, labels)
        if loss < best_loss:
            best_loss = loss
            best_weights, best_bias = wt.T.copy(), bias.copy()
        if prev_loss - loss < TOLERANCE:
            break
        prev_loss = loss

    return LinearModel(classes=n_classes, weights=best_weights, bias=best_bias, seed=seed)


def predict_proba(model: LinearModel, x: SparseVector) -> np.ndarray:
    """Class probability vector; strictly positive, sums to 1."""
    if x.dimension != model.feature_dim:
        raise DimensionMismatch(
            f"vector dimension {x.dimension} != model dimension {model.feature_dim}"
        )
    batch = _flatten([(x.indices, x.values)])
    return _softmax(_scores(_kernel_weights(model.weights, model.bias), batch))[0]

