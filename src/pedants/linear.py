"""Deterministic logistic regression on sparse features.

Training is epoch-ordered SGD: one pass per epoch over a seed-shuffled
permutation of the examples, inverse-scaling learning rate, L2 weight decay,
and an epoch-loss stopping rule. (data, config) fully determines the model;
no ambient randomness is consulted. Multiclass probabilities come from a
single multinomial softmax, which for two classes reduces to the sigmoid
pair of the score difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, InconsistentDimensions, SingleClassCorpus
from .vectorizer import SparseVector

# Numerical guard: scores are clamped here before exponentiation, so no
# NaN/Inf can ever leave the softmax.
LOGIT_CLAMP = 30.0


@dataclass(frozen=True)
class TrainConfig:
    """Trainer hyperparameters.

    ``tolerance`` is the minimum epoch-over-epoch improvement of the
    regularized mean log loss; training stops once an epoch improves by
    less. The learning rate at 0-based epoch e is eta0 / (1 + e)**lr_power.
    """

    seed: int = 668
    l2_penalty: float = 1e-4
    tolerance: float = 1e-3
    max_epochs: int = 1000
    eta0: float = 0.5
    lr_power: float = 0.5

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "l2_penalty": self.l2_penalty,
            "tolerance": self.tolerance,
            "max_epochs": self.max_epochs,
            "eta0": self.eta0,
            "lr_power": self.lr_power,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        try:
            return cls(
                seed=int(data["seed"]),
                l2_penalty=float(data["l2_penalty"]),
                tolerance=float(data["tolerance"]),
                max_epochs=int(data["max_epochs"]),
                eta0=float(data["eta0"]),
                lr_power=float(data["lr_power"]),
            )
        except TypeError as exc:  # a null or a nested value where a number belongs
            raise ValueError(f"malformed training config: {exc}") from exc


@dataclass
class LinearModel:
    classes: int
    weights: np.ndarray  # (C, D)
    bias: np.ndarray  # (C,)
    config: TrainConfig

    @property
    def feature_dim(self) -> int:
        return int(self.weights.shape[1])

    def to_dict(self) -> dict:
        return {
            "classes": self.classes,
            "dim": self.feature_dim,
            "weights": [float(w) for w in self.weights.ravel()],  # row-major
            "bias": [float(b) for b in self.bias],
            "config": self.config.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LinearModel":
        """Load a trained model, rejecting misshapen or non-finite parameters."""
        try:
            classes = int(data["classes"])
            dim = int(data["dim"])
            weights = np.array(data["weights"], dtype=np.float64)
            bias = np.array(data["bias"], dtype=np.float64)
        except TypeError as exc:
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
            config=TrainConfig.from_dict(data["config"]),
        )


def _softmax(scores: np.ndarray) -> np.ndarray:
    # the ufuncs themselves: the same arithmetic as np.clip, .max() and
    # .sum(), without their Python-level wrappers
    clipped = np.minimum(np.maximum(scores, -LOGIT_CLAMP), LOGIT_CLAMP)
    exp = np.exp(clipped - np.maximum.reduce(clipped))
    return exp / np.add.reduce(exp)


def _as_arrays(x: SparseVector) -> tuple[np.ndarray, np.ndarray]:
    return (
        np.fromiter(x.indices, dtype=np.intp, count=x.nnz),
        np.fromiter(x.values, dtype=np.float64, count=x.nnz),
    )


def _mean_loss(
    weights: np.ndarray,
    bias: np.ndarray,
    data: list[tuple[np.ndarray, np.ndarray]],
    labels: np.ndarray,
    l2_penalty: float,
) -> float:
    total = 0.0
    for (idx, vals), y in zip(data, labels):
        scores = weights[:, idx] @ vals + bias
        probs = _softmax(scores)
        total -= np.log(probs[y])
    return total / len(data) + 0.5 * l2_penalty * float(np.sum(weights * weights))


def train(
    examples: Sequence[tuple[SparseVector, int]],
    config: TrainConfig = TrainConfig(),
    n_classes: int | None = None,
) -> LinearModel:
    """Train a C-class logistic regression with seeded, reproducible SGD.

    Returns the lowest-loss iterate observed (including the zero
    initialization), so the final training loss never exceeds the initial
    one. Raises SingleClassCorpus when fewer than two labels are present and
    InconsistentDimensions when feature dimensions disagree.
    """
    if not examples:
        raise ValueError("no training examples")
    dim = examples[0][0].dimension
    for x, _ in examples:
        if x.dimension != dim:
            raise InconsistentDimensions(f"expected dimension {dim}, got {x.dimension}")
    labels = np.array([y for _, y in examples], dtype=np.intp)
    present = set(int(y) for y in labels)
    if len(present) < 2:
        raise SingleClassCorpus(f"need at least 2 classes, got labels {sorted(present)}")
    if n_classes is None:
        n_classes = max(2, max(present) + 1)
    if max(present) >= n_classes or min(present) < 0:
        raise ValueError(f"labels {sorted(present)} out of range for {n_classes} classes")

    data = [_as_arrays(x) for x, _ in examples]
    weights = np.zeros((n_classes, dim), dtype=np.float64)
    bias = np.zeros(n_classes, dtype=np.float64)

    rng = np.random.default_rng(config.seed)
    prev_loss = _mean_loss(weights, bias, data, labels, config.l2_penalty)
    best_loss = prev_loss
    best_weights, best_bias = weights.copy(), bias.copy()

    for epoch in range(config.max_epochs):
        eta = config.eta0 / (1.0 + epoch) ** config.lr_power
        decay = max(0.0, 1.0 - eta * config.l2_penalty)
        for i in rng.permutation(len(data)):
            idx, vals = data[i]
            scores = weights[:, idx] @ vals + bias
            grad = _softmax(scores)
            grad[labels[i]] -= 1.0
            weights *= decay
            weights[:, idx] -= eta * grad[:, None] * vals[None, :]
            bias -= eta * grad
        loss = _mean_loss(weights, bias, data, labels, config.l2_penalty)
        if loss < best_loss:
            best_loss = loss
            best_weights, best_bias = weights.copy(), bias.copy()
        if prev_loss - loss < config.tolerance:
            break
        prev_loss = loss

    return LinearModel(classes=n_classes, weights=best_weights, bias=best_bias, config=config)


def predict_proba(model: LinearModel, x: SparseVector) -> np.ndarray:
    """Class probability vector; strictly positive, sums to 1."""
    if x.dimension != model.feature_dim:
        raise DimensionMismatch(
            f"vector dimension {x.dimension} != model dimension {model.feature_dim}"
        )
    return _proba(model, *_as_arrays(x))


def _proba(model: LinearModel, indices: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Class probabilities of a sparse input given as index/value arrays.

    Trusts the arrays: indices are in range and values finite, as the
    vectorizers of a loaded bundle guarantee.
    """
    return _softmax(model.weights[:, indices] @ values + model.bias)


def predict(model: LinearModel, x: SparseVector) -> int:
    """Argmax class; ties resolve to the lowest class index."""
    return int(np.argmax(predict_proba(model, x)))
