"""Deterministic logistic regression on sparse features.

Training is epoch-ordered SGD: one pass per epoch over a seed-shuffled
permutation of the examples, inverse-scaling learning rate, L2 weight decay,
and an epoch-loss stopping rule. (data, config) fully determines the model;
no ambient randomness is consulted. Multiclass probabilities come from a
single multinomial softmax, which for two classes reduces to the sigmoid
pair of the score difference. The training loss, predict_proba and the
pipeline's batched judge all score with one kernel (``_scores``), which
sums each row of a flattened batch alone, so a row gets the same bits in a
batch of any size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

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
    Values are range-checked when a config is built, so a bundle holding one
    that no training run could use is rejected when it loads.
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

    def __post_init__(self):
        for name, ok, rule in (
            ("seed", self.seed >= 0, "be at least 0"),
            ("max_epochs", self.max_epochs >= 0, "be at least 0"),
            ("l2_penalty", 0 <= self.l2_penalty < math.inf, "be finite and at least 0"),
            ("tolerance", math.isfinite(self.tolerance), "be finite"),
            ("eta0", 0 < self.eta0 < math.inf, "be finite and positive"),
            ("lr_power", 0 <= self.lr_power < math.inf, "be finite and at least 0"),
        ):
            if not ok:
                raise ValueError(f"training config {name} must {rule}, got {getattr(self, name)!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        values = {}
        for f in fields(cls):
            kind = int if f.name in ("seed", "max_epochs") else float
            try:
                values[f.name] = kind(data[f.name])
            except (TypeError, ValueError, OverflowError) as exc:
                # a null or a nested value where a number belongs, or a
                # non-finite one where an integer belongs
                raise ValueError(f"malformed training config {f.name}: {exc}") from exc
        return cls(**values)


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
        except (TypeError, OverflowError) as exc:
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


def _scores(
    weights: np.ndarray, batch: tuple[np.ndarray, ...], out: np.ndarray | None = None
) -> np.ndarray:
    """The (rows, C) class scores of a batch from ``_flatten``, given
    weights from ``_kernel_weights``.

    Each row is summed alone, by one ``reduceat`` whatever the batch size,
    so a row's bits do not depend on the batch it sits in. Trusts the
    arrays: indices are in range and values finite, as the vectorizers of a
    loaded bundle guarantee.
    """
    indices, values, starts = batch
    terms = weights.take(indices, axis=0)
    terms *= values[:, None]
    return np.add.reduceat(terms, starts, axis=0, out=out)


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
    weights: np.ndarray,
    bias: np.ndarray,
    batch: tuple[np.ndarray, ...],
    labels: np.ndarray,
    l2_penalty: float,
) -> float:
    """Regularized mean log loss of class-major (C, D) weights on a batch
    from ``_flatten``, in one pass; temporaries are O(classes x entries),
    never N x D."""
    probs = _softmax(_scores(_kernel_weights(weights, bias), batch))
    n = len(labels)
    return (
        -float(np.sum(np.log(probs[np.arange(n), labels]))) / n
        + 0.5 * l2_penalty * float(np.sum(weights * weights))
    )


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

    data = [(x.indices, x.values) for x, _ in examples]
    batch = _flatten(data)
    # Feature-major weights: an example's rows are one gather and one
    # scatter. rows.T is (C, nnz) and F-ordered, the layout weights[:, idx]
    # has, so BLAS scores it with the same rounding.
    wt = np.zeros((dim, n_classes), dtype=np.float64)
    bias = np.zeros(n_classes, dtype=np.float64)

    rng = np.random.default_rng(config.seed)
    prev_loss = _mean_loss(wt.T, bias, batch, labels, config.l2_penalty)
    best_loss = prev_loss
    best_weights, best_bias = wt.T.copy(), bias.copy()  # copies are C-ordered (C, D)

    ys = labels.tolist()
    scores = np.empty(n_classes, dtype=np.float64)  # scores, then probabilities
    step = np.empty(n_classes, dtype=np.float64)
    for epoch in range(config.max_epochs):
        eta = config.eta0 / (1.0 + epoch) ** config.lr_power
        decay = max(0.0, 1.0 - eta * config.l2_penalty)
        for i in rng.permutation(len(data)).tolist():
            idx, vals = data[i]
            rows = wt.take(idx, axis=0)
            # the softmax, in place on preallocated buffers
            np.matmul(rows.T, vals, out=scores)
            np.add(scores, bias, out=scores)
            np.maximum(scores, -LOGIT_CLAMP, out=scores)
            np.minimum(scores, LOGIT_CLAMP, out=scores)
            np.subtract(scores, np.maximum.reduce(scores), out=scores)
            np.exp(scores, out=scores)
            np.divide(scores, np.add.reduce(scores), out=scores)
            scores[ys[i]] -= 1.0  # the gradient of the loss in the scores
            np.multiply(eta, scores, out=step)
            wt *= decay
            rows *= decay
            rows -= np.multiply.outer(vals, step)
            wt[idx] = rows
            bias -= step
        loss = _mean_loss(wt.T, bias, batch, labels, config.l2_penalty)
        if loss < best_loss:
            best_loss = loss
            best_weights, best_bias = wt.T.copy(), bias.copy()
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
    batch = _flatten([(x.indices, x.values)])
    return _softmax(_scores(_kernel_weights(model.weights, model.bias), batch))[0]


def predict(model: LinearModel, x: SparseVector) -> int:
    """Argmax class; ties resolve to the lowest class index."""
    return int(np.argmax(predict_proba(model, x)))
