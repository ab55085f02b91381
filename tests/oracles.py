"""Independent reference implementations used to cross-check the package.

These deliberately take different computational routes from the code under
test: dense full-batch gradient descent instead of sparse SGD, a trainer
that keeps class-major weights and sums the epoch loss one example at a
time instead of feature-major weights and one batched loss pass, the
lazy-scale step as plain expressions instead of one numpy call per
operation, explicit comparison branches instead of sign arithmetic,
precision/recall-form F1 instead of confusion-count form, a bag overlap
from a ``Counter`` intersection instead of a count-down dict, a judge
that re-normalizes every string in every public piece it calls and runs
each linear model on one dense vector with its own softmax instead of
preparing each string once and scoring a flattened batch of sparse rows,
and normalization character by character over the whole string instead of
token by token through a translate table. ``batch_of`` and
``train_vectors`` are no oracles: they check rows of test arrays and hand
them to the package's scorer and trainer. Nor is ``keepdims_softmax``: it
pins the seven ufunc calls of ``linear._softmax``, so that any rewrite of
that function keeps their bits.
"""

from __future__ import annotations

import re
import unicodedata
from collections import Counter
from functools import lru_cache

import numpy as np

from pedants import linear, vectorizer
from pedants.errors import SingleClassCorpus
from pedants.metrics import PrfScores, token_prf
from pedants.pipeline import Judgment, QuestionType, RuleLabel
from pedants.textnorm import PEDANTS_POLICY, NormPolicy, lemma as _cached_lemma

# the suffix rules themselves, without the package's cache
lemma = _cached_lemma.__wrapped__
_ARTICLE_RE = re.compile(r"\b(?:a|an|the)\b", re.IGNORECASE)
_WS_RE = re.compile(r"\s+")


def softmax(scores) -> np.ndarray:
    """Class probabilities of one score vector, clamped as the package
    clamps them."""
    clipped = np.clip(scores, -linear.LOGIT_CLAMP, linear.LOGIT_CLAMP)
    exp = np.exp(clipped - clipped.max())
    return exp / exp.sum()


def keepdims_softmax(scores: np.ndarray) -> np.ndarray:
    """Scores to class probabilities along the last axis, in place, by seven
    ufunc calls: the clamp, then the max and the sum reduced with
    ``keepdims`` and broadcast back as they are."""
    np.maximum(scores, -linear.LOGIT_CLAMP, out=scores)
    np.minimum(scores, linear.LOGIT_CLAMP, out=scores)
    scores -= np.maximum.reduce(scores, axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= np.add.reduce(scores, axis=-1, keepdims=True)
    return scores


@lru_cache(maxsize=4096)
def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def reference_normalize(text: str, policy: NormPolicy) -> str:
    """Apply a normalization policy to a raw string. Total and idempotent."""
    # every policy lowercases, strips punctuation and collapses whitespace
    lowercase = strip_punct = collapse_whitespace = True
    s = unicodedata.normalize("NFC", text)
    if lowercase:
        s = s.lower()
    if strip_punct:
        s = "".join(ch for ch in s if not _is_punct(ch))
        # deleting characters can expose combining marks to new bases
        s = unicodedata.normalize("NFC", s)
    if policy.lemmatize:
        s = " ".join(lemma(tok) for tok in s.split())
    if policy.strip_articles:
        s = _ARTICLE_RE.sub(" ", s)
    if collapse_whitespace or policy.lemmatize:
        s = _WS_RE.sub(" ", s)
    return s.strip()


def batch_gd_train(features, labels, n_classes=2, l2=1e-4, lr=0.5, iters=4000):
    """Full-batch softmax gradient descent on dense features."""
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.intp)
    n, _ = X.shape
    W = np.zeros((n_classes, X.shape[1]))
    b = np.zeros(n_classes)
    onehot = np.eye(n_classes)[y]
    for _ in range(iters):
        scores = X @ W.T + b
        scores -= scores.max(axis=1, keepdims=True)
        probs = np.exp(scores)
        probs /= probs.sum(axis=1, keepdims=True)
        grad = (probs - onehot) / n
        W -= lr * (grad.T @ X + l2 * W)
        b -= lr * grad.sum(axis=0)
    return W, b


def reference_mean_loss(weights, bias, data, labels, l2_penalty) -> float:
    """The epoch loss one example at a time."""
    total = 0.0
    for (idx, vals), y in zip(data, labels):
        scores = weights[:, idx] @ vals + bias
        probs = softmax(scores)
        total -= np.log(probs[y])
    return total / len(data) + 0.5 * l2_penalty * float(np.sum(weights * weights))


def reference_train(examples, dim, seed=linear.DEFAULT_SEED, n_classes=None) -> linear.LinearModel:
    """The trainer with class-major weights, a dense decay and a scatter per
    step, and the epoch loss one example at a time, on ((indices, values),
    label) rows in ``dim`` columns; it reads the trainer's fixed settings."""
    if not examples:
        raise ValueError("no training examples")
    labels = np.array([y for _, y in examples], dtype=np.intp)
    present = set(int(y) for y in labels)
    if len(present) < 2:
        raise SingleClassCorpus(f"need at least 2 classes, got labels {sorted(present)}")
    if n_classes is None:
        n_classes = max(2, max(present) + 1)
    if max(present) >= n_classes or min(present) < 0:
        raise ValueError(f"labels {sorted(present)} out of range for {n_classes} classes")

    data = [(np.asarray(i, np.intp), np.asarray(v, np.float64)) for (i, v), _ in examples]
    weights = np.zeros((n_classes, dim), dtype=np.float64)
    bias = np.zeros(n_classes, dtype=np.float64)

    rng = np.random.default_rng(seed)
    prev_loss = reference_mean_loss(weights, bias, data, labels, linear.L2_PENALTY)
    best_loss = prev_loss
    best_weights, best_bias = weights.copy(), bias.copy()

    for epoch in range(linear.MAX_EPOCHS):
        eta = linear.ETA0 / (1.0 + epoch) ** linear.LR_POWER
        decay = max(0.0, 1.0 - eta * linear.L2_PENALTY)
        for i in rng.permutation(len(data)):
            idx, vals = data[i]
            scores = weights[:, idx] @ vals + bias
            grad = softmax(scores)
            grad[labels[i]] -= 1.0
            weights *= decay
            weights[:, idx] -= eta * grad[:, None] * vals[None, :]
            bias -= eta * grad
        loss = reference_mean_loss(weights, bias, data, labels, linear.L2_PENALTY)
        if loss < best_loss:
            best_loss = loss
            best_weights, best_bias = weights.copy(), bias.copy()
        if prev_loss - loss < linear.TOLERANCE:
            break
        prev_loss = loss

    return linear.LinearModel(weights=best_weights, bias=best_bias)


def lazy_reference_train(examples, dim, seed=linear.DEFAULT_SEED, n_classes=None) -> linear.LinearModel:
    """The trainer's lazy-scale step as plain numpy expressions, on
    ((indices, values), label) rows in ``dim`` columns: feature-major
    weights v under a scalar scale, ``oracles.softmax`` on the one score
    vector, and the scale folded into v below the trainer's floor. It reads
    the trainer's fixed settings and scores the epoch loss with
    ``linear._mean_loss``, so its bits are the trainer's with decay on."""
    labels = [y for _, y in examples]
    if n_classes is None:
        n_classes = max(2, max(labels) + 1)
    batch = batch_of([x for x, _ in examples], dim)
    ys = np.array(labels, dtype=np.intp)
    data = [(np.asarray(i, np.intp), np.asarray(v, np.float64)) for (i, v), _ in examples]
    v = np.zeros((dim, n_classes), dtype=np.float64)
    scale = 1.0
    bias = np.zeros(n_classes, dtype=np.float64)

    rng = np.random.default_rng(seed)
    prev_loss = linear._mean_loss(v.T, bias, batch, ys)
    best_loss = prev_loss
    best_weights, best_bias = v.T.copy(), bias.copy()

    for epoch in range(linear.MAX_EPOCHS):
        eta = linear.ETA0 / (1.0 + epoch) ** linear.LR_POWER
        decay = max(0.0, 1.0 - eta * linear.L2_PENALTY)
        for i in rng.permutation(len(data)):
            idx, vals = data[i]
            rows = v[idx]
            g = softmax(rows.T @ vals * scale + bias)
            g[labels[i]] -= 1.0
            step = eta * g
            bias -= step
            scale *= decay
            v[idx] = rows - np.multiply.outer(vals, step / scale)
            if scale < linear._MIN_SCALE:
                v *= scale
                scale = 1.0
        wt = v * scale
        loss = linear._mean_loss(wt.T, bias, batch, ys)
        if loss < best_loss:
            best_loss = loss
            best_weights, best_bias = wt.T.copy(), bias.copy()
        if prev_loss - loss < linear.TOLERANCE:
            break
        prev_loss = loss

    return linear.LinearModel(weights=best_weights, bias=best_bias)


def batch_of(rows, dim) -> vectorizer.Batch:
    """(indices, values) rows in ``dim`` columns as one ``Batch``, written
    out row by row: each row's entries, then its bias entry, column ``dim``
    with value 1. Each row is checked first, as the package's scorer and
    trainer trust their arrays: aligned, its columns strictly increasing in
    [0, dim), its values finite."""
    indices, values, starts = [], [], []
    for idx, vals in rows:
        idx, vals = np.asarray(idx, np.intp), np.asarray(vals, np.float64)
        assert idx.ndim == 1 and idx.shape == vals.shape, "indices and values must align"
        assert ((0 <= idx) & (idx < dim)).all(), f"columns out of range [0, {dim})"
        assert (np.diff(idx) > 0).all(), "columns out of order or repeated"
        assert np.isfinite(vals).all(), "values must be finite"
        starts.append(len(indices))
        indices += [*idx.tolist(), dim]
        values += [*vals.tolist(), 1.0]
    return vectorizer.Batch(
        np.array(indices, np.intp), np.array(values, np.float64), np.array(starts, np.intp)
    )


def train_vectors(examples, dim, seed=linear.DEFAULT_SEED, n_classes=None) -> linear.LinearModel:
    """``linear.train`` on ((indices, values), label) rows in ``dim``
    columns, built by ``batch_of``, so the test's inputs are checked before
    the trainer trusts their arrays; the classes default to the largest
    label + 1, at least 2."""
    labels = [y for _, y in examples]
    if n_classes is None:
        n_classes = max(2, max(labels) + 1)
    batch = batch_of([x for x, _ in examples], dim)
    return linear.train(batch, labels, n_classes, seed)


def batch_gd_predict(W, b, features) -> np.ndarray:
    scores = np.asarray(features, dtype=np.float64) @ W.T + b
    return scores.argmax(axis=1)


def pairwise_agreement(human_rates: dict, metric_rates: dict) -> float:
    """Brute-force pair enumeration with explicit three-way comparisons."""
    ids = sorted(human_rates)
    total = 0
    agree = 0
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            total += 1
            a, b = ids[i], ids[j]
            if human_rates[a] > human_rates[b]:
                human = "first"
            elif human_rates[a] < human_rates[b]:
                human = "second"
            else:
                human = "tie"
            if metric_rates[a] > metric_rates[b]:
                auto = "first"
            elif metric_rates[a] < metric_rates[b]:
                auto = "second"
            else:
                auto = "tie"
            if human == auto:
                agree += 1
    return agree / total


def accuracy_oracle(labels, verdicts) -> float:
    return sum(1 for l, v in zip(labels, verdicts) if l == v) / len(labels)


def macro_f1_oracle(labels, verdicts) -> float:
    """Macro F1 via the precision/recall form, class by class."""

    def class_f1(cls: bool) -> float:
        tp = sum(1 for l, v in zip(labels, verdicts) if l == cls and v == cls)
        predicted = sum(1 for v in verdicts if v == cls)
        actual = sum(1 for l in labels if l == cls)
        precision = tp / predicted if predicted else 0.0
        recall = tp / actual if actual else 0.0
        if precision + recall == 0:
            return 0.0
        return 2 * precision * recall / (precision + recall)

    return (class_f1(True) + class_f1(False)) / 2


def first_max_reference(candidate, references, policy):
    """(index, scores) of the first reference with the highest token F1,
    scoring each (candidate, reference) pair on its own."""
    scored = [token_prf(candidate, ref, policy) for ref in references]
    best = max(s.f1 for s in scored)
    idx = next(i for i, s in enumerate(scored) if s.f1 == best)
    return idx, scored[idx]


def counter_best_tokens(candidate, references):
    """(index, scores) of the first reference token list with the highest F1
    against the candidate's: the overlap is the size of the two lists'
    ``Counter`` intersection, and F1 the harmonic mean of precision and
    recall. Two empty lists score all ones; one empty list scores zero."""
    scored = []
    for ref in references:
        if candidate and ref:
            overlap = sum((Counter(candidate) & Counter(ref)).values())
            p, r = overlap / len(candidate), overlap / len(ref)
            scored.append(PrfScores(p, r, 2 * p * r / (p + r) if p + r else 0.0))
        else:
            one = 0.0 if candidate or ref else 1.0
            scored.append(PrfScores(one, one, one))
    best = max(s.f1 for s in scored)
    idx = next(i for i, s in enumerate(scored) if s.f1 == best)
    return idx, scored[idx]


def fallback_question_type(question, type_probs) -> QuestionType:
    """The type extractor's argmax when its probability reaches 0.5; else
    the first wh-word among the normalized question's tokens, else "what"."""
    top = int(np.argmax(type_probs))
    if type_probs[top] >= 0.5:
        return QuestionType.from_code(top)
    wh_words = {t.value: t for t in QuestionType}
    for tok in reference_normalize(question, PEDANTS_POLICY).split():
        if tok in wh_words:
            return wh_words[tok]
    return QuestionType.WHAT


def forward(model, x) -> np.ndarray:
    """softmax(clamp(W @ x + b)) of a linear model, with the one row of the
    batch x laid out densely and its bias entry left out."""
    ((indices, values),) = x.rows()
    dense = np.zeros(model.feature_dim)
    dense[indices] = values
    return softmax(model.weights @ dense + model.bias)


def per_call_judge(example, model) -> Judgment:
    """The judge composed from public pieces, each normalizing its own
    inputs: per-pair token scores and encode_pair/encode_triple, with each
    linear model's forward pass computed here on dense vectors, the judge's
    input laid out as 7 type probs, 7 rule probs, f1, p, r, the triple."""
    ref_idx, scores = first_max_reference(example.candidate, example.references, PEDANTS_POLICY)
    q, ref, cand = example.question, example.references[ref_idx], example.candidate
    type_probs = forward(model.type_model, vectorizer.encode_pair(q, ref, model.type_vectorizer))
    rule_probs = forward(
        model.rule_model, vectorizer.encode_triple(q, ref, cand, model.rule_vectorizer)
    )
    ((indices, values),) = vectorizer.encode_triple(q, ref, cand, model.judge_vectorizer).rows()
    dense = np.zeros(17 + model.judge_vectorizer.dimension)
    dense[:7], dense[7:14] = type_probs, rule_probs
    dense[14:17] = scores.f1, scores.precision, scores.recall
    dense[17 + indices] = values
    probs = softmax(model.judge_model.weights @ dense + model.judge_model.bias)
    return Judgment(
        correct=int(np.argmax(probs)) == 1,
        confidence=float(probs[1]),
        predicted_rule=RuleLabel.from_code(int(np.argmax(rule_probs))),
        predicted_type=fallback_question_type(q, type_probs),
        token_scores=scores,
        chosen_reference=ref_idx,
    )
