"""Independent reference implementations used to cross-check the package.

These deliberately take different computational routes from the code under
test: dense full-batch gradient descent instead of sparse SGD, explicit
comparison branches instead of sign arithmetic, precision/recall-form F1
instead of confusion-count form, a judge that re-normalizes every string
in every public piece it calls instead of preparing each once, and
normalization character by character over the whole string instead of
token by token through a translate table.
"""

from __future__ import annotations

import re
import unicodedata
from functools import lru_cache

import numpy as np

from pedants import linear, vectorizer
from pedants.metrics import token_prf
from pedants.pipeline import FeatureVector, Judgment, RuleLabel, predicted_question_type
from pedants.textnorm import PEDANTS_POLICY, NormPolicy, lemma as _cached_lemma

# the suffix rules themselves, without the package's cache
lemma = _cached_lemma.__wrapped__
_ARTICLE_RE = re.compile(r"\b(?:a|an|the)\b", re.IGNORECASE)
_WS_RE = re.compile(r"\s+")


@lru_cache(maxsize=4096)
def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def reference_normalize(text: str, policy: NormPolicy) -> str:
    """Apply a normalization policy to a raw string. Total and idempotent."""
    s = unicodedata.normalize("NFC", text)
    if policy.lowercase:
        s = s.lower()
    if policy.strip_punct:
        s = "".join(ch for ch in s if not _is_punct(ch))
        # deleting characters can expose combining marks to new bases
        s = unicodedata.normalize("NFC", s)
    if policy.lemmatize:
        s = " ".join(lemma(tok) for tok in s.split())
    if policy.strip_articles:
        s = _ARTICLE_RE.sub(" ", s)
    if policy.collapse_whitespace or policy.lemmatize:
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


def per_call_judge(example, model) -> Judgment:
    """The judge composed from public pieces, each normalizing its own
    inputs: per-pair token scores, encode_pair/encode_triple, predict_proba
    on SparseVectors, and FeatureVector.to_sparse."""
    ref_idx, scores = first_max_reference(example.candidate, example.references, PEDANTS_POLICY)
    q, ref, cand = example.question, example.references[ref_idx], example.candidate
    type_probs = linear.predict_proba(
        model.type_model, vectorizer.encode_pair(q, ref, model.type_vectorizer)
    )
    rule_probs = linear.predict_proba(
        model.rule_model, vectorizer.encode_triple(q, ref, cand, model.rule_vectorizer)
    )
    text = vectorizer.encode_triple(q, ref, cand, model.judge_vectorizer)
    features = FeatureVector(type_probs, rule_probs, scores, text)
    probs = linear.predict_proba(model.judge_model, features.to_sparse())
    return Judgment(
        correct=int(np.argmax(probs)) == 1,
        confidence=float(probs[1]),
        predicted_rule=RuleLabel.from_code(int(np.argmax(rule_probs))),
        predicted_type=predicted_question_type(q, type_probs),
        token_scores=scores,
        chosen_reference=ref_idx,
    )
