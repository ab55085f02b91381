"""Output checks that do not trust the program.

Token scores, best references and verdicts are compared with the values the
generator planted. The model's forward pass is recomputed with numpy from
the bundle JSON and the planted normalized words. Each check returns a list
of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from gen import QTYPES, RULES, Truth

CLS, SEP = "[CLS]", "[SEP]"
DENSE_DIM = 17  # 7 type probabilities, 7 rule probabilities, f1, precision, recall
LOGIT_CLAMP = 30.0
SCORE_TOL = 1e-12
FORWARD_TOL = 1e-9
FORWARD_SAMPLE = 100  # rows recomputed with numpy per output


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_jsonl(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip() and not line.startswith("#")]


def pair_words(t: Truth) -> list[str]:
    return [CLS, *t.question, SEP, *t.references[t.best]]


def triple_words(t: Truth) -> list[str]:
    return [*pair_words(t), SEP, *t.candidate]


class Forward:
    """The judge's forward pass, recomputed densely from a bundle's JSON."""

    def __init__(self, bundle: dict):
        self.parts = {}
        for role, key in (("type", "type_extractor"), ("rule", "rule_extractor"),
                          ("judge", "final_judge")):
            vec, mod = bundle[key]["vectorizer"], bundle[key]["model"]
            weights = np.array(mod["weights"], dtype=np.float64).reshape(mod["classes"], mod["dim"])
            self.parts[role] = (
                {tok: i for i, tok in enumerate(vec["vocab"])},
                np.array(vec["idf"], dtype=np.float64),
                bool(vec["config"]["l2_normalize"]),
                weights,
                np.array(mod["bias"], dtype=np.float64),
            )

    def _encode(self, role: str, words: list[str]) -> np.ndarray:
        vocab, idf, l2, _, _ = self.parts[role]
        x = np.zeros(len(vocab))
        for word in words:
            if word in vocab:
                x[vocab[word]] += 1.0
        x *= idf
        norm = np.sqrt(x @ x)
        return x / norm if l2 and norm > 0 else x

    def _probs(self, role: str, x: np.ndarray) -> np.ndarray:
        _, _, _, weights, bias = self.parts[role]
        scores = np.clip(weights @ x + bias, -LOGIT_CLAMP, LOGIT_CLAMP)
        e = np.exp(scores - scores.max())
        return e / e.sum()

    def __call__(self, t: Truth) -> tuple[str, str, float]:
        """(rule, qtype, confidence) for one planted record."""
        type_probs = self._probs("type", self._encode("type", pair_words(t)))
        rule_probs = self._probs("rule", self._encode("rule", triple_words(t)))
        judge_x = np.concatenate([
            type_probs, rule_probs, [t.f1, t.precision, t.recall],
            self._encode("judge", triple_words(t)),
        ])
        confidence = float(self._probs("judge", judge_x)[1])
        top = int(np.argmax(type_probs))
        if type_probs[top] >= 0.5:
            qtype = QTYPES[top]
        else:  # the earliest wh-word of the question, else "what"
            qtype = next((w for w in t.question if w in QTYPES), "what")
        return RULES[int(np.argmax(rule_probs))], qtype, confidence


def check_judgments(rows: list[dict], truths: list[Truth], forward: Forward) -> list[str]:
    """Rows of `judge --metric pedants` (or Judgment.to_dict) against the plan."""
    if len(rows) != len(truths):
        return [f"{len(rows)} judged rows for {len(truths)} records"]
    problems = []
    step = max(1, len(rows) // FORWARD_SAMPLE)
    for i, (row, t) in enumerate(zip(rows, truths)):
        where = f"row {i}"
        for key, want in (("f1", t.f1), ("precision", t.precision), ("recall", t.recall)):
            if not abs(row[key] - want) <= SCORE_TOL:
                problems.append(f"{where}: {key} {row[key]!r} != planted {want!r}")
        if row["reference_index"] != t.best:
            problems.append(f"{where}: reference_index {row['reference_index']} != {t.best}")
        conf = row["confidence"]
        if not 0.0 < conf < 1.0:
            problems.append(f"{where}: confidence {conf!r} outside (0, 1)")
        if row["correct"] is not (conf > 0.5):
            problems.append(f"{where}: correct={row['correct']} with confidence {conf!r}")
        if i % step == 0:
            rule, qtype, want_conf = forward(t)
            if (row["rule"], row["qtype"]) != (rule, qtype):
                problems.append(
                    f"{where}: rule/qtype {row['rule']}/{row['qtype']} != {rule}/{qtype}"
                )
            if not abs(conf - want_conf) <= FORWARD_TOL:
                problems.append(f"{where}: confidence {conf!r} != recomputed {want_conf!r}")
    return problems


def _agreement(labels: list[int], verdicts: list[bool]) -> tuple[float, float]:
    tp = sum(1 for y, v in zip(labels, verdicts) if y and v)
    tn = sum(1 for y, v in zip(labels, verdicts) if not y and not v)
    fp = sum(1 for y, v in zip(labels, verdicts) if not y and v)
    fn = len(labels) - tp - tn - fp

    def f1(tp_, fp_, fn_):
        denom = 2 * tp_ + fp_ + fn_
        return 2 * tp_ / denom if denom else 0.0

    return (tp + tn) / len(labels), (f1(tp, fp, fn) + f1(tn, fn, fp)) / 2


def check_report(report: list[dict], truths: list[Truth]) -> list[str]:
    """report.json of `eval --metric em,f1` against planted labels and verdicts."""
    labels = [t.label for t in truths]
    planted = {
        "em": _agreement(labels, [t.em for t in truths]),
        "f1": _agreement(labels, [t.f1_verdict for t in truths]),
    }
    got = {row["metric"]: row for row in report}
    if sorted(got) != sorted(planted):
        return [f"report covers metrics {sorted(got)}, expected {sorted(planted)}"]
    problems = []
    for name, (accuracy, macro_f1) in planted.items():
        row = got[name]
        if row["examples"] != len(truths):
            problems.append(f"{name}: {row['examples']} examples, expected {len(truths)}")
        if not abs(row["accuracy"] - accuracy) <= SCORE_TOL:
            problems.append(f"{name}: accuracy {row['accuracy']!r} != planted {accuracy!r}")
        if not abs(row["macro_f1"] - macro_f1) <= SCORE_TOL:
            problems.append(f"{name}: macro_f1 {row['macro_f1']!r} != planted {macro_f1!r}")
    return problems


def check_bundle(bundle: dict, truths: list[Truth]) -> list[str]:
    """A bundle trained on planted records: vocabularies, smoothed idf,
    dimensions and finite weights."""
    n = len(truths)
    texts = {"type": [pair_words(t) for t in truths]}
    texts["rule"] = texts["judge"] = [triple_words(t) for t in truths]
    problems = []
    for role, key in (("type", "type_extractor"), ("rule", "rule_extractor"),
                      ("judge", "final_judge")):
        vec, mod = bundle[key]["vectorizer"], bundle[key]["model"]
        df: dict[str, int] = {}
        for words in texts[role]:
            for word in set(words):
                df[word] = df.get(word, 0) + 1
        if vec["vocab"] != sorted(df):
            problems.append(
                f"{role}: vocabulary of {len(vec['vocab'])} tokens, planted {len(df)} distinct"
            )
            continue
        idf = [math.log((1 + n) / (1 + df[w])) + 1.0 for w in vec["vocab"]]
        if not np.allclose(vec["idf"], idf, rtol=0, atol=SCORE_TOL):
            problems.append(f"{role}: idf differs from the smoothed idf of the planted corpus")
        want_dim = len(df) + (DENSE_DIM if role == "judge" else 0)
        if mod["dim"] != want_dim or len(mod["weights"]) != mod["classes"] * want_dim:
            problems.append(f"{role}: model dimension {mod['dim']}, expected {want_dim}")
        if not np.all(np.isfinite(mod["weights"])) or not np.all(np.isfinite(mod["bias"])):
            problems.append(f"{role}: weights are not all finite")
    return problems
