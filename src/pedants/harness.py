"""Metric-vs-human comparison: agreement, Macro F1, sweeps, and rankings."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import EmptyRecords, OutOfRangeScore, TooFewModels
from .io import LIKERT_CUTOFF


@dataclass
class ConfusionCounts:
    """Streaming 2x2 confusion matrix over (human label, metric verdict)."""

    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    def update(self, label: bool, verdict: bool) -> None:
        if label and verdict:
            self.tp += 1
        elif not label and verdict:
            self.fp += 1
        elif label and not verdict:
            self.fn += 1
        else:
            self.tn += 1

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    def accuracy(self) -> float:
        if not self.total:
            raise EmptyRecords("no records counted")
        return (self.tp + self.tn) / self.total

    def class_f1(self, cls: bool) -> float:
        if cls:
            tp, fp, fn = self.tp, self.fp, self.fn
        else:
            tp, fp, fn = self.tn, self.fn, self.fp
        denom = 2 * tp + fp + fn
        return 2 * tp / denom if denom else 0.0  # absent class contributes 0

    def macro_f1(self) -> float:
        if not self.total:
            raise EmptyRecords("no records counted")
        return (self.class_f1(True) + self.class_f1(False)) / 2


@dataclass
class RankingInput:
    """Per-model correctness rates for humans and for each metric."""

    human_rates: Mapping[str, float]
    metric_rates: Mapping[str, Mapping[str, float]]

    def __post_init__(self):
        if not isinstance(self.metric_rates, Mapping):
            raise ValueError("metric rates must map each metric name to a rate table")
        tables = {"human": self.human_rates}
        tables.update((f"metric {name!r}", rates) for name, rates in self.metric_rates.items())
        # one pass over each table, human first: value type, range, model set
        for owner, rates in tables.items():
            if not isinstance(rates, Mapping):
                raise ValueError(f"{owner} rates must map model names to rates")
            for model, rate in rates.items():
                if isinstance(rate, bool) or not isinstance(rate, (int, float)):
                    raise ValueError(f"{owner} rate for {model!r} must be a number, got {rate!r}")
                if not 0.0 <= rate <= 1.0:
                    raise ValueError(f"rate for {model!r} out of [0, 1]: {rate}")
            if set(rates) != set(self.human_rates):
                raise ValueError(f"{owner} rates cover different models than humans")
        if len(self.human_rates) < 2:
            raise TooFewModels(f"need >= 2 models, got {len(self.human_rates)}")
        if not self.metric_rates:
            raise ValueError("metric rates must name at least one metric")

    @property
    def n_models(self) -> int:
        return len(self.human_rates)


def _sign(x: float) -> int:
    return (x > 0) - (x < 0)


def pairwise_ranking_accuracy(ranking: RankingInput, metric: str) -> float:
    """Fraction of model pairs the metric orders the same way humans do.

    A pair agrees when sign(rate_m(i) - rate_m(j)) equals
    sign(rate_h(i) - rate_h(j)); exact ties count as their own order.
    """
    human, rates = ranking.human_rates, ranking.metric_rates[metric]
    pairs = list(itertools.combinations(sorted(human), 2))
    agree = sum(_sign(human[a] - human[b]) == _sign(rates[a] - rates[b]) for a, b in pairs)
    return agree / len(pairs)


@dataclass(frozen=True)
class SweepRow:
    threshold: float
    accuracy: float
    macro_f1: float


def threshold_sweep(
    scored: Sequence[tuple[float, bool]], thresholds: Sequence[float]
) -> list[SweepRow]:
    """Agreement stats of the F1-threshold judge at each cutoff.

    ``scored`` pairs each example's token F1 with its human label. Rows are
    piecewise-constant in the threshold: they only change at observed F1
    values.
    """
    if not scored:
        raise EmptyRecords("no scored records to sweep")
    if not thresholds:
        raise ValueError("thresholds must be non-empty")
    for t in thresholds:
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"threshold out of [0, 1]: {t}")
    rows = []
    for t in thresholds:
        counts = ConfusionCounts()
        for f1, label in scored:
            counts.update(label, f1 >= t)
        rows.append(SweepRow(t, counts.accuracy(), counts.macro_f1()))
    return rows


def likert_to_binary(score: float, cutoff: float = LIKERT_CUTOFF) -> bool:
    """Convert a 1-5 rating to a correctness label: correct iff score >= cutoff."""
    if not 1 <= score <= 5:
        raise OutOfRangeScore(f"Likert score must be in [1, 5], got {score}")
    return score >= cutoff
