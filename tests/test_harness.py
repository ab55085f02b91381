import random

import pytest

from oracles import accuracy_oracle, macro_f1_oracle, pairwise_agreement
from pedants.errors import EmptyRecords, OutOfRangeScore, TooFewModels
from pedants.harness import (
    ConfusionCounts,
    RankingInput,
    likert_to_binary,
    pairwise_ranking_accuracy,
    threshold_sweep,
)


def _counts(labels, verdicts):
    counts = ConfusionCounts()
    for label, verdict in zip(labels, verdicts):
        counts.update(bool(label), bool(verdict))
    return counts


def test_perfect_and_inverted_agreement():
    labels = [1, 0, 1, 1]
    assert _counts(labels, labels).accuracy() == 1.0
    assert _counts(labels, labels).macro_f1() == 1.0
    inverted = [1 - l for l in labels]
    assert _counts(labels, inverted).accuracy() == 0.0


def test_confusion_matrix_case():
    labels = [1, 1, 0, 0]
    verdicts = [1, 0, 0, 0]
    counts = _counts(labels, verdicts)
    assert counts.accuracy() == pytest.approx(0.75)
    # oracle: class-correct F1 = 2/3, class-incorrect F1 = 0.8
    expected = macro_f1_oracle([bool(x) for x in labels], [bool(x) for x in verdicts])
    assert expected == pytest.approx((2 / 3 + 0.8) / 2, abs=1e-12)
    assert counts.macro_f1() == pytest.approx(expected, abs=1e-12)


def test_accuracy_inversion_property():
    rng = random.Random(19)
    for _ in range(100):
        n = rng.randint(1, 30)
        labels = [rng.random() < 0.5 for _ in range(n)]
        verdicts = [rng.random() < 0.5 for _ in range(n)]
        flipped = [not v for v in verdicts]
        total = _counts(labels, verdicts).accuracy() + _counts(labels, flipped).accuracy()
        assert total == pytest.approx(1.0)


def test_agreement_matches_oracle_on_random_data():
    rng = random.Random(37)
    for _ in range(100):
        n = rng.randint(1, 40)
        labels = [rng.random() < 0.6 for _ in range(n)]
        verdicts = [rng.random() < 0.6 for _ in range(n)]
        counts = _counts(labels, verdicts)
        assert counts.accuracy() == pytest.approx(accuracy_oracle(labels, verdicts), abs=1e-12)
        assert counts.macro_f1() == pytest.approx(macro_f1_oracle(labels, verdicts), abs=1e-12)


def test_empty_records_rejected():
    with pytest.raises(EmptyRecords):
        ConfusionCounts().accuracy()
    with pytest.raises(EmptyRecords):
        ConfusionCounts().macro_f1()


def test_pairwise_trivial_cases():
    human = {"m1": 0.9, "m2": 0.4, "m3": 0.2}
    ranking = RankingInput(human_rates=human, metric_rates={"same": dict(human)})
    assert pairwise_ranking_accuracy(ranking, "same") == 1.0

    two = RankingInput(
        human_rates={"m1": 0.8, "m2": 0.2},
        metric_rates={"rev": {"m1": 0.2, "m2": 0.8}},
    )
    assert pairwise_ranking_accuracy(two, "rev") == 0.0


def test_pairwise_three_model_case():
    human = {"m1": 0.9, "m2": 0.5, "m3": 0.1}
    rates = {"m1": 0.8, "m2": 0.6, "m3": 0.7}
    expected = pairwise_agreement(human, rates)  # (1,2) and (1,3) agree, (2,3) flips
    assert expected == pytest.approx(2 / 3, abs=1e-12)
    ranking = RankingInput(human_rates=human, metric_rates={"m": rates})
    assert pairwise_ranking_accuracy(ranking, "m") == pytest.approx(expected, abs=1e-12)


def test_pairwise_matches_oracle_on_random_tables():
    rng = random.Random(53)
    for _ in range(200):
        n = rng.randint(2, 6)
        models = [f"model{i}" for i in range(n)]
        # quantized rates so exact ties actually occur
        human = {m: rng.randint(0, 4) / 4 for m in models}
        rates = {m: rng.randint(0, 4) / 4 for m in models}
        ranking = RankingInput(human_rates=human, metric_rates={"m": rates})
        assert pairwise_ranking_accuracy(ranking, "m") == pairwise_agreement(human, rates)


def test_pairwise_invariant_under_monotone_transform():
    rng = random.Random(61)
    for transform in (lambda x: x * x, lambda x: 0.5 * x + 0.25):
        for _ in range(50):
            n = rng.randint(2, 6)
            models = [f"model{i}" for i in range(n)]
            human = {m: rng.random() for m in models}
            rates = {m: rng.random() for m in models}
            warped = {m: transform(r) for m, r in rates.items()}
            base = RankingInput(human_rates=human, metric_rates={"m": rates})
            mono = RankingInput(human_rates=human, metric_rates={"m": warped})
            assert pairwise_ranking_accuracy(base, "m") == pairwise_ranking_accuracy(mono, "m")


def test_pairwise_validation():
    with pytest.raises(TooFewModels):
        RankingInput(human_rates={"only": 0.5}, metric_rates={})
    with pytest.raises(ValueError):
        RankingInput(human_rates={"a": 0.5, "b": 1.5}, metric_rates={})
    with pytest.raises(ValueError):
        RankingInput(
            human_rates={"a": 0.5, "b": 0.5},
            metric_rates={"m": {"a": 0.5, "c": 0.5}},
        )
    # the shape and types of the tables are checked before anything else
    with pytest.raises(ValueError, match="human rates must map"):
        RankingInput(human_rates=[0.5, 0.6], metric_rates={})
    with pytest.raises(ValueError, match="metric rates must map"):
        RankingInput(human_rates={"a": 0.5, "b": 0.6}, metric_rates=[{"a": 0.5}])
    with pytest.raises(ValueError, match="at least one metric"):
        RankingInput(human_rates={"a": 0.5, "b": 0.6}, metric_rates={})
    for bad in ("0.5", None, True):
        with pytest.raises(ValueError, match="must be a number"):
            RankingInput(human_rates={"only": bad}, metric_rates={})
        with pytest.raises(ValueError, match="metric 'm' rate for 'b' must be a number"):
            RankingInput(
                human_rates={"a": 0.5, "b": 0.6}, metric_rates={"m": {"a": 0.5, "b": bad}}
            )
    # each table is checked in one pass, so a rate out of range or a model
    # set unlike the humans' is reported before there are too few models
    with pytest.raises(ValueError, match=r"^rate for 'only' out of \[0, 1\]: 1.5$"):
        RankingInput(human_rates={"only": 1.5}, metric_rates={"m": {"only": 0.5}})
    with pytest.raises(ValueError, match="^metric 'm' rates cover different models than humans$"):
        RankingInput(human_rates={"only": 0.5}, metric_rates={"m": {"other": 0.5}})


def test_threshold_sweep_extremes():
    scored = [(0.0, True), (0.4, False), (1.0, True)]
    rows = threshold_sweep(scored, [0.0, 1.0])
    # cutoff 0 accepts everything
    assert rows[0].accuracy == pytest.approx(2 / 3)
    # cutoff 1.0 accepts only perfect scores
    assert rows[1].accuracy == pytest.approx(2 / 3)


def test_threshold_sweep_hand_case():
    scored = [(0.45, True), (0.35, False), (0.8, True)]
    rows = threshold_sweep(scored, [0.3, 0.5])
    # theta=0.3: all accepted -> verdicts (1,1,1) vs labels (1,0,1)
    assert rows[0].accuracy == pytest.approx(accuracy_oracle([1, 0, 1], [1, 1, 1]))
    assert rows[0].macro_f1 == pytest.approx(macro_f1_oracle([1, 0, 1], [1, 1, 1]))
    # theta=0.5: only 0.8 accepted -> verdicts (0,0,1)
    assert rows[1].accuracy == pytest.approx(accuracy_oracle([1, 0, 1], [0, 0, 1]))
    assert rows[1].macro_f1 == pytest.approx(macro_f1_oracle([1, 0, 1], [0, 0, 1]))


def test_threshold_sweep_piecewise_constant():
    rng = random.Random(71)
    for _ in range(30):
        n = rng.randint(2, 25)
        scored = [(rng.randint(0, 10) / 10, rng.random() < 0.5) for _ in range(n)]
        observed = sorted({f1 for f1, _ in scored})
        probes = []
        for lo, hi in zip(observed, observed[1:]):
            probes.append((lo, lo + (hi - lo) * 0.25, lo + (hi - lo) * 0.75))
        for at_value, inside_a, inside_b in probes:
            row_a, row_b = threshold_sweep(scored, [inside_a, inside_b])
            # between adjacent observed scores nothing can change
            assert row_a.accuracy == row_b.accuracy
            assert row_a.macro_f1 == row_b.macro_f1


def test_threshold_sweep_validation():
    with pytest.raises(EmptyRecords):
        threshold_sweep([], [0.5])
    with pytest.raises(ValueError):
        threshold_sweep([(0.5, True)], [])
    with pytest.raises(ValueError):
        threshold_sweep([(0.5, True)], [1.5])


def test_likert_conversion():
    assert likert_to_binary(4) is True
    assert likert_to_binary(3) is False
    assert likert_to_binary(5) is True
    with pytest.raises(OutOfRangeScore):
        likert_to_binary(0)
    with pytest.raises(OutOfRangeScore):
        likert_to_binary(6)


def test_confusion_counts_streaming_equals_batch():
    rng = random.Random(83)
    labels = [rng.random() < 0.5 for _ in range(200)]
    verdicts = [rng.random() < 0.5 for _ in range(200)]
    counts = _counts(labels, verdicts)
    assert (counts.tp, counts.fp, counts.fn, counts.tn) == (
        sum(l and v for l, v in zip(labels, verdicts)),
        sum(v and not l for l, v in zip(labels, verdicts)),
        sum(l and not v for l, v in zip(labels, verdicts)),
        sum(not (l or v) for l, v in zip(labels, verdicts)),
    )
    assert counts.accuracy() == pytest.approx(accuracy_oracle(labels, verdicts), abs=1e-12)
    assert counts.macro_f1() == pytest.approx(macro_f1_oracle(labels, verdicts), abs=1e-12)
