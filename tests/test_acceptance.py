"""Acceptance suite: one test per release criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; plain `pytest -v` shows the same information as test outcomes.
"""

import json
import random
import time
import tracemalloc

import numpy as np

from oracles import batch_gd_predict, batch_gd_train, batch_of, pairwise_agreement, train_vectors
from pedants.cli import main
from pedants.harness import RankingInput, likert_to_binary, pairwise_ranking_accuracy, threshold_sweep
from pedants.linear import LinearModel, predict_proba
from pedants.metrics import PrfScores, Threshold, exact_match, threshold_judge, token_prf
from pedants.pipeline import QAExample, QuestionType, RuleLabel, judge, train_pedants

TOL = 1e-9


def _report(criterion: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS")


def test_criterion_1_token_metric_exactness():
    scores = token_prf("Joseph Biden", "Joe Biden")
    assert abs(scores.precision - 0.5) <= TOL
    assert abs(scores.recall - 0.5) <= TOL
    assert abs(scores.f1 - 0.5) <= TOL
    scores = token_prf("2021", "Jan 20, 2021")
    assert abs(scores.f1 - 0.5) <= TOL
    assert {round(scores.precision, 12), round(scores.recall, 12)} == {
        round(1.0, 12), round(1 / 3, 12),
    }
    assert abs(scores.precision - 1.0) <= TOL  # candidate-denominated precision
    assert abs(scores.recall - 1 / 3) <= TOL
    _report("1 token-metric exactness")


def test_criterion_2_exact_match_behavior():
    for candidate, reference in [
        ("Mt. Everest", "Mount Everest"),
        ("wetlands area", "wetland"),
        ("12 PM", "12 noon"),
    ]:
        assert not exact_match(candidate, [reference])
        assert not exact_match(reference, [candidate])
    for candidate, references in [
        ("the Yankees", ["The Yankees", "Houston Astros"]),
        ("Mt.  Everest!", ["mt everest"]),
        ("An answer", ["answer"]),
    ]:
        assert exact_match(candidate, references)
    _report("2 exact-match behavior")


def test_criterion_3_threshold_semantics():
    scores = PrfScores(0.4, 0.4, 0.4)
    assert threshold_judge(scores, Threshold(0.3))
    assert not threshold_judge(scores, Threshold(0.5))

    # sweep rows are piecewise-constant with breakpoints only at observed F1s
    rng = random.Random(668)
    for _ in range(50):
        n = rng.randint(2, 30)
        scored = [(rng.randint(0, 8) / 8, rng.random() < 0.5) for _ in range(n)]
        observed = sorted({f1 for f1, _ in scored})
        for lo, hi in zip(observed, observed[1:]):
            a = lo + (hi - lo) * 0.2
            b = lo + (hi - lo) * 0.8
            row_a, row_b = threshold_sweep(scored, [a, b])
            assert (row_a.accuracy, row_a.macro_f1) == (row_b.accuracy, row_b.macro_f1)
    _report("3 threshold semantics and sweep piecewise-constancy")


def test_criterion_4_pairwise_ranking_oracle():
    identical = RankingInput(
        human_rates={"a": 0.7, "b": 0.3, "c": 0.5},
        metric_rates={"m": {"a": 0.7, "b": 0.3, "c": 0.5}},
    )
    assert pairwise_ranking_accuracy(identical, "m") == 1.0
    reversed_two = RankingInput(
        human_rates={"a": 0.9, "b": 0.1}, metric_rates={"m": {"a": 0.1, "b": 0.9}}
    )
    assert pairwise_ranking_accuracy(reversed_two, "m") == 0.0

    rng = random.Random(42)
    for _ in range(200):
        n = rng.randint(2, 6)
        models = [f"model{i}" for i in range(n)]
        human = {m: rng.randint(0, 5) / 5 for m in models}
        rates = {m: rng.randint(0, 5) / 5 for m in models}
        ranking = RankingInput(human_rates=human, metric_rates={"m": rates})
        assert pairwise_ranking_accuracy(ranking, "m") == pairwise_agreement(human, rates)
    _report("4 pairwise ranking matches brute-force oracle (200 tables)")


def _dense_to_sparse(row) -> tuple[np.ndarray, np.ndarray]:
    idx = np.flatnonzero(row)
    return idx, np.asarray(row, np.float64)[idx]


def test_criterion_5_linear_model_oracle_equivalence():
    # 20-point 2-D instances: label agreement with a dense batch-GD oracle
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        pos = rng.normal(loc=(2.0, 2.0), scale=0.4, size=(10, 2))
        neg = rng.normal(loc=(-2.0, -2.0), scale=0.4, size=(10, 2))
        X = np.vstack([pos, neg])
        y = np.array([1] * 10 + [0] * 10)
        data = [(_dense_to_sparse(row), int(label)) for row, label in zip(X, y)]
        model = train_vectors(data, 2)
        probs = predict_proba(model, batch_of([x for x, _ in data], 2))
        ours = np.argmax(probs, axis=1).tolist()
        W, b = batch_gd_train(X, y)
        assert ours == batch_gd_predict(W, b, X).tolist()

    # probabilities sum to 1 within 1e-9 on 1e5 random sparse inputs
    rng = np.random.default_rng(668)
    dim, n_inputs = 16, 100_000
    weights = rng.normal(scale=50.0, size=(7, dim))
    proba_model = LinearModel(weights, rng.normal(size=7))
    rows = []
    for _ in range(n_inputs):
        nnz = rng.integers(0, dim) + 1
        idx = np.sort(rng.choice(dim, size=nnz, replace=False))
        rows.append((idx, rng.normal(scale=100.0, size=nnz)))
    probs = predict_proba(proba_model, batch_of(rows, dim))
    assert probs.shape == (n_inputs, 7)
    assert np.all(np.isfinite(probs))
    assert np.abs(probs.sum(axis=1) - 1.0).max() <= TOL

    # bit-exact determinism across two seeded runs
    X, y = np.vstack([pos, neg]), y
    data = [(_dense_to_sparse(row), int(label)) for row, label in zip(X, y)]
    run1 = json.dumps(train_vectors(data, 2, seed=668).to_dict(), sort_keys=True)
    run2 = json.dumps(train_vectors(data, 2, seed=668).to_dict(), sort_keys=True)
    assert run1 == run2
    _report("5 linear-model oracle equivalence, probability sums, determinism")


def test_criterion_6_pipeline_regression(seed_corpus):
    started = time.perf_counter()
    model = train_pedants(seed_corpus)

    judged = [judge(ex, model) for ex in seed_corpus]
    accuracy = sum(j.correct == ex.human_label for j, ex in zip(judged, seed_corpus)) / len(
        seed_corpus
    )
    assert accuracy >= 0.90

    q1 = judge(
        QAExample(
            question="Who is the president of the US in 2023?",
            references=("Joe Biden",),
            candidate="Joseph Biden",
        ),
        model,
    )
    assert q1.correct
    assert q1.predicted_rule is RuleLabel.R1
    assert q1.predicted_type is QuestionType.WHO
    q2 = judge(
        QAExample(
            question="When did Joe Biden become the president of the US?",
            references=("Jan 20, 2021",),
            candidate="2021",
        ),
        model,
    )
    assert not q2.correct
    assert q2.predicted_rule is RuleLabel.R2
    assert q2.predicted_type is QuestionType.WHEN

    for question, answer in [
        ("Who directed the film Jaws?", "Steven Spielberg"),
        ("Which ocean borders California?", "the Pacific Ocean"),
    ]:
        same = QAExample(question=question, references=(answer,), candidate=answer)
        assert judge(same, model).correct

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"pipeline regression took {elapsed:.1f}s"
    _report(f"6 pipeline regression (accuracy {accuracy:.2f}, {elapsed:.1f}s)")


def _write_synthetic_dataset(path, n):
    rng = random.Random(668)
    subjects = ["the river", "the treaty", "the engine", "a comet", "the festival"]
    answers = ["blue heron", "silver medal", "northern lights", "iron bridge", "old harbor"]
    with path.open("w", encoding="utf-8") as handle:
        for i in range(n):
            answer = rng.choice(answers)
            candidate = answer if rng.random() < 0.5 else rng.choice(answers) + f" {i}"
            record = {
                "question": f"What connects {rng.choice(subjects)} to item {i}?",
                "references": [answer, f"{answer} variant"],
                "candidate": candidate,
                "label": int(candidate == answer),
            }
            handle.write(json.dumps(record) + "\n")


def _run_judge(dataset, bundle, out):
    rc = main(
        ["judge", "--dataset", str(dataset), "--model", str(bundle), "--out", str(out)]
    )
    assert rc == 0


def test_criterion_7_throughput_and_memory(tmp_path, seed_bundle_path):
    big = tmp_path / "synthetic_10k.jsonl"
    _write_synthetic_dataset(big, 10_000)
    out = tmp_path / "judged_10k.jsonl"

    started = time.perf_counter()
    _run_judge(big, seed_bundle_path, out)
    elapsed = time.perf_counter() - started
    assert elapsed <= 60.0, f"10k examples took {elapsed:.1f}s"
    assert sum(1 for l in out.read_text().splitlines() if not l.startswith("#")) == 10_000

    # flat memory: peak for 10k must not grow with dataset size beyond slack
    small = tmp_path / "synthetic_2k.jsonl"
    _write_synthetic_dataset(small, 2_000)
    tracemalloc.start()
    _run_judge(small, seed_bundle_path, tmp_path / "judged_small.jsonl")
    peak_small = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    tracemalloc.start()
    _run_judge(big, seed_bundle_path, tmp_path / "judged_big.jsonl")
    peak_big = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak_big < peak_small + 8 * 2**20, (peak_small, peak_big)
    _report(
        f"7 throughput ({10_000 / elapsed:.0f} examples/s) and flat memory "
        f"({peak_small >> 10} KiB at 2k vs {peak_big >> 10} KiB at 10k)"
    )


def test_criterion_8_likert_conversion():
    assert likert_to_binary(4) is True
    assert likert_to_binary(3) is False
    assert likert_to_binary(5) is True
    _report("8 likert conversion")
