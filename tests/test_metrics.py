import random

import pytest

from pedants.errors import EmptyReferences
from pedants.metrics import (
    PrfScores,
    Threshold,
    best_reference,
    exact_match,
    threshold_judge,
    token_prf,
)
from pedants.textnorm import EM_POLICY, PEDANTS_POLICY


def test_exact_match_failure_pairs():
    # surface variants humans accept but strict matching rejects
    assert not exact_match("Mt. Everest", ["Mount Everest"])
    assert not exact_match("wetlands area", ["wetland"])
    assert not exact_match("12 PM", ["12 noon"])


def test_exact_match_normalization_equal_pairs():
    assert exact_match("the Yankees", ["The Yankees", "Houston Astros"])
    assert exact_match("Mt.  Everest!", ["mt everest"])
    assert exact_match("A dog", ["dog"])


def test_exact_match_empty_references():
    with pytest.raises(EmptyReferences):
        exact_match("anything", [])


def test_exact_match_rejects_a_bare_string_of_references():
    # read one character at a time, "Joe Biden" would hold the reference "e"
    with pytest.raises(ValueError, match="not one string"):
        exact_match("e", "Joe Biden")


def test_token_prf_biden():
    scores = token_prf("Joseph Biden", "Joe Biden")
    assert scores.precision == pytest.approx(0.5, abs=1e-9)
    assert scores.recall == pytest.approx(0.5, abs=1e-9)
    assert scores.f1 == pytest.approx(0.5, abs=1e-9)


def test_token_prf_date():
    # precision is candidate-denominated, recall reference-denominated
    scores = token_prf("2021", "Jan 20, 2021")
    assert scores.precision == pytest.approx(1.0, abs=1e-9)
    assert scores.recall == pytest.approx(1 / 3, abs=1e-9)
    assert scores.f1 == pytest.approx(0.5, abs=1e-9)


def test_token_prf_glacier():
    scores = token_prf("more blue ice", "more")
    assert scores.precision == pytest.approx(1 / 3, abs=1e-9)
    assert scores.recall == pytest.approx(1.0, abs=1e-9)
    assert scores.f1 == pytest.approx(0.5, abs=1e-9)


def test_token_prf_empty_conventions():
    assert token_prf("", "") == PrfScores(1.0, 1.0, 1.0)
    assert token_prf("", "something") == PrfScores(0.0, 0.0, 0.0)
    assert token_prf("something", "") == PrfScores(0.0, 0.0, 0.0)


def test_token_prf_multiset_overlap():
    # duplicates are matched copy-for-copy, not as a set
    scores = token_prf("biden biden", "biden")
    assert scores.precision == pytest.approx(0.5)
    assert scores.recall == pytest.approx(1.0)


_WORDS = ["red", "blue", "green", "cat", "dog", "2021", "north", "the", "a"]


def _random_text(rng):
    return " ".join(rng.choice(_WORDS) for _ in range(rng.randint(0, 6)))


def test_precision_recall_symmetry():
    rng = random.Random(5)
    for _ in range(300):
        a, b = _random_text(rng), _random_text(rng)
        for policy in (EM_POLICY, PEDANTS_POLICY):
            ab = token_prf(a, b, policy)
            ba = token_prf(b, a, policy)
            assert ab.precision == pytest.approx(ba.recall, abs=1e-12)
            assert ab.recall == pytest.approx(ba.precision, abs=1e-12)


def test_f1_is_harmonic_mean_and_bounded():
    rng = random.Random(17)
    for _ in range(300):
        scores = token_prf(_random_text(rng), _random_text(rng))
        p, r, f1 = scores.precision, scores.recall, scores.f1
        assert 0.0 <= p <= 1.0 and 0.0 <= r <= 1.0 and 0.0 <= f1 <= 1.0
        if p + r > 0:
            assert f1 == 2 * p * r / (p + r)
            assert min(p, r) - 1e-12 <= f1 <= max(p, r) + 1e-12
        else:
            assert f1 == 0.0


def test_exact_match_implies_perfect_f1():
    rng = random.Random(23)
    for _ in range(200):
        cand = _random_text(rng)
        refs = [_random_text(rng), cand.upper(), _random_text(rng)]
        if exact_match(cand, refs, EM_POLICY):
            assert best_reference(cand, refs, EM_POLICY)[1].f1 == pytest.approx(1.0)


def test_best_over_references():
    assert best_reference("2015", ["2015", "2017"])[1].f1 == pytest.approx(1.0)
    assert best_reference("2016", ["2015", "2017"])[1].f1 == pytest.approx(0.0)
    # oracle by hand: f1 vs "The Yankees" = 0, vs "Houston Astros" = 2*(2/3*1)/(2/3+1) = 0.8
    idx, scores = best_reference("houston astros win", ["The Yankees", "Houston Astros"])
    assert idx == 1
    assert scores.f1 == pytest.approx(0.8, abs=1e-12)


def test_best_over_references_duplicate_invariance():
    rng = random.Random(31)
    for _ in range(200):
        cand = _random_text(rng)
        refs = [_random_text(rng) or "x", _random_text(rng) or "y"]
        base = best_reference(cand, refs)[1]
        dup = best_reference(cand, refs + [refs[0]])[1]
        assert base == dup


def test_best_over_references_empty():
    with pytest.raises(EmptyReferences):
        best_reference("x", [])


def test_best_reference_rejects_a_bare_string_of_references():
    with pytest.raises(ValueError, match="not one string"):
        best_reference("e", "Joe Biden")


def test_threshold_judge_boundary():
    assert threshold_judge(PrfScores(0.5, 0.5, 0.5), Threshold(0.5))  # at-least
    assert not threshold_judge(PrfScores(0.4, 0.4, 0.4), Threshold(0.5))
    assert threshold_judge(PrfScores(0.4, 0.4, 0.4), Threshold(0.3))


def test_threshold_validation():
    with pytest.raises(ValueError):
        Threshold(1.5)
    with pytest.raises(ValueError):
        Threshold(-0.1)
