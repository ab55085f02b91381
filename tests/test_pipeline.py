import dataclasses
import json

import numpy as np
import pytest

from oracles import reference_train
from pedants.errors import EmptyReferences, MissingAnnotations
from pedants.pipeline import (
    DENSE_DIM,
    N_RULES,
    N_TYPES,
    PedantsModel,
    QAExample,
    QuestionType,
    RuleLabel,
    _prepare,
    _question_type,
    _score,
    assemble_features,
    judge,
    judge_batch,
    train_pedants,
    train_rule_extractor,
    train_type_extractor,
)
from pedants.textnorm import PEDANTS_POLICY, tokens
from pedants.vectorizer import SparseVector, TfidfModel, encode_pair, encode_triple
from pedants import linear, vectorizer
from test_fastpath import EMPTY_BOTH, EMPTY_PAIR, EMPTY_TRIPLE
from test_fastpath import sparse_model  # noqa: F401 (a fixture)

Q1 = QAExample(
    question="Who is the president of the US in 2023?",
    references=("Joe Biden",),
    candidate="Joseph Biden",
)
Q2 = QAExample(
    question="When did Joe Biden become the president of the US?",
    references=("Jan 20, 2021",),
    candidate="2021",
)


def test_enum_codes_are_stable():
    assert [t.value for t in QuestionType] == [
        "who", "why", "how", "what", "when", "where", "which",
    ]
    assert [t.code for t in QuestionType] == list(range(7))
    assert [r.value for r in RuleLabel] == ["R1", "R2", "R3", "R4", "R5", "R6", "R7"]
    assert [r.code for r in RuleLabel] == list(range(7))
    assert QuestionType.from_code(4) is QuestionType.WHEN
    assert RuleLabel.from_code(1) is RuleLabel.R2


def test_qaexample_requires_references():
    with pytest.raises(EmptyReferences):
        QAExample(question="q", references=(), candidate="c")


def test_qaexample_round_trip():
    ex = QAExample(
        question="q?",
        references=("a", "b"),
        candidate="c",
        human_label=True,
        rule=RuleLabel.R3,
        qtype=QuestionType.WHERE,
        model_id="m",
        dataset_id="d",
    )
    assert QAExample.from_dict(ex.to_dict()) == ex


def test_type_extractor_separable_first_token(seed_corpus):
    # first-token wh-words fully determine the labels here, so the trained
    # extractor must reach training accuracy 1.0
    examples = [
        ("who wrote it", "someone", QuestionType.WHO),
        ("who sang it", "a singer", QuestionType.WHO),
        ("when was it", "a date", QuestionType.WHEN),
        ("when did it end", "a year", QuestionType.WHEN),
        ("where is it", "a place", QuestionType.WHERE),
        ("where was it built", "a city", QuestionType.WHERE),
    ]
    tfidf, model = train_type_extractor(examples)
    for q, a, qtype in examples:
        probs = linear.predict_proba(model, encode_pair(q, a, tfidf))
        assert QuestionType.from_code(int(np.argmax(probs))) is qtype


def test_rule_extractor_separable_set():
    examples = [
        ("who is it", "Joe Biden", "Joseph Biden", RuleLabel.R1),
        ("who was it", "Lady Gaga", "Stefani Germanotta", RuleLabel.R1),
        ("when was it", "Jan 20, 2021", "2021", RuleLabel.R2),
        ("when did it end", "1945", "about 1945", RuleLabel.R2),
    ]
    tfidf, model = train_rule_extractor(examples)
    for q, a, cand, rule in examples:
        probs = linear.predict_proba(model, encode_triple(q, a, cand, tfidf))
        assert RuleLabel.from_code(int(np.argmax(probs))) is rule


def test_extractors_on_worked_examples(seed_model):
    probs = linear.predict_proba(
        seed_model.type_model,
        encode_pair(Q1.question, Q1.references[0], seed_model.type_vectorizer),
    )
    assert QuestionType.from_code(int(np.argmax(probs))) is QuestionType.WHO
    probs = linear.predict_proba(
        seed_model.type_model,
        encode_pair(Q2.question, Q2.references[0], seed_model.type_vectorizer),
    )
    assert QuestionType.from_code(int(np.argmax(probs))) is QuestionType.WHEN

    rule_probs = linear.predict_proba(
        seed_model.rule_model,
        encode_triple(Q1.question, Q1.references[0], Q1.candidate, seed_model.rule_vectorizer),
    )
    assert RuleLabel.from_code(int(np.argmax(rule_probs))) is RuleLabel.R1
    rule_probs = linear.predict_proba(
        seed_model.rule_model,
        encode_triple(Q2.question, Q2.references[0], Q2.candidate, seed_model.rule_vectorizer),
    )
    assert RuleLabel.from_code(int(np.argmax(rule_probs))) is RuleLabel.R2


def test_rule_extractor_specificity_example(seed_model):
    rule_probs = linear.predict_proba(
        seed_model.rule_model,
        encode_triple(
            "The Aviation Hall of Fame and Museum of New Jersey is located at the airport "
            "in which New Jersey county?",
            "Bergen",
            "Bergen county, New Jersey",
            seed_model.rule_vectorizer,
        ),
    )
    assert RuleLabel.from_code(int(np.argmax(rule_probs))) is RuleLabel.R4


def test_assemble_features_layout(seed_model):
    x = assemble_features(Q1, seed_model)
    assert isinstance(x, SparseVector)
    assert x.dimension == DENSE_DIM + seed_model.judge_vectorizer.dimension
    # the dense prefix: 7 type probs and 7 rule probs, each block positive
    # and summing to 1, then f1, p, r
    assert x.indices[:DENSE_DIM].tolist() == list(range(DENSE_DIM))
    for probs in (x.values[:7], x.values[7:14]):
        assert (probs > 0).all()
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
    assert x.values[14:DENSE_DIM].tolist() == [pytest.approx(0.5)] * 3
    # then the triple's encoding, shifted past the prefix
    text = encode_triple(Q1.question, Q1.references[0], Q1.candidate, seed_model.judge_vectorizer)
    assert x.indices[DENSE_DIM:].tolist() == (text.indices + DENSE_DIM).tolist()
    assert x.values[DENSE_DIM:].tolist() == text.values.tolist()
    # dimension is constant across examples for a fixed model
    assert assemble_features(Q2, seed_model).dimension == x.dimension


def test_train_requires_annotations():
    bare = QAExample(question="q", references=("a",), candidate="c")
    with pytest.raises(MissingAnnotations) as exc:
        train_pedants([bare])
    assert exc.value.records == [0]


def test_degenerate_two_example_training():
    examples = [
        QAExample(
            question="who wrote hamlet",
            references=("shakespeare",),
            candidate="shakespeare",
            human_label=True,
            rule=RuleLabel.R1,
            qtype=QuestionType.WHO,
        ),
        QAExample(
            question="when did rome fall",
            references=("476",),
            candidate="tuesday",
            human_label=False,
            rule=RuleLabel.R2,
            qtype=QuestionType.WHEN,
        ),
    ]
    model = train_pedants(examples)
    assert [judge(ex, model).correct for ex in examples] == [True, False]


def test_seed_training_accuracy(seed_corpus, seed_model):
    verdicts = [judge(ex, seed_model).correct == ex.human_label for ex in seed_corpus]
    assert sum(verdicts) / len(verdicts) >= 0.90


def test_training_is_byte_deterministic(seed_corpus):
    a = train_pedants(seed_corpus).to_json()
    b = train_pedants(seed_corpus).to_json()
    assert a == b


def test_judge_worked_examples(seed_model):
    j1 = judge(Q1, seed_model)
    assert j1.correct
    assert j1.predicted_rule is RuleLabel.R1
    assert j1.predicted_type is QuestionType.WHO
    j2 = judge(Q2, seed_model)
    assert not j2.correct
    assert j2.predicted_rule is RuleLabel.R2
    assert j2.predicted_type is QuestionType.WHEN


def test_identical_candidate_judged_correct(seed_model):
    for question, answer in [
        ("Who directed the film Jaws?", "Steven Spielberg"),
        ("What is the currency of Japan?", "the yen"),
        ("When did the Soviet Union dissolve?", "December 26, 1991"),
    ]:
        verdict = judge(
            QAExample(question=question, references=(answer,), candidate=answer), seed_model
        )
        assert verdict.correct
        assert verdict.confidence > 0.5


def test_judgment_invariant_to_reference_order(seed_model):
    ex = QAExample(
        question="Who founded Microsoft?",
        references=("Bill Gates", "completely unrelated words"),
        candidate="Bill Gates",
    )
    flipped = QAExample(
        question=ex.question,
        references=tuple(reversed(ex.references)),
        candidate=ex.candidate,
    )
    j1, j2 = judge(ex, seed_model), judge(flipped, seed_model)
    assert ex.references[j1.chosen_reference] == flipped.references[j2.chosen_reference]
    assert (j1.correct, j1.confidence, j1.predicted_rule, j1.predicted_type, j1.token_scores) == (
        j2.correct, j2.confidence, j2.predicted_rule, j2.predicted_type, j2.token_scores,
    )


def test_judge_determinism(seed_model):
    j1 = judge(Q1, seed_model)
    j2 = judge(Q1, seed_model)
    assert j1 == j2


def test_bundle_save_load_round_trip(seed_corpus, seed_model, tmp_path):
    path = tmp_path / "bundle.json"
    seed_model.save(path)
    loaded = PedantsModel.load(path)
    assert loaded.to_json() == seed_model.to_json()
    assert judge(Q1, loaded) == judge(Q1, seed_model)
    for ex in seed_corpus:
        assert judge(ex, loaded).to_dict() == judge(ex, seed_model).to_dict()


def test_bundle_version_checked(seed_model, tmp_path):
    data = seed_model.to_dict()
    data["format_version"] = "999"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError):
        PedantsModel.load(path)


def test_fingerprint_recorded(seed_model):
    assert seed_model.fingerprint["seed"] == 668
    assert len(seed_model.fingerprint["corpus_sha256"]) == 64


def test_type_fallback_heuristic():
    def qtype(question, probs):
        return _question_type(tokens(question, PEDANTS_POLICY), probs)

    uncertain = np.full(7, 1 / 7)
    assert qtype("When did it happen?", uncertain) is QuestionType.WHEN
    assert qtype("In 2011, what airport was busiest?", uncertain) is QuestionType.WHAT
    assert qtype("Name a primary color.", uncertain) is QuestionType.WHAT
    assert qtype("WHO? Where, or which?", uncertain) is QuestionType.WHO  # earliest wins
    confident = np.zeros(7)
    confident[QuestionType.WHERE.code] = 0.9
    confident[QuestionType.WHAT.code] = 0.1
    # confident extractor wins even when the text says otherwise
    assert qtype("When did it happen?", confident) is QuestionType.WHERE


def test_one_triple_vectorizer_after_train_and_load(seed_model, seed_bundle_path):
    assert seed_model.rule_vectorizer is seed_model.judge_vectorizer
    loaded = PedantsModel.load(seed_bundle_path)
    assert loaded.rule_vectorizer is loaded.judge_vectorizer
    bundle = json.loads(seed_bundle_path.read_text())
    # bundle format 1 still stores it under both keys
    assert bundle["rule_extractor"]["vectorizer"] == bundle["final_judge"]["vectorizer"]


def test_differing_vectorizers_rejected(seed_model):
    rule = seed_model.rule_vectorizer
    idf = list(rule.idf)
    idf[0] *= 2
    other = TfidfModel(dict(rule.vocabulary), idf, rule.doc_count)
    with pytest.raises(ValueError, match="vectorizers differ"):
        dataclasses.replace(seed_model, judge_vectorizer=other)
    data = seed_model.to_dict()
    data["final_judge"]["vectorizer"] = other.to_dict()
    with pytest.raises(ValueError, match="vectorizers differ"):
        PedantsModel.from_dict(data)
    # an equal copy is replaced by the rule extractor's object
    copy = TfidfModel.from_dict(rule.to_dict())
    model = dataclasses.replace(seed_model, judge_vectorizer=copy)
    assert model.judge_vectorizer is model.rule_vectorizer is rule


def test_each_pair_and_triple_encoded_once(seed_corpus, monkeypatch):
    calls = []  # the vectorizer of each document encoded, in order
    encode = vectorizer._encode

    def counted(*segments):
        segments = [(list(docs), model) for docs, model in segments]
        calls.extend(model for docs, model in segments for _ in docs)
        return encode(*segments)

    monkeypatch.setattr(vectorizer, "_encode", counted)
    model = train_pedants(seed_corpus)
    assert len(calls) == 2 * len(seed_corpus)
    calls.clear()
    for ex in seed_corpus:
        judge(ex, model)
    assert len(calls) == 2 * len(seed_corpus)
    assert calls[0] is model.type_vectorizer and calls[1] is model.judge_vectorizer


def test_training_builds_no_sparse_vector(seed_corpus, seed_model, monkeypatch):
    # the trainer reads the encoders' arrays as they are
    def refuse(self):
        raise AssertionError("training built a SparseVector")

    monkeypatch.setattr(SparseVector, "__post_init__", refuse)
    assert train_pedants(seed_corpus).to_json() == seed_model.to_json()


def _own_kernel_scores(weights, bias, vectors):
    """Scores of SparseVectors under one model's own kernel, one row each."""
    batch = linear._flatten([(v.indices, v.values) for v in vectors])
    return linear._scores(linear._kernel_weights(weights, bias), batch)


@pytest.mark.parametrize("bundle", ["seed_model", "sparse_model"])
def test_stacked_kernel_scores_like_a_kernel_per_model(bundle, request, seed_corpus):
    # one gather of a block's pairs and triples against the stacked kernel
    # gives the type extractor's, the rule extractor's and the judge's text
    # scores the bits of each scored alone; the two vocabularies differ in
    # size in both bundles, so the triples' columns start past the pairs'
    model = request.getfixturevalue(bundle)
    assert model.type_vectorizer.dimension != model.judge_vectorizer.dimension
    examples = [*seed_corpus, EMPTY_BOTH, EMPTY_PAIR, EMPTY_TRIPLE]
    prepared = [_prepare(ex) for ex in examples]
    _, scores = _score(prepared, model)
    n = len(examples)
    assert scores.shape == (2 * n, N_RULES + 2)
    rows = [
        (ex.question, ex.references[p.ref_index], ex.candidate)
        for ex, p in zip(examples, prepared)
    ]
    pairs = [encode_pair(q, a, model.type_vectorizer) for q, a, _ in rows]
    triples = [encode_triple(q, a, c, model.judge_vectorizer) for q, a, c in rows]
    type_model, rule_model, judge_model = model.type_model, model.rule_model, model.judge_model
    expected = [
        (scores[:n, :N_TYPES], _own_kernel_scores(type_model.weights, type_model.bias, pairs)),
        (scores[n:, :N_RULES], _own_kernel_scores(rule_model.weights, rule_model.bias, triples)),
        (
            scores[n:, N_RULES:],
            _own_kernel_scores(judge_model.weights[:, DENSE_DIM:], judge_model.bias, triples),
        ),
    ]
    for got, alone in expected:
        assert got.shape == alone.shape
        assert got.tobytes() == alone.tobytes()
    assert not scores[:n, N_TYPES:].any()  # the pairs' judge columns are zero


def test_lazy_scale_trainer_judges_like_the_eager_oracle(seed_corpus, seed_model, monkeypatch):
    # the seed bundle trained by linear.train and by the eager-decay oracle
    # give the same verdicts on its own corpus
    def eager(encodings, labels, dim, n_classes, seed):
        examples = [(SparseVector(dim, idx, vals), y) for (idx, vals), y in zip(encodings, labels)]
        return reference_train(examples, seed=seed, n_classes=n_classes)

    monkeypatch.setattr(linear, "train", eager)
    oracle = train_pedants(seed_corpus)
    for ours, theirs in zip(
        judge_batch(seed_corpus, seed_model), judge_batch(seed_corpus, oracle), strict=True
    ):
        assert ours.correct == theirs.correct
        assert ours.predicted_rule == theirs.predicted_rule
        assert ours.predicted_type == theirs.predicted_type
        assert ours.chosen_reference == theirs.chosen_reference
        assert ours.confidence == pytest.approx(theirs.confidence, abs=1e-12, rel=0)
