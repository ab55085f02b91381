import dataclasses
import json
import pickle

import numpy as np
import pytest

from oracles import batch_of, reference_train
from pedants.errors import EmptyReferences, MissingAnnotations
from pedants.harness import ConfusionCounts
from pedants.metrics import best_reference, exact_match
from pedants.pipeline import (
    DENSE_DIM,
    N_RULES,
    N_TYPES,
    PedantsModel,
    QAExample,
    QuestionType,
    RuleLabel,
    _judge_block,
    _prefix,
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
from pedants.vectorizer import Batch, TfidfModel, encode_pair, encode_triple
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
    # all 14 codes round-trip, and pickling (pool blocks carry members) keeps each
    members = [*QuestionType, *RuleLabel]
    assert [type(m).from_code(m.code) for m in members] == members
    assert all(pickle.loads(pickle.dumps(m)) is m for m in members)
    assert QuestionType("when") is QuestionType.WHEN and RuleLabel("R2") is RuleLabel.R2


def test_qaexample_requires_references():
    with pytest.raises(EmptyReferences):
        QAExample(question="q", references=(), candidate="c")


def test_qaexample_rejects_a_bare_string_of_references():
    # a string is a sequence of its characters: "Joe Biden" is one
    # reference, not nine
    with pytest.raises(ValueError, match="not one string"):
        QAExample(question="q", references="Joe Biden", candidate="e")


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
    pairs = [
        vectorizer._pair(tokens(q, PEDANTS_POLICY), tokens(a, PEDANTS_POLICY))
        for q, a, _ in examples
    ]
    tfidf, model, block = train_type_extractor(pairs, [qtype for *_, qtype in examples])
    assert len(block) == len(examples)
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
    triples = [
        vectorizer._triple(
            vectorizer._pair(tokens(q, PEDANTS_POLICY), tokens(a, PEDANTS_POLICY)),
            tokens(cand, PEDANTS_POLICY),
        )
        for q, a, cand, _ in examples
    ]
    tfidf, model, block = train_rule_extractor(triples, [rule for *_, rule in examples])
    assert len(block) == len(examples)
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
    dim = DENSE_DIM + seed_model.judge_vectorizer.dimension
    assert type(x) is Batch and x.starts.tolist() == [0]
    assert x.indices[-1] == dim and x.values[-1] == 1.0  # the bias entry
    ((indices, values),) = x.rows()
    # the dense prefix: 7 type probs and 7 rule probs, each block positive
    # and summing to 1, then f1, p, r
    assert indices[:DENSE_DIM].tolist() == list(range(DENSE_DIM))
    for probs in (values[:7], values[7:14]):
        assert (probs > 0).all()
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
    assert values[14:DENSE_DIM].tolist() == [pytest.approx(0.5)] * 3
    # then the triple's encoding, shifted past the prefix
    text = encode_triple(Q1.question, Q1.references[0], Q1.candidate, seed_model.judge_vectorizer)
    ((text_indices, text_values),) = text.rows()
    assert indices[DENSE_DIM:].tolist() == (text_indices + DENSE_DIM).tolist()
    assert values[DENSE_DIM:].tolist() == text_values.tolist()
    # the bias column is the same across examples for a fixed model
    assert assemble_features(Q2, seed_model).indices[-1] == dim


def test_per_call_surface_composes_to_the_batched_judge(seed_model, seed_corpus):
    # on every seed-corpus row, predict_proba of assemble_features gives the
    # judge's confidence, and the row's first 14 values are the type and
    # rule probabilities predict_proba gives on encode_pair/encode_triple
    model = seed_model
    for ex, judged in zip(seed_corpus, judge_batch(seed_corpus, model), strict=True):
        x = assemble_features(ex, model)
        probs = linear.predict_proba(model.judge_model, x)
        assert probs.shape == (1, 2)
        assert probs[0, 1] == pytest.approx(judged.confidence, abs=1e-12, rel=0)
        q, ref = ex.question, ex.references[judged.chosen_reference]
        pair = encode_pair(q, ref, model.type_vectorizer)
        triple = encode_triple(q, ref, ex.candidate, model.rule_vectorizer)
        type_probs = linear.predict_proba(model.type_model, pair)[0]
        rule_probs = linear.predict_proba(model.rule_model, triple)[0]
        ((indices, values),) = x.rows()
        assert indices[:14].tolist() == list(range(14))
        assert values[:14] == pytest.approx([*type_probs, *rule_probs], abs=1e-12, rel=0)


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


def test_held_out_agreement_with_humans(seed_corpus):
    # Row i is held out in fold i mod 5 and judged by a bundle trained with
    # the default seed on the other folds; em and f1 >= 0.5 read the row
    # under the em preset, as the CLI's defaults do. 57 rows cannot
    # separate a difference of one or two rows: these counts are pinned so
    # that a change to them is seen, not as a ranking of the metrics.
    k = 5
    pedants = [None] * len(seed_corpus)
    for fold in range(k):
        held = range(fold, len(seed_corpus), k)
        model = train_pedants([ex for i, ex in enumerate(seed_corpus) if i % k != fold])
        for i, judgment in zip(held, judge_batch([seed_corpus[i] for i in held], model)):
            pedants[i] = judgment.correct
    counts = {}  # (metric, "all", rule or type) -> its confusion counts
    for ex, verdict in zip(seed_corpus, pedants):
        verdicts = {
            "pedants": verdict,
            "em": exact_match(ex.candidate, ex.references),
            "f1": best_reference(ex.candidate, ex.references)[1].f1 >= 0.5,
        }
        for name, correct in verdicts.items():
            for group in ("all", ex.rule.value, ex.qtype.value):
                counts.setdefault((name, group), ConfusionCounts()).update(ex.human_label, correct)
    agreed = {key: c.tp + c.tn for key, c in counts.items()}
    assert counts["pedants", "all"].total == len(seed_corpus) == 57
    assert [agreed[name, "all"] for name in ("pedants", "em", "f1")] == [35, 34, 37]
    rules = [f"R{n}" for n in range(1, 8)]
    assert [counts["em", rule].total for rule in rules] == [8, 8, 8, 9, 10, 6, 8]
    assert [agreed["pedants", rule] for rule in rules] == [5, 7, 5, 6, 5, 6, 1]
    assert [agreed["em", rule] for rule in rules] == [4, 8, 5, 4, 5, 6, 2]
    assert [agreed["f1", rule] for rule in rules] == [6, 6, 6, 5, 6, 6, 2]
    types = [t.value for t in QuestionType]  # who, why, how, what, when, where, which
    assert [counts["em", qtype].total for qtype in types] == [7, 2, 6, 19, 6, 6, 11]
    assert [agreed["pedants", qtype] for qtype in types] == [6, 1, 4, 12, 3, 4, 5]
    assert [agreed["em", qtype] for qtype in types] == [4, 1, 4, 11, 5, 4, 5]
    assert [agreed["f1", qtype] for qtype in types] == [7, 1, 4, 13, 3, 4, 5]


def _saved(model, path) -> bytes:
    """The bytes ``save`` writes for a model."""
    model.save(path)
    return path.read_bytes()


def test_training_is_byte_deterministic(seed_corpus, tmp_path):
    a = _saved(train_pedants(seed_corpus), tmp_path / "a.json")
    b = _saved(train_pedants(seed_corpus), tmp_path / "b.json")
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
    saved = _saved(seed_model, path)
    assert saved == (json.dumps(seed_model.to_dict(), sort_keys=True, separators=(",", ":"))
                     + "\n").encode()
    loaded = PedantsModel.load(path)
    assert _saved(loaded, tmp_path / "again.json") == saved
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
    other = TfidfModel(rule.tokens, idf, rule.doc_count)
    data = seed_model.to_dict()
    data["final_judge"]["vectorizer"] = other.to_dict()
    with pytest.raises(ValueError, match="vectorizers differ"):
        PedantsModel.from_dict(data)


def test_every_constructible_model_saves_a_loadable_bundle(seed_model, tmp_path):
    # a model holds each fitted fact once, so a variant either fails to
    # construct or saves a bundle that loads and saves again to its bytes
    variants = [
        {"seed": 1},  # its fingerprint states 668
        {"seed": 668},
        {"seed": 1, "fingerprint": {}},
        {"fingerprint": {}},
        {"fingerprint": {"seed": 5}},
        {"fingerprint": {"seed": 668, "x": 1}},
        {"seed": -1, "fingerprint": {}},  # no bundle states a negative seed
    ]
    path = tmp_path / "bundle.json"
    loaded = []
    for changes in variants:
        try:
            model = dataclasses.replace(seed_model, **changes)
        except ValueError:
            continue
        model.save(path)
        saved = path.read_bytes()
        PedantsModel.load(path).save(path)
        assert path.read_bytes() == saved
        loaded.append(changes)
    assert loaded == [variants[i] for i in (1, 2, 3, 5)]
    model = dataclasses.replace(seed_model)
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.seed = 1
    assert model.seed == 668



def _nan_weight(model):
    weights = model.weights.copy()
    weights[0, 0] = np.nan
    return linear.LinearModel(weights, model.bias)


@pytest.mark.parametrize(
    "section, bad, message",
    [
        ("judge_model", lambda m: linear.LinearModel(m.weights, np.zeros(3)),
         "model has 3 biases, expected 2"),
        ("judge_model", _nan_weight, "model weights and biases must be finite"),
        ("rule_vectorizer", lambda v: TfidfModel(v.tokens, [-1.0, *v.idf[1:]], v.doc_count),
         "idf weights must be finite and positive"),
        ("type_vectorizer", lambda v: TfidfModel(v.tokens, [1.0], v.doc_count),
         "vectorizer has 1 idf weights for 314 tokens"),
        # two tokens on one column: the second token is the first again
        ("type_vectorizer",
         lambda v: TfidfModel((v.tokens[0], *v.tokens[:-1]), v.idf, v.doc_count),
         "vectorizer vocabulary has duplicate tokens"),
        ("rule_vectorizer", lambda v: TfidfModel(v.tokens, v.idf, -1),
         "malformed vectorizer doc_count: must be an integer of at least 0, got -1"),
        ("type_vectorizer", lambda v: TfidfModel(v.tokens, v.idf, True),
         "malformed vectorizer doc_count: must be an integer of at least 0, got True"),
        ("type_vectorizer", lambda v: TfidfModel((5, *v.tokens[1:]), v.idf, v.doc_count),
         "vectorizer vocabulary must hold strings only"),
        # an integer weight saves as 2 and loads and saves again as 2.0
        ("rule_vectorizer", lambda v: TfidfModel(v.tokens, [2, *v.idf[1:]], v.doc_count),
         "idf weights must be finite and positive"),
        # a 1-D model's to_dict raised IndexError
        ("judge_model", lambda m: linear.LinearModel(np.zeros(3), np.zeros(3)),
         "model weights must be 2-D, got 1-D"),
    ],
    ids=[
        "bias-of-3-in-binary-judge",
        "nan-weight",
        "negative-idf",
        "one-idf-for-314-tokens",
        "two-tokens-on-one-column",
        "negative-doc-count",
        "bool-doc-count",
        "int-token",
        "int-idf",
        "1-d-weights",
    ],
)
def test_a_model_load_would_reject_does_not_construct(seed_model, section, bad, message):
    # each of these once constructed, and then saved a bundle that load
    # rejected with this message, saved other bytes after a load, or could
    # not save; the models' constructors now check what load checked
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(seed_model, **{section: bad(getattr(seed_model, section))})

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


def test_fits_train_on_the_encoded_blocks(seed_corpus, seed_model, monkeypatch, tmp_path):
    # the type and rule fits train on the very blocks the encoder returned,
    # and the judge's fit on one block of a row per example
    encoded, trained = [], []
    encode, train = vectorizer._encode, linear.train

    def recorded_encode(*segments):
        encoded.append(encode(*segments))
        return encoded[-1]

    def recorded_train(batch, *args):
        trained.append(batch)
        return train(batch, *args)

    monkeypatch.setattr(vectorizer, "_encode", recorded_encode)
    monkeypatch.setattr(linear, "train", recorded_train)
    retrained = _saved(train_pedants(seed_corpus), tmp_path / "retrained.json")
    assert retrained == _saved(seed_model, tmp_path / "seed.json")
    assert len(encoded) == 2 and len(trained) == 3
    assert trained[0] is encoded[0] and trained[1] is encoded[1]
    assert type(trained[2]) is Batch and len(trained[2]) == len(seed_corpus)


def test_judge_block_equals_row_by_row_inputs(seed_model, seed_corpus):
    # each row of the judge's block is its dense prefix's nonzero entries,
    # then its triple's entries shifted past the prefix, then the bias; the
    # first and last rows keep no prefix entry, and f1 = 0 drops entries
    examples = [*seed_corpus, EMPTY_BOTH, EMPTY_PAIR, EMPTY_TRIPLE]
    prepared = [_prepare(ex) for ex in examples]
    _, scores = _score(prepared, seed_model)
    prefix = _prefix(scores, [p.scores for p in prepared])
    prefix[[0, -1]] = 0.0
    assert (prefix[1:-1, DENSE_DIM - 3] == 0).any()
    docs = [
        vectorizer._triple(vectorizer._pair(p.question, p.references[p.ref_index]), p.candidate)
        for p in prepared
    ]
    triples = vectorizer._encode((docs, seed_model.judge_vectorizer))
    expected = []
    for row, (idx, vals) in zip(prefix.tolist(), triples.rows(), strict=True):
        cols = [j for j, x in enumerate(row) if x != 0]
        expected.append(([*cols, *(idx + DENSE_DIM).tolist()], [row[j] for j in cols] + [*vals]))
    want = batch_of(expected, DENSE_DIM + seed_model.judge_vectorizer.dimension)
    got = _judge_block(prefix, triples)
    for name in ("indices", "values", "starts"):
        assert getattr(got, name).dtype == getattr(want, name).dtype
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def _own_kernel_scores(weights, bias, batches):
    """Scores of one-row batches under one model's own kernel, one row each."""
    batch = batch_of([row for b in batches for row in b.rows()], weights.shape[1])
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
    def eager(batch, labels, n_classes, seed):
        examples = list(zip(batch.rows(), labels, strict=True))
        dim = int(batch.indices[-1])  # the bias column closes the batch
        return reference_train(examples, dim, seed=seed, n_classes=n_classes)

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
