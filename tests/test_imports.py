"""Which layers each command loads, and what the package exports.

The string metrics, pre-judged eval, sweep and rank --rates never touch an
array, so they must run without importing numpy; the package's numpy-backed
names load on first access.
"""

import importlib
import json
import subprocess
import sys

import pytest

import pedants

# Every name the package exports, under the module that defines it.
EXPORTS = {
    "errors": [
        "DatasetError", "EmptyCorpus", "EmptyRecords", "EmptyReferences", "MissingAnnotations",
        "OutOfRangeScore", "PedantsError", "SingleClassCorpus", "TooFewModels",
    ],
    "harness": [
        "ConfusionCounts", "RankingInput", "SweepRow", "likert_to_binary",
        "pairwise_ranking_accuracy", "threshold_sweep",
    ],
    "io": ["QAExample", "QuestionType", "RuleLabel"],
    "metrics": [
        "PrfScores", "Threshold", "best_reference", "exact_match", "threshold_judge", "token_prf",
    ],
    "textnorm": [
        "EM_POLICY", "PEDANTS_POLICY", "POLICY_PRESETS", "NormPolicy", "normalize", "tokenize",
    ],
    "linear": ["LinearModel", "predict_proba"],
    "pipeline": [
        "Judgment", "PedantsModel", "assemble_features", "judge", "judge_batch", "train_pedants",
        "train_rule_extractor", "train_type_extractor",
    ],
    "vectorizer": ["TfidfModel", "encode_pair", "encode_triple"],
}

ROWS = [
    {"question": "Who wrote Hamlet?", "references": ["William Shakespeare"],
     "candidate": "Shakespeare", "label": 1},
    {"question": "What is the capital of Australia?", "references": ["Canberra"],
     "candidate": "Sydney", "label": 0},
]

# Runs one command in a new interpreter, then prints its exit code and
# whether numpy was imported.
RUN = (
    "import sys; from pedants.cli import main; rc = main(sys.argv[1:]); "
    "print(rc, 'numpy' in sys.modules)"
)


def _fresh(code: str, *argv) -> str:
    """The last line a new interpreter running ``code`` prints."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, argv)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.fixture()
def files(tmp_path):
    plain = tmp_path / "plain.jsonl"
    plain.write_text("".join(json.dumps(r) + "\n" for r in ROWS))
    judged = tmp_path / "judged.jsonl"
    judged.write_text("".join(
        json.dumps(dict(r, verdicts={"em": False, "bertscore": True})) + "\n" for r in ROWS
    ))
    rates = tmp_path / "rates.json"
    rates.write_text(json.dumps({
        "human": {"m1": 0.9, "m2": 0.2, "m3": 0.5},
        "metrics": {"em": {"m1": 0.8, "m2": 0.1, "m3": 0.6}},
    }))
    return {"plain": plain, "judged": judged, "rates": rates, "out": tmp_path / "out"}


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--metric", "em,f1", "--dataset", "plain"],
        ["eval", "--metric", "em,f1", "--dataset", "plain", "--workers", "2"],
        ["eval", "--metric", "em,f1", "--dataset", "judged"],
        ["eval", "--dataset", "judged"],
        ["judge", "--metric", "f1", "--dataset", "plain", "--out", "out"],
        ["judge", "--metric", "em", "--dataset", "plain", "--out", "out"],
        ["sweep", "--dataset", "plain", "--out", "out"],
        ["rank", "--rates", "rates", "--out", "out"],
    ],
    ids=lambda argv: "-".join(a.lstrip("-") for a in argv if a not in ("--dataset", "--out")),
)
def test_string_commands_run_without_numpy(argv, files):
    assert _fresh(RUN, *(files.get(a, a) for a in argv)) == "0 False"


def test_pedants_metric_loads_the_model(files, seed_model, seed_bundle_path):
    argv = ["judge", "--metric", "pedants", "--model", seed_bundle_path,
            "--dataset", files["plain"], "--out", files["out"]]
    assert _fresh(RUN, *argv) == "0 True"
    judged = [json.loads(line) for line in files["out"].read_text().splitlines()[1:]]
    examples = [pedants.QAExample.from_dict(r) for r in ROWS]
    assert judged == [pedants.judge(ex, seed_model).to_dict() for ex in examples]


def test_exports_resolve_to_their_defining_modules():
    assert sorted(pedants.__all__) == sorted(n for names in EXPORTS.values() for n in names)
    for module, names in EXPORTS.items():
        defining = importlib.import_module(f"pedants.{module}")
        for name in names:
            assert getattr(pedants, name) is getattr(defining, name), name


def test_star_import_dir_and_unknown_names():
    namespace = {}
    exec("from pedants import *", namespace)
    assert set(pedants.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_name"):
        pedants.no_such_name
    from pedants import linear

    assert linear is importlib.import_module("pedants.linear")
    assert linear.DEFAULT_SEED == 668
    # in a new interpreter dir() lists the names that load on access, and
    # loads none of them
    listed = _fresh(
        "import sys, pedants; "
        "print(sorted(set(pedants.__all__) - set(dir(pedants))), 'numpy' in sys.modules)"
    )
    assert listed == "[] False"
