"""Which layers each command loads, and what the package exports.

The string metrics, pre-judged eval, sweep and rank --rates never touch an
array, so they must run without importing numpy; ``import pedants`` loads no
submodule, and each exported name loads its module on first access. Judging
with a bundle loads neither training's hashlib nor the traceback module that
only a bug needs, and judging and training leave harness, which only eval,
rank and sweep use, unloaded. The record layer, io, imports no pedants
module but errors.
"""

import ast
import hashlib
import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pedants

# Every name the package exports, under the module that defines it.
EXPORTS = {
    "errors": [
        "DatasetError", "EmptyCorpus", "EmptyRecords", "EmptyReferences", "MissingAnnotations",
        "OutOfRangeScore", "PedantsError", "SingleClassCorpus", "TooFewModels",
    ],
    "harness": [
        "ConfusionCounts", "RankingInput", "likert_to_binary", "pairwise_ranking_accuracy",
        "threshold_sweep",
    ],
    "io": ["QAExample", "QuestionType", "RuleLabel"],
    "metrics": ["PrfScores", "best_reference", "exact_match", "token_prf"],
    "textnorm": ["EM_POLICY", "PEDANTS_POLICY", "POLICY_PRESETS", "NormPolicy", "normalize"],
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


def test_judging_loads_neither_hashlib_nor_traceback(files, seed_bundle_path, seed_corpus):
    one = files["plain"].with_name("one.jsonl")
    one.write_text(json.dumps(ROWS[0]) + "\n")
    argv = ["judge", "--metric", "pedants", "--model", seed_bundle_path,
            "--dataset", one, "--out", files["out"]]
    loaded = (
        "import sys; from pedants.cli import main; rc = main(sys.argv[1:]); "
        "print(rc, [m for m in ('hashlib', 'traceback') if m in sys.modules])"
    )
    assert _fresh(loaded, *argv) == "0 []"
    # training, the one user of hashlib, still fingerprints the corpus
    digest = hashlib.sha256()
    for example in seed_corpus:
        digest.update(json.dumps(example.to_dict(), sort_keys=True).encode("utf-8") + b"\n")
    bundle = json.loads(seed_bundle_path.read_text())
    assert bundle["fingerprint"]["corpus_sha256"] == digest.hexdigest()


def test_import_loads_no_submodule():
    code = "import sys, pedants; print([m for m in sys.modules if m.startswith('pedants.')])"
    assert _fresh(code) == "[]"


@pytest.mark.parametrize("command", ["judge", "train"])
def test_judge_and_train_leave_harness_unloaded(command, files, seed_bundle_path):
    one = files["plain"].with_name("one.jsonl")
    one.write_text(json.dumps(ROWS[0]) + "\n")
    argv = {
        "judge": ["judge", "--metric", "pedants", "--model", seed_bundle_path, "--dataset", one],
        "train": ["train"],
    }[command]
    loaded = (
        "import sys; from pedants.cli import main; rc = main(sys.argv[1:]); "
        "print(rc, 'pedants.harness' in sys.modules)"
    )
    assert _fresh(loaded, *argv, "--out", files["out"]) == "0 False"


def test_io_imports_no_pedants_module_but_errors():
    tree = ast.parse(Path(pedants.__file__).with_name("io.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level:  # from .x import y, from . import x
            modules = [f"pedants.{name}" for name in
                       ([node.module] if node.module else [a.name for a in node.names])]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module]
        else:
            continue
        imported.update(m for m in modules if m.split(".")[0] == "pedants")
    assert imported == {"pedants.errors"}


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


def test_package_version_is_the_project_version():
    # a regex, not tomllib, which Python 3.10 lacks
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    [version] = re.findall(r'(?m)^version = "([^"]*)"$', text)
    assert pedants.__version__ == version
