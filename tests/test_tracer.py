"""The benchmark's tracer (perfbench/spans.py) wraps pedants functions by
name; a traced train, judge, eval and rank on the seed corpus must still run
and trace normalization, every command that reads a dataset must read it
through a wrapped io reader, and a traced train must still count its SGD
steps and loss passes, so removing or bypassing a wrapped name cannot go
unnoticed."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED_CORPUS = ROOT / "src" / "pedants" / "data" / "seed_corpus.jsonl"


def _traced(tmp_path, name, args):
    spans = tmp_path / f"{name}.spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "spans.py"), str(spans), "--", *args],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(spans.read_text())


def _read_spans(dump):
    ids = {i for i, name in enumerate(dump["names"]) if name.startswith("io.read.")}
    return sum(name_id in ids for name_id in dump["spans"][0::5])


def _normalize_spans(dump):
    name_id = dump["names"].index("textnorm.normalize")
    return dump["spans"][0::5].count(name_id)


def test_traced_train_judge_eval_run_and_trace_normalize(tmp_path):
    bundle, seed = str(tmp_path / "bundle.json"), str(SEED_CORPUS)
    train = _traced(tmp_path, "train", ["train", "--out", bundle])
    assert _normalize_spans(train) > 0
    # three fits, each with a loss pass before its first epoch and after each
    assert train["counts"]["sgd_steps"] > 0
    assert train["counts"]["loss_passes"] >= 6
    assert any(name.startswith("linear.train.") for name in train["names"])
    judge = ["judge", "--model", bundle, "--dataset", seed, "--out", str(tmp_path / "judged.jsonl")]
    assert _normalize_spans(_traced(tmp_path, "judge", judge)) > 0
    evaluate = _traced(tmp_path, "eval", ["eval", "--model", bundle, "--dataset", seed])
    assert _normalize_spans(evaluate) > 0
    assert _read_spans(evaluate) > 0

    # the commands that read labeled records read them through the io layer
    ranked = tmp_path / "ranked.jsonl"
    records = [json.loads(line) for line in SEED_CORPUS.read_text().splitlines()[1:]]
    ranked.write_text("".join(json.dumps(dict(r, model_id=f"m{i % 3}")) + "\n"
                              for i, r in enumerate(records)))
    for name, args in (
        ("train-corpus", ["train", "--corpus", seed, "--out", str(tmp_path / "corpus.json")]),
        ("rank", ["rank", "--model", bundle, "--dataset", str(ranked)]),
    ):
        assert _read_spans(_traced(tmp_path, name, args)) > 0, name
