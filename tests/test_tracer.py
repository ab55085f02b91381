"""The benchmark's tracer (perfbench/spans.py) wraps pedants functions by
name; a traced train, judge and eval on the seed corpus must still run and
trace normalization, and a traced train must still count its SGD steps and
loss passes, so removing a wrapped name cannot go unnoticed."""

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


def _normalize_spans(dump):
    name_id = dump["names"].index("textnorm.normalize")
    return dump["spans"][0::5].count(name_id)


def test_traced_train_judge_eval_run_and_trace_normalize(tmp_path):
    bundle = str(tmp_path / "bundle.json")
    train = _traced(tmp_path, "train", ["train", "--out", bundle])
    assert _normalize_spans(train) > 0
    # three fits, each with a loss pass before its first epoch and after each
    assert train["counts"]["sgd_steps"] > 0
    assert train["counts"]["loss_passes"] >= 6
    assert any(name.startswith("linear.train.") for name in train["names"])
    judge = ["judge", "--model", bundle, "--dataset", str(SEED_CORPUS),
             "--out", str(tmp_path / "judged.jsonl")]
    assert _normalize_spans(_traced(tmp_path, "judge", judge)) > 0
    evaluate = ["eval", "--model", bundle, "--dataset", str(SEED_CORPUS)]
    assert _normalize_spans(_traced(tmp_path, "eval", evaluate)) > 0
