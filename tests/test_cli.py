import gc
import importlib
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import time
import weakref
from importlib import resources
from pathlib import Path

import pytest

from pedants.cli import POOL_BATCH, _map_ordered, build_parser, main
from pedants.harness import threshold_sweep
from pedants.errors import SingleClassCorpus
from pedants.io import load_seed_corpus, read_examples
from pedants.metrics import best_reference
from pedants.pipeline import PedantsModel, QAExample, judge, train_pedants
from pedants.textnorm import POLICY_PRESETS, normalize

ROWS = [
    {
        "question": "Who is the president of the US in 2023?",
        "references": ["Joe Biden"],
        "candidate": "Joseph Biden",
        "label": 1,
        "model_id": "m1",
    },
    {
        "question": "When did Joe Biden become the president of the US?",
        "references": ["Jan 20, 2021"],
        "candidate": "2021",
        "label": 0,
        "model_id": "m1",
    },
    {
        "question": "Where is the Eiffel Tower located?",
        "references": ["Paris, France"],
        "candidate": "Paris",
        "label": 1,
        "model_id": "m2",
    },
    {
        "question": "What is the capital of Australia?",
        "references": ["Canberra"],
        "candidate": "Sydney",
        "label": 0,
        "model_id": "m2",
    },
]

SEED_CORPUS = Path(resources.files("pedants") / "data" / "seed_corpus.jsonl")


@pytest.fixture()
def dataset(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in ROWS) + "\n", encoding="utf-8")
    return path


def _seed_rows(n):
    """n labeled records cycling through the seed corpus, each pass with
    one more filler word on the candidate, so the blocks differ."""
    seed = load_seed_corpus()
    rows = []
    for i in range(n):
        row = seed[i % len(seed)].to_dict()
        row["candidate"] += " indeed" * (i // len(seed))
        rows.append(row)
    return rows


@pytest.fixture()
def many(tmp_path):
    """Records past two blocks, so a --workers 2 run starts a pool."""
    path = tmp_path / "many.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in _seed_rows(2 * POOL_BATCH + 5)))
    return path


@pytest.fixture()
def many_bad(tmp_path, many):
    """``many`` with a bad line in its first block and one in its third."""
    lines = many.read_text().splitlines()
    lines.insert(3, "{broken")
    lines.insert(2 * POOL_BATCH + 2, "[1, 2]")
    path = tmp_path / "many-bad.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    return path


def _judgment_lines(path):
    return [l for l in path.read_text().splitlines() if not l.startswith("#")]


def test_train_writes_bundle(tmp_path, capsys):
    out = tmp_path / "bundle.json"
    assert main(["train", "--out", str(out)]) == 0
    assert out.exists()
    assert "57 examples" in capsys.readouterr().out


def test_judge_single_line_file(tmp_path, seed_bundle_path):
    data = tmp_path / "one.jsonl"
    data.write_text(json.dumps(ROWS[0]) + "\n")
    out = tmp_path / "judged.jsonl"
    rc = main(
        ["judge", "--dataset", str(data), "--model", str(seed_bundle_path), "--out", str(out)]
    )
    assert rc == 0
    lines = _judgment_lines(out)
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["correct"] is True
    assert record["rule"] == "R1"


def test_judge_byte_identical_reruns(tmp_path, dataset, seed_bundle_path):
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (out1, out2):
        assert (
            main(
                [
                    "judge",
                    "--dataset",
                    str(dataset),
                    "--model",
                    str(seed_bundle_path),
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
    assert out1.read_bytes() == out2.read_bytes()


# macOS starts processes with spawn, and Python 3.14 makes forkserver the
# Linux default; under both, each worker unpickles the command's block
# object, its model included, and each block's results come back pickled,
# a bad line's DatasetError among them
START_METHODS = ["fork", "spawn", "forkserver"]


@pytest.mark.parametrize("start", START_METHODS)
def test_judge_workers_preserve_output(
    start, tmp_path, dataset, many, many_bad, seed_bundle_path, monkeypatch, capsys
):
    # one block is judged in this process; past one, a pool judges them
    monkeypatch.setattr(multiprocessing, "Pool", multiprocessing.get_context(start).Pool)
    serial, parallel = tmp_path / "serial.jsonl", tmp_path / "parallel.jsonl"
    for data, skip in ((dataset, []), (many, []), (many_bad, ["--skip-bad"])):
        base = ["judge", "--dataset", str(data), "--model", str(seed_bundle_path), *skip]
        assert main(base + ["--out", str(serial)]) == 0
        skipped = capsys.readouterr().err.splitlines()[:-1]  # the timing line aside
        assert main(base + ["--out", str(parallel), "--workers", "2"]) == 0
        assert capsys.readouterr().err.splitlines()[:-1] == skipped
        assert serial.read_bytes() == parallel.read_bytes()
    assert [line.split(": ")[1] for line in skipped] == [f"{many_bad}:4", f"{many_bad}:515"]


def test_judge_em_and_f1_need_no_model(tmp_path, dataset, capsys):
    out = tmp_path / "em.jsonl"
    assert main(["judge", "--dataset", str(dataset), "--metric", "em", "--out", str(out)]) == 0
    verdicts = [json.loads(l)["correct"] for l in _judgment_lines(out)]
    assert verdicts == [False, False, False, False]

    out = tmp_path / "f1.jsonl"
    rc = main(
        [
            "judge",
            "--dataset",
            str(dataset),
            "--metric",
            "f1",
            "--threshold",
            "0.3",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    records = [json.loads(l) for l in _judgment_lines(out)]
    assert [r["correct"] for r in records] == [True, True, True, False]
    assert records[0]["threshold"] == 0.3


def test_judge_to_stdout(dataset, seed_bundle_path, capsys):
    assert main(["judge", "--dataset", str(dataset), "--model", str(seed_bundle_path)]) == 0
    captured = capsys.readouterr()
    lines = [l for l in captured.out.splitlines() if not l.startswith("#")]
    assert len(lines) == len(ROWS)
    assert "judged 4 examples" in captured.err


def test_model_env_var_default(dataset, seed_bundle_path, monkeypatch, capsys):
    monkeypatch.setenv("PEDANTS_MODEL", str(seed_bundle_path))
    assert main(["judge", "--dataset", str(dataset)]) == 0


def test_missing_model_is_validation_error(dataset, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("PEDANTS_MODEL", raising=False)
    assert main(["judge", "--dataset", str(dataset)]) == 1
    assert "model" in capsys.readouterr().err
    absent = tmp_path / "absent.json"
    assert main(["judge", "--dataset", str(dataset), "--model", str(absent)]) == 1
    assert capsys.readouterr().err == f"pedants: error: model bundle not found: {absent}\n"


def test_eval_reports(tmp_path, dataset, seed_bundle_path, capsys):
    out_dir = tmp_path / "reports"
    rc = main(
        [
            "eval",
            "--dataset",
            str(dataset),
            "--model",
            str(seed_bundle_path),
            "--out",
            str(out_dir),
        ]
    )
    assert rc == 0
    rows = json.loads((out_dir / "report.json").read_text())
    by_metric = {row["metric"]: row for row in rows}
    assert set(by_metric) == {"em", "f1", "pedants"}
    assert by_metric["pedants"]["accuracy"] == 1.0
    assert (out_dir / "report.csv").read_text().startswith("metric,")


@pytest.mark.parametrize("start", START_METHODS)
def test_eval_workers_match_serial(
    start, tmp_path, dataset, many, many_bad, seed_bundle_path, monkeypatch, capsys
):
    monkeypatch.setattr(multiprocessing, "Pool", multiprocessing.get_context(start).Pool)
    for data, skip in ((dataset, []), (many, []), (many_bad, ["--skip-bad"])):
        base = ["eval", "--dataset", str(data), "--model", str(seed_bundle_path), *skip]
        assert main(base) == 0
        serial = capsys.readouterr()
        assert main(base + ["--workers", "2"]) == 0
        assert capsys.readouterr() == serial
    assert serial.err.count("skipping bad line: ") == 2
    assert f"n={2 * POOL_BATCH + 5}" in serial.out


@pytest.mark.parametrize("command", ["eval", "rank", "sweep", "train"])
def test_eval_requires_labels(command, tmp_path, capsys):
    # every command that reads human labels holds its records to one rule
    path = tmp_path / "unlabeled.jsonl"
    unlabeled = {"question": "q", "references": ["a"], "candidate": "c", "model_id": "m1"}
    path.write_text(json.dumps(unlabeled) + "\n")
    argv = {
        "eval": ["--dataset", str(path), "--metric", "em"],
        "rank": ["--dataset", str(path), "--metric", "em"],
        "sweep": ["--dataset", str(path), "--threshold", "0.5"],
        "train": ["--corpus", str(path), "--out", str(tmp_path / "bundle.json")],
    }[command]
    assert main([command, *argv]) == 1
    assert capsys.readouterr().err == f"pedants: error: {path}:1: record has no human label\n"
    # --skip-bad skips the line: the output is the one of the labeled records
    rows = [ex.to_dict() for ex in load_seed_corpus()] if command == "train" else ROWS
    labeled = tmp_path / "labeled.jsonl"
    labeled.write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert main([command, *(a.replace(str(path), str(labeled)) for a in argv)]) == 0
    expected = capsys.readouterr().out.replace(str(labeled), str(path))
    with path.open("a") as handle:
        handle.write(labeled.read_text())
    assert main([command, *argv, "--skip-bad"]) == 0
    captured = capsys.readouterr()
    assert captured.err == f"skipping bad line: {path}:1: record has no human label\n"
    assert captured.out == expected


def test_eval_empty_metric_list_rejected(tmp_path, dataset, capsys):
    prejudged = tmp_path / "judged.jsonl"
    row = {"question": "q", "references": ["a"], "candidate": "a", "label": 1,
           "verdicts": {"em": True}}
    prejudged.write_text(json.dumps(row) + "\n")
    for path in (dataset, prejudged):
        for spec in ("", " , "):
            assert main(["eval", "--dataset", str(path), "--metric", spec]) == 1
            assert "pedants: error: no metrics given" in capsys.readouterr().err


def test_eval_prejudged_records(tmp_path, capsys):
    rows = [
        {"question": "q1", "references": ["a"], "candidate": "a", "label": 1,
         "verdicts": {"bertscore": True, "em": True}},
        {"question": "q2", "references": ["a"], "candidate": "b", "label": 0,
         "verdicts": {"bertscore": True, "em": False}},
    ]
    path = tmp_path / "judged.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    out_dir = tmp_path / "reports"
    assert main(["eval", "--dataset", str(path), "--out", str(out_dir)]) == 0
    report = {r["metric"]: r for r in json.loads((out_dir / "report.json").read_text())}
    assert report["em"]["accuracy"] == 1.0
    assert report["bertscore"]["accuracy"] == 0.5
    capsys.readouterr()

    # filtering by metric name keeps only the requested verdicts
    assert main(["eval", "--dataset", str(path), "--metric", "em"]) == 0
    captured = capsys.readouterr()
    assert "em" in captured.out and "bertscore" not in captured.out
    # a requested name no record has is not an error while another matches
    rc = main(["eval", "--dataset", str(path), "--metric", "rouge,em", "--out", str(out_dir)])
    assert rc == 0
    assert [r["metric"] for r in json.loads((out_dir / "report.json").read_text())] == ["em"]
    capsys.readouterr()
    assert main(["eval", "--dataset", str(path), "--metric", "rouge"]) == 1
    assert capsys.readouterr().err == (
        f"pedants: error: {path}: no verdicts matched the requested metrics\n"
    )


def test_eval_of_a_prejudged_file_starts_no_pool(tmp_path, many, monkeypatch, capsys):
    # its records are only parsed, which a pool would cost more than it saves
    path = tmp_path / "judged.jsonl"
    rows = [json.loads(line) for line in many.read_text().splitlines()]
    path.write_text("".join(json.dumps(dict(r, verdicts={"em": i % 3 == 0})) + "\n"
                            for i, r in enumerate(rows)))
    assert main(["eval", "--dataset", str(path)]) == 0
    serial = capsys.readouterr().out

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    assert main(["eval", "--dataset", str(path), "--workers", "2"]) == 0
    assert capsys.readouterr().out == serial
    assert f"n={2 * POOL_BATCH + 5}" in serial


@pytest.mark.parametrize("verdicts", [{}, {"em": 1}, {"em": None}, ["em"], None, "em"])
def test_eval_prejudged_verdicts_must_map_names_to_booleans(tmp_path, verdicts, capsys):
    row = {"question": "q", "references": ["a"], "candidate": "a", "label": 1,
           "verdicts": verdicts}
    path = tmp_path / "judged.jsonl"
    path.write_text(json.dumps(row) + "\n")
    assert main(["eval", "--dataset", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"pedants: error: {path}:1: 'verdicts' must map metric names to booleans\n"
    )


def test_eval_of_no_records_is_an_error(tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    path.write_text("# pedants-jsonl v1\n\n")
    assert main(["eval", "--dataset", str(path), "--metric", "em"]) == 1
    assert capsys.readouterr().err == f"pedants: error: no records in {path}\n"
    # nor has a file whose every record is skipped
    path.write_text("{broken\n")
    assert main(["eval", "--dataset", str(path), "--metric", "em", "--skip-bad"]) == 1
    assert capsys.readouterr().err.endswith(f"pedants: error: no records in {path}\n")


def test_rank_needs_rates_or_dataset(capsys):
    assert main(["rank", "--metric", "em"]) == 1
    assert capsys.readouterr().err == "pedants: error: rank needs --rates or --dataset\n"


def test_rank_from_rates_file(tmp_path, capsys):
    rates = {
        "human": {"m1": 0.9, "m2": 0.5, "m3": 0.1},
        "metrics": {"good": {"m1": 0.7, "m2": 0.6, "m3": 0.2}, "bad": {"m1": 0.1, "m2": 0.5, "m3": 0.9}},
    }
    path = tmp_path / "rates.json"
    path.write_text(json.dumps(rates))
    out_dir = tmp_path / "rank"
    assert main(["rank", "--rates", str(path), "--out", str(out_dir)]) == 0
    rows = {r["metric"]: r for r in json.loads((out_dir / "ranking.json").read_text())}
    assert rows["good"]["pairwise_ranking_accuracy"] == 1.0
    assert rows["bad"]["pairwise_ranking_accuracy"] == 0.0


@pytest.mark.parametrize(
    "flag, value",
    [("--dataset", "/nonexistent.jsonl"), ("--metric", "em,em"), ("--model", "/nonexistent.json")],
)
def test_rank_rates_rejects_dataset_flags(tmp_path, flag, value, capsys):
    path = tmp_path / "rates.json"
    rates = {"human": {"m1": 0.9, "m2": 0.1}, "metrics": {"em": {"m1": 1, "m2": 0}}}
    path.write_text(json.dumps(rates))
    out_dir = tmp_path / "rank"
    assert main(["rank", "--rates", str(path), flag, value, "--out", str(out_dir)]) == 1
    assert capsys.readouterr().err == f"pedants: error: --rates cannot be combined with {flag}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "rates",
    [
        {"human": [0.5, 0.6], "metrics": {}},
        [1, 2],
        {"human": {"m1": 0.9, "m2": "0.5"}, "metrics": {}},
        {"human": {"m1": 0.9, "m2": 0.5}, "metrics": {"em": {"m1": None, "m2": 0.5}}},
        {"human": {"m1": 0.9, "m2": True}, "metrics": {}},
        {"human": {"m1": 0.9, "m2": 0.5}, "metrics": [1]},
        {"human": {"m1": 0.9, "m2": 0.5}, "metrics": {}},
    ],
    ids=[
        "list-human", "top-level-list", "string-rate", "null-rate", "bool-rate", "list-metrics",
        "empty-metrics",
    ],
)
def test_malformed_rates_file_names_the_file(tmp_path, rates, capsys):
    path = tmp_path / "rates.json"
    path.write_text(json.dumps(rates))
    out_dir = tmp_path / "rank"
    for out in ([], ["--out", str(out_dir)]):
        assert main(["rank", "--rates", str(path), *out]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"pedants: error: {path}: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not out_dir.exists()


def test_rank_from_dataset(dataset, seed_bundle_path, capsys):
    rc = main(
        [
            "rank",
            "--dataset",
            str(dataset),
            "--metric",
            "pedants",
            "--model",
            str(seed_bundle_path),
        ]
    )
    assert rc == 0
    assert "pairwise_ranking_accuracy=1.0000" in capsys.readouterr().out


def test_rank_from_dataset_equals_rank_of_its_rates(tmp_path, seed_corpus, capsys):
    # rank counts each model's records and correct verdicts; the report must
    # be the one of the rate table computed from the judged records
    rows = [dict(ex.to_dict(), model_id=f"m{i % 5}") for i, ex in enumerate(seed_corpus)]
    data = tmp_path / "data.jsonl"
    data.write_text("".join(json.dumps(r) + "\n" for r in rows))
    rates = {"human": {}, "metrics": {}}
    for metric in ("em", "f1"):
        out = tmp_path / f"{metric}.jsonl"
        assert main(["judge", "--metric", metric, "--dataset", str(data), "--out", str(out)]) == 0
        verdicts = [json.loads(line)["correct"] for line in _judgment_lines(out)]
        for table, values in ((rates["human"], [r["label"] for r in rows]),
                              (rates["metrics"].setdefault(metric, {}), verdicts)):
            for model in sorted({r["model_id"] for r in rows}):
                mine = [v for v, r in zip(values, rows) if r["model_id"] == model]
                table[model] = sum(mine) / len(mine)
    (tmp_path / "rates.json").write_text(json.dumps(rates))
    for args, out in ((["--dataset", str(data), "--metric", "em,f1"], "from-dataset"),
                      (["--rates", str(tmp_path / "rates.json")], "from-rates")):
        assert main(["rank", *args, "--out", str(tmp_path / out)]) == 0
    capsys.readouterr()
    for name in ("ranking.json", "ranking.csv"):
        expected = (tmp_path / "from-rates" / name).read_bytes()
        assert (tmp_path / "from-dataset" / name).read_bytes() == expected


def test_sweep_outputs_rows(tmp_path, dataset, capsys):
    out_dir = tmp_path / "sweep"
    rc = main(
        ["sweep", "--dataset", str(dataset), "--threshold", "0.3,0.5", "--out", str(out_dir)]
    )
    assert rc == 0
    rows = json.loads((out_dir / "sweep.json").read_text())
    assert [r["threshold"] for r in rows] == [0.3, 0.5]
    assert all(0.0 <= r["accuracy"] <= 1.0 for r in rows)


@pytest.mark.parametrize("norm", ["em", "pedants"])
def test_sweep_rows_are_evals_f1_rows(tmp_path, norm, capsys):
    # sweep scores F1 as eval's f1 metric does, so each of its rows is the
    # f1 row of eval at that cutoff
    seed = str(SEED_CORPUS)
    cutoffs = ["0", "0.25", "0.5", "0.75", "1"]
    sweep_out = tmp_path / "sweep"
    argv = ["sweep", "--dataset", seed, "--norm", norm, "--threshold", ",".join(cutoffs)]
    assert main([*argv, "--out", str(sweep_out)]) == 0
    rows = json.loads((sweep_out / "sweep.json").read_text())
    assert [row["threshold"] for row in rows] == [float(t) for t in cutoffs]
    for cutoff, row in zip(cutoffs, rows):
        eval_out = tmp_path / f"eval-{cutoff}"
        argv = ["eval", "--dataset", seed, "--norm", norm, "--metric", "f1", "--threshold", cutoff]
        assert main([*argv, "--out", str(eval_out)]) == 0
        (f1,) = json.loads((eval_out / "report.json").read_text())
        assert (f1["accuracy"], f1["macro_f1"], f1["examples"]) == (
            row["accuracy"], row["macro_f1"], row["examples"]
        )
    capsys.readouterr()


@pytest.mark.parametrize("norm", ["em", "pedants"])
def test_sweep_report_is_threshold_sweep(tmp_path, norm, capsys):
    # the rows the library returns are the report the command writes
    seed = str(SEED_CORPUS)
    cutoffs = (0.0, 0.25, 0.5, 0.75, 1.0)
    argv = ["sweep", "--dataset", seed, "--norm", norm, "--threshold", "0,0.25,0.5,0.75,1"]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    policy = POLICY_PRESETS[norm]
    scored = [
        (best_reference(ex.candidate, ex.references, policy)[1].f1, ex.human_label)
        for ex in load_seed_corpus()
    ]
    assert json.loads((tmp_path / "sweep.json").read_text()) == threshold_sweep(scored, cutoffs)
    capsys.readouterr()


def test_sweep_rejects_repeated_threshold(tmp_path, dataset, capsys):
    out_dir = tmp_path / "sweep"
    rc = main(
        ["sweep", "--dataset", str(dataset), "--threshold", "0.5,0.5,0.3", "--out", str(out_dir)]
    )
    assert rc == 1
    assert capsys.readouterr().err == "pedants: error: threshold 0.5 is given more than once\n"
    assert not out_dir.exists()


def test_malformed_dataset_aborts_with_line_number(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(ROWS[0]) + "\n{broken\n")
    assert main(["judge", "--dataset", str(path), "--metric", "em"]) == 1
    assert ":2:" in capsys.readouterr().err


def test_skip_bad_continues(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(ROWS[0]) + "\n{broken\n" + json.dumps(ROWS[2]) + "\n")
    out = tmp_path / "out.jsonl"
    rc = main(
        ["judge", "--dataset", str(path), "--metric", "em", "--skip-bad", "--out", str(out)]
    )
    assert rc == 0
    assert len(_judgment_lines(out)) == 2
    assert "skipping bad line" in capsys.readouterr().err


def test_missing_dataset_file(capsys):
    assert main(["judge", "--dataset", "/nonexistent.jsonl", "--metric", "em"]) == 1


def test_bad_threshold_rejected(dataset, capsys):
    for spec, message in [("1.5", "threshold out of [0, 1]: 1.5"),
                          ("0.3,high", "bad threshold list '0.3,high'"),
                          (" , ", "no thresholds given")]:
        assert main(["sweep", "--dataset", str(dataset), "--threshold", spec]) == 1
        assert capsys.readouterr().err == f"pedants: error: {message}\n"


@pytest.mark.parametrize("command", ["judge", "eval", "rank"])
def test_unknown_metric_rejected(command, dataset, capsys):
    # the block object checks every metric name, so the three commands share one message
    assert main([command, "--dataset", str(dataset), "--metric", "bleu"]) == 1
    err = capsys.readouterr().err
    assert err == "pedants: error: unknown metric 'bleu'; choose from em, f1, pedants\n"


@pytest.mark.parametrize("command", ["eval", "rank"])
def test_repeated_metric_rejected(command, dataset, tmp_path, capsys):
    out_dir = tmp_path / "reports"
    # eval reads a --metric list of a pre-judged file by the same rule
    prejudged = tmp_path / "judged.jsonl"
    prejudged.write_text("".join(json.dumps(dict(r, verdicts={"em": True})) + "\n" for r in ROWS))
    for path in [dataset, prejudged] if command == "eval" else [dataset]:
        rc = main([command, "--dataset", str(path), "--metric", "em,f1,em", "--out", str(out_dir)])
        assert rc == 1
        assert capsys.readouterr().err == "pedants: error: metric 'em' is given more than once\n"
        assert not out_dir.exists()


@pytest.mark.parametrize("command", ["judge", "eval", "rank"])
def test_threshold_takes_one_value_outside_sweep(command, dataset, capsys):
    for spec, message in [("0.3,0.9", "takes one cutoff, got 2"),
                          ("1.5", "threshold out of [0, 1]: 1.5")]:
        with pytest.raises(SystemExit) as exc:
            main([command, "--dataset", str(dataset), "--metric", "f1", "--threshold", spec])
        assert exc.value.code == 1
        assert f"pedants: error: argument --threshold: {message}" in capsys.readouterr().err
    assert main([command, "--dataset", str(dataset), "--metric", "f1", "--threshold", "0.3"]) == 0


def test_usage_errors_exit_1():
    with pytest.raises(SystemExit) as exc:
        main(["judge", "--no-such-flag"])
    assert exc.value.code == 1


def test_a_key_error_is_a_bug_with_exit_2(dataset, monkeypatch, capsys):
    # input errors reach main as ValueError, PedantsError or OSError; a
    # KeyError is a fault of the program, shown with its traceback
    import pedants.cli as cli

    def faulty(args):
        return {}["missing"]

    monkeypatch.setattr(cli, "cmd_sweep", faulty)
    assert main(["sweep", "--dataset", str(dataset)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("Traceback") and "KeyError: 'missing'" in err


@pytest.mark.parametrize("value", ["0", "-2", "cpus+1", "1000000000", "two"])
def test_workers_out_of_range_rejected_before_any_pool(value, dataset, monkeypatch, capsys):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    if value == "cpus+1":
        value = str((os.cpu_count() or 1) + 1)
    for command in ("judge", "eval"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--dataset", str(dataset), "--metric", "em", "--workers", value])
        assert exc.value.code == 1
        assert "pedants: error: argument --workers: " in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-1", "seven"])
def test_seed_checked_before_reading_the_corpus(value, tmp_path, monkeypatch, capsys):
    def no_read(*args, **kwargs):
        raise AssertionError("the corpus was read")

    monkeypatch.setattr("pedants.io.iter_lines", no_read)
    out = tmp_path / "bundle.json"
    with pytest.raises(SystemExit) as exc:
        main(["train", "--corpus", str(tmp_path / "corpus.jsonl"), "--out", str(out),
              "--seed", value])
    assert exc.value.code == 1
    assert "pedants: error: argument --seed: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "section, field, value",
    [
        ("config", "seed", -1),
        ("config", "eta0", 0.0),
        ("config", "l2_penalty", -1e-4),
        ("config", "max_epochs", -1),
        ("config", "lr_power", -0.5),
        ("config", "tolerance", float("nan")),
        ("config", "seed", float("inf")),
        ("rule_model", "eta0", float("inf")),
        ("judge_model", "l2_penalty", float("nan")),
        ("type_vectorizer", "min_df", 0),
        ("judge_vectorizer", "min_df", float("inf")),
        ("rule_vectorizer", "min_df", float("nan")),
        ("type_vectorizer", "min_df", 2),
        # in range, but not the trainer's fixed value
        ("config", "eta0", 0.25),
        ("rule_model", "lr_power", 1.0),
        ("judge_model", "tolerance", 0.01),
        ("judge_model", "max_epochs", 1000.5),
        ("config", "l2_penalty", "0.0001"),
        # an integer field holding a bool, a fraction or a string
        ("config", "seed", 1.5),
        ("config", "seed", True),
        ("rule_model", "seed", "668"),
        ("final_judge.model", "classes", 2.5),
        pytest.param(
            "final_judge.model", "dim", lambda d: d + 0.5, id="final_judge.model-dim-frac"
        ),
        pytest.param(
            "type_extractor.vectorizer", "doc_count", lambda n: n + 0.5,
            id="type_extractor.vectorizer-doc_count-frac",
        ),
        ("type_extractor.vectorizer", "doc_count", True),
        # a whole float where the fixed value is an integer, which saves back as one
        ("config", "max_epochs", 1000.0),
        ("judge_model", "max_epochs", 1000.0),
        ("rule_vectorizer", "min_df", 1.0),
    ],
)
def test_bundle_config_out_of_range_rejected_at_load(
    tmp_path, dataset, seed_bundle_path, section, field, value, capsys
):
    bundle = json.loads(seed_bundle_path.read_text())
    part = {
        "config": bundle["config"],
        "rule_model": bundle["rule_extractor"]["model"]["config"],
        "judge_model": bundle["final_judge"]["model"]["config"],
        "type_vectorizer": bundle["type_extractor"]["vectorizer"]["config"],
        "rule_vectorizer": bundle["rule_extractor"]["vectorizer"]["config"],
        "judge_vectorizer": bundle["final_judge"]["vectorizer"]["config"],
        "final_judge.model": bundle["final_judge"]["model"],
        "type_extractor.vectorizer": bundle["type_extractor"]["vectorizer"],
    }[section]
    part[field] = value(part[field]) if callable(value) else value
    bad = tmp_path / "bad-bundle.json"
    bad.write_text(json.dumps(bundle))
    out = tmp_path / "out.jsonl"
    rc = main(["judge", "--dataset", str(dataset), "--model", str(bad), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("pedants: error: ") and field in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["judge", "eval", "rank", "sweep"])
def test_seed_is_a_train_flag_only(command, dataset, capsys):
    argv = [command, "--dataset", str(dataset)]
    if command != "sweep":
        argv += ["--metric", "em"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "1"])
    assert exc.value.code == 1
    assert "pedants: error: unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert main(argv) == 0


def test_workers_accepts_one_to_cpu_count(dataset):
    for n in {1, os.cpu_count() or 1}:
        args = build_parser().parse_args(["judge", "--dataset", str(dataset), "--workers", str(n)])
        assert args.workers == n


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
def test_import_caps_openblas_threads_unless_set(preset, expected):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run(
        [sys.executable, "-c", "import os, pedants; print(os.environ['OPENBLAS_NUM_THREADS'])"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == expected


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "pedants.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "judge" in proc.stdout


@pytest.mark.parametrize(
    "corrupt, named",
    [
        pytest.param(lambda b: b["final_judge"]["vectorizer"]["idf"].pop(), "idf",
                     id="truncated-idf"),
        pytest.param(lambda b: b["final_judge"]["model"]["weights"].__setitem__(3, float("nan")),
                     "weights", id="nan-weight"),
        pytest.param(lambda b: b["final_judge"]["model"].__setitem__("classes", None), "classes",
                     id="null-classes"),
        pytest.param(lambda b: b["config"].__setitem__("seed", None), "seed", id="null-seed"),
        pytest.param(
            lambda b: b["type_extractor"]["model"]["config"].__setitem__("eta0", [0.1]), "eta0",
            id="list-eta0",
        ),
        pytest.param(lambda b: b["final_judge"]["vectorizer"]["vocab"].__setitem__(0, 5),
                     "vocabulary", id="int-vocab-token"),
        pytest.param(lambda b: b["rule_extractor"]["vectorizer"].__setitem__("vocab", None),
                     "vocabulary", id="null-vocab"),
        pytest.param(
            lambda b: b["rule_extractor"]["vectorizer"]["config"].__setitem__("min_df", None),
            "min_df", id="null-min-df",
        ),
        pytest.param(lambda b: b.__setitem__("type_extractor", None), "malformed bundle",
                     id="null-section"),
        pytest.param(
            lambda b: b["final_judge"]["vectorizer"]["config"].__setitem__("smooth_idf", False),
            "smooth_idf", id="unsmoothed-idf",
        ),
        pytest.param(
            lambda b: b["type_extractor"]["vectorizer"]["config"].__setitem__(
                "l2_normalize", False
            ),
            "l2_normalize", id="unnormalized-tfidf",
        ),
        # valid on its own, but not the rule extractor's triple vectorizer
        pytest.param(
            lambda b: b["final_judge"]["vectorizer"]["idf"].__setitem__(
                0, 2 * b["final_judge"]["vectorizer"]["idf"][0]
            ),
            "vectorizers differ", id="judge-vectorizer-differs",
        ),
        pytest.param(lambda b: b.__setitem__("fingerprint", 5), "fingerprint",
                     id="number-fingerprint"),
        pytest.param(lambda b: b.__setitem__("fingerprint", ["seed", 668]), "fingerprint",
                     id="list-fingerprint"),
        # JSON numbers only: numpy would parse a string and read a bool as 0 or 1
        pytest.param(
            lambda b: b["final_judge"]["model"].__setitem__(
                "weights", [repr(w) for w in b["final_judge"]["model"]["weights"]]
            ),
            "weights", id="string-weights",
        ),
        pytest.param(
            lambda b: b["type_extractor"]["vectorizer"]["idf"].__setitem__(
                2, repr(b["type_extractor"]["vectorizer"]["idf"][2])
            ),
            "idf", id="string-idf",
        ),
        pytest.param(lambda b: b["rule_extractor"]["model"]["weights"].__setitem__(1, True),
                     "weights", id="bool-weight"),
        pytest.param(lambda b: b["final_judge"]["model"].__setitem__("bias", [True, False]),
                     "bias", id="bool-biases"),
        # an integer past float64's range, which numpy cannot convert
        pytest.param(lambda b: b["final_judge"]["model"]["weights"].__setitem__(0, 10**400),
                     "malformed linear model weights", id="huge-int-weight"),
        pytest.param(lambda b: b["final_judge"]["model"]["bias"].__setitem__(1, 10**400),
                     "malformed linear model bias", id="huge-int-bias"),
        pytest.param(lambda b: b["type_extractor"]["vectorizer"]["idf"].__setitem__(0, 10**400),
                     "malformed vectorizer idf", id="huge-int-idf"),
        # each part's seed, and the fingerprint's, is the bundle's config seed
        pytest.param(
            lambda b: b["type_extractor"]["model"]["config"].__setitem__("seed", 5),
            "type_extractor.model", id="model-seed-differs",
        ),
        pytest.param(lambda b: b["fingerprint"].__setitem__("seed", 9), "fingerprint",
                     id="fingerprint-seed-differs"),
        # a version is the JSON integer 1: True and 1.0 equal it but save as other bytes
        pytest.param(lambda b: b["type_extractor"]["vectorizer"].__setitem__("version", True),
                     "unsupported vectorizer format: True", id="vectorizer-version-true"),
        pytest.param(lambda b: b["rule_extractor"]["vectorizer"].__setitem__("version", 1.0),
                     "unsupported vectorizer format: 1.0", id="vectorizer-version-float"),
        pytest.param(lambda b: b["final_judge"]["vectorizer"].__setitem__("version", 2),
                     "unsupported vectorizer format: 2", id="vectorizer-version-2"),
        pytest.param(lambda b: b["type_extractor"]["vectorizer"].__setitem__("idf", {}),
                     "malformed vectorizer idf: must be an array, got dict", id="object-idf"),
        pytest.param(lambda b: b["final_judge"]["vectorizer"].__setitem__("config", []),
                     "malformed vectorizer: ", id="list-vectorizer-config"),
        # a case that returns bytes writes them in place of the edited bundle
        pytest.param(lambda b: json.dumps(b).encode()[:3000], "line 1 column 3001",
                     id="truncated-file"),
        pytest.param(lambda b: b.pop("final_judge"), "missing field 'final_judge'",
                     id="missing-section"),
        pytest.param(lambda b: b["final_judge"]["model"].pop("bias"), "missing field 'bias'",
                     id="missing-bias"),
        pytest.param(
            lambda b: json.dumps(b).encode().replace(b'"fingerprint"', b'"finger\xffprint"'),
            "can't decode byte 0xff", id="invalid-utf8",
        ),
    ],
)
def test_corrupt_bundle_rejected_at_load(
    tmp_path, dataset, seed_bundle_path, corrupt, named, capsys
):
    bundle = json.loads(seed_bundle_path.read_text())
    data = corrupt(bundle)
    bad = tmp_path / "bad-bundle.json"
    bad.write_bytes(data if isinstance(data, bytes) else json.dumps(bundle).encode())
    out = tmp_path / "out.jsonl"
    rc = main(["judge", "--dataset", str(dataset), "--model", str(bad), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"pedants: error: {bad}: ") and named in err
    assert "Traceback" not in err
    assert not out.exists()  # rejected before judging anything


@pytest.mark.parametrize(
    "field, value",
    [("question", 5), ("candidate", None), ("model_id", ["m"]), ("rating", True)],
)
def test_mistyped_record_names_its_line(tmp_path, seed_bundle_path, field, value, capsys):
    bad = dict(ROWS[1])
    del bad["label"]  # so that a rating would be read as the label
    bad[field] = value
    path = tmp_path / "data.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in (ROWS[0], bad, ROWS[2])) + "\n")
    out = tmp_path / "out.jsonl"
    for args in (
        ["judge", "--model", str(seed_bundle_path), "--out", str(out)],
        ["judge", "--metric", "f1", "--out", str(out)],
        ["rank", "--metric", "em"],
    ):
        assert main(args + ["--dataset", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"pedants: error: {path}:2: ") and repr(field) in err
        assert "Traceback" not in err
        assert not out.exists()
    rc = main(["judge", "--dataset", str(path), "--model", str(seed_bundle_path),
               "--out", str(out), "--skip-bad"])
    assert rc == 0
    assert f"skipping bad line: {path}:2: " in capsys.readouterr().err
    assert len(_judgment_lines(out)) == 2


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_invalid_utf8_line_names_its_line(tmp_path, seed_bundle_path, newline, capsys):
    lines = [json.dumps(r, ensure_ascii=False).encode() for r in ROWS]
    lines[1] = lines[1].replace(b"Joe", b"Jo\xffe")
    lines[3] = lines[3].replace(b"Sydney", "Sydney — café".encode())  # valid UTF-8
    path = tmp_path / "data.jsonl"
    path.write_bytes(newline.encode().join([b"# pedants-jsonl v1", *lines, b""]))
    out = tmp_path / "out.jsonl"
    model = ["--model", str(seed_bundle_path)]
    for args in (["judge", *model, "--out", str(out)], ["eval", *model], ["eval", "--metric", "f1"]):
        assert main(args + ["--dataset", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"pedants: error: {path}:3: ") and "byte 0xff" in err
        assert "Traceback" not in err
        assert not out.exists()
    rc = main(["judge", "--dataset", str(path), *model, "--out", str(out), "--skip-bad"])
    assert rc == 0
    assert f"skipping bad line: {path}:3: " in capsys.readouterr().err
    assert len(_judgment_lines(out)) == 3
    assert main(["eval", "--dataset", str(path), *model, "--skip-bad"]) == 0
    captured = capsys.readouterr()
    assert f"skipping bad line: {path}:3: " in captured.err
    assert captured.out.count("n=3") == 3


@pytest.mark.parametrize("workers", ["1", "2"])
def test_failed_judge_leaves_existing_out_unchanged(tmp_path, seed_bundle_path, workers, capsys):
    # a bad last line in one block, and past two blocks (a pool at 2 workers)
    path = tmp_path / "bad.jsonl"
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "judged.jsonl"
    out.write_text("previous run\n")
    for rows in (ROWS[:2], _seed_rows(2 * POOL_BATCH + 5)):
        path.write_text("".join(json.dumps(r) + "\n" for r in rows) + "{broken\n")
        rc = main(["judge", "--dataset", str(path), "--model", str(seed_bundle_path),
                   "--out", str(out), "--workers", workers])
        assert rc == 1
        assert f"{path}:{len(rows) + 1}:" in capsys.readouterr().err
        assert out.read_text() == "previous run\n"
        assert [p.name for p in out_dir.iterdir()] == ["judged.jsonl"]


@pytest.mark.parametrize("command", ["train", "judge"])
def test_unwritable_out_is_named_as_given(tmp_path, dataset, seed_bundle_path, command, capsys):
    # the error names the --out path, not the temp file written beside it,
    # under a missing directory and under a regular file alike
    (tmp_path / "afile").write_text("")
    inputs = {"train": [], "judge": ["--model", str(seed_bundle_path), "--dataset", str(dataset)]}
    for out, error in (
        (tmp_path / "missing" / "out.json", "[Errno 2] No such file or directory"),
        (tmp_path / "afile" / "out.json", "[Errno 20] Not a directory"),
    ):
        assert main([command, *inputs[command], "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"pedants: error: {error}: '{out}'\n"
        assert not (tmp_path / "missing").exists()
        assert (tmp_path / "afile").read_text() == ""


def test_train_out_checked_before_the_fit(tmp_path, monkeypatch, capsys):
    import pedants.pipeline as pipeline

    def refuse(*args, **kwargs):
        raise AssertionError("train_pedants ran")

    monkeypatch.setattr(pipeline, "train_pedants", refuse)
    # the output's directory is checked before the corpus is read or the
    # model fitted, and the error names --out as given
    (tmp_path / "file").write_text("")
    monkeypatch.chdir(tmp_path)
    for out, error in (
        ("missing/x.json", "[Errno 2] No such file or directory"),
        (str(tmp_path / "missing" / "x.json"), "[Errno 2] No such file or directory"),
        ("file/x.json", "[Errno 20] Not a directory"),
    ):
        for corpus in ([], ["--corpus", "no-such-corpus.jsonl"]):
            assert main(["train", *corpus, "--out", out]) == 1
            err = capsys.readouterr().err
            assert err == f"pedants: error: {error}: '{out}'\n"
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("command", ["train", "judge"])
def test_out_that_is_a_directory_fails_before_work(
    tmp_path, dataset, seed_bundle_path, command, monkeypatch, capsys
):
    import pedants.pipeline as pipeline

    def refuse(*args, **kwargs):
        raise AssertionError(f"{command} did its work")

    monkeypatch.setattr(pipeline, {"train": "train_pedants", "judge": "_judgments"}[command], refuse)
    inputs = {"train": [], "judge": ["--model", str(seed_bundle_path), "--dataset", str(dataset)]}
    (tmp_path / "outdir").mkdir()
    monkeypatch.chdir(tmp_path)
    for out in ("outdir", "outdir/", str(tmp_path / "outdir")):
        assert main([command, *inputs[command], "--out", out]) == 1
        err = capsys.readouterr().err
        assert err == f"pedants: error: [Errno 21] Is a directory: '{out}'\n"
    assert not any((tmp_path / "outdir").iterdir())


REPORT_STEMS = {"eval": "report", "rank": "ranking", "sweep": "sweep"}


@pytest.mark.parametrize(
    "kind", ["out-is-a-file", "out-under-a-file", "csv-is-a-directory", "json-is-a-directory"]
)
@pytest.mark.parametrize("command", ["eval", "rank", "sweep"])
def test_report_out_checked_before_any_work(tmp_path, dataset, command, kind, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{command} read its dataset")

    monkeypatch.setattr("pedants.io.iter_lines", refuse)
    # an --out that is a file or lies under one, or a report path that is a
    # directory, stops the command before it reads its dataset, and creates
    # nothing
    out = tmp_path / "out"
    if kind.startswith("out-"):
        out.write_text("a file\n")
        if kind == "out-under-a-file":
            out = out / "sub" / "dir"
        named, error = out, "[Errno 20] Not a directory"
    else:
        named = out / f"{REPORT_STEMS[command]}.{kind.split('-')[0]}"
        named.mkdir(parents=True)
        error = "[Errno 21] Is a directory"
    before = sorted(tmp_path.rglob("*"))
    metric = [] if command == "sweep" else ["--metric", "em"]
    assert main([command, "--dataset", str(dataset), *metric, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"pedants: error: {error}: '{named}'\n"
    assert sorted(tmp_path.rglob("*")) == before


def test_train_skip_bad_reports_skipped_lines(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    seed = load_seed_corpus()
    lines = [json.dumps(ex.to_dict()) for ex in seed]
    lines.insert(3, "{bad")
    corpus.write_text("\n".join(lines) + "\n")
    out = tmp_path / "bundle.json"
    assert main(["train", "--corpus", str(corpus), "--skip-bad", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert f"skipping bad line: {corpus}:4: " in captured.err
    assert f"trained on {len(seed)} examples" in captured.out


def test_rank_missing_model_id_names_its_line(tmp_path, capsys):
    rows = [dict(r) for r in ROWS]
    del rows[1]["model_id"]
    path = tmp_path / "data.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    assert main(["rank", "--dataset", str(path), "--metric", "em"]) == 1
    assert f"pedants: error: {path}:2: record has no model_id" in capsys.readouterr().err

    # with --skip-bad the line is reported and the ranking is the one of the rest
    others = tmp_path / "others.jsonl"
    others.write_text("".join(json.dumps(r) + "\n" for r in rows if "model_id" in r))
    for data, args in ((path, ["--skip-bad"]), (others, [])):
        out_dir = tmp_path / data.stem
        assert main(["rank", "--dataset", str(data), "--metric", "em,f1",
                     "--out", str(out_dir), *args]) == 0
    err = capsys.readouterr().err
    assert f"skipping bad line: {path}:2: record has no model_id" in err
    for name in ("ranking.json", "ranking.csv"):
        expected = (tmp_path / "others" / name).read_bytes()
        assert (tmp_path / "data" / name).read_bytes() == expected


@pytest.mark.parametrize(
    "field, message",
    [("rule", "record has no rule"), ("qtype", "record has no qtype"),
     ("label", "record has no human label")],
)
def test_train_corpus_record_without_annotation_is_a_bad_line(tmp_path, field, message, capsys):
    rows = [ex.to_dict() for ex in load_seed_corpus()]
    del rows[5][field]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(r) + "\n" for r in rows))
    out = tmp_path / "bundle.json"
    assert main(["train", "--corpus", str(corpus), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"pedants: error: {corpus}:6: {message}\n"
    assert not out.exists()

    # with --skip-bad the bundle is the one trained without that record
    rest = tmp_path / "rest.jsonl"
    rest.write_text("".join(json.dumps(r) + "\n" for i, r in enumerate(rows) if i != 5))
    expected = tmp_path / "expected.json"
    assert main(["train", "--corpus", str(rest), "--out", str(expected)]) == 0
    assert main(["train", "--corpus", str(corpus), "--skip-bad", "--out", str(out)]) == 0
    assert f"skipping bad line: {corpus}:6: {message}\n" in capsys.readouterr().err
    assert out.read_bytes() == expected.read_bytes()
    # which loads and saves back to the bytes train wrote
    PedantsModel.load(out).save(expected)
    assert expected.read_bytes() == out.read_bytes()


@pytest.mark.parametrize("field, value, shown", [
    ("qtype", "what", "qtype 'what'"), ("rule", "R5", "rule 'R5'"), ("label", 1, "label 1"),
], ids=["qtype", "rule", "label"])
def test_training_with_one_class_names_the_field(tmp_path, field, value, shown, capsys):
    # the message names the annotation and its value, not the value's class code
    rows = [dict(ex.to_dict(), **{field: value}) for ex in load_seed_corpus()]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(r) + "\n" for r in rows))
    out = tmp_path / "bundle.json"
    message = f"every example has {shown}; need at least 2 classes"
    assert main(["train", "--corpus", str(corpus), "--out", str(out)]) == 1
    # an error of the corpus as a whole names its file
    assert capsys.readouterr().err == f"pedants: error: {corpus}: {message}\n"
    assert not out.exists()
    with pytest.raises(SingleClassCorpus) as exc:
        train_pedants(read_examples(corpus))
    assert str(exc.value) == message


def test_train_seed_reaches_the_bundle(tmp_path, seed_bundle_path, capsys):
    out = tmp_path / "seed7.json"
    assert main(["train", "--seed", "7", "--out", str(out)]) == 0
    bundle = json.loads(out.read_text())
    sections = ("type_extractor", "rule_extractor", "final_judge")
    seeds = [bundle["config"]["seed"], bundle["fingerprint"]["seed"]]
    assert seeds + [bundle[s]["model"]["config"]["seed"] for s in sections] == [7] * 5
    expected = tmp_path / "expected.json"
    train_pedants(load_seed_corpus(), 7).save(expected)
    assert out.read_bytes() == expected.read_bytes()
    assert out.read_bytes() != seed_bundle_path.read_bytes()


@pytest.mark.parametrize("prejudged_first", [True, False], ids=["prejudged-first", "plain-first"])
def test_eval_rejects_mixed_records(tmp_path, prejudged_first, capsys):
    judged = dict(ROWS[0], verdicts={"em": True})
    plain = dict(ROWS[1])
    rows = [judged, plain, judged] if prejudged_first else [plain, judged, plain]
    path = tmp_path / "mixed.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    assert main(["eval", "--dataset", str(path), "--metric", "em"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"pedants: error: {path}:2: record has")
    assert "unlike the first record" in err

    out_dir = tmp_path / "reports"
    base = ["eval", "--dataset", str(path), "--metric", "em", "--out", str(out_dir)]
    assert main(base + ["--skip-bad"]) == 0
    assert f"skipping bad line: {path}:2: " in capsys.readouterr().err
    report = json.loads((out_dir / "report.json").read_text())
    assert [(r["metric"], r["examples"]) for r in report] == [("em", 2)]


@pytest.mark.parametrize("prejudged", [True, False], ids=["prejudged", "plain"])
def test_skipped_first_record_does_not_set_the_kind(tmp_path, prejudged, capsys):
    rows = [dict(r, verdicts={"em": True}) if prejudged else dict(r) for r in ROWS]
    bad = dict(ROWS[0]) if prejudged else dict(ROWS[0], verdicts={"em": True})  # the other kind
    del bad["question"]
    path = tmp_path / "data.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in [bad, *rows]))
    out_dir = tmp_path / "reports"
    assert main(["eval", "--dataset", str(path), "--metric", "em", "--skip-bad",
                 "--out", str(out_dir)]) == 0
    err = capsys.readouterr().err
    assert err == f"skipping bad line: {path}:1: missing required field 'question'\n"
    report = json.loads((out_dir / "report.json").read_text())
    assert [(r["metric"], r["examples"]) for r in report] == [("em", 4)]


def test_eval_reads_a_pipe():
    # eval reads its dataset in one pass, so a pipe serves as it does for judge
    proc = subprocess.run(
        [sys.executable, "-m", "pedants", "eval", "--metric", "em", "--dataset", "/dev/stdin"],
        input="".join(json.dumps(r) + "\n" for r in ROWS), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "n=4" in proc.stdout


@pytest.mark.parametrize("norm", ["em", "pedants"])
def test_em_and_f1_together_normalize_each_string_once(norm, seed_corpus, monkeypatch):
    import pedants.cli as cli
    import pedants.textnorm as textnorm

    calls = []

    def counted(text, policy):
        calls.append(text)
        return normalize(text, policy)

    monkeypatch.setattr(textnorm, "normalize", counted)
    em, f1, both = (cli._Block("", norm, 0.5, names) for names in (["em"], ["f1"], ["em", "f1"]))
    # rank's block sends back each metric's verdict alone, as eval's does
    verdicts, em_only = (cli._RankBlock("", norm, 0.5, names) for names in (["em", "f1"], ["em"]))
    for ex in seed_corpus:
        separate = {**em.records([ex])[0], **f1.records([ex])[0]}
        calls.clear()
        assert both.records([ex]) == [separate]
        assert len(calls) == 1 + len(ex.references)
        calls.clear()
        tallied = {name: r["correct"] for name, r in separate.items()}
        assert verdicts.results([ex]) == [(ex.human_label, tallied, None)]
        assert len(calls) == 1 + len(ex.references)
        calls.clear()
        assert em_only.results([ex]) == [(ex.human_label, {"em": tallied["em"]}, None)]
        assert len(calls) <= 1 + len(ex.references)

    # exact match stops at the first reference that matches
    ex = QAExample("q", ("Paris", "Paris, France"), "paris")
    calls.clear()
    assert em_only.results([ex]) == [(None, {"em": True}, None)]
    assert calls == ["paris", "Paris"]


@pytest.mark.parametrize("norm, strings", [("pedants", 174), ("em", 291)])
def test_string_metrics_share_the_judges_preparation(
    norm, strings, seed_corpus, seed_bundle_path, tmp_path, monkeypatch, capsys
):
    # under --norm pedants, em and f1 read the token lists, best reference and
    # scores the judge prepared, so each string is normalized once: 57
    # questions, 57 candidates and 60 references; under --norm em the
    # candidates and references are normalized again, under that policy
    import pedants.cli as cli
    import pedants.textnorm as textnorm

    assert len(seed_corpus) == 57 and sum(len(ex.references) for ex in seed_corpus) == 60
    calls = []

    def counted(text, policy):
        calls.append(text)
        return normalize(text, policy)

    monkeypatch.setattr(textnorm, "normalize", counted)
    dataset = tmp_path / "seed.jsonl"
    dataset.write_text("".join(json.dumps(ex.to_dict()) + "\n" for ex in seed_corpus))
    args = ["eval", "--model", str(seed_bundle_path), "--dataset", str(dataset), "--norm", norm]
    assert main(args) == 0
    assert len(calls) == strings
    shared = capsys.readouterr().out
    # the same verdicts as each metric computed on its own
    model = PedantsModel.load(seed_bundle_path)
    together = cli._Block("", norm, 0.5, ["em", "f1", "pedants"], model)
    apart = [cli._Block("", norm, 0.5, [name], model) for name in ("em", "f1", "pedants")]
    for ex in seed_corpus:
        assert together.records([ex]) == [
            {k: v for b in apart for k, v in b.records([ex])[0].items()}
        ]
    assert "n=57" in shared


def test_block_boundary_same_output_for_any_worker_count(tmp_path, seed_bundle_path, capsys):
    """POOL_BATCH + 1 records, so the last block holds one, and a malformed
    line inside the first block; judging and eval give the same output with
    1 and 2 workers, and each judged row is judge() of its record."""
    seed = load_seed_corpus()
    records = []
    for i in range(POOL_BATCH + 1):
        row = seed[i % len(seed)].to_dict()
        row["candidate"] += " " + " ".join(["indeed"] * (i // len(seed)))
        records.append(row)
    lines = [json.dumps(r) for r in records]
    lines.insert(100, "{broken")
    path = tmp_path / "data.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    model = PedantsModel.load(seed_bundle_path)
    expected = [judge(QAExample.from_dict(r), model).to_dict() for r in records]
    outputs, reports = [], []
    for workers in ("1", "2"):
        out, out_dir = tmp_path / f"judged-{workers}.jsonl", tmp_path / f"eval-{workers}"
        common = ["--dataset", str(path), "--model", str(seed_bundle_path), "--skip-bad"]
        assert main(["judge", *common, "--out", str(out), "--workers", workers]) == 0
        assert main(["eval", *common, "--out", str(out_dir), "--workers", workers]) == 0
        outputs.append(out.read_bytes())
        reports.append((out_dir / "report.json").read_bytes())
        assert [json.loads(l) for l in _judgment_lines(out)] == expected
    assert outputs[0] == outputs[1]
    assert reports[0] == reports[1]
    report = json.loads(reports[0])
    assert [r["examples"] for r in report] == [POOL_BATCH + 1] * 3
    assert "skipping bad line" in capsys.readouterr().err


def test_skip_bad_output_and_stderr_same_for_any_worker_count(
    tmp_path, seed_bundle_path, monkeypatch, capsys
):
    """Three blocks with bad lines before eval's first good record and in
    each block: judge and eval with --skip-bad print the same output,
    reports and skip messages with 1, 2 and 3 workers, judge's timing line
    aside. Without --skip-bad each run exits 1 naming the first bad line,
    also when that line is in the third block, judged while the pool runs."""
    monkeypatch.setattr(os, "cpu_count", lambda: 3)  # --workers 3 on any host
    good = [json.dumps(r) for r in _seed_rows(2 * POOL_BATCH + 20)]

    def dataset(name, bad):
        lines = list(good)
        for line_no, line in bad.items():
            lines.insert(line_no - 1, line)
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    bad = {1: "{broken", 6: "{broken", 301: json.dumps(dict(ROWS[0], label=2)), 521: "[1, 2]"}
    path = dataset("data.jsonl", bad)
    third = dataset("third.jsonl", {521: "[1, 2]"})
    runs = []
    for workers in ("1", "2", "3"):
        out_dir = tmp_path / f"eval-{workers}"
        model = ["--model", str(seed_bundle_path), "--workers", workers]
        judge_args = ["judge", "--dataset", str(path), *model]
        eval_args = ["eval", "--dataset", str(path), "--metric", "em,f1", "--workers", workers]
        assert main([*judge_args, "--skip-bad"]) == 0
        judged = capsys.readouterr()
        timing = judged.err.splitlines()[-1]
        assert timing.startswith(f"judged {2 * POOL_BATCH + 20} examples in ")
        assert main([*eval_args, "--skip-bad", "--out", str(out_dir)]) == 0
        evaluated = capsys.readouterr()
        reports = [(out_dir / name).read_bytes() for name in ("report.csv", "report.json")]
        runs.append((judged.out, judged.err.removesuffix(timing + "\n"), evaluated, reports))
        skipped = [l for l in evaluated.err.splitlines() if l.startswith("skipping bad line: ")]
        assert len(skipped) == len(bad)
        for line, line_no in zip(skipped, bad):
            assert line.startswith(f"skipping bad line: {path}:{line_no}: ")
        for data, line_no in ((path, 1), (third, 521)):
            for args in (judge_args, eval_args):
                args = [*args[:2], str(data), *args[3:]]
                assert main(args) == 1
                err = capsys.readouterr().err
                assert err.startswith(f"pedants: error: {data}:{line_no}: "), (args, err)
                assert err.count("\n") == 1
    assert runs[0] == runs[1] == runs[2]
    assert runs[0][1] == runs[0][2].err


def test_judge_reads_a_file_that_starts_with_a_bom(tmp_path, dataset, seed_bundle_path):
    # a UTF-8 byte order mark before the header or the first record is dropped
    text = dataset.read_text(encoding="utf-8")
    common = ["judge", "--model", str(seed_bundle_path), "--out"]
    plain, bom = tmp_path / "plain.jsonl", tmp_path / "bom.jsonl"
    assert main([*common, str(plain), "--dataset", str(dataset)]) == 0
    for head in ("# pedants-jsonl v1\n", ""):
        path = tmp_path / "bom-data.jsonl"
        path.write_text("\ufeff" + head + text, encoding="utf-8")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert main([*common, str(bom), "--dataset", str(path)]) == 0
        assert bom.read_bytes() == plain.read_bytes()


def test_block_gives_one_result_per_line_and_each_bad_lines_error():
    # the one judging path: results in line order, a bad line's DatasetError
    # in its place, and all of them as they were after a pickle round trip,
    # as a pool worker sends them back
    from pedants.cli import _JudgeBlock
    from pedants.errors import DatasetError

    good = json.dumps({"question": "q", "references": ["Paris"], "candidate": "paris"})
    block = _JudgeBlock("data.jsonl", metrics=["em"])
    results = block([(1, good), (2, "{broken"), (4, "[1, 2]"), (5, good)])
    assert results[0] == results[3] == '{"correct": true}'
    assert [type(r) for r in results[1:3]] == [DatasetError] * 2
    assert str(results[2]) == "data.jsonl:4: expected a JSON object, got list"
    assert block([]) == []
    returned = pickle.loads(pickle.dumps(results))
    assert [str(r) for r in returned] == [str(r) for r in results]
    assert [(e.message, e.path, e.line_no) for e in returned[1:3]] == [
        (e.message, "data.jsonl", e.line_no) for e in results[1:3]
    ]
    assert [e.line_no for e in returned[1:3]] == [2, 4]


def test_block_with_a_bad_line_is_freed_without_a_collection():
    # a bad line's error is kept without the frames it was raised through,
    # which would hold the block's results until a collection
    from pedants.cli import _JudgeBlock

    class Marker:
        pass

    class Marked(_JudgeBlock):
        def results(self, examples):
            return [Marker() for _ in examples]

    good = json.dumps({"question": "q", "references": ["Paris"], "candidate": "paris"})
    enabled = gc.isenabled()
    gc.disable()
    try:
        results = Marked("data.jsonl", metrics=["em"])([(1, good), (2, "[1, 2]")])
        marker, error = weakref.ref(results[0]), results[1]
        del results
        assert marker() is None
    finally:
        if enabled:
            gc.enable()
    assert str(error) == "data.jsonl:2: expected a JSON object, got list"


def test_pedants_alone_makes_no_string_records(seed_corpus, seed_bundle_path, monkeypatch):
    import pedants.cli as cli

    calls = []
    string_records = cli._Block._string_records

    def counted(self, *args):
        calls.append(args)
        return string_records(self, *args)

    monkeypatch.setattr(cli._Block, "_string_records", counted)
    block = cli._Block("", "pedants", 0.5, ["pedants"], PedantsModel.load(seed_bundle_path))
    assert [list(r) for r in block.records(seed_corpus)] == [["pedants"]] * len(seed_corpus)
    assert calls == []


def _double(block):
    return [2 * x for x in block]


def _stamped(block):
    """Each item doubled, with the time its block was done; the block
    holding item 0 is done last."""
    if block[0] == 0:
        time.sleep(0.5)
    done = time.monotonic()
    return [(2 * x, done) for x in block]


def _fail_second_block(block):
    if block[0] == POOL_BATCH:
        raise ValueError("second block")
    return _double(block)


def test_pool_keeps_order_when_later_blocks_finish_first():
    n = 4 * POOL_BATCH + 3
    blocks = list(_map_ordered(_stamped, iter(range(n)), 2))
    assert [len(block) for block in blocks] == [POOL_BATCH] * 4 + [3]
    assert [doubled for block in blocks for doubled, _ in block] == [2 * x for x in range(n)]
    done = [block[0][1] for block in blocks]  # one stamp per block
    assert min(done[1:]) < done[0]


def test_pool_reads_ahead_two_blocks_per_worker_and_no_more():
    workers, drawn = 2, 0

    def items():
        nonlocal drawn
        for i in range(10 * POOL_BATCH + 7):
            drawn += 1
            yield i

    ahead, consumed = [], 0
    for block in _map_ordered(_double, items(), workers):
        assert block == [2 * x for x in range(consumed, consumed + len(block))]
        ahead.append(drawn - consumed)  # items read, and not yet handed out
        consumed += len(block)
    assert consumed == 10 * POOL_BATCH + 7
    # the first block waits for 2 x workers blocks read, no fewer or more
    assert ahead[0] == 2 * workers * POOL_BATCH
    assert max(ahead) <= 2 * workers * POOL_BATCH


def _mark_done(block):
    """Each item unchanged, after a pause; then the block's file exists."""
    time.sleep(0.2)
    directory, first = block[0]
    (directory / str(first)).touch()
    return block


def test_pool_lets_every_sent_block_finish_when_its_caller_stops(tmp_path):
    # the pool's terminate can hang while its task thread is still sending a
    # block, so when the caller stops early (a bad line's error), each block
    # already sent to the pool finishes first
    items = ((tmp_path, i) for i in range(10 * POOL_BATCH))
    pairs = _map_ordered(_mark_done, items, 2)
    next(pairs)
    pairs.close()
    assert sorted(int(p.name) for p in tmp_path.iterdir()) == [k * POOL_BATCH for k in range(4)]


def test_pooled_run_leaves_no_object_frozen():
    # the parent's objects are frozen while the pool runs, and thawed when
    # it closes, also when a block fails
    items = range(3 * POOL_BATCH)
    blocks = _map_ordered(_double, iter(items), 2)
    assert [y for block in blocks for y in block] == [2 * x for x in items]
    assert gc.get_freeze_count() == 0
    with pytest.raises(ValueError, match="second block"):
        list(_map_ordered(_fail_second_block, iter(items), 2))
    assert gc.get_freeze_count() == 0


class _Watched:
    """An item a weak reference can watch."""


def _ones(block):
    return [1] * len(block)


def test_pool_keeps_no_block_it_has_sent():
    # after the sixth block, no local of the generator is a list of items,
    # and the items of the first two blocks, read before the pool started,
    # are freed
    watched = []

    def items():
        for _ in range(10 * POOL_BATCH):
            item = _Watched()
            watched.append(weakref.ref(item))
            yield item

    blocks = _map_ordered(_ones, items(), 2)
    for _ in range(6):
        assert next(blocks) == [1] * POOL_BATCH
    held = [v for v in blocks.gi_frame.f_locals.values() if isinstance(v, list) and v]
    assert held == []
    assert [ref for ref in watched[:2 * POOL_BATCH] if ref() is not None] == []
    blocks.close()


@pytest.mark.parametrize("size", [1, POOL_BATCH])
def test_one_block_starts_no_pool(tmp_path, seed_bundle_path, size, monkeypatch, capsys):
    path = tmp_path / "data.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in _seed_rows(size)))
    common = ["--dataset", str(path), "--model", str(seed_bundle_path)]

    def outputs(workers):
        out, out_dir = tmp_path / f"judged-{workers}.jsonl", tmp_path / f"eval-{workers}"
        assert main(["judge", *common, "--out", str(out), "--workers", workers]) == 0
        assert main(["eval", *common, "--out", str(out_dir), "--workers", workers]) == 0
        return out.read_bytes(), (out_dir / "report.json").read_bytes()

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    serial = outputs("1")
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    assert outputs("2") == serial
    assert f"judged {size} examples" in capsys.readouterr().err


def _process(*argv, env=(), **kwargs) -> subprocess.CompletedProcess:
    """Run ``python -m pedants`` with ``argv``, which ends with os._exit once
    its output is flushed, and with the variables of ``env`` set besides.
    PYTHONUNBUFFERED is unset, so that stdout holds output in its buffer
    until that flush; the timeout fails a run that a process left alive (a
    pool worker) would keep from ending."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"} | dict(env)
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run(
        [sys.executable, "-m", "pedants", *map(str, argv)],
        stderr=subprocess.PIPE, env=env, timeout=120, **kwargs,
    )


@pytest.mark.parametrize("workers", ["1", "2"])
def test_process_stdout_is_flushed_before_the_exit(tmp_path, many, workers):
    out = tmp_path / "judged.jsonl"
    common = ["judge", "--metric", "f1", "--dataset", many, "--workers", workers]
    assert _process(*common, "--out", out).returncode == 0
    proc = _process(*common)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == out.read_bytes()
    assert len(proc.stdout.splitlines()) == 1 + 2 * POOL_BATCH + 5  # the header, then each record


def test_process_exit_code_of_a_bad_line(tmp_path, many, seed_bundle_path):
    out = tmp_path / "judged.jsonl"
    common = ["judge", "--model", seed_bundle_path, "--workers", "2", "--out", out]
    assert _process(*common, "--dataset", many).returncode == 0
    bad = tmp_path / "bad.jsonl"
    bad.write_text(many.read_text() + '{"question": "q", "references": ["a"]}\n')
    proc = _process(*common, "--dataset", bad)
    assert proc.returncode == 1
    line = 2 * POOL_BATCH + 6  # in the third block, judged while the pool runs
    assert f"pedants: error: {bad}:{line}: missing required field 'candidate'" in proc.stderr.decode()
    assert b"Traceback" not in proc.stderr


def test_process_judging_to_stdout_stops_at_a_bad_line_for_any_worker_count(tmp_path, many):
    # every record before the bad line is printed, as its block's results
    # are written before the bad line's error is raised
    bad = tmp_path / "bad.jsonl"
    bad.write_text(many.read_text() + "{broken\n" + many.read_text())
    runs = [_process("judge", "--metric", "f1", "--dataset", bad, "--workers", w) for w in "12"]
    assert [proc.returncode for proc in runs] == [1, 1]
    assert runs[0].stdout == runs[1].stdout
    assert len(runs[0].stdout.splitlines()) == 1 + 2 * POOL_BATCH + 5
    assert runs[0].stderr == runs[1].stderr
    assert runs[0].stderr.decode().startswith(f"pedants: error: {bad}:{2 * POOL_BATCH + 6}: ")


def test_process_with_a_pool_ends_with_its_workers(many):
    proc = _process("eval", "--metric", "em,f1", "--dataset", many, "--workers", "2")
    assert proc.returncode == 0, proc.stderr
    assert f"n={2 * POOL_BATCH + 5}" in proc.stdout.decode()


@pytest.mark.parametrize(
    "argv",
    [
        ["judge", "--metric", "f1"],
        ["judge", "--metric", "f1", "--workers", "2"],
        ["eval", "--metric", "em,f1", "--workers", "2"],
    ],
    ids=["judge", "judge-workers-2", "eval-workers-2"],
)
def test_process_with_a_closed_stdout_pipe_exits_quietly(many, argv):
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _process(*argv, "--dataset", many, stdout=write)
    finally:
        os.close(write)
    assert proc.returncode == 0
    assert b"Traceback" not in proc.stderr
    assert b"Exception ignored" not in proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_process_stdout_that_cannot_be_written_is_an_error(dataset):
    with open("/dev/full", "wb") as full:
        proc = _process("judge", "--metric", "f1", "--dataset", dataset, stdout=full)
    assert proc.returncode == 1
    assert proc.stderr.decode().endswith("pedants: error: [Errno 28] No space left on device\n")


def test_process_trains_the_same_bytes_under_any_string_hash_seed(tmp_path):
    # the bundle does not depend on set or dict order, at the default seed or
    # another; and the training seed, unlike the string-hash seed, moves it
    bundles = {}
    for seed in ("default", "7"):
        for hash_seed in ("1", "2"):
            out = tmp_path / f"bundle-{seed}-hash{hash_seed}.json"
            argv = ["train", "--out", out] + (["--seed", seed] if seed != "default" else [])
            proc = _process(*argv, env={"PYTHONHASHSEED": hash_seed})
            assert proc.returncode == 0, proc.stderr
            bundles[seed, hash_seed] = out.read_bytes()
    assert bundles["default", "1"] == bundles["default", "2"]
    assert bundles["7", "1"] == bundles["7", "2"]
    assert bundles["7", "1"] != bundles["default", "1"]


def test_process_trains_a_wide_corpus_to_a_bundle_that_saves_back_to_its_bytes(
    tmp_path, monkeypatch
):
    # the benchmark's train-wide corpus: 2,000 records over a 3,000-word
    # vocabulary, from its generator, which imports no pedants module
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    gen = importlib.import_module("gen")
    corpus, bundle, resaved = (tmp_path / name for name in ("wide.jsonl", "wide.json", "re.json"))
    corpus.write_text("".join(json.dumps(r) + "\n" for r in gen.train_wide(11, 2000, 3000)[0]))
    proc = _process("train", "--corpus", corpus, "--out", bundle)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().startswith("trained on 2000 examples from ")
    PedantsModel.load(bundle).save(resaved)
    assert resaved.read_bytes() == bundle.read_bytes()


def _seed_copy(path, edit):
    """The seed corpus with each record line replaced by ``edit(line_no, record)``."""
    lines = SEED_CORPUS.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(
        line if line.startswith("#") else json.dumps(edit(n, json.loads(line))) + "\n"
        for n, line in enumerate(lines, 1)
    ), encoding="utf-8")
    return path


@pytest.mark.parametrize("command", ["judge", "eval-prejudged", "rank", "sweep"])
def test_process_writes_the_same_bytes_under_any_string_hash_seed(
    command, tmp_path, seed_bundle_path
):
    # no output depends on set or dict order: the pedants judge's, a
    # pre-judged eval's whose --metric names one verdict the file has and one
    # it lacks, rank's over five model_ids and sweep's
    argv = {
        "judge": ["judge", "--model", seed_bundle_path, "--dataset", SEED_CORPUS],
        "eval-prejudged": ["eval", "--metric", "em,rouge", "--dataset", _seed_copy(
            tmp_path / "prejudged.jsonl",
            lambda n, row: dict(row, verdicts={"em": n % 2 == 1, "bertscore": n % 3 != 0}),
        )],
        "rank": ["rank", "--model", seed_bundle_path, "--dataset", _seed_copy(
            tmp_path / "ranked.jsonl", lambda n, row: dict(row, model_id=f"m{n % 5}")
        )],
        "sweep": ["sweep", "--dataset", SEED_CORPUS],
    }[command]
    runs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / hash_seed / "out"
        out.parent.mkdir()
        proc = _process(*argv, "--out", out, env={"PYTHONHASHSEED": hash_seed})
        assert proc.returncode == 0, proc.stderr
        files = [out] if out.is_file() else sorted(out.iterdir())
        runs.append((proc.stdout, {f.name: f.read_bytes() for f in files}))
    assert runs[0] == runs[1]
    if command == "eval-prejudged":
        assert [r["metric"] for r in json.loads(runs[0][1]["report.json"])] == ["em"]


def test_process_eval_of_a_rated_or_bom_prefixed_copy_is_the_labeled_report(tmp_path):
    # ratings 4 and 3 straddle the one Likert cutoff as labels 1 and 0 do,
    # under either string-hash seed; a UTF-8 byte order mark is dropped
    rated = _seed_copy(tmp_path / "rated.jsonl", lambda n, row: {
        **{k: v for k, v in row.items() if k != "label"}, "rating": 4 if row["label"] else 3
    })
    bom = tmp_path / "bom.jsonl"
    bom.write_bytes(b"\xef\xbb\xbf" + SEED_CORPUS.read_bytes())
    reports = []
    for data, hash_seed in ((SEED_CORPUS, "1"), (rated, "1"), (rated, "2"), (bom, "1")):
        out = tmp_path / f"{data.stem}-{hash_seed}"
        proc = _process("eval", "--metric", "em,f1", "--dataset", data, "--out", out,
                        env={"PYTHONHASHSEED": hash_seed})
        assert proc.returncode == 0, proc.stderr
        reports.append([(out / f"report.{ext}").read_bytes() for ext in ("csv", "json")])
    assert reports[1] == reports[2] == reports[3] == reports[0]


def test_process_eval_beside_the_pedants_metric_is_the_same_for_any_worker_count(
    tmp_path, seed_bundle_path
):
    # the seed corpus ten times over, 570 records in three blocks, so that
    # --workers 2 starts a pool; under --norm pedants em and f1 read the
    # judge's preparation
    multi = tmp_path / "multi.jsonl"
    multi.write_bytes(SEED_CORPUS.read_bytes() * 10)
    runs = []
    for workers in ("1", "2"):
        out = tmp_path / f"eval-{workers}"
        proc = _process("eval", "--workers", workers, "--metric", "em,f1,pedants",
                        "--norm", "pedants", "--model", seed_bundle_path, "--dataset", multi,
                        "--out", out)
        assert proc.returncode == 0, proc.stderr
        reports = [(out / f"report.{ext}").read_bytes() for ext in ("csv", "json")]
        runs.append([proc.stdout, *reports])
    assert runs[0] == runs[1]
    assert [r["examples"] for r in json.loads(runs[0][2])] == [570] * 3
