import json

import pytest

from pedants import io
from pedants.errors import DatasetError
from pedants.pipeline import QuestionType, RuleLabel


def _write(tmp_path, lines, name="data.jsonl"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_open_atomic_replaces_on_success_and_keeps_target_on_failure(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("old\n")
    with pytest.raises(RuntimeError):
        with io.open_atomic(target) as handle:
            handle.write("partial")
            raise RuntimeError("boom")
    assert target.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
    with io.open_atomic(target) as handle:
        handle.write("new\n")
    assert target.read_text() == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_read_examples_round_trip(tmp_path):
    record = {
        "question": "Who?",
        "references": ["a", "b"],
        "candidate": "c",
        "label": 1,
        "rule": "R1",
        "qtype": "who",
        "model_id": "m",
    }
    path = _write(tmp_path, [io.JSONL_HEADER, json.dumps(record)])
    examples = io.read_examples(path)
    assert len(examples) == 1
    ex = examples[0]
    assert ex.references == ("a", "b")
    assert ex.human_label is True
    assert ex.rule is RuleLabel.R1
    assert ex.qtype is QuestionType.WHO
    assert ex.model_id == "m"


def test_comment_and_blank_lines_skipped(tmp_path):
    path = _write(
        tmp_path,
        [
            "# any comment",
            "",
            json.dumps({"question": "q", "references": ["a"], "candidate": "c"}),
        ],
    )
    assert len(io.read_examples(path)) == 1


def test_malformed_line_reports_line_number(tmp_path):
    path = _write(
        tmp_path,
        [
            json.dumps({"question": "q", "references": ["a"], "candidate": "c"}),
            "{not json",
        ],
    )
    with pytest.raises(DatasetError) as exc:
        io.read_examples(path)
    assert exc.value.line_no == 2


@pytest.mark.parametrize(
    "record",
    [
        {"references": ["a"], "candidate": "c"},  # missing question
        {"question": "q", "candidate": "c"},  # missing references
        {"question": "q", "references": [], "candidate": "c"},  # empty references
        {"question": "q", "references": "a", "candidate": "c"},  # wrong type
        {"question": "q", "references": ["a"]},  # missing candidate
        {"question": "q", "references": ["a"], "candidate": "c", "label": 2},
    ],
)
def test_invalid_records_rejected(tmp_path, record):
    path = _write(tmp_path, [json.dumps(record)])
    with pytest.raises(DatasetError) as exc:
        io.read_examples(path)
    assert exc.value.line_no == 1


def test_skip_bad_collects_errors(tmp_path):
    path = _write(
        tmp_path,
        [
            "not json at all",
            json.dumps({"question": "q", "references": ["a"], "candidate": "c"}),
            json.dumps({"question": "q2", "references": [], "candidate": "c"}),
        ],
    )
    seen = []
    examples = [ex for _, ex in io.iter_examples(path, skip_bad=True, on_skip=seen.append)]
    assert len(examples) == 1
    assert [err.line_no for err in seen] == [1, 3]


def test_rating_converts_to_label(tmp_path):
    rows = [
        {"question": "q", "references": ["a"], "candidate": "c", "rating": 4},
        {"question": "q", "references": ["a"], "candidate": "c", "rating": 3},
        {"question": "q", "references": ["a"], "candidate": "c", "rating": 2, "label": 1},
    ]
    path = _write(tmp_path, [json.dumps(r) for r in rows])
    examples = io.read_examples(path)
    assert [ex.human_label for ex in examples] == [True, False, True]  # label wins


def test_write_jsonl_emits_header(tmp_path):
    path = tmp_path / "out.jsonl"
    with path.open("w") as handle:
        n = io.write_jsonl(handle, [{"x": 1}, {"x": 2}])
    assert n == 2
    lines = path.read_text().splitlines()
    assert lines[0] == io.JSONL_HEADER
    assert [json.loads(l)["x"] for l in lines[1:]] == [1, 2]


def test_seed_corpus_is_fully_annotated():
    corpus = io.load_seed_corpus()
    assert all(
        ex.human_label is not None and ex.rule is not None and ex.qtype is not None
        for ex in corpus
    )
    per_rule: dict[RuleLabel, list[bool]] = {}
    for ex in corpus:
        per_rule.setdefault(ex.rule, []).append(ex.human_label)
    assert set(per_rule) == set(RuleLabel)
    for rule, labels in per_rule.items():
        assert len(labels) >= 5, rule
        if rule is not RuleLabel.R6:  # strictly-incorrect rule is unbalanced by design
            assert any(labels), rule
    assert not any(per_rule[RuleLabel.R6])
    assert {ex.qtype for ex in corpus} == set(QuestionType)


def test_report_writers(tmp_path):
    rows = [{"metric": "em", "accuracy": 0.5}, {"metric": "f1", "accuracy": 0.75}]
    csv_path = tmp_path / "report.csv"
    json_path = tmp_path / "report.json"
    io.write_report_csv(csv_path, rows)
    io.write_report_json(json_path, rows)
    assert csv_path.read_text().splitlines()[0] == "metric,accuracy"
    assert json.loads(json_path.read_text()) == rows


def test_read_examples_reports_skips(tmp_path):
    path = _write(
        tmp_path,
        ["{bad", json.dumps({"question": "q", "references": ["a"], "candidate": "c"})],
    )
    seen = []
    assert len(io.read_examples(path, skip_bad=True, on_skip=seen.append)) == 1
    assert [err.line_no for err in seen] == [1]


def test_dataset_error_prefixes():
    assert str(DatasetError("boom", path="d.jsonl", line_no=3)) == "d.jsonl:3: boom"
    assert str(DatasetError("boom", path="d.jsonl")) == "d.jsonl: boom"
    assert str(DatasetError("boom")) == "boom"
