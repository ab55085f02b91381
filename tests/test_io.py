import json
import re

import numpy as np
import pytest

from pedants import io
from pedants.errors import DatasetError
from pedants.harness import likert_to_binary
from pedants.io import QAExample, QuestionType, RuleLabel


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


MISTYPED_FIELDS = [
    ({"references": [None]}, "'references' must be a non-empty array of strings"),
    ({"references": [b"a"]}, "'references' must be a non-empty array of strings"),
    ({"question": 5}, "'question' must be a string, got int"),
    ({"candidate": None}, "'candidate' must be a string, got NoneType"),
    ({"human_label": "yes"}, "'human_label' must be a bool, got str"),
    ({"human_label": 1}, "'human_label' must be a bool, got int"),
    ({"rule": "R1"}, "'rule' must be a RuleLabel, got str"),
    ({"qtype": "who"}, "'qtype' must be a QuestionType, got str"),
    ({"model_id": 7}, "'model_id' must be a string, got int"),
    ({"dataset_id": ["d"]}, "'dataset_id' must be a string, got list"),
    # a type from outside builtins is named with its module: numpy 2 names
    # its bool "bool", which alone would read as Python's
    (
        {"human_label": np.True_},
        f"'human_label' must be a bool, got numpy.{type(np.True_).__name__}",
    ),
]


@pytest.mark.parametrize(
    "fields, message", MISTYPED_FIELDS, ids=[f"fields{i}" for i in range(len(MISTYPED_FIELDS))]
)
def test_constructor_checks_every_field(fields, message):
    # the constructor, not only the record parser, rejects a mistyped field
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        QAExample(**{"question": "q", "references": ["a"], "candidate": "c", **fields})


def test_seed_corpus_records_round_trip():
    corpus = io.load_seed_corpus()
    assert corpus
    for ex in corpus:
        assert QAExample.from_dict(ex.to_dict()) == ex


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
    # a UTF-8 byte order mark at the start of a file, before its header or
    # its first record, is dropped
    for prefix in (io.JSONL_HEADER + "\n", "\ufeff" + io.JSONL_HEADER + "\n", "\ufeff"):
        path = _write(tmp_path, [prefix + json.dumps(record)])
        examples = io.read_examples(path)
        assert len(examples) == 1
        ex = examples[0]
        assert ex.references == ("a", "b")
        assert ex.human_label is True
        assert ex.rule is RuleLabel.R1
        assert ex.qtype is QuestionType.WHO
        assert ex.model_id == "m"
    # one after the start is a bad line
    path = _write(tmp_path, [json.dumps(record), "\ufeff" + json.dumps(record)])
    with pytest.raises(DatasetError, match=r":2: Unexpected UTF-8 BOM"):
        io.read_examples(path)


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
        {"question": 5, "references": ["a"], "candidate": "c"},
        {"question": "q", "references": ["a"], "candidate": None},
        {"question": "q", "references": ["a"], "candidate": "c", "model_id": ["m"]},
        {"question": "q", "references": ["a"], "candidate": "c", "dataset_id": 3},
        {"question": "q", "references": ["a"], "candidate": "c", "rating": True},
        {"question": "q", "references": ["a"], "candidate": "c", "rating": "4"},
        {"question": "q", "references": ["a"], "candidate": "c", "rating": 6},
        {"question": "q", "references": ["a"], "candidate": "c", "rule": "R8"},
        {"question": "q", "references": ["a"], "candidate": "c", "qtype": "whom"},
    ],
)
def test_invalid_records_rejected(tmp_path, record):
    path = _write(tmp_path, [json.dumps(record)])
    with pytest.raises(DatasetError) as read_err:
        io.read_examples(path)
    assert read_err.value.line_no == 1
    # the readers' parser is the library's: the record fails there alike
    with pytest.raises(ValueError) as parse_err:
        QAExample.from_dict(record)
    assert str(read_err.value) == f"{path}:1: {parse_err.value}"


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
    examples = list(io.iter_examples(path, on_skip=seen.append))
    assert len(examples) == 1
    assert [err.line_no for err in seen] == [1, 3]


@pytest.mark.parametrize("newline", [b"\n", b"\r\n"], ids=["lf", "crlf"])
def test_invalid_utf8_is_an_error_of_its_line(tmp_path, newline):
    record = {"question": "q", "references": ["a"], "candidate": "café"}
    good = json.dumps(record, ensure_ascii=False).encode()
    lines = [b"# comment", good, good.replace(b"caf", b"c\xe9f"), b"", b"\xff", good, b""]
    path = tmp_path / "data.jsonl"
    for bom in (b"", b"\xef\xbb\xbf"):  # a leading byte order mark moves no line
        path.write_bytes(bom + newline.join(lines))
        with pytest.raises(DatasetError, match=r":3: 'utf-8' codec can't decode byte 0xe9"):
            list(io.iter_raw(path, dict))
        seen = []
        read = list(io.iter_raw(path, dict, on_skip=seen.append))
        assert read == [record, record]
        assert [err.line_no for err in seen] == [3, 5]


def test_rating_converts_to_label(tmp_path):
    rows = [
        {"question": "q", "references": ["a"], "candidate": "c", "rating": 4},
        {"question": "q", "references": ["a"], "candidate": "c", "rating": 3},
        {"question": "q", "references": ["a"], "candidate": "c", "rating": 2, "label": 1},
    ]
    path = _write(tmp_path, [json.dumps(r) for r in rows])
    for examples in (io.read_examples(path), [QAExample.from_dict(r) for r in rows]):
        assert [ex.human_label for ex in examples] == [True, False, True]  # label wins
    # one cutoff, io's: a rating labels its record as likert_to_binary judges it
    ratings = [1, 3, 3.5, 3.99, 4, 4.5, 5]
    rated = [QAExample.from_dict(dict(rows[0], rating=r)).human_label for r in ratings]
    assert rated == [likert_to_binary(r) for r in ratings] == [r >= 4 for r in ratings]
    assert io.LIKERT_CUTOFF == 4


def test_parse_line_returns_a_bad_lines_error_unraised():
    # built from the message alone, the error holds no traceback, and so no
    # frame of its caller, and chains no parser exception
    assert io.parse_line("data.jsonl", 3, '{"a": 1}', dict) == {"a": 1}
    for line in ("{broken", "[1, 2]", '{"question": "q"}'):
        err = io.parse_line("data.jsonl", 3, line, QAExample.from_dict)
        assert isinstance(err, DatasetError)
        assert (err.path, err.line_no) == ("data.jsonl", 3)
        assert str(err).startswith("data.jsonl:3: ")
        assert err.__traceback__ is None and err.__cause__ is None and err.__context__ is None


def test_a_line_that_is_not_an_object_names_its_line(tmp_path):
    path = _write(tmp_path, [json.dumps({"question": "q", "references": ["a"], "candidate": "c"}),
                             "[1, 2]"])
    with pytest.raises(DatasetError, match=r":2: expected a JSON object, got list$"):
        list(io.iter_raw(path, dict))
    # the record parser, which the readers never reach with one, says the same
    with pytest.raises(ValueError, match=r"^expected a JSON object, got list$"):
        QAExample.from_dict([1, 2])


def test_dataset_file_records_are_iter_examples(tmp_path):
    path = _write(
        tmp_path,
        [
            "not json at all",
            json.dumps({"question": "q", "references": ["a"], "candidate": "c", "label": 1}),
            json.dumps({"question": "q2", "references": ["b", "a"], "candidate": "a"}),
        ],
    )
    seen = []
    records = list(io.DatasetFile(path).records(on_skip=seen.append))
    assert records == list(io.iter_examples(path, on_skip=lambda err: None))
    assert [ex.question for ex in records] == ["q", "q2"]
    assert [err.line_no for err in seen] == [1]
    with pytest.raises(DatasetError, match=":1: "):
        list(io.DatasetFile(path).records())


def test_write_jsonl_emits_header(tmp_path):
    path = tmp_path / "out.jsonl"
    with path.open("w") as handle:
        n = io.write_jsonl(handle, [json.dumps({"x": 1}), json.dumps({"x": 2})])
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


def test_no_report_rows_write_no_file(tmp_path):
    path = tmp_path / "report.csv"
    with pytest.raises(ValueError, match="no report rows to write"):
        io.write_report_csv(path, [])
    assert not path.exists()


def test_read_examples_reports_skips(tmp_path):
    path = _write(
        tmp_path,
        ["{bad", json.dumps({"question": "q", "references": ["a"], "candidate": "c"})],
    )
    seen = []
    assert len(io.read_examples(path, on_skip=seen.append)) == 1
    assert [err.line_no for err in seen] == [1]


def test_dataset_error_prefixes():
    assert str(DatasetError("boom", path="d.jsonl", line_no=3)) == "d.jsonl:3: boom"
    assert str(DatasetError("boom", path="d.jsonl")) == "d.jsonl: boom"
    assert str(DatasetError("boom")) == "boom"
