"""The record types, JSONL dataset ingestion, result emission, and report
writing.

Dataset files hold one JSON object per line. Lines starting with "#" are
schema/version comments and are skipped. A record needs "question",
"references" (non-empty array), and "candidate"; optional fields are
"label" (0/1), "rating" (Likert 1-5, converted to a label at the cutoff
when "label" is absent), "rule", "qtype", "model_id", "dataset_id", and
"verdicts" (metric name -> bool, for pre-judged evaluation files).

``QAExample.from_dict`` is the one parser of a record, ``QAExample``'s
constructor the one check of its fields, and ``example_from_dict`` names the
parser for the readers. ``iter_raw`` is the one loop over a file's lines: a
line that is not UTF-8, not a JSON object, or that the caller's parse
rejects is a DatasetError naming ``file:line``, or is reported and skipped
with ``skip_bad``. The other readers here, the bundled
seed corpus's among them, are ``iter_raw`` with ``example_from_dict``; the
CLI's parse adds the fields each command requires.
"""

from __future__ import annotations

import contextlib
import csv
import errno
import importlib.resources
import json
import os
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Iterator, TextIO

from .errors import DatasetError, EmptyReferences
from .harness import likert_to_binary

JSONL_HEADER = "# pedants-jsonl v1"
LIKERT_CUTOFF = 4
# The seed of training's shuffle when none is given; with the bundled seed
# corpus it makes the default model.
DEFAULT_SEED = 668


class _Coded(Enum):
    """A label enum whose members' codes 0..n-1 follow declaration order."""

    @property
    def code(self) -> int:
        return _CODES[self]

    @classmethod
    def from_code(cls, code: int) -> "_Coded":
        return _MEMBERS[cls][code]


class QuestionType(_Coded):
    """The seven wh-categories a question can fall into."""

    WHO = "who"
    WHY = "why"
    HOW = "how"
    WHAT = "what"
    WHEN = "when"
    WHERE = "where"
    WHICH = "which"


class RuleLabel(_Coded):
    """The seven answer-correctness rules, R1..R7."""

    R1 = "R1"  # entity aliasing
    R2 = "R2"  # numerical information
    R3 = "R3"  # less details
    R4 = "R4"  # more details
    R5 = "R5"  # semantic equivalence
    R6 = "R6"  # irrelevant information
    R7 = "R7"  # other possible answers


# Each label enum's members in code order, and each member's code.
_MEMBERS = {enum: list(enum) for enum in (QuestionType, RuleLabel)}
_CODES = {member: code for members in _MEMBERS.values() for code, member in enumerate(members)}

# The type of each field but the references; all but the first two may be None.
_FIELD_TYPES = {
    "question": str, "candidate": str, "human_label": bool, "rule": RuleLabel,
    "qtype": QuestionType, "model_id": str, "dataset_id": str,
}


@dataclass
class QAExample:
    """One judging instance: a question, reference answer(s), a candidate."""

    question: str
    references: tuple[str, ...]
    candidate: str
    human_label: bool | None = None
    rule: RuleLabel | None = None
    qtype: QuestionType | None = None
    model_id: str | None = None
    dataset_id: str | None = None

    def __post_init__(self):
        """The one check of an example's fields, read or built: each that
        is not of its type raises ValueError naming it."""
        if isinstance(self.references, str):
            raise ValueError("references must be a sequence of strings, not one string")
        self.references = tuple(self.references)
        if not self.references:
            raise EmptyReferences("a QAExample needs at least one reference answer")
        if not all(isinstance(r, str) for r in self.references):
            raise ValueError("'references' must be a non-empty array of strings")
        for key, kind in _FIELD_TYPES.items():
            value = getattr(self, key)
            optional = key not in ("question", "candidate")
            if not isinstance(value, kind) and not (optional and value is None):
                name = "a string" if kind is str else f"a {kind.__name__}"
                raise ValueError(f"{key!r} must be {name}, got {type(value).__name__}")

    def to_dict(self) -> dict:
        """The example as a record: its fields that are set, enums by value."""
        out = {
            "question": self.question,
            "references": list(self.references),
            "candidate": self.candidate,
            "label": None if self.human_label is None else int(self.human_label),
            "rule": self.rule and self.rule.value,
            "qtype": self.qtype and self.qtype.value,
            "model_id": self.model_id,
            "dataset_id": self.dataset_id,
        }
        return {key: value for key, value in out.items() if value is not None}

    @classmethod
    def from_dict(cls, obj: dict) -> "QAExample":
        """Parse one dataset record, checking it against the rules in the
        module docstring; a record that breaks one raises ValueError saying
        which. A "rating" gives the label when "label" is absent."""
        if not isinstance(obj, dict):
            raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
        for key in ("question", "references", "candidate"):
            if key not in obj:
                raise ValueError(f"missing required field {key!r}")
        refs = obj["references"]
        if not isinstance(refs, list) or not refs:
            raise ValueError("'references' must be a non-empty array of strings")
        label = obj.get("label")
        if label is not None and label not in (0, 1, True, False):
            raise ValueError(f"'label' must be 0 or 1, got {label!r}")
        rating = obj.get("rating")
        if rating is not None and (
            isinstance(rating, bool) or not isinstance(rating, (int, float)) or not 1 <= rating <= 5
        ):
            raise ValueError(f"'rating' must be a number from 1 to 5, got {rating!r}")
        if label is None and rating is not None:
            label = likert_to_binary(rating, LIKERT_CUTOFF)
        rule, qtype = obj.get("rule"), obj.get("qtype")
        return cls(
            question=obj["question"],
            references=refs,
            candidate=obj["candidate"],
            human_label=None if label is None else bool(label),
            rule=None if rule is None else RuleLabel(rule),
            qtype=None if qtype is None else QuestionType(qtype),
            model_id=obj.get("model_id"),
            dataset_id=obj.get("dataset_id"),
        )


# the record parser under the name the dataset readers use
example_from_dict = QAExample.from_dict


def iter_raw(
    path: str | Path,
    skip_bad: bool = False,
    on_skip: Callable[[DatasetError], None] | None = None,
    parse: Callable[[dict], object] | None = None,
) -> Iterator[tuple[int, object]]:
    """Stream (line_no, record) pairs from a JSONL file: each line's JSON
    object, or what ``parse`` makes of it.

    A line that is malformed (invalid UTF-8 among them), not an object, or
    that ``parse`` rejects raises DatasetError with its 1-based line number;
    with ``skip_bad`` it is reported through ``on_skip`` and skipped. Memory
    use is one line at a time.
    """
    path = Path(path)
    # bytes that are not UTF-8 read as lone surrogates, so a bad line does not
    # end the file; decoding the line again raises the codec's error for it
    with path.open("r", encoding="utf-8", errors="surrogateescape") as handle:
        for line_no, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                if not stripped.isascii():
                    stripped.encode("utf-8", "surrogateescape").decode("utf-8")
                obj = json.loads(stripped)
                if not isinstance(obj, dict):
                    raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
                if parse is not None:
                    obj = parse(obj)
            except Exception as exc:
                err = DatasetError(str(exc), path=str(path), line_no=line_no)
                if not skip_bad:
                    raise err from exc
                if on_skip is not None:
                    on_skip(err)
                continue
            yield line_no, obj


def iter_examples(
    path: str | Path,
    skip_bad: bool = False,
    on_skip: Callable[[DatasetError], None] | None = None,
) -> Iterator[tuple[int, QAExample]]:
    """Stream validated (line_no, QAExample) pairs from a JSONL file."""
    return iter_raw(path, skip_bad, on_skip, example_from_dict)


def read_examples(
    path: str | Path,
    skip_bad: bool = False,
    on_skip: Callable[[DatasetError], None] | None = None,
) -> list[QAExample]:
    return [ex for _, ex in iter_examples(path, skip_bad=skip_bad, on_skip=on_skip)]


class DatasetFile:
    """Handle to a JSONL dataset; records validate lazily while streaming."""

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def records(
        self,
        skip_bad: bool = False,
        on_skip: Callable[[DatasetError], None] | None = None,
    ) -> Iterator[tuple[int, QAExample]]:
        yield from iter_examples(self.path, skip_bad=skip_bad, on_skip=on_skip)


def reject_directory(path: str | Path) -> None:
    """Raise IsADirectoryError, naming ``path`` as given, if it is a
    directory, which no output file can replace."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))


@contextlib.contextmanager
def open_atomic(path: str | Path, newline: str | None = None) -> Iterator[TextIO]:
    """Open a temp file beside ``path`` for writing text; when the block
    ends it replaces ``path``, and when the block raises it is removed and
    ``path`` is left as it was. A ``path`` that is a directory is refused
    before the block runs; an error in creating, writing or moving the
    temp file names ``path``."""
    reject_directory(path)
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8", newline=newline) as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):  # the temp file's error, not this, is raised
            tmp.unlink()
        if isinstance(exc, OSError) and exc.filename == str(tmp):
            raise type(exc)(exc.errno, exc.strerror, str(path)) from None
        raise


def write_jsonl(handle: TextIO, records: Iterable[dict]) -> int:
    """Write records as JSON lines after the schema comment; returns the count."""
    handle.write(JSONL_HEADER + "\n")
    n = 0
    for record in records:
        handle.write(json.dumps(record) + "\n")
        n += 1
    return n


def load_seed_corpus() -> list[QAExample]:
    """The bundled hand-labeled training corpus (>= 5 examples per rule)."""
    resource = importlib.resources.files("pedants").joinpath("data/seed_corpus.jsonl")
    with importlib.resources.as_file(resource) as path:
        return read_examples(path)


def write_report_csv(path: str | Path, rows: list[dict]) -> None:
    if not rows:
        raise ValueError("no report rows to write")
    with open_atomic(path, newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def write_report_json(path: str | Path, rows: list[dict]) -> None:
    with open_atomic(path) as handle:
        handle.write(json.dumps(rows, indent=2) + "\n")
