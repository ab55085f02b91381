"""The CLI's contract on files that mix good records with bad lines.

judge, eval, rank --dataset, sweep and train --corpus exit 0 or 1 on any
such file, never 2 (a bug). An exit-1 message names the file, with its
line when one line is at fault: the first line that --skip-bad reports.
Under --skip-bad a command does what it does on the same file with the
reported lines removed, byte for byte.
"""

import json
import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pedants.cli import main
from pedants.io import load_seed_corpus

SETTINGS = settings(
    max_examples=8,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

# the seed corpus, each record with a model_id for rank, as raw lines
GOOD = [
    json.dumps({**ex.to_dict(), "model_id": f"m{i % 3}"}).encode()
    for i, ex in enumerate(load_seed_corpus())
]
FIELDS = ("question", "references", "candidate", "label", "rule", "qtype", "model_id", "verdicts")
WRONG = (5, -1.5, "x", "", [], [1], ["a", 2], {}, {"em": "yes"}, None, True)


def _with(line: bytes, field: str, value: str) -> bytes:
    """``line``'s record with ``field`` set to the JSON text ``value``."""
    return json.dumps({**json.loads(line), field: "@"}).encode().replace(b'"@"', value.encode())


def _flipped(line: bytes, at: int, mask: int) -> bytes:
    """``line`` with one byte xor-ed with ``mask``, and no line break made."""
    at %= len(line)
    byte = line[at] ^ mask
    return line[:at] + bytes([byte if byte not in b"\r\n" else line[at]]) + line[at + 1 :]


# some of them pre-judged, for eval, with a verdict it may not be asked for
JUDGED = [
    _with(line, "verdicts", json.dumps({name: i % 2 == 0}))
    for i, line in enumerate(GOOD[:8])
    for name in ("em", "bleu")
]

good_lines = st.sampled_from(GOOD)
judged_lines = st.sampled_from(JUDGED)
fields = st.sampled_from(FIELDS)
bad_lines = st.one_of(
    st.builds(
        lambda l, f, v: _with(l, f, json.dumps(v)), good_lines, fields, st.sampled_from(WRONG)
    ),
    st.builds(lambda l, f: _with(l, f, "NaN"), good_lines, fields),
    st.builds(lambda l, f: _with(l, f, "1" + "0" * 400), good_lines, fields),
    st.builds(lambda l, f: _with(l, f, "1e400"), good_lines, fields),
    st.builds(lambda l, f: _with(l, f, '"a \\ud800 b"'), good_lines, fields),
    st.builds(lambda l: l.replace(b'"', b'"\xed\xa0\x80', 1), good_lines),
    st.builds(_flipped, good_lines, st.integers(0, 10**4), st.integers(1, 255)),
    st.builds(lambda n: b"[" * n + b"]" * n, st.sampled_from([10, 10**5])),
    st.builds(lambda n: b'{"question": ' + b"{" * n, st.sampled_from([10, 10**5])),
)
files = st.lists(st.one_of(good_lines, good_lines, judged_lines, bad_lines), max_size=24)

COMMANDS = {
    "judge": ["judge", "--metric", "f1", "--dataset", "data.jsonl"],
    "eval": ["eval", "--metric", "em,f1,pedants", "--dataset", "data.jsonl", "--out", "reports"],
    "rank": ["rank", "--metric", "em,f1", "--dataset", "data.jsonl", "--out", "reports"],
    "sweep": ["sweep", "--dataset", "data.jsonl", "--out", "reports"],
    "train": ["train", "--corpus", "data.jsonl", "--out", "bundle.json"],
}
SKIPPED = re.compile(r"^skipping bad line: (data\.jsonl:(\d+): .*)\n", re.M)


def _run(argv, where, lines, monkeypatch, capsys):
    """Exit code, stdout, stderr (judge's timing line cut to its count)
    and written files of ``argv`` run in ``where`` on ``lines``."""
    where.mkdir()
    (where / "data.jsonl").write_bytes(b"".join(line + b"\n" for line in lines))
    monkeypatch.chdir(where)
    code = main(argv)
    out, err = capsys.readouterr()
    err = re.sub(r"(?m)^(judged \d+ examples) in .*$", r"\1", err)
    written = {
        p.relative_to(where).as_posix(): p.read_bytes()
        for p in sorted(where.rglob("*"))
        if p.is_file() and p.name != "data.jsonl"
    }
    return code, out, err, written


@SETTINGS
@given(lines=files)
def test_bad_lines_are_errors_or_skipped_never_bugs(
    lines, seed_bundle_path, tmp_path_factory, monkeypatch, capsys
):
    for name, argv in COMMANDS.items():
        if name == "eval":
            argv = [*argv, "--model", str(seed_bundle_path)]
        root = tmp_path_factory.mktemp(name)
        skipping = _run([*argv, "--skip-bad"], root / "skip", lines, monkeypatch, capsys)
        stopping = _run(argv, root / "stop", lines, monkeypatch, capsys)
        code, out, err, written = skipping
        reported = SKIPPED.findall(err)
        kept = [line for i, line in enumerate(lines, 1) if str(i) not in dict(reported).values()]
        clean = _run(argv, root / "clean", kept, monkeypatch, capsys)
        # the file less its reported lines has no bad line, and gives the same
        assert clean == (code, out, SKIPPED.sub("", err), written), name
        # without --skip-bad, the first reported line stops the command
        if reported:
            assert stopping[0] == 1
            assert stopping[2].splitlines()[-1] == f"pedants: error: {reported[0][0]}", name
        else:
            assert stopping == skipping, name
        for code, _, err, _ in (skipping, stopping):
            assert code in (0, 1), (name, err)
            assert code == 0 or "data.jsonl" in err.splitlines()[-1], (name, err)
