"""The string metrics' CLI outputs on the bundled seed corpus, byte for byte,
and the pedants judge's output on it, field by field; and the outputs of
judge, eval, rank and sweep on that corpus repeated to three blocks, with
one bad line in each, byte for byte.

The string metrics involve no BLAS call and no trained model, so their
bytes are the same on every machine. Each digest is the sha256 of a file the command
wrote, recorded before the normalization policies and the CLI judger were
reduced to what the commands use; a refactor that means to keep every
output must keep every digest.
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

import pedants
from pedants.cli import main

SEED_CORPUS = Path(pedants.__file__).parent / "data" / "seed_corpus.jsonl"

JUDGE_EM = "fb0592ad941b9ed8f1140b236bf55940d6cbc0606370689c0c63665df531aa5d"

GOLDEN = {
    ("judge", "--metric", "em", "--norm", "em"): {"out": JUDGE_EM},
    ("judge", "--metric", "em", "--norm", "pedants"): {"out": JUDGE_EM},
    ("judge", "--metric", "f1", "--norm", "em"): {
        "out": "b9029200ad72a764cdf7ce28a6fced36797aaf01eb53d7b1d3806887a9a29897",
    },
    ("judge", "--metric", "f1", "--norm", "pedants"): {
        "out": "817b54331dcd72b3b5a2f420a2206576adb44ceda4c891a62046fee301271346",
    },
    ("eval", "--metric", "em,f1", "--norm", "em"): {
        "report.csv": "ee9d53b0785b285d4d0094f32e3124085705d1f4916895696183871932dae47c",
        "report.json": "4fc996a3061c9f5f31d8be3c34557b3f711f0f001d14c724176688a09c5aa684",
    },
    ("eval", "--metric", "em,f1", "--norm", "pedants"): {
        "report.csv": "d440baa568e5e3d34b3cc1bfceb2ddb4307fa2c351741bb4689a0b814040b9d5",
        "report.json": "604090de2bdd699a6ac86df757faef77a444410cfdc0890ad5deb653f4f6ee40",
    },
    ("sweep", "--norm", "em"): {
        "sweep.csv": "bb06b2e8d66cd071090f1cfb71b293a161cb1285c36c3a94131204f665a16cef",
        "sweep.json": "938889c8db8ff6b6b33e16058b89251692e6394bc7c1c4330c190622cfe08f4d",
    },
    ("sweep", "--norm", "pedants"): {
        "sweep.csv": "0fc4760fe6b37ed31ca812993252d0cd99e44de2183db575b33d5c8b239adaf9",
        "sweep.json": "ce7655511bb74a5024376cc097ee7e8f3500c9014e86453429ca65881edfe9a6",
    },
}


@pytest.mark.parametrize("argv", GOLDEN, ids=["-".join(a[::2]) for a in GOLDEN])
def test_string_metric_outputs_are_byte_identical(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([*argv, "--dataset", str(SEED_CORPUS), "--out", str(out)]) == 0
    files = [out] if out.is_file() else sorted(out.iterdir())
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files}
    assert digests == GOLDEN[argv]


# The seed bundle's `judge` output on the seed corpus, as written before the
# trainer took the encoder's blocks. Its bits rest on BLAS and numpy's SIMD
# level, so they are compared field by field: the discrete fields exactly,
# the numbers to 1e-12, which holds on every machine.
SEED_JUDGED = Path(__file__).parent / "data" / "seed_judged.jsonl"
EXACT = ("correct", "rule", "qtype", "reference_index")
CLOSE = ("confidence", "f1", "precision", "recall")


def _judgments(path):
    return [json.loads(line) for line in path.read_text().splitlines() if not line.startswith("#")]


def test_pedants_judge_matches_its_golden_output(seed_bundle_path, tmp_path):
    out = tmp_path / "judged.jsonl"
    argv = ["judge", "--model", str(seed_bundle_path), "--dataset", str(SEED_CORPUS)]
    assert main([*argv, "--out", str(out)]) == 0
    got, want = _judgments(out), _judgments(SEED_JUDGED)
    assert len(got) == len(want) == 57
    for row, golden in zip(got, want):
        assert row.keys() == golden.keys() == {*EXACT, *CLOSE}
        assert [row[k] for k in EXACT] == [golden[k] for k in EXACT]
        for key in CLOSE:
            assert row[key] == pytest.approx(golden[key], abs=1e-12, rel=0)


# The seed corpus repeated to 570 records, so that a command reads three
# blocks of POOL_BATCH lines and --workers 2 starts a pool. Each
# record carries a model_id, round-robin over five, for rank, and each block
# holds one bad line. Each digest covers a run's exit code, stdout, stderr
# (judge's timing line cut to its count) and written files, recorded before
# each command's block object took over the CLI judger's work. Paths in the
# messages are relative, as each run starts in the dataset's directory.
BAD_LINES = {
    100: b"[1, 2]",
    300: b'{"question": "q", "references": ["a"]}',
    530: b'{"question": "q", "references": ["a"], "candidate": "\xff"}',
}

# name: (argv, digest with --skip-bad, digest without it)
BLOCKS_GOLDEN = {
    "judge-em-out": (
        ("judge", "--metric", "em", "--out", "judged.jsonl"),
        "f3e5761cc044e97df5a4efbfb731e1d80dc8228718e99f6d924b6ae331118932",
        "bf1f319adacb68bf25b3a53fdd5f3bfcaa9f94916df3100d4a546364a2c1b9ba",
    ),
    "judge-em-stdout": (
        ("judge", "--metric", "em"),
        "47018fe8b9ca0a945146cf01181448cd7d8b825970afe257a7cb5068e8bb5039",
        "d119fd55677d56d583ef95a78923e872cc2d8a43100eff4665c7da7ba9e88495",
    ),
    "judge-f1-out": (
        ("judge", "--metric", "f1", "--out", "judged.jsonl"),
        "1653d533657eab58cd0a475b978e1bf19b5f53a7d61f6a3ec1fce5eaa8c0f819",
        "bf1f319adacb68bf25b3a53fdd5f3bfcaa9f94916df3100d4a546364a2c1b9ba",
    ),
    "judge-f1-stdout": (
        ("judge", "--metric", "f1"),
        "135a41e4a33aa23534de7281036ea640edd8d7e5605d3060d5496abef953937e",
        "5e9c71a28d0779ad07e47ffcd0fdb9e09df52bddc1f29a6a45ca37866f929553",
    ),
    "eval": (
        ("eval", "--metric", "em,f1", "--out", "reports"),
        "ffa8c2c3b52ee32b3ccb1b22299b617caf4386b57659176b769fd3e3e343eb36",
        "bf1f319adacb68bf25b3a53fdd5f3bfcaa9f94916df3100d4a546364a2c1b9ba",
    ),
    "sweep": (
        ("sweep", "--out", "reports"),
        "c824a16fbc44387ea0b5d02d724dff3e6ca2e9b857c48360c123b0822bcfccd7",
        "bf1f319adacb68bf25b3a53fdd5f3bfcaa9f94916df3100d4a546364a2c1b9ba",
    ),
    "rank": (
        ("rank", "--metric", "em,f1", "--out", "reports"),
        "d50eb6202a4db5b320dbd1d66dc17fb9be063e551fd03cc05df599f4373916f2",
        "bf1f319adacb68bf25b3a53fdd5f3bfcaa9f94916df3100d4a546364a2c1b9ba",
    ),
}
BLOCKS_CASES = {
    f"{name}-w{workers}": (*case, workers)
    for name, case in BLOCKS_GOLDEN.items()
    for workers in ((1, 2) if case[0][0] in ("judge", "eval") else (1,))
}


@pytest.fixture(scope="module")
def blocks_dir(tmp_path_factory):
    lines = SEED_CORPUS.read_bytes().splitlines()
    records = [line for line in lines if not line.startswith(b"#")]
    rows = [b"# pedants seed corpus v1"]
    for i in range(570):
        rows.append(records[i % len(records)][:-1] + b', "model_id": "m%d"}' % (i % 5))
        if i in BAD_LINES:
            rows.append(BAD_LINES[i])
    path = tmp_path_factory.mktemp("blocks")
    (path / "data.jsonl").write_bytes(b"\n".join(rows) + b"\n")
    return path


def _run_digest(argv, capsys):
    """The sha256 of one run's exit code, stdout, stderr and written files."""
    code = main([*argv, "--dataset", "data.jsonl"])
    out, err = capsys.readouterr()
    err = re.sub(r"(?m)^(judged \d+ examples) in .*$", r"\1", err)
    digest = hashlib.sha256(f"{code}\n{out}\n{err}\n".encode())
    for path in sorted(Path(".").rglob("*")):
        if path.is_file() and path.name != "data.jsonl":
            digest.update(path.as_posix().encode() + b"\n" + path.read_bytes())
            path.unlink()
    return digest.hexdigest(), err


@pytest.mark.parametrize(
    "argv, skipping, stopping, workers",
    BLOCKS_CASES.values(),
    ids=BLOCKS_CASES,
)
def test_blocks_with_bad_lines_are_byte_identical(
    argv, skipping, stopping, workers, blocks_dir, monkeypatch, capsys
):
    monkeypatch.chdir(blocks_dir)
    if argv[0] in ("judge", "eval"):
        argv = (*argv, "--workers", str(workers))
    assert _run_digest([*argv, "--skip-bad"], capsys)[0] == skipping
    digest, err = _run_digest(argv, capsys)
    assert err.endswith("pedants: error: data.jsonl:103: expected a JSON object, got list\n")
    assert digest == stopping
