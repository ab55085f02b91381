"""The string metrics' CLI outputs on the bundled seed corpus, byte for byte,
and the pedants judge's output on it, field by field.

The string metrics involve no BLAS call and no trained model, so their
bytes are the same on every machine. Each digest is the sha256 of a file the command
wrote, recorded before the normalization policies and the CLI judger were
reduced to what the commands use; a refactor that means to keep every
output must keep every digest.
"""

import hashlib
import json
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
