"""The string metrics' CLI outputs on the bundled seed corpus, byte for byte.

These outputs involve no BLAS call and no trained model, so their bytes are
the same on every machine. Each digest is the sha256 of a file the command
wrote, recorded before the normalization policies and the CLI judger were
reduced to what the commands use; a refactor that means to keep every
output must keep every digest.
"""

import hashlib
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
