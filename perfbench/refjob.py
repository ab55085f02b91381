"""Reference job: a fixed slice of text-scoring work that gauges the machine.

The speed of a shared machine drifts by a third and more over minutes, and
every measured command slows with it. So each measured command is paired
with a run of this job started right after it, and run.py divides the
command's time by the job's time. The job does not use pedants and does
not depend on the seed: its input and work are the same in every run, so
only the machine changes its time. Its work resembles the program's hot
path (unicode and regex normalization, token-overlap F1, vocabulary
lookups, small numpy products, JSON in and out).

    python3 perfbench/refjob.py N     # a new process: import, then N records

N=0 times interpreter start and imports only, the reference for set-up
time. libworker.py calls run() in-process between library passes.
"""

from __future__ import annotations

import json
import random
import re
import sys
import unicodedata
from collections import Counter

import numpy as np

# Nominal seconds of the job on the reference machine, about the medians
# seen there: a new process on BATCH_RECORDS records (around a batch
# command), a new process on none (around a set-up command) and an
# in-process pass on PASS_RECORDS records (around a library pass). A time
# scaled by nominal over measured reads as if the machine ran at that speed.
BATCH_RECORDS, BATCH_S = 1000, 0.45
SETUP_S = 0.22
PASS_RECORDS, PASS_S = 300, 0.055

_PUNCT = re.compile(r"[^\w\s]")
_WS = re.compile(r"\s+")
_DIM = 4096
_WEIGHTS = np.linspace(-1.0, 1.0, 3 * _DIM).reshape(3, _DIM)


def records(n: int) -> list[str]:
    """n JSON lines of question, references and candidate, always the same."""
    rng = random.Random(0)
    words = ["".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(rng.randint(3, 9)))
             for _ in range(2000)]

    def text(k: int) -> str:
        return " ".join(w.capitalize() if rng.random() < 0.2 else w + rng.choice(",.!?;")
                        if rng.random() < 0.1 else w for w in rng.sample(words, k))

    return [json.dumps({"question": text(rng.randint(5, 10)),
                        "references": [text(rng.randint(1, 6)) for _ in range(rng.randint(1, 4))],
                        "candidate": text(rng.randint(1, 12))})
            for _ in range(n)]


def _norm(s: str) -> str:
    s = unicodedata.normalize("NFC", s).lower()
    return _WS.sub(" ", _PUNCT.sub("", s)).strip()


def _f1(a: str, b: str) -> float:
    ta, tb = a.split(), b.split()
    common = sum((Counter(ta) & Counter(tb)).values())
    if not common:
        return 0.0
    p, r = common / len(ta), common / len(tb)
    return 2 * p * r / (p + r)


def run(lines: list[str]) -> list[str]:
    """Score every record: best reference by F1, then three hashed bag-of-words
    vectors, each through a small softmax."""
    vocab: dict[str, int] = {}
    out = []
    for line in lines:
        rec = json.loads(line)
        q, c = _norm(rec["question"]), _norm(rec["candidate"])
        refs = [_norm(r) for r in rec["references"]]
        scores = [_f1(c, r) for r in refs]
        best = max(range(len(scores)), key=scores.__getitem__)
        probs = []
        for text in (f"{q} {c}", f"{q} {c} {refs[best]}", c):
            bag = Counter(text.split())
            idx = np.array([vocab.setdefault(t, len(vocab) % _DIM) for t in bag], dtype=np.int64)
            val = np.array(list(bag.values()), dtype=float)
            val /= np.sqrt(val @ val)
            s = _WEIGHTS[:, idx] @ val
            e = np.exp(s - s.max())
            probs.append((e / e.sum()).tolist())
        out.append(json.dumps({"f1": scores[best], "best": best, "probs": probs}))
    return out


if __name__ == "__main__":
    run(records(int(sys.argv[1])))
