"""Self-test of the output checks: real outputs pass, corrupted ones fail.

    python3 perfbench/selftest.py

Run from the root of a source checkout. It judges and evaluates small
generated inputs with the pedants CLI, requires the checks to accept the
real outputs, then plants one fault at a time and requires the checks to
reject each. Exits 0 when every planted fault is caught.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import check
import gen
from run import Bench, seed_bundle

SEED = 7
ROWS = 300


def main() -> int:
    b = Bench(Path.cwd(), SEED, 0, False)
    try:
        records, truths = gen.judge_pedants(SEED, ROWS)
        bundle = seed_bundle(b)
        judged = b.path("judged.jsonl")
        b.must(b.pedants(["judge", "--model", bundle, "--out", judged,
                          "--dataset", b.write_jsonl("data.jsonl", records)]), "judge")
        rows = check.read_jsonl(judged)
        forward = check.Forward(json.loads(bundle.read_text(encoding="utf-8")))

        records, eval_truths = gen.eval_strings(SEED, ROWS)
        reports = b.path("reports")
        b.must(b.pedants(["eval", "--metric", "em,f1", "--norm", "pedants", "--out", reports,
                          "--dataset", b.write_jsonl("eval.jsonl", records)]), "eval")
        report = json.loads((reports / "report.json").read_text(encoding="utf-8"))
    finally:
        b.close()

    multi = next(i for i, t in enumerate(truths) if len(t.references) > 1)

    def flip_verdict(r):
        r[3]["correct"] = not r[3]["correct"]

    def shift_reference(r):
        r[multi]["reference_index"] = (r[multi]["reference_index"] + 1) % len(
            truths[multi].references
        )

    def nudge_confidence(r):
        r[0]["confidence"] += 1e-6  # row 0 is always recomputed

    def drop_row(r):
        del r[ROWS // 2]

    def miscount(rep):
        rep[0]["accuracy"] += 1 / ROWS

    cases = [
        ("real judged rows", lambda: check.check_judgments(rows, truths, forward), False),
        ("real eval report", lambda: check.check_report(report, eval_truths), False),
    ]
    for fault in (flip_verdict, shift_reference, nudge_confidence, drop_row):
        bad = copy.deepcopy(rows)
        fault(bad)
        cases.append((fault.__name__, lambda bad=bad: check.check_judgments(bad, truths, forward),
                      True))
    bad_report = copy.deepcopy(report)
    miscount(bad_report)
    cases.append(("miscount", lambda: check.check_report(bad_report, eval_truths), True))

    ok = True
    for name, run_check, should_fail in cases:
        problems = run_check()
        passed = bool(problems) == should_fail
        ok &= passed
        verdict = "rejected" if problems else "accepted"
        print(f"{'PASS' if passed else 'FAIL'} {name}: {verdict}"
              + (f" ({problems[0]})" if problems else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
