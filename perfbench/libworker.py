"""Closed-loop library caller for the judge-library workload.

One caller judges the records of a dataset one at a time with
`pedants.judge(example, model)`, pass after pass, until the time is up, and
times every call. Before the first pass and after each pass it times an
in-process pass of the reference job (refjob.py), which gauges the speed
of the machine at that moment. Usage:

    PYTHONPATH=src python3 perfbench/libworker.py BUNDLE DATASET SECONDS OUT.json [SPANS-PREFIX]
    PYTHONPATH=src python3 perfbench/libworker.py BUNDLE --setup-only

With --setup-only it prints the seconds that `import pedants` and loading
the bundle take. OUT.json receives the judgments of the first pass, the
per-call latencies, the wall and CPU time of each pass, the wall time of
each reference pass (one more than there are passes) and the number of
calls whose judgment differed from the first pass. With SPANS-PREFIX each pass is traced
and its spans are written to SPANS-PREFIX<pass>.json; those of the first
pass also hold the loading of the bundle.
"""

import json
import sys
import time


def main(argv: list[str]) -> int:
    started = time.perf_counter()
    tracing = len(argv) > 4
    if tracing:
        import spans

        tr = spans.install()
    import pedants

    model = pedants.PedantsModel.load(argv[0])
    if argv[1] == "--setup-only":
        print(time.perf_counter() - started)
        return 0
    with open(argv[1], encoding="utf-8") as handle:
        examples = [pedants.QAExample.from_dict(json.loads(line)) for line in handle]
    seconds = float(argv[2])
    import refjob  # after set-up, so that its numpy import is not charged to it

    ref_lines = refjob.records(refjob.PASS_RECORDS)
    ref_walls: list[float] = []
    judge = pedants.judge  # looked up after tracing is installed
    clock = time.perf_counter_ns
    latencies: list[int] = []
    pass_walls: list[float] = []
    pass_cpus: list[float] = []
    first: list = []
    mismatches = 0

    def reference() -> None:
        ref_start = clock()
        refjob.run(ref_lines)
        ref_walls.append((clock() - ref_start) / 1e9)

    reference()
    deadline = time.perf_counter() + seconds
    while not pass_walls or time.perf_counter() < deadline:
        results = [None] * len(examples)
        pass_start, cpu_start = clock(), time.process_time()
        for i, example in enumerate(examples):
            if tracing:
                tr.record = i
            t0 = clock()
            results[i] = judge(example, model)
            latencies.append(clock() - t0)
        pass_walls.append((clock() - pass_start) / 1e9)
        pass_cpus.append(time.process_time() - cpu_start)
        reference()
        if tracing:
            with open(f"{argv[4]}{len(pass_walls)}.json", "w", encoding="utf-8") as handle:
                json.dump(tr.dump(), handle, separators=(",", ":"))
            tr.reset()
        if first:
            mismatches += sum(a != b for a, b in zip(first, results))
        else:
            first = results
    with open(argv[3], "w", encoding="utf-8") as handle:
        json.dump(
            {
                "judgments": [j.to_dict() for j in first],
                "latencies_ns": latencies,
                "pass_walls": pass_walls,
                "pass_cpus": pass_cpus,
                "ref_walls": ref_walls,
                "mismatches": mismatches,
            },
            handle,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
