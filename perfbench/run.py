"""Benchmark of pedants: four workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the program is imported from
./src, and scratch files go to ./.perfbench_work (removed afterwards). The
inputs are generated from --seed. Each workload repeats whole operations
for about S seconds in child processes, checks every output, and prints one
JSON line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, measured untraced; with --trace 1 the
commands run under the span tracer (spans.py) and the metrics are the
per-layer ones. Every timed command is preceded and followed by a run of
the reference job (refjob.py), and each time is scaled by the reference
job's nominal time over the mean of those two runs, which takes out the
drift of a shared machine's speed. Each time metric is the median of these
scaled times, and peak RSS the median of the raw ones. Figures that only
some workloads have (call latency, bundle size) and the unscaled medians go
to standard error. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import gen
import refjob
import spans

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 9
JUDGE_ROWS = 2000
EVAL_ROWS = 2000
TRAIN_ROWS = 2000
WIDE_VOCAB = 3000
LIBRARY_ROWS = 240
LIBRARY_SESSIONS = 5


class Bench:
    """One run: its scratch directory, child processes and accounting."""

    def __init__(self, root: Path, seed: int, seconds: float, trace: bool):
        self.root, self.seed, self.seconds, self.trace = root, seed, seconds, trace
        self.work = root / ".perfbench_work" / f"run-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.info: dict = {}  # figures for standard error only

    def path(self, name: str) -> Path:
        return self.work / name

    def write_jsonl(self, name: str, records: list[dict]) -> Path:
        path = self.path(name)
        with path.open("w", encoding="utf-8") as handle:
            for rec in records:
                handle.write(json.dumps(rec) + "\n")
        return path

    def child(self, argv: list) -> tuple[float, float, float, int]:
        """Run a child to its end: wall s, CPU s and peak RSS MiB of its
        process tree (from its own wait4), and its exit code."""
        with self.path("child.log").open("ab") as log:
            started = time.perf_counter()
            proc = subprocess.Popen(
                [str(a) for a in argv], cwd=self.root, env=self.env, stdout=log, stderr=log
            )
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode

    def pedants(self, args: list, trace_to: Path | None = None) -> tuple[float, float, float, int]:
        if trace_to is None:
            return self.child([sys.executable, "-m", "pedants", *args])
        return self.child([sys.executable, HERE / "spans.py", trace_to, "--", *args])

    def must(self, result: tuple[float, float, float, int], what: str) -> None:
        if result[3] != 0:
            raise RuntimeError(f"{what} failed with exit code {result[3]}; see {self.work}")

    def reference(self, records: int) -> float:
        """Wall seconds of the reference job in a new process."""
        wall, _, _, code = self.child([sys.executable, HERE / "refjob.py", records])
        self.must((wall, 0, 0, code), "reference job")
        return wall

    def setup_s(self, run_once) -> float:
        raw, scaled, before = [], [], self.reference(0)
        for _ in range(SETUP_REPEATS):
            wall = run_once()
            after = self.reference(0)
            raw.append(wall)
            scaled.append(wall * refjob.SETUP_S * 2 / (before + after))
            before = after
        self.info["raw_setup_s"] = statistics.median(raw)
        return statistics.median(scaled)

    def wall(self, result: tuple[float, float, float, int], what: str) -> float:
        self.must(result, what)
        return result[0]

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    def repetitions(self):
        """Yield 1, 2, ... while one more repetition as long as the last
        still ends within the run's seconds; always at least one."""
        started = time.perf_counter()
        k, last = 0, 0.0
        while k == 0 or time.perf_counter() - started + last <= self.seconds:
            k += 1
            rep_start = time.perf_counter()
            yield k
            last = time.perf_counter() - rep_start


def batch(b: Bench, command, rows: int, ops: int, result_file, verify, setup, serial=None):
    """Repeat one CLI command on the workload's input for the run's seconds.

    command(out) gives the pedants arguments writing to `out`, and
    result_file(out) the file to check; serial, when given, is the same
    command without the process pool, which the traced run adds to measure
    the layers that run in pool workers. Each command counts `ops`
    operations. The first output is checked by verify(); later ones must be
    byte-identical to it.
    """
    samples: list[tuple[float, float, float, float]] = []
    layer_runs: list[dict] = []
    first_digest = None
    before = b.reference(refjob.BATCH_RECORDS)
    for k in b.repetitions():
        out = b.path(f"out-{k}")
        traced = b.path(f"spans-{k}.json") if b.trace else None
        wall, cpu, rss, code = b.pedants(command(out), traced)
        after = b.reference(refjob.BATCH_RECORDS)
        ref, before = (before + after) / 2, after
        b.attempted += ops
        if code != 0:
            b.failed += ops
            continue
        digest = check.sha256(result_file(out))
        if first_digest is None:
            first_digest = digest
            b.problems += verify(result_file(out))
        elif digest != first_digest:
            b.problems.append(f"output of repetition {k} differs from the first")
        samples.append((wall, cpu, rss, ref))
        if b.trace:
            dump = json.loads(traced.read_text())
            layers = spans.layer_metrics(dump, rows)
            traced_rate = rows * ref / (wall * refjob.BATCH_S)
            b.info.setdefault("traced_rows_per_s", []).append(traced_rate)
            b.info["in_vocab_share"] = spans.vocab_share(dump)
            if serial is not None:
                serial_spans = b.path(f"serial-spans-{k}.json")
                b.must(b.pedants(serial(b.path(f"serial-{k}")), serial_spans), "serial pass")
                inner = spans.layer_metrics(json.loads(serial_spans.read_text()), rows)
                layers.update(
                    (name, value) for name, value in inner.items()
                    if not name.startswith(spans.PARENT_LAYERS)
                )
            layer_runs.append(layers)
        if out.is_dir():
            shutil.rmtree(out)
        else:
            out.unlink()
    if not samples:
        raise RuntimeError("no repetition of the command succeeded")
    if b.trace:
        return median_metrics(layer_runs)
    walls, cpus, rss, refs = zip(*samples)
    return {
        "setup_s": b.setup_s(lambda: b.wall(b.pedants(setup(b.path("setup-out"))), "set-up")),
        **scaled_rates(b, rows, walls, cpus, refs, refjob.BATCH_S),
        "peak_rss_mib": statistics.median(rss),
    }


def scaled_rates(b: Bench, rows: int, walls, cpus, refs, nominal: float) -> dict:
    """rows_per_s and cpu_ms_per_row from the median of times each scaled by
    nominal over the mean reference time around it."""
    b.info["raw_rows_per_s"] = rows / statistics.median(walls)
    b.info["raw_cpu_ms_per_row"] = statistics.median(cpus) * 1e3 / rows
    b.info["machine_speed"] = statistics.median(nominal / r for r in refs)
    return {
        "rows_per_s": rows / statistics.median(w * nominal / r for w, r in zip(walls, refs)),
        "cpu_ms_per_row": statistics.median(c * nominal / r for c, r in zip(cpus, refs))
        * 1e3 / rows,
    }


def median_metrics(runs: list[dict]) -> dict:
    return {name: statistics.median(run[name] for run in runs) for name in runs[0]}


def seed_bundle(b: Bench) -> Path:
    path = b.path("seed-bundle.json")
    b.must(b.pedants(["train", "--out", path]), "training the seed bundle")
    return path


def judge_pedants(b: Bench) -> dict:
    records, truths = gen.judge_pedants(b.seed, JUDGE_ROWS)
    data, one = b.write_jsonl("data.jsonl", records), b.write_jsonl("one.jsonl", records[:1])
    bundle = seed_bundle(b)
    forward = check.Forward(json.loads(bundle.read_text(encoding="utf-8")))

    def command(dataset):
        return lambda out: ["judge", "--metric", "pedants", "--model", bundle,
                            "--dataset", dataset, "--out", out]

    return batch(
        b, command(data), JUDGE_ROWS, JUDGE_ROWS, lambda out: out,
        lambda path: check.check_judgments(check.read_jsonl(path), truths, forward),
        setup=command(one),
    )


def eval_strings(b: Bench) -> dict:
    records, truths = gen.eval_strings(b.seed, EVAL_ROWS)
    data, one = b.write_jsonl("data.jsonl", records), b.write_jsonl("one.jsonl", records[:1])

    def command(dataset, workers=2):
        return lambda out: ["eval", "--metric", "em,f1", "--norm", "pedants",
                            "--workers", workers, "--dataset", dataset, "--out", out]

    return batch(
        b, command(data), EVAL_ROWS, EVAL_ROWS, lambda out: out / "report.json",
        lambda path: check.check_report(json.loads(path.read_text(encoding="utf-8")), truths),
        setup=command(one), serial=command(data, workers=1),
    )


def train_wide(b: Bench) -> dict:
    records, truths = gen.train_wide(b.seed, TRAIN_ROWS, WIDE_VOCAB)
    corpus = b.write_jsonl("corpus.jsonl", records)
    smallest = b.write_jsonl("smallest.jsonl", gen.smallest_corpus())

    def command(source):
        return lambda out: ["train", "--corpus", source, "--out", out]

    def verify(path):
        b.info["bundle_bytes"] = path.stat().st_size
        return check.check_bundle(json.loads(path.read_text(encoding="utf-8")), truths)

    return batch(b, command(corpus), TRAIN_ROWS, 1, lambda out: out, verify,
                 setup=command(smallest))


def judge_library(b: Bench) -> dict:
    train_records, train_truths = gen.train_wide(b.seed, TRAIN_ROWS, WIDE_VOCAB)
    bundle = b.path("wide-bundle.json")
    b.must(
        b.pedants(["train", "--corpus", b.write_jsonl("corpus.jsonl", train_records),
                   "--out", bundle]),
        "training the wide bundle",
    )
    vocab = sorted({w for t in train_truths for w in t.question[1:] + t.references[t.best]})
    records, truths = gen.judge_library(b.seed, LIBRARY_ROWS, vocab)
    data = b.write_jsonl("data.jsonl", records)
    forward = check.Forward(json.loads(bundle.read_text(encoding="utf-8")))
    worker = [sys.executable, HERE / "libworker.py", bundle]
    rss_per_session, walls, cpus, refs, latencies, dumps = [], [], [], [], [], []
    for k in range(LIBRARY_SESSIONS):
        out = b.path(f"library-{k}.json")
        prefix = [b.path(f"spans-{k}-")] if b.trace else []
        _, _, rss, code = b.child([*worker, data, b.seconds / LIBRARY_SESSIONS, out, *prefix])
        if code != 0:
            b.attempted += LIBRARY_ROWS
            b.failed += LIBRARY_ROWS
            continue
        result = json.loads(out.read_text(encoding="utf-8"))
        b.attempted += len(result["latencies_ns"])
        if not rss_per_session:
            b.problems += check.check_judgments(result["judgments"], truths, forward)
            first = result["judgments"]
        elif result["judgments"] != first:
            b.problems.append(f"session {k} judged unlike the first session")
        if result["mismatches"]:
            b.problems.append(f"{result['mismatches']} calls judged unlike the first pass")
        rss_per_session.append(rss)
        walls += result["pass_walls"]
        cpus += result["pass_cpus"]
        refs += [(a + b) / 2 for a, b in zip(result["ref_walls"], result["ref_walls"][1:])]
        latencies += result["latencies_ns"]
        if b.trace:
            dumps.append([json.loads(Path(f"{prefix[0]}{p}.json").read_text())
                          for p in range(1, len(result["pass_walls"]) + 1)])
    if not rss_per_session:
        raise RuntimeError("every library session failed")
    if b.trace:
        runs = [spans.layer_metrics(dump, LIBRARY_ROWS) for session in dumps for dump in session]
        layers = median_metrics(runs)
        # the bundle is loaded once per session, before its first pass
        layers["pipeline.load_ms"] = statistics.median(
            spans.layer_metrics(session[0], LIBRARY_ROWS)["pipeline.load_ms"] for session in dumps
        )
        b.info["in_vocab_share"] = spans.vocab_share(dumps[0][0])
        b.info["traced_rows_per_s"] = [LIBRARY_ROWS * r / (w * refjob.PASS_S)
                                       for w, r in zip(walls, refs)]
        return layers
    b.info["call_us_p50"] = statistics.median(latencies) / 1e3
    b.info["call_us_p99"] = statistics.quantiles(latencies, n=100)[98] / 1e3
    b.info["calls"] = len(latencies)

    def setup_once() -> float:
        argv = [str(a) for a in worker] + ["--setup-only"]
        done = subprocess.run(argv, cwd=b.root, env=b.env, capture_output=True, check=True)
        return float(done.stdout)

    return {
        "setup_s": b.setup_s(setup_once),
        # a session's wait4 total also holds its import and load, and the
        # reference passes between the timed ones: CPU per pass comes from
        # the caller process's own clock
        **scaled_rates(b, LIBRARY_ROWS, walls, cpus, refs, refjob.PASS_S),
        "peak_rss_mib": statistics.median(rss_per_session),
    }


WORKLOADS = {
    "judge-pedants": judge_pedants,
    "eval-strings": eval_strings,
    "train-wide": train_wide,
    "judge-library": judge_library,
}
UNITS = {"setup_s": "s", "rows_per_s": "rows/s", "cpu_ms_per_row": "ms/row", "peak_rss_mib": "MiB"}
UNITS.update(spans.LAYER_METRICS)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "pedants" / "__init__.py").is_file():
        print(f"run.py: no pedants source under {root / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    b = Bench(root, args.seed, args.seconds, bool(args.trace))
    try:
        metrics = WORKLOADS[args.workload](b)
    finally:
        b.close()
    for problem in b.problems[:20]:
        print(f"run.py: {args.workload}: {problem}", file=sys.stderr)
    if b.info:
        print(json.dumps({"info": b.info}), file=sys.stderr)
    print(json.dumps({
        "correct": not b.problems,
        "attempted": b.attempted,
        "failed": b.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
