"""Command-line surface: train, judge, eval, rank, and sweep subcommands.

The commands that read a dataset (judge, eval, rank, sweep and train
--corpus) stream it in blocks of POOL_BATCH lines, so memory stays flat
regardless of dataset size. Each builds one object (a ``_Block``): it
parses each line of a block, scores the good records together under the
command's metrics, and makes the command's result of each line, or keeps
the DatasetError ``io.parse_line`` returned. It is the only object a pool
worker receives. This process only reads lines, and writes or tallies the
results in input order; ``io._good``, the library readers' loop too, raises
or reports each bad line as its block's results are consumed. With
--workers N > 1 and more than one block, each block is one task of a
process pool, and up to 2N blocks are in flight while this process reads
on; one block is judged in this process.
The only randomness is training's, drawn from train's --seed.
Exit codes: 0 success, 1 validation failure, 2 unexpected runtime failure.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import gc
import itertools
import json
import os
import sys
import time
from collections import Counter, deque
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, NoReturn

from . import io
from .errors import DatasetError, PedantsError
from .io import DEFAULT_SEED, QAExample
from .metrics import _best_tokens
from .textnorm import PEDANTS_POLICY, POLICY_PRESETS, tokens

# pipeline loads numpy, so only the pedants metric and train import it; the
# string metrics, pre-judged eval, sweep and rank --rates start without it.
# harness is imported by eval, rank and sweep, the commands that use it.
if TYPE_CHECKING:
    from .pipeline import _Prepared

MODEL_ENV_VAR = "PEDANTS_MODEL"
DEFAULT_THRESHOLD = 0.5
# Records per block: the judge scores a block at once, and a pool worker
# takes a whole block as one task.
POOL_BATCH = 256

METRIC_CHOICES = ("em", "f1", "pedants")


_POOL_FN: Callable = None


def _init_pool(fn: Callable) -> None:
    global _POOL_FN
    _POOL_FN = fn


def _apply_pool_fn(item):
    return _POOL_FN(item)


def _map_ordered(fn: Callable, items: Iterator, workers: int) -> Iterator[list]:
    """Apply fn, which maps a list of items to a list of results, to blocks
    of POOL_BATCH items and yield each block's results in order. With
    workers > 1 and a second block to read, each block is one task of a
    process pool, and up to 2 x workers blocks are in flight while this
    process reads on. The commands' items are raw lines and fn a ``_Block``,
    so this process pickles only lines and unpickles only results. One
    block is judged here, since it would occupy one worker and the pool
    would cost its start and stop besides."""
    blocks = iter(lambda: list(itertools.islice(items, POOL_BATCH)), [])
    head = list(itertools.islice(blocks, 2 if workers > 1 else 1))
    if len(head) < 2:
        yield from map(fn, itertools.chain(head, blocks))
        return
    import multiprocessing

    # the workers' collections then leave the parent's objects, and the
    # memory pages they share with it, alone
    gc.freeze()
    try:
        with multiprocessing.Pool(workers, initializer=_init_pool, initargs=(fn,)) as pool:
            pending = deque()
            try:
                for block in itertools.chain(head, blocks):
                    pending.append(pool.apply_async(_apply_pool_fn, (block,)))
                    if len(pending) == 2 * workers:
                        yield pending.popleft().get()
                for results in pending:
                    yield results.get()
            finally:
                # the pool's terminate can hang while its task thread still
                # pickles or sends a block (a bad line's error, or a closed
                # stdout, stops the caller early): let each sent block finish
                for results in pending:
                    results.wait()
    finally:
        gc.unfreeze()


class _Block:
    """The one object of each command that reads a dataset, serial or
    pooled: it maps a block of (line_no, line) pairs of the dataset at
    ``path`` to one result per line, in order, and is the one place a metric
    name becomes a score. Each line is read by ``io.parse_line`` with
    ``parse``, a labeled record unless a command says otherwise, and a line
    that fails keeps the DatasetError it returned. The good records are scored
    together under ``metrics``, and ``results`` makes the command's result of
    each. Instances are picklable: a pool worker takes one when it starts,
    then each block as a task, and sends back only the results.

    em and f1 read one token list of the candidate and of each reference
    under the --norm policy. The references are normalized as em reaches
    them, so em alone still stops at the first one that matches. Beside the
    pedants metric under its own policy (--norm pedants), em and f1 read the
    token lists, best reference and scores the judge prepared.
    """

    # whether a record must carry a human label, and the QAExample fields it
    # must set besides
    labeled, required = True, ()

    def __init__(self, path: str, norm="em", threshold=DEFAULT_THRESHOLD, metrics=(), model=None):
        self.path, self.policy, self.threshold = path, POLICY_PRESETS[norm], threshold
        self.metrics, self.model = metrics, model

    def score(self, metrics: list[str], args) -> _Block:
        """This block, set to score ``metrics``. A name outside
        METRIC_CHOICES is an error, raised before the bundle of --model (or
        $PEDANTS_MODEL) is loaded for pedants."""
        for name in metrics:
            if name not in METRIC_CHOICES:
                choices = ", ".join(METRIC_CHOICES)
                raise PedantsError(f"unknown metric {name!r}; choose from {choices}")
        self.metrics = metrics
        if "pedants" in metrics:
            from .pipeline import PedantsModel

            path = args.model or os.environ.get(MODEL_ENV_VAR)
            if not path:
                need = f"a model bundle is required: pass --model or set ${MODEL_ENV_VAR}"
                raise PedantsError(need)
            if not Path(path).exists():
                raise PedantsError(f"model bundle not found: {path}")
            self.model = PedantsModel.load(path)
        return self

    def __call__(self, block: list[tuple[int, str]]) -> list:
        path, parse = self.path, self.parse
        out = [io.parse_line(path, line_no, line, parse) for line_no, line in block]
        good = [i for i, record in enumerate(out) if not isinstance(record, DatasetError)]
        for i, result in zip(good, self.results([out[i] for i in good])):
            out[i] = result
        return out

    def parse(self, obj: dict):
        """The example of a record, with a human label if ``labeled`` and
        every ``required`` field; ValueError saying which it lacks, which
        makes the line bad."""
        example = io.example_from_dict(obj)
        if self.labeled and example.human_label is None:
            raise ValueError("record has no human label")
        for field in self.required:
            if getattr(example, field) is None:
                raise ValueError(f"record has no {field}")
        return example

    def results(self, records: list) -> list:
        return records

    def records(self, examples: list[QAExample]) -> list[dict[str, dict]]:
        """Each example's output record under each metric."""
        if "pedants" not in self.metrics:
            return [self._string_records(example) for example in examples]
        from .pipeline import _judgments, _prepare

        prepared = [_prepare(example) for example in examples]
        if "em" in self.metrics or "f1" in self.metrics:
            out = [self._string_records(example, p) for example, p in zip(examples, prepared)]
        else:
            out = [{} for _ in examples]
        for records, judgment in zip(out, _judgments(prepared, self.model)):
            records["pedants"] = judgment.to_dict()
        return out

    def _string_records(self, example: QAExample, prepared: _Prepared | None = None) -> dict:
        """em and f1, whichever is asked for, one at least; from the judge's
        ``prepared`` example when it was prepared under the --norm policy."""
        records: dict[str, dict] = {}
        best = None
        if prepared is not None and self.policy == PEDANTS_POLICY:
            candidate, references = prepared.candidate, prepared.references
            best = prepared.ref_index, prepared.scores
        else:
            candidate = tokens(example.candidate, self.policy)
            references = (tokens(ref, self.policy) for ref in example.references)
        if "f1" in self.metrics:
            references = list(references)
        if "em" in self.metrics:  # token lists are equal where their joins are
            records["em"] = {"correct": candidate in references}
        if "f1" in self.metrics:
            idx, scores = best or _best_tokens(candidate, references)
            records["f1"] = {
                "correct": scores.f1 >= self.threshold,
                "f1": scores.f1,
                "precision": scores.precision,
                "recall": scores.recall,
                "threshold": self.threshold,
                "reference_index": idx,
            }
        return records


class _JudgeBlock(_Block):
    """judge: each record's output line under the one --metric, serialized."""

    labeled = False

    def results(self, examples: list[QAExample]) -> list[str]:
        [metric] = self.metrics
        return [json.dumps(records[metric]) for records in self.records(examples)]


class _EvalBlock(_Block):
    """eval: each record's human label and verdicts, judged, or read from
    its "verdicts" in a pre-judged file. Every record is of the file's kind,
    ``prejudged``; until the first good record sets it, a record of either
    kind comes back as parsed, a plain one unjudged."""

    prejudged: bool | None = None

    def parse(self, obj: dict):
        # the base parse named outright: super() would cost a lookup per line
        example, verdicts = _Block.parse(self, obj), obj.get("verdicts")
        kind = "verdicts" in obj
        if self.prejudged is not None and kind != self.prejudged:
            raise ValueError(
                f"record {'has' if kind else 'has no'} 'verdicts', unlike the first "
                "record: a file holds pre-judged or plain records, not both"
            )
        if kind and not (
            isinstance(verdicts, dict)
            and verdicts
            and all(isinstance(v, bool) for v in verdicts.values())
        ):
            raise ValueError("'verdicts' must map metric names to booleans")
        return (example.human_label, verdicts) if kind else example

    def results(self, records: list) -> list[tuple[bool, dict]]:
        if self.prejudged is not False:
            return records  # pre-judged, or parsed to set the file's kind
        return [
            (ex.human_label, {name: r["correct"] for name, r in judged.items()})
            for ex, judged in zip(records, self.records(records))
        ]


class _RankBlock(_Block):
    """rank: each record's human label, verdicts and model_id."""

    required = ("model_id",)

    def results(self, examples: list[QAExample]) -> list[tuple[bool, dict, str]]:
        return [
            (ex.human_label, {name: r["correct"] for name, r in judged.items()}, ex.model_id)
            for ex, judged in zip(examples, self.records(examples))
        ]


class _SweepBlock(_Block):
    """sweep: each record's token F1, as eval's f1 metric scores it, and its
    human label."""

    def results(self, examples: list[QAExample]) -> list[tuple[float, bool]]:
        return [(r["f1"]["f1"], ex.human_label) for ex, r in zip(examples, self.records(examples))]


class _TrainBlock(_Block):
    """train --corpus: each record, labeled and with its rule and type."""

    required = ("rule", "qtype")


def _skip(err: DatasetError) -> None:  # --skip-bad's report of a bad line
    print(f"skipping bad line: {err}", file=sys.stderr)


def _each(block: _Block, lines: Iterator, workers: int, skip_bad: bool) -> Iterator:
    """``block``'s result of each good line among ``lines``, in input order:
    ``io._good`` over the blocks of ``_map_ordered``. A bad line's error is
    raised, or with --skip-bad reported, as its block is consumed; a raise
    closes the pool at once. The caller closes ``lines``."""
    with contextlib.closing(_map_ordered(block, lines, workers)) as blocks:
        yield from io._good(itertools.chain.from_iterable(blocks), _skip if skip_bad else None)


@contextlib.contextmanager
def _about(path: str) -> Iterator[None]:
    """Name the file at ``path`` in a PedantsError or ValueError raised
    inside, which is about its records as a whole (too few models or
    classes, say) or its content."""
    try:
        yield
    except (PedantsError, ValueError) as exc:
        raise PedantsError(f"{path}: {exc}") from exc


def _parse_metrics(spec: str | None) -> list[str]:
    """The names of a --metric list, each given once; every metric when
    unset. The names need not be known metrics, as a pre-judged file may
    carry others: a block rejects an unknown one it is asked to score."""
    if spec is None:
        return list(METRIC_CHOICES)
    names = [m.strip() for m in spec.split(",") if m.strip()]
    if not names:
        raise PedantsError("no metrics given")
    for i, name in enumerate(names):
        if name in names[:i]:
            raise PedantsError(f"metric {name!r} is given more than once")
    return names


def _parse_thresholds(spec: str) -> tuple[float, ...]:
    try:
        values = tuple(float(x) for x in spec.split(",") if x.strip())
    except ValueError as exc:
        raise PedantsError(f"bad threshold list {spec!r}") from exc
    if not values:
        raise PedantsError("no thresholds given")
    for i, v in enumerate(values):
        if not 0.0 <= v <= 1.0:
            raise PedantsError(f"threshold out of [0, 1]: {v}")
        if v in values[:i]:
            raise PedantsError(f"threshold {v} is given more than once")
    return values


def _is_dir(path: Path, out: str) -> bool:
    """Whether ``path`` is a directory: False if it does not exist, and
    NotADirectoryError naming ``out`` if its nearest existing path (itself
    or an ancestor) is not a directory."""
    nearest = next(p for p in (path, *path.parents) if p.exists())
    if not nearest.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), out)
    return nearest == path


def _report_paths(out: str | None, stem: str) -> tuple[Path, ...]:
    """<out>/<stem>.csv and <out>/<stem>.json, or none if out is unset.
    Called before any work, so that an --out no report can be written to
    (``_is_dir``, or a report path that is a directory) stops the command at
    once. Nothing is created here."""
    if not out:
        return ()
    _is_dir(Path(out), out)
    paths = tuple(Path(out) / f"{stem}{suffix}" for suffix in (".csv", ".json"))
    for path in paths:
        io.reject_directory(path)
    return paths


def _write_report(paths: tuple[Path, ...], rows: list[dict], line: str) -> None:
    """Print each row as ``line``, a format string over the row's keys, then
    write the rows to the report paths of ``_report_paths``, if any."""
    for row in rows:
        print(line.format_map(row))
    if paths:
        csv_path, json_path = paths
        csv_path.parent.mkdir(parents=True, exist_ok=True)
        io.write_report_csv(csv_path, rows)
        io.write_report_json(json_path, rows)


def cmd_train(args) -> int:
    if not _is_dir(Path(args.out).parent, args.out):  # fail before the fit, not after
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), args.out)
    io.reject_directory(args.out)
    from .pipeline import train_pedants

    if args.corpus:
        with contextlib.closing(io.iter_lines(args.corpus)) as lines:
            corpus = list(_each(_TrainBlock(args.corpus), lines, 1, args.skip_bad))
        source = args.corpus
    else:
        corpus = io.load_seed_corpus()
        source = "bundled seed corpus"
    with _about(source):
        model = train_pedants(corpus, args.seed)
    model.save(args.out)
    size = Path(args.out).stat().st_size
    print(f"trained on {len(corpus)} examples from {source} -> {args.out} ({size} bytes)")
    return 0


def cmd_judge(args) -> int:
    block = _JudgeBlock(args.dataset, args.norm, args.threshold).score([args.metric], args)
    started = time.perf_counter()
    with contextlib.closing(io.iter_lines(args.dataset)) as lines, (
        io.open_atomic(args.out) if args.out else contextlib.nullcontext(sys.stdout)
    ) as handle:
        n = io.write_jsonl(handle, _each(block, lines, args.workers, args.skip_bad))
    elapsed = time.perf_counter() - started
    rate = n / elapsed if elapsed > 0 else float("inf")
    print(f"judged {n} examples in {elapsed:.2f}s ({rate:.0f}/s)", file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    from .harness import ConfusionCounts

    report = _report_paths(args.out, "report")
    block = _EvalBlock(args.dataset, args.norm, args.threshold)
    counts: dict[str, ConfusionCounts] = {}
    with contextlib.closing(io.iter_lines(args.dataset)) as lines:
        # the first good record, read here, sets the file's kind: pre-judged or plain
        read = (result for line in lines for result in block([line]))
        first = next(io._good(read, _skip if args.skip_bad else None), None)
        if first is None:
            raise PedantsError(f"no records in {args.dataset}")
        block.prejudged = isinstance(first, tuple)
        # pre-judged verdicts were computed elsewhere, possibly by metrics this
        # package does not implement: a --metric list filters them by name, and
        # with none every name present is reported
        names = None if block.prejudged and args.metric is None else _parse_metrics(args.metric)
        if not block.prejudged:
            [first] = block.score(names, args).results([first])
        # a pre-judged record is only parsed, which costs less than a pool's
        # pickling of its line and its verdicts
        workers = 1 if block.prejudged else args.workers
        rest = _each(block, lines, workers, args.skip_bad)
        for label, verdicts in itertools.chain([first], rest):
            for name, verdict in verdicts.items():
                if names is None or name in names:
                    counts.setdefault(name, ConfusionCounts()).update(label, verdict)
    if not counts:
        raise PedantsError(f"{args.dataset}: no verdicts matched the requested metrics")
    if block.prejudged:
        names = sorted(counts)

    rows = [
        {
            "metric": name,
            "examples": counts[name].total,
            "accuracy": counts[name].accuracy(),
            "macro_f1": counts[name].macro_f1(),
        }
        for name in names
    ]
    _write_report(
        report, rows, "{metric:>8}: accuracy={accuracy:.4f} macro_f1={macro_f1:.4f} n={examples}"
    )
    return 0


def cmd_rank(args) -> int:
    from .harness import RankingInput, pairwise_ranking_accuracy

    report = _report_paths(args.out, "ranking")
    if args.rates:
        flags = {"--dataset": args.dataset, "--metric": args.metric, "--model": args.model}
        given = [flag for flag, value in flags.items() if value is not None]
        if given:
            raise PedantsError(f"--rates cannot be combined with {', '.join(given)}")
        with _about(args.rates):
            data = json.loads(Path(args.rates).read_text(encoding="utf-8"))
            if not (isinstance(data, dict) and "human" in data and "metrics" in data):
                raise ValueError('expected an object with "human" and "metrics" keys')
            ranking = RankingInput(human_rates=data["human"], metric_rates=data["metrics"])
        names = sorted(ranking.metric_rates)
    else:
        if not args.dataset:
            raise PedantsError("rank needs --rates or --dataset")
        names = _parse_metrics(args.metric)
        block = _RankBlock(args.dataset, args.norm, args.threshold).score(names, args)
        # per model: its records, and how many humans and each metric judge correct
        records: Counter[str] = Counter()
        correct = {name: Counter() for name in ("human", *names)}
        with contextlib.closing(io.iter_lines(args.dataset)) as lines:
            for label, verdicts, model_id in _each(block, lines, 1, args.skip_bad):
                records[model_id] += 1
                correct["human"][model_id] += label
                for name in names:
                    correct[name][model_id] += verdicts[name]
        rates = {name: {m: c[m] / n for m, n in records.items()} for name, c in correct.items()}
        with _about(args.dataset):
            ranking = RankingInput(human_rates=rates.pop("human"), metric_rates=rates)

    rows = [
        {
            "metric": name,
            "models": ranking.n_models,
            "pairwise_ranking_accuracy": pairwise_ranking_accuracy(ranking, name),
        }
        for name in names
    ]
    line = "{metric:>8}: pairwise_ranking_accuracy={pairwise_ranking_accuracy:.4f} models={models}"
    _write_report(report, rows, line)
    return 0


def cmd_sweep(args) -> int:
    from .harness import threshold_sweep

    report = _report_paths(args.out, "sweep")
    thresholds = _parse_thresholds(args.threshold)
    # each example's token F1 as eval's f1 metric scores it; the cutoff is unused
    block = _SweepBlock(args.dataset, args.norm, metrics=["f1"])
    with contextlib.closing(io.iter_lines(args.dataset)) as lines:
        scored = list(_each(block, lines, 1, args.skip_bad))
    with _about(args.dataset):
        rows = threshold_sweep(scored, thresholds)
    line = "threshold={threshold:.2f}: accuracy={accuracy:.4f} macro_f1={macro_f1:.4f}"
    _write_report(report, rows, line)
    return 0


def _int_value(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _seed(text: str) -> int:
    """A --seed value: an integer from 0 up, as numpy's generators take."""
    n = _int_value(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {n}")
    return n


def _threshold(text: str) -> float:
    """A --threshold value of judge, eval and rank: one cutoff in [0, 1]."""
    try:
        values = _parse_thresholds(text)
    except PedantsError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if len(values) != 1:
        raise argparse.ArgumentTypeError(f"takes one cutoff, got {len(values)} in {text!r}")
    return values[0]


def _worker_count(text: str) -> int:
    """A --workers value: a process count from 1 to the machine's CPU count."""
    limit = os.cpu_count() or 1
    n = _int_value(text)
    if not 1 <= n <= limit:
        raise argparse.ArgumentTypeError(f"must be in [1, {limit}] (the CPU count), got {n}")
    return n


class _Parser(argparse.ArgumentParser):
    # usage problems are validation failures: exit 1, not argparse's 2, with
    # the prefix of every other error (the usage line names the subcommand)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"pedants: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pedants", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model=False, dataset=False, norm=False, workers=False, threshold=False):
        p.add_argument("--skip-bad", action="store_true", help="skip malformed JSONL lines")
        if model:
            p.add_argument("--model", help=f"model bundle path (default: ${MODEL_ENV_VAR})")
        if dataset:
            p.add_argument("--dataset", required=True, help="input JSONL dataset")
        if norm:
            p.add_argument("--norm", choices=sorted(POLICY_PRESETS), default="em",
                           help="normalization preset for em/f1 metrics")
        if workers:
            p.add_argument("--workers", type=_worker_count, default=1,
                           help="worker process count, 1 to the CPU count")
        if threshold:
            p.add_argument("--threshold", type=_threshold, default=DEFAULT_THRESHOLD,
                           help="F1 cutoff for the f1 metric (default %(default)s)")

    p = sub.add_parser("train", help="train a model bundle on a labeled corpus")
    common(p)
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED,
                   help="seed of the training shuffle, 0 or more (default %(default)s)")
    p.add_argument("--corpus", help="training JSONL (default: bundled seed corpus)")
    p.add_argument("--out", required=True, help="output bundle path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("judge", help="judge every example in a dataset")
    common(p, model=True, dataset=True, norm=True, workers=True, threshold=True)
    p.add_argument("--metric", default="pedants", help="em, f1 or pedants (default %(default)s)")
    p.add_argument("--out", help="output JSONL path (default: stdout)")
    p.set_defaults(func=cmd_judge)

    p = sub.add_parser("eval", help="compare metric verdicts against human labels")
    common(p, model=True, dataset=True, norm=True, workers=True, threshold=True)
    p.add_argument(
        "--metric",
        default=None,
        help="comma-separated metric list (default: em,f1,pedants; for "
        "pre-judged files, all verdict names present)",
    )
    p.add_argument("--out", help="directory for report.{csv,json}")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("rank", help="pairwise model-ranking agreement with humans")
    common(p, model=True, norm=True, threshold=True)
    p.add_argument("--rates", help="JSON rate table {human: {...}, metrics: {...}}")
    p.add_argument("--dataset", help="labeled JSONL with model_id fields")
    p.add_argument("--metric", help="comma-separated metric list (default: em,f1,pedants)")
    p.add_argument("--out", help="directory for ranking.{csv,json}")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("sweep", help="threshold sweep of the F1 judge")
    common(p, dataset=True, norm=True)
    p.add_argument("--threshold", default="0.3,0.5,0.7", help="comma-separated cutoffs")
    p.add_argument("--out", help="directory for sweep.{csv,json}")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except (PedantsError, OSError, ValueError) as exc:
        print(f"pedants: error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        import traceback  # here, as only a bug needs it

        traceback.print_exc()
        return 2


def run(argv: list[str] | None = None) -> NoReturn:
    """The process entry point: ``main``, then flush stdout and stderr and
    end with ``os._exit``, which skips the interpreter's teardown.

    Nothing is left for teardown to do once ``main`` returns: each output
    file has been closed and moved into place by its ``io.open_atomic``
    block, a process pool terminated and joined by its ``multiprocessing.Pool``
    block, and the OS reclaims the memory. A stdout whose reader has gone
    ends with ``main``'s code, as ``main`` treats a closed pipe; a stdout
    that cannot take the rest of the output (a full disk) is an error, exit
    1. argparse's ``SystemExit`` (--help, a usage error) propagates. A
    caller that needs ``atexit`` hooks, such as coverage, calls ``main``.
    """
    code = main(argv)
    try:
        if sys.stdout is not None:  # None in a process started with fd 1 closed
            sys.stdout.flush()
    except BrokenPipeError:
        pass
    except OSError as exc:
        print(f"pedants: error: {exc}", file=sys.stderr)
        code = code or 1
    if sys.stderr is not None:
        with contextlib.suppress(OSError):  # nowhere left to report it
            sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
