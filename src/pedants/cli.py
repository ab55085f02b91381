"""Command-line surface: train, judge, eval, rank, and sweep subcommands.

Judging and evaluation stream their input line by line, so memory stays
flat regardless of dataset size; with --workers > 1 records fan out over a
process pool in bounded batches and are emitted in input order. All
randomness flows from the single --seed flag. Exit codes: 0 success,
1 validation failure, 2 unexpected runtime failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import multiprocessing
import os
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from . import io
from .errors import DatasetError, PedantsError
from .harness import ConfusionCounts, RankingInput, pairwise_ranking_accuracy, threshold_sweep
from .linear import TrainConfig
from .metrics import _best_bag, best_reference, exact_match
from .pipeline import PedantsModel, QAExample, judge, train_pedants
from .textnorm import POLICY_PRESETS, normalize, tokenize

MODEL_ENV_VAR = "PEDANTS_MODEL"
DEFAULT_SEED = 668
DEFAULT_THRESHOLD = 0.5
# Worker-pool batch size: bounds in-flight records while preserving order.
POOL_BATCH = 256

METRIC_CHOICES = ("em", "f1", "pedants")


@dataclass
class RunConfig:
    """Resolved run settings shared by the subcommands."""

    seed: int = DEFAULT_SEED
    norm: str = "em"
    thresholds: tuple[float, ...] = (DEFAULT_THRESHOLD,)
    model_path: str | None = None
    workers: int = 1
    out: str | None = None
    skip_bad: bool = False


class Judger:
    """Maps one example to an output record. Instances are picklable so
    worker processes can share one immutable configuration."""

    def __init__(self, metric: str, policy_name: str, threshold: float, model: PedantsModel | None):
        self.metric = metric
        self.policy = POLICY_PRESETS[policy_name]
        self.threshold = threshold
        self.model = model

    def __call__(self, example: QAExample) -> dict:
        if self.metric == "em":
            return {"correct": exact_match(example.candidate, example.references, self.policy)}
        if self.metric == "f1":
            idx, scores = best_reference(example.candidate, example.references, self.policy)
            return {
                "correct": scores.f1 >= self.threshold,
                "f1": scores.f1,
                "precision": scores.precision,
                "recall": scores.recall,
                "threshold": self.threshold,
                "reference_index": idx,
            }
        return judge(example, self.model).to_dict()


class MultiJudger:
    """Runs several metrics on one labeled example (for eval/rank).

    em and f1 share the one --norm policy, so when both run the candidate
    and the references are normalized once for the two of them.
    """

    def __init__(self, judgers: dict[str, Judger]):
        self.judgers = judgers
        self.f1_with_em = judgers["f1"] if "em" in judgers and "f1" in judgers else None

    def __call__(self, example: QAExample) -> dict[str, bool]:
        verdicts = {}
        if self.f1_with_em is not None:
            policy = self.f1_with_em.policy
            candidate = normalize(example.candidate, policy)
            references = [normalize(ref, policy) for ref in example.references]
            verdicts["em"] = candidate in references
            _, scores = _best_bag(tokenize(candidate), [tokenize(ref) for ref in references])
            verdicts["f1"] = scores.f1 >= self.f1_with_em.threshold
        for name, judger in self.judgers.items():
            if name not in verdicts:
                verdicts[name] = judger(example)["correct"]
        return verdicts


_POOL_FN: Callable = None


def _init_pool(fn: Callable) -> None:
    global _POOL_FN
    _POOL_FN = fn


def _apply_pool_fn(item):
    return _POOL_FN(item)


def _map_ordered(fn: Callable, items: Iterator, workers: int) -> Iterator:
    """Apply fn to items, preserving order; fan out when workers > 1."""
    if workers <= 1:
        for item in items:
            yield fn(item)
        return
    with multiprocessing.Pool(workers, initializer=_init_pool, initargs=(fn,)) as pool:
        while batch := list(itertools.islice(items, POOL_BATCH)):
            yield from pool.map(_apply_pool_fn, batch)


def _report_skip(err: DatasetError) -> None:
    print(f"skipping bad line: {err}", file=sys.stderr)


def _resolve_model_path(args) -> str:
    path = args.model or os.environ.get(MODEL_ENV_VAR)
    if not path:
        raise PedantsError(
            f"a model bundle is required: pass --model or set ${MODEL_ENV_VAR}"
        )
    if not Path(path).exists():
        raise PedantsError(f"model bundle not found: {path}")
    return path


def _build_judger(metric: str, args, config: RunConfig) -> Judger:
    model = None
    if metric == "pedants":
        model = PedantsModel.load(_resolve_model_path(args))
    return Judger(metric, config.norm, config.thresholds[0], model)


def _parse_metrics(spec: str) -> list[str]:
    names = [m.strip() for m in spec.split(",") if m.strip()]
    for name in names:
        if name not in METRIC_CHOICES:
            raise PedantsError(f"unknown metric {name!r}; choose from {', '.join(METRIC_CHOICES)}")
    if not names:
        raise PedantsError("no metrics given")
    return names


def _parse_thresholds(spec: str) -> tuple[float, ...]:
    try:
        values = tuple(float(x) for x in spec.split(",") if x.strip())
    except ValueError as exc:
        raise PedantsError(f"bad threshold list {spec!r}") from exc
    if not values:
        raise PedantsError("no thresholds given")
    for v in values:
        if not 0.0 <= v <= 1.0:
            raise PedantsError(f"threshold out of [0, 1]: {v}")
    return values


def _run_config(args) -> RunConfig:
    return RunConfig(
        seed=args.seed,
        norm=getattr(args, "norm", "em"),
        thresholds=_parse_thresholds(getattr(args, "threshold", None) or str(DEFAULT_THRESHOLD)),
        model_path=getattr(args, "model", None),
        workers=getattr(args, "workers", 1),
        out=getattr(args, "out", None),
        skip_bad=getattr(args, "skip_bad", False),
    )


def _labeled_records(
    path: str, skip_bad: bool, prejudged: bool | None = None
) -> Iterator[tuple[int, QAExample, dict | None]]:
    """Stream (line_no, example, verdicts) of records that carry a human label.

    With ``prejudged`` True or False, every record must be of that kind:
    pre-judged records carry a "verdicts" map of metric names to booleans,
    plain ones carry none, and a file does not mix the two. ``verdicts`` is
    None unless ``prejudged`` is True.
    """
    for line_no, obj in io.iter_raw(path, skip_bad=skip_bad, on_skip=_report_skip):
        try:
            example = io.example_from_dict(obj)
            if example.human_label is None:
                raise ValueError("record has no human label")
            if prejudged is not None and ("verdicts" in obj) != prejudged:
                has = "has no" if prejudged else "has"
                raise ValueError(
                    f"record {has} 'verdicts', unlike the first record: a file holds "
                    "pre-judged or plain records, not both"
                )
            verdicts = obj["verdicts"] if prejudged else None
            if prejudged and not (
                isinstance(verdicts, dict)
                and verdicts
                and all(isinstance(v, bool) for v in verdicts.values())
            ):
                raise ValueError("'verdicts' must map metric names to booleans")
        except Exception as exc:
            err = DatasetError(str(exc), path=path, line_no=line_no)
            if not skip_bad:
                raise err from exc
            _report_skip(err)
            continue
        yield line_no, example, verdicts


def cmd_train(args) -> int:
    config = TrainConfig(seed=args.seed)
    if args.corpus:
        corpus = io.read_examples(args.corpus, skip_bad=args.skip_bad, on_skip=_report_skip)
        source = args.corpus
    else:
        corpus = io.load_seed_corpus()
        source = "bundled seed corpus"
    model = train_pedants(corpus, config)
    model.save(args.out)
    size = Path(args.out).stat().st_size
    print(f"trained on {len(corpus)} examples from {source} -> {args.out} ({size} bytes)")
    return 0


def cmd_judge(args) -> int:
    config = _run_config(args)
    judger = _build_judger(args.metric, args, config)
    dataset = io.DatasetFile(args.dataset)
    examples = (
        ex for _, ex in dataset.records(skip_bad=config.skip_bad, on_skip=_report_skip)
    )
    handle = open(config.out, "w", encoding="utf-8") if config.out else sys.stdout
    started = time.perf_counter()
    try:
        n = io.write_jsonl(handle, _map_ordered(judger, examples, config.workers))
    finally:
        if config.out:
            handle.close()
    elapsed = time.perf_counter() - started
    rate = n / elapsed if elapsed > 0 else float("inf")
    print(f"judged {n} examples in {elapsed:.2f}s ({rate:.0f}/s)", file=sys.stderr)
    return 0


def _dataset_is_prejudged(path: str, skip_bad: bool) -> bool:
    for _, obj in io.iter_raw(path, skip_bad=skip_bad, on_skip=lambda _err: None):
        return "verdicts" in obj
    raise PedantsError(f"no records in {path}")


def cmd_eval(args) -> int:
    config = _run_config(args)
    if _dataset_is_prejudged(args.dataset, config.skip_bad):
        # verdicts were computed elsewhere, possibly by metrics this package
        # does not implement; filter by name only
        requested = (
            {m.strip() for m in args.metric.split(",") if m.strip()} if args.metric else None
        )
        counts: dict[str, ConfusionCounts] = {}
        for _, example, verdicts in _labeled_records(args.dataset, config.skip_bad, True):
            for name, verdict in verdicts.items():
                if requested is not None and name not in requested:
                    continue
                counts.setdefault(name, ConfusionCounts()).update(
                    bool(example.human_label), verdict
                )
        if not counts:
            raise PedantsError("no verdicts matched the requested metrics")
        names = sorted(counts)
    else:
        names = _parse_metrics(args.metric or "em,f1,pedants")
        multi = MultiJudger({name: _build_judger(name, args, config) for name in names})
        counts = {name: ConfusionCounts() for name in names}
        labeled = (ex for _, ex, _ in _labeled_records(args.dataset, config.skip_bad, False))
        # two lock-stepped passes over one stream: labels here, verdicts in the pool
        labels_iter, judge_iter = itertools.tee(labeled)
        for example, verdicts in zip(
            labels_iter, _map_ordered(multi, judge_iter, config.workers)
        ):
            for name in names:
                counts[name].update(bool(example.human_label), verdicts[name])

    rows = [
        {
            "metric": name,
            "examples": counts[name].total,
            "accuracy": counts[name].accuracy(),
            "macro_f1": counts[name].macro_f1(),
        }
        for name in names
    ]
    for row in rows:
        print(
            f"{row['metric']:>8}: accuracy={row['accuracy']:.4f} "
            f"macro_f1={row['macro_f1']:.4f} n={row['examples']}"
        )
    if config.out:
        out_dir = Path(config.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        io.write_report_csv(out_dir / "report.csv", rows)
        io.write_report_json(out_dir / "report.json", rows)
    return 0


def cmd_rank(args) -> int:
    config = _run_config(args)
    if args.rates:
        data = json.loads(Path(args.rates).read_text(encoding="utf-8"))
        ranking = RankingInput(human_rates=data["human"], metric_rates=data["metrics"])
        names = sorted(data["metrics"])
    else:
        if not args.dataset:
            raise PedantsError("rank needs --rates or --dataset")
        names = _parse_metrics(args.metric)
        multi = MultiJudger({name: _build_judger(name, args, config) for name in names})
        human: dict[str, list[int]] = {}
        auto: dict[str, dict[str, list[int]]] = {name: {} for name in names}
        for line_no, example, _ in _labeled_records(args.dataset, config.skip_bad):
            if example.model_id is None:
                raise DatasetError("record has no model_id", path=args.dataset, line_no=line_no)
            verdicts = multi(example)
            human.setdefault(example.model_id, []).append(int(example.human_label))
            for name in names:
                auto[name].setdefault(example.model_id, []).append(int(verdicts[name]))
        human_rates = {m: sum(v) / len(v) for m, v in human.items()}
        metric_rates = {
            name: {m: sum(v) / len(v) for m, v in auto[name].items()} for name in names
        }
        ranking = RankingInput(human_rates=human_rates, metric_rates=metric_rates)

    rows = [
        {
            "metric": name,
            "models": ranking.n_models,
            "pairwise_ranking_accuracy": pairwise_ranking_accuracy(ranking, name),
        }
        for name in names
    ]
    for row in rows:
        print(
            f"{row['metric']:>8}: pairwise_ranking_accuracy="
            f"{row['pairwise_ranking_accuracy']:.4f} models={row['models']}"
        )
    if config.out:
        out_dir = Path(config.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        io.write_report_csv(out_dir / "ranking.csv", rows)
        io.write_report_json(out_dir / "ranking.json", rows)
    return 0


def cmd_sweep(args) -> int:
    config = _run_config(args)
    policy = POLICY_PRESETS[config.norm]
    scored = [
        (best_reference(ex.candidate, ex.references, policy)[1].f1, bool(ex.human_label))
        for _, ex, _ in _labeled_records(args.dataset, config.skip_bad)
    ]
    rows = threshold_sweep(scored, config.thresholds)
    table = [
        {
            "threshold": row.threshold,
            "accuracy": row.accuracy,
            "macro_f1": row.macro_f1,
            "examples": len(scored),
        }
        for row in rows
    ]
    for row in table:
        print(
            f"threshold={row['threshold']:.2f}: accuracy={row['accuracy']:.4f} "
            f"macro_f1={row['macro_f1']:.4f}"
        )
    if config.out:
        out_dir = Path(config.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        io.write_report_csv(out_dir / "sweep.csv", table)
        io.write_report_json(out_dir / "sweep.json", table)
    return 0


class _Parser(argparse.ArgumentParser):
    # usage problems are validation failures: exit 1, not argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pedants", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model=False, dataset=False, norm=False, workers=False):
        p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="global RNG seed")
        p.add_argument("--skip-bad", action="store_true", help="skip malformed JSONL lines")
        if model:
            p.add_argument("--model", help=f"model bundle path (default: ${MODEL_ENV_VAR})")
        if dataset:
            p.add_argument("--dataset", required=True, help="input JSONL dataset")
        if norm:
            p.add_argument("--norm", choices=sorted(POLICY_PRESETS), default="em",
                           help="normalization preset for em/f1 metrics")
        if workers:
            p.add_argument("--workers", type=int, default=1, help="worker process count")

    p = sub.add_parser("train", help="train a model bundle on a labeled corpus")
    common(p)
    p.add_argument("--corpus", help="training JSONL (default: bundled seed corpus)")
    p.add_argument("--out", required=True, help="output bundle path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("judge", help="judge every example in a dataset")
    common(p, model=True, dataset=True, norm=True, workers=True)
    p.add_argument("--metric", choices=METRIC_CHOICES, default="pedants")
    p.add_argument("--threshold", help="F1 cutoff for --metric f1 (default 0.5)")
    p.add_argument("--out", help="output JSONL path (default: stdout)")
    p.set_defaults(func=cmd_judge)

    p = sub.add_parser("eval", help="compare metric verdicts against human labels")
    common(p, model=True, dataset=True, norm=True, workers=True)
    p.add_argument(
        "--metric",
        default=None,
        help="comma-separated metric list (default: em,f1,pedants; for "
        "pre-judged files, all verdict names present)",
    )
    p.add_argument("--threshold", help="F1 cutoff for the f1 metric (default 0.5)")
    p.add_argument("--out", help="directory for report.{csv,json}")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("rank", help="pairwise model-ranking agreement with humans")
    common(p, model=True, norm=True)
    p.add_argument("--rates", help="JSON rate table {human: {...}, metrics: {...}}")
    p.add_argument("--dataset", help="labeled JSONL with model_id fields")
    p.add_argument("--metric", default="em,f1,pedants", help="comma-separated metric list")
    p.add_argument("--threshold", help="F1 cutoff for the f1 metric (default 0.5)")
    p.add_argument("--out", help="directory for ranking.{csv,json}")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("sweep", help="threshold sweep of the F1 judge")
    common(p, dataset=True, norm=True)
    p.add_argument("--threshold", default="0.3,0.5,0.7", help="comma-separated cutoffs")
    p.add_argument("--out", help="directory for sweep.{csv,json}")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except (PedantsError, OSError, ValueError, json.JSONDecodeError, KeyError) as exc:
        print(f"pedants: error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
