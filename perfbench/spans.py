"""Span tracing for the benchmark's traced runs, and the per-layer metrics.

The tracer wraps public functions of the pedants modules from outside (the
program is not changed): every call becomes a span with a name, a start and
an end time, the span that was open when it began, and the id of the record
being processed. Spans stay in memory and are written out when the traced
command ends. Run a pedants CLI command traced with

    PYTHONPATH=src python3 perfbench/spans.py SPANS.json -- judge --dataset ...

Worker processes forked by a pool are not traced; a serial pass of the same
command measures the work they do.
"""

from __future__ import annotations

import functools
import json
import multiprocessing.pool
import os
import sys
import time
from array import array
from collections import Counter, defaultdict

OTHER = "other"
# Which model a linear.train call fits follows from the function calling it.
_TRAIN_ROLE = {
    "pipeline.train_type_extractor": "type",
    "pipeline.train_rule_extractor": "rule",
    "pipeline.train_pedants": "judge",
}


class Tracer:
    def __init__(self):
        self.names: dict[str, int] = {}
        # five integers per span: name id, start ns, end ns, parent, record;
        # a flat array keeps the garbage collector off the spans
        self.spans = array("q")
        self.count = 0
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.record = -1
        self.enabled = True
        # id(vectorizer or linear model) -> (object, role); the object is kept
        # so its id cannot be reused by another one
        self.roles: dict[int, tuple[object, str]] = {}

    def enter(self, name: str) -> int:
        idx = self.count
        self.count += 1
        parent = self.stack[-1] if self.stack else -1
        self.spans.extend((self.names.setdefault(name, len(self.names)), 0, 0, parent, self.record))
        self.stack.append(idx)
        self.spans[5 * idx + 1] = time.perf_counter_ns()
        return idx

    def exit(self, idx: int) -> None:
        self.spans[5 * idx + 2] = time.perf_counter_ns()
        self.stack.pop()

    def current(self) -> str:
        """Name of the innermost open span."""
        if not self.stack:
            return ""
        return list(self.names)[self.spans[5 * self.stack[-1]]]

    def role(self, obj) -> str:
        entry = self.roles.get(id(obj))
        return entry[1] if entry else OTHER

    def dump(self) -> dict:
        return {"names": list(self.names), "spans": self.spans.tolist(),
                "counts": dict(self.counts)}

    def reset(self) -> None:
        self.spans, self.count, self.stack, self.counts = array("q"), 0, [], Counter()


def _span(tr: Tracer, name, fn):
    """Wrap fn so each call is a span; `name` may be a function of the args."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tr.enabled:
            return fn(*args, **kwargs)
        idx = tr.enter(name(*args, **kwargs) if callable(name) else name)
        try:
            return fn(*args, **kwargs)
        finally:
            tr.exit(idx)

    return wrapper


def _gen_span(tr: Tracer, name: str, fn, advances_record: bool = False):
    """Wrap a generator function so each step (one next()) is a span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        produced = 0
        try:
            while True:
                if not tr.enabled:
                    yield from it
                    return
                if advances_record:
                    tr.record = produced
                idx = tr.enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tr.exit(idx)
                produced += 1
                yield item
        finally:
            it.close()

    return wrapper


def _replace(orig, new) -> None:
    """Point every pedants module name bound to `orig` at `new`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "pedants" or mod_name.startswith("pedants."):
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, new)


def install() -> Tracer:
    """Wrap the pedants layers; returns the tracer that collects the spans."""
    import pedants.cli  # imports every layer
    from pedants import io, linear, metrics, pipeline, textnorm, vectorizer

    tr = Tracer()
    os.register_at_fork(after_in_child=lambda: setattr(tr, "enabled", False))

    for fn in (io.iter_raw, io.iter_examples):
        _replace(fn, _gen_span(tr, f"io.read.{fn.__name__}", fn, fn is io.iter_examples))
    for fn in (io.example_from_dict, io.read_examples, io.load_seed_corpus):
        _replace(fn, _span(tr, f"io.read.{fn.__name__}", fn))
    io.DatasetFile.records = _gen_span(tr, "io.read.records", io.DatasetFile.records)
    for fn in (io.write_jsonl, io.write_report_csv, io.write_report_json):
        _replace(fn, _span(tr, f"io.write.{fn.__name__}", fn))

    _replace(textnorm.normalize, _span(tr, "textnorm.normalize", textnorm.normalize))
    for fn in (metrics.best_reference, metrics.token_prf, metrics.exact_match):
        _replace(fn, _span(tr, f"metrics.{fn.__name__}", fn))

    def encoder(model_pos):
        return lambda *a, **k: "vectorizer.encode." + tr.role(
            a[model_pos] if len(a) > model_pos else k["model"]
        )

    _replace(vectorizer.encode_pair, _span(tr, encoder(2), vectorizer.encode_pair))
    _replace(vectorizer.encode_triple, _span(tr, encoder(3), vectorizer.encode_triple))
    _replace(vectorizer.fit, _span(tr, "vectorizer.fit", vectorizer.fit))
    transform = vectorizer.transform

    @functools.wraps(transform)
    def traced_transform(text, model, *args, **kwargs):
        if not tr.enabled:
            return transform(text, model, *args, **kwargs)
        idx = tr.enter("vectorizer.transform")
        try:
            out = transform(text, model, *args, **kwargs)
        finally:
            tr.exit(idx)
        role = tr.role(model)
        if role != OTHER:
            # counting is the tracer's own work: a "bench" span keeps it out
            # of the encoder's time
            idx = tr.enter("bench.count")
            vocab = model.vocabulary
            tokens = text.split()
            tr.counts[f"tokens.{role}"] += len(tokens)
            tr.counts[f"in_vocab.{role}"] += sum(tok in vocab for tok in tokens)
            tr.exit(idx)
        return out

    _replace(transform, traced_transform)

    _replace(
        linear.predict_proba,
        _span(tr, lambda m, *a, **k: "linear.predict_proba." + tr.role(m), linear.predict_proba),
    )
    train, mean_loss = linear.train, linear._mean_loss

    @functools.wraps(train)
    def traced_train(examples, *args, **kwargs):
        if not tr.enabled:
            return train(examples, *args, **kwargs)
        role = _TRAIN_ROLE.get(tr.current(), OTHER)
        before = tr.counts["loss_passes"]
        idx = tr.enter(f"linear.train.{role}")
        try:
            return train(examples, *args, **kwargs)
        finally:
            tr.exit(idx)
            # one loss pass before the first epoch and one after each epoch
            epochs = tr.counts["loss_passes"] - before - 1
            tr.counts[f"epochs.{role}"] += epochs
            tr.counts["sgd_steps"] += epochs * len(examples)

    @functools.wraps(mean_loss)
    def counted_mean_loss(*args, **kwargs):
        tr.counts["loss_passes"] += 1
        return mean_loss(*args, **kwargs)

    _replace(train, traced_train)
    linear._mean_loss = counted_mean_loss

    for fn in (
        pipeline.judge,
        pipeline.assemble_features,
        pipeline.train_pedants,
        pipeline.train_type_extractor,
        pipeline.train_rule_extractor,
    ):
        _replace(fn, _span(tr, f"pipeline.{fn.__name__}", fn))
    model_cls = pipeline.PedantsModel
    model_cls.load = classmethod(_span(tr, "pipeline.load", model_cls.load.__func__))
    model_cls.save = _span(tr, "pipeline.save", model_cls.save)
    post_init = model_cls.__post_init__

    def register_roles(self):
        post_init(self)
        for role in ("type", "rule", "judge"):
            for obj in (getattr(self, f"{role}_vectorizer"), getattr(self, f"{role}_model")):
                tr.roles[id(obj)] = (obj, role)

    model_cls.__post_init__ = register_roles

    _replace(pedants.cli.main, _span(tr, "cli.main", pedants.cli.main))
    _replace(pedants.cli._map_ordered, _gen_span(tr, "cli.map_ordered", pedants.cli._map_ordered))
    multiprocessing.pool.Pool.map = _span(tr, "cli.pool_map", multiprocessing.pool.Pool.map)
    return tr


ROLES = ("type", "rule", "judge")

# Name, unit and meaning of every per-layer metric, in BENCHMARK.json order.
LAYER_METRICS = (
    ("io.read_us_per_row", "us/row"),
    ("io.write_us_per_row", "us/row"),
    ("textnorm.normalize_calls_per_row", "calls/row"),
    ("textnorm.normalize_us_per_row", "us/row"),
    ("metrics.best_reference_us_per_row", "us/row"),
    ("metrics.token_prf_calls_per_row", "calls/row"),
    ("metrics.exact_match_us_per_row", "us/row"),
    *((f"vectorizer.encode_us_per_row.{r}", "us/row") for r in ROLES),
    *((f"vectorizer.in_vocab_tokens_per_row.{r}", "tokens/row") for r in ROLES),
    ("vectorizer.fit_s", "s"),
    *((f"linear.predict_proba_us_per_row.{r}", "us/row") for r in ROLES),
    *((f"linear.train_s.{r}", "s") for r in ROLES),
    *((f"linear.train_epochs.{r}", "count") for r in ROLES),
    ("linear.sgd_steps", "count"),
    ("pipeline.judge_self_us_per_row", "us/row"),
    ("pipeline.load_ms", "ms"),
    ("pipeline.save_ms", "ms"),
    ("cli.pool_wait_s", "s"),
    ("cli.pool_batches", "count"),
    ("cli.parent_busy_s", "s"),
)
# Layers measured in the parent process of a pooled command; the others are
# taken from a serial pass when the command uses a pool.
PARENT_LAYERS = ("io.", "cli.")


def layer_metrics(dump: dict, rows: int) -> dict[str, float]:
    """Per-layer metrics of one traced command that processed `rows` records.

    A span's layer is its module. Its layer time is its duration less the
    time covered by descendant spans of other layers, reached through spans
    of its own layer; a layer's time sums this over the spans whose parent
    lies in another layer, so nested spans of one layer count once. Self
    time is a span's duration less that of all its children.
    """
    flat = dump["spans"]
    name = [dump["names"][i] for i in flat[0::5]]
    dur = [end - start for start, end in zip(flat[1::5], flat[2::5])]
    parents = flat[3::5]
    n = len(dur)
    layer = [nm.split(".")[0] for nm in name]
    other = [0] * n  # time in other layers below each span
    child = [0] * n  # time in direct children
    for i in range(n - 1, -1, -1):  # children come after their parent
        parent = parents[i]
        if parent >= 0:
            child[parent] += dur[i]
            other[parent] += dur[i] if layer[i] != layer[parent] else other[i]
    layer_ns: dict[str, int] = defaultdict(int)
    total_ns: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    calls: Counter[str] = Counter()
    for i, (nm, parent) in enumerate(zip(name, parents)):
        if parent < 0 or layer[parent] != layer[i]:
            layer_ns[nm] += dur[i] - other[i]
        total_ns[nm] += dur[i]
        self_ns[nm] += dur[i] - child[i]
        calls[nm] += 1
    counts = dump["counts"]

    def us_per_row(ns: float) -> float:
        return ns / 1e3 / rows

    def by_prefix(table, prefix):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    pool_wait = total_ns["cli.pool_map"] / 1e9
    out = {
        "io.read_us_per_row": us_per_row(by_prefix(layer_ns, "io.read.")),
        "io.write_us_per_row": us_per_row(by_prefix(layer_ns, "io.write.")),
        "textnorm.normalize_calls_per_row": calls["textnorm.normalize"] / rows,
        "textnorm.normalize_us_per_row": us_per_row(total_ns["textnorm.normalize"]),
        "metrics.best_reference_us_per_row": us_per_row(layer_ns["metrics.best_reference"]),
        "metrics.token_prf_calls_per_row": calls["metrics.token_prf"] / rows,
        "metrics.exact_match_us_per_row": us_per_row(layer_ns["metrics.exact_match"]),
        "vectorizer.fit_s": total_ns["vectorizer.fit"] / 1e9,
        "linear.sgd_steps": counts.get("sgd_steps", 0),
        "pipeline.judge_self_us_per_row": us_per_row(self_ns["pipeline.judge"]),
        "pipeline.load_ms": total_ns["pipeline.load"] / 1e6,
        "pipeline.save_ms": total_ns["pipeline.save"] / 1e6,
        "cli.pool_wait_s": pool_wait,
        "cli.pool_batches": calls["cli.pool_map"],
        "cli.parent_busy_s": total_ns["cli.main"] / 1e9 - pool_wait,
    }
    for r in ROLES:
        out[f"vectorizer.encode_us_per_row.{r}"] = us_per_row(layer_ns[f"vectorizer.encode.{r}"])
        out[f"vectorizer.in_vocab_tokens_per_row.{r}"] = counts.get(f"in_vocab.{r}", 0) / rows
        out[f"linear.predict_proba_us_per_row.{r}"] = us_per_row(
            total_ns[f"linear.predict_proba.{r}"]
        )
        out[f"linear.train_s.{r}"] = total_ns[f"linear.train.{r}"] / 1e9
        out[f"linear.train_epochs.{r}"] = counts.get(f"epochs.{r}", 0)
    return out


def vocab_share(dump: dict) -> dict[str, float]:
    """Share of the encoded tokens that each vectorizer's vocabulary holds."""
    counts = dump["counts"]
    return {r: counts[f"in_vocab.{r}"] / counts[f"tokens.{r}"]
            for r in ROLES if counts.get(f"tokens.{r}")}


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: spans.py SPANS.json -- PEDANTS-ARGS...", file=sys.stderr)
        return 2
    tr = install()
    import pedants.cli

    try:
        return pedants.cli.main(argv[2:])
    finally:
        tr.enabled = False
        with open(argv[0], "w", encoding="utf-8") as handle:
            json.dump(tr.dump(), handle, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
