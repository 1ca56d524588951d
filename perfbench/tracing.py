"""Spans around the program's public functions, and the per-layer metrics.

`instrument` replaces each target function with a wrapper that records a
span: name, start, end, the span that caused it, and the request (one CLI
call) it belongs to. Index lookups are only counted. Spans stay in memory
until the run ends. A target the program no longer has is skipped, and the
metrics built on it are left out of the report instead of failing the run.

A layer's self time is its span minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter_ns

ID, PARENT, REQUEST, NAME, START, END, ATTRS = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.requests: dict[int, object] = {}
        self.counts: Counter = Counter()

    def begin(self, name: str, attrs=None) -> list:
        parent = self.stack[-1] if self.stack else None
        sid = len(self.spans)
        span = [sid, parent[ID] if parent else -1, parent[REQUEST] if parent else sid,
                name, perf_counter_ns(), 0, attrs]
        self.spans.append(span)
        self.stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[END] = perf_counter_ns()
        top = self.stack.pop()
        if top is not span:
            raise RuntimeError(f"span {span[NAME]} closed out of order")

    def count(self, name: str) -> None:
        if self.stack:
            self.counts[(self.stack[-1][REQUEST], name)] += 1

    @contextlib.contextmanager
    def request(self, op):
        """Root span of one CLI call; every span under it shares its id."""
        span = self.begin("request")
        self.requests[span[ID]] = op
        try:
            yield
        finally:
            self.end(span)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\trequest\tname\tstart_ns\tend_ns\tattrs\n")
            for s in self.spans:
                fh.write("\t".join(str(v) for v in s) + "\n")


def _batch_fill(batch):
    mask = getattr(batch, "hist_mask", None)
    return None if mask is None else (int(mask.sum()), int(mask.size))


# (module, attribute, what to record): "span", or "count" for calls too
# small and too many to time one by one
TARGETS = (
    ("data", "generate_corpus", "span"),
    ("data", "write_dataset", "span"),
    ("data", "write_sidecar", "span"),
    ("data", "read_dataset", "span"),
    ("encoder", "pretrain_encoder", "span"),
    ("encoder", "finetune_encoder", "span"),
    ("encoder", "encode_bags", "span"),
    ("encoder", "encode_text", "span"),
    ("encoder", "encode_pair", "span"),
    ("encoder", "build_index", "span"),
    ("encoder", "load_index", "span"),
    ("encoder", "load_encoder", "span"),
    ("encoder", "EmbeddingIndex.lookup_text", "count"),
    ("encoder", "EmbeddingIndex.lookup_pair", "count"),
    ("model", "TrainingCache.__init__", "span"),
    ("model", "TrainingCache.batch", "span"),
    ("model", "load_model", "span"),
    ("model", "sample_for_scoring", "span"),
    ("model", "personalized_score", "span"),
    ("model", "score_dataset", "span"),
    ("autodiff", "Tape.backward", "span"),
    ("kernels", "segment_mean", "span"),
    ("kernels", "segment_mean_grad", "span"),
    ("kernels", "scatter_add_rows", "span"),
    ("kernels", "pad_segments", "span"),
    ("training", "pretrain_rsl", "span"),
    ("training", "train_stage2", "span"),
    ("training", "total_risk", "span"),
    ("training", "sgd_step", "span"),
    ("evaluation", "evaluate_scores", "span"),
    ("checkpoint", "save_params", "span"),
    ("checkpoint", "load_params", "span"),
    ("cli", "cmd_gen_data", "span"),
    ("cli", "cmd_encoder", "span"),
    ("cli", "cmd_eval", "span"),
    ("cli", "cmd_rank", "span"),
)
BEFORE = {"autodiff.Tape.backward": lambda args: len(args[0])}
AFTER = {"model.TrainingCache.batch": _batch_fill}


def _span_wrapper(tracer: Tracer, fn, name: str):
    before, after = BEFORE.get(name), AFTER.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.begin(name, before(args) if before else None)
        try:
            out = fn(*args, **kwargs)
            if after:
                span[ATTRS] = after(out)
            return out
        finally:
            tracer.end(span)

    return wrapper


def _count_wrapper(tracer: Tracer, fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)

    return wrapper


def instrument(tracer: Tracer) -> list[str]:
    """Wrap every target; returns the names of targets that do not exist.

    A module-level function is replaced wherever a `rankfuse` module holds a
    reference to it, so names imported with `from .x import y` are wrapped
    too.
    """
    absent = []
    for module_name, attr, kind in TARGETS:
        name = f"{module_name}.{attr}"
        owner = importlib.import_module(f"rankfuse.{module_name}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, leaf, None) if owner is not None else None
        if fn is None:
            absent.append(name)
            continue
        wrapped = (_span_wrapper if kind == "span" else _count_wrapper)(tracer, fn, name)
        if path:
            setattr(owner, leaf, wrapped)
            continue
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "rankfuse" or mod_name.startswith("rankfuse."):
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapped)
    return absent


# ---------------------------------------------------------------------------
# per-layer metrics


def _ms(ns: int) -> float:
    return ns / 1e6


def _s(ns: int) -> float:
    return ns / 1e9


def _dur(span) -> int:
    return span[END] - span[START]


def _median(values):
    values = list(values)
    return statistics.median(values) if values else None


def _step_times(parent, children) -> list[int]:
    """A step runs from one child's start to the next's; the last one ends
    with the parent."""
    starts = [c[START] for c in children]
    return [b - a for a, b in zip(starts, starts[1:] + [parent[END]])]


def _file_size(paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


# (metric, unit, better)
LAYER_METRICS = (
    ("data.generate_s", "s", "lower"),
    ("data.write_s", "s", "lower"),
    ("data.dataset_mb", "MB", "lower"),
    ("data.read_s", "s", "lower"),
    ("encoder.pretrain_step_ms", "ms", "lower"),
    ("encoder.finetune_step_ms", "ms", "lower"),
    ("encoder.build_index_s", "s", "lower"),
    ("encoder.load_index_ms", "ms", "lower"),
    ("encoder.index_mb", "MB", "lower"),
    ("encoder.load_encoder_ms", "ms", "lower"),
    ("encoder.fallback_encodes", "count", "lower"),
    ("encoder.fallback_ms", "ms", "lower"),
    ("encoder.index_hit_ratio", "ratio", "higher"),
    ("model.cache_build_s", "s", "lower"),
    ("model.batch_full_ms", "ms", "lower"),
    ("model.batch_base_ms", "ms", "lower"),
    ("model.forward_full_ms", "ms", "lower"),
    ("model.forward_base_ms", "ms", "lower"),
    ("model.hist_slot_fill", "ratio", "higher"),
    ("model.load_model_ms", "ms", "lower"),
    ("model.score_candidate_ms", "ms", "lower"),
    ("model.score_dataset_s", "s", "lower"),
    ("autodiff.backward_full_ms", "ms", "lower"),
    ("autodiff.backward_base_ms", "ms", "lower"),
    ("autodiff.backward_encoder_ms", "ms", "lower"),
    ("autodiff.tape_ops_full", "count", "lower"),
    ("kernels.segment_mean_s", "s", "lower"),
    ("kernels.segment_mean_calls", "count", "lower"),
    ("kernels.segment_mean_grad_s", "s", "lower"),
    ("kernels.segment_mean_grad_calls", "count", "lower"),
    ("kernels.scatter_add_rows_s", "s", "lower"),
    ("kernels.scatter_add_rows_calls", "count", "lower"),
    ("kernels.pad_segments_s", "s", "lower"),
    ("kernels.pad_segments_calls", "count", "lower"),
    ("training.stage1_s", "s", "lower"),
    ("training.step_full_ms", "ms", "lower"),
    ("training.step_base_ms", "ms", "lower"),
    ("training.sgd_ms", "ms", "lower"),
    ("evaluation.metrics_s", "s", "lower"),
    ("checkpoint.save_s", "s", "lower"),
    ("checkpoint.load_ms", "ms", "lower"),
    ("checkpoint.model_kb", "KB", "lower"),
    ("cli.gen_data_s", "s", "lower"),
    ("cli.build_index_s", "s", "lower"),
    ("cli.eval_s", "s", "lower"),
    ("cli.rank_self_ms", "ms", "lower"),
)
LARGEST = 1000


class _Trace:
    """Spans of the timed requests, indexed for queries."""

    def __init__(self, tracer: Tracer):
        self.reqs = [(rid, op) for rid, op in tracer.requests.items() if op.timed]
        self.named: dict[tuple[int, str], list[list]] = defaultdict(list)
        self.children: dict[int, list[list]] = defaultdict(list)
        for s in tracer.spans:
            self.named[(s[REQUEST], s[NAME])].append(s)
            self.children[s[PARENT]].append(s)

    def requests(self, stage=None, size=None):
        return [(rid, op) for rid, op in self.reqs
                if (stage is None or op.stage == stage) and (size is None or op.size == size)]

    def spans(self, rid, name):
        return self.named.get((rid, name), [])

    def kids(self, span, name):
        return [c for c in self.children[span[ID]] if c[NAME] == name]

    def per_request(self, stage, *names):
        """Total time in the named spans per request of a stage (ns)."""
        totals = [[_dur(s) for n in names for s in self.spans(rid, n)]
                  for rid, _ in self.requests(stage)]
        return [sum(t) for t in totals if t]

    def each(self, stage, name):
        return [_dur(s) for rid, _ in self.requests(stage) for s in self.spans(rid, name)]

    def under(self, stage, parent, name):
        return [c for rid, _ in self.requests(stage) for p in self.spans(rid, parent)
                for c in self.kids(p, name)]

    def steps(self, stage, parent, marker):
        return [t for rid, _ in self.requests(stage) for p in self.spans(rid, parent)
                for t in _step_times(p, self.kids(p, marker))]

    def per_pass(self, name):
        """(total ns, calls) of `name` in each pipeline pass, its rank round included."""
        totals: dict[int, list[int]] = {}
        for rid, op in self.reqs:
            if op.pass_no is None:
                continue
            t = totals.setdefault(op.pass_no, [0, 0])
            for s in self.spans(rid, name):
                t[0] += _dur(s)
                t[1] += 1
        return [t for t in totals.values() if t[1]]


def layer_metrics(tracer: Tracer, result) -> dict[str, tuple[float, str]]:
    """Every per-layer metric whose spans were recorded, with its unit."""
    tr = _Trace(tracer)
    first = result.passes[0].artifacts
    m: dict[str, float | None] = {}
    med = _median

    m["data.generate_s"] = med(_s(t) for t in tr.per_request("gen-data", "data.generate_corpus"))
    m["data.write_s"] = med(
        _s(t) for t in tr.per_request("gen-data", "data.write_dataset", "data.write_sidecar"))
    m["data.dataset_mb"] = _file_size(p for k, p in first["gen-data"].items()
                                      if k != "ground_truth") / 2**20
    m["data.read_s"] = med(_s(t) for t, _ in tr.per_pass("data.read_dataset"))

    m["encoder.pretrain_step_ms"] = med(_ms(t) for t in tr.steps(
        "pretrain", "encoder.pretrain_encoder", "encoder.encode_bags"))
    m["encoder.finetune_step_ms"] = med(_ms(t) for t in tr.steps(
        "finetune", "encoder.finetune_encoder", "encoder.encode_bags"))
    m["encoder.build_index_s"] = med(_s(t) for t in tr.per_request("build-index", "encoder.build_index"))
    m["encoder.load_index_ms"] = med(_ms(t) for t in tr.each("rank", "encoder.load_index"))
    m["encoder.index_mb"] = _file_size(first["build-index"].values()) / 2**20
    m["encoder.load_encoder_ms"] = med(_ms(t) for t in tr.each("rank", "encoder.load_encoder"))
    largest = tr.requests("rank", LARGEST)
    fallback = [tr.spans(rid, "encoder.encode_text") + tr.spans(rid, "encoder.encode_pair")
                for rid, _ in largest]
    m["encoder.fallback_encodes"] = med(len(f) for f in fallback)
    m["encoder.fallback_ms"] = med(_ms(sum(_dur(s) for s in f)) for f in fallback)
    lookups = sum(tracer.counts[(rid, f"encoder.EmbeddingIndex.lookup_{k}")]
                  for rid, _ in largest for k in ("text", "pair"))
    m["encoder.index_hit_ratio"] = (
        (lookups - sum(len(f) for f in fallback)) / lookups if lookups else None)

    m["model.cache_build_s"] = med(
        _s(t) for stage in ("train-full", "train-base")
        for t in tr.per_request(stage, "model.TrainingCache.__init__"))
    for variant in ("full", "base"):
        stage = f"train-{variant}"
        batches = tr.under(stage, "training.train_stage2", "model.TrainingCache.batch")
        m[f"model.batch_{variant}_ms"] = med(_ms(_dur(s)) for s in batches)
        m[f"model.forward_{variant}_ms"] = med(
            _ms(_dur(s)) for s in tr.under(stage, "training.train_stage2", "training.total_risk"))
        m[f"autodiff.backward_{variant}_ms"] = med(
            _ms(_dur(s)) for s in tr.under(stage, "training.train_stage2", "autodiff.Tape.backward"))
        m[f"training.step_{variant}_ms"] = med(
            _ms(t) for t in tr.steps(stage, "training.train_stage2", "model.TrainingCache.batch"))
        if variant == "full":
            fills = [s[ATTRS] for s in batches if s[ATTRS]]
            slots = sum(f[1] for f in fills)
            m["model.hist_slot_fill"] = sum(f[0] for f in fills) / slots if slots else None
            m["autodiff.tape_ops_full"] = med(
                s[ATTRS] for s in tr.under(stage, "training.train_stage2", "autodiff.Tape.backward"))
    m["model.load_model_ms"] = med(_ms(t) for t in tr.each("rank", "model.load_model"))
    m["model.score_candidate_ms"] = med(_ms(t) for t in tr.each("rank", "model.personalized_score"))
    m["model.score_dataset_s"] = med(_s(t) for t in tr.per_request("eval", "model.score_dataset"))
    m["autodiff.backward_encoder_ms"] = med(
        _ms(_dur(s)) for stage, parent in (("pretrain", "encoder.pretrain_encoder"),
                                           ("finetune", "encoder.finetune_encoder"))
        for s in tr.under(stage, parent, "autodiff.Tape.backward"))

    for k in ("segment_mean", "segment_mean_grad", "scatter_add_rows", "pad_segments"):
        totals = tr.per_pass(f"kernels.{k}")
        m[f"kernels.{k}_s"] = med(_s(t) for t, _ in totals)
        m[f"kernels.{k}_calls"] = med(n for _, n in totals)

    m["training.stage1_s"] = med(_s(t) for t in tr.per_request("train-full", "training.pretrain_rsl"))
    m["training.sgd_ms"] = med(
        _ms(_dur(s)) for stage in ("train-full", "train-base")
        for s in tr.under(stage, "training.train_stage2", "training.sgd_step"))
    m["evaluation.metrics_s"] = med(_s(t) for t in tr.per_request("eval", "evaluation.evaluate_scores"))
    m["checkpoint.save_s"] = med(
        _s(t) for stage in ("train-full", "train-base")
        for t in tr.per_request(stage, "checkpoint.save_params"))
    m["checkpoint.load_ms"] = med(
        _ms(t) for stage in ("finetune", "build-index", "eval", "rank")
        for t in tr.each(stage, "checkpoint.load_params"))
    m["checkpoint.model_kb"] = Path(first["train-full"]["model"]).stat().st_size / 1024

    m["cli.gen_data_s"] = med(_s(t) for t in tr.per_request("gen-data", "cli.cmd_gen_data"))
    m["cli.build_index_s"] = med(_s(t) for t in tr.per_request("build-index", "cli.cmd_encoder"))
    m["cli.eval_s"] = med(_s(t) for t in tr.per_request("eval", "cli.cmd_eval"))
    self_times = [
        _dur(s) - sum(_dur(c) for c in tr.children[s[ID]])
        for rid, _ in tr.requests("rank") for s in tr.spans(rid, "cli.cmd_rank")
    ]
    m["cli.rank_self_ms"] = med(_ms(t) for t in self_times)

    units = {name: unit for name, unit, _ in LAYER_METRICS}
    return {name: (v, units[name]) for name, v in m.items() if v is not None}
