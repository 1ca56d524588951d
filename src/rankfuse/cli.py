"""Command-line pipeline: gen-data, encoder, train, eval, sweep, rank.

Every command takes --out-dir and, on success, writes `config.resolved`
(its effective configuration) and then one `manifest.json` there. The
manifest holds `command`, `config`, the sha256 of each file in `inputs` and
`outputs` (every file the run read or wrote, `config.resolved` included),
`duration_seconds`, `peak_rss_mb` (the process's peak resident memory) and
`numpy_version`; train, eval and rank also record `index_cache_misses`, the
lookups the index had to encode on the fly. A run that fails writes neither
file. Exit codes: 0 success, 1 validation error (a missing input, or a
metric the given split or checkpoint leaves undefined), 2 runtime error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from . import config as cf
from . import data as dt
from . import evaluation as ev
from . import model as md
from . import training as tr
from .checkpoint import check_value, parse_value
from .encoder import (
    build_index,
    encoder_digest,
    load_encoder,
    load_index,
    pretrain_encoder,
    finetune_encoder,
    save_encoder,
    save_index,
)
from .errors import DatasetParseError, DependencyError, ValidationError

ALPHA_SWEEP = (1.0, 2.0, 4.0, 6.0, 8.0)
GAMMA_SWEEP = (0.0, 0.1, 0.3, 0.5, 1.0)


# ---------------------------------------------------------------------------
# plumbing


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class Stage:
    """One command's run: its resolved config, its out-dir, and the inputs
    and outputs that `finish` records in `config.resolved` and
    `manifest.json`. The config comes from the override flags that the
    command's parser declared (`_add_common`)."""

    def __init__(self, args, command: str):
        self.started = perf_counter()
        self.command = command
        self.cfg = cf.resolve_config(args.config, {k: getattr(args, k) for k in args.config_keys})
        out = Path(args.out_dir)
        if out.exists():
            if not out.is_dir():
                raise ValidationError(f"--out-dir exists and is not a directory: {out}")
            if any(out.iterdir()) and not args.force:
                raise ValidationError(f"--out-dir is not empty (use --force to overwrite): {out}")
        out.mkdir(parents=True, exist_ok=True)
        self.out = out
        self.inputs = [Path(args.config)] if args.config else []
        self.outputs: list[Path] = []

    def input(self, path, what: str) -> Path:
        """Check that an input file exists and record it."""
        p = Path(path)
        if not p.is_file():
            raise DependencyError(f"{what} not found: {p}")
        self.inputs.append(p)
        return p

    def output(self, name: str) -> Path:
        """Record an output file of the out-dir; the caller writes it."""
        path = self.out / name
        self.outputs.append(path)
        return path

    def lines(self, name: str, lines) -> Path:
        """Write lines as an output file, each ended by a newline."""
        path = self.output(name)
        path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
        return path

    def finish(self, **extra) -> int:
        """Write `config.resolved`, then `manifest.json`; return exit code 0."""
        self.outputs.append(cf.write_resolved(self.cfg, self.out))
        manifest = {
            "command": self.command,
            "config": {k: (list(v) if isinstance(v, tuple) else v) for k, v in self.cfg.items()},
            "inputs": {str(p): _sha256(p) for p in self.inputs},
            "outputs": {str(p): _sha256(p) for p in self.outputs},
            "duration_seconds": round(perf_counter() - self.started, 3),
            "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
            "numpy_version": np.__version__,
            **extra,
        }
        text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        (self.out / "manifest.json").write_text(text, encoding="utf-8")
        return 0


# ---------------------------------------------------------------------------
# commands


GEN_KEYS = ("seed", "n_users", "n_items", "n_queries", "n_impressions", "n_categories", "n_descriptors")


def cmd_gen_data(args) -> int:
    run = Stage(args, "gen-data")
    samples, stats = dt.generate_corpus(cf.to_generator_config(run.cfg))
    train, validation, test = dt.split_corpus(samples)
    for name, subset in (("train.tsv", train), ("validation.tsv", validation), ("test.tsv", test)):
        dt.write_dataset(subset, run.output(name))
    dt.write_sidecar(samples, run.output("ground_truth.tsv"))
    print(
        f"gen-data: {len(samples)} impressions "
        f"(train {len(train)}, validation {len(validation)}, test {len(test)}) -> {run.out}"
    )
    return run.finish(stats=stats)


def cmd_encoder(args) -> int:
    run = Stage(args, f"encoder-{args.encoder_command}")

    if args.encoder_command == "build-index":
        ckpt_in = run.input(args.checkpoint, "encoder checkpoint")
        if not args.dataset_file:
            raise ValidationError("build-index needs at least one --dataset-file")
        params = load_encoder(ckpt_in)
        # every text of the text table (history items too) and every pair of the
        # rows and the entry table
        texts: set[str] = set()
        pairs: set[tuple[str, str]] = set()
        for dataset_path in args.dataset_file:
            dataset = dt.read_dataset(run.input(dataset_path, "dataset file"))
            texts.update(dataset.texts)
            pairs.update(dataset.pairs())
        index = build_index(params, sorted(texts), sorted(pairs), encoder_digest(params))
        index_path = run.output("index.tsv")
        save_index(index, index_path)
        print(f"build-index: {len(index.text)} texts, {len(index.pair)} pairs -> {index_path}")
        return run.finish()

    if args.encoder_command == "pretrain":
        train_file = run.input(args.train_file, "train split")
        labeled = dt.read_dataset(train_file).labeled_pairs("click")
        params, trace = pretrain_encoder(labeled, cf.to_encoder_config(run.cfg))
    else:
        ckpt_in = run.input(args.checkpoint, "encoder checkpoint")
        train_file = run.input(args.train_file, "train split")
        params = load_encoder(ckpt_in)
        # architecture comes from the checkpoint, and config.resolved records
        # it; rates come from the config
        run.cfg.update((k, getattr(params.config, k)) for k in ("vocab_size", "d_raw", "d"))
        labeled = dt.read_dataset(train_file).labeled_pairs("rsl")
        params, trace = finetune_encoder(params, labeled, cf.to_encoder_config(run.cfg))
    ckpt = run.output("encoder.ckpt")
    save_encoder(params, ckpt)
    run.lines("encoder.log", [f"{e}\t{loss:.10f}" for e, loss in enumerate(trace)])
    print(f"encoder {args.encoder_command}: {len(labeled)} pairs, {len(trace)} epochs -> {ckpt}")
    return run.finish()


TRAIN_KEYS = (
    "seed", "d", "alpha", "beta", "gamma", "batch_size", "stage1_epochs", "stage2_epochs",
    "lr_stage1", "lr_base", "lr_rsl_finetune", "lr_prim", "grouping",
)


def _train_variant(args) -> tuple[str, bool]:
    """Map ablation flags to (variant, force_gamma_zero); reject conflicts."""
    others = [
        name
        for flag, name in (
            (args.no_prim, "--no-prim"),
            (args.no_regularizer, "--no-regularizer"),
            (args.no_two_stage, "--no-two-stage"),
        )
        if flag
    ]
    if args.base_only and others:
        raise ValidationError(f"--base-only conflicts with {', '.join(others)}")
    if args.gamma is not None and (args.no_regularizer or args.base_only):
        raise ValidationError("explicit --gamma conflicts with a flag that forces gamma=0")
    if args.base_only:
        return "base-only", True
    variant = "no-prim" if args.no_prim else "full"
    return variant, bool(args.no_regularizer)


def cmd_train(args) -> int:
    variant, force_gamma_zero = _train_variant(args)
    run = Stage(args, "train")
    train_file = run.input(args.train_file, "train split")
    index_file = run.input(args.index, "embedding index")

    samples = dt.read_dataset(train_file)
    index = load_index(index_file)
    mcfg = cf.to_model_config(run.cfg, variant)
    cache = md.TrainingCache(samples, index, mcfg)
    params = md.build_model(mcfg)
    tcfg = cf.to_train_config(
        run.cfg, gamma=0.0 if force_gamma_zero else None, no_two_stage=args.no_two_stage
    )
    params, reports = tr.train_two_stage(cache, params, tcfg)

    ckpt = run.output("model.ckpt")
    md.save_model(params, ckpt, extra_meta={"train_variant": variant})
    run.lines("training.log", [r.to_line() for r in reports])
    last = reports[-1].total if reports else float("nan")
    print(f"train [{variant}]: {len(samples)} impressions, final batch loss {last:.6f} -> {ckpt}")
    return run.finish(variant=variant, index_cache_misses=index.cache_misses)


def _parse_checkpoint_specs(run: Stage, specs) -> list[tuple[str, str]]:
    """(name, path) per NAME=PATH spec, names distinct and writable into
    metrics.txt; each path is recorded as an input of the run."""
    if not specs:
        raise ValidationError("eval needs at least one --checkpoint NAME=PATH")
    out: dict[str, str] = {}
    for spec in specs:
        name, _, path = spec.partition("=")
        if not name or not path:
            raise ValidationError(f"--checkpoint expects NAME=PATH, got {spec!r}")
        dt.check_text(name, "checkpoint name")
        if name in out:
            raise ValidationError(f"--checkpoint name {name!r} is given twice")
        out[name] = str(run.input(path, f"checkpoint {name}"))
    return list(out.items())


def cmd_eval(args) -> int:
    run = Stage(args, "eval")
    variants = _parse_checkpoint_specs(run, args.checkpoint)
    test_file = run.input(args.test_file, "test split")
    index_file = run.input(args.index, "embedding index")

    samples = dt.read_dataset(test_file)
    index = load_index(index_file)
    rows = ev.run_comparison(variants, samples, index, batch_size=run.cfg["batch_size"])
    table = ev.format_comparison(rows)
    print(table)

    run.lines("comparison.tsv", table.splitlines())
    run.lines("metrics.txt", ev.metric_lines(rows))
    return run.finish(index_cache_misses=index.cache_misses)


def cmd_sweep(args) -> int:
    if getattr(args, args.param) is not None:
        raise ValidationError(f"sweep --param {args.param} sets {args.param} per point; "
                              f"give the swept values with --values, not --{args.param}")
    run = Stage(args, "sweep")
    train_file = run.input(args.train_file, "train split")
    test_file = run.input(args.test_file, "test split")
    index_file = run.input(args.index, "embedding index")

    if args.values:
        try:
            values = parse_value(args.values, (0.0,))
        except ValueError:
            raise ValidationError(f"--values expects comma-separated numbers: {args.values!r}") from None
        for value in values:
            check_value(args.param, value, cf.DOMAINS[args.param])
    else:
        values = ALPHA_SWEEP if args.param == "alpha" else GAMMA_SWEEP
    if len(values) < 2:
        raise ValidationError("sweep needs at least 2 values")

    train_samples = dt.read_dataset(train_file)
    test_samples = dt.read_dataset(test_file)
    index = load_index(index_file)
    mcfg = cf.to_model_config(run.cfg, "full")
    cache = md.TrainingCache(train_samples, index, mcfg)
    test_cache = md.TrainingCache(test_samples, index, mcfg)  # scored once per value

    series = ["value\tauc\tgauc\trelevance_score"]
    for i, value in enumerate(values):
        tcfg = cf.to_train_config({**run.cfg, args.param: value})
        params = md.build_model(mcfg)
        params, _ = tr.train_two_stage(cache, params, tcfg)
        scores = md.score_cache(params, test_cache, batch_size=run.cfg["batch_size"])
        report = ev.evaluate_scores(test_samples, scores, index)
        row = {
            "variant": f"run{i}",
            "auc": report.auc,
            "rela_impr": 0.0,
            "gauc": report.gauc,
            "relevance_score": report.relevance_score,
        }
        run.lines(f"metrics-{i}.txt", ev.metric_lines([row]))
        series.append(f"{value!r}\t{report.auc:.17g}\t{report.gauc:.17g}"
                      f"\t{report.relevance_score:.17g}")
        print(f"sweep {args.param}={value}: auc {report.auc:.6f} gauc {report.gauc:.6f}")

    run.lines(f"sweep-{args.param}.tsv", series)
    return run.finish(param=args.param, values=list(values))


def _read_user_context(path) -> tuple[int, list[tuple[str, str]]]:
    with dt.open_text(path) as fh:
        lines = fh.read().splitlines()
        if not lines or not lines[0].startswith("user_id="):
            raise DatasetParseError(1, "expected first line user_id=<int>")
        user_id = dt.parse_int(lines[0][len("user_id="):], "user id", 1)
        history = []
        for line_no, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            parts = line.split("^")
            if len(parts) != 2 or not parts[0] or not parts[1]:
                raise DatasetParseError(line_no, "history line must be <query>^<item>")
            history.append((parts[0], parts[1]))
    if len(history) > dt.HISTORY_LIMIT:
        raise ValidationError(f"history exceeds {dt.HISTORY_LIMIT} entries")
    return user_id, history


def _read_candidates(path) -> list[tuple[int, str]]:
    out = []
    with dt.open_text(path) as fh:
        for line_no, line in enumerate(fh.read().splitlines(), start=1):
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[1]:
                raise DatasetParseError(line_no, "candidate line must be <item_id>\\t<item_text>")
            out.append((dt.parse_int(parts[0], "item id", line_no), parts[1]))
    if not out:
        raise ValidationError("candidates file has no candidates")
    return out


def cmd_rank(args) -> int:
    run = Stage(args, "rank")
    ckpt_file = run.input(args.checkpoint, "model checkpoint")
    index_file = run.input(args.index, "embedding index")
    user_file = run.input(args.user_file, "user context file")
    cand_file = run.input(args.candidates_file, "candidates file")

    user_id, history = _read_user_context(user_file)
    candidates = _read_candidates(cand_file)
    dt.check_text(args.query, "--query")
    for q, i in history:
        dt.check_text(q, "history query")
        dt.check_text(i, "history item")
    for _, item_text in candidates:
        dt.check_text(item_text, "candidate text")

    params, _ = md.load_model(ckpt_file)
    index = load_index(index_file)
    if args.encoder:
        index.attach_encoder(load_encoder(run.input(args.encoder, "encoder checkpoint")))

    samples = [
        md.sample_for_scoring(user_id, args.query, item_id, item_text, history)
        for item_id, item_text in candidates
    ]
    breakdowns = md.personalized_score(samples, index, params)
    scored = sorted(
        ((item_id, item_text, bd) for (item_id, item_text), bd in zip(candidates, breakdowns)),
        key=lambda row: (-row[2].final, row[0]),
    )

    rank_lines = [f"{item_id}\t{item_text}\t{bd.final:.17g}" for item_id, item_text, bd in scored]
    for line in rank_lines:
        print(line)
    run.lines("ranking.tsv", rank_lines)
    if args.explain:
        run.lines("explain.tsv", [bd.to_line() for _, _, bd in scored])
    return run.finish(index_cache_misses=index.cache_misses)


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p, keys=()):
    """The flags every command takes, plus one override flag per config key,
    typed as the key's default; the keys are what `Stage` resolves."""
    p.add_argument("--out-dir", required=True, help="output directory (one per command run)")
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--force", action="store_true", help="allow writing into a non-empty out-dir")
    for key in keys:
        p.add_argument("--" + key.replace("_", "-"), dest=key, type=type(cf.DEFAULTS[key]),
                       default=None, choices=cf.DOMAINS[key].choices or None)
    p.set_defaults(config_keys=keys)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rankfuse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate the synthetic corpus and splits")
    _add_common(p, GEN_KEYS)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("encoder", help="encoder pretrain / finetune / build-index")
    enc = p.add_subparsers(dest="encoder_command", required=True)

    pp = enc.add_parser("pretrain", help="pretrain the text encoder on click pairs")
    _add_common(pp, ("seed", "vocab_size", "d_raw", "d", "encoder_batch_size", "encoder_epochs",
                     "encoder_lr"))
    pp.add_argument("--train-file", required=True)
    pp.set_defaults(func=cmd_encoder)

    pf = enc.add_parser("finetune", help="finetune a pretrained encoder on relevance levels")
    _add_common(pf, ("seed", "encoder_batch_size", "finetune_epochs", "encoder_lr",
                     "finetune_lr_factor"))
    pf.add_argument("--checkpoint", required=True, help="pretrained encoder checkpoint")
    pf.add_argument("--train-file", required=True)
    pf.set_defaults(func=cmd_encoder)

    pb = enc.add_parser("build-index", help="precompute embeddings for dataset splits")
    _add_common(pb)
    pb.add_argument("--checkpoint", required=True, help="encoder checkpoint")
    pb.add_argument(
        "--dataset-file", action="append", default=[], help="dataset split (repeatable)"
    )
    pb.set_defaults(func=cmd_encoder)

    p = sub.add_parser("train", help="two-stage training with ablation flags")
    _add_common(p, TRAIN_KEYS)
    p.add_argument("--train-file", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--no-two-stage", action="store_true", help="skip the warm-up stage")
    p.add_argument("--no-regularizer", action="store_true", help="drop the listwise term")
    p.add_argument("--no-prim", action="store_true", help="freeze the incentive path at 1")
    p.add_argument("--base-only", action="store_true", help="single-head CTR model, no fusion")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="compare checkpoints on a split")
    _add_common(p, ("batch_size",))
    p.add_argument(
        "--checkpoint", action="append", default=[], help="NAME=PATH (repeatable; first is base)"
    )
    p.add_argument("--test-file", required=True)
    p.add_argument("--index", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="train and evaluate across hyperparameter values")
    _add_common(p, TRAIN_KEYS)
    p.add_argument("--param", required=True, choices=("alpha", "gamma"))
    p.add_argument("--values", default=None, help="comma-separated values (default per param)")
    p.add_argument("--train-file", required=True)
    p.add_argument("--test-file", required=True)
    p.add_argument("--index", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("rank", help="score and rank candidates for one query")
    _add_common(p)
    p.add_argument("--checkpoint", required=True, help="model checkpoint")
    p.add_argument("--index", required=True)
    p.add_argument("--encoder", default=None, help="encoder checkpoint for unseen texts")
    p.add_argument("--query", required=True)
    p.add_argument("--user-file", required=True, help="user_id=<int> line, then <query>^<item> history lines")
    p.add_argument("--candidates-file", required=True, help="<item_id>\\t<item_text> lines")
    p.add_argument("--explain", action="store_true", help="write per-item score breakdowns")
    p.set_defaults(func=cmd_rank)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        return args.func(args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 - the CLI boundary maps everything to exit 2
        print(f"runtime error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
