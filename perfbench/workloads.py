"""The workloads: corpus make-up, pipeline passes and `rank` rounds.

Every timed operation is one `rankfuse.cli.main` call, so the benchmark sees
the program as a user of the CLI does. Stages find their inputs from the
`outputs` of the previous stage's `manifest.json`, never from fixed file
names, so a change of file format does not break the harness.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

SIZES = (10, 200, 1000)
HISTORY_LEN = 50
BATCH_SIZE, STAGE1_EPOCHS, STAGE2_EPOCHS = 2048, 1, 2
# acceptance-test learning rates, so that the models learn something
TRAIN_FLAGS = (
    "--batch-size", str(BATCH_SIZE), "--stage1-epochs", str(STAGE1_EPOCHS),
    "--stage2-epochs", str(STAGE2_EPOCHS),
    "--lr-stage1", "0.1", "--lr-base", "0.1", "--lr-rsl-finetune", "0.01", "--lr-prim", "0.1",
)
PRETRAIN_FLAGS = ("--encoder-epochs", "1")
FINETUNE_FLAGS = ("--finetune-epochs", "1")
STAGES = ("gen-data", "pretrain", "finetune", "build-index", "train-full", "train-base", "eval")
# enough catalogue items that 1000 distinct candidates can be drawn
N_ITEMS = 2000


# setup_s: gen-data through build-index
SETUP_STAGES = STAGES[:4]
# `rank` rounds (one request per list size) after each pipeline pass
ROUNDS_PER_PASS = 2
MIN_PASSES = 3


@dataclass(frozen=True)
class Workload:
    name: str
    n_impressions: int
    n_users: int
    # history carried by timed `rank` requests: "full" (50 entries) or "empty"
    history: str


# longhist: 15 users, so 99 % of rows carry a history of 35 entries on average;
# coldstart: as many users as impressions, so 90 % carry none.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("pipeline-longhist", 6000, 15, "full"),
        Workload("pipeline-coldstart", 8000, 8000, "empty"),
    )
}


class OperationFailed(RuntimeError):
    pass


def _clear_process_caches() -> None:
    """Make each CLI call start like a fresh `rankfuse` process would.

    `encoder.token_id` memoises token hashes for the life of a process; a
    new `rankfuse` process starts with it empty, so it is emptied before
    every call. Garbage from the previous call is collected outside the
    timed region.
    """
    from rankfuse import encoder

    cache_clear = getattr(getattr(encoder, "token_id", None), "cache_clear", None)
    if cache_clear is not None:
        cache_clear()
    gc.collect()


def manifest_outputs(out_dir: Path) -> dict[str, Path]:
    """Map each output's stem (`train`, `index`, `model`, ...) to its path.

    Logs are keyed by their whole name (`encoder.log`), since they share a
    stem with the checkpoint beside them.
    """
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    out = {}
    for raw in manifest["outputs"]:
        path = Path(raw)
        if path.name != "config.resolved":
            out[path.name if path.suffix == ".log" else path.stem] = path
    return out


@dataclass
class Op:
    stage: str
    argv: list[str]
    out_dir: Path
    seconds: float = 0.0
    rc: int = 0
    stderr: str = ""
    pass_no: int | None = None
    size: int | None = None
    timed: bool = True
    history: str | None = None
    model_pass: "PassResult | None" = None


class Runner:
    """Runs CLI operations, timing each and keeping a record of it."""

    def __init__(self, work: Path, tracer=None):
        self.work = work
        self.tracer = tracer
        self.ops: list[Op] = []

    def call(self, op: Op) -> Op:
        from rankfuse.cli import main

        _clear_process_caches()
        err = io.StringIO()
        span = self.tracer.request(op) if self.tracer is not None else contextlib.nullcontext()
        # what the command prints is also in its output files
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), span:
            t0 = time.perf_counter()
            op.rc = main(op.argv)
            op.seconds = time.perf_counter() - t0
        op.stderr = err.getvalue()
        self.ops.append(op)
        return op

    def stage(self, stage: str, argv: list[str], out_dir: Path, pass_no: int) -> dict[str, Path]:
        op = self.call(Op(stage, argv + ["--out-dir", str(out_dir)], out_dir, pass_no=pass_no))
        if op.rc != 0:
            raise OperationFailed(f"{stage} exited {op.rc}: {op.stderr.strip()}")
        return manifest_outputs(out_dir)


@dataclass
class PassResult:
    no: int
    dirs: dict[str, Path]
    artifacts: dict[str, dict[str, Path]]
    times: dict[str, float]


def run_pass(runner: Runner, wl: Workload, seed: int, no: int) -> PassResult:
    """gen-data -> encoder pretrain -> finetune -> build-index -> train full
    -> train base-only -> eval, each in its own output directory."""
    root = runner.work / f"pass{no}"
    dirs = {s: root / s for s in STAGES}
    art: dict[str, dict[str, Path]] = {}
    art["gen-data"] = runner.stage("gen-data", [
        "gen-data", "--seed", str(seed), "--n-impressions", str(wl.n_impressions),
        "--n-users", str(wl.n_users), "--n-items", str(N_ITEMS),
    ], dirs["gen-data"], no)
    splits = art["gen-data"]
    art["pretrain"] = runner.stage("pretrain", [
        "encoder", "pretrain", "--train-file", str(splits["train"]), *PRETRAIN_FLAGS,
    ], dirs["pretrain"], no)
    art["finetune"] = runner.stage("finetune", [
        "encoder", "finetune", "--checkpoint", str(art["pretrain"]["encoder"]),
        "--train-file", str(splits["train"]), *FINETUNE_FLAGS,
    ], dirs["finetune"], no)
    art["build-index"] = runner.stage("build-index", [
        "encoder", "build-index", "--checkpoint", str(art["finetune"]["encoder"]),
        *[a for s in ("train", "validation", "test") for a in ("--dataset-file", str(splits[s]))],
    ], dirs["build-index"], no)
    train = ["train", "--train-file", str(splits["train"]),
             "--index", str(art["build-index"]["index"]), *TRAIN_FLAGS]
    art["train-full"] = runner.stage("train-full", train, dirs["train-full"], no)
    art["train-base"] = runner.stage("train-base", train + ["--base-only"], dirs["train-base"], no)
    art["eval"] = runner.stage("eval", [
        "eval", "--checkpoint", f"base={art['train-base']['model']}",
        "--checkpoint", f"full={art['train-full']['model']}",
        "--test-file", str(splits["test"]), "--index", str(art["build-index"]["index"]),
    ], dirs["eval"], no)
    times = {op.stage: op.seconds for op in runner.ops if op.pass_no == no and op.stage in STAGES}
    return PassResult(no, dirs, art, times)


@dataclass
class RankInputs:
    """Request inputs, made once per run from the seed and the corpus."""

    query: str
    user_files: dict[str, Path]
    candidate_files: dict[int, Path]
    candidates: dict[int, list[tuple[int, str]]]
    history: list[tuple[str, str]]
    user_id: int


def make_rank_inputs(first: PassResult, seed: int, work: Path) -> RankInputs:
    """A query, a 50-entry click history and one candidate list per size.

    The history is 50 distinct clicked (query, item) pairs of the corpus, so
    every history entry is indexed. Candidates are distinct catalogue items
    drawn at random, so most (query, item) pairs are not in the index and go
    through the encoder fallback.
    """
    from rankfuse import data as dt

    splits = first.artifacts["gen-data"]
    samples = [s for name in ("train", "validation", "test") for s in dt.read_dataset(splits[name])]
    rng = random.Random(seed)
    items = sorted({(s.item_id, s.item_text) for s in samples})
    queries = sorted({s.query_text for s in samples})
    clicked = sorted({(s.query_text, s.item_text) for s in samples if s.click})
    history = rng.sample(clicked, HISTORY_LEN)
    user_id = rng.choice(sorted({s.user_id for s in samples}))
    query = rng.choice(queries)
    req = work / "requests"
    req.mkdir(parents=True, exist_ok=True)
    user_files = {"full": req / "user-full.txt", "empty": req / "user-empty.txt"}
    user_files["full"].write_text(
        f"user_id={user_id}\n" + "".join(f"{q}^{i}\n" for q, i in history), encoding="utf-8"
    )
    user_files["empty"].write_text(f"user_id={user_id}\n", encoding="utf-8")
    candidates, files = {}, {}
    for n in SIZES:
        candidates[n] = rng.sample(items, n)
        files[n] = req / f"candidates-{n}.txt"
        files[n].write_text("".join(f"{i}\t{t}\n" for i, t in candidates[n]), encoding="utf-8")
    return RankInputs(query, user_files, files, candidates, history, user_id)


def rank_request(runner: Runner, p: PassResult, inputs: RankInputs, size: int, history: str,
                 tag: str, timed: bool = True, pass_no: int | None = None) -> Op:
    out_dir = runner.work / "rank" / tag
    argv = [
        "rank", "--checkpoint", str(p.artifacts["train-full"]["model"]),
        "--index", str(p.artifacts["build-index"]["index"]),
        "--encoder", str(p.artifacts["finetune"]["encoder"]),
        "--query", inputs.query, "--user-file", str(inputs.user_files[history]),
        "--candidates-file", str(inputs.candidate_files[size]),
        "--explain", "--out-dir", str(out_dir),
    ]
    return runner.call(
        Op("rank", argv, out_dir, pass_no=pass_no, size=size, timed=timed, history=history, model_pass=p)
    )


def rank_round(runner: Runner, p: PassResult, inputs: RankInputs, history: str,
               rng: random.Random, round_no: int, pass_no: int) -> list[Op]:
    """One request per list size, in a fresh random order each round."""
    order = list(SIZES)
    rng.shuffle(order)
    return [
        rank_request(runner, p, inputs, n, history, f"r{round_no}-{n}", pass_no=pass_no)
        for n in order
    ]


@dataclass
class RunResult:
    workload: Workload
    passes: list[PassResult]
    inputs: RankInputs
    ops: list[Op]
    measure_s: float


def run_workload(runner: Runner, wl: Workload, seed: int, seconds: float) -> RunResult:
    """Pipeline passes, each followed by its `rank` rounds, until `seconds`
    have passed and at least MIN_PASSES passes are done."""
    rng = random.Random(seed + 1)
    passes: list[PassResult] = []
    inputs = None
    rounds = 0
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        p = run_pass(runner, wl, seed, len(passes) + 1)
        passes.append(p)
        if inputs is None:
            inputs = make_rank_inputs(p, seed, runner.work)
        for _ in range(ROUNDS_PER_PASS):
            rank_round(runner, p, inputs, wl.history, rng, rounds, pass_no=p.no)
            rounds += 1
    measure_s = time.perf_counter() - start
    if wl.history != "empty":
        # untimed: one empty-history request, for the tau == 1 check
        rank_request(runner, passes[-1], inputs, SIZES[0], "empty", "empty", timed=False)
    return RunResult(wl, passes, inputs, runner.ops, measure_s)


def end_to_end(result: RunResult, peak_rss_mb: float) -> dict[str, float]:
    wl = result.workload
    med = statistics.median
    times = [p.times for p in result.passes]
    metrics = {
        "setup_s": med(sum(t[s] for s in SETUP_STAGES) for t in times),
        "pipeline_s": med(sum(t[s] for s in STAGES) for t in times),
        "encoder_train_s": med(t["pretrain"] + t["finetune"] for t in times),
        "train_full_s": med(t["train-full"] for t in times),
        "train_base_s": med(t["train-base"] for t in times),
        "peak_rss_mb": peak_rss_mb,
    }
    for n in SIZES:
        lat = [op.seconds for op in result.ops if op.stage == "rank" and op.timed and op.size == n]
        metrics[f"rank_{n}_p50_ms"] = med(lat) * 1000.0
    return metrics
