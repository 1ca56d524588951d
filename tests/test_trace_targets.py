"""Guard for the benchmark's traced run: perfbench wraps named functions of
the program (`perfbench/tracing.py` TARGETS) and builds its per-layer metrics
from their spans, so a target that disappears, or that `rank` stops calling,
silently drops a metric. `tracing.py` is loaded by path and only read; the
instrumented run happens in a child process so no wrapper leaks into other
tests."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rankfuse import data as dt
from rankfuse import model as md
from rankfuse.cli import main
from rankfuse.encoder import load_encoder, load_index

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """Corpus, encoder, index and full model, small enough to build in seconds."""
    root = tmp_path_factory.mktemp("trace")
    data, enc, idx, mdl = (root / n for n in ("data", "enc", "idx", "model"))
    assert main(["gen-data", "--out-dir", str(data), "--n-impressions", "300", "--n-users", "12",
                 "--n-items", "50", "--n-queries", "20", "--seed", "5"]) == 0
    assert main(["encoder", "pretrain", "--train-file", str(data / "train.tsv"), "--out-dir", str(enc),
                 "--d", "8", "--d-raw", "16", "--encoder-epochs", "1",
                 "--encoder-batch-size", "128"]) == 0
    assert main(["encoder", "build-index", "--checkpoint", str(enc / "encoder.ckpt"),
                 "--out-dir", str(idx), "--dataset-file", str(data / "train.tsv")]) == 0
    assert main(["train", "--train-file", str(data / "train.tsv"), "--index", str(idx / "index.tsv"),
                 "--out-dir", str(mdl), "--d", "8", "--batch-size", "64", "--stage1-epochs", "1",
                 "--stage2-epochs", "1"]) == 0
    test = dt.read_dataset(data / "test.tsv")
    query = test[0].query_text
    history = next(s.history for s in test if s.history)
    (root / "user.txt").write_text(
        "user_id=3\n" + "".join(f"{q}^{i}\n" for q, i in history), encoding="utf-8")
    cands = {s.item_id: s.item_text for s in test[:8]}
    for k in range(3):  # unindexed: three text and three pair misses
        cands[9997 + k] = f"item text {k} that no split holds"
    (root / "cands.txt").write_text(
        "".join(f"{i}\t{t}\n" for i, t in sorted(cands.items())), encoding="utf-8")
    return {
        "root": root, "test": test, "query": query, "history": history,
        "candidates": sorted(cands.items()), "encoder": enc / "encoder.ckpt",
        "index": idx / "index.tsv", "model": mdl / "model.ckpt",
    }


def test_every_target_resolves():
    for module_name, attr, _ in load_tracing().TARGETS:
        owner = importlib.import_module(f"rankfuse.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), f"perfbench traces rankfuse.{module_name}.{attr}, which is gone"


CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import rankfuse
import importlib.util
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[2])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
absent = tracing.instrument(tracer)
from rankfuse.cli import main
out = []
for argv in json.loads(sys.argv[3]):
    first = len(tracer.spans)
    with tracer.request(None):
        rc = main(argv)
    spans = [s[tracing.NAME] for s in tracer.spans[first:]]
    parents = [s[tracing.PARENT] - first for s in tracer.spans[first:]]
    counts = {name: n for (req, name), n in tracer.counts.items() if req == first}
    out.append({"rc": rc, "absent": absent, "spans": spans, "parents": parents, "counts": counts})
print(json.dumps(out))
"""


def traced_calls(argvs):
    """Run each CLI argv in one instrumented child process; per call its
    exit code, the absent targets, span names, each span's parent (an index
    into the names) and lookup counts."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "src"), str(TRACING), json.dumps(argvs)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_rank_reaches_traced_calls(tiny, tmp_path):
    argv = ["rank", "--checkpoint", str(tiny["model"]), "--index", str(tiny["index"]),
            "--encoder", str(tiny["encoder"]), "--query", tiny["query"],
            "--user-file", str(tiny["root"] / "user.txt"),
            "--candidates-file", str(tiny["root"] / "cands.txt"),
            "--out-dir", str(tmp_path / "rk"), "--explain"]
    [out] = traced_calls([argv])
    assert out["rc"] == 0 and out["absent"] == []
    # model.score_candidate_ms: one personalized_score span per request
    assert out["spans"].count("model.personalized_score") == 1
    assert out["spans"].count("model.sample_for_scoring") == len(tiny["candidates"])
    assert out["spans"].count("encoder.encode_text") >= 1  # the unindexed candidates
    # encoder.fallback_*: a request's misses are encoded in one batch per kind
    assert out["spans"].count("encoder.encode_pair") == 1
    assert out["spans"].count("encoder.encode_text") <= 1
    # encoder.index_hit_ratio: lookups counted under the request
    for name in ("encoder.EmbeddingIndex.lookup_text", "encoder.EmbeddingIndex.lookup_pair"):
        assert out["counts"].get(name, 0) > 0, name


def test_rank_scores_equal_score_dataset(tiny):
    params, _ = md.load_model(tiny["model"])
    index = load_index(tiny["index"])
    index.attach_encoder(load_encoder(tiny["encoder"]))
    request = [md.sample_for_scoring(3, tiny["query"], i, t, tiny["history"])
               for i, t in tiny["candidates"]]
    for samples in (request, tiny["test"]):
        finals = np.array([bd.final for bd in md.personalized_score(samples, index, params)])
        assert np.array_equal(finals, md.score_dataset(params, samples, index))


def test_stages_read_each_split_once(tiny, tmp_path):
    # data.read_s: every stage that reads a split goes through data.read_dataset,
    # once per split; model.cache_build_s: train builds one TrainingCache
    data = tiny["root"] / "data"
    train, test = str(data / "train.tsv"), str(data / "test.tsv")
    stages = {
        "pretrain": (["encoder", "pretrain", "--train-file", train, "--d", "8", "--d-raw", "16",
                      "--encoder-epochs", "1"], 1),
        "finetune": (["encoder", "finetune", "--checkpoint", str(tiny["encoder"]),
                      "--train-file", train, "--finetune-epochs", "1"], 1),
        "build-index": (["encoder", "build-index", "--checkpoint", str(tiny["encoder"]),
                         "--dataset-file", train, "--dataset-file", test], 2),
        "train": (["train", "--train-file", train, "--index", str(tiny["index"]), "--d", "8",
                   "--batch-size", "64", "--stage1-epochs", "1", "--stage2-epochs", "1"], 1),
        # the index holds the train split's texts only
        "eval": (["eval", "--checkpoint", f"full={tiny['model']}", "--test-file", train,
                  "--index", str(tiny["index"])], 1),
    }
    argvs = [argv + ["--out-dir", str(tmp_path / name)] for name, (argv, _) in stages.items()]
    traced = traced_calls(argvs)
    for (name, (_, reads)), out in zip(stages.items(), traced):
        assert out["rc"] == 0 and out["absent"] == [], name
        assert out["spans"].count("data.read_dataset") == reads, name
    train_spans = traced[list(stages).index("train")]["spans"]
    assert train_spans.count("model.TrainingCache.__init__") == 1
    # kernels.pad_segments_* and model.hist_slot_fill: the full train and eval
    # pad each batch's history windows in one pad_segments call
    for name in ("train", "eval"):
        out = traced[list(stages).index(name)]
        batches = out["spans"].count("model.TrainingCache.batch")
        assert batches > 0 and out["spans"].count("kernels.pad_segments") == batches, name
        assert direct_children(out, "model.TrainingCache.batch", "kernels.pad_segments") == [1] * batches


def test_eval_scores_and_evaluates_once_per_checkpoint(tiny, tmp_path):
    # model.score_dataset_s and evaluation.metrics_s read these spans; a run
    # that lacks either metric is refused as malformed
    train = str(tiny["root"] / "data" / "train.tsv")  # the index holds its texts
    argv = ["eval", "--checkpoint", f"a={tiny['model']}", "--checkpoint", f"b={tiny['model']}",
            "--test-file", train, "--index", str(tiny["index"]), "--out-dir", str(tmp_path / "ev")]
    [out] = traced_calls([argv])
    assert out["rc"] == 0 and out["absent"] == []
    assert out["spans"].count("model.score_dataset") == 2
    assert out["spans"].count("evaluation.evaluate_scores") == 2


def direct_children(out, parent, child):
    """Per span named `parent`, the number of its direct children named `child`."""
    names, parents = out["spans"], out["parents"]
    return [sum(1 for k, name in enumerate(names) if name == child and parents[k] == i)
            for i, name in enumerate(names) if name == parent]


def test_each_step_is_one_direct_child_span(tiny, tmp_path):
    # encoder.*_step_ms time the steps between the direct encode_bags children
    # of each encoder stage; training.sgd_ms reads the direct sgd_step children
    # of train_stage2 only, so the encoder's and stage 1's steps stay out of it
    train = str(tiny["root"] / "data" / "train.tsv")
    batches = -(-len(dt.read_dataset(train)) // 64)
    out_dirs = [tmp_path / name for name in ("pre", "fine", "train")]
    argvs = [
        ["encoder", "pretrain", "--train-file", train, "--d", "8", "--d-raw", "16",
         "--encoder-epochs", "2", "--encoder-batch-size", "64"],
        ["encoder", "finetune", "--checkpoint", str(tiny["encoder"]), "--train-file", train,
         "--finetune-epochs", "2", "--encoder-batch-size", "64"],
        ["train", "--train-file", train, "--index", str(tiny["index"]), "--d", "8",
         "--batch-size", "64", "--stage1-epochs", "1", "--stage2-epochs", "2"],
    ]
    pre, fine, train_out = traced_calls(
        [argv + ["--out-dir", str(out)] for argv, out in zip(argvs, out_dirs)])
    for out, stage in ((pre, "encoder.pretrain_encoder"), (fine, "encoder.finetune_encoder")):
        assert out["rc"] == 0 and out["absent"] == [], stage
        assert direct_children(out, stage, "encoder.encode_bags") == [2 * batches], stage
        assert direct_children(out, stage, "training.sgd_step") == [2 * batches], stage
    assert train_out["rc"] == 0 and train_out["absent"] == []
    log = (out_dirs[2] / "training.log").read_text(encoding="utf-8").splitlines()
    steps = {stage: sum(1 for line in log if line.split("\t")[1] == stage)
             for stage in ("stage1", "stage2")}
    assert steps["stage2"] > 0 and steps["stage1"] == batches
    assert direct_children(train_out, "training.train_stage2", "training.sgd_step") == [steps["stage2"]]
    assert direct_children(train_out, "training.pretrain_rsl", "training.sgd_step") == [steps["stage1"]]
    assert train_out["spans"].count("training.sgd_step") == steps["stage1"] + steps["stage2"]


def test_perfbench_selftest_passes():
    # the benchmark's output checks pass on correct inputs and fail on corrupted ones
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
