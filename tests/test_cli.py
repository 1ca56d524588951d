import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rankfuse import config as cf
from rankfuse import data as dt
from rankfuse import evaluation as ev
from rankfuse import model as md
from rankfuse import training as tr
from rankfuse.cli import build_parser, main
from rankfuse.encoder import PAIR_KEY_SEP, load_encoder, load_index
from rankfuse.evaluation import read_metrics_file


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


GEN_FLAGS = [
    "--n-impressions", "400", "--n-users", "25", "--n-items", "60",
    "--n-queries", "30", "--seed", "11",
]
# small but real: d=16 everywhere, short schedules, lively learning rates
TRAIN_FLAGS = [
    "--d", "16", "--batch-size", "128", "--stage1-epochs", "2", "--stage2-epochs", "2",
    "--lr-stage1", "0.05", "--lr-base", "0.05", "--lr-rsl-finetune", "0.005",
    "--lr-prim", "0.05",
]


@pytest.fixture(scope="module")
def pipe(tmp_path_factory):
    """One shared corpus + encoder + index for all CLI tests."""
    root = tmp_path_factory.mktemp("pipe")
    data = root / "data"
    assert main(["gen-data", "--out-dir", str(data)] + GEN_FLAGS) == 0
    enc = root / "enc"
    assert (
        main(
            ["encoder", "pretrain", "--train-file", str(data / "train.tsv"),
             "--out-dir", str(enc), "--d", "16", "--d-raw", "32",
             "--encoder-epochs", "1", "--encoder-batch-size", "128"]
        )
        == 0
    )
    ft = root / "enc-ft"
    assert (
        main(
            ["encoder", "finetune", "--checkpoint", str(enc / "encoder.ckpt"),
             "--train-file", str(data / "train.tsv"), "--out-dir", str(ft),
             "--finetune-epochs", "1", "--encoder-batch-size", "128"]
        )
        == 0
    )
    idx = root / "idx"
    args = ["encoder", "build-index", "--checkpoint", str(ft / "encoder.ckpt"),
            "--out-dir", str(idx)]
    for split in ("train.tsv", "validation.tsv", "test.tsv"):
        args += ["--dataset-file", str(data / split)]
    assert main(args) == 0
    return {
        "root": root,
        "data": data,
        "train": data / "train.tsv",
        "test": data / "test.tsv",
        "encoder": ft / "encoder.ckpt",
        "index": idx / "index.tsv",
    }


def run_train(pipe, out, extra=()):
    args = ["train", "--train-file", str(pipe["train"]), "--index", str(pipe["index"]),
            "--out-dir", str(out)] + TRAIN_FLAGS + list(extra)
    return main(args)


# ---------------------------------------------------------------------------
# gen-data


def test_gen_data_outputs_and_manifest(pipe):
    data = pipe["data"]
    for name in ("train.tsv", "validation.tsv", "test.tsv",
                 "ground_truth.tsv", "config.resolved", "manifest.json"):
        assert (data / name).is_file()
    assert not (data / "dataset.tsv").exists()
    parts = [len(dt.read_dataset(data / f)) for f in ("train.tsv", "validation.tsv", "test.tsv")]
    assert sum(parts) == 400
    manifest = json.loads((data / "manifest.json").read_text())
    assert manifest["command"] == "gen-data"
    assert manifest["config"]["n_impressions"] == 400
    assert manifest["duration_seconds"] >= 0
    recorded = manifest["outputs"][str(data / "train.tsv")]
    assert recorded == sha(data / "train.tsv")


def test_gen_data_determinism(pipe, tmp_path):
    out = tmp_path / "again"
    assert main(["gen-data", "--out-dir", str(out)] + GEN_FLAGS) == 0
    for name in ("train.tsv", "validation.tsv", "test.tsv", "ground_truth.tsv"):
        assert sha(out / name) == sha(pipe["data"] / name)


def test_old_dataset_format_exits_1_naming_gen_data(tmp_path, capsys):
    old = tmp_path / "old.tsv"
    old.write_text(
        "user_id\tquery_text\titem_id\titem_text\tcategory_match\tcontains_query\trsl\tclick\thistory\n"
        "3\tcat a\t7\tcat a b\t1\t1\t4\t1\tcat a^cat a c;cat b^cat b d\n",
        encoding="utf-8",
    )
    capsys.readouterr()
    code = main(["encoder", "pretrain", "--train-file", str(old), "--out-dir", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {old}: line 1: ") and "rankfuse gen-data" in err, err


def test_version_2_dataset_exits_1_naming_gen_data(tmp_path, capsys):
    old = tmp_path / "v2.tsv"
    old.write_text(
        "rankfuse-dataset\tversion=2\tentries=1\thistories=1\n"
        "cat a\tcat a c\n"
        "0\n"
        "3\tcat a\t7\tcat a b\t1\t1\t4\t1\t0\n",
        encoding="utf-8",
    )
    capsys.readouterr()
    code = main(["encoder", "pretrain", "--train-file", str(old), "--out-dir", str(tmp_path / "o")])
    err = capsys.readouterr().err.splitlines()
    assert code == 1 and len(err) == 1, err
    assert err[0].startswith(f"error: {old}: line 1: ") and "rankfuse gen-data" in err[0], err


def test_split_cut_at_a_line_boundary_exits_1(pipe, tmp_path, capsys):
    cut = tmp_path / "train.tsv"
    lines = pipe["train"].read_text(encoding="utf-8").splitlines(keepends=True)
    cut.write_text("".join(lines[:-100]), encoding="utf-8")
    capsys.readouterr()
    code = main(["encoder", "pretrain", "--train-file", str(cut), "--out-dir", str(tmp_path / "o")])
    err = capsys.readouterr().err.splitlines()
    assert code == 1 and len(err) == 1, err
    assert err[0].startswith(f"error: {cut}: line {len(lines) - 99}: file ends after "), err
    assert not (tmp_path / "o" / "encoder.ckpt").exists()


def test_gen_data_refuses_non_empty(pipe, tmp_path):
    out = tmp_path / "occupied"
    out.mkdir()
    (out / "keep.txt").write_text("x")
    assert main(["gen-data", "--out-dir", str(out)] + GEN_FLAGS) == 1
    assert main(["gen-data", "--out-dir", str(out), "--force"] + GEN_FLAGS) == 0


def test_gen_data_zero_impressions(tmp_path):
    assert main(["gen-data", "--out-dir", str(tmp_path / "z"), "--n-impressions", "0"]) == 1


# every stage whose path once held a plain np.unique
NUMPY_MA_STAGES = {
    "gen-data": lambda pipe: ["gen-data", "--n-impressions", "300", "--n-users", "5",
                              "--n-items", "60", "--n-queries", "20"],
    "build-index": lambda pipe: ["encoder", "build-index", "--checkpoint", str(pipe["encoder"]),
                                 "--dataset-file", str(pipe["train"])],
    "train": lambda pipe: ["train", "--train-file", str(pipe["train"]),
                           "--index", str(pipe["index"])] + TRAIN_FLAGS,
    "train-query-group": lambda pipe: ["train", "--train-file", str(pipe["train"]),
                                       "--index", str(pipe["index"]), "--grouping",
                                       "query-group"] + TRAIN_FLAGS,
}


@pytest.mark.parametrize("stage", list(NUMPY_MA_STAGES))
def test_stage_leaves_numpy_ma_unimported(pipe, tmp_path, stage):
    # a plain np.unique imports numpy.ma on its first call, which costs a
    # fresh process more than the keys it dedupes; kernels.distinct does not
    argv = NUMPY_MA_STAGES[stage](pipe) + ["--out-dir", str(tmp_path / "o")]
    script = (
        "import sys\n"
        "from rankfuse.cli import main\n"
        f"code = main({argv!r})\n"
        "print(code, 'numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH"))
        if p))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["0", "False"]


# ---------------------------------------------------------------------------
# encoder


def test_finetune_records_the_checkpoint_shape(pipe):
    # pretrain ran with --d 16 --d-raw 32; finetune takes both from its checkpoint
    out = pipe["root"] / "enc-ft"
    resolved = cf.parse_config_file(out / "config.resolved")
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["config"]
    used = load_encoder(pipe["encoder"]).config
    assert (used.d, used.d_raw) == (16, 32)
    for key in ("vocab_size", "d_raw", "d"):
        assert resolved[key] == manifest[key] == getattr(used, key), key


def test_encoder_missing_checkpoint_is_dependency_error(pipe, tmp_path):
    code = main(
        ["encoder", "finetune", "--checkpoint", str(tmp_path / "nope.ckpt"),
         "--train-file", str(pipe["train"]), "--out-dir", str(tmp_path / "o")]
    )
    assert code == 1
    code = main(
        ["encoder", "build-index", "--checkpoint", str(tmp_path / "nope.ckpt"),
         "--dataset-file", str(pipe["train"]), "--out-dir", str(tmp_path / "o2")]
    )
    assert code == 1


def test_build_index_requires_dataset(pipe, tmp_path):
    code = main(
        ["encoder", "build-index", "--checkpoint", str(pipe["encoder"]),
         "--out-dir", str(tmp_path / "o")]
    )
    assert code == 1


def test_build_index_determinism(pipe, tmp_path):
    out = tmp_path / "idx2"
    args = ["encoder", "build-index", "--checkpoint", str(pipe["encoder"]),
            "--out-dir", str(out)]
    for split in ("train.tsv", "validation.tsv", "test.tsv"):
        args += ["--dataset-file", str(pipe["data"] / split)]
    assert main(args) == 0
    assert sha(out / "index.tsv") == sha(pipe["index"])


def test_index_covers_every_split_text(pipe):
    index = load_index(pipe["index"])
    for split in ("train.tsv", "validation.tsv", "test.tsv"):
        for s in dt.read_dataset(pipe["data"] / split):
            assert s.query_text in index.text and s.item_text in index.text
            for q, i in s.history:
                assert q in index.text and i in index.text


# ---------------------------------------------------------------------------
# train


def test_train_full_artifacts(pipe, tmp_path):
    out = tmp_path / "m"
    assert run_train(pipe, out) == 0
    assert (out / "model.ckpt").is_file()
    params, meta = md.load_model(out / "model.ckpt")
    assert meta["train_variant"] == "full"
    assert params.config.variant == "full"
    lines = (out / "training.log").read_text().splitlines()
    assert lines, "training log is empty"
    for line in lines:
        fields = line.split("\t")
        assert len(fields) == 6
        assert fields[1] in ("stage1", "stage2")
    assert any(line.split("\t")[1] == "stage1" for line in lines)


def test_train_determinism(pipe, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_train(pipe, a) == 0
    assert run_train(pipe, b) == 0
    assert sha(a / "model.ckpt") == sha(b / "model.ckpt")
    assert sha(a / "training.log") == sha(b / "training.log")


def test_train_no_regularizer_log_column(pipe, tmp_path):
    out = tmp_path / "m"
    assert run_train(pipe, out, ["--no-regularizer"]) == 0
    for line in (out / "training.log").read_text().splitlines():
        assert float(line.split("\t")[4]) == 0.0


def test_train_no_prim_params_untouched(pipe, tmp_path):
    out = tmp_path / "m"
    assert run_train(pipe, out, ["--no-prim"]) == 0
    params, meta = md.load_model(out / "model.ckpt")
    assert meta["train_variant"] == "no-prim"
    cfg = cf.resolve_config(
        overrides={k: v for k, v in zip(
            ("d", "batch_size", "stage1_epochs", "stage2_epochs"), (16, 128, 2, 2))}
    )
    init = md.build_model(cf.to_model_config(cfg, "no-prim"))
    for name in ("attn.w_q", "attn.w_k", "attn.w_v"):
        assert np.array_equal(params.all_params()[name].data, init.all_params()[name].data)
    # the trained groups did move
    assert not np.array_equal(
        params.all_params()["base.0.W"].data, init.all_params()["base.0.W"].data
    )


def test_train_base_only_and_conflicts(pipe, tmp_path):
    out = tmp_path / "m"
    assert run_train(pipe, out, ["--base-only"]) == 0
    params, meta = md.load_model(out / "model.ckpt")
    assert params.config.variant == "base-only"
    for flags in (["--base-only", "--no-prim"],
                  ["--base-only", "--no-regularizer"],
                  ["--base-only", "--no-two-stage"],
                  ["--no-regularizer", "--gamma", "0.5"],
                  ["--base-only", "--gamma", "0.1"]):
        assert run_train(pipe, tmp_path / "x", flags) == 1


def test_train_resolved_config_reruns_identically(pipe, tmp_path):
    first = tmp_path / "first"
    assert run_train(pipe, first) == 0
    second = tmp_path / "second"
    code = main(
        ["train", "--train-file", str(pipe["train"]), "--index", str(pipe["index"]),
         "--out-dir", str(second), "--config", str(first / "config.resolved")]
    )
    assert code == 0
    assert sha(second / "model.ckpt") == sha(first / "model.ckpt")


def test_train_ablation_compose_matches_direct_ce(pipe, tmp_path):
    # with every extension off, the logged loss is the plain fused-score CE
    out = tmp_path / "m"
    assert run_train(pipe, out, ["--no-regularizer", "--no-prim", "--no-two-stage"]) == 0
    lines = (out / "training.log").read_text().splitlines()
    first = lines[0].split("\t")
    assert first[1] == "stage2"
    assert float(first[4]) == 0.0
    assert first[3] == first[5]  # total is exactly the ctr term

    # rebuild the same initial state and replay the first batch by hand
    cfg = cf.resolve_config(str(out / "config.resolved"))
    samples = dt.read_dataset(pipe["train"])
    index = load_index(pipe["index"])
    mcfg = cf.to_model_config(cfg, "no-prim")
    cache = md.TrainingCache(samples, index, mcfg)
    params = md.build_model(mcfg)
    rows = np.random.default_rng(cfg["seed"] + 2).permutation(cache.n)[: cfg["batch_size"]]
    batch = cache.batch(rows)
    ce = tr.ctr_risk(md.score_batch(params, batch)["final"], batch.y)
    assert abs(float(ce.data) - float(first[3])) < 1e-9


# ---------------------------------------------------------------------------
# eval


def test_eval_single_and_pair(pipe, tmp_path, capsys):
    m = tmp_path / "m"
    assert run_train(pipe, m) == 0
    out = tmp_path / "ev"
    code = main(
        ["eval", "--checkpoint", f"full={m / 'model.ckpt'}",
         "--test-file", str(pipe["test"]), "--index", str(pipe["index"]),
         "--out-dir", str(out)]
    )
    assert code == 0
    table = (out / "comparison.tsv").read_text().splitlines()
    assert len(table) == 2  # header + one row
    assert table[1].split("\t")[2] == "+0.00%"
    printed = capsys.readouterr().out
    assert table[0] in printed

    metrics = read_metrics_file(out / "metrics.txt")
    assert set(metrics) == {"full.auc", "full.rela_impr", "full.gauc", "full.relevance_score"}
    assert metrics["full.rela_impr"] == 0.0

    out2 = tmp_path / "ev2"
    code = main(
        ["eval", "--checkpoint", f"a={m / 'model.ckpt'}", "--checkpoint", f"b={m / 'model.ckpt'}",
         "--test-file", str(pipe["test"]), "--index", str(pipe["index"]),
         "--out-dir", str(out2)]
    )
    assert code == 0
    metrics2 = read_metrics_file(out2 / "metrics.txt")
    assert metrics2["a.auc"] == metrics2["b.auc"]
    assert metrics2["b.rela_impr"] == 0.0


def test_eval_bad_checkpoint_spec(pipe, tmp_path):
    code = main(
        ["eval", "--checkpoint", "justapath", "--test-file", str(pipe["test"]),
         "--index", str(pipe["index"]), "--out-dir", str(tmp_path / "o")]
    )
    assert code == 1
    code = main(
        ["eval", "--test-file", str(pipe["test"]), "--index", str(pipe["index"]),
         "--out-dir", str(tmp_path / "o2")]
    )
    assert code == 1


# ---------------------------------------------------------------------------
# sweep


def test_sweep_gamma_zero_matches_no_regularizer(pipe, tmp_path):
    sweep_out = tmp_path / "sw"
    code = main(
        ["sweep", "--param", "gamma", "--values", "0,0.3",
         "--train-file", str(pipe["train"]), "--test-file", str(pipe["test"]),
         "--index", str(pipe["index"]), "--out-dir", str(sweep_out)] + TRAIN_FLAGS
    )
    assert code == 0
    series = (sweep_out / "sweep-gamma.tsv").read_text().splitlines()
    assert series[0] == "value\tauc\tgauc\trelevance_score"
    assert len(series) == 3

    m = tmp_path / "noreg"
    assert run_train(pipe, m, ["--no-regularizer"]) == 0
    ev_out = tmp_path / "ev"
    assert main(
        ["eval", "--checkpoint", f"noreg={m / 'model.ckpt'}",
         "--test-file", str(pipe["test"]), "--index", str(pipe["index"]),
         "--out-dir", str(ev_out)]
    ) == 0
    metrics = read_metrics_file(ev_out / "metrics.txt")
    row = series[1].split("\t")
    assert float(row[0]) == 0.0
    assert float(row[1]) == metrics["noreg.auc"]
    assert float(row[2]) == metrics["noreg.gauc"]
    assert float(row[3]) == metrics["noreg.relevance_score"]


def test_sweep_repeated_value_identical_rows(pipe, tmp_path):
    out = tmp_path / "sw"
    code = main(
        ["sweep", "--param", "alpha", "--values", "4,4",
         "--train-file", str(pipe["train"]), "--test-file", str(pipe["test"]),
         "--index", str(pipe["index"]), "--out-dir", str(out)] + TRAIN_FLAGS
    )
    assert code == 0
    series = (out / "sweep-alpha.tsv").read_text().splitlines()
    assert series[1].split("\t")[1:] == series[2].split("\t")[1:]


def test_sweep_builds_one_cache_per_split(pipe, tmp_path, monkeypatch):
    built = []
    init = md.TrainingCache.__init__

    def counted(self, samples, *args):
        built.append(len(samples))
        init(self, samples, *args)

    monkeypatch.setattr(md.TrainingCache, "__init__", counted)
    code = main(
        ["sweep", "--param", "gamma", "--values", "0,0.3,1",
         "--train-file", str(pipe["train"]), "--test-file", str(pipe["test"]),
         "--index", str(pipe["index"]), "--out-dir", str(tmp_path / "sw")] + TRAIN_FLAGS
    )
    assert code == 0
    assert built == [len(dt.read_dataset(pipe[k])) for k in ("train", "test")]


def test_sweep_points_train_with_the_resolved_config(pipe, tmp_path, capsys):
    # a config file's beta reaches every point, as the same flag does on train
    config = tmp_path / "run.cfg"
    config.write_text("beta=5.0\n", encoding="utf-8")
    sweep_out = tmp_path / "sw"
    code = main(
        ["sweep", "--param", "gamma", "--values", "0.3,1", "--config", str(config),
         "--train-file", str(pipe["train"]), "--test-file", str(pipe["test"]),
         "--index", str(pipe["index"]), "--out-dir", str(sweep_out)] + TRAIN_FLAGS
    )
    assert code == 0
    row = (sweep_out / "sweep-gamma.tsv").read_text().splitlines()[1].split("\t")
    m = tmp_path / "m"
    assert run_train(pipe, m, ["--beta", "5", "--gamma", "0.3"]) == 0
    ev_out = tmp_path / "ev"
    assert main(
        ["eval", "--checkpoint", f"m={m / 'model.ckpt'}", "--test-file", str(pipe["test"]),
         "--index", str(pipe["index"]), "--out-dir", str(ev_out)]
    ) == 0
    metrics = read_metrics_file(ev_out / "metrics.txt")
    assert [float(v) for v in row[1:]] == [
        metrics[f"m.{k}"] for k in ("auc", "gauc", "relevance_score")]

    # the swept key's own flag would be overridden at every point: refused
    for param in ("alpha", "gamma"):
        capsys.readouterr()
        out = tmp_path / f"own-{param}"
        code = main(
            ["sweep", "--param", param, "--values", "1,2", f"--{param}", "2",
             "--train-file", str(pipe["train"]), "--test-file", str(pipe["test"]),
             "--index", str(pipe["index"]), "--out-dir", str(out)] + TRAIN_FLAGS
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--values" in err, err
        assert not out.exists()


def test_sweep_needs_two_values(pipe, tmp_path):
    for n, values in enumerate(("4", "nan,4", "4,inf", "-1,4")):
        code = main(
            ["sweep", "--param", "alpha", "--values", values,
             "--train-file", str(pipe["train"]), "--test-file", str(pipe["test"]),
             "--index", str(pipe["index"]), "--out-dir", str(tmp_path / f"o{n}")]
        )
        assert code == 1, values


# ---------------------------------------------------------------------------
# rank


@pytest.fixture(scope="module")
def ranked_model(pipe, tmp_path_factory):
    out = tmp_path_factory.mktemp("rankmodel")
    assert run_train(pipe, out / "m") == 0
    return out / "m" / "model.ckpt"


def write_rank_inputs(tmp_path, pipe, n_candidates=3):
    samples = dt.read_dataset(pipe["test"])
    query = samples[0].query_text
    user_file = tmp_path / "user.txt"
    user_file.write_text("user_id=4\n", encoding="utf-8")
    cands = tmp_path / "cands.txt"
    seen = {}
    for s in samples:
        if s.item_id not in seen:
            seen[s.item_id] = s.item_text
        if len(seen) == n_candidates:
            break
    cands.write_text(
        "".join(f"{i}\t{t}\n" for i, t in sorted(seen.items())), encoding="utf-8"
    )
    return query, user_file, cands, len(seen)


def test_rank_sorted_and_explained(pipe, ranked_model, tmp_path, capsys):
    query, user_file, cands, n = write_rank_inputs(tmp_path, pipe)
    out = tmp_path / "rk"
    code = main(
        ["rank", "--checkpoint", str(ranked_model), "--index", str(pipe["index"]),
         "--encoder", str(pipe["encoder"]), "--query", query,
         "--user-file", str(user_file), "--candidates-file", str(cands),
         "--out-dir", str(out), "--explain"]
    )
    assert code == 0
    lines = (out / "ranking.tsv").read_text().splitlines()
    assert len(lines) == n
    scores = [float(line.split("\t")[2]) for line in lines]
    assert scores == sorted(scores, reverse=True)
    explain = (out / "explain.tsv").read_text().splitlines()
    assert len(explain) == n
    assert capsys.readouterr().out.splitlines()[:n] == lines


def test_rank_tie_break_by_item_id(pipe, ranked_model, tmp_path):
    # ids 2 and 4098 share a hash slot, so same text scores identically;
    # the lower id must come first
    samples = dt.read_dataset(pipe["test"])
    s = samples[0]
    user_file = tmp_path / "user.txt"
    user_file.write_text("user_id=4\n", encoding="utf-8")
    cands = tmp_path / "cands.txt"
    cands.write_text(f"4098\t{s.item_text}\n2\t{s.item_text}\n", encoding="utf-8")
    out = tmp_path / "rk"
    code = main(
        ["rank", "--checkpoint", str(ranked_model), "--index", str(pipe["index"]),
         "--encoder", str(pipe["encoder"]), "--query", s.query_text,
         "--user-file", str(user_file), "--candidates-file", str(cands),
         "--out-dir", str(out)]
    )
    assert code == 0
    lines = (out / "ranking.tsv").read_text().splitlines()
    ids = [int(line.split("\t")[0]) for line in lines]
    assert ids == [2, 4098]
    assert lines[0].split("\t")[2] == lines[1].split("\t")[2]


def test_rank_input_validation(pipe, ranked_model, tmp_path):
    query, user_file, cands, _ = write_rank_inputs(tmp_path, pipe)
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    base = ["rank", "--checkpoint", str(ranked_model), "--index", str(pipe["index"]),
            "--query", query, "--user-file", str(user_file)]
    assert main(base + ["--candidates-file", str(empty), "--out-dir", str(tmp_path / "a")]) == 1

    bad_user = tmp_path / "bad_user.txt"
    bad_user.write_text("who=4\n", encoding="utf-8")
    assert main(
        ["rank", "--checkpoint", str(ranked_model), "--index", str(pipe["index"]),
         "--query", query, "--user-file", str(bad_user),
         "--candidates-file", str(cands), "--out-dir", str(tmp_path / "b")]
    ) == 1


def test_rank_unseen_text_without_encoder_is_validation_error(pipe, ranked_model, tmp_path, capsys):
    query, user_file, _, _ = write_rank_inputs(tmp_path, pipe)
    cands = tmp_path / "new.txt"
    cands.write_text("1\ttotally unseen item text\n", encoding="utf-8")
    code = main(
        ["rank", "--checkpoint", str(ranked_model), "--index", str(pipe["index"]),
         "--query", query, "--user-file", str(user_file),
         "--candidates-file", str(cands), "--out-dir", str(tmp_path / "rk")]
    )
    assert code == 1
    assert "not indexed" in capsys.readouterr().err


def test_rank_old_text_index_exits_1(pipe, ranked_model, tmp_path, capsys):
    query, user_file, cands, _ = write_rank_inputs(tmp_path, pipe)
    old_index = tmp_path / "index.tsv"
    old_index.write_text("dim=16 checkpoint=abc\ntext\tred\t" + ",".join(["0.25"] * 16) + "\n")
    code = main(
        ["rank", "--checkpoint", str(ranked_model), "--index", str(old_index),
         "--query", query, "--user-file", str(user_file),
         "--candidates-file", str(cands), "--out-dir", str(tmp_path / "rk")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert str(old_index) in err and "build-index" in err


def test_rank_rejects_pair_key_separator(pipe, ranked_model, tmp_path):
    query, user_file, cands, _ = write_rank_inputs(tmp_path, pipe)
    bad = "a" + PAIR_KEY_SEP + "b"
    bad_cands = tmp_path / "bad_cands.txt"
    bad_cands.write_text(f"1\t{bad}\n", encoding="utf-8")
    bad_user = tmp_path / "bad_user.txt"
    bad_user.write_text(f"user_id=4\n{query}^{bad}\n", encoding="utf-8")
    for n, (q, u, c) in enumerate(
        ((bad, user_file, cands), (query, user_file, bad_cands), (query, bad_user, cands))
    ):
        code = main(
            ["rank", "--checkpoint", str(ranked_model), "--index", str(pipe["index"]),
             "--encoder", str(pipe["encoder"]), "--query", q, "--user-file", str(u),
             "--candidates-file", str(c), "--out-dir", str(tmp_path / f"rk{n}")]
        )
        assert code == 1


def test_manifests_report_index_cache_misses(pipe, ranked_model, tmp_path):
    def misses(out_dir):
        return json.loads((out_dir / "manifest.json").read_text())["index_cache_misses"]

    assert misses(ranked_model.parent) == 0
    query, user_file, _, _ = write_rank_inputs(tmp_path, pipe)
    cands = tmp_path / "new.txt"
    cands.write_text("1\ttotally unseen item text\n2\tanother new one\n", encoding="utf-8")
    out = tmp_path / "rk"
    code = main(
        ["rank", "--checkpoint", str(ranked_model), "--index", str(pipe["index"]),
         "--encoder", str(pipe["encoder"]), "--query", query, "--user-file", str(user_file),
         "--candidates-file", str(cands), "--out-dir", str(out)]
    )
    assert code == 0
    assert misses(out) > 0
    ev_out = tmp_path / "ev"
    assert main(
        ["eval", "--checkpoint", f"full={ranked_model}", "--test-file", str(pipe["test"]),
         "--index", str(pipe["index"]), "--out-dir", str(ev_out)]
    ) == 0
    assert misses(ev_out) == 0


# ---------------------------------------------------------------------------
# wrong-kind checkpoints and non-finite rates


def test_wrong_kind_checkpoint_exits_1(pipe, ranked_model, tmp_path, capsys):
    query, user_file, cands, _ = write_rank_inputs(tmp_path, pipe)
    model, encoder = str(ranked_model), str(pipe["encoder"])
    rank = ["rank", "--index", str(pipe["index"]), "--query", query,
            "--user-file", str(user_file), "--candidates-file", str(cands)]
    cases = (
        (rank + ["--checkpoint", model, "--encoder", model], model, "a model", "an encoder"),
        (rank + ["--checkpoint", encoder], encoder, "an encoder", "a model"),
        (["encoder", "finetune", "--checkpoint", model, "--train-file", str(pipe["train"])],
         model, "a model", "an encoder"),
        (["encoder", "build-index", "--checkpoint", model, "--dataset-file", str(pipe["test"])],
         model, "a model", "an encoder"),
        (["eval", "--checkpoint", f"full={encoder}", "--test-file", str(pipe["test"]),
          "--index", str(pipe["index"])], encoder, "an encoder", "a model"),
    )
    for n, (argv, path, found, expected) in enumerate(cases):
        capsys.readouterr()
        assert main(argv + ["--out-dir", str(tmp_path / f"o{n}")]) == 1, argv
        err = capsys.readouterr().err
        assert f"{path} is {found} checkpoint; expected {expected} checkpoint" in err, err


def test_checkpoint_with_a_misshapen_parameter_exits_1(pipe, ranked_model, tmp_path, capsys):
    from rankfuse.autodiff import Parameter
    from rankfuse.checkpoint import load_params, save_params

    query, user_file, cands, _ = write_rank_inputs(tmp_path, pipe)
    rank = ["rank", "--index", str(pipe["index"]), "--query", query,
            "--user-file", str(user_file), "--candidates-file", str(cands), "--checkpoint"]
    finetune = ["encoder", "finetune", "--train-file", str(pipe["train"]), "--checkpoint"]
    for n, (argv, good) in enumerate(((rank, ranked_model), (finetune, pipe["encoder"]))):
        params, meta = load_params(good)
        name = sorted(params)[0]
        p = params[name]
        params[name] = Parameter(name, np.zeros(p.data.shape[:-1] + (p.data.shape[-1] + 1,)),
                                 p.group)
        bad = tmp_path / f"bad{n}.ckpt"
        save_params(bad, params, meta)
        capsys.readouterr()
        assert main(argv + [str(bad), "--out-dir", str(tmp_path / f"o{n}")]) == 1, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bad}: parameter {name} "), err


def test_checkpoint_of_a_retired_model_shape_exits_1(pipe, ranked_model, tmp_path, capsys):
    from rankfuse.autodiff import Parameter
    from rankfuse.checkpoint import load_params, save_params

    params, meta = load_params(ranked_model)
    # a wide term over the two relevance flags, one output per level
    wide = {**params,
            "wide.W": Parameter("wide.W", np.zeros((2, md.N_LEVELS)), "base"),
            "wide.b": Parameter("wide.b", np.zeros(md.N_LEVELS), "base")}
    # a base module that did not read the pair embedding: its last d input rows
    first = params["base.0.W"]
    no_pair = {**params, "base.0.W": Parameter("base.0.W", first.data[:-int(meta["d"])], "base")}
    query, user_file, cands, _ = write_rank_inputs(tmp_path, pipe)
    for n, (retired, extra_meta) in enumerate(
        ((wide, {"use_wide": "1"}), (no_pair, {"base_uses_r_cur": "0"}))
    ):
        bad = tmp_path / f"retired{n}.ckpt"
        save_params(bad, retired, {**meta, **extra_meta})
        for argv in (
            ["rank", "--checkpoint", str(bad), "--index", str(pipe["index"]), "--query", query,
             "--user-file", str(user_file), "--candidates-file", str(cands)],
            ["eval", "--checkpoint", f"old={bad}", "--test-file", str(pipe["test"]),
             "--index", str(pipe["index"])],
        ):
            capsys.readouterr()
            assert main(argv + ["--out-dir", str(tmp_path / f"o{n}{argv[0]}")]) == 1, argv
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"error: {bad}: "), err


def test_checkpoint_meta_that_does_not_parse_exits_1(pipe, ranked_model, tmp_path, capsys):
    from rankfuse.checkpoint import load_params, save_params

    query, user_file, cands, _ = write_rank_inputs(tmp_path, pipe)

    def rank(ckpt):
        return ["rank", "--index", str(pipe["index"]), "--query", query, "--user-file",
                str(user_file), "--candidates-file", str(cands), "--checkpoint", str(ckpt)]

    def eval_(ckpt):
        return ["eval", "--test-file", str(pipe["test"]), "--index", str(pipe["index"]),
                "--checkpoint", f"old={ckpt}"]

    def build_index(ckpt):
        return ["encoder", "build-index", "--dataset-file", str(pipe["test"]), "--checkpoint",
                str(ckpt)]

    cases = [(ranked_model, key, raw, (rank, eval_))
             for key, raw in (("d", "x"), ("base_hidden", "4,x"), ("seed", "1.5"))]
    cases += [(pipe["encoder"], key, raw, (build_index,)) for key, raw in (("d", "x"), ("lr", "fast"))]
    for n, (good, key, raw, commands) in enumerate(cases):
        params, meta = load_params(good)
        bad = tmp_path / f"bad{n}.ckpt"
        save_params(bad, params, {**meta, key: raw})
        for command in commands:
            capsys.readouterr()
            argv = command(bad) + ["--out-dir", str(tmp_path / f"o{n}{command.__name__}")]
            assert main(argv) == 1, argv
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"error: {bad}: meta {key}: "), err


def test_checkpoint_with_retired_default_meta_loads(ranked_model, tmp_path):
    from rankfuse.checkpoint import load_params, params_digest, save_params

    params, meta = load_params(ranked_model)
    old = tmp_path / "old.ckpt"
    save_params(old, params, {**meta, "use_wide": "0", "base_uses_r_cur": "1"})
    back, _ = md.load_model(str(old))
    assert params_digest(back.all_params()) == params_digest(params)


def test_checkpoint_with_one_head_meta_ranks_the_same(pipe, ranked_model, tmp_path):
    # checkpoints written while head_count was a setting record head_count=1
    from rankfuse.checkpoint import load_params, save_params

    params, meta = load_params(ranked_model)
    old = tmp_path / "old.ckpt"
    save_params(old, params, {**meta, "head_count": "1"})
    query, user_file, cands, _ = write_rank_inputs(tmp_path, pipe, n_candidates=8)
    outs = []
    for n, model in enumerate((ranked_model, old)):
        outs.append(tmp_path / f"rk{n}")
        assert main(["rank", "--checkpoint", str(model), "--index", str(pipe["index"]),
                     "--encoder", str(pipe["encoder"]), "--query", query,
                     "--user-file", str(user_file), "--candidates-file", str(cands),
                     "--out-dir", str(outs[-1]), "--explain"]) == 0
    for name in ("ranking.tsv", "explain.tsv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_checkpoint_with_more_heads_exits_1(pipe, ranked_model, tmp_path, capsys):
    from rankfuse.checkpoint import load_params, save_params

    params, meta = load_params(ranked_model)
    bad = tmp_path / "heads.ckpt"
    save_params(bad, params, {**meta, "head_count": "2"})
    query, user_file, cands, _ = write_rank_inputs(tmp_path, pipe)
    for argv in (
        ["rank", "--checkpoint", str(bad), "--index", str(pipe["index"]), "--query", query,
         "--user-file", str(user_file), "--candidates-file", str(cands)],
        ["eval", "--checkpoint", f"old={bad}", "--test-file", str(pipe["test"]),
         "--index", str(pipe["index"])],
    ):
        capsys.readouterr()
        assert main(argv + ["--out-dir", str(tmp_path / argv[0])]) == 1, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bad}: head_count=2"), err


def test_train_rejects_non_finite_learning_rate(pipe, tmp_path, capsys):
    assert run_train(pipe, tmp_path / "flag", ["--lr-base", "nan"]) == 1
    assert "lr_base" in capsys.readouterr().err
    assert not (tmp_path / "flag" / "model.ckpt").exists()

    config = tmp_path / "run.cfg"
    config.write_text("lr_base=inf\n", encoding="utf-8")
    args = ["train", "--train-file", str(pipe["train"]), "--index", str(pipe["index"]),
            "--out-dir", str(tmp_path / "file"), "--config", str(config), "--d", "16"]
    assert main(args) == 1
    assert "lr_base" in capsys.readouterr().err
    assert not (tmp_path / "file" / "model.ckpt").exists()


def test_non_utf8_text_files_exit_1(pipe, ranked_model, tmp_path, capsys):
    query, user_file, cands, _ = write_rank_inputs(tmp_path, pipe)
    bad_user = tmp_path / "user-latin1.txt"
    bad_user.write_bytes("user_id=4\ncafé^hat\n".encode("latin-1"))
    bad_cands = tmp_path / "cands-latin1.txt"
    bad_cands.write_bytes("1\tcafé hat\n".encode("latin-1"))
    bad_train = tmp_path / "train-latin1.tsv"
    bad_train.write_bytes(pipe["train"].read_bytes() + "1\tcafé\n".encode("latin-1"))
    bad_config = tmp_path / "latin1.cfg"
    bad_config.write_bytes("seed=3  # café\n".encode("latin-1"))
    rank = ["rank", "--checkpoint", str(ranked_model), "--index", str(pipe["index"]),
            "--query", query]
    cases = (
        (rank + ["--user-file", str(bad_user), "--candidates-file", str(cands)], bad_user),
        (rank + ["--user-file", str(user_file), "--candidates-file", str(bad_cands)], bad_cands),
        (["train", "--train-file", str(bad_train), "--index", str(pipe["index"])] + TRAIN_FLAGS,
         bad_train),
        (rank + ["--user-file", str(user_file), "--candidates-file", str(cands),
                 "--config", str(bad_config)], bad_config),
    )
    for n, (argv, path) in enumerate(cases):
        capsys.readouterr()
        assert main(argv + ["--out-dir", str(tmp_path / f"o{n}")]) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err and "UTF-8" in err, err


def test_binary_container_in_a_text_slot_exits_1(pipe, ranked_model, tmp_path, capsys):
    capsys.readouterr()
    code = main(["train", "--train-file", str(ranked_model), "--index", str(pipe["index"]),
                 "--out-dir", str(tmp_path / "o")] + TRAIN_FLAGS)
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {ranked_model}: "), lines
    assert "binary container" in lines[0]


def test_rank_parse_errors_name_the_file(pipe, ranked_model, tmp_path, capsys):
    query, user_file, cands, _ = write_rank_inputs(tmp_path, pipe)
    bad_user = tmp_path / "who.txt"
    bad_user.write_text("who=4\n", encoding="utf-8")
    bad_cands = tmp_path / "noid.txt"
    bad_cands.write_text("1\tgood item\nx\tbad id\n", encoding="utf-8")
    # ids only in the form the writer gives them: `int()` alone takes these
    signed_user = tmp_path / "signed.txt"
    signed_user.write_text("user_id=+29\n", encoding="utf-8")
    zero_cands = tmp_path / "zeros.txt"
    zero_cands.write_text("00\tgood item\n", encoding="utf-8")
    padded_cands = tmp_path / "padded.txt"
    padded_cands.write_text("1\tgood item\n02\tother item\n", encoding="utf-8")
    rank = ["rank", "--checkpoint", str(ranked_model), "--index", str(pipe["index"]),
            "--query", query]
    for n, (user, cand, path, where) in enumerate((
        (bad_user, cands, bad_user, "line 1"),
        (user_file, bad_cands, bad_cands, "line 2"),
        (signed_user, cands, signed_user, "line 1"),
        (user_file, zero_cands, zero_cands, "line 1"),
        (user_file, padded_cands, padded_cands, "line 2"),
    )):
        capsys.readouterr()
        files = ["--user-file", str(user), "--candidates-file", str(cand)]
        assert main(rank + files + ["--out-dir", str(tmp_path / f"o{n}")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {path}: {where}: "), err


@pytest.mark.parametrize("kind,reason", [("dir", "Is a directory"), ("missing", "No such file")])
def test_unreadable_config_exits_1(tmp_path, capsys, kind, reason):
    config = tmp_path if kind == "dir" else tmp_path / "absent.cfg"
    capsys.readouterr()
    code = main(["gen-data", "--config", str(config), "--out-dir", str(tmp_path / "o")] + GEN_FLAGS)
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {config}: "), lines
    assert reason in lines[0]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,key,bad,edge", [
    ("pretrain", "encoder_batch_size", "0", "1"),
    ("pretrain", "encoder_epochs", "-1", "0"),
    ("finetune", "encoder_batch_size", "0", "1"),
    ("finetune", "finetune_epochs", "-2", "0"),
])
def test_encoder_schedule_out_of_range_exits_1_naming_the_key(
    pipe, tmp_path, capsys, command, key, bad, edge
):
    # no epochs, so that the edge runs are quick; the last of a repeated flag wins
    argv = ["encoder", command, "--train-file", str(pipe["train"]), "--d", "16", "--d-raw", "32",
            "--encoder-epochs", "0"]
    if command == "finetune":
        argv = ["encoder", command, "--train-file", str(pipe["train"]),
                "--checkpoint", str(pipe["encoder"]), "--finetune-epochs", "0"]
    flag = "--" + key.replace("_", "-")
    capsys.readouterr()
    assert main(argv + [flag, bad, "--out-dir", str(tmp_path / "bad")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {key} "), err
    # the value on the edge of the domain is accepted
    assert main(argv + [flag, edge, "--out-dir", str(tmp_path / "edge")]) == 0


@pytest.mark.parametrize("line,key", [
    ("base_hidden=0", "base_hidden"),
    ("base_hidden=-4", "base_hidden"),
    ("rsl_hidden=0,4", "rsl_hidden"),
    ("incentive_hidden=-1", "incentive_hidden"),
    ("stage1_epochs=-1", "stage1_epochs"),
    ("stage2_epochs=-1", "stage2_epochs"),
])
def test_train_config_out_of_range_exits_1_naming_the_key(pipe, tmp_path, capsys, line, key):
    config = tmp_path / "run.cfg"
    config.write_text(line + "\n", encoding="utf-8")
    capsys.readouterr()
    args = ["train", "--train-file", str(pipe["train"]), "--index", str(pipe["index"]),
            "--out-dir", str(tmp_path / "o"), "--config", str(config), "--d", "16"]
    assert main(args) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {key} "), err
    assert not (tmp_path / "o" / "model.ckpt").exists()


def test_train_config_with_no_base_hidden_layer_trains(pipe, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("base_hidden=\n", encoding="utf-8")
    assert run_train(pipe, tmp_path / "o", ["--config", str(config)]) == 0


@pytest.mark.parametrize("command", ["pretrain", "finetune"])
def test_encoder_diverging_rate_exits_2_and_writes_nothing(pipe, tmp_path, capsys, command):
    out = tmp_path / "o"
    argv = ["encoder", command, "--train-file", str(pipe["train"]), "--out-dir", str(out),
            "--encoder-lr", "1e100", "--encoder-batch-size", "128"]
    if command == "pretrain":
        argv += ["--d", "16", "--d-raw", "32", "--encoder-epochs", "1"]
    else:
        argv += ["--checkpoint", str(pipe["encoder"]), "--finetune-lr-factor", "1",
                 "--finetune-epochs", "1"]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: TrainingError: non-finite loss at epoch 0 "), err
    assert f" {command} batch " in err
    assert not (out / "encoder.ckpt").exists() and not (out / "manifest.json").exists()


def test_a_diverging_run_writes_one_stderr_line(pipe, tmp_path):
    # the non-finite-loss error, without numpy's overflow warnings before it
    argv = ["encoder", "pretrain", "--train-file", str(pipe["train"]), "--out-dir",
            str(tmp_path / "o"), "--encoder-lr", "1e100", "--encoder-batch-size", "128",
            "--d", "16", "--d-raw", "32", "--encoder-epochs", "1"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH"))
        if p))
    proc = subprocess.run([sys.executable, "-m", "rankfuse.cli", *argv], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 2
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("runtime error: TrainingError: non-finite loss"), err


# ---------------------------------------------------------------------------
# undefined metrics


def test_eval_and_sweep_refuse_an_undefined_metric(pipe, ranked_model, tmp_path, capsys):
    # a metric that the given split or checkpoint leaves undefined is bad
    # input: exit 1, one error line, no manifest
    samples = list(dt.read_dataset(pipe["test"]))
    no_clicks, one_class_users = tmp_path / "no-clicks.tsv", tmp_path / "one-class-users.tsv"
    for s in samples:
        s.click = 0
    dt.write_dataset(samples, no_clicks)
    for s in samples:
        s.click = s.user_id % 2  # both classes overall, one per user
    dt.write_dataset(samples, one_class_users)
    params, _ = md.load_model(ranked_model)
    for p in params.all_params().values():
        p.data[...] = 0.0  # every row gets the same score: AUC 0.5
    flat = tmp_path / "flat.ckpt"
    md.save_model(params, flat)
    index = ["--index", str(pipe["index"])]
    cases = [
        ("AUC needs both", ["eval", "--checkpoint", f"m={ranked_model}",
                            "--test-file", str(no_clicks)] + index),
        ("GAUC: no user", ["eval", "--checkpoint", f"m={ranked_model}",
                           "--test-file", str(one_class_users)] + index),
        ("RelaImpr undefined", ["eval", "--checkpoint", f"flat={flat}",
                                "--test-file", str(pipe["test"])] + index),
        ("AUC needs both", ["sweep", "--param", "alpha", "--values", "1,2",
                            "--train-file", str(pipe["train"]), "--test-file", str(no_clicks)]
         + index + TRAIN_FLAGS),
    ]
    for n, (words, argv) in enumerate(cases):
        capsys.readouterr()
        out = tmp_path / f"o{n}"
        assert main(argv + ["--out-dir", str(out)]) == 1, words
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and words in err[0], err
        assert not (out / "manifest.json").exists()


# ---------------------------------------------------------------------------
# eval checkpoint names


@pytest.mark.parametrize("names", [("a", "a"), ("a\tb",), ("a\nb",)])
def test_eval_refuses_a_repeated_or_unwritable_name_before_scoring(
    pipe, ranked_model, tmp_path, monkeypatch, names
):
    # a repeated name would overwrite the first model's metrics, and a tab or
    # newline would write a metrics.txt that read_metrics_file refuses
    scored = []
    monkeypatch.setattr(ev, "run_comparison", lambda *a, **kw: scored.append(a))
    argv = ["eval", "--test-file", str(pipe["test"]), "--index", str(pipe["index"]),
            "--out-dir", str(tmp_path / "ev")]
    for name in names:
        argv += ["--checkpoint", f"{name}={ranked_model}"]
    assert main(argv) == 1
    assert scored == []


# ---------------------------------------------------------------------------
# the stage contract: config.resolved and manifest.json


def stage_case(command, pipe, model, tmp_path):
    """(argv without --out-dir and --config, the files it names, an argv that
    fails: after the out-dir is made, but gen-data's on a config value, which
    is refused before)."""
    train, test, index, encoder = (pipe[k] for k in ("train", "test", "index", "encoder"))
    missing = str(tmp_path / "missing.tsv")
    if command == "gen-data":
        argv = ["gen-data", "--n-impressions", "300", "--n-users", "5", "--n-items", "60",
                "--n-queries", "20"]
        return argv, [], argv + ["--n-impressions", "0"]
    if command == "pretrain":
        argv = ["encoder", "pretrain", "--train-file", str(train), "--d", "16", "--d-raw", "32",
                "--encoder-epochs", "1", "--encoder-batch-size", "128"]
        return argv, [train], argv + ["--train-file", missing]
    if command == "finetune":
        argv = ["encoder", "finetune", "--checkpoint", str(encoder), "--train-file", str(train),
                "--finetune-epochs", "1", "--encoder-batch-size", "128"]
        return argv, [encoder, train], argv + ["--train-file", missing]
    if command == "build-index":
        argv = ["encoder", "build-index", "--checkpoint", str(encoder),
                "--dataset-file", str(train), "--dataset-file", str(test)]
        return argv, [encoder, train, test], argv + ["--dataset-file", missing]
    if command == "train":
        argv = ["train", "--train-file", str(train), "--index", str(index)] + TRAIN_FLAGS
        return argv, [train, index], argv + ["--index", missing]
    if command == "eval":
        other = tmp_path / "other.ckpt"
        other.write_bytes(model.read_bytes())
        argv = ["eval", "--checkpoint", f"a={model}", "--checkpoint", f"b={other}",
                "--test-file", str(test), "--index", str(index)]
        return argv, [model, other, test, index], argv + ["--checkpoint", f"a={model}"]
    if command == "sweep":
        argv = ["sweep", "--param", "gamma", "--values", "0,0.3", "--train-file", str(train),
                "--test-file", str(test), "--index", str(index)] + TRAIN_FLAGS
        return argv, [train, test, index], argv + ["--test-file", missing]
    query, user_file, cands, _ = write_rank_inputs(tmp_path, pipe)
    argv = ["rank", "--checkpoint", str(model), "--index", str(index), "--encoder", str(encoder),
            "--query", query, "--user-file", str(user_file), "--candidates-file", str(cands),
            "--explain"]
    return argv, [model, index, encoder, user_file, cands], argv + ["--encoder", missing]


STAGES = ("gen-data", "pretrain", "finetune", "build-index", "train", "eval", "sweep", "rank")


@pytest.mark.parametrize("command", STAGES)
def test_stage_contract(pipe, ranked_model, tmp_path, command):
    argv, files, broken = stage_case(command, pipe, ranked_model, tmp_path)
    config = tmp_path / "run.cfg"
    config.write_text("d=16\n", encoding="utf-8")
    files = [config] + files

    failed = tmp_path / "failed"
    assert main(broken + ["--out-dir", str(failed), "--config", str(config)]) == 1
    assert failed.is_dir() == (command != "gen-data")
    assert not (failed / "config.resolved").exists() and not (failed / "manifest.json").exists()

    out = tmp_path / "out"
    assert main(argv + ["--out-dir", str(out), "--config", str(config)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["inputs"] == {str(p): sha(p) for p in files}
    written = [p for p in out.iterdir() if p.name != "manifest.json"]
    assert manifest["outputs"] == {str(p): sha(p) for p in written}
    assert (out / "config.resolved") in written
    assert isinstance(manifest["peak_rss_mb"], float) and manifest["peak_rss_mb"] > 0
    assert manifest["numpy_version"] == np.__version__


OVERRIDE_FLAGS = {
    ("gen-data",): {"seed", "n_users", "n_items", "n_queries", "n_impressions", "n_categories",
                    "n_descriptors"},
    ("encoder", "pretrain"): {"seed", "vocab_size", "d_raw", "d", "encoder_batch_size",
                              "encoder_epochs", "encoder_lr"},
    ("encoder", "finetune"): {"seed", "encoder_batch_size", "finetune_epochs", "encoder_lr",
                              "finetune_lr_factor"},
    ("encoder", "build-index"): set(),
    ("train",): {"seed", "d", "alpha", "beta", "gamma", "batch_size", "stage1_epochs",
                 "stage2_epochs", "lr_stage1", "lr_base", "lr_rsl_finetune", "lr_prim", "grouping"},
    ("eval",): {"batch_size"},
    ("rank",): set(),
}
OVERRIDE_FLAGS[("sweep",)] = OVERRIDE_FLAGS[("train",)]


@pytest.mark.parametrize("path", list(OVERRIDE_FLAGS), ids=" ".join)
def test_each_subcommand_keeps_its_override_flags(path):
    parser = build_parser()
    for name in path:
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[name]
    flags = {a.dest: a for a in parser._actions if a.dest in cf.DEFAULTS}
    assert set(flags) == OVERRIDE_FLAGS[path]
    assert set(parser.get_default("config_keys")) == OVERRIDE_FLAGS[path]
    for key, action in flags.items():
        assert action.option_strings == ["--" + key.replace("_", "-")]
        assert action.type is type(cf.DEFAULTS[key]) and action.default is None
    if "grouping" in flags:
        assert tuple(flags["grouping"].choices) == tr.GROUPINGS
