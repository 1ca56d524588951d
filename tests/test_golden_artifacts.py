"""Golden-artifact gate: a fixed small pipeline must write the bytes recorded
in `tests/golden/digests.json`.

The pipeline runs gen-data, encoder pretrain and finetune, build-index, train
(full, no-prim, base-only, query-group), eval, a two-value sweep and
`rank --encoder --explain`, in a child process with one BLAS thread. It also
runs gen-data alone on the edge configurations in GEN_DATA_CASES. Every
artifact except the `manifest.json` files (which hold wall-clock data) is
hashed with sha256. A change that claims the same behaviour must leave every
digest as it is. A change that means to move bytes regenerates the file and
says which files moved and why:

    python tests/test_golden_artifacts.py --regenerate

The digests hold for the numpy version and BLAS build recorded next to them;
under another one the test is skipped, naming both.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "tests" / "golden" / "digests.json"
REGENERATE = "python tests/test_golden_artifacts.py --regenerate"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TRAIN_FLAGS = (
    "--d", "16", "--batch-size", "512", "--stage1-epochs", "1", "--stage2-epochs", "2",
    "--lr-stage1", "0.1", "--lr-base", "0.1", "--lr-rsl-finetune", "0.01", "--lr-prim", "0.1",
)
VARIANTS = {
    "full": (),
    "no-prim": ("--no-prim",),
    "base-only": ("--base-only",),
    "query-group": ("--grouping", "query-group"),
}
# gen-data alone, on configurations that reach the generator's edge branches
GEN_DATA_CASES = {
    # one category: every lookalike item takes the fallback branch
    "one-category": ("--seed", "4", "--n-categories", "1", "--n-impressions", "500",
                     "--n-users", "10", "--n-items", "60", "--n-queries", "20"),
    # few descriptors and queries: some queries hold their category alone
    "tiny": ("--seed", "5", "--n-descriptors", "8", "--n-categories", "3", "--n-queries", "6",
             "--n-items", "20", "--n-users", "3", "--n-impressions", "200"),
    # one user: the history reaches its HISTORY_LIMIT cap
    "one-user": ("--seed", "6", "--n-users", "1", "--n-impressions", "400", "--n-items", "100",
                 "--n-queries", "30"),
}


def run_pipeline(work: Path) -> None:
    """Every stage through `rankfuse.cli.main`, one output directory each."""
    from rankfuse import data as dt
    from rankfuse.cli import main

    def run(*argv):
        argv = [str(a) for a in argv]
        if main(argv) != 0:
            raise SystemExit(f"rankfuse {' '.join(argv)} failed")

    data, pre, fine, idx = (work / n for n in ("data", "pretrain", "finetune", "index"))
    run("gen-data", "--out-dir", data, "--seed", "3", "--n-impressions", "3000",
        "--n-users", "40", "--n-items", "300", "--n-queries", "60")
    train, test = data / "train.tsv", data / "test.tsv"
    run("encoder", "pretrain", "--train-file", train, "--out-dir", pre, "--d", "16",
        "--d-raw", "32", "--encoder-epochs", "2")
    run("encoder", "finetune", "--checkpoint", pre / "encoder.ckpt", "--train-file", train,
        "--out-dir", fine, "--finetune-epochs", "1")
    run("encoder", "build-index", "--checkpoint", fine / "encoder.ckpt", "--out-dir", idx,
        *[a for s in ("train", "validation", "test") for a in ("--dataset-file", data / f"{s}.tsv")])
    index = idx / "index.tsv"
    for name, flags in VARIANTS.items():
        run("train", "--train-file", train, "--index", index, "--out-dir", work / f"train-{name}",
            *TRAIN_FLAGS, *flags)
    run("eval", "--test-file", test, "--index", index, "--out-dir", work / "eval",
        *[a for name in VARIANTS for a in ("--checkpoint", f"{name}={work / f'train-{name}' / 'model.ckpt'}")])
    run("sweep", "--param", "gamma", "--values", "0.1,0.5", "--train-file", train,
        "--test-file", test, "--index", index, "--out-dir", work / "sweep", *TRAIN_FLAGS)

    samples = dt.read_dataset(test)
    user = next(s for s in samples if s.history)
    (work / "user.txt").write_text(
        f"user_id={user.user_id}\n" + "".join(f"{q}^{i}\n" for q, i in user.history),
        encoding="utf-8")
    cands = dict(sorted({(s.item_id, s.item_text) for s in samples})[:40])
    for k in range(3):  # texts no split holds, so the encoder fallback runs
        cands[9990 + k] = f"unseen item text {k}"
    (work / "cands.txt").write_text(
        "".join(f"{i}\t{t}\n" for i, t in cands.items()), encoding="utf-8")
    run("rank", "--checkpoint", work / "train-full" / "model.ckpt", "--index", index,
        "--encoder", fine / "encoder.ckpt", "--query", samples[0].query_text,
        "--user-file", work / "user.txt", "--candidates-file", work / "cands.txt",
        "--explain", "--out-dir", work / "rank")
    for name, flags in GEN_DATA_CASES.items():
        run("gen-data", "--out-dir", work / f"gen-{name}", *flags)


def environment() -> dict[str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def pipeline_digests(work: Path) -> dict[str, str]:
    """Run the pipeline in a child process; sha256 of every non-manifest file."""
    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, __file__, "--run", str(work)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, f"golden pipeline failed:\n{proc.stderr}"
    return {
        p.relative_to(work).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(work.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


def test_artifacts_match_golden_digests(tmp_path):
    golden = json.loads(DIGESTS.read_text(encoding="utf-8"))
    if golden["environment"] != environment():
        pytest.skip(f"digests recorded under {golden['environment']}, this is {environment()}")
    got, want = pipeline_digests(tmp_path / "golden"), golden["files"]
    moved = sorted(f for f in want.keys() | got.keys() if want.get(f) != got.get(f))
    assert not moved, (
        f"{len(moved)} golden artifact(s) changed:\n"
        + "".join(f"  {f}: {want.get(f, 'absent')} -> {got.get(f, 'absent')}\n" for f in moved)
        + f"If the change of bytes is intended, regenerate with `{REGENERATE}` "
        "and say in CHANGES.md which files moved and why."
    )


if __name__ == "__main__":
    if sys.argv[1:2] == ["--run"]:
        run_pipeline(Path(sys.argv[2]))
    elif sys.argv[1:] == ["--regenerate"]:
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            files = pipeline_digests(Path(tmp) / "golden")
        DIGESTS.parent.mkdir(parents=True, exist_ok=True)
        DIGESTS.write_text(json.dumps({"environment": environment(), "files": files},
                                      indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {len(files)} digests to {DIGESTS.relative_to(ROOT)}")
    else:
        sys.exit(f"usage: {REGENERATE}")
