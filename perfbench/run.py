"""Benchmark of the rankfuse CLI pipeline and of `rank` requests.

    python3 perfbench/run.py --workload pipeline-longhist --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the program is imported from `src/` there.
`--trace 0` reports the end-to-end metrics, `--trace 1` wraps the program's
public functions and reports the per-layer metrics instead. The last line of
standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics`. The line before it, `perfbench-host {...}`, describes the host.
Work files go to `.perfbench_work/` and are removed at the end; the run
record (host, metrics, problems) and, when traced, the spans are kept in
`.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import SIZES, WORKLOADS, OperationFailed, Runner, end_to_end, run_workload  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "encoder_train_s": "s",
    "train_full_s": "s",
    "train_base_s": "s",
    "peak_rss_mb": "MB",
    "rank_10_p50_ms": "ms",
    "rank_200_p50_ms": "ms",
    "rank_1000_p50_ms": "ms",
}


def import_program() -> None:
    src = ROOT / "src"
    if not (src / "rankfuse" / "cli.py").is_file():
        sys.exit(f"perfbench: no rankfuse sources under {src}")
    sys.path.insert(0, str(src))
    import rankfuse

    if Path(rankfuse.__file__).resolve().parent != (src / "rankfuse").resolve():
        sys.exit(f"perfbench: imported rankfuse from {rankfuse.__file__}, not from {src}")


# ---------------------------------------------------------------------------
# host diagnostics


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def steal_seconds() -> float | None:
    """Hypervisor steal time of the whole host so far, from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _blas() -> dict:
    import ctypes

    import numpy as np

    info: dict = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"] = fn()
                    return info
    except OSError:
        pass
    return info


def host_info() -> dict:
    import numpy as np

    return {
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "loadavg_at_start": os.getloadavg(),
    }


# ---------------------------------------------------------------------------


def run_one(args) -> int:
    import_program()
    import checks
    import tracing

    wl = WORKLOADS[args.workload]
    host = host_info()
    work = ROOT / ".perfbench_work" / f"{wl.name}-{os.getpid()}"
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    tracer, absent = None, []
    if args.trace:
        tracer = tracing.Tracer()
        absent = tracing.instrument(tracer)
    try:
        steal0, t0 = steal_seconds(), time.perf_counter()
        result = run_workload(Runner(work, tracer), wl, args.seed, args.seconds)
        run_s = time.perf_counter() - t0
        steal1 = steal_seconds()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems = checks.check_run(result)
        if tracer is not None:
            metrics = tracing.layer_metrics(tracer, result)
        else:
            values = end_to_end(result, peak_rss_mb)
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    except OperationFailed as e:
        sys.exit(f"perfbench: {wl.name}: {e}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    host["steal_s"] = None if steal0 is None or steal1 is None else steal1 - steal0
    host["run_s"] = run_s
    host["measure_s"] = result.measure_s
    host["passes"] = len(result.passes)
    host["requests"] = {str(n): sum(1 for op in result.ops if op.stage == "rank" and op.timed
                                    and op.size == n) for n in SIZES}
    stem = f"{wl.name}-seed{args.seed}-trace{int(bool(args.trace))}"
    if tracer is not None:
        tracer.write(out_dir / f"{stem}-spans.tsv")
    failed = sum(1 for op in result.ops if op.rc != 0)
    line = {
        "correct": not problems,
        "attempted": len(result.ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": bool(args.trace), "host": host, "problems": problems,
              "absent_targets": absent, "result": line,
              "ops": [[op.stage, op.pass_no, op.size, op.timed, op.seconds] for op in result.ops]}
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    print("perfbench-host " + json.dumps(host, sort_keys=True))
    print(json.dumps(line))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"perfbench: workload {name} exited {proc.returncode}")
        for line in lines[:-1]:
            print(f"{name}: {line}")
        result = json.loads(lines[-1])
        print(f"{name}: {json.dumps(result)}")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}/{k}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
