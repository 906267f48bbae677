"""Benchmark entry point for f4decomp.

    python3 bench/run.py --workload word_factor --seed 1 --seconds 10 --trace 0

Run from the repository root. It times set-up in fresh worker processes,
lets the last of them run the timed phase, and prints as its last stdout
line one JSON object with "correct", "attempted", "failed" and "metrics":
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. Every process runs with one BLAS/OpenMP thread. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = BENCH / "out"
SETUPS = 3  # set-ups timed per run; the last one goes on to the timed phase
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKER_TIMEOUT_S = 170


def fail(message: str) -> int:
    print(f"bench/run.py: {message}", file=sys.stderr)
    return 2


def worker_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def start_worker(args, setup_only: bool) -> tuple[subprocess.Popen, float]:
    """Start a worker and return it with its set-up time: from just before
    the process is created until it prints "ready"."""
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not finish set-up (exit {proc.returncode})")
    return proc, setup


def finish(proc: subprocess.Popen) -> str:
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker timed out") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "f4decomp" / "__init__.py").is_file():
        return fail(f"no f4decomp sources under {ROOT / 'src'}; run from a full checkout")

    try:
        setups = []
        for i in range(SETUPS):
            proc, setup = start_worker(args, setup_only=i < SETUPS - 1)
            setups.append(setup)
            if i < SETUPS - 1:
                finish(proc)
        res = json.loads(finish(proc).splitlines()[-1])
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        return fail(str(exc))

    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    values = dict(res["metrics"], setup_s=statistics.median(setups))
    missing = [k for k in units if not isinstance(values.get(k), (int, float))]
    if missing:
        return fail(f"no value for {', '.join(missing)}")
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    result = {"correct": res["n_errors"] == 0, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}

    OUT_DIR.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setups_s=setups,
                  **{k: res[k] for k in ("environment", "rounds", "round_size", "tail_pct",
                                          "errors", "failures", "durations_ms")},
                  sources=res.get("sources", {}))
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for err in res["errors"] + res["failures"]:
        print(f"bench/run.py: {err}", file=sys.stderr)
    print(json.dumps({k: res[k] for k in ("environment", "rounds", "tail_pct")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
