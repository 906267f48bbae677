"""One fresh benchmark process: set-up, the timed phase, output checks and,
when traced, the per-layer metrics.

It prints "ready" once set-up is done (the parent times set-up up to that
line) and, unless --setup-only, one JSON result as its last line. Run it
through run.py, which pins the BLAS threads and sets PYTHONPATH.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from f4decomp import cli, decomp, harmonic, liegroup, wordlang

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

WARM_WORD = "A3(0.5;1)*G1(0.1e1-0.2e3)*Gm2(0.3e5)*D4(2,e1,e2)"
PROBE_SEED = 0  # probes are the same in every run
PROBE_WORDS = 10
PROBE_LAMBDAS = (2.0, 9.5, complex(4.0, 3.0), complex(12.0, 6.0))
PROBE_REPEATS = 3
FIXTURES = Path("src") / "f4decomp" / "fixtures" / "words.jsonl"


def environment() -> dict:
    """Versions and thread settings the figures depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    return dict(python=platform.python_version(), numpy=np.__version__,
                scipy=scipy.__version__, blas=f"{blas.get('name')} {blas.get('version')}",
                nproc=os.cpu_count(), **threads)


def warm_up() -> None:
    """Fill the program's lazy caches: the jordan product tensor (first
    verify), the closed-cell pivot, basis52, the Killing Gram matrix and the
    quadrature normalization integrals."""
    g = wordlang.eval_word(wordlang.parse(WARM_WORD))
    decomp.iwasawa(g)
    decomp.matsuki(wordlang.eval_word(wordlang.parse(workloads.QUARTER_TURN)))
    liegroup.basis52()
    harmonic.alpha_norm()
    harmonic.spherical(2.0, 0.5)
    harmonic.c_quadrature(2.0)


def timed_phase(wl: workloads.Workload, items: list, seconds: float, tracer) -> dict:
    """Whole rounds over items: at least MIN_ROUNDS, and the number of
    rounds that brings the wall time closest to `seconds`."""
    op = wl.op if tracer is None else tracer.wrap(tracing.OP_SPAN, wl.op)
    durations, failures, first_outputs, later = [], [], [], []
    start = time.perf_counter()
    rounds = 0
    while True:
        for i, item in enumerate(items):
            if tracer is not None:
                tracer.op = len(durations)
            t0 = time.perf_counter()
            try:
                out = op(item)
            except Exception as exc:  # a failed op is counted, not fatal
                out = None
                failures.append(f"{type(exc).__name__}: {exc}"[:300])
            durations.append(time.perf_counter() - t0)
            if rounds == 0:
                first_outputs.append(out)
            elif out is not None:
                later.append((i, wl.fingerprint(out)))
        rounds += 1
        wall = time.perf_counter() - start
        if rounds >= workloads.MIN_ROUNDS and wall + 0.5 * wall / rounds >= seconds:
            break
    return {"durations": durations, "failures": failures, "first": first_outputs,
            "later": later, "rounds": rounds, "wall": wall}


def check_outputs(wl: workloads.Workload, items: list, res: dict) -> list[str]:
    errs = []
    for item, out in zip(items, res["first"]):
        if out is not None:
            errs += wl.check(item, out)
    for i, fp in res["later"]:
        first = res["first"][i]
        if first is None or not workloads.fingerprints_match(wl.fingerprint(first), fp):
            errs.append(f"op {i} gave a different output in a later round")
    return errs


def _wall_ms(argv: list[str]) -> tuple[float, str]:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=120)
    return (time.perf_counter() - t0) * 1e3, proc.stderr


def _harmonic_import_ms(stderr: str) -> float:
    # -X importtime lines: "import time: self [us] | cumulative | name"
    for line in stderr.splitlines():
        fields = [f.strip() for f in line.split("|")]
        if len(fields) == 3 and fields[2] == "f4decomp.harmonic":
            return int(fields[1]) / 1e3
    raise RuntimeError("no f4decomp.harmonic line in -X importtime output")


def cli_probes() -> dict:
    py = sys.executable
    runs = {"interpreter": [], "import": [], "import_harmonic": []}
    for _ in range(PROBE_REPEATS):
        runs["interpreter"].append(_wall_ms([py, "-c", "pass"])[0])
        runs["import"].append(_wall_ms([py, "-c", "import f4decomp"])[0])
        stderr = _wall_ms([py, "-X", "importtime", "-c", "import f4decomp"])[1]
        runs["import_harmonic"].append(_harmonic_import_ms(stderr))
    return {f"cli.{k}_ms": statistics.median(v) for k, v in runs.items()}


def cli_argv_cycle(rng) -> list[tuple[tuple[str, ...], str]]:
    """(argv, stdin) for each subcommand, with fixture words whose stored
    record for that subcommand is not an error."""
    by_op: dict[str, list] = {}
    for line in (ROOT / FIXTURES).read_text().splitlines():
        rec = json.loads(line)
        for op, expected in rec["expect"].items():
            if "error" not in expected:
                by_op.setdefault(op, []).append((rec["word"], expected))

    def pick(op):
        return by_op[op][int(rng.integers(len(by_op[op])))]

    cycle = [((op, "--word", pick(op)[0]), "") for op in
             ("eval", "iwasawa", "keps", "matsuki", "gauss", "classify")]
    lam = complex(rng.uniform(0.5, 22.0), rng.uniform(0.0, 8.0))
    cycle.append((("cfunction", "--lambda", f"{lam.real!r},{lam.imag!r}"), ""))
    cycle.append((("verify", "--matrix", "-"), json.dumps(pick("eval")[1]["mat"])))
    cycle.append((("selftest",), ""))
    return cycle


def _cli_main(item: tuple[tuple[str, ...], str]) -> None:
    argv, stdin = item
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        old, sys.stdin = sys.stdin, io.StringIO(stdin)
        try:
            code = cli.main(list(argv))
        finally:
            sys.stdin = old
    if code != 0:
        raise RuntimeError(f"cli.main({argv[0]}) returned {code}")


def probe_passes(tracer: tracing.Tracer, cli_items: list) -> None:
    """Fixed calls that measure the layers a workload's timed phase leaves
    idle, and cli.main in-process once warm."""
    rng = np.random.default_rng(PROBE_SEED)
    words = [workloads.WordItem(workloads.random_word(rng, 1 + i % 8), None)
             for i in range(PROBE_WORDS - 1)] + [workloads.closed_word(rng)]
    op = tracer.wrap(tracing.OP_SPAN, workloads.word_op)
    spectral = tracer.wrap(tracing.OP_SPAN, workloads.spectral_op)
    for item in cli_items:
        _cli_main(item)  # warm pass, untraced
    tracer.active = True
    for phase, fn, items in (("probe_words", op, words),
                             ("probe_spectral", spectral, PROBE_LAMBDAS),
                             ("probe_cli", _cli_main, cli_items)):
        tracer.phase = phase
        for i, item in enumerate(items):
            tracer.op = i
            fn(item)
    tracer.active = False


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    warm_up()
    wl = workloads.WORKLOADS[args.workload]
    items = wl.make_inputs(np.random.default_rng(args.seed))
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.phase, tracer.active = tracing.TIMED, True
    res = timed_phase(wl, items, args.seconds, tracer)
    if tracer is not None:
        tracer.active = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB to MiB

    errors = check_outputs(wl, items, res)
    durations = res["durations"]
    n_ops = len(durations)
    # an input's latency is the median over the rounds of its wall times
    latency = np.median(np.reshape(durations, (res["rounds"], len(items))), axis=0)
    tail = workloads.tail_pct(len(items))
    out = {
        "environment": environment(),
        "attempted": n_ops,
        "failed": len(res["failures"]),
        "errors": errors[:20],
        "n_errors": len(errors),
        "failures": res["failures"][:20],
        "rounds": res["rounds"],
        "round_size": len(items),
        "tail_pct": tail,
        "durations_ms": [round(1e3 * d, 4) for d in durations],
    }
    if tracer is None:
        out["metrics"] = {
            "ops_per_s": (n_ops - len(res["failures"])) / res["wall"],
            "op_p50_ms": 1e3 * float(np.median(latency)),
            "op_tail_ms": 1e3 * workloads.percentile(latency, tail),
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        probe_passes(tracer, cli_argv_cycle(np.random.default_rng(PROBE_SEED)))
        metrics, sources = tracing.layer_metrics(tracer.spans)
        metrics.update(cli_probes())
        metrics["trace.span_coverage_pct"] = tracing.span_coverage_pct(tracer.spans)
        metrics["trace.ops_per_s"] = n_ops / res["wall"]
        out["metrics"] = metrics
        out["sources"] = sources
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
