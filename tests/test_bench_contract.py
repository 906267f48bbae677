"""The benchmark's use of the library keeps working: its warm-up, its word and
spectral operations with their output checks, and the traced run's
per-layer metrics.

The benchmark's tracer wraps module attributes in place, so everything runs
in a fresh subprocess and this test process keeps the unwrapped library.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# cold-start probes that time fresh interpreters, and the tracer's own
# figures, are not read from spans
_NOT_FROM_SPANS = ("cli.interpreter_ms", "cli.import_ms", "cli.import_harmonic_ms")

_SCRIPT = """
import json
import numpy as np
import tracing, worker, workloads

worker.warm_up()
words = workloads.word_inputs(np.random.default_rng(3))
items = [w for w in words if w.t_closed is None][:10]
items += [w for w in words if w.t_closed is not None][:2]
errors = []
for item in items:
    errors += workloads.word_check(item, workloads.word_op(item))
for lam in workloads.spectral_inputs(np.random.default_rng(3))[:4]:
    errors += workloads.spectral_check(lam, workloads.spectral_op(lam))
tracer = tracing.Tracer()
tracing.install(tracer)
worker.probe_passes(tracer, worker.cli_argv_cycle(np.random.default_rng(worker.PROBE_SEED)))
metrics, _ = tracing.layer_metrics(tracer.spans)
print(json.dumps({"errors": errors, "metrics": metrics}))
"""


def test_benchmark_ops_checks_and_traced_metrics():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    paths = [str(ROOT / "src"), str(ROOT / "bench")]
    env["PYTHONPATH"] = os.pathsep.join(paths + [env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["errors"] == []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [
        m["name"] for m in spec["per_layer"]
        if m["name"] not in _NOT_FROM_SPANS and not m["name"].startswith("trace.")
    ]
    missing = [
        name for name in wanted
        if not isinstance(out["metrics"].get(name), (int, float))
        or not math.isfinite(out["metrics"][name])
    ]
    assert missing == []
