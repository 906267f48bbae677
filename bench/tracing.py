"""In-memory span recording around the program's public functions, and the
per-layer metrics derived from the spans.

A span is (name, start_ns, end_ns, parent, op, phase). Wrappers are
installed on module attributes, where the program's own callers look them
up, and on names a module imported by value (decomp binds exp_A, exp_N and
d4_rotate from liegroup). A wrapper records nothing while the tracer is
inactive, so set-up, warm-up and output checks leave no spans.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict

_NS_PER_MS = 1e6


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.active = False
        self.phase = ""
        self.op = -1

    def wrap(self, name: str, fn, suffix=None):
        """Return fn recording one span per call; suffix(args, result), when
        given, appends a label to the name (e.g. the cell of a matsuki call)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append(None)
            tracer.stack.append(idx)
            label = name
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if suffix is not None:
                    label = f"{name}_{suffix(args, result)}"
                return result
            finally:
                end = time.perf_counter_ns()
                tracer.stack.pop()
                tracer.spans[idx] = (label, start, end, parent, tracer.op, tracer.phase)

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op, phase in self.spans:
                rec = {"name": name, "start_ns": start, "dur_ns": end - start,
                       "parent": parent, "op": op, "phase": phase}
                fh.write(json.dumps(rec) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the benchmark times."""
    from f4decomp import cli, decomp, harmonic, liegroup, octonion, wordlang

    for fname in ("parse", "eval_word"):
        setattr(wordlang, fname, tracer.wrap(f"wordlang.{fname}", getattr(wordlang, fname)))
    for fname in ("exp_A", "exp_N", "d4_rotate", "expm", "verify"):
        wrapped = tracer.wrap(f"liegroup.{fname}", getattr(liegroup, fname))
        setattr(liegroup, fname, wrapped)
        if hasattr(decomp, fname):
            setattr(decomp, fname, wrapped)
    for fname in ("iwasawa", "keps_iwasawa", "gauss", "bruhat_classify", "matsuki_classify"):
        setattr(decomp, fname, tracer.wrap(f"decomp.{fname}", getattr(decomp, fname)))
    decomp.matsuki = tracer.wrap(
        "decomp.matsuki", decomp.matsuki, suffix=lambda args, f: f.cell.lower()
    )
    octonion.Octonion.__mul__ = tracer.wrap("octonion.mul", octonion.Octonion.__mul__)
    for fname in ("c_gamma", "c_quadrature"):
        setattr(harmonic, fname, tracer.wrap(f"harmonic.{fname}", getattr(harmonic, fname)))
    harmonic.spherical = tracer.wrap(
        "harmonic.spherical", harmonic.spherical,
        suffix=lambda args, v: "complex" if complex(args[0]).imag else "real",
    )
    cli.main = tracer.wrap("cli.main", cli.main)


# per-call medians: metric -> (span names, top-level calls only, unit scale)
PER_CALL = {
    "wordlang.parse_ms": (("wordlang.parse",), True, _NS_PER_MS),
    "wordlang.eval_word_ms": (("wordlang.eval_word",), True, _NS_PER_MS),
    "liegroup.exp_A_ms": (("liegroup.exp_A",), False, _NS_PER_MS),
    "liegroup.exp_N_ms": (("liegroup.exp_N",), False, _NS_PER_MS),
    "liegroup.d4_rotate_ms": (("liegroup.d4_rotate",), False, _NS_PER_MS),
    "liegroup.expm_ms": (("liegroup.expm",), False, _NS_PER_MS),
    "liegroup.verify_ms": (("liegroup.verify",), False, _NS_PER_MS),
    "decomp.iwasawa_ms": (("decomp.iwasawa",), True, _NS_PER_MS),
    "decomp.keps_iwasawa_ms": (("decomp.keps_iwasawa",), True, _NS_PER_MS),
    "decomp.matsuki_open_ms": (("decomp.matsuki_open",), True, _NS_PER_MS),
    "decomp.matsuki_closed_ms": (("decomp.matsuki_closed",), True, _NS_PER_MS),
    "decomp.gauss_ms": (("decomp.gauss",), True, _NS_PER_MS),
    "decomp.classify_ms": (("decomp.bruhat_classify", "decomp.matsuki_classify"), True, _NS_PER_MS),
    "octonion.mul_us": (("octonion.mul",), False, 1e3),
    "harmonic.spherical_real_ms": (("harmonic.spherical_real",), True, _NS_PER_MS),
    "harmonic.spherical_complex_ms": (("harmonic.spherical_complex",), True, _NS_PER_MS),
    "harmonic.c_quadrature_ms": (("harmonic.c_quadrature",), True, _NS_PER_MS),
    "cli.main_warm_ms": (("cli.main",), False, _NS_PER_MS),
}
# calls per op: metric -> span name
PER_OP_COUNT = {
    "liegroup.verify_calls_per_op": "liegroup.verify",
    "liegroup.exp_N_calls_per_op": "liegroup.exp_N",
}
SELF_LAYERS = ("wordlang", "liegroup", "decomp", "harmonic")

OP_SPAN = "bench.op"
TIMED = "timed"
# the probe pass that stands in for a layer left idle by the timed phase
PROBE_OF_LAYER = {
    "wordlang": "probe_words",
    "liegroup": "probe_words",
    "decomp": "probe_words",
    "octonion": "probe_words",
    "harmonic": "probe_spectral",
    "cli": "probe_cli",
}


def layer_metrics(spans: list[tuple]) -> tuple[dict, dict]:
    """Per-layer metrics from the spans, and the phase each was read from.

    A per-call median is read from the timed phase when it has spans there,
    a count or self time when its layer has; otherwise each is read from the
    probe pass of its layer.
    """
    child_ns: dict[int, int] = defaultdict(int)
    for name, start, end, parent, op, phase in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    ops_in = defaultdict(int)
    by_phase_name: dict[tuple[str, str], list[tuple[int, bool]]] = defaultdict(list)
    layer_phases: dict[str, set] = defaultdict(set)
    self_ns: dict[tuple[str, str], int] = defaultdict(int)
    for idx, (name, start, end, parent, op, phase) in enumerate(spans):
        if name == OP_SPAN:
            ops_in[phase] += 1
            continue
        layer = name.split(".", 1)[0]
        layer_phases[layer].add(phase)
        top = parent >= 0 and spans[parent][0] == OP_SPAN
        by_phase_name[(phase, name)].append((end - start, top))
        self_ns[(phase, layer)] += end - start - child_ns[idx]

    def phase_for(layer: str) -> str:
        return TIMED if TIMED in layer_phases[layer] else PROBE_OF_LAYER[layer]

    metrics, sources = {}, {}
    for metric, (names, top_only, scale) in PER_CALL.items():
        for phase in (TIMED, PROBE_OF_LAYER[metric.split(".", 1)[0]]):
            durs = [d for n in names for d, top in by_phase_name[(phase, n)] if top or not top_only]
            if durs:
                break
        metrics[metric] = statistics.median(durs) / scale if durs else None
        sources[metric] = phase
    for metric, name in PER_OP_COUNT.items():
        phase = phase_for(name.split(".", 1)[0])
        metrics[metric] = len(by_phase_name[(phase, name)]) / max(1, ops_in[phase])
        sources[metric] = phase
    for layer in SELF_LAYERS:
        phase = phase_for(layer)
        metric = f"{layer}.self_ms_per_op"
        metrics[metric] = self_ns[(phase, layer)] / _NS_PER_MS / max(1, ops_in[phase])
        sources[metric] = phase
    return metrics, sources


def span_coverage_pct(spans: list[tuple]) -> float:
    """Share of timed op wall time covered by the op's direct layer spans."""
    op_ns = 0
    covered_ns = 0
    for name, start, end, parent, op, phase in spans:
        if phase != TIMED:
            continue
        if name == OP_SPAN:
            op_ns += end - start
        elif parent >= 0 and spans[parent][0] == OP_SPAN:
            covered_ns += end - start
    return 100.0 * covered_ns / op_ns if op_ns else 0.0
