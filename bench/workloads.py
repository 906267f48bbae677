"""The benchmark's workloads: seeded inputs, one operation per input, and
the checks of each operation's output.

Each workload is closed loop, one caller in one process. A round is the
workload's fixed, seeded list of inputs; a run repeats whole rounds, so the
operation mix is the same in every round and every run of a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from f4decomp import decomp, harmonic, liegroup, wordlang
from f4decomp.octonion import format_octonion

import oracles

# --- word_factor -----------------------------------------------------------

WORD_SCALE = 0.15  # parameter scale of the acceptance-criteria word grammar
WORDS_PER_LENGTH = 20  # random words of each length 1..8 in a round
CLOSED_WORDS = 20  # closed-cell words in a round
# keps_iwasawa and gauss run only when the normalized pairing that decides
# their open cell, (gP^-|E2)/|gP^-| or (gP^-|reflected)/|gP^-|, exceeds this
# margin. gauss refuses words whose reflected pairing is at most ~0.008 with
# DegenerateCell (its factors grow like the inverse of the pairing).
CELL_MARGIN = 0.03
# labels are checked only where the pairing is clearly off or on the boundary
_OPEN_PAIRING = 1e-7
_CLOSED_PAIRING = 1e-11
QUARTER_TURN = "A1(-1.5707963267948966;1)"


def _fmt(vec: np.ndarray) -> str:
    return format_octonion(np.asarray(vec, dtype=float))


def _imag(rng, scale: float) -> np.ndarray:
    v = scale * rng.standard_normal(8)
    v[0] = 0.0
    return v


def _unit(rng) -> np.ndarray:
    v = rng.standard_normal(8)
    return v / np.linalg.norm(v)


def _same_norm(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    return w * (np.linalg.norm(u) / np.linalg.norm(w))


def random_word(rng, length: int) -> str:
    """A word of the acceptance-criteria grammar: `length` atoms, each of the
    seven kinds equally likely, parameters at scale 0.15."""
    atoms = []
    for _ in range(length):
        kind = int(rng.integers(0, 7))
        if kind == 0:
            i = int(rng.integers(1, 4))
            t = WORD_SCALE * rng.standard_normal()
            atoms.append(f"A{i}({t!r};{_fmt(_unit(rng))})")
        elif kind in (1, 3):
            name = "G1" if kind == 1 else "Gm1"
            atoms.append(f"{name}({_fmt(WORD_SCALE * rng.standard_normal(8))})")
        elif kind in (2, 4):
            name = "G2" if kind == 2 else "Gm2"
            atoms.append(f"{name}({_fmt(_imag(rng, WORD_SCALE))})")
        elif kind == 5:
            atoms.append(f"S{int(rng.integers(1, 4))}")
        else:
            j = int(rng.integers(1, 4))
            u = rng.standard_normal(8)
            v = _same_norm(u, rng.standard_normal(8))
            atoms.append(f"D4({j},{_fmt(u)},{_fmt(v)})")
    return "*".join(atoms)


@dataclass(frozen=True)
class WordItem:
    text: str
    t_closed: float | None  # radial coordinate known from construction


def closed_word(rng) -> WordItem:
    """A2(s;a)*D4(2,u,v)*c*A3(t;1)*G1(x)*G2(p): k_eps c a_t n with c the
    closed-cell pivot, so matsuki takes its closed branch."""
    s = WORD_SCALE * rng.standard_normal()
    a = _unit(rng)
    u = _imag(rng, 1.0)
    v = _same_norm(u, _imag(rng, 1.0))
    t = WORD_SCALE * rng.standard_normal()
    x = WORD_SCALE * rng.standard_normal(8)
    p = _imag(rng, WORD_SCALE)
    text = (
        f"A2({s!r};{_fmt(a)})*D4(2,{_fmt(u)},{_fmt(v)})*{QUARTER_TURN}"
        f"*A3({t!r};1)*G1({_fmt(x)})*G2({_fmt(p)})"
    )
    return WordItem(text, oracles.t_closed_word(s, float(a[0]), t))


def word_inputs(rng) -> list[WordItem]:
    items = [
        WordItem(random_word(rng, length), None)
        for length in range(1, 9)
        for _ in range(WORDS_PER_LENGTH)
    ]
    items += [closed_word(rng) for _ in range(CLOSED_WORDS)]
    rng.shuffle(items)
    return items


@dataclass
class WordResult:
    g: object
    labels: tuple[str, str]
    iwasawa: object
    matsuki: object
    keps: object | None
    gauss: object | None


def word_op(item: WordItem) -> WordResult:
    g = wordlang.eval_word(wordlang.parse(item.text))
    keps_val, bruhat_val = oracles.cell_pairings(g.mat)
    labels = (decomp.bruhat_classify(g), decomp.matsuki_classify(g))
    iw = decomp.iwasawa(g)
    ma = decomp.matsuki(g)
    ke = decomp.keps_iwasawa(g) if keps_val > CELL_MARGIN else None
    ga = decomp.gauss(g) if bruhat_val > CELL_MARGIN else None
    return WordResult(g, labels, iw, ma, ke, ga)


def word_fingerprint(out: WordResult) -> tuple:
    vals = [out.labels, out.iwasawa.t, out.iwasawa.residual, out.matsuki.cell,
            out.matsuki.t, out.matsuki.residual]
    for f in (out.keps, out.gauss):
        vals += [None, None] if f is None else [f.t, f.residual]
    return tuple(vals)


def _params(x, p) -> tuple[np.ndarray, np.ndarray]:
    return np.asarray(x, dtype=float), np.asarray(p, dtype=float)


def factor_record(kind: str, f) -> dict:
    """The factors of a result as matrices, t and nilpotent parameters."""
    rec = {"kind": kind, "t": float(f.t), "n": _params(f.n.x.coeffs, f.n.p.coeffs)}
    if kind in ("iwasawa", "keps"):
        rec["k"] = (f.k if kind == "iwasawa" else f.k_eps).mat
    if kind == "matsuki":
        rec.update(cell=f.cell.lower(), k=f.k_eps.mat, m=f.m.mat)
    if kind == "gauss":
        rec.update(m=f.m.mat, z=_params(f.z.x.coeffs, f.z.p.coeffs))
    return rec


def check_factor_record(g: np.ndarray, rec: dict, t_closed: float | None) -> list[str]:
    kind = rec["kind"]
    a = liegroup.exp_A(3, rec["t"], 1.0).mat
    n = liegroup.exp_N(1, *rec["n"]).mat
    fix_m = ("m", rec.get("m"), [oracles.E1, oracles.E2, oracles.E3, oracles.F31])
    if kind == "iwasawa":
        return oracles.check_factorization(
            kind, g, [rec["k"], a, n], rec["t"], [("k", rec["k"], [oracles.E1])],
            oracles.t_iwasawa(g),
        )
    if kind == "keps":
        return oracles.check_factorization(
            kind, g, [rec["k"], a, n], rec["t"], [("k_eps", rec["k"], [oracles.E2])],
            oracles.t_keps(g),
        )
    if kind == "gauss":
        z = liegroup.exp_N(-1, *rec["z"]).mat
        return oracles.check_factorization(
            kind, g, [z, rec["m"], a, n], rec["t"], [fix_m], oracles.t_gauss(g)
        )
    errs = []
    keps_val, _ = oracles.cell_pairings(g)
    if rec["cell"] == "open":
        factors = [rec["k"], rec["m"], a, n]
        t_expected = oracles.t_keps(g)
        if keps_val < _CLOSED_PAIRING:
            errs.append(f"matsuki: open cell at pairing {keps_val:.3e}")
    else:
        factors = [rec["k"], decomp.closed_cell_rep().mat, rec["m"], a, n]
        t_expected = t_closed
        if keps_val > _OPEN_PAIRING:
            errs.append(f"matsuki: closed cell at pairing {keps_val:.3e}")
    fixers = [("k_eps", rec["k"], [oracles.E2]), fix_m]
    return errs + oracles.check_factorization(kind, g, factors, rec["t"], fixers, t_expected)


def check_labels(g: np.ndarray, bruhat: str, matsuki: str) -> list[str]:
    errs = []
    keps_val, bruhat_val = oracles.cell_pairings(g)
    for name, label, val in (("bruhat", bruhat, bruhat_val), ("matsuki", matsuki, keps_val)):
        want = "OpenCell" if abs(val) > _OPEN_PAIRING else (
            "ClosedCell" if abs(val) < _CLOSED_PAIRING else label
        )
        if label != want:
            errs.append(f"{name}_classify = {label} at normalized pairing {val:.3e}")
    return errs


def word_check(item: WordItem, out: WordResult) -> list[str]:
    g = out.g.mat
    errs = oracles.check_group_matrix(g, "eval_word") + check_labels(g, *out.labels)
    errs += check_factor_record(g, factor_record("iwasawa", out.iwasawa), None)
    errs += check_factor_record(g, factor_record("matsuki", out.matsuki), item.t_closed)
    if item.t_closed is not None and out.matsuki.cell != "Closed":
        errs.append("matsuki: a closed-cell word factored on the open cell")
    if out.keps is not None:
        errs += check_factor_record(g, factor_record("keps", out.keps), None)
    if out.gauss is not None:
        errs += check_factor_record(g, factor_record("gauss", out.gauss), None)
    return [f"{item.text[:60]}: {e}" for e in errs]


# --- spectral --------------------------------------------------------------

T_LIST = (0.5, 1.5)
# (low, high, strata): one lambda per stratum. A row costs 12-24 ms for real
# lambda >= 4, up to 35 ms below 4 and 27-76 ms for the complex ones, so the
# real rows are a majority of the round and the median op stays among them
# instead of between the clusters.
REAL_PLATEAU = (4.0, 22.0, 72)
REAL_LOW = (0.5, 4.0, 10)
COMPLEX_RE = (2.0, 22.0, 8)
COMPLEX_IM = (1.0, 8.0, 6)


def _strata(rng, lo: float, hi: float, n: int) -> np.ndarray:
    width = (hi - lo) / n
    return lo + width * (np.arange(n) + rng.uniform(0.0, 1.0, n))


def spectral_inputs(rng) -> list[complex]:
    """Real lambda in [0.5, 22] and complex lambda in [2, 22] x [1, 8]i.
    The quadratures converge on all of both regions."""
    real = [float(v) for strata in (REAL_PLATEAU, REAL_LOW) for v in _strata(rng, *strata)]
    lo_re, hi_re, n_re = COMPLEX_RE
    lo_im, hi_im, n_im = COMPLEX_IM
    cells = np.array([(i, j) for i in range(n_re) for j in range(n_im)], dtype=float)
    u = rng.uniform(0.0, 1.0, cells.shape)
    # Re strata are spaced geometrically: a row's cost rises steeply toward
    # the imaginary axis, and equal cost steps keep the tail steady by seed
    re = lo_re * (hi_re / lo_re) ** ((cells[:, 0] + u[:, 0]) / n_re)
    im = lo_im + (hi_im - lo_im) / n_im * (cells[:, 1] + u[:, 1])
    cplx = [complex(a, b) for a, b in zip(re, im)]
    items = real + cplx
    rng.shuffle(items)
    return items


def spectral_op(lam) -> tuple:
    return (
        harmonic.c_gamma(lam),
        harmonic.c_quadrature(lam),
        tuple(harmonic.spherical(lam, t) for t in T_LIST),
    )


def spectral_fingerprint(out: tuple) -> tuple:
    return (out[0], out[1]) + out[2]


def spectral_check(lam, out: tuple) -> list[str]:
    ref = oracles.c_reference(lam)
    errs = oracles.check_c(lam, out[0], "gamma", ref) + oracles.check_c(lam, out[1], "quad", ref)
    for t, val in zip(T_LIST, out[2]):
        errs += oracles.check_spherical(lam, t, val)
    return errs


# --- registry ----------------------------------------------------------------

# Rounds per run at least. With three, an input's latency (the median of its
# rounds) ignores a stall that hits it in one round only.
MIN_ROUNDS = 3


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable
    op: Callable
    fingerprint: Callable
    check: Callable


WORKLOADS = {
    "word_factor": Workload(word_inputs, word_op, word_fingerprint, word_check),
    "spectral": Workload(spectral_inputs, spectral_op, spectral_fingerprint, spectral_check),
}


def percentile(values, pct: int) -> float:
    """Nearest-rank percentile: the value with pct% of the samples at or below it."""
    ranked = sorted(values)
    return ranked[max(1, math.ceil(pct * len(ranked) / 100)) - 1]


def tail_pct(round_size: int) -> int:
    """The op_tail_ms percentile: the highest whole percentile with at least
    ten of a round's inputs beyond it (nearest rank)."""
    return max(p for p in range(50, 100) if round_size - math.ceil(p * round_size / 100) >= 10)


def fingerprints_match(a, b) -> bool:
    """Equal outputs of the same op in two rounds, to 1e-12 relative."""
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(fingerprints_match(x, y) for x, y in zip(a, b))
    if isinstance(a, (float, complex)) and isinstance(b, (float, complex)):
        return abs(a - b) <= 1e-12 * max(1.0, abs(a))
    return a == b
