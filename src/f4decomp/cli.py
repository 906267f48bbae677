"""Command line interface for group words and factorizations.

Subcommands:

    eval       evaluate a group word to a verified 27x27 matrix
    iwasawa    factor a word as k a_t n with k fixing the first idempotent
    keps       factor a word as k_eps a_t n on the open cell
    matsuki    two-cell factorization k_eps (c) m a_t n
    gauss      open-cell factorization z m a_t n with z lower nilpotent
    classify   cell and orbit labels of a word
    cfunction  spectral density denominator at a given parameter
    verify     automorphism residual of a matrix supplied as JSON
    selftest   replay the packaged fixture words (--bless regenerates)

Every subcommand prints a single JSON object on stdout. Failures print
{"error": <type name>, "message": <text>} on stderr and exit with code 2
when the input lies outside the open cell of a requested factorization
(DegenerateCell, DegeneratePairing) and code 1 for every other error,
overflow included. Non-finite inputs (NaN or infinite matrix entries or
spectral parameters) and non-finite c-function values are rejected with
code 1.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import decomp, harmonic, liegroup, wordlang
from .decomp import DegenerateCell, DegeneratePairing
from .jordan import JordanElement, P_MINUS

__all__ = ["main"]


def _canon(obj) -> str:
    """Canonical JSON: sorted keys, no whitespace, shortest float reprs."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def element_json(g: liegroup.GroupElement) -> dict:
    return {
        "mat": [float(v) for v in g.mat.ravel()],
        "residual": float(g.residual),
    }


def nparams_json(n: decomp.NParams) -> dict:
    # x is a full octonion, p is imaginary: keep only its seven imag coords
    return {
        "x": [float(v) for v in n.x.coeffs],
        "p": [float(v) for v in n.p.coeffs[1:]],
    }


def factors_json(f) -> dict:
    if isinstance(f, decomp.IwasawaFactors):
        return {
            "kind": "iwasawa",
            "k": element_json(f.k),
            "t": float(f.t),
            "n": nparams_json(f.n),
            "residual": float(f.residual),
        }
    if isinstance(f, decomp.KEpsFactors):
        return {
            "kind": "keps",
            "k": element_json(f.k_eps),
            "t": float(f.t),
            "n": nparams_json(f.n),
            "residual": float(f.residual),
        }
    if isinstance(f, decomp.MatsukiFactors):
        return {
            "kind": "matsuki",
            "cell": f.cell.lower(),
            "w": bool(f.w),
            "k": element_json(f.k_eps),
            "m": element_json(f.m),
            "t": float(f.t),
            "n": nparams_json(f.n),
            "residual": float(f.residual),
        }
    if isinstance(f, decomp.GaussFactors):
        return {
            "kind": "gauss",
            "z": nparams_json(f.z),
            "m": element_json(f.m),
            "t": float(f.t),
            "n": nparams_json(f.n),
            "residual": float(f.residual),
        }
    raise TypeError(f"not a factorization record: {type(f).__name__}")


_CELL_WORD = {"OpenCell": "open", "ClosedCell": "closed"}


def classify_json(g: liegroup.GroupElement) -> dict:
    X = JordanElement(g.mat @ P_MINUS.vec)
    keps_label, _ = decomp.flag_classify_keps(X)
    return {
        "bruhat": _CELL_WORD[decomp.bruhat_classify(g)],
        "matsuki": _CELL_WORD[decomp.matsuki_classify(g)],
        "keps_orbit": keps_label,
        "nminus_orbit": decomp.flag_classify_nminus(X),
    }


_OPS = {
    "eval": element_json,
    "iwasawa": lambda g: factors_json(decomp.iwasawa(g)),
    "keps": lambda g: factors_json(decomp.keps_iwasawa(g)),
    "matsuki": lambda g: factors_json(decomp.matsuki(g)),
    "gauss": lambda g: factors_json(decomp.gauss(g)),
    "classify": classify_json,
}


def _eval(word: str) -> liegroup.GroupElement:
    return wordlang.eval_word(wordlang.parse(word))


def _record_op(op: str, word: str) -> dict:
    """Run one fixture operation, folding open-cell failures into the record."""
    if op not in _OPS:
        raise ValueError(f"unknown fixture operation {op!r}")
    try:
        return _OPS[op](_eval(word))
    except (DegenerateCell, DegeneratePairing) as exc:
        return {"error": type(exc).__name__}


# deterministic fixture plan: one operation per line, words chosen well away
# from cell boundaries so replay is bit-stable
_FIXTURE_PLAN: tuple[tuple[str, str], ...] = (
    ("S1^0", "eval"),
    ("S1^0", "iwasawa"),
    ("S1", "eval"),
    ("S1", "classify"),
    ("S1", "gauss"),
    ("S2", "classify"),
    ("S3", "classify"),
    ("A3(0.5;1)", "iwasawa"),
    ("A3(0.5;1)", "eval"),
    ("A3(-0.45;1)", "gauss"),
    ("A1(-1.5707963267948966;1)", "keps"),
    ("A1(-1.5707963267948966;1)", "matsuki"),
    ("A1(-1.5707963267948966;1)", "classify"),
    ("A1(0.3;e2)*G1(0.1e1-0.2e3)", "iwasawa"),
    ("A1(0.3;e2)*G1(0.1e1-0.2e3)", "classify"),
    ("G2(0.25e1)*A2(-0.4;e5)*S1", "matsuki"),
    ("G2(0.25e1)*A2(-0.4;e5)*S1", "gauss"),
    ("Gm1(0.2e2+0.1e4)*A3(0.35;1)", "iwasawa"),
    ("Gm1(0.2e2+0.1e4)*A3(0.35;1)", "keps"),
    ("D4(2,e1,e2)*G1(0.15e6)", "eval"),
    ("D4(2,e1,e2)*G1(0.15e6)", "iwasawa"),
    ("A2(0.5;e7)^2*Gm2(0.3e5)", "gauss"),
    ("A2(0.5;e7)^2*Gm2(0.3e5)", "classify"),
    ("S1*G1(0.2e1)*S1^-1", "keps"),
    ("S1*G1(0.2e1)*S1^-1", "classify"),
    ("A3(-0.45;1)*G2(0.12e3-0.22e6)*A1(0.2;e4)", "matsuki"),
    ("A3(-0.45;1)*G2(0.12e3-0.22e6)*A1(0.2;e4)", "iwasawa"),
    ("(A1(0.25;e1)*G1(0.1e2))^2", "gauss"),
    ("(A1(0.25;e1)*G1(0.1e2))^2", "keps"),
    ("Gm2(0.4e7)*Gm1(0.25e1)", "iwasawa"),
    ("Gm2(0.4e7)*Gm1(0.25e1)", "classify"),
    ("D4(1,e3,e4)*A2(0.3;e2)*G2(0.2e1)", "matsuki"),
    ("A1(0.6;e5)*A2(-0.2;e3)*A3(0.25;1)", "gauss"),
    ("A1(0.6;e5)*A2(-0.2;e3)*A3(0.25;1)", "eval"),
)


def _default_fixtures() -> Path:
    return Path(__file__).parent / "fixtures" / "words.jsonl"


def _parse_lambda(text: str) -> complex:
    parts = text.split(",")
    if len(parts) > 2:
        raise ValueError(f"spectral parameter must be 're' or 're,im', got {text!r}")
    try:
        nums = [float(s) for s in parts]
    except ValueError:
        raise ValueError(f"bad spectral parameter {text!r}") from None
    if not all(math.isfinite(v) for v in nums):
        raise ValueError(f"spectral parameter must be finite, got {text!r}")
    return complex(nums[0], nums[1] if len(nums) == 2 else 0.0)


def _load_matrix(path: str) -> np.ndarray:
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    data = json.loads(text)
    if isinstance(data, dict):
        if "mat" not in data:
            raise ValueError("matrix JSON must be a bare list or an object with a 'mat' key")
        data = data["mat"]
    arr = np.asarray(data, dtype=float)
    if arr.size != 27 * 27:
        raise ValueError(f"expected 729 matrix entries, got {arr.size}")
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    return arr.reshape(27, 27)


def _cmd_eval(args) -> int:
    print(_canon(element_json(_eval(args.word))))
    return 0


def _make_factor_cmd(op: str):
    def cmd(args) -> int:
        print(_canon(_OPS[op](_eval(args.word))))
        return 0

    return cmd


def _cmd_classify(args) -> int:
    print(_canon(classify_json(_eval(args.word))))
    return 0


def _cmd_cfunction(args) -> int:
    la = _parse_lambda(args.lam)
    # a value past double range is refused below, without warnings
    with np.errstate(over="ignore", invalid="ignore"):
        if args.method == "gamma":
            val = harmonic.c_gamma(la)
        else:
            val = harmonic.c_quadrature(la)
    if not cmath.isfinite(val):
        raise OverflowError(f"c-function at {args.lam} is not finite in double precision")
    out = {
        "lambda_alpha": [la.real, la.imag],
        "c": [val.real, val.imag],
        "method": args.method,
    }
    print(_canon(out))
    return 0


def _cmd_verify(args) -> int:
    residual = liegroup.verify(_load_matrix(args.matrix))
    print(_canon({"residual": float(residual)}))
    return 0


def _max_abs_dev(got, want) -> float | None:
    """Largest absolute difference between the numbers of two records, or
    None when their keys, lengths, types or non-numeric values differ."""
    if isinstance(got, dict) and isinstance(want, dict):
        if got.keys() != want.keys():
            return None
        pairs = [(got[k], want[k]) for k in got]
    elif isinstance(got, list) and isinstance(want, list):
        if len(got) != len(want):
            return None
        pairs = list(zip(got, want))
    elif type(got) in (int, float) and type(want) in (int, float):
        return abs(got - want)
    else:
        return 0.0 if type(got) is type(want) and got == want else None
    devs = [_max_abs_dev(a, b) for a, b in pairs]
    return None if None in devs else max(devs, default=0.0)


def _cmd_selftest(args) -> int:
    path = Path(args.fixtures) if args.fixtures else _default_fixtures()
    if args.bless:
        lines = [
            _canon({"word": word, "expect": {op: _record_op(op, word)}})
            for word, op in _FIXTURE_PLAN
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n")
        print(_canon({"fixtures": str(path), "written": len(lines)}))
        return 0
    if not path.exists():
        raise ValueError(f"fixtures file not found: {path}")
    checked = 0
    failures = []
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip():
            continue
        rec = json.loads(line)
        for op, expected in rec["expect"].items():
            checked += 1
            got = json.loads(_canon(_record_op(op, rec["word"])))
            if _canon(got) != _canon(expected):
                failures.append({
                    "line": lineno, "op": op, "word": rec["word"],
                    "max_abs_dev": _max_abs_dev(got, expected),
                })
    out = {"fixtures": str(path), "checked": checked, "failed": len(failures)}
    if failures:
        # the listing stops at ten records; the largest deviation covers all
        devs = [f["max_abs_dev"] for f in failures]
        out["max_abs_dev"] = None if None in devs else max(devs)
        out["failures"] = failures[:10]
    print(_canon(out))
    return 0 if checked > 0 and not failures else 1


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # route usage errors through the JSON stderr channel instead of exit(2)
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="f4decomp", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    e = sub.add_parser("eval", help="evaluate a group word")
    e.add_argument("--word", required=True, help="group word to evaluate")
    e.add_argument("--out", choices=["json"], default="json")
    e.set_defaults(func=_cmd_eval)

    for name, blurb in (
        ("iwasawa", "factor a word as k a_t n"),
        ("keps", "factor a word as k_eps a_t n on the open cell"),
        ("matsuki", "two-cell factorization k_eps (c) m a_t n"),
        ("gauss", "open-cell factorization z m a_t n"),
    ):
        s = sub.add_parser(name, help=blurb)
        s.add_argument("--word", required=True, help="group word to factor")
        s.set_defaults(func=_make_factor_cmd(name))

    c = sub.add_parser("classify", help="cell and orbit labels of a word")
    c.add_argument("--word", required=True, help="group word to classify")
    c.set_defaults(func=_cmd_classify)

    cf = sub.add_parser("cfunction", help="spectral density denominator")
    cf.add_argument(
        "--lambda", dest="lam", required=True, metavar="RE[,IM]",
        help="spectral parameter paired against the restricted root",
    )
    cf.add_argument("--method", choices=["gamma", "quad"], default="gamma")
    cf.set_defaults(func=_cmd_cfunction)

    v = sub.add_parser("verify", help="automorphism residual of a matrix")
    v.add_argument(
        "--matrix", required=True,
        help="JSON file with 729 row-major entries ('-' reads stdin)",
    )
    v.set_defaults(func=_cmd_verify)

    st = sub.add_parser("selftest", help="replay the packaged fixture words")
    st.add_argument("--bless", action="store_true", help="regenerate the fixtures")
    st.add_argument("--fixtures", default=None, help="alternate fixtures path")
    st.set_defaults(func=_cmd_selftest)

    return p


def _emit_error(exc: BaseException) -> None:
    msg = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(msg, sort_keys=True), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (DegenerateCell, DegeneratePairing) as exc:
        _emit_error(exc)
        return 2
    except (ValueError, RuntimeError, OSError, ArithmeticError) as exc:
        _emit_error(exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
