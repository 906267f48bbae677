"""Property-based fuzzing of the command line contract.

Every call of `cli.main` either exits 0 with one JSON object on stdout that
holds no NaN or Infinity, or exits 1 or 2 with exactly one JSON error object
on stderr and nothing on stdout. Floating-point warnings are raised as
errors, so a warning that would reach stderr fails the property.
"""

import contextlib
import io
import json
import warnings
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from f4decomp import cli
from f4decomp.octonion import format_octonion

SPECIAL = [0.0, -0.0, 5e-324, 1e-300, 1e16, 700.0, 1e300, -1e300]

REALS = st.one_of(
    st.floats(-3.0, 3.0),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(SPECIAL),
)
BAD_LITERALS = st.sampled_from(["nan", "inf", "-inf", "1e400", "", " ", "1.2.3", "e9", "1+", "--1"])


def _imaginary(v):
    v = v.copy()
    v[0] = 0.0
    return v


OCT_VECS = arrays(np.float64, 8, elements=REALS)
OCTS = OCT_VECS.map(format_octonion)
IMAG_OCTS = OCT_VECS.map(_imaginary).map(format_octonion)
UNITS = st.sampled_from(["1", "-1", "e1", "e4", "e7", "0.6e2+0.8e5", "0.6+0.8e3"])
# equal-norm pairs: v permutes the coordinates of u
ROTATION_PAIRS = OCT_VECS.map(lambda u: f"{format_octonion(u)},{format_octonion(np.roll(u, 3))}")

# well-formed words; their values may still be out of range or refused
ATOMS = st.one_of(
    st.builds("A{}({};{})".format, st.integers(1, 3), REALS.map(repr), UNITS | OCTS),
    st.builds("{}({})".format, st.sampled_from(["G1", "Gm1"]), OCTS),
    st.builds("{}({})".format, st.sampled_from(["G2", "Gm2"]), IMAG_OCTS | OCTS),
    st.sampled_from(["S1", "S2", "S3"]),
    st.builds("D4({},{})".format, st.integers(1, 3), ROTATION_PAIRS),
    st.builds("D4({},{},{})".format, st.integers(1, 3), OCTS, OCTS),
)
EXPONENTS = st.one_of(
    st.integers(-3, 3).map(str), st.sampled_from(["1000000000", "-1000000000", "9" * 5000])
)


def _compound(inner):
    return st.one_of(
        st.lists(inner, min_size=2, max_size=4).map("*".join),
        st.builds("({})^{}".format, inner, EXPONENTS),
    )


WORDS = st.recursive(ATOMS, _compound, max_leaves=6)


def _insert(word, pos, ch):
    return word[:pos] + ch + word[pos:]


def _delete(word, pos):
    return word[:pos] + word[pos + 1 :]


BAD_ATOMS = st.one_of(
    st.builds("A{}({};{})".format, st.integers(0, 4), BAD_LITERALS | REALS.map(repr), BAD_LITERALS),
    st.builds("{}({})".format, st.sampled_from(["G1", "G2", "Gm1", "G3", "Gm"]), BAD_LITERALS),
    st.sampled_from(["S0", "S4", "S", "D4", "D5(1,1,1)", "D4(1,1)", "()", "A1", "G1()"]),
)
MALFORMED = st.one_of(
    st.text(alphabet="AGSDm01234e.+-*^(),; ", max_size=30),
    st.text(max_size=12),
    st.builds("{}*{}".format, WORDS, BAD_ATOMS),
    st.builds(_insert, WORDS, st.integers(0, 120), st.sampled_from(list("()*;,^e.-+ 9"))),
    st.builds(_delete, WORDS, st.integers(0, 120)),
)


def _no_constants(name):
    raise AssertionError(f"JSON holds the non-finite number {name}")


def check_contract(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with (
            mock.patch("sys.stdin", io.StringIO(stdin)),
            contextlib.redirect_stdout(out),
            contextlib.redirect_stderr(err),
        ):
            code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert err == ""
        channel = out
    else:
        assert code in (1, 2), code
        assert out == ""
        channel = err
    lines = channel.splitlines()
    assert len(lines) == 1, channel
    data = json.loads(lines[0], parse_constant=_no_constants)
    assert isinstance(data, dict)
    if code != 0:
        assert set(data) == {"error", "message"}
    return code, data


COMMANDS = st.sampled_from(["eval", "iwasawa", "keps", "matsuki", "gauss", "classify"])


@settings(max_examples=300, deadline=None)
@given(cmd=COMMANDS, word=WORDS)
def test_word_commands_keep_the_contract(cmd, word):
    code, _ = check_contract([cmd, f"--word={word}"])
    # exit 2 means outside an open cell, and iwasawa is total
    assert not (cmd == "iwasawa" and code == 2)


@settings(max_examples=150, deadline=None)
@given(cmd=COMMANDS, word=MALFORMED)
def test_malformed_words_keep_the_contract(cmd, word):
    check_contract([cmd, f"--word={word}"])


LAMBDA_PARTS = st.one_of(REALS.map(repr), REALS.map(repr), REALS.map(repr), BAD_LITERALS)
LAMBDA_TEXT = st.one_of(
    LAMBDA_PARTS,
    st.builds("{},{}".format, LAMBDA_PARTS, LAMBDA_PARTS),
    st.builds("{},{},{}".format, LAMBDA_PARTS, LAMBDA_PARTS, LAMBDA_PARTS),
)


@settings(max_examples=150, deadline=None)
@given(lam=LAMBDA_TEXT, method=st.sampled_from(["gamma", "quad"]))
def test_cfunction_keeps_the_contract(lam, method):
    check_contract(["cfunction", f"--lambda={lam}", f"--method={method}"])


ENTRIES = st.one_of(
    st.floats(-2.0, 2.0),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 1e300, -1e300, 0.0]),
)


@settings(max_examples=60, deadline=None)
@given(
    edits=st.lists(st.tuples(st.integers(0, 728), ENTRIES), max_size=6),
    size=st.sampled_from([729, 729, 729, 728, 730]),
    wrapped=st.booleans(),
)
def test_verify_keeps_the_contract(edits, size, wrapped):
    mat = np.eye(27).ravel()
    for k, v in edits:
        mat[k] = v
    entries = [float(v) for v in np.resize(mat, size)]
    # json writes NaN and Infinity tokens, which the loader reads back
    text = json.dumps({"mat": entries} if wrapped else entries)
    check_contract(["verify", "--matrix", "-"], stdin=text)
