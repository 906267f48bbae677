"""Tests for the group word language: parser, printer, evaluator."""

import time

import numpy as np
import pytest

from f4decomp import liegroup as lg
from f4decomp.octonion import Octonion
from f4decomp.wordlang import (
    AtomA,
    AtomD4,
    AtomG,
    AtomS,
    Power,
    Product,
    WordSyntaxError,
    _Parser,
    eval_word,
    parse,
    print_word,
)


def test_parse_single_atom():
    w = parse("A3(0.5;1)")
    assert w == AtomA(3, 0.5, Octonion.one())


def test_parse_product_and_power():
    w = parse("G1(1+2e3)*S1^-1")
    assert isinstance(w, Product)
    first, second = w.factors
    assert isinstance(first, AtomG) and first.level == 1
    assert second == Power(AtomS(1), -1)


def test_parse_whitespace_insensitive():
    assert parse(" A3( 0.5 ; 1 ) * S2 ") == parse("A3(0.5;1)*S2")


def test_parse_nested_groups():
    w = parse("(S1*A1(0.25;e7))^-2")
    assert isinstance(w, Power)
    assert w.n == -2
    assert isinstance(w.base, Product)


def test_parse_d4():
    w = parse("D4(2,e1,e2)")
    assert w == AtomD4(2, Octonion.unit(1), Octonion.unit(2))


@pytest.mark.parametrize(
    "text,pos",
    [
        ("A3(0.5)", 6),
        ("A4(0.5;1)", 1),
        ("G3(e1)", 1),
        ("S1*", 3),
        ("S1)", 2),
        ("Q1", 0),
        ("A3(x;1)", 3),
        ("D4(1,e1)", 7),
    ],
)
def test_syntax_error_positions(text, pos):
    with pytest.raises(WordSyntaxError) as err:
        parse(text)
    assert err.value.pos == pos
    assert f"position {pos}" in str(err.value)


@pytest.mark.parametrize(
    "text,pos",
    [
        ("A3(1e400;1)", 3),
        ("A3(nan;1)", 3),
        ("A3( -inf ;1)", 4),
        pytest.param("G1(" + "9" * 400 + ")", 3, id="G1(9...9)"),
        # each coefficient is finite, their sum is not
        pytest.param(
            "S1*D4(1,e1," + "1" + "0" * 308 + "e1+1" + "0" * 308 + "e1)", 11, id="D4(1,e1,1e308e1+1e308e1)"
        ),
    ],
)
@pytest.mark.filterwarnings("error")
def test_non_finite_literals_are_syntax_errors(text, pos):
    with pytest.raises(WordSyntaxError, match="not finite") as err:
        parse(text)
    assert err.value.pos == pos


@pytest.mark.parametrize("stops", [";)", ")", ",)"])
@pytest.mark.parametrize(
    "src", ["", "  1+e2 ;x)", "0.5e1,e2)", "no stop here", ")", " ; ", "1 2 3,4"]
)
def test_scan_until_stops_at_first_delimiter(src, stops):
    p = _Parser(src)
    seg, start = p.scan_until(stops)
    end = start
    while end < len(src) and src[end] not in stops:
        end += 1
    assert (seg, start, p.pos) == (src[start:end], len(src) - len(src.lstrip()), end)


def test_missing_semicolon_message():
    with pytest.raises(WordSyntaxError, match="expected ';'"):
        parse("A3(0.5)")


@pytest.mark.parametrize(
    "text",
    [
        "A3(0.5;1)",
        "G1(1+2e3)*S1^-1",
        "D4(2,e1,e2)^3*(S1*A1(0.25;e7))^-2",
        "Gm2(0.5e1-0.25e4)",
        "A1(-0.125;e6)*A2(0.75;1)*S3",
    ],
)
def test_print_parse_round_trip(text):
    once = print_word(parse(text))
    twice = print_word(parse(once))
    assert once == twice
    assert np.array_equal(eval_word(parse(once)).mat, eval_word(parse(text)).mat)


def test_eval_involution():
    g = eval_word(parse("S1*S1"))
    assert np.max(np.abs(g.mat - np.eye(27))) <= 1e-12


def test_eval_power_semantics():
    g = eval_word(parse("A3(0.3;1)^2"))
    h = eval_word(parse("A3(0.6;1)"))
    assert np.max(np.abs(g.mat - h.mat)) <= 1e-12
    gi = eval_word(parse("A3(0.3;1)^-1"))
    assert np.max(np.abs(gi.mat - lg.exp_A(3, -0.3, 1.0).mat)) <= 1e-12
    assert np.array_equal(eval_word(parse("S2^0")).mat, np.eye(27))


def test_eval_left_to_right():
    g = eval_word(parse("A3(0.4;1)*G1(0.3e2)"))
    h = lg.exp_A(3, 0.4, 1.0) @ lg.exp_N(1, Octonion(0.3 * Octonion.unit(2).coeffs), Octonion.zero())
    assert np.array_equal(g.mat, h.mat)


def test_constraints_deferred_to_eval():
    # the parser accepts these; the evaluator enforces the constraints
    w = parse("A3(0.5;2)")
    with pytest.raises(ValueError, match="unit"):
        eval_word(w)
    w = parse("G2(1+e1)")
    with pytest.raises(ValueError, match="imaginary"):
        eval_word(w)
    w = parse("D4(1,e1,2e1)")
    with pytest.raises(ValueError):
        eval_word(w)


def test_no_normalization_of_directions():
    # near-unit is still rejected, the evaluator never normalizes silently
    with pytest.raises(ValueError):
        eval_word(parse("A1(0.5;1.001)"))


@pytest.mark.parametrize("base", ["A3(0.3;1)*G1(0.2e1-0.1e5)", "D4(2,e1,e2)*Gm2(0.3e4)", "S2"])
def test_small_powers_match_repeated_products(base):
    g = eval_word(parse(base))
    gi = g.inv()
    expected = {1: g, 2: g @ g, -1: gi, -2: gi @ gi}
    for n, want in expected.items():
        got = eval_word(parse(f"({base})^{n}"))
        assert np.array_equal(got.mat, want.mat)
        assert got.residual == want.residual


def test_large_power_by_squaring():
    start = time.perf_counter()
    g = eval_word(parse("S1^100000001"))
    assert time.perf_counter() - start < 1.0
    assert np.array_equal(g.mat, lg.sigma(1).mat)


def test_cube_matches_left_to_right_product():
    d = eval_word(parse("D4(2,e1,e2)"))
    cube = eval_word(parse("D4(2,e1,e2)^3"))
    assert np.max(np.abs(cube.mat - (d @ d @ d).mat)) <= 1e-12
