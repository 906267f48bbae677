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
    _MAX_NESTING,
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


@pytest.mark.parametrize("close", [")", ")^1"])
def test_nesting_past_the_limit_is_a_syntax_error(close):
    word = "(" * _MAX_NESTING + "S1" + close * _MAX_NESTING
    tree = parse(word)
    assert parse(print_word(tree)) == tree
    assert np.array_equal(eval_word(tree).mat, lg.sigma(1).mat)
    assert parse(f"{word}*{word}") == Product((tree, tree))  # closing a level frees it
    with pytest.raises(WordSyntaxError, match=f"nest deeper than {_MAX_NESTING}") as err:
        parse("(" + word + close)
    assert err.value.pos == _MAX_NESTING


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
    for text in ("S1^0", "S2^0"):
        assert np.array_equal(eval_word(parse(text)).mat, np.eye(27))


def test_eval_left_to_right():
    g = eval_word(parse("A3(0.4;1)*G1(0.3e2)"))
    h = lg.exp_A(3, 0.4, 1.0) @ lg.exp_N(1, Octonion(0.3 * Octonion.unit(2).coeffs), Octonion.zero())
    assert np.array_equal(g.mat, h.mat)


def test_constraints_deferred_to_eval():
    # the parser accepts these; the evaluator enforces the constraints
    w = parse("A3(0.5;2)")
    with pytest.raises(ValueError, match="unit"):
        eval_word(w)
    # inside a product a G atom skips exp_N's gate, not its input checks
    for text in ("G2(1+e1)", "G2(1+e1)*S1", "(Gm2(0.5-e3))^2"):
        with pytest.raises(ValueError, match="imaginary"):
            eval_word(parse(text))
    w = parse("D4(1,e1,2e1)")
    with pytest.raises(ValueError):
        eval_word(w)


@pytest.mark.parametrize(
    "base",
    ["A1(0.3;2)", "G2(1)", "D4(2,e1,2e2)", "D4(7,e1,e2)", "S1*A1(0.3;2)", "(A3(0.5;1)^100000000)"],
)
def test_zeroth_power_keeps_its_base_checks(base):
    # X^0 evaluates and gates X, so it refuses as the refused factor does alone
    with pytest.raises(ValueError) as alone:
        eval_word(parse(base.split("*")[-1]))
    with pytest.raises(ValueError) as power:
        eval_word(parse(f"{base}^0"))
    assert (type(power.value), str(power.value)) == (type(alone.value), str(alone.value))


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


def test_inverse_of_a_large_boost_stays_an_automorphism():
    # a dense inverse of this word has automorphism residual 4.1e-4
    g = eval_word(parse("(A3(5;1)*G1(0.3)*A1(0.2;1))^-1"))
    assert g.residual <= 1e-6


def test_large_power_by_squaring():
    start = time.perf_counter()
    g = eval_word(parse("S1^100000001"))
    assert time.perf_counter() - start < 1.0
    assert np.array_equal(g.mat, lg.sigma(1).mat)


def test_cube_matches_left_to_right_product():
    d = eval_word(parse("D4(2,e1,e2)"))
    cube = eval_word(parse("D4(2,e1,e2)^3"))
    assert np.max(np.abs(cube.mat - (d @ d @ d).mat)) <= 1e-12


def test_equal_atoms_hash_equal():
    zero, negzero = Octonion(np.zeros(8)), Octonion(-np.zeros(8))
    u = Octonion.unit(1)
    pairs = [
        (AtomA(3, 0.0, u), AtomA(3, -0.0, u)),
        (AtomG(1, zero), AtomG(1, negzero)),
        (AtomD4(2, zero, u), AtomD4(2, negzero, u)),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1


def _d4_parity_cases():
    """(j, u, v) rotation arguments that the public d4_rotate accepts or
    refuses: norm mismatches, zero vectors, antipodal and equal pairs, each
    scaled from 1e-300 to 1e300, and slot indices outside 1..3."""
    e = np.eye(8)
    rng = np.random.default_rng(25)
    u, w = rng.standard_normal(8), rng.standard_normal(8)
    pairs = [
        (e[1], e[2]), (u, w * (np.linalg.norm(u) / np.linalg.norm(w))),
        (e[1], 2 * e[1]), (e[0], (1 + 1e-8) * e[0]), (u, 1.5 * u),
        (0 * e[0], 0 * e[0]), (0 * e[0], e[3]), (e[5], 0 * e[0]),
        (e[1], -e[1]), (u, -u), (e[0] + e[2], -e[0] - e[2]),
        (e[4], e[4]), (u, u),
    ]
    cases = []
    for scale in (1e-300, 1e-150, 1e-8, 1.0, 1e8, 1e150, 1e300):
        for a, b in pairs:
            for j in (1, 2, 3):
                cases.append((j, Octonion(scale * a), Octonion(scale * b)))
    cases += [(j, Octonion(e[1]), Octonion(b)) for j in (0, 4) for b in (e[1], e[2], 0 * e[0])]
    return cases


def _outcome(word):
    try:
        g = eval_word(word)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return g.mat.tobytes(), g.residual


def test_d4_atoms_in_products_refuse_as_the_public_atom(monkeypatch):
    # D4 atoms inside products take the raw route; the public d4_rotate's
    # matrix in its place must give the same value, or the same refusal
    words = []
    for j, u, v in _d4_parity_cases():
        atom = AtomD4(j, u, v)
        words += [Product((atom, AtomS(1))), Product((AtomA(3, 0.1, Octonion.one()), atom))]
        words.append(Power(atom, -2))
    raw = [_outcome(w) for w in words]
    monkeypatch.setattr(lg, "_d4_rotate_matrix", lambda j, u, v: lg.d4_rotate(j, u, v).mat)
    public = [_outcome(w) for w in words]
    assert raw == public
    refused = sum(isinstance(r[0], str) for r in raw)
    assert 0 < refused < len(raw)
