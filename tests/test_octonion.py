"""Property tests for the octonion arithmetic kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from f4decomp.jordan import JordanElement
from f4decomp.octonion import (
    Octonion,
    format_octonion,
    left_mul_matrix,
    mul_batch,
    parse_octonion,
    right_mul_matrix,
)

coeff = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False, allow_infinity=False)
oct_vec = arrays(np.float64, (8,), elements=coeff)


def skew(x, y):
    return float(np.max(np.abs(x - y)))


@given(oct_vec, oct_vec)
def test_norm_composition(xv, yv):
    x, y = Octonion(xv), Octonion(yv)
    lhs = (x * y).norm_sq()
    rhs = x.norm_sq() * y.norm_sq()
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)


@given(oct_vec, oct_vec)
def test_alternativity(xv, yv):
    x, y = Octonion(xv), Octonion(yv)
    scale = max(1.0, x.norm_sq() * y.norm())
    assert skew((x * (x * y)).coeffs, ((x * x) * y).coeffs) <= 1e-12 * scale
    assert skew(((y * x) * x).coeffs, (y * (x * x)).coeffs) <= 1e-12 * scale


@given(oct_vec, oct_vec, oct_vec)
def test_moufang(xv, yv, zv):
    x, y, z = Octonion(xv), Octonion(yv), Octonion(zv)
    lhs = (z * x) * (y * z)
    rhs = z * ((x * y) * z)
    scale = max(1.0, x.norm() * y.norm() * z.norm_sq())
    assert skew(lhs.coeffs, rhs.coeffs) <= 1e-12 * scale


@given(oct_vec, oct_vec)
def test_conjugation_antihomomorphism(xv, yv):
    x, y = Octonion(xv), Octonion(yv)
    lhs = (x * y).conj()
    rhs = y.conj() * x.conj()
    assert skew(lhs.coeffs, rhs.coeffs) <= 1e-12 * max(1.0, x.norm() * y.norm())


@given(oct_vec)
def test_inverse(xv):
    x = Octonion(xv)
    n = x.norm_sq()
    if n < 1e-6:
        return
    inv = Octonion(x.conj().coeffs / n)
    assert skew((x * inv).coeffs, Octonion.one().coeffs) <= 1e-12 * max(1.0, 1.0 / n)
    assert skew((inv * x).coeffs, Octonion.one().coeffs) <= 1e-12 * max(1.0, 1.0 / n)


@given(oct_vec, oct_vec)
def test_mul_matrices(xv, yv):
    # same bilinear map, different summation order
    bound = 1e-12 * max(1.0, float(np.linalg.norm(xv) * np.linalg.norm(yv)))
    xy = (Octonion(xv) * Octonion(yv)).coeffs
    assert skew(left_mul_matrix(xv) @ yv, xy) <= bound
    assert skew(right_mul_matrix(yv) @ xv, xy) <= bound


@given(oct_vec)
def test_format_parse_round_trip(xv):
    x = Octonion(xv)
    back = parse_octonion(format_octonion(x))
    assert np.array_equal(back.coeffs, x.coeffs)


@given(arrays(np.float64, (8,), elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_format_parse_round_trip_every_finite_double(xv):
    x = Octonion(xv)
    assert np.array_equal(parse_octonion(format_octonion(x)).coeffs, x.coeffs)


@pytest.mark.parametrize(
    "coeffs, text",
    [
        ([np.inf] * 8, "inf+infe1+infe2+infe3+infe4+infe5+infe6+infe7"),
        ([np.nan, -np.nan, 0, 0, 0, 0, 0, 0], "nan+nane1"),
        ([-np.inf, 0, np.nan, 0, 0, 0, 1.5, -np.inf], "-inf+nane2+1.5e6-infe7"),
        ([0, -np.nan, -2, 0, 0, 0, 0, 0], "nane1-2e2"),
    ],
)
def test_non_finite_coefficients_are_written(coeffs, text):
    x = Octonion(np.array(coeffs, dtype=float))
    assert format_octonion(x) == text
    assert repr(x) == f"Octonion({text})"
    h = JordanElement(np.concatenate([[np.nan, 1.0, -np.inf], coeffs, coeffs, coeffs]))
    assert repr(h) == f"h1(nan, 1, -inf; {text}, {text}, {text})"


# the algebra laws hold for every sign convention; the fixtures hold only
# for this one: the Cayley-Dickson products e1 e2 = e3 and e_i e4 = e_(i+4),
# and the seven oriented lines they give
_DOUBLING = [(1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 4, 7)]
_LINES = _DOUBLING + [(1, 7, 6), (2, 5, 7), (3, 6, 5)]


def test_basis_relations():
    one = Octonion.one()
    for i in range(1, 8):
        ei = Octonion.unit(i)
        assert np.array_equal((ei * ei).coeffs, -one.coeffs)
        for j in range(1, 8):
            if i == j:
                continue
            assert np.array_equal(
                (ei * Octonion.unit(j)).coeffs, -(Octonion.unit(j) * ei).coeffs
            )

    def signed_unit(sign, k):
        v = np.zeros(8)
        v[k] = sign
        return v.tobytes()

    for a, b, c in _LINES:
        for i, j, k in ((a, b, c), (b, c, a), (c, a, b)):
            ei, ej = Octonion.unit(i), Octonion.unit(j)
            assert (ei * ej).coeffs.tobytes() == signed_unit(1.0, k), (i, j)
            assert (ej * ei).coeffs.tobytes() == signed_unit(-1.0, k), (j, i)


def test_real_part_central():
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = Octonion(rng.standard_normal(8))
        s = Octonion.from_scalar(1.7)
        assert skew((s * x).coeffs, (x * s).coeffs) == 0.0


@settings(max_examples=25)
@given(arrays(np.float64, (12, 8), elements=coeff), arrays(np.float64, (12, 8), elements=coeff))
def test_mul_batch_matches_loop(xs, ys):
    got = mul_batch(xs, ys)
    want = np.stack([(Octonion(a) * Octonion(b)).coeffs for a, b in zip(xs, ys)])
    assert np.array_equal(got, want)


def test_inner_norm_consistency(rng):
    for _ in range(50):
        x = Octonion(rng.standard_normal(8))
        assert abs(x.coeffs @ x.coeffs - x.norm_sq()) <= 1e-12 * max(1.0, x.norm_sq())
        # the pairing is re(x conj(x))
        assert abs((x * x.conj()).re() - x.norm_sq()) <= 1e-12 * max(1.0, x.norm_sq())


@pytest.mark.parametrize(
    "text",
    ["", "1+", "2f3", "1+e9", "e1e2", "3.2.1", "+", "1 + + e2"],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_octonion(text)


def _coeffs(**terms):
    # e.g. _coeffs(e0=1.0, e3=-2.0)
    v = np.zeros(8)
    for name, value in terms.items():
        v[int(name[1])] = value
    return v


@pytest.mark.parametrize(
    "text, want",
    [
        (" 1 - 2e3 + e7 ", _coeffs(e0=1.0, e3=-2.0, e7=1.0)),  # whitespace around signs
        ("+ 2", _coeffs(e0=2.0)),
        ("2*e3", _coeffs(e3=2.0)),
        ("2 e3", _coeffs(e3=2.0)),
        ("2 * e3", _coeffs(e3=2.0)),
        ("2*", _coeffs(e0=2.0)),  # a dangling '*' ends the term
        (".5", _coeffs(e0=0.5)),
        ("3.", _coeffs(e0=3.0)),
        (".5e2", _coeffs(e2=0.5)),
        ("-e2", _coeffs(e2=-1.0)),
        # repeated basis terms sum in reading order, rounding as they go
        ("e1+e1-0.25e1", _coeffs(e1=1.75)),
        ("0.1+0.2", _coeffs(e0=0.30000000000000004)),
        # -0 is added to a +0.0 coefficient, so it leaves +0.0
        ("-0", np.zeros(8)),
        ("-0e4", np.zeros(8)),
    ],
)
def test_parse_literal_forms(text, want):
    assert parse_octonion(text).coeffs.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "text, message",
    [
        ("1 2e3", "missing +/- between terms in '1 2e3' at position 2"),
        ("e1 e2", "missing +/- between terms in 'e1 e2' at position 3"),
        ("3.2.1", "missing +/- between terms in '3.2.1' at position 3"),
        ("", "empty octonion literal ''"),
        ("   ", "bad octonion literal '   ' at position 0"),
        ("1+2e3x", "bad octonion literal '1+2e3x' at position 5"),  # trailing garbage
        ("2e3 )", "bad octonion literal '2e3 )' at position 4"),
        ("1+e9", "bad octonion literal '1+e9' at position 1"),
        ("1e", "bad octonion literal '1e' at position 1"),
        ("1 + + e2", "bad octonion literal '1 + + e2' at position 2"),
    ],
)
def test_parse_error_text_and_position(text, message):
    with pytest.raises(ValueError) as info:
        parse_octonion(text)
    assert str(info.value) == message


def test_equal_octonions_hash_equal():
    signed = np.array([0.0, -0.0, 1.5, -0.0, 0.0, -2.0, -0.0, 0.0])
    pairs = [
        (Octonion(np.zeros(8)), Octonion(-np.zeros(8))),
        (Octonion(signed), Octonion(signed + 0.0)),
        (JordanElement(np.zeros(27)), JordanElement(-np.zeros(27))),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
    assert len({Octonion(np.zeros(8)), Octonion(-np.zeros(8)), Octonion.zero()}) == 1


def test_parse_examples():
    assert np.array_equal(parse_octonion("1").coeffs, Octonion.one().coeffs)
    x = parse_octonion("0.5e1-2e7")
    assert x.coeffs[1] == 0.5 and x.coeffs[7] == -2.0 and x.coeffs[0] == 0.0
    # 'e' always starts a basis token, never an exponent
    y = parse_octonion("0.1e1")
    assert y.coeffs[1] == 0.1
