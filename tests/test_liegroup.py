"""Tests for verified group elements and the structure of the derivation algebra."""

import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from conftest import random_imag, random_oct, random_unit
from f4decomp import config, decomp, jordan
from f4decomp import liegroup as lg
from f4decomp import octonion as oct
from f4decomp.jordan import (
    E, E1, E2, E3, F, P_MINUS, JordanElement, Qminus, Qplus, basis27, inner, jordan_mul,
)
from f4decomp.octonion import Octonion
from f4decomp.wordlang import eval_word, parse


def test_identity():
    g = lg.identity()
    assert g.residual == 0.0
    assert np.array_equal(g.mat, np.eye(27))


def test_exp_A_one_parameter(rng):
    for i in (1, 2, 3):
        a = random_unit(rng)
        s, t = 0.37, -0.82
        lhs = lg.exp_A(i, s, a) @ lg.exp_A(i, t, a)
        rhs = lg.exp_A(i, s + t, a)
        assert np.max(np.abs(lhs.mat - rhs.mat)) <= 1e-12
        inv = lg.exp_A(i, -s, a)
        assert np.max(np.abs((lg.exp_A(i, s, a) @ inv).mat - np.eye(27))) <= 1e-12


def test_exp_A_matches_expm(rng):
    for i in (1, 2, 3):
        a = random_unit(rng)
        t = 0.4
        direct = lg.exp_A(i, t, a)
        series = scipy.linalg.expm(t * lg.gen_A(i, a).mat)
        assert np.max(np.abs(direct.mat - series)) <= 1e-12


def test_exp_A_rejects_non_unit():
    with pytest.raises(ValueError):
        lg.exp_A(3, 0.5, Octonion.from_scalar(2.0))


def test_exp_A_refuses_a_nan_direction():
    # the unit check is written so that a NaN |a|^2 fails it, before any
    # matrix is formed
    for i in (1, 2, 3):
        with pytest.raises(ValueError, match="direction must be unit"):
            lg.exp_A(i, 0.3, [np.nan] + [0.0] * 7)


@pytest.mark.parametrize("t", [8.98e307, 8.99e307, -1e308, 1.7976931348623157e308])
def test_exp_A_rotates_at_every_finite_t(t):
    # cos 2t and sin 2t come from math.cos(2t) and math.sin(2t) while 2t is
    # finite, and from t's own cos and sin where 2t overflows
    g = lg.exp_A(1, t, 1.0)
    c, s = math.cos(t), math.sin(t)
    c2 = math.cos(2 * t) if math.isfinite(2 * t) else c * c - s * s
    assert g.mat[1, 1] == 0.5 * (1 + c2) and g.mat[2, 1] == 0.5 * (1 - c2)
    assert g.mat[3, 3] == 1 - 2 * s * s
    assert g.residual <= 1e-15


@pytest.mark.parametrize(("i", "t"), [(2, 400.0), (3, -400.0), (2, 1e308), (3, 8.99e307)])
def test_exp_A_boost_past_double_range_names_slot_and_t(i, t):
    with pytest.raises(OverflowError, match=re.escape(f"exp_A slot {i} at t = {t!r}")):
        lg.exp_A(i, t, 1.0)


_INF_E1 = np.where(np.arange(8) == 1, np.inf, 0.0)
_INF_E2 = np.where(np.arange(8) == 2, np.inf, 0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(("name", "fn", "args"), [
    ("t", lg.exp_A, (1, np.inf, 1.0)),
    ("t", lg.exp_A, (2, np.inf, 1.0)),
    ("t", lg.exp_A, (2, -np.inf, 1.0)),
    ("t", lg.exp_A, (3, np.nan, 1.0)),
    ("x", lg.exp_N, (1, np.roll(_INF_E1, -1), 0.0)),
    ("x", lg._exp_N_matrix, (-1, np.roll(_INF_E1, -1), 0.0)),
    ("p", lg.exp_N, (1, 0.0, _INF_E2)),
    ("u", lg.d4_rotate, (1, _INF_E1, _INF_E2)),
    ("v", lg._d4_rotate_matrix, (2, np.eye(8)[1], _INF_E2)),
])
def test_non_finite_parameters_are_refused_by_name(name, fn, args):
    # refused up front, before any arithmetic could warn or read them as a
    # norm mismatch or a non-finite matrix
    with pytest.raises(ValueError, match=f"parameter {name} must be finite"):
        fn(*args)


def test_exp_A_compact_slot_is_periodic():
    # slot 1 pairs eigenvalues with the compact direction: period 2 pi
    g = lg.exp_A(1, 2.0 * math.pi, 1.0)
    assert np.max(np.abs(g.mat - np.eye(27))) <= 1e-12


def test_exp_N_central_factor_adds(rng):
    for level in (1, -1):
        p, q = random_imag(rng, 0.4), random_imag(rng, 0.4)
        zero = Octonion.zero()
        lhs = lg.exp_N(level, zero, p) @ lg.exp_N(level, zero, q)
        rhs = lg.exp_N(level, zero, Octonion(p.coeffs + q.coeffs))
        assert np.max(np.abs(lhs.mat - rhs.mat)) <= 1e-12


def test_exp_N_rejects_real_center(rng):
    with pytest.raises(ValueError):
        lg.exp_N(1, random_oct(rng), Octonion.one())


def test_exp_N_refuses_a_nan_real_part():
    p = [np.nan, 1.0] + [0.0] * 6
    for call in (lambda: lg.exp_N(1, 0.0, p), lambda: lg.gen_G(2, p)):
        with pytest.raises(ValueError, match="parameter must be imaginary, got re = nan"):
            call()


def test_exp_N_rejects_bad_level(rng):
    with pytest.raises(ValueError):
        lg.exp_N(2, random_oct(rng), Octonion.zero())


def test_exp_N_nilpotent_generators(rng):
    # generators of the two graded pieces are nilpotent of low order
    x = random_oct(rng)
    gx = lg.gen_G(1, x).mat
    assert np.max(np.abs(np.linalg.matrix_power(gx, 5))) <= 1e-9 * max(1.0, x.norm() ** 5)
    p = random_imag(rng)
    gp = lg.gen_G(2, p).mat
    assert np.max(np.abs(np.linalg.matrix_power(gp, 3))) <= 1e-9 * max(1.0, p.norm() ** 3)
    # the combined generator that exp_N exponentiates as a quartic
    scale = max(1.0, x.norm() + p.norm()) ** 5
    assert np.max(np.abs(np.linalg.matrix_power(gx + gp, 5))) <= 1e-9 * scale


def test_exp_N_matches_expm(rng):
    for level in (1, -1):
        x, p = random_oct(rng), random_imag(rng)
        direct = lg.exp_N(level, x, p)
        gen = lg.gen_G(level, x).mat + lg.gen_G(2 * level, p).mat
        series = scipy.linalg.expm(gen)
        assert np.max(np.abs(direct.mat - series)) <= 1e-12 * max(1.0, np.max(np.abs(series)))


@pytest.mark.parametrize("level", [1, -1])
@pytest.mark.parametrize("which", ["x", "p", "none"])
def test_exp_N_single_generator_matches_expm(rng, level, which):
    # the builder skips a generator whose parameter is zero
    x = random_oct(rng) if which == "x" else Octonion.zero()
    p = random_imag(rng) if which == "p" else Octonion.zero()
    direct = lg.exp_N(level, x, p)
    gen = lg.gen_G(level, x).mat + lg.gen_G(2 * level, p).mat
    series = scipy.linalg.expm(gen)
    assert np.max(np.abs(direct.mat - series)) <= 1e-12 * max(1.0, np.max(np.abs(series)))


def _cols_to_matrix(images):
    """Matrix whose action sends the graded basis column jordan._V[:, c] to
    images[c]."""
    return np.column_stack([im.vec for im in images]) @ jordan._V_INV


def g1_by_columns(xv):
    """G1(x) from its image of each graded basis vector, one JordanElement
    per column: -P^-, Qplus(e0..e7), E1+E2, E3, F(3,e1..e7), Qminus(e0..e7),
    P^+."""
    x = Octonion(xv)
    zero = JordanElement(np.zeros(27))
    images = [zero]
    for j in range(8):
        images.append(2 * oct.inner(xv, Octonion.unit(j).coeffs) * P_MINUS)
    images += [Qplus(-1 * x), Qplus(x)]
    for j in range(1, 8):
        images.append(Qplus(-1 * (Octonion.unit(j) * x)))
    for j in range(8):
        y = Octonion.unit(j)
        imxy = (x * y.conj()).im()
        images.append(2 * oct.inner(xv, y.coeffs) * (E - 3 * E3) + F(3, 2 * imxy))
    images.append(Qminus(2 * x))
    return _cols_to_matrix(images)


def g2_by_columns(pv):
    p = Octonion(pv)
    zero = JordanElement(np.zeros(27))
    images = [zero] * 11
    for j in range(1, 8):
        images.append(-2 * oct.inner(pv, Octonion.unit(j).coeffs) * P_MINUS)
    for j in range(8):
        images.append(Qplus(-2 * (p * Octonion.unit(j))))
    images.append(F(3, 4 * p))
    return _cols_to_matrix(images)


def _generator_params(rng):
    units = [np.eye(8)[j] for j in range(8)]
    mixed = rng.standard_normal((6, 8))
    mixed[rng.random((6, 8)) < 0.5] = -0.0
    mixed[rng.random((6, 8)) < 0.3] = 0.0
    return (
        [rng.standard_normal(8) * s for s in (1e-3, 0.15, 1.0, 30.0)]
        + units + [-u for u in units]
        + [np.zeros(8), np.full(8, -0.0)]
        + list(mixed)
    )


def test_generators_match_column_images(rng):
    # the references form all 15 and 8 octonion products (x conj(e_j) for
    # every j, p e_j for every j); the builders derive the rest exactly
    s = lg.sigma(1).mat
    for v in _generator_params(rng):
        p = v.copy()
        p[0] = 0.0
        for level, param, ref in ((1, v, g1_by_columns(v)), (2, p, g2_by_columns(p))):
            assert lg.gen_G(level, param).mat.tobytes() == ref.tobytes(), (level, v)
            assert lg.gen_G(-level, param).mat.tobytes() == (s @ ref @ s).tobytes(), (level, v)


def test_generators_take_seven_octonion_products(rng, monkeypatch):
    calls = []
    real = Octonion.__mul__
    monkeypatch.setattr(Octonion, "__mul__", lambda a, b: calls.append(1) or real(a, b))
    lg.gen_G(1, random_oct(rng))
    assert len(calls) == 7
    calls.clear()
    lg.gen_G(2, random_imag(rng))
    assert len(calls) == 7


def pairwise_residual(m, derivation):
    """verify / derivation_residual from Jordan products of basis vectors."""
    basis = basis27()
    images = [JordanElement(m[:, i]) for i in range(27)]
    worst = 0.0
    for i in range(27):
        for j in range(27):
            lhs = m @ jordan_mul(basis[i], basis[j]).vec
            if derivation:
                rhs = jordan_mul(images[i], basis[j]).vec + jordan_mul(basis[i], images[j]).vec
            else:
                rhs = jordan_mul(images[i], images[j]).vec
            worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    if not derivation:
        worst += float(np.linalg.norm(m @ E.vec - E.vec))
    return worst


def test_verify_matches_pairwise_reference(rng):
    g = eval_word(parse("A3(0.5;1)*G1(0.1e1-0.2e3)*D4(2,e1,e2)*Gm2(0.3e4)")).mat
    D = lg.gen_A(2, random_unit(rng)).mat + lg.gen_G(1, random_oct(rng)).mat
    cases = [
        (lg.verify, g, False),
        (lg.verify, g + 0.1 * rng.standard_normal((27, 27)), False),
        (lg.derivation_residual, D, True),
        (lg.derivation_residual, D + 0.1 * rng.standard_normal((27, 27)), True),
    ]
    for fn, m, derivation in cases:
        ref = pairwise_residual(m, derivation)
        assert abs(fn(m) - ref) <= 1e-12 * max(1.0, ref)


_ARRAY_27x729 = 27 * 729 * 8  # bytes of one [k, (i,j)] layout of the product rule


@pytest.mark.parametrize("fn, arrays", [(lg.verify, 2.1), (lg.derivation_residual, 2.5)])
def test_residual_checks_peak_memory(rng, fn, arrays):
    # both run on read-only input, as GroupElement.mat is, and leave it as
    # it was; the product-rule layouts are subtracted in place
    if fn is lg.verify:
        m = eval_word(parse("A3(0.5;1)*G1(0.1e1-0.2e3)*D4(2,e1,e2)")).mat
    else:
        m = lg.gen_A(2, random_unit(rng)).mat + lg.gen_G(1, random_oct(rng)).mat
        m.setflags(write=False)
    assert not m.flags.writeable
    before = m.tobytes()
    want = fn(m)  # fills the cached layouts
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        got = fn(m)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak <= arrays * _ARRAY_27x729, peak / _ARRAY_27x729
    assert m.tobytes() == before


def test_sigma_conjugation_swaps_levels(rng):
    x = random_oct(rng, 0.4)
    s1 = lg.sigma(1)
    lhs = s1 @ lg.exp_N(1, x, Octonion.zero()) @ s1.inv()
    rhs = lg.exp_N(-1, x, Octonion.zero())
    assert np.max(np.abs(lhs.mat - rhs.mat)) <= 1e-12


def test_sigma_involutions():
    for i in (1, 2, 3):
        s = lg.sigma(i)
        assert np.max(np.abs((s @ s).mat - np.eye(27))) <= 1e-12


def test_opposite_nilpotents_commute(rng):
    p = random_imag(rng, 0.4)
    x = random_oct(rng, 0.4)
    a = lg.exp_N(1, Octonion.zero(), p)
    b = lg.exp_N(1, x, Octonion.zero())
    g1 = lg.gen_G(2, p).mat
    g2 = lg.gen_G(1, x).mat
    # the center really is central in the graded piece
    comm = g1 @ g2 - g2 @ g1
    assert np.max(np.abs(comm)) <= 1e-12
    assert np.max(np.abs((a @ b).mat - (b @ a).mat)) <= 1e-12


def test_d4_rotate_moves_slot(rng):
    for j in (1, 2, 3):
        u = random_oct(rng)
        w = random_oct(rng)
        v = Octonion(w.coeffs * (u.norm() / w.norm()))
        g = lg.d4_rotate(j, u, v)
        got = JordanElement(g.mat @ F(j, u).vec)
        assert np.max(np.abs(got.vec - F(j, v).vec)) <= 1e-9 * max(1.0, u.norm())
        for Ei in (E1, E2, E3):
            assert np.max(np.abs(g.mat @ Ei.vec - Ei.vec)) <= 1e-9


def test_d4_rotate_antipodal(rng):
    u = random_oct(rng)
    g = lg.d4_rotate(2, u, Octonion(-u.coeffs))
    got = JordanElement(g.mat @ F(2, u).vec)
    assert np.max(np.abs(got.vec + F(2, u).vec)) <= 1e-9 * max(1.0, u.norm())


def test_d4_rotate_rejects_unequal_norms(rng):
    with pytest.raises(ValueError):
        lg.d4_rotate(1, Octonion.one(), Octonion.from_scalar(2.0))


@pytest.mark.parametrize("scale", [1e-150, 1e-300])
def test_d4_norm_check_is_relative_at_small_scales(scale):
    # |v| = 2 |u| is refused at every scale, as it is at scale 1
    e1 = np.eye(8)[1]
    u, v = scale * e1, 2 * scale * e1
    with pytest.raises(ValueError, match="norm mismatch"):
        lg.d4_rotate(1, u, v)
    with pytest.raises(ValueError, match="norm mismatch"):
        lg._d4_rotate_matrix(1, u, v)
    word = f"D4(1,{oct.format_octonion(u)},{oct.format_octonion(v)})"
    with pytest.raises(ValueError, match="norm mismatch"):
        eval_word(parse(word))
    # an equal-norm pair at the same scale still rotates
    ref = lg.d4_rotate(1, e1, np.eye(8)[2]).mat
    assert np.array_equal(lg.d4_rotate(1, u, scale * np.eye(8)[2]).mat, ref)
    assert np.array_equal(lg._d4_rotate_matrix(1, u, scale * np.eye(8)[2]), ref)


@pytest.mark.filterwarnings("error")
def test_d4_rotate_is_scale_invariant(rng):
    # |u|^2 overflows past |u| ~ 1.3e154 and underflows below ~1e-154;
    # power-of-two scalings are exact, so the rotation is the same matrix at
    # every scale
    big = lg.d4_rotate(1, Octonion.from_scalar(1e300), Octonion(1e300 * np.eye(8)[1]))
    assert big.mat.tobytes() == lg.d4_rotate(1, Octonion.one(), Octonion.unit(1)).mat.tobytes()
    for j in (1, 2, 3):
        u = rng.standard_normal(8)
        v = rng.standard_normal(8)
        v *= np.linalg.norm(u) / np.linalg.norm(v)
        ref = lg.d4_rotate(j, u, v).mat.tobytes()
        for k in (-600, -40, -3, 5, 1000):
            assert lg.d4_rotate(j, np.ldexp(u, k), np.ldexp(v, k)).mat.tobytes() == ref, (j, k)


def test_group_element_gates_garbage():
    with pytest.raises(lg.VerificationError):
        lg.GroupElement(np.eye(27) + 1e-3)


def svd_gate_accepts(mat):
    """The group gate decided on the SVD operator norm alone."""
    with np.errstate(over="ignore", invalid="ignore"):
        residual = lg.verify(mat)
        norm = float(np.linalg.norm(mat, 2))
    norm_sq = norm * norm
    return math.isfinite(norm_sq) and residual < lg.group_tol() * max(1.0, norm_sq)


def accepts(mat):
    try:
        lg.GroupElement(mat)
    except lg.VerificationError:
        return False
    return True


def _gate_edge(base):
    """Scalings (1 + d) base with d at the SVD gate's flip and a few ulps and
    decades around it; the residual grows linearly in d."""
    lo, hi = 0.0, 1e-3
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if svd_gate_accepts((1 + mid) * base) else (lo, mid)
    ds = [lo, hi, np.nextafter(lo, 0), np.nextafter(hi, 1), 0.5 * lo, 0.9 * lo, 1.1 * hi, 2 * hi]
    return [(1 + d) * base for d in ds]


def test_gate_decides_like_the_svd_gate(monkeypatch):
    # the identity has equal column and operator norms; the torus element's
    # largest column is well below its operator norm, so near its edge the
    # column bound fails and the SVD decides
    cases = _gate_edge(np.eye(27)) + _gate_edge(lg.exp_A(3, 0.5, 1.0).mat)
    cases += [1e200 * np.eye(27), 1e160 * lg.exp_A(2, 0.3, 1.0).mat, np.eye(27) + 1e-3]
    decisions = [accepts(m) for m in cases]
    assert decisions == [svd_gate_accepts(m) for m in cases]
    assert True in decisions and False in decisions
    monkeypatch.setattr(lg, "verify", lambda m: math.nan)
    assert not accepts(np.eye(27))


def test_opnorm_is_the_svd_norm_computed_once(monkeypatch):
    base = lg.exp_A(3, 0.5, 1.0).mat
    col_sq = float(np.max(np.sum(base * base, axis=0)))
    norm_sq = float(np.linalg.norm(base, 2)) ** 2
    # a residual between tol * col_sq and tol * |g|_2^2: only the SVD passes it
    d = 1e-3
    while lg.verify((1 + d) * base) >= lg.group_tol() * norm_sq:
        d /= 1.01
    between = (1 + d) * base
    assert lg.verify(between) >= lg.group_tol() * col_sq
    calls = []
    real = np.linalg.norm
    monkeypatch.setattr(
        np.linalg, "norm", lambda m, ord=None: calls.append(ord) or real(m, ord)
    )
    for mat, svd_in_gate in ((base, 0), (between, 1)):
        calls.clear()
        g = lg.GroupElement(mat)
        assert calls.count(2) == svd_in_gate
        for _ in range(3):
            assert g.opnorm == real(mat, 2)
        assert calls.count(2) == 1


def test_algebra_element_refuses_nan():
    with pytest.raises(lg.VerificationError):
        lg.AlgebraElement(np.full((27, 27), np.nan))
    with pytest.raises(lg.VerificationError):
        lg.gen_G(1, [np.nan] * 8)


def test_expm_refuses_nan_derivation():
    # expm trusts its AlgebraElement, so an unchecked matrix of NaN or
    # infinite entries reaches the exponential. Its scaling refuses the
    # non-finite norm, which no finite number of squarings brings to 0.5
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(lg.VerificationError, match="Frobenius norm"):
            lg.expm(lg._derivation(np.full((27, 27), bad)))


def test_algebra_element_has_no_check_switch():
    with pytest.raises(TypeError):
        lg.AlgebraElement(np.zeros((27, 27)), check=False)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_group_element_rejects_non_finite(bad):
    mat = np.eye(27)
    mat[3, 4] = bad
    with pytest.raises(lg.VerificationError):
        lg.GroupElement(mat)


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "0", "-1e-8", "abc"])
def test_tolerance_env_cannot_turn_gates_off(tol_env, raw):
    tol_env(raw)
    want = re.escape(f"F4DECOMP_TOL must be finite and positive, got '{raw}'")
    for _ in range(2):  # the refusal is not kept as the setting
        with pytest.raises(ValueError, match=want):
            config.group_tol()
    with pytest.raises(ValueError, match="F4DECOMP_TOL must be finite and positive"):
        lg.GroupElement(lg.identity().mat)


def test_tolerances_are_read_once_per_process(tol_env, monkeypatch):
    tol_env("1e-6")
    assert (config.group_tol(), config.member_tol()) == (1e-6, 1e-7)
    monkeypatch.setenv(config.ENV_VAR, "nan")  # a change after the first read is not seen
    assert config.group_tol() == 1e-6
    tol_env(None)
    assert (config.group_tol(), config.member_tol()) == (1e-8, 1e-9)


def test_shared_constants_are_verified_and_read_only():
    assert lg.identity() is lg.identity()
    assert lg.sigma(2) is lg.sigma(2)
    for g in (lg.identity(), lg.sigma(1), lg.sigma(3)):
        assert g.residual == 0.0 and g.opnorm == 1.0
        with pytest.raises(ValueError):
            g.mat[0, 0] = 2.0


def test_verify_runs_once_per_returned_element(monkeypatch):
    calls = []
    real = lg.verify
    monkeypatch.setattr(lg, "verify", lambda m: calls.append(1) or real(m))
    g = eval_word(parse("A3(0.3;1)*G1(0.2e1)*G2(0.1e3)*S1*A1(0.2;e2)"))
    # the two A atoms and the product; G atoms inside a product are the
    # unverified closed form and S1 is a cached constant
    assert len(calls) == 3
    calls.clear()
    decomp.iwasawa(g)
    assert len(calls) == 1  # k only
    a = lg.exp_A(3, 0.3, 1.0)
    calls.clear()
    decomp.keps_iwasawa(a)
    assert len(calls) == 1  # k_eps only


def test_nilpotent_word_is_verified_once(monkeypatch):
    text = "G1(0.2e1)*Gm2(0.3e5)*G2(0.1e3)"
    zero = Octonion.zero()
    atoms = [
        lg.exp_N(1, 0.2 * Octonion.unit(1), zero),
        lg.exp_N(-1, zero, 0.3 * Octonion.unit(5)),
        lg.exp_N(1, zero, 0.1 * Octonion.unit(3)),
    ]
    calls = []
    real = lg.verify
    monkeypatch.setattr(lg, "verify", lambda m: calls.append(1) or real(m))
    g = eval_word(parse(text))
    assert len(calls) == 1  # the product only
    assert np.array_equal(g.mat, atoms[0].mat @ atoms[1].mat @ atoms[2].mat)


def test_rotation_word_is_verified_once(monkeypatch):
    text = "D4(2,e1,e2)*D4(3,1+e4,e2-e7)*S1"
    atoms = [
        lg.d4_rotate(2, Octonion.unit(1), Octonion.unit(2)),
        lg.d4_rotate(3, Octonion.one() + Octonion.unit(4), Octonion.unit(2) - Octonion.unit(7)),
        lg.sigma(1),
    ]
    calls = []
    real_verify, real_derivation = lg.verify, lg.derivation_residual
    monkeypatch.setattr(lg, "verify", lambda m: calls.append("verify") or real_verify(m))
    monkeypatch.setattr(
        lg, "derivation_residual", lambda m: calls.append("derivation") or real_derivation(m)
    )
    g = eval_word(parse(text))
    assert calls == ["verify"]  # the product only; neither generator is checked
    assert np.array_equal(g.mat, atoms[0].mat @ atoms[1].mat @ atoms[2].mat)


@pytest.mark.parametrize("j", [0, 4, -1])
def test_d4_slot_index_is_checked_on_both_routes(j):
    # v = u is the identity rotation, which must not skip the slot check
    e1, e3 = Octonion.unit(1), 2.0 * Octonion.unit(3)
    with pytest.raises(ValueError, match="slot index"):
        lg.d4_rotate(j, e1, e1)
    with pytest.raises(ValueError, match="slot index"):
        lg._d4_rotate_matrix(j, e3, e3)
    for text in (f"D4({j},e1,e1)", f"D4({j},2e3,2e3)*A3(0.1;1)", f"D4({j},e1,e1)^2"):
        with pytest.raises(ValueError, match="slot index"):
            eval_word(parse(text))


def test_inverse_and_apply(rng):
    g = lg.exp_A(2, 0.3, random_unit(rng))
    gi = g.inv()
    assert np.max(np.abs((g @ gi).mat - np.eye(27))) <= 1e-12
    # the pairing adjoint W^-1 g^T W, formed without rounding
    W = jordan._WEIGHTS
    assert np.array_equal(gi.mat, np.diag(1 / W) @ g.mat.T @ np.diag(W))
    X = JordanElement(rng.standard_normal(27))
    assert np.max(np.abs(g.apply(X).vec - g.mat @ X.vec)) == 0.0


def test_killing_anchor():
    H = lg.gen_A(3, Octonion.one())
    assert abs(lg.killing(H, H) - 72.0) <= 1e-6


def test_killing_trace_matches_structure_constants(rng):
    # trace(ad phi . ad psi) over the basis52 coordinates is independent of
    # the 3 trace(phi psi) route that killing uses
    basis = lg.basis52()
    for _ in range(5):
        c, d = rng.standard_normal((2, 52))
        phi = lg.AlgebraElement(sum(ci * b.mat for ci, b in zip(c, basis)))
        psi = lg.AlgebraElement(sum(di * b.mat for di, b in zip(d, basis)))
        ad_route = float(np.tensordot(lg.ad_matrix(phi), lg.ad_matrix(psi).T, axes=2))
        assert abs(lg.killing(phi, psi) - ad_route) <= 1e-12 * abs(ad_route)


def test_basis52_rank():
    basis = lg.basis52()
    assert len(basis) == 52
    flat = np.stack([b.mat.ravel() for b in basis])
    assert np.linalg.matrix_rank(flat, tol=1e-9) == 52


def test_basis52_is_exactly_orthogonal():
    flat = np.stack([b.mat.ravel() for b in lg.basis52()])
    assert np.array_equal(flat @ flat.T, np.diag([26.0] * 24 + [96.0] * 28))
    # every element is a derivation with no rounding at all
    assert all(lg.derivation_residual(b.mat) == 0.0 for b in lg.basis52())
    # coordinates of the basis itself are the unit vectors
    assert np.array_equal(np.stack([lg._coords52(b.mat) for b in lg.basis52()]), np.eye(52))


def test_m_basis_is_the_normalized_tail_of_basis52():
    tail = lg.basis52()[31:]
    assert len(tail) == len(lg.m_basis()) == 21
    for b, m in zip(tail, lg.m_basis()):
        want = b.mat / np.linalg.norm(b.mat)
        assert want.tobytes() == m.mat.tobytes()


def test_grading_multiplicities():
    rep = lg.theta_eps_check()
    assert rep.grading_residual <= 1e-9
    assert rep.max_deviation <= 1e-12


def test_grading_residual_sees_a_wrong_torus(monkeypatch):
    # the pieces come from the graded basis V, so a torus generator that V
    # does not diagonalize must show in the eigen-equation residual
    lg.basis52()
    noise = 1e-3 * np.random.default_rng(5).standard_normal((27, 27))
    real = lg.gen_A

    def noisy(i, a):
        return lg._derivation(real(i, a).mat + noise)

    monkeypatch.setattr(lg, "gen_A", noisy)
    assert lg.theta_eps_check().grading_residual > 1e-6


def test_m_basis_matches_the_centralizer_null_space():
    # independent route: the null space over basis52 of [phi, H] = 0
    # (centralizes the torus) and phi E1 = 0 (lies in the compact part)
    basis = lg.basis52()
    H = lg.gen_A(3, 1).mat
    rows = [np.concatenate([(b.mat @ H - H @ b.mat).ravel(), b.mat @ E1.vec]) for b in basis]
    A = np.stack(rows).T  # (729 + 27, 52)
    _, svals, Vt = np.linalg.svd(A)
    assert int(np.sum(svals < svals[0] * 1e-9)) == 21
    flat = np.stack([b.mat.ravel() for b in basis])
    ref = Vt[-21:] @ flat
    got = np.stack([b.mat.ravel() for b in lg.m_basis()])
    assert len(got) == 21
    assert np.linalg.matrix_rank(np.vstack([ref, got]), tol=1e-9) == 21
    for b in lg.m_basis():
        assert lg.derivation_residual(b.mat) == 0.0
        assert all(not (b.mat @ T.vec).any() for T in (E1, E2, E3, F(3, 1.0)))
        assert abs(np.linalg.norm(b.mat) - 1.0) <= 1e-15


def test_expm_matches_scipy(rng):
    basis = lg.basis52()
    c = 0.2 * rng.standard_normal(52)
    mat = sum(ci * b.mat for ci, b in zip(c, basis))
    got = lg.expm(lg.AlgebraElement(mat)).mat
    assert np.max(np.abs(got - scipy.linalg.expm(mat))) <= 1e-11


@pytest.mark.parametrize("scale", [1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2])
def test_expm_matches_scipy_across_scales(rng, scale):
    # the fixed-degree polynomial with its squarings, on derivations of
    # Frobenius norm `scale`
    basis = lg.basis52()
    for _ in range(4):
        mat = sum(ci * b.mat for ci, b in zip(rng.standard_normal(52), basis))
        mat *= scale / np.linalg.norm(mat)
        got = lg.expm(lg.AlgebraElement(mat)).mat
        want = scipy.linalg.expm(mat)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def _orthonormal_pair(rng):
    q, _ = np.linalg.qr(rng.standard_normal((8, 2)))
    return q[:, 0], q[:, 1]


@pytest.mark.parametrize("j", [1, 2, 3])
def test_d4_generator_is_the_quarter_bracket(rng, j):
    def bracket(a, b):
        ga, gb = lg.gen_A(j, a).mat, lg.gen_A(j, b).mat
        return 0.25 * (ga @ gb - gb @ ga)

    pairs = [_orthonormal_pair(rng) for _ in range(10)]
    # the antipodal branch's plane: u and the coordinate axis least aligned
    # with it, orthogonalized
    u = random_unit(rng).coeffs
    b = np.eye(8)[int(np.argmin(np.abs(u)))]
    b -= (b @ u) * u
    pairs.append((u, b / np.linalg.norm(b)))
    for a, b in pairs:
        assert np.max(np.abs(lg._d4_generator(j, a, b) - bracket(a, b))) <= 1e-15
    # the solve's antipodal branch turns by pi or -pi in that plane
    gen, ref = lg._d4_solve(j, u, -u)[0], math.pi * bracket(*pairs[-1])
    dev = min(np.max(np.abs(gen - ref)), np.max(np.abs(gen + ref)))
    assert dev <= 4 * math.pi * 1e-16


@pytest.mark.parametrize("j", [1, 2, 3])
def test_d4_rotate_refuses_a_rotation_that_misses(rng, monkeypatch, j):
    # twice the generator turns twice as far as the solve's angle; the
    # postcondition of both routes refuses the missed target
    real = lg._d4_generator
    monkeypatch.setattr(lg, "_d4_generator", lambda j, a, b: 2 * real(j, a, b))
    u, v = _orthonormal_pair(rng)
    for fn in (lg.d4_rotate, lg._d4_rotate_matrix):
        with pytest.raises(lg.RotationError, match="failed to reach the target"):
            fn(j, u, v)


def test_fixes_refuses_a_nan_deviation():
    nan = JordanElement(np.full(27, np.nan))
    assert not lg.stabilizer_check(lg.exp_A(3, 0.5, 1), [nan])
    assert not lg.stabilizer_check(lg.identity(), [E1, nan])


def test_fixes_decides_large_targets():
    # sigma(1) negates slot 3 and keeps slot 1; a target this large squares
    # to inf in both the deviation's norm and the tolerance's, and
    # inf <= inf would read as fixed
    with np.errstate(all="raise"):
        for k in range(150, 301):
            assert not lg.stabilizer_check(lg.sigma(1), [F(3, 10.0**k)]), k
        assert lg.stabilizer_check(lg.sigma(1), [F(1, 1e300)])


def test_m_basis_stabilizes(rng):
    targets = [E1, E2, E3, F(3, 1.0)]
    for b in lg.m_basis():
        for T in targets:
            assert np.max(np.abs(b.mat @ T.vec)) <= 1e-12


def test_stabilizer_check(rng):
    m = lg.expm(lg.AlgebraElement(0.3 * lg.m_basis()[0].mat))
    assert lg.stabilizer_check(m, [E1, E2, E3, F(3, 1.0)])
    assert not lg.stabilizer_check(lg.exp_A(3, 0.5, 1.0), [E1])


def test_group_preserves_pairing(rng):
    g = lg.exp_N(1, random_oct(rng, 0.3), random_imag(rng, 0.3))
    X = JordanElement(rng.standard_normal(27))
    Y = JordanElement(rng.standard_normal(27))
    scale = max(1.0, X.norm() * Y.norm())
    assert abs(inner(g.apply(X), g.apply(Y)) - inner(X, Y)) <= 1e-10 * scale
