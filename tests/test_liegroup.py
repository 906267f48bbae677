"""Tests for verified group elements and the structure of the derivation algebra."""

import math

import numpy as np
import pytest
import scipy.linalg

from conftest import random_imag, random_oct, random_unit
from f4decomp import decomp
from f4decomp import liegroup as lg
from f4decomp.jordan import E, E1, E2, E3, F, JordanElement, basis27, inner, jordan_mul
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


def test_group_element_gates_garbage():
    with pytest.raises(lg.VerificationError):
        lg.GroupElement(np.eye(27) + 1e-3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_group_element_rejects_non_finite(bad):
    mat = np.eye(27)
    mat[3, 4] = bad
    with pytest.raises(lg.VerificationError):
        lg.GroupElement(mat)


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "0", "-1e-8"])
def test_tolerance_env_cannot_turn_gates_off(monkeypatch, raw):
    monkeypatch.setenv("F4DECOMP_TOL", raw)
    with pytest.raises(ValueError):
        lg.GroupElement(2.0 * np.eye(27))


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
    assert len(calls) == 5  # four non-constant atoms and the product
    calls.clear()
    decomp.iwasawa(g)
    assert len(calls) == 1  # k only
    a = lg.exp_A(3, 0.3, 1.0)
    calls.clear()
    decomp.keps_iwasawa(a)
    assert len(calls) == 1  # k_eps only


def test_inverse_and_apply(rng):
    g = lg.exp_A(2, 0.3, random_unit(rng))
    gi = g.inv()
    assert np.max(np.abs((g @ gi).mat - np.eye(27))) <= 1e-12
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
        phi = lg.AlgebraElement(sum(ci * b.mat for ci, b in zip(c, basis)), check=False)
        psi = lg.AlgebraElement(sum(di * b.mat for di, b in zip(d, basis)), check=False)
        ad_route = float(np.tensordot(lg.ad_matrix(phi), lg.ad_matrix(psi).T, axes=2))
        assert abs(lg.killing(phi, psi) - ad_route) <= 1e-12 * abs(ad_route)


def test_basis52_rank():
    basis = lg.basis52()
    assert len(basis) == 52
    flat = np.stack([b.mat.ravel() for b in basis])
    assert np.linalg.matrix_rank(flat, tol=1e-9) == 52


def test_grading_multiplicities():
    rep = lg.theta_eps_check()
    assert rep.grading_residual <= 1e-9


def test_expm_matches_scipy(rng):
    basis = lg.basis52()
    c = 0.2 * rng.standard_normal(52)
    mat = sum(ci * b.mat for ci, b in zip(c, basis))
    got = lg.expm(lg.AlgebraElement(mat, check=False)).mat
    assert np.max(np.abs(got - scipy.linalg.expm(mat))) <= 1e-11


def test_m_basis_stabilizes(rng):
    targets = [E1, E2, E3, F(3, 1.0)]
    for b in lg.m_basis():
        for T in targets:
            assert np.max(np.abs(b.mat @ T.vec)) <= 1e-12


def test_stabilizer_check(rng):
    m = lg.expm(lg.AlgebraElement(0.3 * lg.m_basis()[0].mat, check=False))
    assert lg.stabilizer_check(m, [E1, E2, E3, F(3, 1.0)])
    assert not lg.stabilizer_check(lg.exp_A(3, 0.5, 1.0), [E1])


def test_group_preserves_pairing(rng):
    g = lg.exp_N(1, random_oct(rng, 0.3), random_imag(rng, 0.3))
    X = JordanElement(rng.standard_normal(27))
    Y = JordanElement(rng.standard_normal(27))
    scale = max(1.0, X.norm() * Y.norm())
    assert abs(inner(g.apply(X), g.apply(Y)) - inner(X, Y)) <= 1e-10 * scale
