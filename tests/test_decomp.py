"""Tests for the four global factorizations and the cell/orbit classifiers."""

import math

import numpy as np
import pytest

from conftest import DEEP_GAUSS_WORD, random_group, random_keps, random_m, random_oct, random_imag
from f4decomp import decomp as dc
from f4decomp import liegroup as lg
from f4decomp.harmonic import H_nbar
from f4decomp.jordan import E1, E2, E3, F, P13_MINUS, P_MINUS, JordanElement, inner
from f4decomp.octonion import Octonion
from f4decomp.wordlang import eval_word, parse


def reconstruct_iwasawa(f):
    return f.k @ lg.exp_A(3, f.t, 1.0) @ lg.exp_N(1, f.n.x, f.n.p)


def test_iwasawa_round_trip(rng):
    for _ in range(30):
        g = random_group(rng)
        f = dc.iwasawa(g)
        assert f.residual <= 1e-8
        assert np.max(np.abs(reconstruct_iwasawa(f).mat - g.mat)) <= 1e-7
        assert lg.stabilizer_check(f.k, [E1])


def test_iwasawa_h_formula(rng):
    for _ in range(30):
        g = random_group(rng)
        f = dc.iwasawa(g)
        val = -inner(JordanElement(g.mat @ P_MINUS.vec), E1)
        assert val > 0
        assert abs(f.t - 0.5 * math.log(val)) <= 1e-12 * max(1.0, abs(f.t))


def test_iwasawa_uniqueness(rng):
    for _ in range(15):
        f = dc.iwasawa(random_group(rng))
        f2 = dc.iwasawa(reconstruct_iwasawa(f))
        assert abs(f.t - f2.t) <= 1e-8
        assert np.max(np.abs(f.k.mat - f2.k.mat)) <= 1e-8
        assert np.max(np.abs(f.n.x.coeffs - f2.n.x.coeffs)) <= 1e-8
        assert np.max(np.abs(f.n.p.coeffs - f2.n.p.coeffs)) <= 1e-8


def test_iwasawa_matches_radial_coordinate(rng):
    # lower-triangular inputs have a closed-form radial part
    for _ in range(20):
        x = random_oct(rng, 0.5)
        p = random_imag(rng, 0.5)
        t = 0.4 * rng.standard_normal()
        z = lg.exp_N(-1, x, p)
        a = lg.exp_A(3, t, 1.0)
        assert abs(dc.iwasawa(a @ z).t - H_nbar(x, p, t)) <= 1e-9
        assert abs(dc.iwasawa(z @ a).t - (H_nbar(x, p) + t)) <= 1e-9


def test_n_pair_closed_form(rng):
    for _ in range(20):
        g = random_group(rng)
        X = JordanElement(g.mat @ P_MINUS.vec)
        params = dc.n_pair(X)
        moved = lg.exp_N(1, params.x, params.p).apply(X)
        closed = dc.nx_closed_form(X)
        assert np.max(np.abs(moved.vec - closed.vec)) <= 1e-9 * max(1.0, X.norm())


def test_keps_dichotomy_and_round_trip(rng):
    for _ in range(30):
        g = random_group(rng)
        val, tol = dc._keps_cell_value(g)
        if abs(val) <= tol:
            with pytest.raises(dc.DegenerateCell):
                dc.keps_iwasawa(g)
            continue
        assert val > 0
        f = dc.keps_iwasawa(g)
        assert f.residual <= 1e-8
        rebuilt = f.k_eps @ lg.exp_A(3, f.t, 1.0) @ lg.exp_N(1, f.n.x, f.n.p)
        assert np.max(np.abs(rebuilt.mat - g.mat)) <= 1e-7
        assert lg.stabilizer_check(f.k_eps, [E2])


def test_keps_pivot_is_degenerate():
    with pytest.raises(dc.DegenerateCell):
        dc.keps_iwasawa(dc.closed_cell_rep())


def test_matsuki_open_agrees_with_keps(rng):
    for _ in range(10):
        g = random_group(rng)
        if dc.matsuki_classify(g) != "OpenCell":
            continue
        f = dc.matsuki(g)
        h = dc.keps_iwasawa(g)
        assert f.cell == "Open" and not f.w
        assert abs(f.t - h.t) <= 1e-10
        assert np.max(np.abs(f.k_eps.mat - h.k_eps.mat)) <= 1e-10


def test_matsuki_closed_cell(rng):
    c = dc.closed_cell_rep()
    for _ in range(15):
        k = random_keps(rng)
        m = random_m(rng)
        t = 0.5 * rng.standard_normal()
        n = lg.exp_N(1, random_oct(rng, 0.3), random_imag(rng, 0.3))
        g = k @ c @ m @ lg.exp_A(3, t, 1.0) @ n
        f = dc.matsuki(g)
        assert f.cell == "Closed" and f.w
        assert f.residual <= 1e-8
        # the radial part is pinned by the A-component of k against the
        # quarter-turn image of the base null vector
        shift = 0.5 * math.log(-inner(k.apply(P13_MINUS), E1))
        assert abs(f.t - (t + shift)) <= 1e-8
        rebuilt = (
            f.k_eps @ c @ f.m @ lg.exp_A(3, f.t, 1.0) @ lg.exp_N(1, f.n.x, f.n.p)
        )
        assert np.max(np.abs(rebuilt.mat - g.mat)) <= 1e-7


def test_matsuki_exactly_one_cell(rng):
    for _ in range(20):
        g = random_group(rng)
        label = dc.matsuki_classify(g)
        assert label in ("OpenCell", "ClosedCell")
        f = dc.matsuki(g)
        assert (f.cell == "Open") == (label == "OpenCell")


def test_gauss_round_trip(rng):
    for _ in range(30):
        g = random_group(rng)
        if dc.bruhat_classify(g) != "OpenCell":
            with pytest.raises(dc.DegenerateCell):
                dc.gauss(g)
            continue
        try:
            f = dc.gauss(g)
        except dc.DegenerateCell:
            # classified open but too near the boundary to factor at tolerance
            continue
        assert f.residual <= 1e-8
        rebuilt = (
            lg.exp_N(-1, f.z.x, f.z.p)
            @ f.m
            @ lg.exp_A(3, f.t, 1.0)
            @ lg.exp_N(1, f.n.x, f.n.p)
        )
        assert np.max(np.abs(rebuilt.mat - g.mat)) <= 1e-7
        assert lg.stabilizer_check(f.m, [E1, E2, E3, F(3, 1.0)], tol=1e-8)


def test_gauss_rejects_reflected_words(rng):
    for _ in range(5):
        n = lg.exp_N(1, random_oct(rng, 0.3), random_imag(rng, 0.3))
        a = lg.exp_A(3, 0.4 * rng.standard_normal(), 1.0)
        g = lg.sigma(1) @ random_m(rng) @ a @ n
        assert dc.bruhat_classify(g) == "ClosedCell"
        with pytest.raises(dc.DegenerateCell):
            dc.gauss(g)


def test_gauss_factors_large_boost():
    # the torus element itself is its own Gauss factorization: z = n = 0 and
    # m = I up to the rounding of a_5 a_-5, which the M gate accepts
    g = lg.exp_A(3, 5.0, 1.0)
    f = dc.gauss(g)
    assert f.t == 5.0
    assert f.z.norm() == 0.0 and f.n.norm() == 0.0
    assert lg.stabilizer_check(f.m, [E1, E2, E3, F(3, 1.0)])
    assert np.max(np.abs(f.m.mat - np.eye(27))) <= 1e-7


def test_gauss_keeps_its_typed_error_on_singular_solves():
    g = eval_word(parse(DEEP_GAUSS_WORD))
    assert dc.bruhat_classify(g) == "OpenCell"
    with pytest.raises(dc.DegenerateCell):
        dc.gauss(g)


def test_a_matrix_is_the_generic_torus_bytewise(rng):
    ts = np.concatenate([
        rng.standard_normal(1000),
        rng.uniform(-300.0, 300.0, 1000),
        [0.0, -0.0, 300.0, -300.0, 5e-324, -5e-324],
    ])
    for t in ts:
        assert dc._a_matrix(float(t)).tobytes() == lg._exp_A_matrix(3, float(t), 1.0).tobytes(), t


def test_z_of_X_moves_to_base_ray(rng):
    for _ in range(20):
        g = random_group(rng)
        if dc.bruhat_classify(g) != "OpenCell":
            continue
        X = JordanElement(g.mat @ P_MINUS.vec)
        try:
            params = dc.z_of_X(X)
        except dc.DegeneratePairing:
            # reflected pairing too small to certify the nilpotent factor
            continue
        moved = lg.exp_N(-1, params.x, params.p).apply(X)
        # lands on the base ray: proportional to the base null vector
        c = -inner(moved, E1)
        assert np.max(np.abs(moved.vec - c * P_MINUS.vec)) <= 1e-8 * max(1.0, X.norm())


def test_flag_classify_keps(rng):
    for _ in range(15):
        g = random_group(rng)
        X = JordanElement(g.mat @ P_MINUS.vec)
        label, witness = dc.flag_classify_keps(X)
        val = inner(X, E2)
        if label == "P13orbit":
            assert abs(val) <= 1e-6 * max(1.0, X.norm())
            target = P13_MINUS
        else:
            assert val > 0
            target = P_MINUS
        moved = witness.apply(X)
        c = -inner(moved, E1)
        assert c > 0
        assert np.max(np.abs(moved.vec - c * target.vec)) <= 1e-7 * max(1.0, X.norm())


def test_flag_classify_nminus_matches_bruhat(rng):
    for _ in range(20):
        g = random_group(rng)
        X = JordanElement(g.mat @ P_MINUS.vec)
        label = dc.flag_classify_nminus(X)
        cell = dc.bruhat_classify(g)
        assert (label == "P-orbit") == (cell == "OpenCell")


def test_stabilizer_flag(rng):
    n = lg.exp_N(1, random_oct(rng, 0.4), random_imag(rng, 0.4))
    a = lg.exp_A(3, 0.7, 1.0)
    m = random_m(rng)
    assert dc.stabilizer_flag(m @ a @ n)
    assert not dc.stabilizer_flag(lg.sigma(1))


def test_nparams_norm(rng):
    x, p = random_oct(rng), random_imag(rng)
    params = dc.NParams(x, p)
    assert abs(params.norm() - math.hypot(x.norm(), p.norm())) <= 1e-12
