"""Tests for the 27-dimensional Jordan algebra layer."""

import numpy as np
import pytest

from conftest import random_group, random_oct
from f4decomp import jordan as jd
from f4decomp.jordan import (
    E,
    E1,
    E2,
    E3,
    F,
    P_MINUS,
    P_PLUS,
    SIGMA_P_MINUS,
    JordanElement,
    classify,
    cross_square,
    det,
    h1,
    inner,
    jordan_mul,
    ray_rep,
    s15_from,
    s15_to,
    trace,
)
from f4decomp.octonion import Octonion


def test_mul_tensor_matches_pairwise_jordan_mul():
    basis = jd.basis27()
    ref = np.empty((27, 27, 27))
    for i in range(27):
        for j in range(i, 27):
            prod = jordan_mul(basis[i], basis[j]).vec
            ref[i, j] = prod
            ref[j, i] = prod
    assert jd.mul_tensor().tobytes() == ref.tobytes()


def test_cross_square_rows_match_elements(rng):
    rows = rng.standard_normal((500, 27)) * rng.choice([1e-3, 1.0, 1e3], size=(500, 1))
    rows[rng.random((500, 27)) < 0.1] = -0.0
    stacked = cross_square(rows)
    for row, got in zip(rows, stacked):
        assert got.tobytes() == cross_square(JordanElement(row)).vec.tobytes()


def test_idempotents():
    for i, Ei in enumerate((E1, E2, E3)):
        assert np.allclose(jordan_mul(Ei, Ei).vec, Ei.vec, atol=1e-15)
        assert trace(Ei) == 1.0
    assert np.allclose(jordan_mul(E1, E2).vec, 0.0, atol=1e-15)
    assert np.allclose((E1 + E2 + E3).vec, E.vec)


def test_identity_element(rng):
    for _ in range(20):
        X = JordanElement(rng.standard_normal(27))
        assert np.allclose(jordan_mul(E, X).vec, X.vec, atol=1e-14 * max(1, X.norm()))


def test_jordan_identity(rng):
    # (X o Y) o X^2 = X o (Y o X^2)
    for _ in range(20):
        X = JordanElement(rng.standard_normal(27))
        Y = JordanElement(rng.standard_normal(27))
        X2 = jordan_mul(X, X)
        lhs = jordan_mul(jordan_mul(X, Y), X2)
        rhs = jordan_mul(X, jordan_mul(Y, X2))
        scale = max(1.0, X.norm() ** 3 * Y.norm())
        assert np.max(np.abs(lhs.vec - rhs.vec)) <= 1e-12 * scale


def test_pairing_anchors():
    assert inner(P_MINUS, E1) == -1.0
    assert inner(P_MINUS, SIGMA_P_MINUS) == 4.0
    assert inner(F(1, Octonion.one()), F(1, Octonion.one())) == 2.0
    assert inner(F(2, Octonion.one()), F(2, Octonion.one())) == -2.0
    assert inner(F(3, Octonion.one()), F(3, Octonion.one())) == -2.0


def test_inner_is_trace_form(rng):
    for _ in range(20):
        X = JordanElement(rng.standard_normal(27))
        Y = JordanElement(rng.standard_normal(27))
        scale = max(1.0, X.norm() * Y.norm())
        assert abs(inner(X, Y) - trace(jordan_mul(X, Y))) <= 1e-12 * scale


def test_adjoint_identity(rng):
    # X^{x2 x2} = det(X) X
    for _ in range(20):
        X = JordanElement(rng.standard_normal(27))
        lhs = cross_square(cross_square(X))
        rhs = det(X) * X
        assert np.max(np.abs(lhs.vec - rhs.vec)) <= 1e-10 * max(1.0, X.norm() ** 4)


def test_det_anchor():
    assert abs(det(E) - 1.0) <= 1e-15
    assert abs(det(E1)) <= 1e-15
    assert abs(det(P_MINUS)) <= 1e-15


def test_group_invariance(rng):
    for _ in range(10):
        g = random_group(rng, max_len=4)
        X = JordanElement(rng.standard_normal(27))
        Y = JordanElement(rng.standard_normal(27))
        gX = JordanElement(g.mat @ X.vec)
        gY = JordanElement(g.mat @ Y.vec)
        scale = max(1.0, X.norm() * Y.norm())
        assert abs(inner(gX, gY) - inner(X, Y)) <= 1e-9 * scale
        assert abs(det(gX) - det(X)) <= 1e-9 * max(1.0, X.norm() ** 3)


def test_null_cone_membership():
    assert classify(P_MINUS).in_N1m
    assert classify(SIGMA_P_MINUS).in_N1m
    assert classify(P_PLUS).in_N1p
    assert classify(E1).in_H
    assert classify(E2).in_Hp
    assert classify(E3).in_Hp
    assert not classify(E).in_R1


def test_ray_rep():
    R = ray_rep(3.0 * P_MINUS)
    assert np.allclose(R.vec, P_MINUS.vec)
    with pytest.raises(ValueError):
        ray_rep(P_PLUS)


def test_s15_round_trip(rng):
    for _ in range(50):
        v = rng.standard_normal(16)
        v /= np.linalg.norm(v)
        x, y = Octonion(v[:8]), Octonion(v[8:])
        X = s15_from(x, y)
        m = classify(X)
        assert m.in_N1m
        xb, yb = s15_to(X)
        assert np.max(np.abs(xb.coeffs - x.coeffs)) <= 1e-12
        assert np.max(np.abs(yb.coeffs - y.coeffs)) <= 1e-12


def test_s15_rejects_off_sphere():
    with pytest.raises(ValueError):
        s15_from(Octonion.one(), Octonion.one())


def test_h1_slots(rng):
    a = random_oct(rng)
    X = h1(1.0, 2.0, 3.0, x2=a.coeffs)
    assert np.array_equal(X.xi, (1.0, 2.0, 3.0))
    assert np.array_equal(X.x(2).coeffs, a.coeffs)
    assert np.array_equal(X.x(1).coeffs, np.zeros(8))


def test_orbit_transport(rng):
    # group orbits stay inside their membership classes
    for _ in range(10):
        g = random_group(rng, max_len=4)
        assert classify(JordanElement(g.mat @ E1.vec)).in_H
        assert classify(JordanElement(g.mat @ E2.vec)).in_Hp
        assert classify(JordanElement(g.mat @ P_MINUS.vec)).in_N1m
