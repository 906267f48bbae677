"""Acceptance gate: one test per release criterion.

Each criterion is a single test function so the verbose run shows one
pass/fail line per criterion. Tolerances and sample counts are pinned here
and must not be loosened.
"""

import cmath
import json
import math
import time

import numpy as np
import pytest

from conftest import (
    random_imag,
    random_keps,
    random_m,
    random_oct,
    random_unit,
    random_word_text,
)
from f4decomp import cli
from f4decomp import decomp as dc
from f4decomp import harmonic as ha
from f4decomp import liegroup as lg
from f4decomp import octonion as on
from f4decomp.jordan import (
    E1,
    E2,
    E3,
    F,
    P13_MINUS,
    P_MINUS,
    JordanElement,
    inner,
    s15_from,
    s15_to,
)
from f4decomp.octonion import Octonion
from f4decomp.wordlang import eval_word, parse

CONJ_SIGNS = np.array([1.0, -1, -1, -1, -1, -1, -1, -1])


def word_sample(rng, count, max_len=8):
    return [eval_word(parse(random_word_text(rng, max_len))) for _ in range(count)]


def test_criterion_01_octonion_laws():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    xs = rng.uniform(-1.0, 1.0, (10_000, 8))
    ys = rng.uniform(-1.0, 1.0, (10_000, 8))
    zs = rng.uniform(-1.0, 1.0, (10_000, 8))

    def nsq(v):
        return np.einsum("ij,ij->i", v, v)

    xy = on.mul_batch(xs, ys)
    assert np.max(np.abs(nsq(xy) - nsq(xs) * nsq(ys))) <= 1e-12 * np.max(nsq(xs) * nsq(ys))
    # alternativity, both flavors
    assert np.max(np.abs(on.mul_batch(xs, xy) - on.mul_batch(on.mul_batch(xs, xs), ys))) <= 1e-12
    yx = on.mul_batch(ys, xs)
    assert np.max(np.abs(on.mul_batch(yx, xs) - on.mul_batch(ys, on.mul_batch(xs, xs)))) <= 1e-12
    # Moufang
    lhs = on.mul_batch(on.mul_batch(zs, xs), on.mul_batch(ys, zs))
    rhs = on.mul_batch(zs, on.mul_batch(xy, zs))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12
    # conjugation reverses products
    assert np.max(np.abs(xy * CONJ_SIGNS - on.mul_batch(ys * CONJ_SIGNS, xs * CONJ_SIGNS))) <= 1e-12
    assert time.perf_counter() - start < 5.0


def test_criterion_02_generator_verification():
    rng = np.random.default_rng(102)
    for _ in range(100):
        i = int(rng.integers(1, 4))
        t = float(rng.uniform(-1.5, 1.5))
        g = lg.exp_A(i, t, random_unit(rng))
        assert lg.verify(g.mat) < 1e-9
    for k in range(100):
        level = 1 if k % 2 == 0 else -1
        g = lg.exp_N(level, random_oct(rng, 0.7), random_imag(rng, 0.7))
        assert lg.verify(g.mat) < 1e-9
    for i in (1, 2, 3):
        assert lg.verify(lg.sigma(i).mat) < 1e-9
    for _ in range(50):
        j = int(rng.integers(1, 4))
        u = random_oct(rng)
        w = random_oct(rng)
        v = Octonion(w.coeffs * (u.norm() / w.norm()))
        assert lg.verify(lg.d4_rotate(j, u, v).mat) < 1e-9


def test_criterion_03_algebra_structure():
    basis = lg.basis52()
    flat = np.stack([b.mat.ravel() for b in basis])
    assert np.linalg.matrix_rank(flat, tol=1e-9) == 52
    ad = lg.ad_matrix(lg.gen_A(3, Octonion.one()))
    evals = np.sort(np.linalg.eigvals(ad).real)
    counts = {}
    for k in (-2, -1, 0, 1, 2):
        sel = np.abs(evals - k) <= 1e-9
        counts[k] = int(sel.sum())
    assert counts == {-2: 7, -1: 8, 0: 22, 1: 8, 2: 7}
    assert np.max(np.abs(np.imag(np.linalg.eigvals(ad)))) <= 1e-9


def test_criterion_04_iwasawa_round_trip():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    for k in range(1000):
        g = eval_word(parse(random_word_text(rng)))
        f = dc.iwasawa(g)
        assert f.residual < 1e-8
        val = -inner(JordanElement(g.mat @ P_MINUS.vec), E1)
        assert val > 0.0
        assert abs(f.t - 0.5 * math.log(val)) <= 1e-12 * max(1.0, abs(f.t))
        if k % 10 == 0:
            rebuilt = f.k @ lg.exp_A(3, f.t, 1.0) @ lg.exp_N(1, f.n.x, f.n.p)
            f2 = dc.iwasawa(rebuilt)
            err = (
                abs(f.t - f2.t)
                + np.max(np.abs(f.k.mat - f2.k.mat))
                + np.max(np.abs(f.n.x.coeffs - f2.n.x.coeffs))
                + np.max(np.abs(f.n.p.coeffs - f2.n.p.coeffs))
            )
            assert err < 1e-8
    for _ in range(50):
        x = random_oct(rng, 0.5)
        p = random_imag(rng, 0.5)
        t = 0.4 * rng.standard_normal()
        f = dc.iwasawa(lg.exp_A(3, t, 1.0) @ lg.exp_N(-1, x, p))
        assert abs(f.t - ha.H_nbar(x, p, t)) <= 1e-9
    assert time.perf_counter() - start < 60.0


def test_criterion_05_keps_iwasawa():
    rng = np.random.default_rng(105)
    violations = 0
    for _ in range(1000):
        g = eval_word(parse(random_word_text(rng)))
        val, _, tol = dc._cells(g.mat @ P_MINUS.vec)
        if abs(val) <= tol:
            continue
        if val < 0.0:
            violations += 1
            continue
        f = dc.keps_iwasawa(g)
        assert f.residual < 1e-8
        rebuilt = f.k_eps @ lg.exp_A(3, f.t, 1.0) @ lg.exp_N(1, f.n.x, f.n.p)
        assert np.max(np.abs(rebuilt.mat - g.mat)) < 1e-7
    assert violations == 0
    g0 = lg.expm(lg.AlgebraElement(-0.5 * math.pi * lg.gen_A(1, Octonion.one()).mat))
    with pytest.raises(dc.DegenerateCell):
        dc.keps_iwasawa(g0)


def test_criterion_06_matsuki():
    rng = np.random.default_rng(106)
    c = dc.closed_cell_rep()
    for _ in range(200):
        k = random_keps(rng)
        m = random_m(rng)
        t = 0.5 * rng.standard_normal()
        n = lg.exp_N(1, random_oct(rng, 0.3), random_imag(rng, 0.3))
        g = k @ c @ m @ lg.exp_A(3, t, 1.0) @ n
        f = dc.matsuki(g)
        assert f.cell == "Closed"
        assert f.residual < 1e-8
        shift = 0.5 * math.log(-inner(k.apply(P13_MINUS), E1))
        assert abs(f.t - (t + shift)) <= 1e-8
    for _ in range(200):
        g = eval_word(parse(random_word_text(rng)))
        label = dc.matsuki_classify(g)
        assert label in ("OpenCell", "ClosedCell")
        f = dc.matsuki(g)
        assert (f.cell == "Open") == (label == "OpenCell")


def test_criterion_07_gauss_bruhat():
    rng = np.random.default_rng(107)
    factored = 0
    for _ in range(1000):
        g = eval_word(parse(random_word_text(rng)))
        if dc.bruhat_classify(g) != "OpenCell":
            continue
        try:
            f = dc.gauss(g)
        except dc.DegenerateCell:
            # open by classification but within conditioning distance of the
            # boundary; the factors are not representable at tolerance there
            continue
        factored += 1
        assert f.residual < 1e-8
        assert lg.stabilizer_check(f.m, [E1, E2, E3, F(3, 1.0)])
    assert factored >= 900
    for _ in range(100):
        n = lg.exp_N(1, random_oct(rng, 0.4), random_imag(rng, 0.4))
        a = lg.exp_A(3, 0.5 * rng.standard_normal(), 1.0)
        g = lg.sigma(1) @ random_m(rng) @ a @ n
        assert dc.bruhat_classify(g) == "ClosedCell"


def test_criterion_08_flag_space():
    rng = np.random.default_rng(108)
    for _ in range(1000):
        v = rng.standard_normal(16)
        v /= np.linalg.norm(v)
        x, y = Octonion(v[:8]), Octonion(v[8:])
        xb, yb = s15_to(s15_from(x, y))
        assert np.max(np.abs(xb.coeffs - x.coeffs)) <= 1e-10
        assert np.max(np.abs(yb.coeffs - y.coeffs)) <= 1e-10
    groups = [eval_word(parse(random_word_text(rng, 5))) for _ in range(100)]
    W = np.concatenate([np.ones(3), 2 * np.ones(8), -2 * np.ones(8), -2 * np.ones(8)])
    H_pts = np.stack([g.mat @ E1.vec for g in groups])
    Hp_pts = np.stack([g.mat @ E2.vec for g in groups])
    N_pts = np.stack([g.mat @ P_MINUS.vec for g in groups])
    pair_H = H_pts @ (W[:, None] * N_pts.T)
    pair_Hp = Hp_pts @ (W[:, None] * N_pts.T)
    pair_N = N_pts @ (W[:, None] * N_pts.T)
    assert pair_H.size == 10_000
    assert int((pair_H >= 0).sum()) == 0
    assert int((pair_Hp < 0).sum()) == 0
    # the null-cone pairing is >= 0 with equality exactly on shared rays, so
    # the only admissible negatives are roundoff on true zeros; certify each
    # such pair really is a shared ray
    scales = np.maximum(1.0, np.linalg.norm(N_pts, axis=1))
    assert int((pair_N < -1e-12 * np.outer(scales, scales)).sum()) == 0
    rays = N_pts / -(N_pts @ (W * E1.vec))[:, None]
    for i, j in np.argwhere(pair_N < 0):
        assert np.max(np.abs(rays[i] - rays[j])) <= 1e-9
    # equality on a shared ray
    assert abs(inner(P_MINUS, 2.5 * P_MINUS)) <= 1e-15


def test_criterion_09_radial_spectral_functions():
    start = time.perf_counter()
    rng = np.random.default_rng(109)
    H = lg.gen_A(3, Octonion.one())
    trace_route = lg.killing(H, H)
    structure_route = -ha.killing_structure(H)
    assert abs(trace_route - structure_route) <= 1e-6 * abs(trace_route)
    assert abs(trace_route - 72.0) <= 1e-6 * 72.0
    for _ in range(100):
        x = random_oct(rng)
        p = random_imag(rng)
        assert abs(ha.q_form(lg.gen_G(-1, x)) - 2.0 * x.norm_sq()) <= 1e-8 * max(
            1.0, x.norm_sq()
        )
        assert abs(ha.q_form(lg.gen_G(-2, p)) - 2.0 * p.norm_sq()) <= 1e-8 * max(
            1.0, p.norm_sq()
        )
    for _ in range(1000):
        x = random_oct(rng, 0.7)
        p = random_imag(rng, 0.7)
        la = complex(2.0 * rng.standard_normal(), rng.standard_normal())
        lhs = ha.exp_lambda_H(x, p, la)
        rhs = cmath.exp(0.5 * la * ha.H_nbar(x, p))
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))
    for la in (2.0, 4.0, 6.0, 10.0, 22.0):
        want = ha.c_gamma(la)
        got = ha.c_quadrature(la)
        assert abs(got - want) <= 1e-5 * abs(want)
    for la in (0.0, 2.0, 7.5, 22.0, 4.0 + 2.0j):
        assert abs(ha.spherical(la, 0.0) - 1.0) <= 1e-4
    assert time.perf_counter() - start < 120.0


def test_criterion_10_cli_fixtures(capsys):
    assert cli.main(["selftest"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["checked"] >= 30
    assert out["failed"] == 0
    for argv in (
        ["gauss", "--word", "S1"],
        ["keps", "--word", "A1(-1.5707963267948966;1)"],
    ):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert json.loads(err)["error"] == "DegenerateCell"
