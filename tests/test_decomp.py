"""Tests for the four global factorizations and the cell/orbit classifiers."""

import collections
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    DEEP_GAUSS_WORD,
    random_group,
    random_imag,
    random_keps,
    random_m,
    random_oct,
    random_unit,
)
from f4decomp import cli
from f4decomp import decomp as dc
from f4decomp import jordan
from f4decomp import liegroup as lg
from f4decomp import octonion as oct
from f4decomp.harmonic import H_nbar
from f4decomp.jordan import (
    E1,
    E2,
    E3,
    F,
    P13_MINUS,
    P_MINUS,
    SIGMA_P_MINUS,
    JordanElement,
    inner,
)
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


def test_n_pair_matches_the_adapted_coordinates(rng):
    # an independent route: with y = (x1 - conj x2) / 2 and
    # r = (xi2 - xi1) / 2 - re x3, n_pair(X) = (y / r, Im x3 / 2r)
    for scale in (1e-3, 1.0, 1e3):
        for _ in range(100):
            v = scale * rng.standard_normal(27)
            zero = rng.random(27) < 0.2
            zero[[0, 1, 19]] = False  # keeps r away from 0
            v[zero] = 0.0
            X = JordanElement(v)
            y = 0.5 * (v[3:11] - oct.conj_vec(v[11:19]))
            r = 0.5 * (v[1] - v[0]) - v[19]
            got = dc.n_pair(X)
            assert np.array_equal(got.x.coeffs, y / r)
            assert np.array_equal(got.p.coeffs[1:], v[20:27] / (2.0 * r))
            assert got.p.coeffs[0] == 0.0


def test_keps_dichotomy_and_round_trip(rng):
    for _ in range(30):
        g = random_group(rng)
        val, _, tol = dc._cells(g.mat @ P_MINUS.vec)
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


def test_closed_matsuki_verifies_its_rotation_and_m_once(rng, monkeypatch):
    c = dc.closed_cell_rep()
    g = random_keps(rng) @ c @ random_m(rng) @ lg.exp_A(3, 0.2, 1.0)
    assert dc.matsuki_classify(g) == "ClosedCell"
    calls = []
    real = lg.verify
    monkeypatch.setattr(lg, "verify", lambda m: calls.append(1) or real(m))
    f = dc.matsuki(g)
    assert f.cell == "Closed"
    assert len(calls) == 2  # k_eps, the one d4_rotate, and m
    # k_eps is the slot-2 rotation from 1 to the direction of g P_MINUS
    x2 = g.apply(P_MINUS).slot(2)
    want = F(2, Octonion(x2 / np.linalg.norm(x2))).vec
    assert np.max(np.abs(f.k_eps.mat @ F(2, 1.0).vec - want)) <= 1e-12


def _closed_cell_elements(rng, monkeypatch):
    """The closed-cell words of the benchmark's seeds 1 and 2, and
    k_eps c m a_t n built from random factors."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads

    words = [
        item.text
        for seed in (1, 2)
        for item in workloads.word_inputs(np.random.default_rng(seed))
        if item.t_closed is not None
    ]
    out = [eval_word(parse(w)) for w in words]
    c = dc.closed_cell_rep()
    for _ in range(10):
        n = lg.exp_N(1, random_oct(rng, 0.3), random_imag(rng, 0.3))
        a = lg.exp_A(3, 0.5 * rng.standard_normal(), 1.0)
        out.append(random_keps(rng) @ c @ random_m(rng) @ a @ n)
    return out


def test_closed_matsuki_reads_the_iwasawa_factorization(rng, monkeypatch):
    # on the closed cell k_eps c m is the Iwasawa k, and a_t and n are the
    # Iwasawa factors: one QR per element, shared by iwasawa and matsuki
    elements = _closed_cell_elements(rng, monkeypatch)
    assert len(elements) == 50
    c = dc.closed_cell_rep().mat
    qr_calls, verify_calls = [], []
    real_qr, real_verify = np.linalg.qr, lg.verify
    monkeypatch.setattr(np.linalg, "qr", lambda a: qr_calls.append(1) or real_qr(a))
    monkeypatch.setattr(lg, "verify", lambda m: verify_calls.append(1) or real_verify(m))
    for g in elements:
        qr_calls.clear()
        f = dc.iwasawa(g)
        h = dc.matsuki(g)
        assert h.cell == "Closed" and len(qr_calls) == 1
        assert h.t == f.t
        assert np.array_equal(h.n.x.coeffs, f.n.x.coeffs)
        assert np.array_equal(h.n.p.coeffs, f.n.p.coeffs)
        assert np.max(np.abs(h.k_eps.mat @ c @ h.m.mat - f.k.mat)) <= 1e-14
        # matsuki alone, on another element of the same matrix
        alone = lg.GroupElement(g.mat)
        qr_calls.clear()
        verify_calls.clear()
        assert dc.matsuki(alone).t == h.t
        assert len(qr_calls) == 1 and len(verify_calls) == 2
    src = Path(dc.__file__).parent
    assert sum(p.read_text().count("linalg.qr(") for p in src.glob("*.py")) == 1


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
        assert lg.stabilizer_check(f.m, [E1, E2, E3, F(3, 1.0)])


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


GRADES = np.repeat([2.0, 1.0, 0.0, -1.0, -2.0], [1, 8, 9, 8, 1])
EPS = np.finfo(float).eps


def test_a_matrix_matches_the_generic_torus(rng):
    # V diag(e^(grade t)) V^-1 against the slot-3 boost of `_exp_A_matrix`
    ts = np.concatenate([
        rng.standard_normal(1000),
        rng.uniform(-300.0, 300.0, 1000),
        [0.0, -0.0, 300.0, -300.0, 5e-324, -5e-324],
    ])
    for t in ts:
        want = lg._exp_A_matrix(3, float(t), 1.0)
        got = dc._a_matrix(float(t))
        assert np.max(np.abs(got - want)) <= 4 * EPS * np.max(np.abs(want)), t
    assert np.array_equal(dc._a_matrix(0.0), np.eye(27))


INV_WORD = "(A3(5;1)*G1(0.3)*A1(0.2;1))^-1"


def test_gauss_factors_the_adjoint_inverse():
    # with the dense inverse this word failed the M gate as DegenerateCell
    g = eval_word(parse(INV_WORD))
    f = dc.gauss(g)
    assert abs(f.t + 5.0) <= 0.1
    assert lg.stabilizer_check(f.m, [E1, E2, E3, F(3, 1.0)])


def test_no_dense_inverse_on_the_factorization_path(rng, monkeypatch):
    # every inverse of an automorphism is its pairing adjoint, and the graded
    # basis has a closed-form inverse: no word or factorization inverts a matrix
    def refuse(*_):
        raise AssertionError("np.linalg.inv called")

    monkeypatch.setattr(np.linalg, "inv", refuse)
    g = eval_word(parse("(A3(0.3;1)*G1(0.2)*A1(0.2;1))^-1"))
    assert np.max(np.abs((g @ g.inv()).mat - np.eye(27))) <= 1e-12
    dc.iwasawa(g)
    dc.keps_iwasawa(g)
    assert dc.matsuki(g).cell == "Open"
    closed = dc.closed_cell_rep() @ random_m(rng) @ lg.exp_A(3, 0.4, 1.0)
    assert dc.matsuki(closed).cell == "Closed"
    dc.gauss(g)


def test_no_generic_solve_or_inverse_in_src():
    # automorphisms are inverted as pairing adjoints, the graded basis has a
    # closed-form inverse and the derivation basis is exactly orthogonal, so
    # the library needs no generic solver, SVD or pseudo-inverse
    src = Path(dc.__file__).parent
    names = r"(solve|inv|svd|pinv)"
    pattern = re.compile(rf"linalg\.{names}\b|linalg import .*\b{names}\b")
    # the gates' operator norm is not a solver
    assert not pattern.search("opnorm = float(np.linalg.norm(arr, 2))")
    assert pattern.search("np.linalg.pinv(flat.T)") and pattern.search("np.linalg.svd(a)")
    hits = [
        f"{path.name}:{lineno}"
        for path in sorted(src.glob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert hits == []


def test_graded_basis_identities():
    V, V_inv = jordan._V, jordan._V_INV
    assert np.array_equal(jordan._GRADES, GRADES)
    assert np.array_equal(lg.gen_A(3, 1.0).mat @ V, V * GRADES)
    assert np.array_equal(V_inv @ V, np.eye(27))
    gram = V.T @ (np.abs(jordan._WEIGHTS)[:, None] * V)
    want = np.repeat([4.0, 4.0, 2.0, 1.0, 2.0, 4.0, 4.0], [1, 8, 1, 1, 7, 8, 1])
    assert np.array_equal(gram, np.diag(want))
    assert np.array_equal(jordan._GRAM, want)
    assert [b.stop - b.start for b in dc._BLOCKS] == [1, 8, 9, 8, 1]


@pytest.mark.parametrize("level", [1, -1])
def test_nilpotent_factors_are_block_unipotent_in_graded_coordinates(rng, level):
    for _ in range(10):
        x, p = random_oct(rng), random_imag(rng)
        ng = dc._V_INV @ lg._exp_N_matrix(level, x, p) @ dc._V
        # upper (level +1) or lower (level -1) block triangular with
        # identity diagonal blocks
        tol = 1e-15 * np.max(np.abs(ng))
        stray = np.tril(ng, -1) if level == 1 else np.triu(ng, 1)
        assert np.max(np.abs(stray)) <= tol
        for b in dc._BLOCKS:
            assert np.max(np.abs(ng[b, b] - np.eye(b.stop - b.start))) <= tol
        # the parameters are linear reads of the top row or first column
        got = dc._nilpotent_params(ng[0] if level == 1 else ng[:, 0], level)
        assert np.max(np.abs(got.x.coeffs - x.coeffs)) <= tol
        assert np.max(np.abs(got.p.coeffs - p.coeffs)) <= tol


@pytest.mark.parametrize("level", [1, -1])
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_graded_nilpotent_factor_matches_the_standard_route(rng, level, scale):
    # n' from the cached graded generators against the per-call generators
    # taken into graded coordinates; the entries are quartic in the
    # parameters, so the gap is rounding of order eps |n'|
    bound = (4 if scale < 1 else 64) * EPS
    for _ in range(20):
        x, p = random_oct(rng, scale), random_imag(rng, scale)
        want = dc._V_INV @ lg._exp_N_matrix(level, x, p) @ dc._V
        got = lg._graded_exp_N(level, x, p)
        assert np.max(np.abs(got - want)) <= bound * max(1.0, np.max(np.abs(want)))
        # diagonal blocks exactly I and the blocks on the far side of the
        # diagonal exactly 0, which the V^-1 (.) V conversion gives only to
        # rounding
        for i, bi in enumerate(dc._BLOCKS):
            assert np.array_equal(got[bi, bi], np.eye(bi.stop - bi.start))
            for bj in dc._BLOCKS[:i] if level == 1 else dc._BLOCKS[i + 1:]:
                assert not got[bi, bj].any()


def test_factorizations_build_no_nilpotent_generator(rng, monkeypatch):
    # n and z come from the cached graded generators; after one warm call no
    # factorization forms a generator from octonion products
    g = eval_word(parse("A3(0.3;1)*G1(0.2e1-0.1e3)*A1(0.2;e2)*G2(0.3e4)"))
    closed = dc.closed_cell_rep() @ random_m(rng) @ lg.exp_A(3, 0.4, 1.0)
    closed = closed @ lg.exp_N(1, random_oct(rng), random_imag(rng))
    dc.gauss(g)

    def refuse(*_):
        raise AssertionError("nilpotent generator built on the factorization path")

    monkeypatch.setattr(lg, "_gen_G1_matrix", refuse)
    monkeypatch.setattr(lg, "_gen_G2_matrix", refuse)
    dc.iwasawa(g)
    dc.keps_iwasawa(g)
    assert dc.matsuki(g).cell == "Open"
    assert dc.matsuki(closed).cell == "Closed"
    dc.gauss(g)


def test_iwasawa_known_answers(rng):
    # g = k a_t n from known factors; k is built from elements that fix E1
    refused = 0
    for _ in range(100):
        t = rng.uniform(-6.0, 6.0)
        x, p = random_oct(rng), random_imag(rng)
        x = Octonion(x.coeffs * rng.uniform(0.0, 1.0) / x.norm())
        p = Octonion(p.coeffs * rng.uniform(0.0, 1.0) / p.norm())
        u = random_oct(rng)
        k = lg.exp_A(1, rng.uniform(-3.0, 3.0), random_unit(rng))
        k = k @ lg.d4_rotate(int(rng.integers(1, 4)), u, Octonion(np.roll(u.coeffs, 3)))
        if rng.integers(2):
            k = k @ lg.sigma(1)
        g = k @ lg.exp_A(3, t, 1.0) @ lg.exp_N(1, x, p)
        # rounding g alone moves the factors by up to about eps |g|^2
        kappa = max(1.0, g.opnorm**2)
        try:
            f = dc.iwasawa(g)
        except lg.VerificationError:
            # a refusal is a defect unless that rounding nears the gate
            assert EPS * kappa >= 1e-9
            refused += 1
            continue
        assert abs(f.t - t) <= 1e-11 * kappa
        assert np.max(np.abs(f.n.x.coeffs - x.coeffs)) <= 1e-11 * kappa
        assert np.max(np.abs(f.n.p.coeffs - p.coeffs)) <= 1e-11 * kappa
        assert np.max(np.abs(f.k.mat - k.mat)) <= 1e-11 * kappa
    assert refused <= 25


@pytest.mark.parametrize("t", [5.0, 6.0, 7.0, 8.0, 9.0])
def test_iwasawa_factors_large_boosts(t):
    f = dc.iwasawa(lg.exp_A(3, t, 1.0))
    assert abs(f.t - t) <= 1e-12 * t
    assert f.n.norm() <= 1e-12
    assert np.max(np.abs(f.k.mat - np.eye(27))) <= 1e-12


def _keps_bound(g, n, t):
    """u |g|_2 |n^-1| e^(2|t|), keps_iwasawa's a-priori bound on k_eps,
    formed from known factors."""
    n_inv = np.abs(lg._adjoint(n.mat))
    n_inv_norm = math.sqrt(n_inv.sum(axis=0).max() * n_inv.sum(axis=1).max())
    return 0.5 * EPS * g.opnorm * n_inv_norm * math.exp(2.0 * abs(t))


def test_keps_and_matsuki_known_answers(rng):
    # g = k_eps a_t n from known factors. Both calls return them within a
    # small multiple of the a-priori bound on k_eps, or refuse
    factored = 0
    for _ in range(200):
        t = rng.uniform(-12.0, 12.0)
        x, p = random_oct(rng), random_imag(rng)
        x = Octonion(x.coeffs * 10.0 ** rng.uniform(-3.0, 3.0) / x.norm())
        p = Octonion(p.coeffs * 10.0 ** rng.uniform(-3.0, 3.0) / p.norm())
        k, n = random_keps(rng), lg.exp_N(1, x, p)
        try:
            g = lg.GroupElement(k.mat @ lg.exp_A(3, t, 1.0).mat @ n.mat)
        except lg.VerificationError:
            # the rounded product is not an automorphism at tolerance
            continue
        bound = _keps_bound(g, n, t)
        try:
            f = dc.keps_iwasawa(g)
        except dc.DegenerateCell:
            # a refusal is a defect unless the bound nears its 1e-8 threshold
            assert bound >= 1e-9
            with pytest.raises((dc.DegenerateCell, dc.ShapeViolation)) as info:
                dc.matsuki(lg.GroupElement(g.mat))
            if info.type is dc.ShapeViolation:
                # the cell value is lost in the rounding of g P_MINUS and
                # reads as closed, whose shape test then fails
                assert dc.matsuki_classify(g) == "ClosedCell"
            continue
        # a fresh element, so matsuki does not reuse keps_iwasawa's result
        h = dc.matsuki(lg.GroupElement(g.mat))
        assert h.cell == "Open"
        for got in (f, h):
            assert abs(got.t - t) <= 64 * bound
            assert np.max(np.abs(got.n.x.coeffs - x.coeffs)) <= 64 * bound
            assert np.max(np.abs(got.n.p.coeffs - p.coeffs)) <= 64 * bound
            assert np.max(np.abs(got.k_eps.mat - k.mat)) <= 64 * bound
        factored += 1
    assert factored >= 15


@pytest.mark.parametrize("op", ["keps_iwasawa", "matsuki"])
def test_boost_sweep_has_no_wrong_answer(op):
    # A3(t;1) for t = -30 ... 30 in steps of 0.25 is k_eps a_t n with
    # k_eps = I and n = I: each call returns those factors or refuses
    right = []
    for i in range(241):
        t = -30.0 + 0.25 * i
        g = eval_word(parse(f"A3({t!r};1)"))
        try:
            f = getattr(dc, op)(g)
        except (dc.DegenerateCell, dc.ShapeViolation):
            continue
        assert getattr(f, "cell", "Open") == "Open"
        assert abs(f.t - t) <= 1e-8 and f.n.norm() <= 1e-8
        assert np.max(np.abs(f.k_eps.mat - np.eye(27))) <= 1e-8
        right.append(t)
    # the a-priori bound reaches 1e-8 between |t| = 4.5 and 4.75
    assert right == [0.25 * i for i in range(-18, 19)]


def _assert_same_keps(f, h):
    assert np.array_equal(f.k_eps.mat, h.k_eps.mat)
    assert (f.t, f.residual) == (h.t, h.residual)
    assert np.array_equal(f.n.x.coeffs, h.n.x.coeffs)
    assert np.array_equal(f.n.p.coeffs, h.n.p.coeffs)


def test_matsuki_shares_the_keps_factors():
    g = eval_word(parse("A1(0.3;e2)*G1(0.1e1-0.2e3)*Gm2(0.2e5)"))
    f = dc.matsuki(g)
    assert f.cell == "Open"
    h = dc.keps_iwasawa(g)
    assert h.k_eps is f.k_eps
    _assert_same_keps(h, dc.keps_iwasawa(lg.GroupElement(g.mat)))


def test_keps_refusal_is_not_kept():
    g = eval_word(parse("A3(16;1)"))
    for _ in range(3):
        with pytest.raises(dc.DegenerateCell):
            dc.keps_iwasawa(g)
        with pytest.raises(dc.DegenerateCell):
            dc.matsuki(g)


def test_keps_factors_are_kept_per_element():
    g1 = eval_word(parse("A3(0.3;1)*G1(0.2e1-0.1e3)*A1(0.2;e2)"))
    g2 = eval_word(parse("Gm1(0.2e2+0.1e4)*A3(0.35;1)"))
    f1 = dc.keps_iwasawa(g1)
    f2 = dc.keps_iwasawa(g2)
    assert f2.t != f1.t
    _assert_same_keps(f2, dc.keps_iwasawa(lg.GroupElement(g2.mat)))
    # an element with the same matrix is another element: recomputed, equal
    same = lg.GroupElement(g1.mat)
    h = dc.keps_iwasawa(same)
    assert h is not f1
    _assert_same_keps(f1, h)
    m = dc.matsuki(g2)
    assert m.t == f2.t and np.array_equal(m.k_eps.mat, f2.k_eps.mat)


def _count_svd(monkeypatch):
    """Records every np.linalg.norm(., 2) call, the SVD operator norm."""
    calls = []
    real = np.linalg.norm

    def norm(m, ord=None):
        if ord == 2:
            calls.append(ord)
        return real(m, ord)

    monkeypatch.setattr(np.linalg, "norm", norm)
    return calls


def _ulps_around(x):
    return [x, np.nextafter(x, 0.0), np.nextafter(x, math.inf), np.nextafter(np.nextafter(x, 0.0), 0.0)]


# the torus element's largest column is well below its operator norm, so
# between the column bound and the SVD gate only the SVD decides
_BAND_ELEMENT = lg.exp_A(3, 0.5, 1.0).mat


def test_certify_decides_like_the_svd_gate(monkeypatch):
    g = lg.GroupElement(_BAND_ELEMENT)
    exact = lg.GROUP_TOL * max(1.0, float(np.linalg.norm(_BAND_ELEMENT, 2)) ** 2)
    floor = lg._gate_floor(g._col_sq, lg.GROUP_TOL)
    assert floor < exact
    devs = _ulps_around(floor) + _ulps_around(exact) + [0.0, 0.5 * (floor + exact), 2 * exact]
    zero, target = np.zeros((27, 27)), JordanElement(np.eye(27)[4])
    calls = _count_svd(monkeypatch)
    for d in devs + [math.nan]:
        # the product of the parts is zero, so the residual is d exactly; the
        # fixed factor moves the unit target e_4 by d e_7, so it deviates by d
        mat, fixed = zero.copy(), np.eye(27)
        mat[3, 5] = fixed[7, 4] = d
        for args, passes in (
            ((np.eye(27), [], "", [zero], mat), lambda gate: d <= gate),
            ((fixed, [target], "fix", [zero], zero), lambda gate: lg._fixes(fixed, [target], gate)),
        ):
            calls.clear()
            try:
                dc._certify(*args, lg.GroupElement(_BAND_ELEMENT))
                got = True
            except lg.VerificationError:
                got = False
            assert got == passes(exact), d
            # the SVD is read only where the column bound does not pass
            assert len(calls) == (0 if passes(floor) else 1), d


def test_keps_bound_decides_like_the_svd_bound(monkeypatch):
    u, cap = dc._UNIT_ROUNDOFF, dc._KEPS_BOUND
    sigma = float(np.linalg.norm(_BAND_ELEMENT, 2))
    frob = float(np.linalg.norm(_BAND_ELEMENT))

    def svd_bound(*factors):
        out = u * sigma
        for f in factors:
            out *= f
        return out

    scales = _ulps_around(cap / (u * sigma)) + _ulps_around(cap / (u * frob * (1 + 1e-12)))
    scales.append(cap / (u * math.sqrt(sigma * frob)))
    cases = [(s,) for s in scales] + [(s / 3, 3.0) for s in scales] + [(1.0,), (1e30,)]
    calls = _count_svd(monkeypatch)
    decided_by_svd = 0
    for factors in cases:
        calls.clear()
        got = dc._keps_bound(lg.GroupElement(_BAND_ELEMENT), *factors)
        want = svd_bound(*factors)
        assert (got < cap) == (want < cap), factors
        if not want < cap:
            assert got == want  # refusals name the SVD bound
        decided_by_svd += len(calls) == 1 and want < cap
    assert decided_by_svd > 0


def _factor_outcomes(word):
    """Each factorization of a fresh element of the word: its factors' bits, or
    its refusal."""
    g = eval_word(parse(word))
    out = []
    for op in (dc.iwasawa, dc.keps_iwasawa, dc.matsuki, dc.gauss):
        try:
            f = op(lg.GroupElement(g.mat))
        except ValueError as exc:
            out.append((type(exc).__name__, str(exc)))
            continue
        mats = [getattr(f, name).mat.tobytes() for name in ("k", "k_eps", "m") if hasattr(f, name)]
        out.append((mats, f.t, f.residual, f.n.x.coeffs.tobytes(), f.n.p.coeffs.tobytes()))
    return out


def test_factorizations_decide_as_with_the_svd_gate(monkeypatch):
    # across the keps refusal edge, where the Frobenius bound fails and the
    # SVD decides at t = 4.29 and 4.366, and for closed-cell and gauss words
    words = [f"G1(0.2e2)*A3({t!r};1)*A1(0.3;e1)" for t in (4.25, 4.29, 4.3, 4.366, 4.4, -4.5)]
    words += [f"A3({t!r};1)" for t in (4.5, 4.75, -4.75, 16.0)]
    words += ["A3(0.3;1)*G1(0.2e1-0.1e3)*A1(0.2;e2)", "A1(-1.5707963267948966;1)*A3(0.2;1)",
              "Gm1(0.2e2+0.1e4)*A3(0.35;1)", "S1*A3(-0.1;1)*G2(0.1e6)", DEEP_GAUSS_WORD]
    fast = [_factor_outcomes(w) for w in words]
    calls = _count_svd(monkeypatch)
    for word in words[1], words[3]:
        g = lg.GroupElement(eval_word(parse(word)).mat)
        calls.clear()
        dc.keps_iwasawa(g)
        assert calls, word
    # every test at the SVD gate and the SVD bound alone
    monkeypatch.setattr(lg, "_gate_floor", lambda col_sq, tol: 0.0)
    monkeypatch.setattr(dc, "_norm", lambda m: math.inf)
    assert fast == [_factor_outcomes(w) for w in words]
    refused = [r for outcomes in fast for r in outcomes if isinstance(r[0], str)]
    assert 0 < len(refused) < 4 * len(words)


def test_factorizations_of_benchmark_words_take_no_svd(monkeypatch):
    words = [
        "A3(0.3;1)*G1(0.2e1)*G2(0.1e3)*S1*A1(0.2;e2)",
        "Gm1(0.3-0.1e2+0.2e5)*G1(0.1+0.2e3-0.1e7)*Gm2(0.15e4)",
        "A2(0.1;0.6+0.8e3)*D4(2,e1+e2,e3-e5)*A3(0.08;1)*G2(0.1e1-0.2e6)",
        "G1(0.15-0.14e1+0.17e4)*G2(-0.04e1-0.25e3+0.11e7)*S3",
    ]
    elements = [eval_word(parse(w)) for w in words]
    calls = _count_svd(monkeypatch)
    for g in elements:
        dc.iwasawa(g)
        dc.keps_iwasawa(g)
        dc.gauss(g)
    assert calls == []


def test_iwasawa_n_matches_the_pairing_route(rng):
    # the parameters of n from the pairings of X = g^-1 E1
    for _ in range(20):
        g = random_group(rng)
        want = dc.n_pair(JordanElement(np.linalg.solve(g.mat, E1.vec)))
        got = dc.iwasawa(g).n
        scale = max(1.0, want.norm())
        assert np.max(np.abs(got.x.coeffs - want.x.coeffs)) <= 1e-12 * scale
        assert np.max(np.abs(got.p.coeffs - want.p.coeffs)) <= 1e-12 * scale


def test_gauss_z_matches_the_pairing_route(rng):
    # z_of_X gives the lower nilpotent factor moving g P_MINUS onto the base
    # ray, the inverse of z; the graded pivot is a quarter of the cell value
    checked = 0
    for _ in range(20):
        g = random_group(rng)
        if dc.bruhat_classify(g) != "OpenCell":
            continue
        try:
            got = dc.gauss(g).z
        except dc.DegenerateCell:
            # classified open but too near the boundary to factor at tolerance
            continue
        want = dc.z_of_X(JordanElement(g.mat @ P_MINUS.vec))
        scale = max(1.0, want.norm())
        assert np.max(np.abs(got.x.coeffs + want.x.coeffs)) <= 1e-12 * scale
        assert np.max(np.abs(got.p.coeffs + want.p.coeffs)) <= 1e-12 * scale
        _, val, _ = dc._cells(g.mat @ P_MINUS.vec)
        pivot = (dc._V_INV @ g.mat @ dc._V)[0, 0]
        assert abs(pivot - 0.25 * val) <= 1e-15 * abs(val)
        checked += 1
    assert checked >= 10


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
        # one decision: the Matsuki cell of g is the K_eps-orbit of g P_MINUS
        cell = "OpenCell" if label == "P12orbit" else "ClosedCell"
        assert dc.matsuki_classify(g) == cell
        assert dc.matsuki(g).cell + "Cell" == cell
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


def test_flag_classify_keps_verifies_its_witness_once(rng, monkeypatch):
    # the witness is formed from plain matrices and verified on return only
    real, calls = lg.verify, []
    monkeypatch.setattr(lg, "verify", lambda m: calls.append(1) or real(m))
    words = ["S1", "A1(-1.5707963267948966;1)*G1(0.2e1)", "A2(0.3;e2)*A3(0.2;1)*G1(0.1e3)"]
    gs = [eval_word(parse(w)) for w in words] + [random_group(rng) for _ in range(5)]
    for g in gs:
        calls.clear()
        dc.flag_classify_keps(JordanElement(g.mat @ P_MINUS.vec))
        assert len(calls) == 1


def test_flag_classify_nminus_matches_bruhat(rng):
    # the label is one of the ray, so it does not depend on the scale of X
    for _ in range(20):
        g = random_group(rng)
        X = JordanElement(g.mat @ P_MINUS.vec)
        cell = dc.bruhat_classify(g)
        for s in (1.0, 1e-6, 1e-10, 1e-12):
            label = dc.flag_classify_nminus(s * X)
            assert (label == "P-orbit") == (cell == "OpenCell")
    # P_MINUS spans the base ray, inside the dense orbit, at every scale
    assert dc.flag_classify_nminus(1e-10 * P_MINUS) == "P-orbit"
    assert dc.flag_classify_nminus(1e-9 * (SIGMA_P_MINUS + 1e-3 * P_MINUS)) == "P-orbit"
    assert dc.flag_classify_nminus(1e-9 * SIGMA_P_MINUS) == "SigmaP-orbit"


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


# The A3(t;1) census: t = -30..30 in steps of 0.25. Each word is a_t, whose
# factors are known in closed form: t itself, k = k_eps = m = I and z = n = 0.
# g P^- = e^(2t) P^- lies in both open cells, so both cell labels are OpenCell.
CENSUS_T = np.arange(-120, 121) / 4.0


def census_wrong(op):
    """The sweep's t at which op returns an answer off by more than 1e-6, or
    a cell label other than OpenCell."""
    wrong = []
    for t in CENSUS_T:
        try:
            f = getattr(dc, op)(eval_word(parse(f"A3({t:g};1)")))
        except (dc.DegenerateCell, dc.ShapeViolation, lg.VerificationError):
            continue
        if isinstance(f, str):
            right = f == "OpenCell"
        else:
            units = [getattr(f, name) for name in ("k", "k_eps", "m") if hasattr(f, name)]
            zeros = [getattr(f, name) for name in ("z", "n") if hasattr(f, name)]
            right = (
                abs(f.t - t) <= 1e-6
                and getattr(f, "cell", "Open") == "Open"
                and all(np.max(np.abs(u.mat - np.eye(27))) <= 1e-6 for u in units)
                and all(params.norm() <= 1e-6 for params in zeros)
            )
        if not right:
            wrong.append(float(t))
    return wrong


def _census_xfail(op, reason):
    return pytest.param(
        op, marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)
    )


@pytest.mark.parametrize(
    "op",
    [
        "iwasawa",
        "keps_iwasawa",
        "matsuki",
        _census_xfail(
            "gauss", "ROADMAP item 1: gauss returns 24 wrong answers at t = -17.5..-6.25"
        ),
        # the cell value falls below g's rounding, about eps e^(4|t|) relative
        _census_xfail(
            "matsuki_classify",
            "ROADMAP item 1 step 2: matsuki_classify returns ClosedCell at all 82 points "
            "t = -30..-9.75",
        ),
        _census_xfail(
            "bruhat_classify",
            "ROADMAP item 1 step 2: bruhat_classify returns ClosedCell at 36 points "
            "in t = -29.5..-9.75",
        ),
    ],
)
def test_a3_census_has_no_wrong_answer(op):
    assert census_wrong(op) == []


def test_cli_classify_census_is_right_or_refused(capsys):
    # the CLI's classify decides on the orbit of g P^- and refuses where the
    # element labels above answer wrongly
    outcomes = collections.Counter()
    for t in CENSUS_T:
        code = cli.main(["classify", "--word", f"A3({t:g};1)"])
        out, err = capsys.readouterr()
        if code == 0:
            labels = json.loads(out)
            assert (labels["bruhat"], labels["matsuki"]) == ("open", "open"), t
            outcomes["right"] += 1
        else:
            assert code == 1, t
            outcomes[json.loads(err)["error"]] += 1
    assert outcomes == {"right": 144, "ValueError": 83, "ShapeViolation": 14}
