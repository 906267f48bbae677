"""Tests for the radial spectral functions.

The c-function quadrature is checked against the Gamma ratio, the
spherical function against mpmath's hypergeometric function, against the
c-function through its asymptotics, and against a seeded Monte Carlo
evaluation of the defining integral with delta-method error bars.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest

from conftest import random_imag, random_oct
from f4decomp import harmonic as ha
from f4decomp import liegroup as lg
from f4decomp.octonion import Octonion

# closed-form values of the normalized density denominator
C_EXACT = {
    2.0: 21504.0,
    4.0: 4194304.0 / (495.0 * math.pi),
    6.0: 1792.0 / 3.0,
    10.0: 64.0,
    22.0: 1.0,
}


def test_h_radial_anchors():
    zero = Octonion.zero()
    assert ha.H_nbar(zero, zero) == 0.0
    assert abs(ha.H_nbar(Octonion.one(), zero) - math.log(2.0)) <= 1e-15
    assert abs(ha.H_nbar(zero, Octonion.unit(1)) - 0.5 * math.log(5.0)) <= 1e-15


def test_h_radial_shift(rng):
    x, p = random_oct(rng, 0.6), random_imag(rng, 0.6)
    t = 0.3
    expect = 0.5 * (
        -2.0 * t + math.log((math.exp(2.0 * t) + x.norm_sq()) ** 2 + 4.0 * p.norm_sq())
    )
    assert abs(ha.H_nbar(x, p, t) - expect) <= 1e-14


def test_root_normalization():
    assert abs(ha.alpha_norm() - 1.0 / 72.0) <= 1e-15
    assert ha.RHO_ALPHA == 22.0
    assert (ha.M_ALPHA, ha.M_2ALPHA) == (8, 7)


def test_killing_structure_matches_trace(rng):
    basis = lg.basis52()
    for _ in range(10):
        c = rng.standard_normal(52)
        mat = sum(ci * b.mat for ci, b in zip(c, basis))
        phi = lg.AlgebraElement(mat, check=False)
        lhs = ha.killing_structure(phi)
        rhs = lg.killing(phi, ha.sigma_twist(phi))
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_killing_anchor_both_routes():
    H = lg.gen_A(3, Octonion.one())
    assert abs(lg.killing(H, H) - 72.0) <= 1e-9
    assert abs(ha.killing_structure(H) + 72.0) <= 1e-9


def test_q_form_closed_forms(rng):
    for _ in range(20):
        x = random_oct(rng)
        p = random_imag(rng)
        qx = ha.q_form(lg.gen_G(-1, x))
        qp = ha.q_form(lg.gen_G(-2, p))
        assert abs(qx - 2.0 * x.norm_sq()) <= 1e-8 * max(1.0, x.norm_sq())
        assert abs(qp - 2.0 * p.norm_sq()) <= 1e-8 * max(1.0, p.norm_sq())


def test_exp_lambda_h_anchors():
    zero = Octonion.zero()
    got = ha.exp_lambda_H(Octonion.unit(2), zero, 2.0)
    assert abs(got - 2.0) <= 1e-12
    got = ha.exp_lambda_H(zero, Octonion.unit(1), 4.0)
    assert abs(got - 5.0) <= 1e-12


def test_exp_lambda_h_dual_route(rng):
    for _ in range(50):
        x = random_oct(rng, 0.7)
        p = random_imag(rng, 0.7)
        la = complex(3.0 * rng.standard_normal(), rng.standard_normal())
        lhs = ha.exp_lambda_H(x, p, la)
        rhs = cmath.exp(0.5 * la * ha.H_nbar(x, p))
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_c_gamma_exact_values():
    for la, want in C_EXACT.items():
        got = ha.c_gamma(la)
        assert abs(got - want) <= 1e-12 * want
        assert abs(got.imag) <= 1e-12 * want


def _c_gamma_lgamma(la: float) -> float:
    # real-axis reference from math.lgamma, every argument positive
    def log_ratio(x):
        return (math.lgamma(x / 2) + math.lgamma((x + 8) / 4)
                - math.lgamma((x + 8) / 2) - math.lgamma((x + 22) / 4))
    return math.exp(log_ratio(la) - log_ratio(22.0))


@pytest.mark.parametrize("la", [250.0, 300.0, 1000.0])
def test_c_gamma_large_real_lambda(la):
    # the Gamma values themselves overflow here; their ratio does not
    got = ha.c_gamma(la)
    want = _c_gamma_lgamma(la)
    assert want > 0.0
    assert abs(got - want) <= 1e-12 * want
    assert got.imag == 0.0


def test_c_gamma_pole():
    with pytest.raises(ha.PoleError):
        ha.c_gamma(0.0)
    with pytest.raises(ha.PoleError):
        ha.c_gamma(-8.0)


def test_c_quadrature_matches_gamma():
    for la in (2.0, 6.0, 22.0, 3.0 + 1.5j):
        want = ha.c_gamma(la)
        got, err = ha.c_quadrature_with_error(la)
        assert abs(got - want) <= 1e-6 * abs(want)
        assert err >= 0.0


def test_c_quadrature_domain():
    with pytest.raises(ValueError):
        ha.c_quadrature(-1.0)
    with pytest.raises(ValueError):
        ha.c_quadrature(2.0j)


def test_c_quadrature_refinement_non_increasing():
    spec = ha.QuadratureSpec(rel_tol=1e-4)
    _, e0 = ha.c_quadrature_with_error(5.0, spec)
    _, e1 = ha.c_quadrature_with_error(5.0, spec.refined())
    _, e2 = ha.c_quadrature_with_error(5.0, spec.refined().refined())
    assert e1 <= e0
    assert e2 <= e1


@pytest.mark.parametrize("la", [0.5 + 5j, 0.25 + 1j, 0.25 + 12j, 0.5 + 4j, 0.5 + 6j])
def test_c_quadrature_near_imaginary_axis(la):
    # the tan-compactified quadrature raised NonConvergent at these points
    want = ha.c_gamma(la)
    got, err = ha.c_quadrature_with_error(la)
    assert abs(got - want) <= 1e-10 * abs(want)
    assert abs(got - want) <= err


def test_c_quadrature_node_cap():
    with pytest.raises(ha.NonConvergent):
        ha.c_quadrature(0.5 + 5j, ha.QuadratureSpec(max_panels=50))


def test_spectral_param():
    par = ha.SpectralParam(6.0)
    assert par.a + par.b == 11.0
    assert ha.SpectralParam.rho().lambda_alpha == 22.0


def test_spherical_at_origin():
    for la in (0.0, 2.0, 7.5, 22.0, 4.0 + 2.0j):
        assert abs(ha.spherical(la, 0.0) - 1.0) <= 1e-6


def test_spherical_at_rho_is_constant():
    # the integrand kernel drops out at the distinguished parameter
    for t in (0.0, 0.4, 1.1):
        assert abs(ha.spherical(22.0, t) - 1.0) <= 1e-10


def test_spherical_domain():
    with pytest.raises(ValueError):
        ha.spherical(-2.0, 0.5)


@pytest.mark.parametrize("la,t", [(1000.0, 2.5), (1000.0, 2.0), (2000.0, 1.0)])
def test_spherical_past_double_range_overflows(la, t):
    # phi is past double range here; at t <= 2 its series terms overflow
    # first, which must not read as a slow series
    with pytest.raises(OverflowError):
        ha.spherical(la, t)


def jacobi_reference(la, t):
    """phi_la(t) = 2F1((22+la)/4, (22-la)/4; 8; -sinh^2 t) in mpmath."""
    with mpmath.workdps(30):
        la = mpmath.mpc(la)
        z = -mpmath.sinh(mpmath.mpf(t)) ** 2
        return complex(mpmath.hyp2f1((22 + la) / 4, (22 - la) / 4, 8, z))


GRID_T = (0.0, 0.5, 1.5, 2.0, 3.0, 5.0, 8.0, 12.0)
GRID_LAMBDA = (
    0.0, 2.0, 2.0 + 1e-7, 2.0 - 1e-7, 4.0, 6.0, 10.0, 22.0, 40.0,
    4.0 + 2.0j, 2.0 + 8.0j, 0.25 + 12.0j, 22.0 + 8.0j,
)


@pytest.mark.parametrize("t", GRID_T)
def test_spherical_matches_jacobi_form(t):
    # error relative to phi_{Re la}(t), which bounds |phi_la(t)|; the
    # reported error must bound the actual one
    for la in GRID_LAMBDA:
        got, err = ha.spherical_with_error(la, t)
        want = jacobi_reference(la, t)
        scale = abs(jacobi_reference(complex(la).real, t))
        assert abs(got - want) <= 1e-10 * scale, (la, t)
        assert abs(got - want) <= err, (la, t)
        assert ha.spherical(la, 0.0) == 1.0
    assert abs(ha.spherical(22.0, t) - 1.0) <= 1e-10


def test_spherical_near_lambda_3_26_at_t_3():
    # the 2-D quadrature missed its tolerance by 3.5e-6 in this window
    for la in np.linspace(3.2585, 3.2615, 7):
        want = jacobi_reference(la, 3.0)
        assert abs(ha.spherical(la, 3.0) - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("la", [2.0, 6.0, 10.0])
def test_spherical_asymptotics_give_c_gamma(la):
    # phi_la(t) e^{(22-la) t/2} -> c(la) as t grows
    want = ha.c_gamma(la)
    rel = [
        abs(ha.spherical(la, t) * math.exp((22.0 - la) * t / 2.0) / want - 1.0)
        for t in (6.0, 8.0)
    ]
    assert rel[1] < rel[0]
    assert rel[1] <= 1e-4


def mc_spherical(la, t, n=300_000, seed=23):
    """Monte Carlo evaluation of the radial eigenfunction integral on the
    tan-compactified box, with a delta-method standard error for the ratio."""
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 0.5 * math.pi, n)
    psi = rng.uniform(0.0, 0.5 * math.pi, n)
    r = np.tan(theta)
    s = np.tan(psi)
    w = r**7 * s**6 * (1.0 + r**2) * (1.0 + s**2)
    k0 = (1.0 + r**2) ** 2 + 4.0 * s**2
    kt = (math.exp(2.0 * t) + r**2) ** 2 + 4.0 * s**2
    a = (22.0 + la) / 4.0
    b = (22.0 - la) / 4.0
    log_num = np.log(w) + 2.0 * b * t - b * np.log(kt) - a * np.log(k0)
    log_den = np.log(w) - 11.0 * np.log(k0)
    num = np.exp(log_num)
    den = np.exp(log_den)
    nbar, dbar = num.mean(), den.mean()
    phi = nbar / dbar
    cov = np.cov(num, den)
    var = (cov[0, 0] - 2.0 * phi * cov[0, 1] + phi**2 * cov[1, 1]) / (n * dbar**2)
    return phi, math.sqrt(max(var, 0.0))


@pytest.mark.parametrize("la,t", [(2.0, 0.7), (10.0, 1.1)])
def test_spherical_against_monte_carlo(la, t):
    got = ha.spherical(la, t)
    est, sem = mc_spherical(la, t)
    assert abs(got - est) <= 5.0 * sem


def test_quadrature_spec_refined_caps_panels():
    spec = ha.QuadratureSpec(rel_tol=1e-6, max_panels=800)
    assert spec.refined().max_panels == 1000
    assert spec.refined().rel_tol == 1e-7
