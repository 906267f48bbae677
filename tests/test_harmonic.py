"""Tests for the radial spectral functions.

The c-function quadrature is checked against the Gamma ratio, the
spherical function against mpmath's hypergeometric function, against the
c-function through its asymptotics, and against a seeded Monte Carlo
evaluation of the defining integral with delta-method error bars.
"""

import cmath
import math
import warnings

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


@pytest.mark.parametrize(
    ("x", "p", "t", "want"),
    [
        (0.0, 0.0, 200.0, 200.0),  # (e^{2t})^2 overflows from t = 178
        (1e150, 0.0, 0.0, 690.7755278982137),  # |x|^4 overflows
        (1e200, 0.0, 0.0, 921.0340371976183),  # |x|^2 overflows
        (0.0, 1e160, 0.0, 369.10676205960726),  # |p|^2 overflows
        (0.7, 0.3, 1.2, 1.2448482560471723),
    ],
)
def test_h_radial_in_logs(x, p, t, want):
    # the values are 50-digit mpmath rounded to double; x is real, p along e1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ha.H_nbar(x * Octonion.one(), p * Octonion.unit(1), t)
    assert abs(got - want) <= 1e-15 * want


def test_h_radial_takes_exp_N_parameters_only():
    # H_nbar is the Iwasawa projection of a_t exp_N(-1, x, p), so it refuses
    # the p that exp_N refuses, with the same message
    p = Octonion(1e-10 * Octonion.one().coeffs + 1e3 * Octonion.unit(1).coeffs)
    with pytest.raises(ValueError) as want:
        lg.exp_N(-1, Octonion.zero(), p)
    for call in (lambda: ha.H_nbar(Octonion.zero(), p, 0.5),
                 lambda: ha.exp_lambda_H(Octonion.zero(), p, 2.0)):
        with pytest.raises(ValueError) as got:
            call()
        assert str(got.value) == str(want.value) == "parameter must be imaginary, got re = 1e-10"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_h_radial_refuses_non_finite_input(bad):
    # refused up front, with no numpy warning on the way
    # (x, p, and a shift s added to both t = 0 and lambda = 2)
    zero, e1 = Octonion.zero(), Octonion.unit(1)
    cases = [(Octonion([bad] + [0.0] * 7), e1, 0.0), (zero, Octonion([bad, 1.0] + [0.0] * 6), 0.0),
             (zero, Octonion([0.0, bad] + [0.0] * 6), 0.0), (zero, e1, bad)]
    with np.errstate(all="raise"):
        for x, p, s in cases:
            with pytest.raises(ValueError, match="H_nbar needs finite x, p and t"):
                ha.H_nbar(x, p, s)
            with pytest.raises(ValueError, match="exp_lambda_H needs finite x, p and lambda"):
                ha.exp_lambda_H(x, p, 2.0 + s)


def test_root_normalization():
    assert abs(ha.alpha_norm() - 1.0 / 72.0) <= 1e-15
    assert ha.RHO_ALPHA == 22.0
    assert (ha.M_ALPHA, ha.M_2ALPHA) == (8, 7)


def test_killing_structure_matches_trace(rng):
    basis = lg.basis52()
    for _ in range(10):
        c = rng.standard_normal(52)
        mat = sum(ci * b.mat for ci, b in zip(c, basis))
        phi = lg.AlgebraElement(mat)
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


@pytest.mark.parametrize(
    ("x", "p", "la", "want", "rel"),
    [
        # the values are 50-digit mpmath rounded to double; x is real, p
        # along e1. The exponent lambda H / 2 (690.8, 46.1, 18.4) amplifies
        # the rounding of H by as much
        (1e150, 0.0, 2.0, 9.999999999999999e299, 1e-13),  # |x|^4 overflows
        (1e200, 0.0, 0.1, 1.0000000000000026e20, 1e-13),  # |x|^2 overflows
        (0.0, 1e160, 0.1, 103526492.38413785, 1e-13),  # |p|^2 overflows
        (0.7, 0.3, 1.5 + 0.5j, 1.4167995608125883 + 0.168650177337494j, 1e-12),
    ],
)
def test_exp_lambda_h_in_logs(x, p, la, want, rel):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ha.exp_lambda_H(x * Octonion.one(), p * Octonion.unit(1), la)
    assert abs(got - want) <= rel * abs(want)


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


def _c_gamma_mpmath(la: float):
    # 60-digit reference from mpmath's loggamma
    with mpmath.workdps(60):
        def log_ratio(x):
            x = mpmath.mpf(x)
            return (mpmath.loggamma(x / 2) + mpmath.loggamma((x + 8) / 4)
                    - mpmath.loggamma((x + 8) / 2) - mpmath.loggamma((x + 22) / 4))
        return mpmath.exp(log_ratio(la) - log_ratio(22))


@pytest.mark.parametrize("la", [1e4, 1e5, 1e6])
def test_c_gamma_within_its_error_bound(la):
    # four log-Gammas of size about la log la cancel to about -4 log la; eps
    # times their summed size bounds the relative error
    got = ha.c_gamma(la)
    want = _c_gamma_mpmath(la)
    bound = ha._EPS * float(ha._log_gamma_ratio(complex(la))[1])
    assert bound < 1e-8
    assert abs(got.real - want) <= bound * want
    assert got.imag == 0.0


@pytest.mark.parametrize("la", [1e7, 1e10, 1e17, -1e7 + 0.5, 3.0 + 1e8j])
def test_c_gamma_refuses_where_rounding_swamps_it(la):
    # at 1e17 the sum of the logs rounded to 0: the value was 4.66e7, not 3.0e-117
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ha.NonConvergent, match="error bound"):
            ha.c_gamma(la)


@pytest.mark.parametrize("la", [1e308, complex(22.0, 1e300)])
def test_c_gamma_past_double_range_overflows(la):
    # refused without a floating-point warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="past double range"):
            ha.c_gamma(la)


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
    # Re lambda > 0, but (lambda+8)/2 rounds to 4, where the integral diverges
    with pytest.raises(ValueError, match=r"lambda=\(1e-300\+0j\)"):
        ha.c_quadrature(1e-300)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(1.0, math.nan),
                                 complex(math.inf, 1.0)])
def test_c_function_refuses_non_finite_lambda(bad):
    # refused up front, with no numpy warning on the way
    with np.errstate(all="raise"):
        with pytest.raises(ValueError, match="c-function needs finite lambda"):
            ha.c_gamma(bad)
        with pytest.raises(ValueError, match="c-function quadrature needs finite lambda"):
            ha.c_quadrature(bad)
        with pytest.raises(ValueError, match="c-function quadrature needs finite lambda"):
            ha.c_quadrature_with_error(bad)


@pytest.mark.parametrize("la", [0.5 + 5j, 0.25 + 1j, 0.25 + 12j, 0.5 + 4j, 0.5 + 6j])
def test_c_quadrature_near_imaginary_axis(la):
    # the tan-compactified quadrature raised NonConvergent at these points
    want = ha.c_gamma(la)
    got, err = ha.c_quadrature_with_error(la)
    assert abs(got - want) <= 1e-10 * abs(want)
    assert abs(got - want) <= err


def test_c_quadrature_node_cap():
    # near lambda = 0 the t integrand decays like e^{-lambda s}: at 0.001 the
    # sums cannot agree within the fixed node cap, at 0.03 they still do
    with pytest.raises(ha.NonConvergent, match="within 16384 nodes"):
        ha.c_quadrature(0.001)
    want = ha.c_gamma(0.03)
    got, err = ha.c_quadrature_with_error(0.03)
    assert abs(got - want) <= 1e-6 * abs(want)
    assert abs(got - want) <= err


@pytest.mark.parametrize(
    "la", [5e307, 1.7e308, 1 + 1.7e308j, 3e307 + 3e307j, 2e307, 1 + 1e308j, 0.008]
)
def test_c_quadrature_refuses_a_span_past_the_node_cap(la):
    # the first trapezoid span overflows, or needs more nodes than the cap
    # leaves for a comparison (0.008 would sum 15792 nodes for nothing); it
    # is refused before its node count is taken
    with pytest.raises(ha.NonConvergent, match="within 16384 nodes"):
        ha.c_quadrature(la)


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


@pytest.mark.parametrize("la,t", [(500.0, 2.0), (700.0, 1.5), (1500.0, 0.8)])
def test_spherical_in_range_past_series_overflow(la, t):
    # phi is within double range, but the Pfaff series' plain terms
    # overflow before they converge (phi_500(2) = 2.05e198)
    got, err = ha.spherical_with_error(la, t)
    want = jacobi_reference(la, t)
    assert abs(got - want) <= 1e-10 * abs(want)
    assert abs(got - want) <= err


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
