"""Radial harmonic analysis for the rank-one group of the library.

Closed form for the radial logarithm of a lower-triangular nilpotent
element, the Killing-form normalization of the restricted root, the
quadratic form on the nilpotent levels, the c-function both as a Gamma
ratio and by an independent trapezoidal quadrature, and the spherical
function as a Jacobi function: a hypergeometric series near the origin and
its connection formula, whose coefficient is the c-function, beyond.
Everything is plain numpy, including a complex log-Gamma.
"""

from __future__ import annotations

import cmath
import math
from functools import cache

import numpy as np

from . import liegroup as lg
from .jordan import E1, E2, E3
from .liegroup import AlgebraElement
from .octonion import Octonion

__all__ = [
    "M_ALPHA",
    "M_2ALPHA",
    "RHO_ALPHA",
    "PoleError",
    "NonConvergent",
    "H_nbar",
    "alpha_norm",
    "sigma_twist",
    "q_form",
    "killing_structure",
    "exp_lambda_H",
    "c_gamma",
    "c_quadrature",
    "c_quadrature_with_error",
    "spherical",
    "spherical_with_error",
]

# restricted-root multiplicities: 8 for the single root, 7 for its double
M_ALPHA = 8
M_2ALPHA = 7
RHO_ALPHA = float(M_ALPHA + 2 * M_2ALPHA)


class PoleError(ValueError):
    """A Gamma argument landed on a non-positive integer."""


class NonConvergent(RuntimeError):
    """A quadrature or a series could not reach its tolerance."""


@np.errstate(divide="ignore")  # log|x| = -inf at x = 0 drops out of the sums
def H_nbar(x: Octonion, p: Octonion, t: float = 0.0) -> float:
    """Radial logarithm of a_t times the lower nilpotent of data (x, p):
    -t + 1/2 log((e^{2t} + |x|^2)^2 + 4|p|^2), summed in logs, so no square
    overflows."""
    t = float(t)
    if not (np.isfinite(x.coeffs).all() and np.isfinite(p.coeffs).all() and math.isfinite(t)):
        raise ValueError("H_nbar needs finite x, p and t")
    lg._imO(p)
    log_a = np.logaddexp(2.0 * t, 2.0 * np.log(math.hypot(*x.coeffs)))
    log_2p = math.log(2.0) + np.log(math.hypot(*p.coeffs))
    return float(-t + 0.5 * np.logaddexp(2.0 * log_a, 2.0 * log_2p))


def sigma_twist(phi: AlgebraElement) -> AlgebraElement:
    """Conjugate a derivation by the order-two reflection of the first slot."""
    s = lg.sigma(1).mat
    return lg._derivation(s @ phi.mat @ s)


@cache
def alpha_norm() -> float:
    """Squared length of the restricted root in the Killing metric.

    The coroot direction H spans the split line and pairs to 1 with the
    root, so the dual element is H scaled by 1/B(H, H) and the squared
    length is the reciprocal of B(H, H).
    """
    h = lg.gen_A(3, Octonion.one())
    return 1.0 / lg.killing(h, h)


def q_form(phi: AlgebraElement) -> float:
    """Root-normalized twisted Killing square of a derivation."""
    return -alpha_norm() * lg.killing(phi, sigma_twist(phi))


def killing_structure(phi: AlgebraElement) -> float:
    """Twisted Killing square from the block data of the derivation.

    Any derivation splits into three rotation blocks D_i acting inside
    the off-diagonal slots plus three octonion directions a_i; the
    twisted pairing with its own reflection is
    -3 * sum_i (|D_i|_F^2 + 24 (a_i|a_i)).
    """
    m = phi.mat
    images = (m @ E3.vec, m @ E1.vec, m @ E2.vec)
    total = 0.0
    for img, sl in zip(images, lg._SLOTS):
        d = m[sl, sl]
        a = img[sl]
        total += float(np.sum(d * d)) + 24.0 * float(a @ a)
    return -3.0 * total


@np.errstate(divide="ignore")  # log 0 = -inf at x = 0 or p = 0 drops out of the sums
def exp_lambda_H(x: Octonion, p: Octonion, lam) -> complex:
    """Character value of the radial part of the lower nilpotent (x, p).

    Evaluates ((1 + Q(X)/2)^2 + 2 Q(Y))^(lambda_alpha/4) with X and Y the
    level -1 and level -2 generators of x and p. Q is quadratic, so it is
    taken on the unit directions, Q(X) = |x|^2 Q(X/|x|), and the base is
    summed in logs, as in H_nbar, so no square overflows.
    """
    la = complex(lam)
    if not (np.isfinite(x.coeffs).all() and np.isfinite(p.coeffs).all() and cmath.isfinite(la)):
        raise ValueError("exp_lambda_H needs finite x, p and lambda")
    lg._imO(p)
    nx, n_p = math.hypot(*x.coeffs), math.hypot(*p.coeffs)
    qx = q_form(lg.gen_G(-1, x / nx)) if nx > 0.0 else 0.0
    qy = q_form(lg.gen_G(-2, p / n_p)) if n_p > 0.0 else 0.0
    log_a = np.logaddexp(0.0, np.log(0.5 * qx) + 2.0 * np.log(nx))
    log_base = np.logaddexp(2.0 * log_a, np.log(2.0 * qy) + 2.0 * np.log(n_p))
    return cmath.exp(0.25 * la * float(log_base))


_EPS = float(np.finfo(float).eps)
# Stirling coefficients B_2k / (2k (2k-1)), k = 1..8: below 1e-20 at |z| >= 15
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)
_STIRLING = np.array([b / (2 * k * (2 * k - 1)) for k, b in enumerate(_BERNOULLI, 1)])
_STIRLING_POWERS = np.arange(1.0, 16.0, 2.0)


def _loggamma(z) -> np.ndarray:
    """log Gamma elementwise, up to an added multiple of 2 pi i (every caller
    exponentiates it). Arguments with Re z < 1/2 are reflected, those with
    |z| < 15 shifted up by 15, and the Stirling series finishes."""
    z = np.asarray(z, dtype=complex)
    reflect = z.real < 0.5
    w = np.where(reflect, 1.0 - z, z)
    small = np.abs(w) < 15.0
    shift = np.log(np.prod(w[..., None] + np.arange(15.0), axis=-1))
    w = np.where(small, w + 15.0, w)
    series = (w[..., None] ** -_STIRLING_POWERS) @ _STIRLING
    val = (w - 0.5) * np.log(w) - w + 0.5 * math.log(2.0 * math.pi) + series
    val = np.where(small, val - shift, val)
    if not reflect.any():
        return val
    # log sin(pi z) without overflow at large |Im z|: above the real axis
    # sin(pi z) = (i/2) e^{-i pi z} (1 - e^{2 i pi z}); below it, the conjugate
    u = np.where(z.imag < 0.0, z.conjugate(), z)
    log_sin = -1j * np.pi * u + np.log(0.5j) + np.log1p(-np.exp(2j * np.pi * u))
    log_sin = np.where(z.imag < 0.0, log_sin.conjugate(), log_sin)
    return np.where(reflect, math.log(math.pi) - log_sin - val, val)


def _log_gamma_ratio(la) -> tuple[np.ndarray, np.ndarray]:
    # log of Gamma(la/2) Gamma((la+8)/4) / (Gamma((la+8)/2) Gamma((la+22)/4))
    # elementwise, and the summed size of the four logs; at negative real
    # arguments the sign of Gamma sits in the imaginary part
    args = np.stack([la / 2.0, (la + M_ALPHA) / 4.0, (la + M_ALPHA) / 2.0, (la + RHO_ALPHA) / 4.0])
    nearest = np.round(args.real)
    pole = (np.abs(args.imag) < 1e-12) & (nearest <= 0.0) & (np.abs(args.real - nearest) < 1e-9)
    if pole.any():
        raise PoleError(f"gamma argument {args.real[pole][0]:g} is a non-positive integer")
    logs = _loggamma(args)
    return logs[0] + logs[1] - logs[2] - logs[3], np.abs(logs).sum(axis=0)


_LOG_GAMMA_RATIO_RHO = complex(_log_gamma_ratio(RHO_ALPHA)[0])
# the largest bound on its relative error at which c_gamma answers
_C_GAMMA_BOUND = 1e-8


def c_gamma(lam) -> complex:
    """c-function by the Gamma-ratio route, normalized to 1 at the half-sum.

    The ratio is formed in log space, so it stays finite where the Gammas
    themselves overflow; at real lambda the value is real. Its relative
    error is below eps times the summed size of the four log-Gammas; where
    that reaches 1e-8 (from about |lambda| = 2.5e6) it raises NonConvergent,
    and where the log ratio is not finite OverflowError.
    """
    la = complex(lam)
    if not cmath.isfinite(la):
        raise ValueError("c-function needs finite lambda")
    with np.errstate(over="ignore", invalid="ignore"):
        log_ratio, size = _log_gamma_ratio(la)
    log_ratio = complex(log_ratio)
    if not cmath.isfinite(log_ratio):
        raise OverflowError(f"c-function at lambda={la} is past double range")
    bound = _EPS * float(size)
    if not bound < _C_GAMMA_BOUND:
        raise NonConvergent(
            f"c-function at lambda={la}: error bound {bound:.3e} reaches {_C_GAMMA_BOUND:.0e}"
        )
    val = cmath.exp(log_ratio - _LOG_GAMMA_RATIO_RHO)
    return complex(val.real) if la.imag == 0.0 else val


# the trapezoid range leaves out tails below 1e-17 of the integrand's peak
_LOG_TAIL = math.log(1e-17)
# each radial integral stops where two trapezoid sums agree to _REL_TOL, and
# raises NonConvergent where that needs more than _MAX_NODES nodes
_REL_TOL = 1e-6
_MAX_NODES = 1 << 14
_NOT_CONVERGED = f"trapezoid sums did not agree to {_REL_TOL:g} within {_MAX_NODES} nodes"


def _power_integral(k: int, q: complex) -> tuple[complex, float]:
    # integral of u^k (1+u^2)^(-q) over [0, inf), with u = e^s the integral over
    # the line of f(s) = e^{alpha s} (1+e^{2s})^{-q}, alpha = k+1, whose modulus
    # is at most min(e^{alpha s}, e^{-beta s}), beta = 2 Re q - alpha
    alpha = k + 1.0
    beta = 2.0 * q.real - alpha  # callers keep it positive
    # the modulus peaks at e^{2s} = alpha/beta
    log_peak = 0.5 * alpha * math.log(alpha / beta) - q.real * math.log1p(alpha / beta)
    lo = (log_peak + _LOG_TAIL) / alpha
    hi = -(log_peak + _LOG_TAIL) / beta
    tail = math.exp(log_peak + _LOG_TAIL) * (1.0 / alpha + 1.0 / beta)
    # In the strip |Im s| < pi/4, |1+e^{2s}| >= 1 and |f| exceeds its modulus
    # on the line by at most 2^{Re q/2} e^{pi |Im q|/2}; the trapezoid rule's
    # error there falls like e^{-pi^2/(2h)} (Trefethen & Weideman 2014), which
    # sets a first step meeting _REL_TOL. Each halving reuses the nodes.
    growth = 0.5 * math.log(2.0) * q.real + 0.5 * math.pi * abs(q.imag)
    h = math.pi**2 / (2.0 * (growth - math.log(0.5 * _REL_TOL)))
    span = (hi - lo) / h
    # the first comparison takes 2 ceil(span) + 1 nodes; inf and NaN fail too
    if not span <= (_MAX_NODES - 1) // 2:
        raise NonConvergent(_NOT_CONVERGED)
    n = math.ceil(span)

    def f(s: np.ndarray) -> np.ndarray:
        return np.exp(alpha * s - q * np.logaddexp(0.0, 2.0 * s))

    total = h * np.sum(f(lo + h * np.arange(n + 1)))
    while 2 * n + 1 <= _MAX_NODES:
        fine = 0.5 * (total + h * np.sum(f(lo + h * (np.arange(n) + 0.5))))
        diff = abs(fine - total)
        if diff <= _REL_TOL * abs(fine):
            return complex(fine), diff + tail
        total, h, n = fine, 0.5 * h, 2 * n
    raise NonConvergent(_NOT_CONVERGED)


def c_quadrature_with_error(lam) -> tuple[complex, float]:
    """c-function by quadrature plus its propagated error estimate."""
    la = complex(lam)
    # written so that a NaN real part fails
    if not (cmath.isfinite(la) and la.real > 0.0):
        raise ValueError("c-function quadrature needs finite lambda, Re(lambda_alpha) > 0")
    qt = (la + M_ALPHA) / 2.0
    # the integral converges for Re lambda > 0, but (lambda+8)/2 can round that away
    if not 2.0 * qt.real > M_ALPHA:
        raise ValueError(f"c-function quadrature at lambda={la}: Re lambda is lost in (lambda+8)/2")
    ju, err_u = _power_integral(M_2ALPHA - 1, (la + RHO_ALPHA) / 4.0)
    jt, err_t = _power_integral(M_ALPHA - 1, qt)
    du, dt = _c_norm()
    val = (ju * jt) / (du * dt)
    err = abs(val) * (err_u / abs(ju) + err_t / abs(jt))
    return val, err


@cache
def _c_norm() -> tuple[complex, complex]:
    rho = complex(RHO_ALPHA)
    du, _ = _power_integral(M_2ALPHA - 1, (rho + RHO_ALPHA) / 4.0)
    dt, _ = _power_integral(M_ALPHA - 1, (rho + M_ALPHA) / 2.0)
    return du, dt


def c_quadrature(lam) -> complex:
    """c-function as the product of the two reduced radial integrals."""
    val, _ = c_quadrature_with_error(lam)
    return val


# every series term is a product of ratios of a few roundings each
_ROUNDOFF = 8.0 * _EPS
_MAX_TERMS = 1 << 17  # terms of all the series summed at once: 2 MB per array
_CIRCLE = np.exp(2j * np.pi * np.arange(32) / 32)


def _scaled_hyp2f1(expo, log_size, a, b, c, z: float) -> tuple[np.ndarray, np.ndarray]:
    """exp(expo) 2F1(a, b; c; z) for 0 <= z < 1, elementwise, and a bound on
    its error, given the size of the logs summed into expo.

    The term count starts from z and the parameter sizes and doubles until
    the remainder is below roundoff: for m >= n the ratio of consecutive
    terms is at most rho = z (1 + |a-1|/(n+1)) (1 + |b-c|/(Re c + n)), so
    the remainder is at most |last term| rho / (1 - rho).
    """
    a, b, c = (np.asarray(v, dtype=complex)[..., None] for v in (a, b, c))
    n = math.ceil((40.0 + float(np.max(np.abs(a) + np.abs(b)))) / -math.log(z)) if z else 1
    rows = np.broadcast(a, b, c).size
    while n * rows <= _MAX_TERMS:
        m = np.arange(n, dtype=float)
        terms = np.cumprod(z * (a + m) * (b + m) / ((c + m) * (m + 1.0)), axis=-1)
        mag = 1.0 + np.abs(terms).sum(axis=-1)
        last = np.abs(terms[..., -1])
        den = c.real[..., 0] + n
        rho = z * (1.0 + np.abs(a - 1.0)[..., 0] / (n + 1.0)) * (
            1.0 + np.abs(b - c)[..., 0] / np.where(den > 0.0, den, np.nan)
        )
        if np.all((rho < 1.0) & (last * rho <= _EPS * mag * (1.0 - rho))):
            pref = np.exp(expo)
            val = pref * (1.0 + terms.sum(axis=-1))
            tail = last * rho / (1.0 - rho)
            return val, np.abs(val) * _EPS * log_size + np.abs(pref) * (n * _ROUNDOFF * mag + tail)
        n *= 2
    raise NonConvergent(f"hypergeometric series needs more than {_MAX_TERMS // rows} terms")


def _log_hyp2f1(expo: float, a: float, b: float, c: float, z: float) -> tuple[float, float]:
    """exp(expo) 2F1(a, b; c; z) for 0 <= z < 1 and real parameters with
    every term positive, and a bound on its error.

    The terms come from the running sum of their log ratios, shifted by its
    maximum before exponentiating; past double range the value is inf.
    """
    m = np.arange(_MAX_TERMS, dtype=float)
    log_ratio = np.log(z * (a + m) * (b + m) / ((c + m) * (m + 1.0)))
    log_terms = np.cumsum(log_ratio)
    top = max(0.0, float(log_terms.max()))
    shifted = np.exp(log_terms - top)
    mag = math.exp(-top) + float(shifted.sum())
    n = _MAX_TERMS
    rho = z * (1.0 + abs(a - 1.0) / (n + 1.0)) * (1.0 + abs(b - c) / (c + n))
    if not (rho < 1.0 and shifted[-1] * rho <= _EPS * mag * (1.0 - rho)):
        raise NonConvergent(f"hypergeometric series needs more than {n} terms")
    # a log ratio is off by a few roundings plus one of its size, a running
    # sum by one of each partial sum (Higham 2002, sec. 4.2), the shift by
    # one of its size; the plain sum of n terms by n roundings
    drift = _EPS * (np.cumsum(8.0 + np.abs(log_ratio) + np.abs(log_terms)) + top - log_terms)
    pref = float(np.exp(expo + top))
    val = pref * mag
    tail = shifted[-1] * rho / (1.0 - rho)
    err = val * _EPS * (abs(expo) + top) + pref * (float(shifted @ drift) + n * _EPS * mag + tail)
    return val, err


def _spherical_connection(lams: np.ndarray, log_cosh: float) -> tuple[np.ndarray, np.ndarray]:
    # phi_lambda = T(lambda) + T(-lambda) by the 1 - z connection formula,
    # T(mu) = c_gamma(mu) 2^((mu-22)/2) cosh(t)^(-2b) 2F1(c-a, b; 1+b-a; sech^2 t)
    # with a = (22+mu)/4, b = (22-mu)/4, c = 8. At mu/2 in Z the two terms
    # have poles that cancel; callers keep away from them.
    mu = np.concatenate([lams, -lams])
    a = (RHO_ALPHA + mu) / 4.0
    b = (RHO_ALPHA - mu) / 4.0
    log_c, log_size = _log_gamma_ratio(mu)
    log_pow = (mu - RHO_ALPHA) * math.log(2.0) / 2.0 - 2.0 * b * log_cosh
    expo = log_c - _LOG_GAMMA_RATIO_RHO + log_pow
    # the summed size of the logs in expo, plus 60 for the shifted Stirling sums
    log_size += 60.0 + abs(_LOG_GAMMA_RATIO_RHO) + np.abs(mu - RHO_ALPHA) + np.abs(log_pow)
    z = math.exp(-2.0 * log_cosh)
    vals, errs = _scaled_hyp2f1(expo, log_size, M_ALPHA - a, b, 1.0 + b - a, z)
    k = len(lams)
    return vals[:k] + vals[k:], errs[:k] + errs[k:]


def _spherical_circle(la: complex, center: float, log_cosh: float) -> tuple[complex, float]:
    # phi is entire in lambda, so near a cancelling pole pair it is the
    # Cauchy integral over the circle of radius 1 around the even integer,
    # summed by the trapezoid rule on 32 nodes in barycentric form; the last
    # two discrete Fourier coefficients estimate the first aliased term
    vals, errs = _spherical_connection(center + _CIRCLE, log_cosh)
    w = _CIRCLE / (center + _CIRCLE - la)
    alias = (abs(vals @ _CIRCLE) + abs(vals @ _CIRCLE**2)) / len(_CIRCLE)
    return w @ vals / w.sum(), np.abs(w) @ (errs + alias) / abs(w.sum())


# a value or a series past double range is refused below, without warnings
@np.errstate(over="ignore", invalid="ignore")
def spherical_with_error(lam, t: float) -> tuple[complex, float]:
    """Spherical function value plus a bound on its error.

    phi_lambda(t) = 2F1((22+lambda)/4, (22-lambda)/4; 8; -sinh^2 t), the
    Jacobi-function form (Koornwinder 1984). Up to t = 2 (tanh^2 t <= 0.93)
    it is summed as a power series in tanh^2 t, beyond as the connection
    formula in sech^2 t < 0.071. The bound adds the roundoff of the summed
    terms, the series remainder and the log-space error of the prefactor.
    """
    la = complex(lam)
    t = abs(float(t))
    if not (cmath.isfinite(la) and math.isfinite(t) and la.real >= 0.0):
        raise ValueError("spherical function needs finite t and lambda, Re(lambda_alpha) >= 0")
    log_cosh = t + math.log1p(math.exp(-2.0 * t)) - math.log(2.0)
    center = 2.0 * round(la.real / 2.0)
    if t <= 2.0:
        # Pfaff: cosh(t)^(-2a) 2F1(a, c-b; c; tanh^2 t), one sign throughout at real lambda
        a = (RHO_ALPHA + la) / 4.0
        b = (RHO_ALPHA - la) / 4.0
        expo = -2.0 * a * log_cosh
        z = math.tanh(t) ** 2
        try:
            val, err = _scaled_hyp2f1(expo, abs(expo), a, M_ALPHA - b, M_ALPHA, z)
        except NonConvergent:
            # at real lambda the plain terms can overflow before the sum
            # converges; every term is positive, so sum them from their logs
            if la.imag != 0.0:
                raise
            val, err = _log_hyp2f1(expo.real, a.real, M_ALPHA - b.real, M_ALPHA, z)
    elif abs(la.imag) < 1.0 and abs(la - center) < 0.5:
        val, err = _spherical_circle(la, center, log_cosh)
    else:
        val, err = _spherical_connection(np.array([la]), log_cosh)
    val, err = complex(np.squeeze(val)), float(np.squeeze(err))
    if not cmath.isfinite(val):
        raise OverflowError(f"spherical function at lambda={la}, t={t} overflows")
    return (complex(val.real) if la.imag == 0.0 else val), err


def spherical(lam, t: float) -> complex:
    """Spherical function at the radial point t, normalized to 1 at t = 0."""
    val, _ = spherical_with_error(lam, t)
    return val
