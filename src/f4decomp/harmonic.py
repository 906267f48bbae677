"""Radial harmonic analysis for the rank-one group of the library.

Closed form for the radial logarithm of a lower-triangular nilpotent
element, the Killing-form normalization of the restricted root, the
quadratic form on the nilpotent levels, and the c-function and spherical
function evaluated both by Gamma ratios and by adaptive quadrature.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate
from scipy.special import loggamma

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
    "SpectralParam",
    "QuadratureSpec",
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
    """Adaptive quadrature could not certify the requested tolerance."""


@dataclass(frozen=True)
class SpectralParam:
    """Spectral coordinate of a character of the split torus.

    lambda_alpha is the coordinate normalized so that the half-sum of
    positive restricted roots sits at 8 + 2*7 = 22.
    """

    lambda_alpha: complex

    @property
    def a(self) -> complex:
        return (RHO_ALPHA + complex(self.lambda_alpha)) / 4.0

    @property
    def b(self) -> complex:
        return (RHO_ALPHA - complex(self.lambda_alpha)) / 4.0

    @classmethod
    def rho(cls) -> "SpectralParam":
        return cls(complex(RHO_ALPHA))


def _lam_alpha(lam) -> complex:
    if isinstance(lam, SpectralParam):
        return complex(lam.lambda_alpha)
    return complex(lam)


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for the adaptive quadratures.

    The improper radial integrals are compactified by u = tan(theta)
    before paneling, so the integration box is [0, radius] with
    radius = pi/2 and the truncation tail is exactly zero. max_panels
    bounds the adaptive subdivisions per axis.
    """

    rel_tol: float = 1e-6
    max_panels: int = 200
    radius: float = math.pi / 2

    def refined(self, factor: float = 10.0) -> "QuadratureSpec":
        return QuadratureSpec(
            rel_tol=self.rel_tol / factor,
            max_panels=min(self.max_panels * 2, 1000),
            radius=self.radius,
        )


def _imaginary_check(p: Octonion, name: str) -> None:
    if abs(float(p.coeffs[0])) > 1e-12 * max(1.0, p.norm()):
        raise ValueError(f"{name} must be an imaginary octonion")


def H_nbar(x: Octonion, p: Octonion, t: float = 0.0) -> float:
    """Radial logarithm of a_t times the lower nilpotent of data (x, p)."""
    _imaginary_check(p, "p")
    xx = x.norm_sq()
    pp = p.norm_sq()
    s = 2.0 * float(t)
    return 0.5 * (-s + math.log((math.exp(s) + xx) ** 2 + 4.0 * pp))


def sigma_twist(phi: AlgebraElement) -> AlgebraElement:
    """Conjugate a derivation by the order-two reflection of the first slot."""
    s = lg.sigma(1).mat
    return AlgebraElement(s @ phi.mat @ s, check=False)


@lru_cache(maxsize=1)
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


def exp_lambda_H(x: Octonion, p: Octonion, lam) -> complex:
    """Character value of the radial part of the lower nilpotent (x, p).

    Evaluates ((1 + Q(X)/2)^2 + 2 Q(Y))^(lambda_alpha/4) with X and Y the
    level -1 and level -2 generators of x and p.
    """
    _imaginary_check(p, "p")
    la = _lam_alpha(lam)
    qx = q_form(lg.gen_G(-1, x)) if x.norm() > 0.0 else 0.0
    qy = q_form(lg.gen_G(-2, p)) if p.norm() > 0.0 else 0.0
    base = (1.0 + 0.5 * qx) ** 2 + 2.0 * qy
    return complex(base) ** (la / 4.0)


def _log_gamma_ratio(la: complex) -> complex:
    # log of Gamma(la/2) Gamma((la+8)/4) / (Gamma((la+8)/2) Gamma((la+22)/4));
    # the principal-branch log-Gamma of complex arguments keeps the sign of
    # Gamma at negative real arguments in its imaginary part, a multiple of pi
    args = (
        la / 2.0,
        (la + M_ALPHA) / 4.0,
        (la + M_ALPHA) / 2.0,
        (la + RHO_ALPHA) / 4.0,
    )
    for z in args:
        if abs(z.imag) < 1e-12:
            nearest = round(z.real)
            if nearest <= 0 and abs(z.real - nearest) < 1e-9:
                raise PoleError(f"gamma argument {z.real:g} is a non-positive integer")
    num0, num1, den0, den1 = (complex(loggamma(z)) for z in args)
    return (num0 + num1) - (den0 + den1)


_LOG_GAMMA_RATIO_RHO = _log_gamma_ratio(complex(RHO_ALPHA))


def c_gamma(lam) -> complex:
    """c-function by the Gamma-ratio route, normalized to 1 at the half-sum.

    The ratio is formed in log space, so it stays finite where the Gammas
    themselves overflow; at real lambda the value is real.
    """
    la = _lam_alpha(lam)
    val = cmath.exp(_log_gamma_ratio(la) - _LOG_GAMMA_RATIO_RHO)
    return complex(val.real) if la.imag == 0.0 else val


def _cpow(base: float, expo: complex) -> complex:
    # complex power of a positive real base
    if base <= 0.0:
        return 0.0 + 0.0j
    if expo.imag == 0.0:
        return complex(base**expo.real)
    return cmath.exp(expo * math.log(base))


def _quad_complex(f, spec: QuadratureSpec, is_real: bool) -> tuple[complex, float]:
    # pure-relative QUADPACK stalls when a component integrand is nearly
    # zero (e.g. the imaginary part of a real-valued case), so a coarse
    # modulus pass sets an absolute floor for the component passes
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            if is_real:
                floor = 0.0
            else:
                mass, _ = integrate.quad(
                    lambda v: abs(f(v)), 0.0, spec.radius,
                    epsabs=0.0, epsrel=1e-2, limit=spec.max_panels,
                )
                if mass == 0.0:
                    return 0.0 + 0.0j, 0.0
                floor = 0.1 * spec.rel_tol * mass
            opts = {"epsabs": floor, "epsrel": spec.rel_tol, "limit": spec.max_panels}
            re, err_re = integrate.quad(lambda v: f(v).real, 0.0, spec.radius, **opts)
            if is_real:
                return complex(re), err_re
            im, err_im = integrate.quad(lambda v: f(v).imag, 0.0, spec.radius, **opts)
        except integrate.IntegrationWarning as exc:
            raise NonConvergent(f"quadrature did not reach tolerance: {exc}") from exc
    return complex(re, im), err_re + err_im


def _power_integral(k: int, q: complex, spec: QuadratureSpec) -> tuple[complex, float]:
    # integral of u^k (1+u^2)^(-q) over [0, inf), compactified by u = tan(theta)
    if 2.0 * q.real - k - 1.0 <= 0.0:
        raise ValueError("power integral diverges for this exponent")

    def f(theta: float) -> complex:
        s, c = math.sin(theta), math.cos(theta)
        return (s**k) * _cpow(c, 2.0 * q - (k + 2.0))

    return _quad_complex(f, spec, is_real=(q.imag == 0.0))


def c_quadrature_with_error(lam, spec: QuadratureSpec | None = None) -> tuple[complex, float]:
    """c-function by quadrature plus its propagated error estimate."""
    la = _lam_alpha(lam)
    if la.real <= 0.0:
        raise ValueError("c-function quadrature needs Re(lambda_alpha) > 0")
    if spec is None:
        spec = QuadratureSpec()
    ju, err_u = _power_integral(M_2ALPHA - 1, (la + RHO_ALPHA) / 4.0, spec)
    jt, err_t = _power_integral(M_ALPHA - 1, (la + M_ALPHA) / 2.0, spec)
    du, dt = _c_norm(spec)
    val = (ju * jt) / (du * dt)
    err = abs(val) * (err_u / abs(ju) + err_t / abs(jt))
    return val, err


@lru_cache(maxsize=8)
def _c_norm(spec: QuadratureSpec) -> tuple[complex, complex]:
    rho = complex(RHO_ALPHA)
    du, _ = _power_integral(M_2ALPHA - 1, (rho + RHO_ALPHA) / 4.0, spec)
    dt, _ = _power_integral(M_ALPHA - 1, (rho + M_ALPHA) / 2.0, spec)
    return du, dt


def c_quadrature(lam, spec: QuadratureSpec | None = None) -> complex:
    """c-function as the product of the two reduced radial integrals."""
    val, _ = c_quadrature_with_error(lam, spec)
    return val


_LOG128 = math.log(128.0)


def _radial_point(theta: float, psi: float, a: complex, b: complex, e2t: float) -> complex:
    # Radial integrand r^7 s^6 ((e^{2t}+r^2)^2+4s^2)^(-b) ((1+r^2)^2+4s^2)^(-a)
    # after the substitution s = w (1+r^2)/2, which separates the two radial
    # scales (the w profile peaks at O(1) uniformly in r), compactified by
    # r = tan(theta), w = tan(psi) with both jacobians folded into the
    # exponent. Evaluated fully in log space so extreme radii underflow to
    # zero instead of overflowing.
    r = math.tan(theta)
    w = math.tan(psi)
    if r <= 0.0 or w <= 0.0:
        return 0.0 + 0.0j
    r2 = r * r
    w2 = w * w
    log_flat_r = math.log1p(r2)
    log_flat_w = math.log1p(w2)
    log_shift = math.log((e2t + r2) ** 2 + w2 * (1.0 + r2) ** 2)
    log_weight = 7.0 * math.log(r) + 6.0 * math.log(w) - _LOG128
    return cmath.exp(
        log_weight
        + (8.0 - 2.0 * a) * log_flat_r
        + (1.0 - a) * log_flat_w
        - b * log_shift
    )


def _spherical_integral(
    a: complex, b: complex, t: float, spec: QuadratureSpec
) -> tuple[complex, float]:
    e2t = math.exp(2.0 * t)
    is_real = a.imag == 0.0 and b.imag == 0.0
    box = [[0.0, spec.radius], [0.0, spec.radius]]

    def point(psi: float, theta: float) -> complex:
        return _radial_point(theta, psi, a, b, e2t)

    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            if is_real:
                floor = 0.0
            else:
                mass, _ = integrate.nquad(
                    lambda ps, th: abs(point(ps, th)), box,
                    opts={"epsabs": 0.0, "epsrel": 1e-2, "limit": spec.max_panels},
                )
                if mass == 0.0:
                    return 0.0 + 0.0j, 0.0
                floor = 0.1 * spec.rel_tol * mass
            opts = {"epsabs": floor, "epsrel": spec.rel_tol, "limit": spec.max_panels}
            re, err_re = integrate.nquad(lambda ps, th: point(ps, th).real, box, opts=opts)
            if is_real:
                return complex(re), err_re
            im, err_im = integrate.nquad(lambda ps, th: point(ps, th).imag, box, opts=opts)
        except integrate.IntegrationWarning as exc:
            raise NonConvergent(f"quadrature did not reach tolerance: {exc}") from exc
    return complex(re, im), err_re + err_im


@lru_cache(maxsize=8)
def _spherical_norm(spec: QuadratureSpec) -> tuple[complex, float]:
    return _spherical_integral(complex(RHO_ALPHA) / 2.0, 0.0 + 0.0j, 0.0, spec)


def spherical_with_error(
    lam, t: float, spec: QuadratureSpec | None = None
) -> tuple[complex, float]:
    """Spherical function value plus its propagated error estimate."""
    la = _lam_alpha(lam)
    if la.real < 0.0:
        raise ValueError("spherical function needs Re(lambda_alpha) >= 0")
    if spec is None:
        spec = QuadratureSpec()
    a = (complex(RHO_ALPHA) + la) / 4.0
    b = (complex(RHO_ALPHA) - la) / 4.0
    num, err_n = _spherical_integral(a, b, float(t), spec)
    den, err_d = _spherical_norm(spec)
    val = cmath.exp(2.0 * b * float(t)) * num / den
    err = abs(val) * (err_n / abs(num) + err_d / abs(den))
    return val, err


def spherical(lam, t: float, spec: QuadratureSpec | None = None) -> complex:
    """Spherical function at the radial point t, normalized to 1 at t = 0."""
    val, _ = spherical_with_error(lam, t, spec)
    return val
