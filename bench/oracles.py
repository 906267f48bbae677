"""Reference checks for the benchmark's outputs.

Every check here is either a computation made apart from the program
(mpmath for the spectral functions, numpy products for the factorizations)
or a property the method must have (stabilizers, pairing preservation, the
radial coordinate read off a pairing). Each check returns a list of failure
messages; an empty list means the output passed.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

# Coordinates of the 27-dimensional algebra: xi1, xi2, xi3, then the three
# octonion slots x1 (3:11), x2 (11:19), x3 (19:27). The trace pairing is
# (X|Y) = sum_i w_i X_i Y_i with w = +1 on the diagonal, +2 on x1 and -2 on
# the two twisted slots x2, x3.
WEIGHTS = np.array([1.0] * 3 + [2.0] * 8 + [-2.0] * 16)


def _unit(*entries: tuple[int, float]) -> np.ndarray:
    v = np.zeros(27)
    for idx, val in entries:
        v[idx] = val
    return v


E1 = _unit((0, 1.0))
E2 = _unit((1, 1.0))
E3 = _unit((2, 1.0))
E = _unit((0, 1.0), (1, 1.0), (2, 1.0))
F31 = _unit((19, 1.0))  # real unit in slot 3
P_MINUS = _unit((0, -1.0), (1, 1.0), (19, 1.0))  # base null vector h1(-1,1,0;0,0,1)
SIGMA_P_MINUS = _unit((0, -1.0), (1, 1.0), (19, -1.0))  # reflected h1(-1,1,0;0,0,-1)

# relative tolerances, each far above the agreement measured on the
# workloads' inputs and far below any corruption worth catching
T_TOL = 1e-10  # radial coordinate against its pairing formula
PRODUCT_TOL = 1e-7  # factor product against g, scaled by |g|_2^2
FIX_TOL = 1e-8  # stabilizer conditions, scaled by |g|_2^2
C_GAMMA_TOL = 1e-10  # Gamma-ratio c-function against mpmath
C_QUAD_TOL = 1e-6  # quadrature c-function (the program's quadrature rel_tol)
SPHERICAL_TOL = 1e-6  # spherical function, relative to phi_{Re lambda}(t)

RHO = 22.0  # half-sum of positive restricted roots: 8 + 2 * 7


def pairing(x: np.ndarray, y: np.ndarray) -> float:
    return float(x @ (WEIGHTS * y))


def cell_pairings(mat: np.ndarray) -> tuple[float, float]:
    """((gP^-|E2), (gP^-|reflected)), each divided by |gP^-|.

    The first decides the open cell of keps_iwasawa and matsuki, the second
    the open Bruhat cell of gauss.
    """
    Y = mat @ P_MINUS
    ny = float(np.linalg.norm(Y))
    return pairing(Y, E2) / ny, pairing(Y, SIGMA_P_MINUS) / ny


def _conditioning(mat: np.ndarray) -> float:
    return max(1.0, float(np.linalg.norm(mat, 2)) ** 2)


def _t_close(got: float, want: float) -> bool:
    return abs(got - want) <= T_TOL * max(1.0, abs(want))


def check_group_matrix(mat: np.ndarray, label: str) -> list[str]:
    """An automorphism preserves the trace pairing and fixes the unit E."""
    w = np.diag(WEIGHTS)
    scale = _conditioning(mat)
    errs = []
    dev = float(np.max(np.abs(mat.T @ w @ mat - w)))
    if not dev <= PRODUCT_TOL * scale:
        errs.append(f"{label}: pairing not preserved, deviation {dev:.3e}")
    dev = float(np.max(np.abs(mat @ E - E)))
    if not dev <= FIX_TOL * scale:
        errs.append(f"{label}: unit not fixed, deviation {dev:.3e}")
    return errs


def check_factorization(
    kind: str,
    g: np.ndarray,
    factors: list[np.ndarray],
    t: float,
    fixers: list[tuple[str, np.ndarray, list[np.ndarray]]],
    t_expected: float | None,
) -> list[str]:
    """Product of the factors equals g, each named factor fixes its targets,
    and the radial coordinate t matches t_expected (skipped when None)."""
    scale = _conditioning(g)
    errs = []
    prod = factors[0]
    for f in factors[1:]:
        prod = prod @ f
    dev = float(np.max(np.abs(prod - g)))
    if not dev <= PRODUCT_TOL * scale:
        errs.append(f"{kind}: factor product differs from g by {dev:.3e}")
    for name, mat, targets in fixers:
        for target in targets:
            dev = float(np.linalg.norm(mat @ target - target))
            if not dev <= FIX_TOL * scale:
                errs.append(f"{kind}: {name} moves a fixed vector by {dev:.3e}")
    if t_expected is not None and not _t_close(t, t_expected):
        errs.append(f"{kind}: t = {t!r}, expected {t_expected!r}")
    return errs


def t_iwasawa(g: np.ndarray) -> float:
    """t = 1/2 log(-(gP^-|E1)) for g = k a_t n with k fixing E1."""
    return 0.5 * math.log(-pairing(g @ P_MINUS, E1))


def t_keps(g: np.ndarray) -> float:
    """t = 1/2 log((gP^-|E2)) for g = k_eps a_t n with k_eps fixing E2."""
    return 0.5 * math.log(pairing(g @ P_MINUS, E2))


def t_gauss(g: np.ndarray) -> float:
    """t = 1/2 log((gP^-|reflected) / 4) for g = z m a_t n."""
    return 0.5 * math.log(0.25 * pairing(g @ P_MINUS, SIGMA_P_MINUS))


def t_closed_word(s: float, a0: float, t: float) -> float:
    """Radial coordinate matsuki recovers from A2(s;a)*D4(2,u,v)*c*A3(t;1)*n.

    With u, v imaginary the slot-2 rotation fixes the real unit, and the
    boost A2(s;a) moves -(xi1) of the pivot image h1(-1,0,1;0,1,0) to
    cosh 2s - sinh 2s * Re(a), which shifts t by half its log.
    """
    return t + 0.5 * math.log(math.cosh(2.0 * s) - math.sinh(2.0 * s) * a0)


def _gamma_ratio(lam: complex) -> mpmath.mpc:
    return (
        mpmath.gamma(lam / 2) * mpmath.gamma((lam + 8) / 4)
        / (mpmath.gamma((lam + 8) / 2) * mpmath.gamma((lam + RHO) / 4))
    )


def c_reference(lam: complex) -> complex:
    """Gamma-ratio c-function, normalized to 1 at lambda = 22, in mpmath."""
    with mpmath.workdps(30):
        lam = mpmath.mpc(lam)
        return complex(_gamma_ratio(lam) / _gamma_ratio(mpmath.mpf(RHO)))


def spherical_reference(lam: complex, t: float) -> complex:
    """Jacobi-function form 2F1((22+l)/4, (22-l)/4; 8; -sinh^2 t) in mpmath."""
    with mpmath.workdps(30):
        lam = mpmath.mpc(lam)
        z = -mpmath.sinh(mpmath.mpf(t)) ** 2
        return complex(mpmath.hyp2f1((RHO + lam) / 4, (RHO - lam) / 4, 8, z))


def _rel_close(got: complex, want: complex, tol: float, scale: float) -> bool:
    return abs(got - want) <= tol * scale


def check_c(lam: complex, got: complex, method: str, ref: complex | None = None) -> list[str]:
    want = c_reference(lam) if ref is None else ref
    tol = C_GAMMA_TOL if method == "gamma" else C_QUAD_TOL
    if _rel_close(got, want, tol, abs(want)):
        return []
    return [f"c_{method}({lam}) = {got!r}, reference {want!r}"]


def check_spherical(lam: complex, t: float, got: complex) -> list[str]:
    """Compare against the Jacobi form; the error is measured against
    phi_{Re lambda}(t), which bounds |phi_lambda(t)| and sets the scale of
    the quadrature's absolute floor when the complex value cancels."""
    want = spherical_reference(lam, t)
    scale = abs(spherical_reference(complex(lam).real, t))
    if _rel_close(got, want, SPHERICAL_TOL, scale):
        return []
    return [f"spherical({lam}, {t}) = {got!r}, reference {want!r}"]
