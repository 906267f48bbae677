"""Explicit factorizations of the rank-one exceptional group.

Four global or open-dense factorizations of a verified 27x27 group element,
each computed from closed-form pairings rather than iterative matrix
algorithms:

    iwasawa       g = k a_t n        k fixes E1 (total map)
    keps_iwasawa  g = k_eps a_t n    k_eps fixes E2 (open dense cell)
    matsuki       g = k_eps (c) m a_t n   two cells, c the closed-cell pivot
    gauss         g = z m a_t n      z lower nilpotent (open dense cell)

where a_t = exp_A(3, t, 1), n = exp_N(+1, x, p), z = exp_N(-1, x, p), and m
fixes E1, E2, E3 and F(3,1). The cell tests and the orbit classification on
rays of the trace-zero negative cone are sign tests of pairings against
E2 and against the reflected null vector h1(-1,1,0;0,0,-1).

All factor records carry the max-abs reconstruction residual. The factors
are computed as plain matrices; each factorization gates its
reconstruction and stabilizer checks on them and verifies the group
elements it returns (k, k_eps, m) once, as GroupElements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from typing import NamedTuple

from . import jordan
from .config import group_tol, member_tol
from .jordan import (
    E1,
    E2,
    E3,
    F,
    JordanElement,
    P13_MINUS,
    P_MINUS,
    SIGMA_P_MINUS,
    coords,
    inner,
    ray_rep,
)
from .liegroup import (
    GroupElement,
    VerificationError,
    _exp_A_matrix,
    _exp_N_matrix,
    _fixes,
    d4_rotate,
    exp_A,
    exp_N,
    identity,
    sigma,
)
from .octonion import Octonion

__all__ = [
    "DegeneratePairing",
    "DegenerateCell",
    "ShapeViolation",
    "NParams",
    "IwasawaFactors",
    "KEpsFactors",
    "MatsukiFactors",
    "GaussFactors",
    "closed_cell_rep",
    "n_pair",
    "nx_closed_form",
    "iwasawa",
    "keps_iwasawa",
    "matsuki",
    "gauss",
    "bruhat_classify",
    "matsuki_classify",
    "z_of_X",
    "flag_classify_keps",
    "flag_classify_nminus",
    "stabilizer_flag",
]


class DegeneratePairing(ValueError):
    """The normalizing pairing vanishes; the reduction map is undefined."""


class DegenerateCell(ValueError):
    """The element lies outside the open cell of the requested factorization."""


class ShapeViolation(ValueError):
    """A component required to vanish exceeds tolerance."""


class NParams(NamedTuple):
    """Parameters (x, p) of a nilpotent factor exp_N(level, x, p)."""

    x: Octonion
    p: Octonion

    def norm(self) -> float:
        return math.hypot(self.x.norm(), self.p.norm())


@dataclass(frozen=True)
class IwasawaFactors:
    k: GroupElement  # fixes E1
    t: float
    n: NParams
    residual: float


@dataclass(frozen=True)
class KEpsFactors:
    k_eps: GroupElement  # fixes E2
    t: float
    n: NParams
    residual: float


@dataclass(frozen=True)
class MatsukiFactors:
    cell: str  # "Open" | "Closed"
    k_eps: GroupElement
    w: bool  # True when the closed-cell pivot sits between k_eps and m
    m: GroupElement
    t: float
    n: NParams
    residual: float


@dataclass(frozen=True)
class GaussFactors:
    z: NParams
    m: GroupElement
    t: float
    n: NParams
    residual: float


@lru_cache(maxsize=1)
def closed_cell_rep() -> GroupElement:
    """Pivot element of the closed cell: the quarter-turn exp_A(1, -pi/2, 1).

    It maps the base null vector h1(-1,1,0;0,0,1) to h1(-1,0,1;0,1,0) and
    represents the second double coset in both the Matsuki and the Bruhat
    pictures.
    """
    return exp_A(1, -0.5 * math.pi, 1.0)


# rows turning a 27-vector Y into the pairing sums ((Q^-(e_i)|Y))_i and
# ((F(3,e_i)|Y))_i without building elements in the loop
def _pairing_rows() -> tuple[np.ndarray, np.ndarray]:
    w = jordan._WEIGHTS
    qminus = np.stack([w * jordan.Qminus(Octonion.unit(i)).vec for i in range(8)])
    f3 = np.stack([w * F(3, Octonion.unit(i)).vec for i in range(1, 8)])
    qminus.setflags(write=False)
    f3.setflags(write=False)
    return qminus, f3


_QMINUS_ROWS, _F3_ROWS = _pairing_rows()


def _reconstruction_residual(parts: list[np.ndarray], g: np.ndarray) -> float:
    prod = parts[0]
    for part in parts[1:]:
        prod = prod @ part
    return float(np.max(np.abs(prod - g)))


def _conditioning(opnorm: float) -> float:
    # factor extraction amplifies rounding noise by powers of the operator
    # norm; internal gates scale accordingly while recorded residuals stay raw
    return max(1.0, opnorm**2)


def _a_matrix(t: float) -> np.ndarray:
    return _exp_A_matrix(3, t, 1.0)


def n_pair(X: JordanElement) -> NParams:
    """Nilpotent parameters normalizing X; defined when (P_MINUS|X) != 0.

    The first parameter is the antisymmetric off-diagonal coefficient divided
    by the (-E1+E2)-coefficient, the second the imaginary slot-3 coefficient
    divided by (P_MINUS|X).
    """
    cv = coords(X)
    pair = 2.0 * cv.r
    if abs(pair) <= member_tol() * max(1.0, X.norm()):
        raise DegeneratePairing(f"(P_MINUS|X) = {pair:.3e} is below tolerance")
    return NParams(cv.y / cv.r, cv.p / pair)


def nx_closed_form(X: JordanElement) -> JordanElement:
    """Image of a rank-one X under its own normalizing nilpotent factor.

    Three-term closed form; agrees with applying exp_N(+1, *n_pair(X)) to X
    whenever X is rank one.
    """
    pair = inner(P_MINUS, X)
    if abs(pair) <= member_tol() * max(1.0, X.norm()):
        raise DegeneratePairing(f"(P_MINUS|X) = {pair:.3e} is below tolerance")
    tr = jordan.trace(X)
    vec = (
        0.5 * pair * (E2 - E1).vec
        + 0.25 * (tr * tr / pair - pair) * P_MINUS.vec
        + 0.5 * tr * (jordan.E - E3).vec
    )
    return JordanElement(vec)


def _factor_t_n(X: JordanElement, sign: float) -> tuple[float, NParams]:
    """Common reduction: t and nilpotent parameters from X = g^-1 E_i.

    sign = -1 selects the E1 normalization (pairing is negative), +1 the E2
    normalization (pairing is positive).
    """
    params = n_pair(X)
    pair = inner(P_MINUS, X)
    if sign * pair <= 0.0:
        raise VerificationError(
            f"pairing sign violated: (P_MINUS|X) = {pair:.3e}, expected sign {sign:+.0f}"
        )
    return 0.5 * math.log(sign * pair), params


class _KAN(NamedTuple):
    k: np.ndarray  # unverified
    a: np.ndarray  # a_t
    n: np.ndarray  # exp_N(+1, *params)
    t: float
    params: NParams
    residual: float


def _kan(g: np.ndarray, opnorm: float, sign: float) -> _KAN:
    """g = k a_t n with k fixing E1 (sign -1) or E2 (sign +1), on plain
    matrices: returns the three factor matrices as built, t, the nilpotent
    parameters and the reconstruction residual."""
    fixed, factor = (E1, "k-factor") if sign < 0 else (E2, "k_eps-factor")
    X = JordanElement(np.linalg.solve(g, fixed.vec))
    t, params = _factor_t_n(X, sign)
    n = _exp_N_matrix(1, params.x, params.p)
    a = _a_matrix(t)
    k = g @ np.linalg.inv(n) @ np.linalg.inv(a)
    gate = group_tol() * _conditioning(opnorm)
    if not _fixes(k, [fixed], gate):
        raise VerificationError(f"computed {factor} does not fix E{2 if sign > 0 else 1}")
    residual = _reconstruction_residual([k, a, n], g)
    if residual > gate:
        raise VerificationError(f"reconstruction residual {residual:.3e}")
    return _KAN(k, a, n, t, params, residual)


def iwasawa(g: GroupElement) -> IwasawaFactors:
    """Global factorization g = k a_t n with k fixing E1."""
    f = _kan(g.mat, g.opnorm, -1.0)
    return IwasawaFactors(k=GroupElement(f.k), t=f.t, n=f.params, residual=f.residual)


def _keps_cell_value(g: GroupElement) -> tuple[float, float]:
    """(pairing with E2, tolerance) for the image of the base null vector."""
    Y = g.mat @ P_MINUS.vec
    return float(Y[1]), member_tol() * float(np.linalg.norm(Y))


def keps_iwasawa(g: GroupElement) -> KEpsFactors:
    """Open-cell factorization g = k_eps a_t n with k_eps fixing E2."""
    val, tol = _keps_cell_value(g)
    if abs(val) <= tol:
        raise DegenerateCell(f"(g P_MINUS|E2) = {val:.3e} is below tolerance")
    if val < 0.0:
        raise VerificationError(f"(g P_MINUS|E2) = {val:.3e} negative; sign dichotomy violated")
    try:
        f = _kan(g.mat, g.opnorm, 1.0)
        k_eps = GroupElement(f.k)
    except (DegeneratePairing, VerificationError) as exc:
        # inside the open cell but too near its boundary for the factors to
        # be representable at tolerance
        raise DegenerateCell(
            f"(g P_MINUS|E2) = {val:.3e} is too close to the cell boundary: {exc}"
        ) from exc
    return KEpsFactors(k_eps=k_eps, t=f.t, n=f.params, residual=f.residual)


_M_TARGETS = [E1, E2, E3, F(3, 1.0)]


def _require_shape(checks: list[tuple[str, float]], tol: float) -> None:
    for name, dev in checks:
        if dev > tol:
            raise ShapeViolation(f"component {name} = {dev:.3e} exceeds tolerance {tol:.1e}")


def matsuki(g: GroupElement) -> MatsukiFactors:
    """Two-cell factorization g = k_eps (c) m a_t n, c the closed-cell pivot.

    On the open cell this is keps_iwasawa with a trivial m. On the closed
    cell the image of the base null vector has the shape
    h1(-r, 0, r; 0, x2, 0) with r = |x2|; a slot-2 rotation aligns x2 with 1,
    after which conjugating the pivot away leaves an element fixing the base
    ray, whose own Iwasawa k-factor must land in the joint stabilizer M.
    """
    val, tol = _keps_cell_value(g)
    if abs(val) > tol:
        f = keps_iwasawa(g)
        return MatsukiFactors(
            cell="Open",
            k_eps=f.k_eps,
            w=False,
            m=identity(),
            t=f.t,
            n=f.n,
            residual=f.residual,
        )

    Y = g.apply(P_MINUS)
    xi1, xi2, xi3 = Y.xi
    x2v = Y.slot(2)
    r = float(np.linalg.norm(x2v))
    stol = member_tol() * max(1.0, Y.norm())
    _require_shape(
        [
            ("xi2", abs(xi2)),
            ("x1", float(np.linalg.norm(Y.slot(1)))),
            ("x3", float(np.linalg.norm(Y.slot(3)))),
            ("xi1+xi3", abs(xi1 + xi3)),
            ("xi3-|x2|", abs(xi3 - r)),
        ],
        stol,
    )
    if r <= stol:
        raise ShapeViolation("image of the base null vector is numerically zero")

    kprime = d4_rotate(2, Octonion(x2v / r), Octonion.one())
    c = closed_cell_rep()
    h = np.linalg.inv(c.mat) @ kprime.mat @ g.mat
    f = _kan(h, float(np.linalg.norm(h, 2)), -1.0)
    m = GroupElement(f.k)
    gate = group_tol() * _conditioning(g.opnorm)
    if not _fixes(m.mat, _M_TARGETS, gate):
        raise VerificationError("closed-cell m-factor fails the M stabilizer check")
    k_eps = kprime.inv()
    residual = _reconstruction_residual([k_eps.mat, c.mat, m.mat, f.a, f.n], g.mat)
    if residual > gate:
        raise VerificationError(f"reconstruction residual {residual:.3e}")
    return MatsukiFactors(
        cell="Closed", k_eps=k_eps, w=True, m=m, t=f.t, n=f.params, residual=residual
    )


def _bruhat_cell_value(g: GroupElement) -> tuple[float, float, np.ndarray]:
    Y = g.mat @ P_MINUS.vec
    val = float(Y @ (jordan._WEIGHTS * SIGMA_P_MINUS.vec))
    return val, member_tol() * float(np.linalg.norm(Y)), Y


def bruhat_classify(g: GroupElement) -> str:
    """Cell label of g: "OpenCell" for the dense cell, "ClosedCell" otherwise."""
    val, tol, _ = _bruhat_cell_value(g)
    return "ClosedCell" if abs(val) <= tol else "OpenCell"


def matsuki_classify(g: GroupElement) -> str:
    """Cell label of g in the two-cell stratification: "OpenCell" when
    keps_iwasawa applies, "ClosedCell" otherwise."""
    val, tol = _keps_cell_value(g)
    return "ClosedCell" if abs(val) <= tol else "OpenCell"


def gauss(g: GroupElement) -> GaussFactors:
    """Open-cell factorization g = z m a_t n with z a lower nilpotent factor."""
    val, tol, Y = _bruhat_cell_value(g)
    if abs(val) <= tol:
        raise DegenerateCell(f"(g P_MINUS|reflected) = {val:.3e} is below tolerance")
    if val < 0.0:
        raise VerificationError(f"(g P_MINUS|reflected) = {val:.3e} negative; positivity violated")
    zx = Octonion(-0.5 * (_QMINUS_ROWS @ Y) / val)
    zp = Octonion.from_imag7(-0.5 * (_F3_ROWS @ Y) / val)
    z_params = NParams(zx, zp)
    t = 0.5 * math.log(0.25 * val)
    try:
        z = _exp_N_matrix(-1, zx, zp)
        z_inv = np.linalg.inv(z)
        h = z_inv @ g.mat
        # z^-1 g = m a_t n; m itself is recomputed below and verified once
        f = _kan(h, float(np.linalg.norm(h, 2)), -1.0)
        a = _a_matrix(t)
        # the nilpotent factors grow quartically in their parameters, so this
        # product cancels roughly |z|^2 of magnitude; accumulate in extended
        # precision (a no-op on platforms where longdouble aliases float64)
        m_prod = (
            z_inv.astype(np.longdouble)
            @ g.mat.astype(np.longdouble)
            @ np.linalg.inv(f.n).astype(np.longdouble)
            @ np.linalg.inv(a).astype(np.longdouble)
        )
        m = np.asarray(m_prod, dtype=np.float64)
        gate = group_tol() * _conditioning(g.opnorm)
        if not _fixes(m, _M_TARGETS, gate):
            raise VerificationError("m-factor fails the M stabilizer check")
        residual = _reconstruction_residual([z, m, a, f.n], g.mat)
        if residual > gate:
            raise VerificationError(f"reconstruction residual {residual:.3e}")
        m = GroupElement(m)
    except (DegeneratePairing, VerificationError) as exc:
        # inside the open cell but too near its boundary for the factors to
        # be representable at tolerance
        raise DegenerateCell(
            f"(g P_MINUS|reflected) = {val:.3e} is too close to the cell boundary: {exc}"
        ) from exc
    return GaussFactors(z=z_params, m=m, t=t, n=f.params, residual=residual)


def z_of_X(X: JordanElement) -> NParams:
    """Lower nilpotent parameters moving X onto the base ray.

    Applying exp_N(-1, x, p) to X yields (X|reflected)/4 times the base null
    vector; defined when that pairing does not vanish.
    """
    sX = sigma(1).apply(X)
    try:
        params = n_pair(sX)
    except DegeneratePairing as exc:
        raise DegeneratePairing(f"(X|reflected) vanishes: {exc}") from exc
    z = exp_N(-1, params.x, params.p)
    val = inner(X, SIGMA_P_MINUS)
    dev = float(np.max(np.abs(z.mat @ X.vec - 0.25 * val * P_MINUS.vec)))
    if dev > member_tol() * max(1.0, X.norm()):
        # the factor entries are quartic in the parameters, so rounding noise
        # alone reaches eps * |params|^4; past that the ray is effectively on
        # the reflected boundary
        kappa = max(1.0, params.norm()) ** 4 * max(1.0, X.norm())
        if dev <= 1e-12 * kappa:
            raise DegeneratePairing(
                f"(X|reflected) = {val:.3e} too small to certify the nilpotent factor"
            )
        raise VerificationError(f"postcondition residual {dev:.3e}")
    return params


def flag_classify_keps(X: JordanElement) -> tuple[str, GroupElement]:
    """Orbit label of the ray [X] under the E2-stabilizer, with witness.

    Returns ("P12orbit", w) with w X proportional to the base null vector, or
    ("P13orbit", w) with w X proportional to its quarter-turn image
    h1(-1,0,1;0,1,0). The witness fixes E2.
    """
    Xh = ray_rep(X)
    tol = member_tol() * max(1.0, Xh.norm())
    val = float(Xh.vec[1])

    if abs(val) <= tol:
        x2v = Xh.slot(2)
        r = float(np.linalg.norm(x2v))
        _require_shape(
            [
                ("xi2", abs(val)),
                ("x1", float(np.linalg.norm(Xh.slot(1)))),
                ("x3", float(np.linalg.norm(Xh.slot(3)))),
                ("xi3-1", abs(float(Xh.vec[2]) - 1.0)),
                ("|x2|-1", abs(r - 1.0)),
            ],
            tol,
        )
        witness = d4_rotate(2, Octonion(x2v / r), Octonion.one())
        target = P13_MINUS.vec
    else:
        if val < 0.0:
            raise VerificationError(f"(X|E2) = {val:.3e} negative; sign dichotomy violated")
        p_hat = val
        x2v = Xh.slot(2)
        n2 = float(np.linalg.norm(x2v))
        if n2 > tol:
            xi_p = 0.5 * (float(Xh.vec[2]) - float(Xh.vec[0]))
            if xi_p <= n2:
                raise VerificationError(
                    f"slot-2 reduction needs (xi3-xi1)/2 > |x2|, got {xi_p:.3e} vs {n2:.3e}"
                )
            boost = exp_A(2, 0.5 * math.atanh(n2 / xi_p), Octonion(x2v / n2))
            W = boost.apply(Xh)
        else:
            boost = identity()
            W = Xh
        y3 = W.slot(3)
        _require_shape(
            [
                ("xi1+p", abs(float(W.vec[0]) + p_hat)),
                ("xi3", abs(float(W.vec[2]))),
                ("x1", float(np.linalg.norm(W.slot(1)))),
                ("x2", float(np.linalg.norm(W.slot(2)))),
                ("|y3|-p", abs(float(np.linalg.norm(y3)) - p_hat)),
            ],
            tol,
        )
        rot = d4_rotate(3, Octonion(y3 / float(np.linalg.norm(y3))), Octonion.one())
        witness = rot @ boost
        target = p_hat * P_MINUS.vec

    dev = float(np.max(np.abs(witness.mat @ Xh.vec - target)))
    if dev > group_tol() * max(1.0, Xh.norm()):
        raise VerificationError(f"witness postcondition residual {dev:.3e}")
    label = "P13orbit" if abs(val) <= tol else "P12orbit"
    return label, witness


def flag_classify_nminus(X: JordanElement) -> str:
    """Orbit label of the ray [X] under the lower nilpotent group.

    The reflected ray h1(-1,1,0;0,0,-1) is a fixed point and forms its own
    orbit; everything else lies in the dense orbit of the base ray.
    """
    val = inner(X, SIGMA_P_MINUS)
    tol = member_tol() * max(1.0, X.norm())
    return "SigmaP-orbit" if abs(val) <= tol else "P-orbit"


def stabilizer_flag(g: GroupElement) -> bool:
    """True when g fixes the base ray, i.e. g P_MINUS = s P_MINUS with s > 0."""
    Y = g.mat @ P_MINUS.vec
    s = -float(Y[0])
    if s <= 0.0:
        return False
    dev = float(np.linalg.norm(Y - s * P_MINUS.vec))
    return dev <= group_tol() * max(1.0, float(np.linalg.norm(Y)))
