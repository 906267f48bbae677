"""Explicit factorizations of the rank-one exceptional group.

Four global or open-dense factorizations of a verified 27x27 group element:

    iwasawa       g = k a_t n        k fixes E1 (total map)
    keps_iwasawa  g = k_eps a_t n    k_eps fixes E2 (open dense cell)
    matsuki       g = k_eps (c) m a_t n   two cells, c the closed-cell pivot
    gauss         g = z m a_t n      z lower nilpotent (open dense cell)

where a_t = exp_A(3, t, 1), n = exp_N(+1, x, p), z = exp_N(-1, x, p), and m
fixes E1, E2, E3 and F(3,1). In jordan's graded basis V, the eigenbasis
of the torus generator, a_t is the diagonal diag(e^(grade t)), n and z are
block triangular and k orthogonal after a fixed scaling, so iwasawa is one
Householder QR and gauss one block LDU; keps_iwasawa reads t from its cell
value, which is e^(2t), and n from the pairings of g^-1 E2, the E2 row of
the adjoint, with no solve. Its k_eps is refused where an a-priori error
bound reaches 1e-8. matsuki's open cell is keps_iwasawa's result, and its
closed cell is the Iwasawa factorization turned by (k_eps c)^-1: k_eps, c
and m fix E1, so by the uniqueness of G = KAN its a_t and n are g's Iwasawa
factors and k_eps c m is the Iwasawa k. Factors are inverted as pairing
adjoints W^-1 f^T W.

Three results are kept for the last element asked: the cells of g P_MINUS
(_element_cells), its certified Iwasawa factorization (_graded_iwasawa) and
its K_eps-Iwasawa (_keps_factors). Each cache is keyed by the element alone:
an element hashes by identity, its matrix is read-only, the cache holds it,
and the tolerances are fixed per process. Refusals are not kept.

Factor records carry the max-abs reconstruction residual. n and z are
formed from their parameters in graded coordinates, n' = V^-1 n V exactly
block unipotent, from liegroup's cached generator tensor; z_of_X, the
closed-form route the tests compare gauss against, keeps the public exp_N.
Every cell and orbit decision is one cell test, _cells(X), on X = g P_MINUS
or a ray representative: (X|E2) decides the Matsuki cell and the K_eps-orbit,
(X|reflected), for the reflected null vector h1(-1,1,0;0,0,-1), the Bruhat
cell and the N^- orbit, each closed where |value| <= member_tol |X|. One
certificate per factorization, _certify, checks that the k, k_eps or m
factor fixes its targets and that the product reconstructs g, both at one
gate, group_tol * max(1, |g|_2^2), which g decides itself: its
`passes_gate` tries each test, monotone in the gate, at a lower bound from
g's largest squared column, and at the SVD gate only where that fails.
keps_iwasawa's a-priori bound likewise reads |g|_2 off the SVD only where
its upper bound (1 + 1e-12) |g|_F does not pass. So every decision is the
SVD gate's, and every refusal names the exact values. Each factorization
verifies the group elements it returns (k, k_eps, m) once. An overflow on
the way leaves non-finite values, refused as typed errors by these gates,
without warnings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

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
    _GRADES,
    _GRAM,
    _V,
    _V_INV,
    inner,
    ray_rep,
)
from .liegroup import (
    GroupElement,
    VerificationError,
    _adjoint,
    _d4_rotate_matrix,
    _exp_A_matrix,
    _fixes,
    _graded_exp_N,
    _norm,
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


# Graded coordinates g' = V^-1 g V over jordan's graded basis V. There a_t is
# diagonal, N^+ block upper and N^- block lower unipotent over the grade
# blocks, and an element k' of the stabilizer of E1 keeps the Gram diagonal G,
# so k'^-1 = G^-1 k'^T G and k' is orthogonal once scaled by sqrt(G).
_ROOT_GRAM = np.sqrt(_GRAM)
_U, _U_INV = _V / _ROOT_GRAM, _ROOT_GRAM[:, None] * _V_INV
_BLOCKS = (slice(0, 1), slice(1, 9), slice(9, 18), slice(18, 26), slice(26, 27))


def _a_matrix(t: float) -> np.ndarray:
    """exp_A(3, t, 1) = V diag(e^(grade t)) V^-1."""
    return (_V * np.exp(_GRADES * t)) @ _V_INV


def _nilpotent_params(unit: np.ndarray, level: int) -> NParams:
    """Parameters of exp_N(level, x, p) from the top row (level +1) or first
    column (level -1) of its graded matrix: x in the grade-1 entries, Im p in
    the imaginary grade-0 ones, which x^2 does not reach."""
    return NParams(
        Octonion(-0.5 * level * unit[1:9]),
        Octonion.from_imag7((0.5 if level > 0 else -0.25) * unit[11:18]),
    )


def _certify(
    fixed: np.ndarray, targets: list[JordanElement], what: str,
    parts: list[np.ndarray], mat: np.ndarray, g: GroupElement,
) -> float:
    """Max-abs residual of the product of `parts` against mat, at g's gate.
    The factor `fixed` must fix `targets` at the gate, else
    VerificationError(`what`); a NaN residual or one above the gate raises
    VerificationError too."""
    # factor extraction amplifies rounding by |g|_2^2; residuals stay raw
    if not g.passes_gate(lambda gate: _fixes(fixed, targets, gate)):
        raise VerificationError(what)
    prod = parts[0]
    for part in parts[1:]:
        prod = prod @ part
    residual = float(np.max(np.abs(prod - mat)))
    if not g.passes_gate(lambda gate: residual <= gate):
        raise VerificationError(f"reconstruction residual {residual:.3e}")
    return residual


# (X|reflected) = X @ _REFLECTED for the reflected null vector
_REFLECTED = jordan._WEIGHTS * SIGMA_P_MINUS.vec


class _Cells(NamedTuple):
    """The cell values (X|E2) and (X|reflected) of X and their tolerance."""

    keps: float
    bruhat: float
    tol: float

    def closed(self, val: float) -> bool:
        return abs(val) <= self.tol


def _cells(X: np.ndarray) -> _Cells:
    """The one cell test: (X|E2) decides the Matsuki cell and the K_eps-orbit,
    (X|reflected) the Bruhat cell and the N^- orbit, each closed at
    |value| <= member_tol |X|."""
    return _Cells(float(X[1]), float(X @ _REFLECTED), member_tol() * float(np.linalg.norm(X)))


@lru_cache(maxsize=1)
def _element_cells(g: GroupElement) -> tuple[np.ndarray, _Cells]:
    """g P_MINUS, read-only, and its cells, shared by the classifiers and
    the factorizations."""
    Y = g.mat @ P_MINUS.vec
    Y.setflags(write=False)
    return Y, _cells(Y)


def _near_boundary(pairing: str, val: float, why) -> DegenerateCell:
    # inside the open cell but too near its boundary for the factors to be
    # representable at tolerance
    return DegenerateCell(
        f"(g P_MINUS|{pairing}) = {val:.3e} is too close to the cell boundary: {why}"
    )


def n_pair(X: JordanElement) -> NParams:
    """Nilpotent parameters normalizing X; defined when (P_MINUS|X) != 0.

    Read off the graded coordinates c = V^-1 X: with r = -2 c_26, half of
    (P_MINUS|X), x is the Qminus part c[18:26] over r and Im p the F(3, .)
    part c[11:18] over 2r.
    """
    c = _V_INV @ X.vec
    r = -2.0 * c[26]
    pair = 2.0 * r
    if abs(pair) <= member_tol() * max(1.0, X.norm()):
        raise DegeneratePairing(f"(P_MINUS|X) = {pair:.3e} is below tolerance")
    return NParams(Octonion(c[18:26] / r), Octonion.from_imag7(c[11:18] / pair))


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


@lru_cache(maxsize=1)
@np.errstate(over="ignore", invalid="ignore")
def _graded_iwasawa(g: GroupElement) -> tuple:
    """g = k a_t n with k fixing E1, certified once, by one Householder QR.

    In scaled graded coordinates k is orthogonal and a_t n upper triangular
    with a positive diagonal, so U^-1 g U = Q R with diag(R) > 0 gives k = Q,
    t = log(R_00) / 2 and n from R's top row. Returns the matrices k, a_t and
    n, t, n's parameters and the residual; read by iwasawa and by matsuki's
    closed cell, whose k_eps c m is this k.
    """
    q, r = np.linalg.qr(_U_INV @ g.mat @ _U)
    sign = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    top = sign[0] * r[0]
    # R_00 = e^(2t) underflows to 0 at large negative t
    if not 0.0 < top[0] < math.inf:
        raise VerificationError(f"Iwasawa pivot R_00 = {top[0]:.3e} is not positive and finite")
    t = 0.5 * math.log(top[0])
    params = _nilpotent_params(top * _ROOT_GRAM / (_ROOT_GRAM[0] * top[0]), 1)
    k = _U @ (q * sign) @ _U_INV
    a, n = _a_matrix(t), _V @ _graded_exp_N(1, *params) @ _V_INV
    residual = _certify(k, [E1], "computed k-factor does not fix E1", [k, a, n], g.mat, g)
    return k, a, n, t, params, residual


def iwasawa(g: GroupElement) -> IwasawaFactors:
    """Global factorization g = k a_t n with k fixing E1; where k cannot be
    certified at tolerance it raises VerificationError."""
    k, _, _, t, params, residual = _graded_iwasawa(g)
    return IwasawaFactors(k=GroupElement(k), t=t, n=params, residual=residual)


# unit roundoff of double precision, and the a-priori error allowed on k_eps
_UNIT_ROUNDOFF = 0.5 * float(np.finfo(float).eps)
_KEPS_BOUND = 1e-8


def _keps_bound(g: GroupElement, *factors: float) -> float:
    """u |g|_2 times `factors`, in that order. |g|_2 is first its upper bound
    (1 + 1e-12) |g|_F and the SVD norm only where that bound reaches
    _KEPS_BOUND, so the result passes as the SVD one would and is the SVD
    one wherever it fails."""
    def times(norm: float) -> float:
        out = _UNIT_ROUNDOFF * norm
        for f in factors:
            out *= f
        return out

    upper = times(_norm(g.mat) * (1 + 1e-12))
    return upper if upper < _KEPS_BOUND else times(g.opnorm)


@lru_cache(maxsize=1)
@np.errstate(over="ignore", invalid="ignore")
def _keps_factors(g: GroupElement) -> KEpsFactors:
    """g = k_eps a_t n, shared by keps_iwasawa and matsuki's open cell.

    The cell value is e^(2t) exactly, and X = g^-1 E2 the E2 row of the
    adjoint W^-1 g^T W, which rounds nothing; n is read from the pairings of
    X. k_eps = g n^-1 a_-t reconstructs g by construction, so no residual
    sees its error: it is bounded a priori by u |g|_2 |n^-1|_2 e^(2|t|),
    with |n^-1|_2 <= sqrt(|n^-1|_1 |n^-1|_inf), and refused from 1e-8;
    _keps_bound reads |g|_2 off the SVD only where it does not pass without.
    """
    cells = _element_cells(g)[1]
    val = cells.keps
    if cells.closed(val):
        raise DegenerateCell(f"(g P_MINUS|E2) = {val:.3e} is below tolerance")
    # the bound without |n^-1|_2 >= 1, before the sign test: a cell value
    # lost in the rounding of g P_MINUS may carry either sign
    scale = max(abs(val), 1.0 / abs(val))
    bound = _keps_bound(g, scale)
    if not bound < _KEPS_BOUND:
        raise _near_boundary(
            "E2", val, f"error bound u |g|_2 e^(2|t|) = {bound:.3e} reaches {_KEPS_BOUND:.0e}"
        )
    if val < 0.0:
        raise VerificationError(f"(g P_MINUS|E2) = {val:.3e} negative; sign dichotomy violated")
    t = 0.5 * math.log(val)
    try:
        X = JordanElement(g.mat[1] / jordan._WEIGHTS)
        params = n_pair(X)
        pair = inner(P_MINUS, X)
        if not (pair > 0.0 and abs(0.5 * math.log(pair) - t) <= 1e-9):
            raise VerificationError(f"(P_MINUS|X) = {pair:.3e} disagrees with t = {t:.6g}")
        n, a = _V @ _graded_exp_N(1, *params) @ _V_INV, _a_matrix(t)
        n_inv = _adjoint(n)
        abs_n_inv = np.abs(n_inv)
        n_inv_norm = math.sqrt(abs_n_inv.sum(axis=0).max() * abs_n_inv.sum(axis=1).max())
        bound = _keps_bound(g, scale, n_inv_norm)
        if not bound < _KEPS_BOUND:
            raise VerificationError(
                f"error bound u |g|_2 |n^-1| e^(2|t|) = {bound:.3e} reaches {_KEPS_BOUND:.0e}"
            )
        k = g.mat @ n_inv @ _a_matrix(-t)
        what = "computed k_eps-factor does not fix E2"
        residual = _certify(k, [E2], what, [k, a, n], g.mat, g)
        k_eps = GroupElement(k)
    except (DegeneratePairing, VerificationError) as exc:
        raise _near_boundary("E2", val, exc) from exc
    return KEpsFactors(k_eps=k_eps, t=t, n=params, residual=residual)


def keps_iwasawa(g: GroupElement) -> KEpsFactors:
    """Open-cell factorization g = k_eps a_t n with k_eps fixing E2; on or
    too near the boundary of the cell it raises DegenerateCell."""
    return _keps_factors(g)


_M_TARGETS = [E1, E2, E3, F(3, 1.0)]


def _require_shape(checks: list[tuple[str, float]], tol: float) -> None:
    for name, dev in checks:
        if dev > tol:
            raise ShapeViolation(f"component {name} = {dev:.3e} exceeds tolerance {tol:.1e}")


def _closed_cell_direction(Y: JordanElement, tol: float) -> Octonion:
    """The unit direction x2 / r of Y, of the closed-cell shape
    h1(-r, 0, r; 0, x2, 0) with r = |x2| > 0 checked at `tol`. The slot-2
    rotation from it to 1 takes Y to r times the quarter-turn image
    h1(-1,0,1;0,1,0) of the base null vector."""
    xi1, xi2, xi3 = Y.xi
    x2v = Y.slot(2)
    r = float(np.linalg.norm(x2v))
    _require_shape(
        [
            ("xi2", abs(xi2)),
            ("x1", float(np.linalg.norm(Y.slot(1)))),
            ("x3", float(np.linalg.norm(Y.slot(3)))),
            ("xi1+xi3", abs(xi1 + xi3)),
            ("xi3-|x2|", abs(xi3 - r)),
        ],
        tol,
    )
    if r <= tol:
        raise ShapeViolation("image of the base null vector is numerically zero")
    return Octonion(x2v / r)


@np.errstate(over="ignore", invalid="ignore")
def matsuki(g: GroupElement) -> MatsukiFactors:
    """Two-cell factorization g = k_eps (c) m a_t n, c the closed-cell pivot.

    On the open cell this is keps_iwasawa with a trivial m, and shares its
    result for the same element. On the closed cell the image of the base
    null vector has the shape h1(-r, 0, r; 0, x2, 0) with r = |x2|; k_eps is
    the slot-2 rotation from 1 to x2 / r. g's Iwasawa factorization
    k a_t n gives a_t and n, and m = c^-1 k_eps^-1 k; one certificate checks
    that m lies in the joint stabilizer M and that k_eps c m a_t n
    reconstructs g.
    """
    Y, cells = _element_cells(g)
    if not cells.closed(cells.keps):
        f = _keps_factors(g)
        return MatsukiFactors(
            cell="Open", k_eps=f.k_eps, w=False, m=identity(), t=f.t, n=f.n, residual=f.residual
        )

    # the shape tolerance member_tol max(1, |Y|)
    xhat = _closed_cell_direction(JordanElement(Y), max(member_tol(), cells.tol))
    k_eps = d4_rotate(2, Octonion.one(), xhat)
    c = closed_cell_rep().mat
    k, a, n, t, params, _ = _graded_iwasawa(g)
    m = GroupElement(_adjoint(c) @ _adjoint(k_eps.mat) @ k)
    what = "closed-cell m-factor fails the M stabilizer check"
    residual = _certify(m.mat, _M_TARGETS, what, [k_eps.mat, c, m.mat, a, n], g.mat, g)
    return MatsukiFactors(
        cell="Closed", k_eps=k_eps, w=True, m=m, t=t, n=params, residual=residual
    )


def bruhat_classify(g: GroupElement) -> str:
    """Cell label of g: "OpenCell" for the dense cell, "ClosedCell" otherwise."""
    cells = _element_cells(g)[1]
    return "ClosedCell" if cells.closed(cells.bruhat) else "OpenCell"


def matsuki_classify(g: GroupElement) -> str:
    """Cell label of g in the two-cell stratification: "OpenCell" when
    keps_iwasawa applies, "ClosedCell" otherwise."""
    cells = _element_cells(g)[1]
    return "ClosedCell" if cells.closed(cells.keps) else "OpenCell"


def _graded_m(gp: np.ndarray) -> np.ndarray:
    """m' from the block diagonal D of the block LDU g' = z' (m a_t)' n' over
    the grade blocks. A block of D is c m' with c = e^(grade t), so
    c^2 = tr(D^T G D) / tr(G) and D^-1 = G^-1 D^T G / c^2. c is read from the
    block, not from t, since small graded entries of g carry rounding of
    order eps |g| and part of it is common to the block.
    """
    A = gp.copy()
    m = np.zeros((27, 27))
    for b in _BLOCKS:
        d, gram = A[b, b], _GRAM[b]
        c2 = float(np.einsum("ij,i,ij->", d, gram, d)) / float(gram.sum())
        if not c2 > 0.0:
            raise VerificationError("a diagonal block of the graded LDU is singular")
        m[b, b] = d / math.sqrt(c2)
        if b.stop < 27:  # the Schur update after the last block is empty
            rest = slice(b.stop, 27)
            A[rest, rest] -= A[rest, b] @ (d.T * gram / gram[:, None] / c2) @ A[b, rest]
    return m


@np.errstate(over="ignore", invalid="ignore")
def gauss(g: GroupElement) -> GaussFactors:
    """Open-cell factorization g = z m a_t n with z a lower nilpotent factor.

    One block LDU of g' = V^-1 g V over the grade blocks: z' = L,
    (m a_t)' = D and n' = U. The cell value is 4 g'_00, which gives t, and
    the parameters of z and n are read off the first column and row of g'.
    Failures of the M stabilizer and reconstruction gates on m are reported
    as DegenerateCell.
    """
    cells = _element_cells(g)[1]
    val = cells.bruhat
    if cells.closed(val):
        raise DegenerateCell(f"(g P_MINUS|reflected) = {val:.3e} is below tolerance")
    if val < 0.0:
        raise VerificationError(f"(g P_MINUS|reflected) = {val:.3e} negative; positivity violated")
    t = 0.5 * math.log(0.25 * val)
    gp = _V_INV @ g.mat @ _V
    # the cell value is 4 g'_00 in exact arithmetic, but is formed in standard
    # coordinates, where it can pass its tolerance while g'_00 rounds to 0
    if not 0.0 < gp[0, 0] < math.inf:
        raise DegenerateCell(
            f"graded pivot g'_00 = {gp[0, 0]:.3e} is not positive and finite;"
            f" (g P_MINUS|reflected) = {val:.3e}"
        )
    z_params = _nilpotent_params(gp[:, 0] / gp[0, 0], -1)
    n_params = _nilpotent_params(gp[0] / gp[0, 0], 1)
    try:
        mg = _graded_m(gp)
        m = _V @ mg @ _V_INV
        # multiplied out in graded coordinates, where the large entries of z
        # and n do not cancel in the product as they do in standard ones;
        # there a_t scales the columns of m' by e^(grade t)
        zg, ng = _graded_exp_N(-1, *z_params), _graded_exp_N(1, *n_params)
        parts = [_V, zg, mg * np.exp(_GRADES * t), ng, _V_INV]
        what = "m-factor fails the M stabilizer check"
        residual = _certify(m, _M_TARGETS, what, parts, g.mat, g)
        m = GroupElement(m)
    except VerificationError as exc:
        raise _near_boundary("reflected", val, exc) from exc
    return GaussFactors(z=z_params, m=m, t=t, n=n_params, residual=residual)


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
    h1(-1,0,1;0,1,0). The witness fixes E2; it is formed from plain matrices
    and verified once, on return.
    """
    Xh = ray_rep(X)
    # (Xh|E1) = -1, so |Xh| >= 1 and the tolerance is at least member_tol
    cells = _cells(Xh.vec)
    val, tol = cells.keps, cells.tol
    if cells.closed(val):
        rot = _d4_rotate_matrix(2, _closed_cell_direction(Xh, tol), Octonion.one())
        label, witness, target = "P13orbit", rot, P13_MINUS.vec
    else:
        if val < 0.0:
            raise VerificationError(f"(X|E2) = {val:.3e} negative; sign dichotomy violated")
        p_hat = val
        x2v = Xh.slot(2)
        n2 = float(np.linalg.norm(x2v))
        boost, W = identity().mat, Xh
        if n2 > tol:
            xi_p = 0.5 * (float(Xh.vec[2]) - float(Xh.vec[0]))
            if xi_p <= n2:
                raise VerificationError(
                    f"slot-2 reduction needs (xi3-xi1)/2 > |x2|, got {xi_p:.3e} vs {n2:.3e}"
                )
            boost = _exp_A_matrix(2, 0.5 * math.atanh(n2 / xi_p), Octonion(x2v / n2))
            W = JordanElement(boost @ Xh.vec)
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
        rot = _d4_rotate_matrix(3, Octonion(y3 / float(np.linalg.norm(y3))), Octonion.one())
        label, witness, target = "P12orbit", rot @ boost, p_hat * P_MINUS.vec

    dev = float(np.max(np.abs(witness @ Xh.vec - target)))
    if dev > group_tol() * max(1.0, Xh.norm()):
        raise VerificationError(f"witness postcondition residual {dev:.3e}")
    return label, GroupElement(witness)


def flag_classify_nminus(X: JordanElement) -> str:
    """Orbit label of the ray [X] under the lower nilpotent group.

    The reflected ray h1(-1,1,0;0,0,-1) is a fixed point and forms its own
    orbit; everything else lies in the dense orbit of the base ray.
    """
    cells = _cells(X.vec)
    return "SigmaP-orbit" if cells.closed(cells.bruhat) else "P-orbit"


def stabilizer_flag(g: GroupElement) -> bool:
    """True when g fixes the base ray, i.e. g P_MINUS = s P_MINUS with s > 0."""
    Y = g.mat @ P_MINUS.vec
    s = -float(Y[0])
    if s <= 0.0:
        return False
    dev = float(np.linalg.norm(Y - s * P_MINUS.vec))
    return dev <= group_tol() * max(1.0, float(np.linalg.norm(Y)))
