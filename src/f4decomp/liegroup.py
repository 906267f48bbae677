"""The noncompact exceptional automorphism group and its Lie algebra as
27x27 operators.

Group elements are linear maps g on the 27-dimensional algebra satisfying
g(X o Y) = gX o gY; algebra elements are derivations. Both are realized as
plain matrices acting on the coordinate vectors of `jordan`.

Closed-form constructions:

* exp_A(i, t, a): the one-parameter subgroup attached to a unit octonion a
  in slot i. Slot 1 rotates (trigonometric, compact direction), slots 2 and
  3 boost (hyperbolic). exp_A(3, t, 1) is the standard split torus. It,
  its generator gen_A and the D4 generator below take the slot rule (which
  blocks carry +-C R_a and +-C L_a, the sign of the diagonal rows) from
  one helper, `_slot_A`.
* exp_N(level, x, p): the two-step nilpotent groups N^+ (level +1) and N^-
  (level -1), parameterized by an octonion x and an imaginary octonion p.
  A quartic polynomial in the generator N = gen_G(1, x) + gen_G(2, p),
  since N^5 = 0.
* sigma(i): diagonal involutions flipping the two octonion slots other
  than i; sigma(1) represents the nontrivial restricted Weyl element.
* d4_rotate: elements of the rank-four rotation subgroup fixing all three
  diagonal idempotents, constructed by a one-parameter rotation solve in
  the plane spanned by the source and target slot vectors. Its generator
  is 1/4 the bracket of two slot generators, formed as its three 8x8 slot
  blocks (`_d4_generator`), a derivation by construction;
  `_d4_rotate_matrix` takes the same solve and postcondition through
  `_expm_matrix` with no verify.
* expm: `_expm_matrix` scales to Frobenius norm at most 0.5, evaluates the
  degree-16 Taylor polynomial by Paterson-Stockmeyer in six products (no
  per-term norm, no convergence loop), and squares back.
* basis52: the 24 slot generators and 28 brackets of slot-3 generators,
  exactly orthogonal; coordinates over it are inner products divided by
  the squared norms 26 and 96, with no solver.

Every GroupElement has passed `verify` under the gate
group_tol() * max(1, |m|_2^2): its constructor checks the automorphism
property on all basis pairs and refuses non-finite matrices. The element
decides its own gate, `passes_gate`: a test is tried first on
`_gate_floor`, a lower bound from the largest squared column norm, and at
the SVD norm only where that bound does not pass, so it decides as the SVD
gate would; `decomp` certifies its factors through the same method, and
`opnorm` is computed on first read. `verify` and
`derivation_residual` lay both sides of the product rule out as [k, (i,j)],
form them as plain matrix products on two cached layouts of
`jordan.mul_tensor()`, and subtract in place: a call holds at most two
27x729 temporaries (157 KB each) and leaves its input untouched. Public
functions return GroupElements; the private functions `_exp_A_matrix`,
`_exp_N_matrix` and `_d4_rotate_matrix`, and `_graded_exp_N` for
V^-1 exp_N V in jordan's graded basis, return plain matrices, which their
callers multiply unverified, wrapping only what they return. A lone word
atom is the public verified element; inside a product the word evaluator
takes G atoms from `_exp_N_matrix`, D4 atoms from `_d4_rotate_matrix`, A
and S atoms from the verified `exp_A` and `sigma`, and verifies the
product. Both invert by `_adjoint`: an automorphism keeps the trace
pairing, so g^-1 = W^-1 g^T W, a transpose and exact scales by the pairing
weights, which rounds nothing. `identity()` and `sigma(i)` are shared
verified constants. An AlgebraElement is checked as a derivation when it
is made, with no switch, and `expm` trusts it; `_derivation` wraps, unchecked,
only matrices that are derivations by construction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import jordan
from . import octonion as oct
from .config import group_tol
from .jordan import E3, E, F, JordanElement, P_MINUS

__all__ = [
    "VerificationError",
    "RotationError",
    "AlgebraElement",
    "GroupElement",
    "verify",
    "derivation_residual",
    "gen_A",
    "gen_G",
    "exp_A",
    "exp_N",
    "sigma",
    "expm",
    "basis52",
    "killing",
    "ad_matrix",
    "d4_rotate",
    "m_basis",
    "stabilizer_check",
    "theta_eps_check",
    "ThetaEpsReport",
    "identity",
]


class VerificationError(ValueError):
    """A matrix failed the automorphism or derivation check."""


class RotationError(RuntimeError):
    """d4_rotate could not realize the requested slot rotation."""


_SLOTS = (slice(3, 11), slice(11, 19), slice(19, 27))


@functools.cache
def _mul_layouts() -> tuple[np.ndarray, np.ndarray]:
    """Two GEMM layouts of the product tensor J[i,j,k] = (b_i o b_j)_k:
    Jc[l, (i,j)] = J[i,j,l] and Jk[(k,a), b] = J[a,b,k]."""
    J = jordan.mul_tensor()
    Jc = np.ascontiguousarray(J.reshape(729, 27).T)
    Jk = np.ascontiguousarray(J.transpose(2, 0, 1).reshape(729, 27))
    return Jc, Jk


def _norm(x: np.ndarray) -> float:
    """np.linalg.norm(x) of a real array without its dispatch: the same root
    of the same dot product over x.ravel(order="K"), so the same bits."""
    v = x.ravel(order="K")
    return math.sqrt(v @ v)


def verify(mat: np.ndarray) -> float:
    """Automorphism residual: max over basis pairs of
    |g(b_i o b_j) - g b_i o g b_j|, plus |gE - E|."""
    g = np.asarray(mat, dtype=float)
    if g.shape != (27, 27):
        raise ValueError(f"need a 27x27 matrix, got {g.shape}")
    Jc, Jk = _mul_layouts()
    # both sides laid out [k, (i,j)]: right sums g[a,i] J[a,b,k] g[b,j] as
    # one GEMM then 27 batched ones, and left = g(b_i o b_j) takes the
    # difference in place, so at most two 27x729 arrays are alive at once
    right = np.matmul(g.T, (Jk @ g).reshape(27, 27, 27)).reshape(27, 729)
    diff = g @ Jc
    diff -= right
    # sqrt is monotone and correctly rounded: the root of the largest
    # squared column is the largest root
    pair_res = math.sqrt(float(np.einsum("kc,kc->c", diff, diff).max()))
    unit_res = _norm(g @ E.vec - E.vec)
    return pair_res + unit_res


def derivation_residual(mat: np.ndarray) -> float:
    """Max over basis pairs of |D(b_i o b_j) - Db_i o b_j - b_i o Db_j|."""
    D = np.asarray(mat, dtype=float)
    if D.shape != (27, 27):
        raise ValueError(f"need a 27x27 matrix, got {D.shape}")
    Jc, Jk = _mul_layouts()
    # X[k,i,j] = (b_i o Db_j)_k; the product is commutative, so
    # (Db_i o b_j)_k = X[k,j,i]. Both are subtracted in place from
    # diff[k,i,j] = (D(b_i o b_j))_k
    X = (Jk @ D).reshape(27, 27, 27)
    diff = (D @ Jc).reshape(27, 27, 27)
    diff -= X.transpose(0, 2, 1)
    diff -= X
    return float(np.sqrt(np.einsum("kij,kij->ij", diff, diff)).max())


class AlgebraElement:
    """A derivation of the algebra, checked at construction: residual
    <= 1e-9 * max(1, |m|), written so that a NaN residual fails."""

    __slots__ = ("mat",)

    def __init__(self, mat):
        arr = np.asarray(mat, dtype=float)
        if arr.shape != (27, 27):
            raise ValueError(f"need a 27x27 matrix, got {arr.shape}")
        res = derivation_residual(arr)
        if not res <= 1e-9 * max(1.0, _norm(arr)):
            raise VerificationError(f"derivation residual {res:.3e} too large")
        self.mat = arr

    def apply(self, X: JordanElement) -> JordanElement:
        return JordanElement(self.mat @ X.vec)

    def norm(self) -> float:
        return _norm(self.mat)

    def __repr__(self):
        return f"AlgebraElement(norm={self.norm():.4g})"


def _derivation(mat: np.ndarray) -> AlgebraElement:
    """The AlgebraElement, unchecked, of a matrix that is a derivation by construction."""
    phi = object.__new__(AlgebraElement)
    phi.mat = mat
    return phi


def _gate_floor(col_sq: float, tol: float) -> float:
    """A lower bound of the gate tol * max(1, |g|_2^2) from the largest
    squared column norm col_sq of g, less a rounding margin. A test passed
    on it is passed on the norm, which is finite since |g|_2^2 <= 27 col_sq.
    Where 27 col_sq is not finite it is 0, which passes only exact zeros
    under a non-strict test and nothing under a strict one."""
    if not math.isfinite(27.0 * col_sq):
        return 0.0
    return tol * max(1.0, col_sq * (1 - 1e-12))


class GroupElement:
    """An automorphism of the algebra; verified at construction.

    Keeps the automorphism residual and the largest squared column norm;
    the operator 2-norm is computed on first read of `opnorm` unless the
    gate already needed it.
    """

    __slots__ = ("mat", "residual", "_opnorm", "_col_sq")

    def __init__(self, mat):
        arr = np.array(mat, dtype=float, order="C")
        if not np.isfinite(arr).all():
            raise VerificationError("matrix has non-finite entries")
        # entries near the float range overflow inside the check; that is
        # reported as a failed gate, not as floating-point warnings
        with np.errstate(over="ignore", invalid="ignore"):
            residual = verify(arr)
            col_sq = float(np.einsum("ij,ij->j", arr, arr).max())
        arr.setflags(write=False)
        self.mat = arr
        self.residual = residual
        self._opnorm = None
        self._col_sq = col_sq
        if not self.passes_gate(lambda gate: residual < gate):
            raise VerificationError(f"automorphism residual {residual:.3e} too large")

    def passes_gate(self, test: Callable[[float], bool]) -> bool:
        """test(gate) at the gate group_tol() * max(1, |g|_2^2), for a test
        monotone in the gate: at `_gate_floor` first, and at the SVD gate
        only where that fails, so it decides as the SVD gate does. The
        product check is quadratic in the matrix, hence the square; a
        squared norm that is not finite raises VerificationError."""
        tol = group_tol()
        if test(_gate_floor(self._col_sq, tol)):
            return True
        norm_sq = self.opnorm * self.opnorm
        if not math.isfinite(norm_sq):
            raise VerificationError(f"squared operator norm {norm_sq} is not finite")
        return test(tol * max(1.0, norm_sq))

    @property
    def opnorm(self) -> float:
        """Operator 2-norm (largest singular value), computed once."""
        if self._opnorm is None:
            with np.errstate(over="ignore", invalid="ignore"):
                self._opnorm = float(np.linalg.norm(self.mat, 2))
        return self._opnorm

    def apply(self, X: JordanElement) -> JordanElement:
        return JordanElement(self.mat @ X.vec)

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(self.mat @ other.mat)

    def inv(self) -> "GroupElement":
        return GroupElement(_adjoint(self.mat))

    def __repr__(self):
        return f"GroupElement(residual={self.residual:.2e})"


def _adjoint(m: np.ndarray) -> np.ndarray:
    """W^-1 m^T W for the pairing weights W: the inverse of an automorphism m.
    C-contiguous, so products with it round as products with any other
    element do."""
    return np.ascontiguousarray(m.T) * jordan._WEIGHTS / jordan._WEIGHTS[:, None]


@functools.cache
def identity() -> GroupElement:
    return GroupElement(np.eye(27))


def _cyclic(i: int) -> tuple[int, int, int]:
    # zero-based (i, i+1, i+2) mod 3
    if i not in (1, 2, 3):
        raise ValueError(f"slot index must be 1, 2 or 3, got {i}")
    i0 = i - 1
    return i0, (i0 + 1) % 3, (i0 + 2) % 3


def exp_A(i: int, t: float, a) -> GroupElement:
    """One-parameter subgroup in slot i with unit direction a.

    Slot 1 acts by trigonometric rotation, slots 2 and 3 by hyperbolic
    boost. The direction must have unit norm; it is not normalized here.
    """
    return GroupElement(_exp_A_matrix(i, t, a))


# C R_a and C L_a (C the conjugation) as linear maps of a onto their 64
# entries; each entry is one signed coordinate of a, so the product is exact
_CR_MAP = (oct.MUL_TENSOR.transpose(1, 2, 0) * oct._CONJ_SIGNS[:, None]).reshape(8, 64)
_CL_MAP = (oct.MUL_TENSOR.transpose(0, 2, 1) * oct._CONJ_SIGNS[:, None]).reshape(8, 64)


def _slot_A(i: int, av: np.ndarray) -> tuple:
    """The slot rule of gen_A(i, a): the cyclic indices of i, their slots,
    the sign of the diagonal rows (of the (a|x_i) term in eta_{i+1}) and the
    blocks P = m[s1, s2], Q = m[s2, s1]: -C R_a, C L_a on slot 1; -C R_a,
    -C L_a on slot 2; C R_a, C L_a on slot 3. Stacked directions give stacked
    blocks, each from one product."""
    i0, i1, i2 = _cyclic(i)
    shape = av.shape[:-1] + (8, 8)
    CR, CL = (av @ _CR_MAP).reshape(shape), (av @ _CL_MAP).reshape(shape)
    P = CR if i == 3 else -CR
    Q = -CL if i == 2 else CL
    return (i0, i1, i2), _SLOTS[i0], _SLOTS[i1], _SLOTS[i2], (1.0 if i == 1 else -1.0), P, Q


def _exp_A_matrix(i: int, t: float, a) -> np.ndarray:
    av = oct._coerce(a)
    # written so that a NaN direction fails
    if not abs(av @ av - 1.0) <= 1e-12:
        raise ValueError(f"direction must be unit, got |a|^2 = {av @ av}")
    t = float(t)
    (i0, i1, i2), s0, s1, s2, sign, P, Q = _slot_A(i, av)
    # slot 1 rotates, slots 2 and 3 boost
    cos, sin = (math.cos, math.sin) if i == 1 else (math.cosh, math.sinh)
    try:
        c, s = cos(t), sin(t)
        # 2t overflows past |t| = 8.98e307: cos 2t, sin 2t by the double-angle formulas
        c2, s2t = (cos(2 * t), sin(2 * t)) if math.isfinite(2 * t) else (c * c - s * s, 2 * s * c)
    except OverflowError:
        raise OverflowError(f"exp_A slot {i} at t = {t!r} is past double range") from None
    m = np.zeros((27, 27))
    m[i1, s0] = sign * s2t * av
    m[i2, s0] = -sign * s2t * av
    m[s0, s0] = np.eye(8) - sign * 2 * s * s * np.outer(av, av)
    m[s1, s2] = s * P
    m[s2, s1] = s * Q
    m[s1, s1] = m[s2, s2] = c * np.eye(8)
    m[i0, i0] = 1.0
    m[i1, i1] = m[i2, i2] = 0.5 * (1 + c2)
    m[i1, i2] = m[i2, i1] = 0.5 * (1 - c2)
    m[s0, i1] = -0.5 * s2t * av
    m[s0, i2] = 0.5 * s2t * av
    return m


def gen_A(i: int, a) -> AlgebraElement:
    """Derivative at t = 0 of exp_A(i, t, a); defined for any a != 0."""
    av = oct._coerce(a)
    if float(av @ av) == 0.0:
        raise ValueError("direction a must be nonzero")
    return AlgebraElement(_gen_A_matrix(i, av))


def _gen_A_matrix(i: int, av: np.ndarray) -> np.ndarray:
    (_, i1, i2), s0, s1, s2, sign, P, Q = _slot_A(i, av)
    m = np.zeros((27, 27))
    m[i1, s0] = 2 * sign * av
    m[i2, s0] = -2 * sign * av
    m[s0, i1] = -av
    m[s0, i2] = av
    m[s1, s2] = P
    m[s2, s1] = Q
    return m


@functools.cache
def _sigmas() -> dict[int, GroupElement]:
    out = {}
    for i in (1, 2, 3):
        _, i1, i2 = _cyclic(i)
        d = np.ones(27)
        d[_SLOTS[i1]] = d[_SLOTS[i2]] = -1.0
        out[i] = GroupElement(np.diag(d))
    return out


def sigma(i: int) -> GroupElement:
    """Diagonal involution negating the two octonion slots other than i."""
    _cyclic(i)
    return _sigmas()[i]


# Nilpotent generators. Their actions are linear on jordan's graded basis
# [ -P^-, Qplus(e0..e7), E1+E2, E3, F(3,e1..e7), Qminus(e0..e7), P^+ ]; the
# matrix in standard coordinates is C V^-1, where the columns of C are the
# images of the graded basis vectors. Both generators kill E and P^-, so
# E1+E2 = E - E3 maps to minus the image of E3 and P^+ = P^- - 2(-E1+E2) to
# -2 times that of -E1+E2. Every nonzero entry of C is a parameter
# coordinate or a coordinate of one of the seven octonion products, times
# 1, 2 or 4 up to sign, so C is filled by one precomputed scatter from the
# stacked products; Q+-(c) puts c in slot 1 and +-conj(c) in slot 2. The
# level -1 generator is the sigma(1)-conjugate, an entrywise sign pattern.
#
# Two routes use them. exp_N, behind the word atoms, builds its generator per
# call from seven octonion products with the imaginary units through
# Octonion.__mul__: those are the only octonion products on the word path,
# and the benchmark's traced octonion layer times them there. The
# factorizations only need n' = V^-1 exp_N V to certify a product, and
# V^-1 N V is linear in [x, Im p], so `_graded_exp_N` reads it off a cached
# tensor of the 15 unit generators in graded coordinates and builds none.

_UNITS = tuple(oct.Octonion.unit(j) for j in range(8))
_EYE = np.eye(27)
_EYE.setflags(write=False)


def _scatter(*blocks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat positions in C, source indices and coefficients of
    (rows, cols, source, coefficient) blocks, each broadcast over its block.
    The coefficients are signed powers of two, so every entry is exact."""
    parts = [np.broadcast_arrays(27 * r + c, src, coef) for r, c, src, coef in blocks]
    pos, src, coef = (np.concatenate([b[i].ravel() for b in parts]) for i in range(3))
    for a in (pos, src, coef):
        a.setflags(write=False)
    return pos, src, coef


def _column_of(vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # rows and entries of the fixed vector that scales a parameter coordinate
    rows = np.flatnonzero(vec)
    return rows[:, None], vec[rows][:, None]


_J = np.arange(8)  # product with e_j, along the columns of a block
_K = _J[:, None]  # octonion coordinate k, along the rows of a slot
_IMAG = _J[1:]
_PM_ROWS, _PM = _column_of(P_MINUS.vec)
_EM3_ROWS, _EM3 = _column_of((E - 3 * E3).vec)


def _Q(cols, src, coef, sign: float = 1.0) -> tuple[tuple, tuple]:
    # Q+(c) (sign +1) or Q-(c) (sign -1), c = coef * source[src] per column
    return (3 + _K, cols, src, coef), (11 + _K, cols, src, sign * coef * oct._CONJ_SIGNS[:, None])


# G1(x): the source is (e_j x)_k at 8 j + k, with e_0 x = x, and then the
# diagonal 2 (e_j x)_j - 4 x_0 of the slot-3 block at 63 + j, j = 1..7
_G1_SCATTER = _scatter(
    (_PM_ROWS, 1 + _J, _J, 2 * _PM),  # Qplus(e_j) -> 2 x_j P^-
    *_Q(9, _K, -1.0),  # E1+E2 -> Q+(-x)
    *_Q(10, _K, 1.0),  # E3 -> Q+(x)
    *_Q(10 + _IMAG, 8 * _IMAG + _K, -1.0),  # F(3, e_j) -> Q+(-e_j x)
    # Qminus(e_j) -> 2 x_j (E - 3E3) + F(3, 2 Im(x conj(e_j))), where
    # x conj(e_j) = -2 x_0 e_j - conj(e_j x) for j >= 1, and x 1 = x
    (_EM3_ROWS, 18 + _J, _J, 2 * _EM3),
    (19 + _K[1:], 18 + _J, np.where(_K[1:] == _J, 63 + _J, 8 * _J + _K[1:]),
     np.where(_K[1:] == _J, 1.0, 2.0)),
    *_Q(26, _K, 2.0, -1.0),  # P^+ -> Q-(2x)
)
# G2(p): the source is (p e_j)_k at 8 j + k, with p e_0 = p
_G2_SCATTER = _scatter(
    (_PM_ROWS, 10 + _IMAG, _IMAG, -2 * _PM),  # F(3, e_j) -> -2 p_j P^-
    *_Q(18 + _J, 8 * _J + _K, -2.0),  # Qminus(e_j) -> Q+(-2 p e_j)
    (19 + _K, 26, _K, 4.0),  # P^+ -> F(3, 4p)
)


def _from_scatter(scatter: tuple, source: np.ndarray) -> np.ndarray:
    # C V^-1, with C filled from the source in one indexed assignment
    pos, src, coef = scatter
    C = np.zeros(729)
    C[pos] = coef * source[src]
    return C.reshape(27, 27) @ jordan._V_INV


def _imO(p) -> np.ndarray:
    pv = oct._coerce(p)
    # written so that a NaN real part fails
    if not abs(pv[0]) <= 1e-12:
        raise ValueError(f"parameter must be imaginary, got re = {pv[0]}")
    return pv


def exp_N(level: int, x, p) -> GroupElement:
    """Nilpotent group element exp(G_l1(x) + G_l2(p)), level = +1 or -1.

    p must be imaginary. The generator N = G_l1(x) + G_l2(p) raises the
    eigenvalue of the torus generator gen_A(3, 1), which runs over -2..2,
    by one or two, so N^5 = 0 and the exponential is the quartic polynomial
    in N; the negative level is the sigma(1)-conjugate of the positive one.
    """
    return GroupElement(_exp_N_matrix(level, x, p))


def _exp_N_matrix(level: int, x, p) -> np.ndarray:
    if level not in (1, -1):
        raise ValueError(f"level must be +1 or -1, got {level}")
    xv = oct._coerce(x)
    pv = _imO(p)
    # G2(p) + G1(x) without building a generator whose parameter is zero;
    # a zero generator's matrix is all +0.0, so the sum starts from +0.0
    gen = np.zeros((27, 27))
    if pv.any():
        gen = gen + _gen_G2_matrix(pv)
    if xv.any():
        gen = gen + _gen_G1_matrix(xv)
    return _quartic_exp(_at_level(gen, level))


def _graded_exp_N(level: int, x, p) -> np.ndarray:
    """V^-1 exp_N(level, x, p) V from the cached graded generators. It is
    block upper (level +1) or lower (level -1) unipotent over the grade
    blocks with no rounding in the zero and identity blocks, since the
    tensor's entries are exact and its zero pattern survives every product."""
    if level not in (1, -1):
        raise ValueError(f"level must be +1 or -1, got {level}")
    v = np.concatenate([oct._coerce(x), _imO(p)[1:]])
    return _quartic_exp((v @ _graded_generators(level)).reshape(27, 27))


@functools.cache
def _graded_generators(level: int) -> np.ndarray:
    """(15, 729) rows V^-1 G V of the level generators G1(e_0..e_7) and
    G2(e_1..e_7). Their entries are small dyadic rationals, formed exactly."""
    units = np.eye(8)
    gens = [_gen_G1_matrix(u) for u in units] + [_gen_G2_matrix(u) for u in units[1:]]
    T = np.stack([jordan._V_INV @ _at_level(m, level) @ jordan._V for m in gens])
    T = T.reshape(15, 729)
    T.setflags(write=False)
    return T


def _quartic_exp(gen: np.ndarray) -> np.ndarray:
    """exp(N) for a nilpotent N with N^5 = 0, in the Horner form of
    I + N + N^2/2 + N^3/6 + N^4/24. Each step adds I in place; N / 1 is N."""
    m = gen / 4
    m += _EYE
    for k in (3, 2, 1):
        m = (gen / k if k > 1 else gen) @ m
        m += _EYE
    return m


@functools.cache
def _sigma1_signs() -> np.ndarray:
    d = np.diag(sigma(1).mat)
    signs = np.outer(d, d)
    signs.setflags(write=False)
    return signs


def _at_level(gen: np.ndarray, level: int) -> np.ndarray:
    """The generator at level +-1 or +-2 from its positive-level matrix:
    sigma(1) gen sigma(1) for a negative level is the sign pattern
    d_i d_j of sigma(1) = diag(d) entrywise; + 0.0 gives the +0.0 entries
    that the product by sigma(1) gives."""
    return gen if level > 0 else gen * _sigma1_signs() + 0.0


def _gen_G1_matrix(xv: np.ndarray) -> np.ndarray:
    x = oct.Octonion(xv)
    ux = np.stack([xv] + [(u * x).coeffs for u in _UNITS[1:]])
    diag = 2 * (ux[_IMAG, _IMAG] - 2 * xv[0])
    return _from_scatter(_G1_SCATTER, np.concatenate((ux.ravel(), diag)))


def _gen_G2_matrix(pv: np.ndarray) -> np.ndarray:
    p = oct.Octonion(pv)
    pu = np.stack([pv] + [(p * u).coeffs for u in _UNITS[1:]])
    return _from_scatter(_G2_SCATTER, pu.ravel())


def gen_G(level: int, param) -> AlgebraElement:
    """Nilpotent generator for level in {+1, +2, -1, -2}.

    Levels +-1 take any octonion, levels +-2 an imaginary one. Positive
    levels are the derivatives of the closed nilpotent actions; negative
    levels are their sigma(1)-conjugates.
    """
    if level not in (1, 2, -1, -2):
        raise ValueError(f"level must be one of +-1, +-2, got {level}")
    if abs(level) == 2:
        v = _imO(param)
        m = _gen_G2_matrix(v)
    else:
        v = oct._coerce(param)
        m = _gen_G1_matrix(v)
    return AlgebraElement(_at_level(m, level))


def expm(phi: AlgebraElement) -> GroupElement:
    """Matrix exponential of a derivation by `_expm_matrix`; phi was checked
    when it was made, and the result is verified."""
    return GroupElement(_expm_matrix(phi.mat))


# The degree-16 Taylor polynomial of exp as four blocks in powers of X^4:
# row k holds the coefficients 1/(4k + i)! of I, X, X^2, X^3 in block k
_TAYLOR_BLOCKS = np.array([[1.0 / math.factorial(4 * k + i) for i in range(4)] for k in range(4)])
_TAYLOR_16 = 1.0 / math.factorial(16)


def _expm_matrix(m: np.ndarray) -> np.ndarray:
    """exp(m) on a plain matrix, with no check: scaled by 2^-s to Frobenius
    norm at most 0.5, where the degree-16 Taylor polynomial is exact to below
    1e-19, evaluated by Paterson-Stockmeyer in six products (X^2, X^3, X^4
    and three Horner steps in X^4), then squared s times; a norm that is not
    finite raises VerificationError."""
    norm = _norm(m)
    if not math.isfinite(norm):
        raise VerificationError(f"cannot exponentiate a matrix of Frobenius norm {norm}")
    nsq = 0
    if norm > 0.5:
        nsq = max(0, int(math.ceil(math.log2(norm / 0.5))))
    x = m / (2.0**nsq)
    x2 = x @ x
    x3 = x2 @ x
    x4 = x2 @ x2
    blocks = (_TAYLOR_BLOCKS @ np.stack((_EYE, x, x2, x3)).reshape(4, 729)).reshape(4, 27, 27)
    total = _TAYLOR_16 * x4
    total += blocks[3]
    for k in (2, 1, 0):
        total = x4 @ total
        total += blocks[k]
    for _ in range(nsq):
        total = total @ total
    return total


# Basis of the 52-dimensional derivation algebra in closed form: the 24 slot
# generators gen_A(i, e_j) plus the 28 brackets [gen_A(3, e_j), gen_A(3, e_k)],
# j < k, which span the rank-four rotation subalgebra. Their entries are 0,
# +-1, +-2 and +-4, so their Gram matrix is exact; it is diag(26 I_24, 96 I_28),
# and a coordinate is an inner product over a squared norm.
_BASIS52_SQ = np.repeat([26.0, 96.0], [24, 28])


@functools.cache
def _basis52() -> tuple[list[AlgebraElement], np.ndarray]:
    """The basis and its rows, flattened."""
    gens = [_gen_A_matrix(i, u) for i in (1, 2, 3) for u in np.eye(8)]
    slot3 = gens[16:]
    mats = gens + [a @ b - b @ a for j, a in enumerate(slot3) for b in slot3[j + 1:]]
    flat = np.stack([m.ravel() for m in mats])
    if not np.array_equal(flat @ flat.T, np.diag(_BASIS52_SQ)):
        raise RuntimeError("derivation basis is not orthogonal with squared norms 26 and 96")
    return [_derivation(m) for m in mats], flat


def basis52() -> list[AlgebraElement]:
    return _basis52()[0]


def _coords52(mat: np.ndarray) -> np.ndarray:
    return (_basis52()[1] @ mat.ravel()) / _BASIS52_SQ


def ad_matrix(phi: AlgebraElement) -> np.ndarray:
    """ad(phi) as a 52x52 matrix over the basis52 coordinates."""
    return np.column_stack([_coords52(phi.mat @ b.mat - b.mat @ phi.mat) for b in basis52()])


def killing(phi: AlgebraElement, psi: AlgebraElement) -> float:
    """Killing form trace(ad phi . ad psi), computed as 3 trace(phi psi):
    the Dynkin index of the adjoint representation is three times that of
    the 27-dimensional one."""
    return 3.0 * float(np.einsum("ij,ji->", phi.mat, psi.mat))


def stabilizer_check(g: GroupElement, targets: list[JordanElement]) -> bool:
    """True iff g fixes every target within the group tolerance."""
    return _fixes(g.mat, targets, group_tol())


def _fixes(mat: np.ndarray, targets: list[JordanElement], tol: float) -> bool:
    for t in targets:
        v, floor = t.vec, 1.0
        top = float(np.abs(v).max())
        if top > 1.0:
            # divided by a power of two of its largest entry, which is exact
            # (as in _d4_solve), so neither norm overflows; floor is the
            # scaled 1 of max(1, |t|)
            _, e = math.frexp(top)
            v, floor = np.ldexp(v, -e), math.ldexp(1.0, -e)
        # written so that a NaN deviation fails
        if not _norm(mat @ v - v) <= tol * max(floor, _norm(v)):
            return False
    return True


def d4_rotate(j: int, u, v) -> GroupElement:
    """Element fixing E1, E2, E3 that maps F(j, u) to F(j, v).

    Requires norm_sq(u) = norm_sq(v) > 0. Solved by a single one-parameter
    rotation in the plane spanned by u and v inside slot j: the generator
    [gen_A(j,a), gen_A(j,b)] kills every diagonal idempotent and acts on
    slot j as the plane rotation generator of span(a, b).
    """
    solve = _d4_solve(j, u, v)
    if solve is None:
        return identity()
    gen, *target = solve
    k = expm(_derivation(gen))
    _d4_reaches(k.mat, *target)
    return k


def _d4_rotate_matrix(j: int, u, v) -> np.ndarray:
    """The matrix of d4_rotate(j, u, v), bit for bit, from the same solve
    with its input checks and postcondition; neither the generator nor the
    result is verified."""
    solve = _d4_solve(j, u, v)
    if solve is None:
        return identity().mat
    gen, *target = solve
    k = _expm_matrix(gen)
    _d4_reaches(k, *target)
    return k


def _d4_solve(j: int, u, v) -> tuple[np.ndarray, np.ndarray, np.ndarray, float] | None:
    """The rotation solve of d4_rotate: None where v = u, else theta times
    the generator, F(j, u) and F(j, v) at a common power-of-two scale, and
    max(1, |u|) at that scale, the postcondition's tolerance factor."""
    _cyclic(j)
    uv = oct._coerce(u)
    vv = oct._coerce(v)
    # the rotation is scale-invariant; dividing both vectors by a common power
    # of two is exact, keeps their squared norms in range, and scales every
    # comparison below (floor = the scaled 1 of the postcondition's
    # max(1, |u|)) without rounding
    _, e = math.frexp(float(max(np.abs(uv).max(), np.abs(vv).max())))
    e = max(e, -1000)  # keeps floor finite for subnormal input
    us, vs = np.ldexp(uv, -e), np.ldexp(vv, -e)
    floor = math.ldexp(1.0, -e)
    nu = _norm(us)
    nv = _norm(vs)
    if nu <= 0 or nv <= 0:
        raise ValueError("u and v must be nonzero")
    # relative at every scale; written so that a NaN norm fails
    if not abs(nu - nv) <= 1e-9 * nu:
        with np.errstate(over="ignore"):
            nu, nv = _norm(uv), _norm(vv)
        raise ValueError(f"norm mismatch: |u| = {nu}, |v| = {nv}")
    uhat = us / nu
    vhat = vs / nu
    gamma = float(uhat @ vhat)
    w = vhat - gamma * uhat
    w -= (w @ uhat) * uhat  # second orthogonalization pass
    wn = _norm(w)
    if wn < 1e-13:
        if gamma > 0:
            return None
        # antipodal: rotate by pi in any plane through u
        k = int(np.argmin(np.abs(uhat)))
        b = np.zeros(8)
        b[k] = 1.0
        b -= (b @ uhat) * uhat
        bhat = b / _norm(b)
        dlt = 0.0
    else:
        bhat = w / wn
        dlt = float(vhat @ bhat)
    gen = _d4_generator(j, uhat, bhat)
    # gen turns u -> s b, b -> -s u (s = +-1), so exp(theta*gen) maps uhat to
    # cos(theta) uhat + s sin(theta) bhat; `_d4_reaches` refuses any miss
    s = float(bhat @ (gen[_SLOTS[j - 1], _SLOTS[j - 1]] @ uhat))
    theta = math.atan2(dlt * s, gamma)
    return gen * theta, F(j, us).vec, F(j, vs).vec, max(floor, nu)


def _d4_generator(j: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """1/4 [gen_A(j, a), gen_A(j, b)] from its three 8x8 slot blocks, with no
    27x27 product. gen_A(j, .) couples slot j only to the diagonal, which
    gives -s (a b^T - b a^T) there, s the sign of its diagonal rows; on the
    other two slots its blocks P and Q of `_slot_A`, formed for a and b in
    one stacked product, give 1/4 (P_a Q_b - P_b Q_a) and 1/4 (Q_a P_b - Q_b P_a)."""
    _, s0, s1, s2, sign, P, Q = _slot_A(j, np.stack((a, b)))
    gen = np.zeros((27, 27))
    gen[s0, s0] = -sign * (np.outer(a, b) - np.outer(b, a))
    gen[s1, s1] = 0.25 * (P[0] @ Q[1] - P[1] @ Q[0])
    gen[s2, s2] = 0.25 * (Q[0] @ P[1] - Q[1] @ P[0])
    return gen


def _d4_reaches(k: np.ndarray, src: np.ndarray, want: np.ndarray, scale: float) -> None:
    # the postcondition of both routes: k maps F(j, u) to F(j, v)
    if _norm(k @ src - want) > group_tol() * scale:
        raise RotationError("rotation solve failed to reach the target")


@functools.cache
def m_basis() -> list[AlgebraElement]:
    """Basis of the 21-dimensional subalgebra killing E1, E2, E3 and
    F(3, 1) (the Lie algebra of the little group M), each of unit
    Frobenius norm: the last 21 elements of basis52, the brackets
    [gen_A(3, e_j), gen_A(3, e_k)] of the imaginary units, 1 <= j < k <= 7,
    which rotate the plane of e_j and e_k in slot 3 and fix its real unit."""
    return [_derivation(b.mat / _norm(b.mat)) for b in basis52()[31:]]


@dataclass
class ThetaEpsReport:
    """Deviations of the twisted Cartan conjugation from its predicted
    action on each graded piece, plus the Weyl-element sign check."""

    dev_zero: float  # centralizer piece: the two conjugations agree
    dev_alpha: float  # single-root piece: conjugations differ by -1
    dev_2alpha: float  # double-root piece: conjugations agree
    dev_weyl: float  # sigma(1) negates the torus generator
    grading_residual: float  # max |[H, phi_k] - k phi_k| over the pieces

    @property
    def max_deviation(self) -> float:
        return max(
            self.dev_zero, self.dev_alpha, self.dev_2alpha, self.dev_weyl,
            self.grading_residual,
        )


def theta_eps_check() -> ThetaEpsReport:
    """Checks theta_eps on the grade-k pieces of each basis52 element. The
    grade-k piece of phi keeps the entries (i, j) of V^-1 phi V, in jordan's
    graded basis V, with grade_i - grade_j = k; it must satisfy
    [H, phi_k] = k phi_k for the torus generator H = gen_A(3, 1)."""
    H = gen_A(3, 1).mat
    s1 = sigma(1).mat
    s2 = sigma(2).mat
    shift = jordan._GRADES[:, None] - jordan._GRADES[None, :]
    devs = [0.0, 0.0, 0.0]
    grad_res = 0.0
    for b in basis52():
        graded = jordan._V_INV @ b.mat @ jordan._V
        for k in range(-2, 3):
            part = jordan._V @ np.where(shift == k, graded, 0.0) @ jordan._V_INV
            grad_res = max(grad_res, _norm(H @ part - part @ H - k * part))
            # the two conjugations differ by -1 on the single-root pieces
            dev = s2 @ part @ s2 - (-1.0) ** k * (s1 @ part @ s1)
            devs[abs(k)] = max(devs[abs(k)], _norm(dev))
    return ThetaEpsReport(
        dev_zero=devs[0],
        dev_alpha=devs[1],
        dev_2alpha=devs[2],
        dev_weyl=_norm(s1 @ H @ s1 + H),
        grading_residual=grad_res,
    )
