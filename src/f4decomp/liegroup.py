"""The noncompact exceptional automorphism group and its Lie algebra as
27x27 operators.

Group elements are linear maps g on the 27-dimensional algebra satisfying
g(X o Y) = gX o gY; algebra elements are derivations. Both are realized as
plain matrices acting on the coordinate vectors of `jordan`.

Closed-form constructions:

* exp_A(i, t, a): the one-parameter subgroup attached to a unit octonion a
  in slot i. Slot 1 rotates (trigonometric, compact direction), slots 2 and
  3 boost (hyperbolic). exp_A(3, t, 1) is the standard split torus.
* exp_N(level, x, p): the two-step nilpotent groups N^+ (level +1) and N^-
  (level -1), parameterized by an octonion x and an imaginary octonion p.
  A quartic polynomial in the generator N = gen_G(1, x) + gen_G(2, p),
  since N^5 = 0.
* sigma(i): diagonal involutions flipping the two octonion slots other
  than i; sigma(1) represents the nontrivial restricted Weyl element.
* d4_rotate: elements of the rank-four rotation subgroup fixing all three
  diagonal idempotents, constructed by a one-parameter rotation solve in
  the plane spanned by the source and target slot vectors. Its generator
  is the bracket of two raw slot generators, checked once as a derivation
  by `expm`.

Every GroupElement has passed `verify` under the gate
group_tol() * max(1, |m|_2^2): its constructor checks the automorphism
property on all basis pairs and refuses non-finite matrices. The gate is
tried first on the largest squared column norm, a lower bound of |m|_2^2,
and falls back to the SVD norm only where that bound does not pass, so it
decides as the SVD gate would; `opnorm` is computed on first read. `verify` and
`derivation_residual` lay both sides of the product rule out as [k, (i,j)]
and form them as plain matrix products on two cached layouts of
`jordan.mul_tensor()`. Public functions return GroupElements; the private
`_exp_A_matrix` and `_exp_N_matrix` builders return plain matrices, which
the factorizations and the word evaluator multiply and invert unverified,
wrapping only the matrices they return. `identity()` and `sigma(i)` are
shared verified constants. AlgebraElement checks the derivation property
unless built with check=False from already checked elements.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import jordan
from . import octonion as oct
from .config import group_tol
from .jordan import E1, E3, E, F, JordanElement, P_MINUS

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
    "bracket",
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
_CONJ = np.diag([1.0, -1, -1, -1, -1, -1, -1, -1])


@functools.cache
def _mul_layouts() -> tuple[np.ndarray, np.ndarray]:
    """Two GEMM layouts of the product tensor J[i,j,k] = (b_i o b_j)_k:
    Jc[l, (i,j)] = J[i,j,l] and Jk[(k,a), b] = J[a,b,k]."""
    J = jordan.mul_tensor()
    Jc = np.ascontiguousarray(J.reshape(729, 27).T)
    Jk = np.ascontiguousarray(J.transpose(2, 0, 1).reshape(729, 27))
    return Jc, Jk


def verify(mat: np.ndarray) -> float:
    """Automorphism residual: max over basis pairs of
    |g(b_i o b_j) - g b_i o g b_j|, plus |gE - E|."""
    g = np.asarray(mat, dtype=float)
    if g.shape != (27, 27):
        raise ValueError(f"need a 27x27 matrix, got {g.shape}")
    Jc, Jk = _mul_layouts()
    # both sides laid out [k, (i,j)]: left = g(b_i o b_j), and right sums
    # g[a,i] J[a,b,k] g[b,j] as one GEMM then 27 batched ones
    left = g @ Jc
    right = np.matmul(g.T, (Jk @ g).reshape(27, 27, 27)).reshape(27, 729)
    diff = left - right
    # sqrt is monotone and correctly rounded: the root of the largest
    # squared column is the largest root
    pair_res = math.sqrt(float(np.einsum("kc,kc->c", diff, diff).max()))
    unit_res = float(np.linalg.norm(g @ E.vec - E.vec))
    return pair_res + unit_res


def derivation_residual(mat: np.ndarray) -> float:
    """Max over basis pairs of |D(b_i o b_j) - Db_i o b_j - b_i o Db_j|."""
    D = np.asarray(mat, dtype=float)
    if D.shape != (27, 27):
        raise ValueError(f"need a 27x27 matrix, got {D.shape}")
    Jc, _ = _mul_layouts()
    left = (D @ Jc).reshape(27, 27, 27)  # [k, i, j]
    # U[i,j,k] = (Db_i o b_j)_k; the product is commutative, so
    # (b_i o Db_j)_k = U[j,i,k]
    U = (D.T @ jordan.mul_tensor().reshape(27, 729)).reshape(27, 27, 27)
    diff = left - U.transpose(2, 0, 1) - U.transpose(2, 1, 0)
    return float(np.sqrt(np.einsum("kij,kij->ij", diff, diff)).max())


class AlgebraElement:
    """A derivation of the algebra, checked at construction."""

    __slots__ = ("mat",)

    def __init__(self, mat, check: bool = True):
        arr = np.asarray(mat, dtype=float)
        if arr.shape != (27, 27):
            raise ValueError(f"need a 27x27 matrix, got {arr.shape}")
        if check:
            res = derivation_residual(arr)
            scale = max(1.0, float(np.linalg.norm(arr)))
            # written so that a NaN residual fails
            if not res <= 1e-9 * scale:
                raise VerificationError(f"derivation residual {res:.3e} too large")
        self.mat = arr

    def apply(self, X: JordanElement) -> JordanElement:
        return JordanElement(self.mat @ X.vec)

    def __add__(self, other):
        return AlgebraElement(self.mat + other.mat, check=False)

    def __sub__(self, other):
        return AlgebraElement(self.mat - other.mat, check=False)

    def __neg__(self):
        return AlgebraElement(-self.mat, check=False)

    def __mul__(self, scalar):
        return AlgebraElement(self.mat * float(scalar), check=False)

    __rmul__ = __mul__

    def norm(self) -> float:
        return float(np.linalg.norm(self.mat))

    def __repr__(self):
        return f"AlgebraElement(norm={self.norm():.4g})"


class GroupElement:
    """An automorphism of the algebra; verified at construction.

    Keeps the automorphism residual; the operator 2-norm is computed on
    first read of `opnorm` unless the gate already needed it.
    """

    __slots__ = ("mat", "residual", "_opnorm")

    def __init__(self, mat):
        arr = np.array(mat, dtype=float, order="C")
        if not np.isfinite(arr).all():
            raise VerificationError("matrix has non-finite entries")
        # entries near the float range overflow inside the check; that is
        # reported as a failed gate, not as floating-point warnings
        with np.errstate(over="ignore", invalid="ignore"):
            residual = verify(arr)
            col_sq = float(np.einsum("ij,ij->j", arr, arr).max())
        # the product check is quadratic in the matrix, so the gate scales
        # with the square of the operator norm. The largest squared column
        # norm, less a rounding margin, bounds that square from below: a gate
        # passed on the bound is passed on the norm, which is finite since
        # |g|_2^2 <= 27 col_sq. Only the other cases need the SVD.
        tol = group_tol()
        opnorm = None
        if not (math.isfinite(27.0 * col_sq) and residual < tol * max(1.0, col_sq * (1 - 1e-12))):
            with np.errstate(over="ignore", invalid="ignore"):
                opnorm = float(np.linalg.norm(arr, 2))
            norm_sq = opnorm * opnorm
            if not math.isfinite(norm_sq):
                raise VerificationError(f"squared operator norm {norm_sq} is not finite")
            if not residual < tol * max(1.0, norm_sq):
                raise VerificationError(f"automorphism residual {residual:.3e} too large")
        arr.setflags(write=False)
        self.mat = arr
        self.residual = float(residual)
        self._opnorm = opnorm

    @property
    def opnorm(self) -> float:
        """Operator 2-norm (largest singular value), computed once."""
        if self._opnorm is None:
            self._opnorm = float(np.linalg.norm(self.mat, 2))
        return self._opnorm

    def apply(self, X: JordanElement) -> JordanElement:
        return JordanElement(self.mat @ X.vec)

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(self.mat @ other.mat)

    def inv(self) -> "GroupElement":
        return GroupElement(np.linalg.inv(self.mat))

    def __repr__(self):
        return f"GroupElement(residual={self.residual:.2e})"


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


def _exp_A_matrix(i: int, t: float, a) -> np.ndarray:
    av = oct._coerce(a)
    if abs(av @ av - 1.0) > 1e-12:
        raise ValueError(f"direction must be unit, got |a|^2 = {av @ av}")
    t = float(t)
    i0, i1, i2 = _cyclic(i)
    s0, s1, s2 = _SLOTS[i0], _SLOTS[i1], _SLOTS[i2]
    CL = _CONJ @ oct.left_mul_matrix(av)
    CR = _CONJ @ oct.right_mul_matrix(av)
    m = np.zeros((27, 27))
    if i == 1:
        c2, s2t = math.cos(2 * t), math.sin(2 * t)
        c, s = math.cos(t), math.sin(t)
        m[i1, s0] = s2t * av
        m[i2, s0] = -s2t * av
        m[s0, s0] = np.eye(8) - 2 * s * s * np.outer(av, av)
        m[s1, s2] = -s * CR
        m[s2, s1] = s * CL
    else:
        c2, s2t = math.cosh(2 * t), math.sinh(2 * t)
        c, s = math.cosh(t), math.sinh(t)
        # slot-coupling orientation differs between the two boost slots
        eps = -1.0 if i == 2 else 1.0
        m[i1, s0] = -s2t * av
        m[i2, s0] = s2t * av
        m[s0, s0] = np.eye(8) + 2 * s * s * np.outer(av, av)
        m[s1, s2] = eps * s * CR
        m[s2, s1] = eps * s * CL
    m[s1, s1] = c * np.eye(8)
    m[s2, s2] = c * np.eye(8)
    m[i0, i0] = 1.0
    m[i1, i1] = 0.5 * (1 + c2)
    m[i1, i2] = 0.5 * (1 - c2)
    m[i2, i1] = 0.5 * (1 - c2)
    m[i2, i2] = 0.5 * (1 + c2)
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
    i0, i1, i2 = _cyclic(i)
    s0, s1, s2 = _SLOTS[i0], _SLOTS[i1], _SLOTS[i2]
    CL = _CONJ @ oct.left_mul_matrix(av)
    CR = _CONJ @ oct.right_mul_matrix(av)
    m = np.zeros((27, 27))
    sign = 1.0 if i == 1 else -1.0  # sign of the (a|x_i) term in eta_{i+1}
    m[i1, s0] = 2 * sign * av
    m[i2, s0] = -2 * sign * av
    m[s0, i1] = -av
    m[s0, i2] = av
    if i == 1:
        m[s1, s2] = -CR
        m[s2, s1] = CL
    else:
        eps = -1.0 if i == 2 else 1.0
        m[s1, s2] = eps * CR
        m[s2, s1] = eps * CL
    return m


@functools.cache
def _sigmas() -> dict[int, GroupElement]:
    out = {}
    for i in (1, 2, 3):
        d = np.ones(27)
        for j in range(3):
            if j != i - 1:
                d[_SLOTS[j]] = -1.0
        out[i] = GroupElement(np.diag(d))
    return out


def sigma(i: int) -> GroupElement:
    """Diagonal involution negating the two octonion slots other than i."""
    if i not in (1, 2, 3):
        raise ValueError(f"slot index must be 1, 2 or 3, got {i}")
    return _sigmas()[i]


def _sigma1() -> np.ndarray:
    return sigma(1).mat


# Nilpotent generators. Their actions are linear on the adapted basis
# [ -E1+E2, P^-, E, E3, F(3,e1..e7), Qplus(e0..e7), Qminus(e0..e7) ];
# the matrix in standard coordinates is C(B^-1) where the columns of C are
# the images of the adapted basis vectors. C is filled in standard
# coordinates one column block at a time; Q+-(c) puts c in slot 1 and
# +-conj(c) in slot 2. Each generator forms seven octonion products, with
# the imaginary units, through Octonion.__mul__, where the benchmark's traced
# octonion layer times them.

_UNITS = tuple(oct.Octonion.unit(j) for j in range(8))
_IMAG_DIAG = (np.arange(1, 8), np.arange(1, 8))
_E_M3 = (E - 3 * E3).vec


def _put_Q(C: np.ndarray, cols: slice, rows: np.ndarray, sign: float = 1.0) -> None:
    # columns Q+(c) (sign +1) or Q-(c) (sign -1), one c per row of `rows`
    C[3:11, cols] = rows.T
    C[11:19, cols] = sign * oct.conj_vec(rows).T


def _imO(p) -> np.ndarray:
    pv = oct._coerce(p)
    if abs(pv[0]) > 1e-12:
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
    if level == -1:
        s = _sigma1()
        gen = s @ gen @ s
    # Horner form of I + N + N^2/2 + N^3/6 + N^4/24
    eye = np.eye(27)
    m = eye + gen / 4
    for k in (3, 2, 1):
        m = eye + (gen / k) @ m
    return m


def _gen_G1_matrix(xv: np.ndarray) -> np.ndarray:
    x = oct.Octonion(xv)
    C = np.zeros((27, 27))
    _put_Q(C, slice(0, 1), -xv[None], -1.0)
    _put_Q(C, slice(3, 4), xv[None])
    ex = np.stack([(u * x).coeffs for u in _UNITS[1:]])  # e_j x, j = 1..7
    _put_Q(C, slice(4, 11), -ex)
    C[:, 11:19] = np.outer(P_MINUS.vec, 2 * xv)
    C[:, 19:27] = np.outer(_E_M3, 2 * xv)
    # x conj(e_j) = -2 x_0 e_j - conj(e_j x) for j >= 1, and x 1 = x; unit
    # products are signed permutations, so both sides agree exactly
    imx = np.empty((8, 8))
    imx[0] = xv
    imx[1:] = -oct.conj_vec(ex)
    imx[_IMAG_DIAG] -= 2 * xv[0]
    imx[:, 0] = 0.0
    C[19:27, 19:27] += (2 * imx).T
    return C @ jordan.coord_basis_matrix()[1]


def _gen_G2_matrix(pv: np.ndarray) -> np.ndarray:
    p = oct.Octonion(pv)
    C = np.zeros((27, 27))
    C[19:27, 0] = -2 * pv
    C[:, 4:11] = np.outer(P_MINUS.vec, -2 * pv[1:])
    # p 1 = p; the other seven are products with imaginary units
    rows = np.stack([pv] + [(p * u).coeffs for u in _UNITS[1:]])
    _put_Q(C, slice(19, 27), -2 * rows)
    return C @ jordan.coord_basis_matrix()[1]


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
    if level < 0:
        s = _sigma1()
        m = s @ m @ s
    return AlgebraElement(m)




def bracket(phi: AlgebraElement, psi: AlgebraElement) -> AlgebraElement:
    return AlgebraElement(phi.mat @ psi.mat - psi.mat @ phi.mat, check=False)


def expm(phi: AlgebraElement) -> GroupElement:
    """Matrix exponential by scaling and squaring, series tolerance 1e-13."""
    m = phi.mat
    norm = float(np.linalg.norm(m))
    res = derivation_residual(m)
    if res > 1e-9 * max(1.0, norm):
        raise VerificationError(f"derivation residual {res:.3e} too large to exponentiate")
    nsq = 0
    if norm > 0.5:
        nsq = max(0, int(math.ceil(math.log2(norm / 0.5))))
    small = m / (2.0**nsq)
    term = np.eye(27)
    total = np.eye(27)
    k = 1
    while True:
        term = term @ small / k
        total = total + term
        if float(np.linalg.norm(term)) < 1e-13:
            break
        k += 1
        if k > 60:
            raise RuntimeError("exponential series failed to converge")
    for _ in range(nsq):
        total = total @ total
    return GroupElement(total)


# Basis of the 52-dimensional derivation algebra: the 24 slot generators
# gen_A(i, e_j) plus 28 commutators [gen_A(3, e_j), gen_A(3, e_k)] spanning
# the rank-four rotation subalgebra. SVD rank is checked loudly.

_BASIS52_CACHE: list[AlgebraElement] | None = None
_BASIS52_PINV: np.ndarray | None = None


def basis52() -> list[AlgebraElement]:
    global _BASIS52_CACHE, _BASIS52_PINV
    if _BASIS52_CACHE is None:
        out = []
        for i in (1, 2, 3):
            for j in range(8):
                out.append(gen_A(i, oct.Octonion.unit(j)))
        slot3 = [gen_A(3, oct.Octonion.unit(j)) for j in range(8)]
        for j in range(8):
            for k in range(j + 1, 8):
                out.append(bracket(slot3[j], slot3[k]))
        flat = np.stack([b.mat.ravel() for b in out])
        svals = np.linalg.svd(flat, compute_uv=False)
        rank = int(np.sum(svals > svals[0] * 1e-9))
        if rank != 52:
            raise RuntimeError(f"derivation basis rank {rank}, expected 52")
        _BASIS52_CACHE = out
        _BASIS52_PINV = np.linalg.pinv(flat.T)
    return _BASIS52_CACHE


def _coords52(mat: np.ndarray) -> np.ndarray:
    basis52()
    return _BASIS52_PINV @ mat.ravel()


def ad_matrix(phi: AlgebraElement) -> np.ndarray:
    """ad(phi) as a 52x52 matrix over the basis52 coordinates."""
    basis = basis52()
    cols = [_coords52(phi.mat @ b.mat - b.mat @ phi.mat) for b in basis]
    return np.column_stack(cols)


def killing(phi: AlgebraElement, psi: AlgebraElement) -> float:
    """Killing form trace(ad phi . ad psi), computed as 3 trace(phi psi):
    the Dynkin index of the adjoint representation is three times that of
    the 27-dimensional one."""
    return 3.0 * float(np.einsum("ij,ji->", phi.mat, psi.mat))


def stabilizer_check(
    g: GroupElement, targets: list[JordanElement], tol: float | None = None
) -> bool:
    """True iff g fixes every target within the group tolerance."""
    return _fixes(g.mat, targets, group_tol() if tol is None else tol)


def _fixes(mat: np.ndarray, targets: list[JordanElement], tol: float) -> bool:
    for t in targets:
        if float(np.linalg.norm(mat @ t.vec - t.vec)) > tol * max(1.0, t.norm()):
            return False
    return True


def d4_rotate(j: int, u, v) -> GroupElement:
    """Element fixing E1, E2, E3 that maps F(j, u) to F(j, v).

    Requires norm_sq(u) = norm_sq(v) > 0. Solved by a single one-parameter
    rotation in the plane spanned by u and v inside slot j: the generator
    [gen_A(j,a), gen_A(j,b)] kills every diagonal idempotent and acts on
    slot j as the plane rotation generator of span(a, b).
    """
    uv = oct._coerce(u)
    vv = oct._coerce(v)
    # the rotation is scale-invariant; dividing both vectors by a common power
    # of two is exact, keeps their squared norms in range, and scales every
    # comparison below (floor = the scaled 1 of max(1, |u|)) without rounding
    _, e = math.frexp(float(max(np.abs(uv).max(), np.abs(vv).max())))
    e = max(e, -1000)  # keeps floor finite for subnormal input
    us, vs = np.ldexp(uv, -e), np.ldexp(vv, -e)
    floor = math.ldexp(1.0, -e)
    nu = float(np.linalg.norm(us))
    nv = float(np.linalg.norm(vs))
    if nu <= 0 or nv <= 0:
        raise ValueError("u and v must be nonzero")
    if abs(nu - nv) > 1e-9 * max(floor, nu):
        with np.errstate(over="ignore"):
            nu, nv = float(np.linalg.norm(uv)), float(np.linalg.norm(vv))
        raise ValueError(f"norm mismatch: |u| = {nu}, |v| = {nv}")
    uhat = us / nu
    vhat = vs / nu
    gamma = float(uhat @ vhat)
    w = vhat - gamma * uhat
    w -= (w @ uhat) * uhat  # second orthogonalization pass
    wn = float(np.linalg.norm(w))
    if wn < 1e-13:
        if gamma > 0:
            return identity()
        # antipodal: rotate by pi in any plane through u
        k = int(np.argmin(np.abs(uhat)))
        b = np.zeros(8)
        b[k] = 1.0
        b -= (b @ uhat) * uhat
        bhat = b / np.linalg.norm(b)
        dlt = 0.0
    else:
        bhat = w / wn
        dlt = float(vhat @ bhat)
    # the bracket of two derivations is one; expm checks it once
    ga, gb = _gen_A_matrix(j, uhat), _gen_A_matrix(j, bhat)
    gen = AlgebraElement(ga @ gb - gb @ ga, check=False) * 0.25
    S = gen.mat[_SLOTS[j - 1], _SLOTS[j - 1]]
    su = S @ uhat
    s = float(bhat @ su)
    # on span(u, b) the slot action must be u -> s b, b -> -s u with |s| = 1
    if (
        abs(abs(s) - 1.0) > 1e-9
        or np.linalg.norm(su - s * bhat) > 1e-9
        or np.linalg.norm(S @ bhat + s * uhat) > 1e-9
    ):
        raise RotationError("slot action of the rotation generator is not a plane rotation")
    # exp(theta*gen) maps uhat to cos(theta) uhat + s sin(theta) bhat
    theta = math.atan2(dlt * s, gamma)
    k = expm(gen * theta)
    got = k.mat @ F(j, us).vec
    want = F(j, vs).vec
    if np.linalg.norm(got - want) > group_tol() * max(floor, nu):
        raise RotationError("rotation solve failed to reach the target")
    return k


_M_BASIS_CACHE: list[AlgebraElement] | None = None


def m_basis() -> list[AlgebraElement]:
    """Numerical basis of the 21-dimensional subalgebra killing
    E1, E2, E3 and F(3, 1) (the Lie algebra of the little group M)."""
    global _M_BASIS_CACHE
    if _M_BASIS_CACHE is None:
        basis = basis52()
        H = gen_A(3, 1).mat
        # constraints: [phi, H] = 0 (centralizes the torus) and phi E1 = 0
        # (lies in the maximal compact subalgebra)
        rows = []
        for b in basis:
            comm = b.mat @ H - H @ b.mat
            rows.append(np.concatenate([comm.ravel(), b.mat @ E1.vec]))
        A = np.stack(rows).T  # (729 + 27, 52)
        U, svals, Vt = np.linalg.svd(A, full_matrices=True)
        null_dim = int(np.sum(svals < svals[0] * 1e-9)) + (52 - len(svals))
        if null_dim != 21:
            raise RuntimeError(f"centralizer dimension {null_dim}, expected 21")
        coords = Vt[-null_dim:]
        flat = np.stack([b.mat.ravel() for b in basis])
        out = []
        for c in coords:
            m = (c @ flat).reshape(27, 27)
            out.append(AlgebraElement(m / np.linalg.norm(m), check=False))
        _M_BASIS_CACHE = out
    return _M_BASIS_CACHE


@dataclass
class ThetaEpsReport:
    """Deviations of the twisted Cartan conjugation from its predicted
    action on each graded piece, plus the Weyl-element sign check."""

    dev_zero: float  # centralizer piece: the two conjugations agree
    dev_alpha: float  # single-root piece: conjugations differ by -1
    dev_2alpha: float  # double-root piece: conjugations agree
    dev_weyl: float  # sigma(1) negates the torus generator
    grading_residual: float  # eigenprojection reconstruction error

    @property
    def max_deviation(self) -> float:
        return max(
            self.dev_zero, self.dev_alpha, self.dev_2alpha, self.dev_weyl,
            self.grading_residual,
        )


def theta_eps_check() -> ThetaEpsReport:
    H = gen_A(3, 1).mat
    s1 = _sigma1()
    s2 = sigma(2).mat
    eigs = (-2.0, -1.0, 0.0, 1.0, 2.0)
    sign_for = {0.0: 1.0, 1.0: -1.0, -1.0: -1.0, 2.0: 1.0, -2.0: 1.0}
    devs = {0.0: 0.0, 1.0: 0.0, 2.0: 0.0}
    grad_res = 0.0
    for b in basis52():
        stack = [b.mat]
        for _ in range(4):
            x = stack[-1]
            stack.append(H @ x - x @ H)
        parts = {}
        for lam in eigs:
            coeff = np.array([1.0])
            denom = 1.0
            for mu in eigs:
                if mu == lam:
                    continue
                coeff = np.convolve(coeff, np.array([1.0, -mu]))
                denom *= lam - mu
            # coeff is highest-degree-first for the degree-4 polynomial
            part = np.zeros((27, 27))
            deg = len(coeff) - 1
            for idx, c in enumerate(coeff):
                part += c * stack[deg - idx]
            parts[lam] = part / denom
        recon = sum(parts.values()) - b.mat
        grad_res = max(grad_res, float(np.linalg.norm(recon)))
        for lam, part in parts.items():
            eps = sign_for[lam]
            lhs = s2 @ part @ s2
            rhs = eps * (s1 @ part @ s1)
            devs[abs(lam)] = max(devs[abs(lam)], float(np.linalg.norm(lhs - rhs)))
    dev_weyl = float(np.linalg.norm(s1 @ H @ s1 + H))
    return ThetaEpsReport(
        dev_zero=devs[0.0],
        dev_alpha=devs[1.0],
        dev_2alpha=devs[2.0],
        dev_weyl=dev_weyl,
        grading_residual=grad_res,
    )
