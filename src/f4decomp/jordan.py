"""A 27-dimensional real exceptional Jordan algebra with split-signature pairing.

Elements are Hermitian 3x3 octonionic matrices in a twisted real form: the
two off-diagonal slots coupling to the first diagonal entry carry a factor
sqrt(-1), which flips the sign of their contribution to the pairing and to
the determinant. An element is stored as 27 real coordinates

    vec[0:3]   xi_1, xi_2, xi_3   (diagonal)
    vec[3:11]  x_1                (octonion slot opposite xi_1)
    vec[11:19] x_2                (octonion slot opposite xi_2, twisted)
    vec[19:27] x_3                (octonion slot opposite xi_3, twisted)

and the matrix realization is never materialized. The pairing is

    (X|Y) = sum_i xi_i eta_i + 2 (x_1|y_1) - 2 (x_2|y_2) - 2 (x_3|y_3),

the determinant is the usual octonionic 3x3 formula with the twisted slots
entering with flipped sign, and the Jordan product is recovered from the
quadratic adjoint (the "cross square") by polarization.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import octonion as oct
from .config import member_tol
from .octonion import Octonion

__all__ = [
    "JordanElement",
    "h1",
    "diag_unit",
    "F",
    "Qplus",
    "Qminus",
    "E1",
    "E2",
    "E3",
    "E",
    "P_PLUS",
    "P_MINUS",
    "P13_MINUS",
    "SIGMA_P_MINUS",
    "trace",
    "inner",
    "cross_square",
    "cross",
    "det",
    "jordan_mul",
    "mul_tensor",
    "OrbitMembership",
    "classify",
    "ray_rep",
    "s15_from",
    "s15_to",
    "basis27",
]

# pairing weights per coordinate: diagonal 1, first slot +2, twisted slots -2
_WEIGHTS = np.concatenate([np.ones(3), 2 * np.ones(8), -2 * np.ones(8), -2 * np.ones(8)])
_WEIGHTS.setflags(write=False)


class JordanElement:
    """Element of the algebra, a thin wrapper over 27 real coordinates."""

    __slots__ = ("vec",)

    def __init__(self, vec):
        arr = np.asarray(vec, dtype=float)
        if arr.shape != (27,):
            raise ValueError(f"need 27 coordinates, got shape {arr.shape}")
        self.vec = arr

    @property
    def xi(self) -> np.ndarray:
        return self.vec[:3]

    def slot(self, i: int) -> np.ndarray:
        """Raw 8-vector of octonion slot i (1, 2 or 3)."""
        if i not in (1, 2, 3):
            raise ValueError(f"slot index must be 1, 2 or 3, got {i}")
        return self.vec[3 + 8 * (i - 1) : 11 + 8 * (i - 1)]

    def x(self, i: int) -> Octonion:
        return Octonion(self.slot(i).copy())

    def copy(self) -> "JordanElement":
        return JordanElement(self.vec.copy())

    def norm(self) -> float:
        """Euclidean norm of the coordinate vector (used for tolerances)."""
        return float(np.linalg.norm(self.vec))

    def __add__(self, other):
        return JordanElement(self.vec + other.vec)

    def __sub__(self, other):
        return JordanElement(self.vec - other.vec)

    def __neg__(self):
        return JordanElement(-self.vec)

    def __mul__(self, scalar):
        return JordanElement(self.vec * float(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return JordanElement(self.vec / float(scalar))

    def __eq__(self, other):
        if not isinstance(other, JordanElement):
            return NotImplemented
        return bool(np.array_equal(self.vec, other.vec))

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0: equal elements hash equal
        return hash((self.vec + 0.0).tobytes())

    def __repr__(self):
        xs = ", ".join(oct.format_octonion(self.slot(i)) for i in (1, 2, 3))
        return f"h1({self.vec[0]:.6g}, {self.vec[1]:.6g}, {self.vec[2]:.6g}; {xs})"


def h1(xi1: float, xi2: float, xi3: float, x1=0.0, x2=0.0, x3=0.0) -> JordanElement:
    vec = np.empty(27)
    vec[0], vec[1], vec[2] = float(xi1), float(xi2), float(xi3)
    vec[3:11] = oct._coerce(x1)
    vec[11:19] = oct._coerce(x2)
    vec[19:27] = oct._coerce(x3)
    return JordanElement(vec)


def diag_unit(i: int) -> JordanElement:
    xi = [0.0, 0.0, 0.0]
    xi[i - 1] = 1.0
    return h1(*xi)


def F(i: int, a) -> JordanElement:
    """Element with octonion a in slot i and everything else zero."""
    vec = np.zeros(27)
    vec[3 + 8 * (i - 1) : 11 + 8 * (i - 1)] = oct._coerce(a)
    return JordanElement(vec)


def Qplus(x) -> JordanElement:
    """h1(0,0,0; x, conj(x), 0)."""
    c = oct._coerce(x)
    return h1(0, 0, 0, c, oct.conj_vec(c), 0)


def Qminus(x) -> JordanElement:
    """h1(0,0,0; x, -conj(x), 0)."""
    c = oct._coerce(x)
    return h1(0, 0, 0, c, -oct.conj_vec(c), 0)


E1 = diag_unit(1)
E2 = diag_unit(2)
E3 = diag_unit(3)
E = h1(1, 1, 1)

P_PLUS = h1(1, -1, 0, 0, 0, 1)
P_MINUS = h1(-1, 1, 0, 0, 0, 1)
P13_MINUS = h1(-1, 0, 1, 0, 1, 0)
SIGMA_P_MINUS = h1(-1, 1, 0, 0, 0, -1)


def trace(X: JordanElement) -> float:
    return float(X.vec[0] + X.vec[1] + X.vec[2])


def inner(X: JordanElement, Y: JordanElement) -> float:
    return float(X.vec @ (_WEIGHTS * Y.vec))


def cross_square(X):
    """Quadratic adjoint: the unique quadratic map with X^x2 = cross(X, X).

    Vanishes exactly on the rank-one cone; its diagonal entries are the 2x2
    cofactors of the twisted matrix realization. Takes a JordanElement, or
    an (..., 27) array of coordinate rows and returns the (..., 27) rows.
    """
    if isinstance(X, JordanElement):
        return JordanElement(cross_square(X.vec))
    xi1, xi2, xi3 = X[..., 0], X[..., 1], X[..., 2]
    x1, x2, x3 = X[..., 3:11], X[..., 11:19], X[..., 19:27]
    # slot norms as stacked dot products, bit-equal to x @ x per row
    n1, n2, n3 = (np.matmul(x[..., None, :], x[..., :, None])[..., 0, 0] for x in (x1, x2, x3))
    out = np.empty(X.shape)
    out[..., 0] = xi2 * xi3 - n1
    out[..., 1] = xi3 * xi1 + n2
    out[..., 2] = xi1 * xi2 + n3
    out[..., 3:11] = -oct.conj_vec(oct.mul_batch(x2, x3)) - xi1[..., None] * x1
    out[..., 11:19] = oct.conj_vec(oct.mul_batch(x3, x1)) - xi2[..., None] * x2
    out[..., 19:27] = oct.conj_vec(oct.mul_batch(x1, x2)) - xi3[..., None] * x3
    return out


def cross(X, Y):
    """Symmetric bilinear form polarizing cross_square; cross(X,X) = X^x2.
    Takes two JordanElements, or two arrays of rows that broadcast."""
    if isinstance(X, JordanElement):
        return JordanElement(cross(X.vec, Y.vec))
    return 0.5 * (cross_square(X + Y) - cross_square(X) - cross_square(Y))


def det(X: JordanElement) -> float:
    """Cubic norm via the adjoint pairing (X|X^x2)/3."""
    return inner(X, cross_square(X)) / 3.0


def jordan_mul(X, Y):
    """Jordan product, recovered from the cross form and traces. Takes two
    JordanElements, or two arrays of rows that broadcast."""
    if isinstance(X, JordanElement):
        return JordanElement(jordan_mul(X.vec, Y.vec))
    tx, ty = X[..., :1] + X[..., 1:2] + X[..., 2:3], Y[..., :1] + Y[..., 1:2] + Y[..., 2:3]
    # pairings as stacked dot products, bit-equal to inner per row
    pair = tx * ty - np.matmul(X[..., None, :], (_WEIGHTS * Y)[..., :, None])[..., 0]
    return cross(X, Y) + 0.5 * (tx * Y + ty * X - pair * E.vec)


@functools.cache
def mul_tensor() -> np.ndarray:
    """(27,27,27) tensor J with (e_i o e_j)_k = J[i,j,k] over basis27:
    jordan_mul on the basis rows e_i, broadcast against the rows e_j."""
    eye = np.eye(27)
    J = jordan_mul(eye[:, None], eye[None])
    J.setflags(write=False)
    return J


def basis27() -> list[JordanElement]:
    """Standard coordinate basis: unit vectors of the 27-dim representation."""
    out = []
    for k in range(27):
        v = np.zeros(27)
        v[k] = 1.0
        out.append(JordanElement(v))
    return out


# The graded basis V: integer eigenvectors of the torus generator
# gen_A(3, 1) as columns, in descending grade 2, 1 (x8), 0 (x9), -1 (x8), -2:
#   [-P^-, Qplus(e0..e7), E1+E2, E3, F(3,e1..e7), Qminus(e0..e7), P^+].
# The columns are orthogonal for |W| (W the pairing weights), with squared
# norms _GRAM = 4, 4 (x8), 2, 1, 2 (x7), 4 (x8), 4, so the exact inverse is
# V^-1 = _GRAM^-1 V^T |W|, with entries 0, +-1/4, +-1/2, +-1. The torus, the
# nilpotent groups and the factorizations are all read off this grading.


def _graded_basis() -> np.ndarray:
    units = np.eye(8)
    cols = [
        -P_MINUS.vec,
        *(Qplus(u).vec for u in units),
        (E1 + E2).vec,
        E3.vec,
        *(F(3, u).vec for u in units[1:]),
        *(Qminus(u).vec for u in units),
        P_PLUS.vec,
    ]
    # + 0.0 turns the negated zeros of -P^- and the conjugates into +0.0
    return np.column_stack(cols) + 0.0


_V = _graded_basis()
_GRADES = np.repeat([2.0, 1.0, 0.0, -1.0, -2.0], [1, 8, 9, 8, 1])
_GRAM = np.einsum("ij,i,ij->j", _V, np.abs(_WEIGHTS), _V)
_V_INV = _V.T * np.abs(_WEIGHTS) / _GRAM[:, None]
for _a in (_V, _GRADES, _GRAM, _V_INV):
    _a.setflags(write=False)


@dataclass
class OrbitMembership:
    in_R1: bool  # rank-one cone minus the origin
    in_H: bool  # trace-one sheet through E1 (compact orbit)
    in_Hp: bool  # trace-one sheet through E2
    in_N1p: bool  # trace-zero cone, positive pairing with E1
    in_N1m: bool  # trace-zero cone, negative pairing with E1


def classify(X: JordanElement) -> OrbitMembership:
    """Orbit membership with scale-normalized tolerances.

    The quadratic test uses tol * max(1, |X|^2), linear tests
    tol * max(1, |X|). The two trace-one sheets are separated by the
    pairing with E1, which is >= 1 on one and <= 0 on the other, so the
    midpoint 1/2 is a robust separator.
    """
    tol = member_tol()
    nrm = X.norm()
    qtol = tol * max(1.0, nrm * nrm)
    ltol = tol * max(1.0, nrm)
    rank_one = cross_square(X).norm() <= qtol and nrm > ltol
    tr = trace(X)
    pair1 = inner(X, E1)
    trace_one = abs(tr - 1.0) <= ltol
    trace_zero = abs(tr) <= ltol
    return OrbitMembership(
        in_R1=rank_one,
        in_H=rank_one and trace_one and pair1 >= 0.5,
        in_Hp=rank_one and trace_one and pair1 < 0.5,
        in_N1p=rank_one and trace_zero and pair1 > ltol,
        in_N1m=rank_one and trace_zero and pair1 < -ltol,
    )


def ray_rep(X: JordanElement) -> JordanElement:
    """Scale X on its ray so that (X|E1) = -1."""
    pair = inner(X, E1)
    if not pair < 0:
        raise ValueError(f"ray normalization needs (X|E1) < 0, got {pair}")
    return X / (-pair)


def s15_from(x, y) -> JordanElement:
    """Point of the trace-zero negative cone attached to (x, y) on the
    15-sphere (x|x) + (y|y) = 1; returns the representative with
    (X|E1) = -1."""
    xo = Octonion(oct._coerce(x))
    yo = Octonion(oct._coerce(y))
    nx, ny = xo.norm_sq(), yo.norm_sq()
    if abs(nx + ny - 1.0) > 1e-12 * max(1.0, nx + ny):
        raise ValueError(f"(x|x)+(y|y) = {nx + ny}, need 1")
    x1 = oct.conj_vec(oct.mul_batch(xo.coeffs, yo.coeffs))
    return h1(-1.0, ny, nx, x1, xo.coeffs, yo.coeffs)


def s15_to(X: JordanElement) -> tuple[Octonion, Octonion]:
    """Inverse of s15_from on rays of the trace-zero negative cone."""
    R = ray_rep(X)
    return R.x(2), R.x(3)
