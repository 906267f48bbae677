"""Octonion arithmetic over an orthonormal basis e0..e7 (e0 = 1).

The multiplication table is stated by its seven oriented quaternionic lines

    (1,2,3)  (1,4,5)  (2,4,6)  (3,4,7)  (1,7,6)  (2,5,7)  (3,6,5)

(Baez, The Octonions, Bull. AMS 39, 2002): e0 is the unit, e_i^2 = -1 for
i >= 1, and for each line and its two cyclic shifts (a, b, c),
e_a e_b = e_c = -e_b e_a. These are the lines of Cayley-Dickson doubling
of the quaternions, (a, b)(c, d) = (a c - conj(d) b, d a + b conj(c)), with
e1 e2 = e3 and doubling unit e4: it gives

    e1 e4 = e5,   e2 e4 = e6,   e3 e4 = e7,

and the last three lines follow from these by the same rule. Components
0..3 of the 8-vector are the first quaternion, 4..7 the second.

Octonions are non-associative but alternative; conjugation negates e1..e7
and is an anti-homomorphism; the norm is multiplicative. All of these are
exercised by the property tests rather than assumed.
"""

from __future__ import annotations

import re as _re

import numpy as np

__all__ = [
    "Octonion",
    "mul",
    "conj",
    "re",
    "im",
    "inner",
    "norm_sq",
    "mul_vec",
    "conj_vec",
    "mul_batch",
    "left_mul_matrix",
    "right_mul_matrix",
    "parse_octonion",
    "format_octonion",
    "MUL_TENSOR",
]


# the oriented lines (a, b, c) of the module docstring
_LINES = ((1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 4, 7), (1, 7, 6), (2, 5, 7), (3, 6, 5))


def _build_mul_tensor() -> np.ndarray:
    # M[i, j, k] = coefficient of e_k in e_i e_j; entries are 0, +1, -1
    tensor = np.zeros((8, 8, 8))
    units = np.arange(8)
    tensor[0, units, units] = tensor[units, 0, units] = 1.0
    tensor[units[1:], units[1:], 0] = -1.0
    for a, b, c in _LINES:
        for i, j, k in ((a, b, c), (b, c, a), (c, a, b)):
            tensor[i, j, k] = 1.0
            tensor[j, i, k] = -1.0
    return tensor


MUL_TENSOR = _build_mul_tensor()
MUL_TENSOR.setflags(write=False)

_CONJ_SIGNS = np.array([1.0, -1, -1, -1, -1, -1, -1, -1])
_CONJ_SIGNS.setflags(write=False)


def mul_vec(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Product of two raw 8-vectors."""
    return np.einsum("i,ijk,j->k", x, MUL_TENSOR, y)


def mul_batch(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Row-wise products of two (..., 8) arrays."""
    return np.einsum("...i,ijk,...j->...k", xs, MUL_TENSOR, ys)


def conj_vec(x: np.ndarray) -> np.ndarray:
    return x * _CONJ_SIGNS


def left_mul_matrix(a: np.ndarray) -> np.ndarray:
    """8x8 matrix L with L y = a y."""
    return np.einsum("ijk,i->kj", MUL_TENSOR, a)


def right_mul_matrix(a: np.ndarray) -> np.ndarray:
    """8x8 matrix R with R x = x a."""
    return np.einsum("ijk,j->ki", MUL_TENSOR, a)


class Octonion:
    """An octonion stored as an 8-vector of real coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        arr = np.asarray(coeffs, dtype=float)
        if arr.shape != (8,):
            raise ValueError(f"octonion needs 8 coefficients, got shape {arr.shape}")
        self.coeffs = arr

    @classmethod
    def zero(cls) -> "Octonion":
        return cls(np.zeros(8))

    @classmethod
    def one(cls) -> "Octonion":
        return cls.unit(0)

    @classmethod
    def unit(cls, i: int) -> "Octonion":
        v = np.zeros(8)
        v[i] = 1.0
        return cls(v)

    @classmethod
    def from_scalar(cls, s: float) -> "Octonion":
        v = np.zeros(8)
        v[0] = float(s)
        return cls(v)

    @classmethod
    def from_imag7(cls, p) -> "Octonion":
        arr = np.asarray(p, dtype=float)
        if arr.shape != (7,):
            raise ValueError(f"imaginary part needs 7 coefficients, got {arr.shape}")
        v = np.zeros(8)
        v[1:] = arr
        return cls(v)

    # arithmetic

    def __add__(self, other):
        return Octonion(self.coeffs + _coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return Octonion(self.coeffs - _coerce(other))

    def __rsub__(self, other):
        return Octonion(_coerce(other) - self.coeffs)

    def __neg__(self):
        return Octonion(-self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Octonion(self.coeffs * float(other))
        return Octonion(mul_vec(self.coeffs, _coerce(other)))

    def __rmul__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Octonion(self.coeffs * float(other))
        return Octonion(mul_vec(_coerce(other), self.coeffs))

    def __truediv__(self, scalar):
        return Octonion(self.coeffs / float(scalar))

    def __eq__(self, other):
        if not isinstance(other, Octonion):
            return NotImplemented
        return bool(np.array_equal(self.coeffs, other.coeffs))

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0: equal elements hash equal
        return hash((self.coeffs + 0.0).tobytes())

    def conj(self) -> "Octonion":
        return Octonion(conj_vec(self.coeffs))

    def re(self) -> float:
        return float(self.coeffs[0])

    def im(self) -> "Octonion":
        v = self.coeffs.copy()
        v[0] = 0.0
        return Octonion(v)

    def norm_sq(self) -> float:
        return float(self.coeffs @ self.coeffs)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def __repr__(self):
        return f"Octonion({format_octonion(self)})"


def _coerce(x) -> np.ndarray:
    if isinstance(x, Octonion):
        return x.coeffs
    if isinstance(x, (int, float, np.floating, np.integer)):
        v = np.zeros(8)
        v[0] = float(x)
        return v
    arr = np.asarray(x, dtype=float)
    if arr.shape != (8,):
        raise TypeError(f"cannot interpret {x!r} as an octonion")
    return arr


def mul(x, y) -> Octonion:
    return Octonion(mul_vec(_coerce(x), _coerce(y)))


def conj(x) -> Octonion:
    return Octonion(conj_vec(_coerce(x)))


def re(x) -> float:
    return float(_coerce(x)[0])


def im(x) -> Octonion:
    v = _coerce(x).copy()
    v[0] = 0.0
    return Octonion(v)


def inner(x, y) -> float:
    """Euclidean pairing (x|y); coincides with re(x * conj(y))."""
    return float(_coerce(x) @ _coerce(y))


def norm_sq(x) -> float:
    return inner(x, x)


# Octonion literals, shared with the word DSL. A literal is a signed sum of
# terms `coeff`, `ek`, or `coeff ek` with k in 1..7, e.g. "1+2e3-0.5e7".
# Coefficients are plain decimals; exponent notation is unavailable because
# "e" introduces a basis token.

# One term per match: sign, coefficient, basis token, then the whitespace
# after the term, so a match ends where the next term starts.
_TERM_RE = _re.compile(
    r"\s*([+-])?\s*"
    r"(?:(\d+\.\d*|\.\d+|\d+)(?:\s*\*?\s*)?)?"
    r"(e[1-7])?\s*"
)


def parse_octonion(text: str) -> Octonion:
    """Parse a literal like '1+2e3-0.5e7'; raises ValueError on bad syntax."""
    coeffs = np.zeros(8)
    pos = 0
    n = len(text)
    while pos < n:
        m = _TERM_RE.match(text, pos)
        sign, num, basis = m.groups()
        if num is None and basis is None:
            raise ValueError(f"bad octonion literal {text!r} at position {pos}")
        if pos and sign is None:
            raise ValueError(f"missing +/- between terms in {text!r} at position {pos}")
        value = float(num) if num is not None else 1.0
        coeffs[int(basis[1]) if basis is not None else 0] += -value if sign == "-" else value
        pos = m.end()
    if not pos:
        raise ValueError(f"empty octonion literal {text!r}")
    return Octonion(coeffs)


def _format_coeff(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    # positional notation only: 'e' would read as a basis token
    return np.format_float_positional(v, unique=True, trim="-")


def format_octonion(x) -> str:
    """Canonical literal; parse(format(x)) reproduces x exactly."""
    coeffs = _coerce(x)
    parts = []
    for i in range(8):
        v = float(coeffs[i])
        if v == 0.0:
            continue
        mag = _format_coeff(abs(v))
        if i == 0:
            body = mag
        else:
            body = f"e{i}" if mag == "1" else f"{mag}e{i}"
        if not parts:
            parts.append(body if v > 0 else "-" + body)
        else:
            parts.append(("+" if v > 0 else "-") + body)
    if not parts:
        return "0"
    return "".join(parts)
