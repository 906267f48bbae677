"""Group words: a small product language over the generator families.

Atoms name the slot boosts A1..A3, the nilpotent flows G1, G2, Gm1, Gm2,
the diagonal reflections S1..S3, and the slot rotations D4. Words multiply
left to right, powers repeat a factor and negative powers invert it. The
printer emits a canonical form whose parse returns an equal tree.

Evaluation multiplies the atom matrices as plain arrays, inverts by the
pairing adjoint W^-1 g^T W, which rounds nothing, and verifies the word's
value once: inside a product G and D4 atoms are unverified matrices with
the public constructors' input checks and bits. `eval_word` says which
atoms are verified on their own.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import liegroup as lg
from .liegroup import GroupElement
from .octonion import Octonion, format_octonion, parse_octonion

__all__ = [
    "WordSyntaxError",
    "AtomA",
    "AtomG",
    "AtomS",
    "AtomD4",
    "Power",
    "Product",
    "GroupWord",
    "parse",
    "print_word",
    "eval_word",
]


class WordSyntaxError(ValueError):
    """Malformed word text; carries the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"syntax error at position {pos}: {message}")
        self.pos = pos


@dataclass(frozen=True)
class AtomA:
    i: int
    t: float
    a: Octonion


@dataclass(frozen=True)
class AtomG:
    level: int
    x: Octonion


@dataclass(frozen=True)
class AtomS:
    i: int


@dataclass(frozen=True)
class AtomD4:
    j: int
    u: Octonion
    v: Octonion


@dataclass(frozen=True)
class Power:
    base: "GroupWord"
    n: int


@dataclass(frozen=True)
class Product:
    factors: tuple["GroupWord", ...]


GroupWord = Union[AtomA, AtomG, AtomS, AtomD4, Power, Product]

_G_NAMES = {1: "G1", 2: "G2", -1: "Gm1", -2: "Gm2"}
# the delimiter sets that end a literal segment
_STOP_RES = {stops: re.compile(f"[{re.escape(stops)}]") for stops in (";)", ")", ",)")}


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.pos = 0

    def error(self, message: str, pos: int | None = None):
        raise WordSyntaxError(message, self.pos if pos is None else pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        if self.pos >= len(self.src):
            return ""
        return self.src[self.pos]

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            got = self.peek() or "end of input"
            self.error(f"expected {ch!r}, got {got!r}")
        self.pos += 1

    def scan_until(self, stops: str) -> tuple[str, int]:
        # raw segment up to the next delimiter, used for numeric and
        # octonion literals which never contain parens or separators
        self.skip_ws()
        start = self.pos
        found = _STOP_RES[stops].search(self.src, start)
        self.pos = found.start() if found else len(self.src)
        return self.src[start : self.pos], start

    def parse_digit(self, allowed: str, what: str) -> int:
        c = self.peek()
        if c not in allowed or c == "":
            self.error(f"expected {what} in {sorted(allowed)}")
        self.pos += 1
        return int(c)

    def parse_int(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.src) and self.src[self.pos] in "+-":
            self.pos += 1
        while self.pos < len(self.src) and self.src[self.pos].isdigit():
            self.pos += 1
        txt = self.src[start : self.pos]
        try:
            return int(txt)
        except ValueError:
            self.error("expected an integer", start)

    def parse_real(self, segment: str, start: int) -> float:
        try:
            value = float(segment)
        except ValueError:
            self.error(f"bad numeric literal {segment.strip()!r}", start)
        if not math.isfinite(value):
            self.error(f"numeric literal {segment.strip()!r} is not finite", start)
        return value

    def parse_oct(self, segment: str, start: int) -> Octonion:
        try:
            # an overflowing coefficient sum is refused below, without warnings
            with np.errstate(over="ignore"):
                value = parse_octonion(segment)
        except ValueError as exc:
            self.error(str(exc), start)
        if not np.isfinite(value.coeffs).all():
            self.error(f"octonion literal {segment.strip()!r} is not finite", start)
        return value

    def parse_word(self) -> GroupWord:
        factors = [self.parse_factor()]
        while self.peek() == "*":
            self.pos += 1
            factors.append(self.parse_factor())
        if len(factors) == 1:
            return factors[0]
        return Product(tuple(factors))

    def parse_factor(self) -> GroupWord:
        atom = self.parse_atom()
        if self.peek() == "^":
            self.pos += 1
            return Power(atom, self.parse_int())
        return atom

    def parse_atom(self) -> GroupWord:
        c = self.peek()
        if c == "(":
            self.pos += 1
            inner = self.parse_word()
            self.expect(")")
            return inner
        if c == "A":
            self.pos += 1
            i = self.parse_digit("123", "slot index")
            self.expect("(")
            seg, start = self.scan_until(";)")
            if self.peek() != ";":
                self.error("expected ';' between the parameter and the direction")
            t = self.parse_real(seg, start)
            self.pos += 1
            seg, start = self.scan_until(")")
            a = self.parse_oct(seg, start)
            self.expect(")")
            return AtomA(i, t, a)
        if c == "G":
            self.pos += 1
            sign = 1
            if self.peek() == "m":
                self.pos += 1
                sign = -1
            level = sign * self.parse_digit("12", "nilpotent level")
            self.expect("(")
            seg, start = self.scan_until(")")
            x = self.parse_oct(seg, start)
            self.expect(")")
            return AtomG(level, x)
        if c == "S":
            self.pos += 1
            return AtomS(self.parse_digit("123", "slot index"))
        if c == "D":
            self.pos += 1
            if self.peek() != "4":
                self.error("expected '4' after 'D'")
            self.pos += 1
            self.expect("(")
            j = self.parse_int()
            self.expect(",")
            seg, start = self.scan_until(",)")
            if self.peek() != ",":
                self.error("expected ',' between the rotation arguments")
            u = self.parse_oct(seg, start)
            self.pos += 1
            seg, start = self.scan_until(")")
            v = self.parse_oct(seg, start)
            self.expect(")")
            return AtomD4(j, u, v)
        got = c or "end of input"
        self.error(f"expected an atom, got {got!r}")


def parse(src: str) -> GroupWord:
    """Parse a word; raises WordSyntaxError with the offending position."""
    p = _Parser(src)
    word = p.parse_word()
    if p.peek() != "":
        p.error(f"unexpected trailing input {p.peek()!r}")
    return word


def _fmt_real(t: float) -> str:
    return repr(float(t))


def print_word(word: GroupWord) -> str:
    """Canonical text form; parsing it returns an equal tree."""
    if isinstance(word, AtomA):
        return f"A{word.i}({_fmt_real(word.t)};{format_octonion(word.a.coeffs)})"
    if isinstance(word, AtomG):
        return f"{_G_NAMES[word.level]}({format_octonion(word.x.coeffs)})"
    if isinstance(word, AtomS):
        return f"S{word.i}"
    if isinstance(word, AtomD4):
        u = format_octonion(word.u.coeffs)
        v = format_octonion(word.v.coeffs)
        return f"D4({word.j},{u},{v})"
    if isinstance(word, Power):
        inner = print_word(word.base)
        if isinstance(word.base, (Product, Power)):
            inner = f"({inner})"
        return f"{inner}^{word.n}"
    if isinstance(word, Product):
        parts = []
        for f in word.factors:
            txt = print_word(f)
            if isinstance(f, Product):
                txt = f"({txt})"
            parts.append(txt)
        return "*".join(parts)
    raise TypeError(f"not a group word: {word!r}")


def eval_word(word: GroupWord) -> GroupElement:
    """Left-to-right product of the atom matrices, verified once.

    A lone atom is the public verified element (`exp_A`, `exp_N`, `sigma`,
    `d4_rotate`). Inside a product or power, G atoms enter as the closed
    form `liegroup._exp_N_matrix` and D4 atoms as the rotation matrix
    `liegroup._d4_rotate_matrix`, each with its public twin's input checks
    and bits, and only the word's value passes the gate; A atoms are still
    verified elements there and S atoms the cached verified constants.
    """
    # an overflowing atom or product leaves non-finite entries, which the
    # gate refuses; it is not reported as floating-point warnings
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(word, (Power, Product)):
            return GroupElement(_eval_matrix(word))
        return _eval_atom(word)


def _eval_atom(word: GroupWord) -> GroupElement:
    if isinstance(word, AtomA):
        return lg.exp_A(word.i, word.t, word.a)
    if isinstance(word, AtomG):
        return lg.exp_N(*_exp_N_args(word))
    if isinstance(word, AtomS):
        return lg.sigma(word.i)
    if isinstance(word, AtomD4):
        return lg.d4_rotate(word.j, word.u, word.v)
    raise TypeError(f"not a group word: {word!r}")


def _eval_matrix(word: GroupWord) -> np.ndarray:
    if isinstance(word, Power):
        base = _eval_matrix(word.base)
        if word.n == 0:  # I only where X alone evaluates: its checks and its gate
            GroupElement(base)
            return lg.identity().mat
        return _power(base if word.n > 0 else lg._adjoint(base), abs(word.n))
    if isinstance(word, Product):
        out = _eval_matrix(word.factors[0])
        for f in word.factors[1:]:
            out = out @ _eval_matrix(f)
        return out
    if isinstance(word, AtomG):
        return lg._exp_N_matrix(*_exp_N_args(word))
    if isinstance(word, AtomD4):
        return lg._d4_rotate_matrix(word.j, word.u, word.v)
    return _eval_atom(word).mat


def _exp_N_args(atom: AtomG) -> tuple[int, Octonion, Octonion]:
    """exp_N's (level, x, p) for a G atom: G1(x) and Gm1(x) are
    exp_N(+-1, x, 0), G2(x) and Gm2(x) are exp_N(+-1, 0, x)."""
    level = 1 if atom.level > 0 else -1
    if abs(atom.level) == 1:
        return level, atom.x, Octonion.zero()
    return level, Octonion.zero(), atom.x


def _power(m: np.ndarray, n: int) -> np.ndarray:
    """m^n for n >= 1 by repeated squaring. For n <= 2 the products are
    the left-to-right ones, so small powers keep their bits."""
    out = None
    while True:
        if n & 1:
            out = m if out is None else out @ m
        n >>= 1
        if not n:
            return out
        m = m @ m
