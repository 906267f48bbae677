"""Shared fixtures and samplers for the test suite."""

import numpy as np
import pytest
from hypothesis import settings

from f4decomp import config
from f4decomp import liegroup as lg
from f4decomp.octonion import Octonion, format_octonion
from f4decomp.wordlang import eval_word, parse

# property tests draw the same examples on every run and keep no example
# database in the checkout, so a run's outcome depends only on the code
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

SEED = 20260815

# a scale-2, length-8 word deep in the open Bruhat cell: its m-factor from
# the graded block LDU fails the automorphism gate (residual about 3), which
# gauss reports as DegenerateCell
DEEP_GAUSS_WORD = (
    "Gm2(-2.0220420630538007e1+2.2132148935996128e2-2.6435424081038574e3"
    "-3.0388037753868335e4-1.9357086177979839e5-2.313722454128201e6+1.6974028791467692e7)"
    "*A3(-1.8088990309688444;-0.1602642895168227+0.006773533741557173e1"
    "+0.16999001001993547e2-0.442463229755924e3-0.008695231628060622e4"
    "+0.22888752659859135e5+0.3188164079262703e6-0.771680085725427e7)"
    "*Gm1(1.597247535934042-3.1248880153004137e1+1.691256342986067e2"
    "-5.549389897313367e3-1.2561890721941638e4-1.0815963803822606e5"
    "+1.4773476169479813e6+1.6140944927961554e7)"
    "*Gm1(-3.6651299563275472+2.9841963207293247e1+0.47384225821487425e2"
    "+1.3279974266102603e3-2.169495586598364e4-3.7984074748088195e5"
    "+0.5503860432334937e6+1.2756859886787244e7)"
    "*G2(1.8133321660498285e1+2.332617164585466e2-0.7758376687441916e3"
    "-1.0338582407744292e4+0.9861906227582663e5-4.226920509763727e6+1.4304061152627892e7)"
    "*Gm1(-0.6856451068051752-0.326096692973565e1+5.327225852016343e2"
    "+0.7724006423214153e3+1.7310723746249639e4-2.4264155057514354e5"
    "+0.3159334808790648e6-1.660968472784491e7)"
    "*Gm2(-3.1490300355236824e1-2.8678193833119114e2+2.3881984044002302e3"
    "+1.922989352061476e4+0.4647527262736507e5+2.027061364037195e6-1.8844960781755131e7)"
    "*D4(2,-0.2872064546941108-0.6753258372655434e1+1.719536773297912e2"
    "-0.1557851527803002e3-2.059420167871114e4+1.2330221998378053e5"
    "-2.182177149493034e6-1.5789305278371373e7,0.6941087702928034+1.5447886878286599e1"
    "-2.114249374482213e2-0.48947300731171667e3-0.059233805711490346e4"
    "+1.8169844336182648e5+0.17987679747962412e6-2.3708673737330903e7)"
)


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


@pytest.fixture
def tol_env(monkeypatch):
    """tol_env(raw) sets F4DECOMP_TOL to `raw`, or removes it for None, and
    clears the per-process tolerance cache, so the next call reads it; the
    cache is cleared again on teardown, after the environment is restored."""

    def set_tol(raw):
        if raw is None:
            monkeypatch.delenv(config.ENV_VAR, raising=False)
        else:
            monkeypatch.setenv(config.ENV_VAR, raw)
        config._tols.cache_clear()

    yield set_tol
    monkeypatch.undo()
    config._tols.cache_clear()


def random_oct(rng, scale=1.0):
    return Octonion(scale * rng.standard_normal(8))


def random_imag(rng, scale=1.0):
    v = rng.standard_normal(8)
    v[0] = 0.0
    return Octonion(scale * v)


def random_unit(rng):
    v = rng.standard_normal(8)
    return Octonion(v / np.linalg.norm(v))


def random_word_text(rng, max_len=8, scale=0.15):
    """A random group word string, calibrated so products of up to eight
    factors stay well conditioned for the factorization round trips."""
    length = int(rng.integers(1, max_len + 1))
    atoms = []
    for _ in range(length):
        kind = int(rng.integers(0, 7))
        if kind == 0:
            i = int(rng.integers(1, 4))
            t = scale * rng.standard_normal()
            atoms.append(f"A{i}({t!r};{format_octonion(random_unit(rng))})")
        elif kind == 1:
            atoms.append(f"G1({format_octonion(random_oct(rng, scale))})")
        elif kind == 2:
            atoms.append(f"G2({format_octonion(random_imag(rng, scale))})")
        elif kind == 3:
            atoms.append(f"Gm1({format_octonion(random_oct(rng, scale))})")
        elif kind == 4:
            atoms.append(f"Gm2({format_octonion(random_imag(rng, scale))})")
        elif kind == 5:
            atoms.append(f"S{int(rng.integers(1, 4))}")
        else:
            j = int(rng.integers(1, 4))
            u = random_oct(rng)
            w = random_oct(rng)
            v = Octonion(w.coeffs * (u.norm() / w.norm()))
            atoms.append(f"D4({j},{format_octonion(u)},{format_octonion(v)})")
    return "*".join(atoms)


def random_group(rng, max_len=8, scale=0.15):
    return eval_word(parse(random_word_text(rng, max_len, scale)))


def random_m(rng, scale=0.4):
    """Random element of the joint stabilizer of the three diagonal
    idempotents and the real slot-3 unit."""
    basis = lg.m_basis()
    coeff = scale * rng.standard_normal(len(basis))
    mat = sum(c * b.mat for c, b in zip(coeff, basis))
    return lg.expm(lg.AlgebraElement(mat))


def random_keps(rng):
    """Random element of the stabilizer of the second idempotent."""
    g = lg.exp_A(2, 0.3 * rng.standard_normal(), random_unit(rng))
    u = random_oct(rng)
    w = random_oct(rng)
    v = Octonion(w.coeffs * (u.norm() / w.norm()))
    return g @ lg.d4_rotate(int(rng.integers(1, 4)), u, v)
