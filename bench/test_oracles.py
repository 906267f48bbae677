"""Tests of the benchmark's reference checks: known values, agreement with
the program, and that a corrupted output is reported.

    PYTHONPATH=src python3 -m pytest bench/test_oracles.py
"""

import math

import numpy as np
import pytest

import oracles
import workloads
from f4decomp import harmonic, wordlang


def test_known_values():
    assert oracles.c_reference(22.0) == pytest.approx(1.0, abs=1e-15)
    for lam in (2.0, 7.5, complex(4.0, 3.0)):
        assert oracles.spherical_reference(lam, 0.0) == pytest.approx(1.0, abs=1e-15)
    for t in workloads.T_LIST:
        assert oracles.spherical_reference(22.0, t) == pytest.approx(1.0, abs=1e-14)


def test_spectral_outputs_pass():
    for lam in (2.0, complex(4.0, 3.0)):
        assert oracles.check_c(lam, harmonic.c_gamma(lam), "gamma") == []
        assert oracles.check_c(lam, harmonic.c_quadrature(lam), "quad") == []
        assert oracles.check_spherical(lam, 1.5, harmonic.spherical(lam, 1.5)) == []


def test_corrupted_spectral_outputs_fail():
    lam, t = complex(4.0, 3.0), 1.5
    val = harmonic.spherical(lam, t)
    assert oracles.check_spherical(lam, t, val * (1.0 + 1e-5)) != []
    assert oracles.check_c(lam, harmonic.c_gamma(lam) * (1.0 + 1e-8), "gamma") != []


@pytest.fixture(scope="module")
def words():
    rng = np.random.default_rng(7)
    items = [workloads.WordItem(workloads.random_word(rng, n), None) for n in (1, 3, 5, 8)]
    return items + [workloads.closed_word(rng)]


def test_word_outputs_pass(words):
    for item in words:
        assert workloads.word_check(item, workloads.word_op(item)) == []


def test_closed_word_takes_closed_branch(words):
    item = words[-1]
    out = workloads.word_op(item)
    assert out.matsuki.cell == "Closed"
    assert out.matsuki.t == pytest.approx(item.t_closed, abs=1e-12)


def test_corrupted_t_fails(words):
    item = words[-1]
    g = wordlang.eval_word(wordlang.parse(item.text)).mat
    out = workloads.word_op(item)
    rec = workloads.factor_record("iwasawa", out.iwasawa)
    rec["t"] += 1e-6
    assert workloads.check_factor_record(g, rec, None) != []
    rec = workloads.factor_record("matsuki", out.matsuki)
    assert workloads.check_factor_record(g, rec, item.t_closed + 1e-6) != []


def test_tail_percentile_has_ten_inputs_beyond():
    sizes = {name: len(wl.make_inputs(np.random.default_rng(1)))
             for name, wl in workloads.WORKLOADS.items()}
    assert sizes == {"word_factor": 180, "spectral": 130}
    for n in sizes.values():
        pct = workloads.tail_pct(n)
        assert n - math.ceil(pct * n / 100) >= 10
        assert n - math.ceil((pct + 1) * n / 100) < 10
    assert [workloads.tail_pct(sizes[w]) for w in ("word_factor", "spectral")] == [94, 92]
    assert workloads.percentile(range(1, 101), 95) == 95
