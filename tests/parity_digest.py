"""SHA-256 digests of the library's outputs on the benchmark's inputs.

Two trees whose digests agree give bit-identical results on every input
hashed here. Run from the repository root as

    PYTHONPATH=src:bench python tests/parity_digest.py

and, for another tree, put its `src` and `bench` on PYTHONPATH instead. It
prints one JSON line with three digests:

- `word_factor`: every word of `workloads.word_inputs` for seeds 1, 2 and
  107: the evaluated matrix, both cell labels, and all four factorizations;
- `a3_sweep`: the same for `A3(t;1)`, t = -30 ... 30 in steps of 0.25;
- `spectral`: the `spectral` fingerprint of every lambda of
  `workloads.spectral_inputs` for those seeds, and `spherical_with_error`
  at each lambda on a grid of t.

Arrays are hashed by their raw bytes, numbers by their `repr`, and a refusal
by its type and message.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields, is_dataclass

import numpy as np
from f4decomp import decomp, harmonic, wordlang
from f4decomp.liegroup import GroupElement
from f4decomp.octonion import Octonion

import workloads

SEEDS = (1, 2, 107)
GRID_T = (0.0, 0.5, 1.5, 2.0, 3.0, 5.0, 8.0, 12.0)
FACTORIZATIONS = (decomp.iwasawa, decomp.keps_iwasawa, decomp.matsuki, decomp.gauss)


def _feed(h, value) -> None:
    if isinstance(value, GroupElement):
        value = value.mat
    if isinstance(value, Octonion):
        value = value.coeffs
    if isinstance(value, np.ndarray):
        h.update(value.tobytes())
    elif is_dataclass(value):
        for f in fields(value):
            _feed(h, getattr(value, f.name))
    elif isinstance(value, tuple):  # NParams and fingerprints
        for v in value:
            _feed(h, v)
    else:
        h.update(repr(value).encode())
    h.update(b"|")


def _call(h, fn, *args):
    """Feed fn(*args) or its refusal to h; return the result or None."""
    try:
        out = fn(*args)
    except Exception as exc:  # a refusal is an output too
        _feed(h, (type(exc).__name__, str(exc)))
        return None
    _feed(h, out)
    return out


def _word(h, text: str) -> None:
    _feed(h, text)
    g = _call(h, lambda: wordlang.eval_word(wordlang.parse(text)))
    if g is None:
        return
    _call(h, decomp.bruhat_classify, g)
    _call(h, decomp.matsuki_classify, g)
    for factorize in FACTORIZATIONS:
        _call(h, factorize, g)


def word_factor_digest() -> str:
    h = hashlib.sha256()
    for seed in SEEDS:
        for item in workloads.word_inputs(np.random.default_rng(seed)):
            _word(h, item.text)
    return h.hexdigest()


def a3_sweep_digest() -> str:
    h = hashlib.sha256()
    for t in np.arange(-120, 121) / 4.0:
        _word(h, f"A3({float(t)!r};1)")
    return h.hexdigest()


def spectral_digest() -> str:
    h = hashlib.sha256()
    for seed in SEEDS:
        for lam in workloads.spectral_inputs(np.random.default_rng(seed)):
            _feed(h, lam)
            _call(h, lambda: workloads.spectral_fingerprint(workloads.spectral_op(lam)))
            for t in GRID_T:
                _call(h, harmonic.spherical_with_error, lam, t)
    return h.hexdigest()


if __name__ == "__main__":
    print(json.dumps({
        "word_factor": word_factor_digest(),
        "a3_sweep": a3_sweep_digest(),
        "spectral": spectral_digest(),
    }))
