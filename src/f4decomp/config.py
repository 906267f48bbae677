"""Numerical tolerance configuration.

Two tolerances drive every pass/fail decision in the package:

* group_tol   -- automorphism verification and reconstruction residuals
                 (default 1e-8)
* member_tol  -- orbit membership predicates and cell-boundary tests,
                 scale-normalized by the caller (default 1e-9)

The environment variable F4DECOMP_TOL overrides the pair: it sets group_tol
directly and member_tol to one tenth of it, preserving the default ratio.
The variable is read at call time so tests can monkeypatch the environment.
It must be a finite positive number: a NaN or infinite tolerance would turn
every gate off, so it raises ValueError instead.
"""

import math
import os

DEFAULT_GROUP_TOL = 1e-8
DEFAULT_MEMBER_TOL = 1e-9

ENV_VAR = "F4DECOMP_TOL"


def group_tol() -> float:
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return DEFAULT_GROUP_TOL
    value = float(raw)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{ENV_VAR} must be finite and positive, got {raw!r}")
    return value


def member_tol() -> float:
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return DEFAULT_MEMBER_TOL
    return group_tol() / 10.0
