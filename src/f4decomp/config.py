"""Numerical tolerance configuration.

Two tolerances drive every pass/fail decision in the package:

* group_tol   -- automorphism verification and reconstruction residuals
                 (default 1e-8)
* member_tol  -- orbit membership predicates and cell-boundary tests,
                 scale-normalized by the caller: one tenth of group_tol
                 (default 1e-9)

The environment variable F4DECOMP_TOL sets group_tol. It is a per-process
setting, read and checked on the first call and kept for the life of the
process. It must be a finite positive number: a NaN or infinite tolerance
would turn every gate off, so it raises ValueError instead, on every call,
as a refusal is not kept.
"""

import math
import os
from functools import cache

DEFAULT_GROUP_TOL = 1e-8

ENV_VAR = "F4DECOMP_TOL"


@cache
def _tols() -> tuple[float, float]:
    raw = os.environ.get(ENV_VAR)
    try:
        value = DEFAULT_GROUP_TOL if raw is None else float(raw)
    except ValueError:
        value = math.nan  # refused below with the raw text
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{ENV_VAR} must be finite and positive, got {raw!r}")
    return value, value / 10.0


def group_tol() -> float:
    return _tols()[0]


def member_tol() -> float:
    return _tols()[1]
