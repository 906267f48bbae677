"""Numerical tolerances.

Two constants drive every pass/fail decision in the package, and each is
read by its name:

* GROUP_TOL   -- automorphism verification and reconstruction residuals
* MEMBER_TOL  -- orbit membership predicates and cell-boundary tests,
                 scale-normalized by the caller: one tenth of GROUP_TOL

Neither is settable.
"""

GROUP_TOL = 1e-8
MEMBER_TOL = GROUP_TOL / 10
