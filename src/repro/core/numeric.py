"""Shared float-comparison tolerances (the RL007 helpers).

Costs, utilities, and walk distances in this package are sums of many
float edge weights, so exact ``==``/``!=`` comparisons are one
refactor-induced ulp away from flipping.  Every tolerant comparison in
``src/`` goes through these helpers so the tolerance is defined exactly
once; the reprolint RL007 rule points violators here.

The default tolerances mirror the search substrate: ``REL_TOL`` matches
the ``1e-9`` epsilon the engine and the bounded searches already use,
and ``ABS_TOL`` covers comparisons around zero where a relative
tolerance is meaningless.
"""

from __future__ import annotations

import math

#: Relative tolerance — one part in 10^9, the package-wide epsilon.
REL_TOL: float = 1e-9

#: Absolute tolerance for comparisons against (near-)zero values.
ABS_TOL: float = 1e-12


def close(a: float, b: float, *, rel_tol: float = REL_TOL, abs_tol: float = ABS_TOL) -> bool:
    """Whether two cost/utility values are equal up to tolerance."""
    return math.isclose(a, b, rel_tol=rel_tol, abs_tol=abs_tol)


def is_zero(value: float, *, abs_tol: float = ABS_TOL) -> bool:
    """Whether a cost/utility value is zero up to absolute tolerance.

    ``math.isclose(x, 0.0)`` with a relative tolerance is always false
    for nonzero ``x``, which makes zero guards a special case worth its
    own helper.
    """
    return abs(value) <= abs_tol
