"""Exact-rational solver for the parameter condition linking the short
interval exponent theta and the power budget r:

    5/(2r) + 492293/1000000 + 507707/(1000000 r) <= theta.

The two millionths literals are stored verbatim.  They sum to 1 exactly, as
the triple-sum bound's x- and D-exponents 511/1038 and 527/1038 do, and
C0 - 511/1038 = 67/519000000 = -(C1 - 527/1038).  So the left side exceeds
the same expression with (511/1038, 527/1038) in place of (C0, C1) by
(67/519000000)(1 - 1/r) >= 0: the literal condition implies the derived one
for every r >= 1.  The condition commits to the literals, and so do we.  All
comparisons are exact: Fraction arithmetic, and check's cross-multiplied
Python ints.

The constants are the paper's, not parameters.  LEAD = 5/2 is also the
D-power of the range condition D^(5/2) x^(c0 + c1/r) < y that claim_report
evaluates: the theta condition is that range condition with D^(5/2)
bounded by x^(5/(2r)), which x >= D^r allows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exponents import as_fraction

__all__ = [
    "C0",
    "C1",
    "LEAD",
    "check",
    "minimal_r",
    "claim_report",
    "ClaimReport",
    "PAPER_THETA",
    "PAPER_R",
]

C0 = Fraction(492293, 1_000_000)
C1 = Fraction(507707, 1_000_000)
LEAD = Fraction(5, 2)

#: The published parameter choice: theta = 0.4923 with r = 433433.
PAPER_THETA = Fraction(4923, 10_000)
PAPER_R = 433433


#: The condition times Q r, Q the common denominator of the constants:
#: (LEAD + C1) Q + C0 Q r <= theta Q r, all in integers.
_Q = math.lcm(LEAD.denominator, C0.denominator, C1.denominator)
_TOP, _SLOPE = int((LEAD + C1) * _Q), int(C0 * _Q)


def check(theta, r: int) -> bool:
    """Exact evaluation of LEAD/r + C0 + C1/r <= theta, cross-multiplied
    by Q r theta.denominator > 0 into one comparison of Python ints."""
    r = int(r)
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    theta = as_fraction(theta)
    return (_TOP + _SLOPE * r) * theta.denominator <= theta.numerator * _Q * r


def minimal_r(theta) -> Optional[int]:
    """Smallest r >= 1 satisfying the condition, or None when infeasible.

    The condition rearranges to r >= (LEAD + C1)/(theta - C0), so the
    answer is an exact rational ceiling.
    """
    theta = as_fraction(theta)
    if theta <= C0:
        return None
    return max(1, math.ceil((LEAD + C1) / (theta - C0)))


@dataclass(frozen=True)
class ClaimReport:
    """Hypothesis check for the short-interval statement at concrete
    (x, alpha, D, r): each field records one condition."""

    x: float
    alpha: Fraction
    D: float
    r: int
    x_ge_D_pow_r: bool
    alpha_in_range: bool
    theta_condition: bool
    y_value: float
    y_lower_bound: float
    y_range_ok: bool


def claim_report(x: float, alpha, D: float, r: int) -> ClaimReport:
    """Evaluate the hypotheses at (x, alpha, D, r).

    Conditions: x >= D^r (compared through logarithms); alpha within
    [0.4923, 1]; the exact theta condition at theta = alpha; and the
    y-range D^(5/2) * x^(c0 + c1/r) < y = x^alpha evaluated numerically.
    """
    if x <= 0 or D <= 0:
        raise ValueError("x and D must be positive")
    r = int(r)
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    alpha = as_fraction(alpha)

    x_ge = math.log(x) >= r * math.log(D) if D > 1 else x >= 1
    in_range = PAPER_THETA <= alpha <= 1

    theta_ok = check(alpha, r)

    log_y = float(alpha) * math.log(x)
    log_lower = float(LEAD) * math.log(D) + float(C0 + C1 / r) * math.log(x)
    return ClaimReport(
        x=float(x),
        alpha=alpha,
        D=float(D),
        r=r,
        x_ge_D_pow_r=bool(x_ge),
        alpha_in_range=bool(in_range),
        theta_condition=bool(theta_ok),
        y_value=math.exp(log_y),
        y_lower_bound=math.exp(log_lower),
        y_range_ok=bool(log_lower < log_y),
    )
