"""Exact-rational exponents of the higher-order derivative tests.

An order-r derivative test bounds an exponential sum over an interval of
length M, with phase derivatives of size T*M^(-j) for j = r-2, r-1, r, by

    M^a * T^b  +  M^xi * T^eta  +  M^alpha  +  M^gamma * T^(-delta).

The seven exponents are exact rationals.  The order-4 base values are fixed
input data.  step, which divides through by 2(b+1), defines each later order
from the one before; derive_tuple, the production path, is that recursion in
closed form, and step is its oracle.  The "+epsilon" on b and eta at order 4
survives every step, so it is the constant ExponentTuple.eps_on.

All arithmetic uses fractions.Fraction: no rounding happens anywhere in
this module.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Union

RationalLike = Union[Fraction, int, str]

#: Hard cap on the order.  7142 is the largest order whose exponents print
#: under Python's default limit of 4300 digits on int-to-str conversion; the
#: cap also keeps a runaway order from allocating the integer 2^(r-4).
MAX_ORDER = 7142

#: A decimal string's digits before and after the point, and its exponent.
_DECIMAL = re.compile(r"\s*[-+]?(\d*)\.?(\d*)(?:e([-+]?\d+))?\s*", re.IGNORECASE)

#: Order-4 base exponents (fixed input data, not derived here).
BASE_ORDER = 4
_BASE = {
    "a": Fraction(1, 2),
    "b": Fraction(13, 84),
    "xi": Fraction(0),
    "eta": Fraction(31, 84),
    "alpha": Fraction(334, 411),
    "gamma": Fraction(1),
    "delta": Fraction(1, 2),
}


@dataclass(frozen=True)
class ExponentTuple:
    """The seven exponents of an order-r derivative-test bound.

    eps_on names the entries that carry a "+epsilon": "b" and "eta" at
    every order.  Instances are immutable and safe to share across threads.
    """

    eps_on: ClassVar[frozenset] = frozenset({"b", "eta"})

    order: int
    a: Fraction
    b: Fraction
    xi: Fraction
    eta: Fraction
    alpha: Fraction
    gamma: Fraction
    delta: Fraction

    def __post_init__(self):
        if self.order < BASE_ORDER:
            raise ValueError(f"order must be >= {BASE_ORDER}, got {self.order}")

    def as_dict(self) -> dict:
        """JSON-friendly layout: exact fraction strings plus the eps flag list."""
        d = {"order": self.order}
        for name in ("a", "b", "xi", "eta", "alpha", "gamma", "delta"):
            d[name] = str(getattr(self, name))
        d["eps_on"] = sorted(self.eps_on)
        return d

    def __str__(self) -> str:
        parts = []
        for name in ("a", "b", "xi", "eta", "alpha", "gamma", "delta"):
            v = str(getattr(self, name))
            if name in self.eps_on:
                v += "+eps"
            parts.append(f"{name}={v}")
        return f"ExponentTuple(order={self.order}, " + ", ".join(parts) + ")"


def base_tuple() -> ExponentTuple:
    """The order-4 tuple (1/2, 13/84+eps, 0, 31/84+eps, 334/411, 1, 1/2)."""
    return ExponentTuple(order=BASE_ORDER, **_BASE)


def step(t: ExponentTuple) -> ExponentTuple:
    """One recursion step: the order-(j) tuple from the order-(j-1) tuple.

    The common denominator of the step is 2(b+1); the identities
    2(b+1)*b' = b (and likewise for eta, delta) therefore hold exactly.
    """
    d = 2 * (t.b + 1)
    return ExponentTuple(
        order=t.order + 1,
        a=(t.a + t.b + 1) / d,
        b=t.b / d,
        xi=((t.xi + 1) * (t.b + 1) - t.a * t.eta) / d,
        eta=t.eta / d,
        alpha=(t.alpha + 1) / 2,
        gamma=(t.a * t.delta + (t.b + 1) * (t.gamma + 1)) / d,
        delta=t.delta / d,
    )


def derive_tuple(r: int) -> ExponentTuple:
    """The order-r tuple, the base with r - 4 steps applied, in closed form
    in k = r - 4, u = 2^k and q = 110u - 26 (tests/test_exponents.py proves
    by induction on k that it solves step).

    Raises ValueError for r < 4 and for r above MAX_ORDER.
    """
    if r < BASE_ORDER:
        raise ValueError(f"order must be >= {BASE_ORDER}, got {r}")
    if r > MAX_ORDER:
        raise ValueError(f"order {r} exceeds cap {MAX_ORDER}")
    k = r - BASE_ORDER
    u = 1 << k
    q = 110 * u - 26
    return ExponentTuple(
        order=r,
        a=Fraction(110 * u - 68 - 13 * k, q),
        b=Fraction(13, q),
        xi=Fraction((110 * u - 105 - 31 * k) * u - 5, q * u),
        eta=Fraction(31, q),
        alpha=1 - Fraction(77, 411 * u),
        gamma=Fraction((110 * u - 68 + 42 * k) * u + 42, q * u),
        delta=Fraction(42, q),
    )


def bound_eval(t: ExponentTuple, M: float, T: float, eps: float = 0.0) -> float:
    """Numeric value of the four-term bound at (M, T).

    eps is added to b and eta, the exponents in eps_on.  Used by the
    empirical lab for constant fitting; constants are not modeled here.
    """
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    if T <= 0:
        raise ValueError(f"T must be > 0, got {T}")
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    b = float(t.b) + eps
    eta = float(t.eta) + eps
    return (
        M ** float(t.a) * T ** b
        + M ** float(t.xi) * T ** eta
        + M ** float(t.alpha)
        + M ** float(t.gamma) * T ** (-float(t.delta))
    )


def as_fraction(v: RationalLike) -> Fraction:
    """Exact conversion accepting Fraction, int, or strings like '139/194'
    and '0.4923' (decimal strings parse exactly).  A decimal string whose
    numerator or denominator would pass sys.get_int_max_str_digits() digits
    is rejected before Fraction builds 10^e, which takes minutes at e = 1e7."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    m = _DECIMAL.fullmatch(str(v).replace("_", ""))
    limit = sys.get_int_max_str_digits()
    if m and limit:
        whole, frac, exp = m.groups(default="0")
        if len(exp) > limit or max(len(whole + frac) + int(exp), len(frac) - int(exp) + 1) > limit:
            raise ValueError(f"{v!r:.40} needs more than {limit} digits as an exact fraction")
    try:
        return Fraction(str(v))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {v!r}") from None
