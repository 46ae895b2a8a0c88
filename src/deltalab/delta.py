"""Brute-force triple character sums and single exponential sums, with
exponent fitting against the symbolic bounds.

The raw triple sum

    sum_{n1 n2 n3 <= x} chi1(n1) chi2(n2) chi3(n3)

is computed in exact integer arithmetic (character values lie in -1,0,1):
the production path is the three-variable Dirichlet hyperbola with
y = icbrt(x): about 7 x^(2/3) quotient entries, in int64 numpy passes over
tiles of fixed size (about 100 tiles at x = 1e8, 470 at 1e9).  Its
character sums S(v) = sum_{k<=v} chi(k) and values chi(n) come from
RealCharacter.partial_sum and RealCharacter.values, one array call per
tile.  Its oracle is the coefficient convolution chi1 * chi2 * chi3 summed
to every x <= N (naive_triple_raw_prefix), which shares no code with it.
Only the residue of the L-product is floating point, so delta = raw -
residue carries a single rounding.

Empirical comparisons against the symbolic bounds are report-only: the
suite asserts oracle equality and hard invariants, never that an asymptotic
bound "holds" (unknown constants and the x^eps factor make such assertions
meaningless at desk scale).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .characters import RealCharacter, ResiduePattern, residue_main_term
from .monomials import main_theorem_terms
from .sieves import convolve
from .tables import check_memory_budget

__all__ = [
    "DeltaSample",
    "OracleMismatchError",
    "FitResult",
    "BoundCheckReport",
    "triple_delta",
    "triple_raw_sum",
    "naive_triple_raw",
    "naive_triple_raw_prefix",
    "hyperbola_raw_prefix",
    "pair_summatory",
    "theorem_bound_value",
    "exp_sum",
    "exp_sum_max_sign",
    "exponent_fit",
    "bound_check",
    "DEFAULT_RAW_CAP",
]

#: Default brute-force cap for the (hyperbola-assisted) raw sum.
DEFAULT_RAW_CAP = 10**9

#: Largest temporary of the raw-sum kernel, in elements: the quotient tiles
#: stay this size whatever x is, so peak memory does not grow with x.
_BLOCK_ELEMENTS = 1 << 14

#: Bytes per entry of naive_triple_raw_prefix: its tracemalloc peak is 25.1
#: at N = 1e6, 25.7 at 1e5, 31.9 at 1e4 and 34.0 at 2000; rounded up.
_ORACLE_BYTES_PER_ENTRY = 34


def _icbrt(n: int) -> int:
    """Largest y with y**3 <= n, for n >= 0."""
    y = int(round(n ** (1.0 / 3.0)))
    while y**3 > n:
        y -= 1
    while (y + 1) ** 3 <= n:
        y += 1
    return y


def _isqrt(t: np.ndarray) -> np.ndarray:
    """floor(sqrt(t)) for every entry of the int64 array t >= 0."""
    s = np.sqrt(t.astype(np.float64)).astype(np.int64)
    s -= s * s > t
    s += (s + 1) * (s + 1) <= t
    return s


def _pair_sums(c1: RealCharacter, c2: RealCharacter, t: np.ndarray) -> np.ndarray:
    """P(t) = sum_{ab <= t} chi1(a) chi2(b) for every entry of the
    non-increasing int64 array t >= 0, by the two-factor hyperbola with
    s = isqrt(t):

        P(t) = sum_{a <= s} [chi1(a) S2(t // a) + chi2(a) S1(t // a)] - S1(s) S2(s).

    Vectorized over a in (rows x a) tiles of at most _BLOCK_ELEMENTS
    entries; a tile's rows are as wide as its first, the widest."""
    s = _isqrt(t)
    out = -(c1.partial_sum(s) * c2.partial_sum(s))
    lo = 0
    while lo < len(t):
        width = int(s[lo])
        hi = lo + max(1, _BLOCK_ELEMENTS // max(width, 1))
        tt, ss = t[lo:hi, None], s[lo:hi, None]
        for a0 in range(1, width + 1, _BLOCK_ELEMENTS):
            a = np.arange(a0, min(a0 + _BLOCK_ELEMENTS, width + 1), dtype=np.int64)
            q = (tt // a) * (a <= ss)  # S(0) = 0 drops the entries with a > s
            out[lo:hi] += c2.partial_sum(q) @ c1.values(a) + c1.partial_sum(q) @ c2.values(a)
        lo = hi
    return out


def pair_summatory(c1: RealCharacter, c2: RealCharacter, t: int) -> int:
    """Exact sum of chi1(a) chi2(b) over ab <= t, O(sqrt t)."""
    return int(_pair_sums(c1, c2, np.array([max(int(t), 0)], dtype=np.int64))[0])


def triple_raw_sum(c1: RealCharacter, c2: RealCharacter, c3: RealCharacter, x: float) -> int:
    """Exact raw triple sum by the three-variable hyperbola (Dirichlet's
    method; Tenenbaum, Introduction to Analytic and Probabilistic Number
    Theory, I.3.2).  With y = icbrt(x) every triple n1 n2 n3 <= x has some
    n_i <= y, so inclusion-exclusion over the events A_i = {n_i <= y} gives

        sum_i sum_{n<=y} chi_i(n) P_jk(x // n)
      - sum_{i<j} sum_{a,b<=y} chi_i(a) chi_j(b) S_k(x // ab)
      + S_1(y) S_2(y) S_3(y),

    where the last term needs no product condition because y^3 <= x.  Each
    of the three pair sums touches about 2 x^(2/3) entries and the middle
    term y^2, in numpy passes over tiles of at most _BLOCK_ELEMENTS
    entries (the middle term's tiles hold whole rows of y entries, so the
    cap holds while y <= _BLOCK_ELEMENTS, i.e. x < 4.4e12).

    Exact int64: every partial sum, and every product of character sums,
    is at most the number of lattice points (n1, n2, n3) under the
    hyperbola n1 n2 n3 <= x, below x (log x)^2, which is under 2^63 for
    x < 5e15.
    """
    N = math.floor(x)
    if N < 1:
        return 0
    chis = (c1, c2, c3)
    y = _icbrt(N)
    n = np.arange(1, y + 1, dtype=np.int64)
    vals = [c.values(n) for c in chis]
    total = int(c1.partial_sum(y)) * int(c2.partial_sum(y)) * int(c3.partial_sum(y))
    for i, j, k in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
        live = vals[i] != 0
        total += int(vals[i][live] @ _pair_sums(chis[j], chis[k], N // n[live]))
    rows = max(1, _BLOCK_ELEMENTS // y)
    for lo in range(0, y, rows):
        q = N // (n[lo : lo + rows, None] * n)
        for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            total -= int(vals[i][lo : lo + rows] @ chis[k].partial_sum(q) @ vals[j])
    return total


def naive_triple_raw_prefix(
    c1: RealCharacter, c2: RealCharacter, c3: RealCharacter, N: int
) -> np.ndarray:
    """Oracle: the raw sums at every integer x <= N.  The raw sum's
    Dirichlet series is L(s,chi1) L(s,chi2) L(s,chi3), so its coefficients
    are the convolution chi1 * chi2 * chi3 (Tenenbaum, I.3): two
    sieves.convolve calls, then a prefix sum.  Exact int64, O(N log N), and
    no code shared with the production hyperbola (_pair_sums, partial_sum).

    Holds about _ORACLE_BYTES_PER_ENTRY bytes per entry at its peak; raises
    MemoryBudgetError when N of them exceed DEFAULT_MEMORY_BUDGET."""
    N = int(N)
    check_memory_budget(f"convolution oracle at N = {N}", N, _ORACLE_BYTES_PER_ENTRY, "N")
    # One int64 factor makes every product int64; |coefficients| <= d_3(n).
    pair = convolve(c1.value_table(N), c2.value_table(N).astype(np.int64), N)
    coeff = convolve(pair, c3.value_table(N), N)
    return np.cumsum(coeff, out=coeff)


def naive_triple_raw(c1, c2, c3, x: float) -> int:
    """Single-value form of the convolution oracle."""
    N = math.floor(x)
    if N < 1:
        return 0
    return int(naive_triple_raw_prefix(c1, c2, c3, N)[N])


def hyperbola_raw_prefix(
    c1: RealCharacter, c2: RealCharacter, c3: RealCharacter, N: int
) -> np.ndarray:
    """Raw sums at every integer x <= N through the two-factor summatory
    table (vectorized hyperbola, with the prefix sums S1, S2 at every t <= N
    from one partial_sum call each) and one block pass per k.  Exact int64;
    an independent implementation from the convolution oracle.

    Nothing in the package calls it: it is kept only as the benchmark's
    second pin of its reference triple sum (bench/tests), and goes when the
    benchmark drops that pin."""
    N = int(N)
    tarr = np.arange(N + 1, dtype=np.int64)
    s1, s2 = c1.partial_sum(tarr), c2.partial_sum(tarr)
    sq = _isqrt(tarr)
    tab = np.zeros(N + 1, dtype=np.int64)
    p1 = c1.value_table(math.isqrt(N)).astype(np.int64)
    p2 = c2.value_table(math.isqrt(N)).astype(np.int64)
    for a in range(1, math.isqrt(N) + 1):
        lo = a * a
        w1, w2 = int(p1[a]), int(p2[a])
        if w1:
            tab[lo:] += w1 * s2[tarr[lo:] // a]
        if w2:
            tab[lo:] += w2 * s1[tarr[lo:] // a]
    tab -= s1[sq] * s2[sq]

    t3 = c3.value_table(N).astype(np.int64).tolist()
    raw = np.zeros(N + 1, dtype=np.int64)
    for k in range(1, N + 1):
        w3 = t3[k]
        if not w3:
            continue
        for v in range(1, N // k + 1):
            lo = k * v
            raw[lo : min(lo + k, N + 1)] += w3 * int(tab[v])
    return raw


def theorem_bound_value(D: float, Dmax: float, x: float) -> float:
    """Max of the four final bound monomials at (D, Dmax, x), eps = 0."""
    return main_theorem_terms().evaluate({"D": float(D), "Dmax": float(Dmax), "x": float(x)})


class OracleMismatchError(AssertionError):
    """The production raw sum differs from the convolution oracle."""


@dataclass(frozen=True)
class DeltaSample:
    """One measurement of the triple-sum remainder."""

    x: float
    d1: int
    d2: int
    d3: int
    raw_sum: int
    residue: float
    delta: float
    bound_value: float

    def __post_init__(self):
        if self.delta != self.raw_sum - self.residue:
            raise ValueError(
                f"delta {self.delta} != raw_sum {self.raw_sum} - residue {self.residue}"
            )


def triple_delta(
    chi1: RealCharacter,
    chi2: RealCharacter,
    chi3: RealCharacter,
    x: float,
    cap: int = DEFAULT_RAW_CAP,
    naive_check: bool = False,
) -> DeltaSample:
    """Raw sum, residue main term, and their exact difference at x.

    x below 1 is rejected; x above the brute-force cap raises with a hint
    to pass a larger cap explicitly.
    """
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    if x > cap:
        raise ValueError(
            f"x = {x} exceeds the brute-force cap {cap}; pass cap=... "
            "(CLI: --cap) to override"
        )
    raw = triple_raw_sum(chi1, chi2, chi3, x)
    if naive_check:
        ref = naive_triple_raw(chi1, chi2, chi3, x)
        if raw != ref:
            raise OracleMismatchError(f"production {raw} != naive {ref} at x={x}")
    residue = residue_main_term(ResiduePattern.from_characters([chi1, chi2, chi3]), x)
    D = chi1.conductor * chi2.conductor * chi3.conductor
    Dmax = max(chi1.conductor, chi2.conductor, chi3.conductor)
    return DeltaSample(
        x=float(x),
        d1=chi1.discriminant,
        d2=chi2.discriminant,
        d3=chi3.discriminant,
        raw_sum=raw,
        residue=residue,
        delta=raw - residue,
        bound_value=theorem_bound_value(D, Dmax, x),
    )


def exp_sum(
    n1: int,
    n2: int,
    chi3: RealCharacter,
    n3_range: Tuple[int, int],
    x: float,
    D: float,
    m: int,
    sign: int = 1,
) -> complex:
    """Direct summation of the inner exponential sum

        sum_{n3 in [lo, hi]} e( sign * 3 (n1 n2 n3 x / D)^(1/3) - sign * m n3 / D3 )

    with compensated summation; error budget about length * 2^-50."""
    lo, hi = int(n3_range[0]), int(n3_range[1])
    if lo > hi:
        raise ValueError(f"empty range [{lo}, {hi}]")
    if min(n1, n2, lo) < 1 or x <= 0 or D <= 0:
        raise ValueError("n1, n2, range and x, D must be positive")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    q3 = chi3.conductor
    re, im = [], []
    coef = n1 * n2 * x / D
    for n3 in range(lo, hi + 1):
        phase = sign * (3.0 * (coef * n3) ** (1.0 / 3.0) - m * n3 / q3)
        z = cmath.exp(2j * math.pi * phase)
        re.append(z.real)
        im.append(z.imag)
    return complex(math.fsum(re), math.fsum(im))


def exp_sum_max_sign(n1, n2, chi3, n3_range, x, D, m) -> Tuple[complex, int]:
    """Both sign choices; returns (value, sign) of the larger modulus,
    matching the choose-the-maximal-modulus convention."""
    plus = exp_sum(n1, n2, chi3, n3_range, x, D, m, sign=1)
    minus = exp_sum(n1, n2, chi3, n3_range, x, D, m, sign=-1)
    return (plus, 1) if abs(plus) >= abs(minus) else (minus, -1)


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r_squared: float


def exponent_fit(samples: Sequence[Tuple[float, float]]) -> FitResult:
    """Ordinary least squares on (log size, log magnitude)."""
    if len(samples) < 3:
        raise ValueError(f"need >= 3 samples, got {len(samples)}")
    if any(s <= 0 or m <= 0 for s, m in samples):
        raise ValueError("sizes and magnitudes must be positive")
    xs = np.log([s for s, _ in samples])
    ys = np.log([m for _, m in samples])
    if np.ptp(xs) == 0:
        raise ValueError("degenerate fit: all sizes equal")
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return FitResult(slope=float(slope), intercept=float(intercept), r_squared=r2)


@dataclass(frozen=True)
class BoundCheckReport:
    """Ratios |delta| / bound_value; the max ratio is the empirical implied
    constant.  flagged only when the ratios trend upward in x (fitted slope
    above 0.05) -- an empirical red flag, never a disproof."""

    n_samples: int
    max_ratio: float
    trend_slope: Optional[float]
    flagged: bool
    ratios: Tuple[float, ...]


TREND_SLOPE_LIMIT = 0.05


def bound_check(samples: Sequence[DeltaSample]) -> BoundCheckReport:
    if not samples:
        raise ValueError("need at least one sample")
    ratios = tuple(abs(s.delta) / s.bound_value for s in samples)
    pairs = [(s.x, r) for s, r in zip(samples, ratios) if r > 0]
    slope: Optional[float] = None
    if len(pairs) >= 3 and len({x for x, _ in pairs}) >= 2:
        try:
            slope = exponent_fit(pairs).slope
        except ValueError:
            slope = None
    return BoundCheckReport(
        n_samples=len(samples),
        max_ratio=max(ratios),
        trend_slope=slope,
        flagged=slope is not None and slope > TREND_SLOPE_LIMIT,
        ratios=ratios,
    )
