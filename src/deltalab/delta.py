"""Brute-force triple character sums and single exponential sums, with
exponent fitting against the symbolic bounds.

The raw triple sum

    sum_{n1 n2 n3 <= x} chi1(n1) chi2(n2) chi3(n3)

is computed in exact integer arithmetic (character values lie in -1,0,1):
the production path is triple_raw_sums, the three-variable Dirichlet
hyperbola with y = icbrt(x) run for many x at once: about 7 x^(2/3)
quotient entries per x, with the rows of all x stacked into int64 numpy
passes over tiles of fixed size (about 100 tiles at x = 1e8, 470 at 1e9),
exact for x < 5e15 and within the tile size for x < 4.4e12.
triple_raw_sum is its one-element case, and triple_deltas / triple_delta
sit on top of it.  All its quotient tiles go through one kernel, _row_sums,
with S(v) = sum_{k<=v} chi(k) from one RealCharacter.partial_sum call per
tile and character.  Its oracle is the coefficient convolution
chi1 * chi2 * chi3 summed to every x <= N (naive_triple_raw_prefix), which
shares no code with it.  Only the residue of the L-product is floating
point, so delta = raw - residue carries a single rounding.

Empirical comparisons against the symbolic bounds are report-only: the
suite asserts oracle equality and hard invariants, never that an asymptotic
bound "holds" (unknown constants and the x^eps factor make such assertions
meaningless at desk scale).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .characters import RealCharacter, residue_main_term
from .monomials import main_theorem_terms
from .sieves import TILE, convolve, floor_div
from .tables import check_memory_budget

__all__ = [
    "DeltaSample",
    "OracleMismatchError",
    "FitResult",
    "BoundCheckReport",
    "triple_delta",
    "triple_deltas",
    "triple_raw_sum",
    "triple_raw_sums",
    "naive_triple_raw",
    "naive_triple_raw_prefix",
    "naive_triple_raw_prefixes",
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


def _icbrt(n: np.ndarray) -> np.ndarray:
    """floor(n^(1/3)) for every entry of the int64 array n >= 0."""
    y = np.cbrt(n.astype(np.float64)).astype(np.int64)
    y -= y**3 > n
    y += (y + 1) ** 3 <= n
    return y


def _isqrt(t: np.ndarray) -> np.ndarray:
    """floor(sqrt(t)) for every entry of the int64 array t >= 0."""
    s = np.sqrt(t.astype(np.float64)).astype(np.int64)
    s -= s * s > t
    s += (s + 1) * (s + 1) <= t
    return s


def _row_sums(t: np.ndarray, bound: np.ndarray, terms) -> list:
    """Per term (cv, cs) of terms, the row sums of cv(a) S_cs(t // a) over
    a <= bound, for nonempty int64 arrays t >= 0 and bound >= 0 (bound
    non-increasing): (rows x a) tiles of at most TILE entries, in
    chunks of as many a, with rows as wide as a tile's first, the widest,
    and the mask a <= bound only past its last, the narrowest."""
    cvs = {cv.discriminant: cv for cv, _ in terms}  # distinct characters, by discriminant
    css = {cs.discriminant: (cs, {}) for _, cs in terms}  # S_cs, and its row sums per cv
    for cv, cs in terms:
        css[cs.discriminant][1][cv.discriminant] = np.zeros(len(t), np.int64)
    tf, width = t.astype(np.float64), int(bound[0])
    for a0 in range(1, width + 1, TILE):
        a = np.arange(a0, min(a0 + TILE, width + 1), dtype=np.int64)
        vals = {d: c.values(a) for d, c in cvs.items()}
        a, lo = a.astype(np.float64), 0  # the tiles need the columns as floats only
        while lo < len(t) and bound[lo] >= a0:  # rows with bound >= a0 come first
            w = min(int(bound[lo]) + 1 - a0, len(a))
            hi = min(lo + max(1, TILE // w), len(t))
            q = floor_div(tf[lo:hi, None], a[:w])
            m = max(int(bound[hi - 1]) + 1 - a0, 0)
            q[:, m:] *= a[m:w] <= bound[lo:hi, None]  # S(0) = 0 drops the entries with a > bound
            for cs, rows in css.values():
                s = cs.partial_sum(q)  # one S_cs tile alive at a time
                for dv, row in rows.items():
                    row[lo:hi] += s @ vals[dv][:w]
            lo = hi
    return [css[cs.discriminant][1][cv.discriminant] for cv, cs in terms]


def _pair_sums(c1: RealCharacter, c2: RealCharacter, t: np.ndarray) -> np.ndarray:
    """P(t) = sum_{ab <= t} chi1(a) chi2(b) for every entry of the
    non-increasing int64 array t >= 0, by the two-factor hyperbola with
    s = isqrt(t):

        P(t) = sum_{a <= s} [chi1(a) S2(t // a) + chi2(a) S1(t // a)] - S1(s) S2(s)."""
    s = _isqrt(t)
    r12, r21 = _row_sums(t, s, ((c1, c2), (c2, c1)))
    return r12 + r21 - c1.partial_sum(s) * c2.partial_sum(s)


def pair_summatory(c1: RealCharacter, c2: RealCharacter, t: int) -> int:
    """Exact sum of chi1(a) chi2(b) over ab <= t, O(sqrt t)."""
    return int(_pair_sums(c1, c2, np.array([max(int(t), 0)], dtype=np.int64))[0])


def triple_raw_sums(
    c1: RealCharacter, c2: RealCharacter, c3: RealCharacter, xs: Sequence[float]
) -> np.ndarray:
    """Exact raw triple sums at every x of xs (any order, repeats allowed;
    0 for x < 1), as an int64 array, by the three-variable hyperbola
    (Dirichlet's method; Tenenbaum, Introduction to Analytic and
    Probabilistic Number Theory, I.3.2).  With N = floor(x) and
    y = icbrt(N) every triple n1 n2 n3 <= N has some n_i <= y, so
    inclusion-exclusion over the events A_i = {n_i <= y} gives

        sum_i sum_{n<=y} chi_i(n) P_jk(N // n)
      - sum_{i<j} sum_{a,b<=y} chi_i(a) chi_j(b) S_k(N // ab)
      + S_1(y) S_2(y) S_3(y),

    where the last term needs no product condition because y^3 <= N.

    The N are taken in decreasing order and in groups whose y sum to at
    most TILE, so one group's rows (N, n <= y) fit in one tile.
    Each pair-sum term stacks the group's rows into one t = N // n array
    and hands its distinct values, non-increasing, to one _pair_sums call
    (nearby N share most of them); a term whose character repeats an
    earlier one equals that term and is counted, not recomputed.  The
    middle term's rows go to the same kernel, _row_sums, with b <= y.  Row
    results are reduced per N by np.add.reduceat.  The pair sums touch
    about 2 x^(2/3) entries each per x and the middle term y^2; every tile
    holds at most TILE entries, and every row array too while
    y <= TILE, i.e. x < 4.4e12.

    Exact int64: every partial sum, and every product of character sums,
    is at most the number of lattice points (n1, n2, n3) under the
    hyperbola n1 n2 n3 <= x, below x (log x)^2, which is under 2^63 for
    x < 5e15.
    """
    Ns = np.array([math.floor(x) for x in xs], dtype=np.int64)
    out = np.zeros(len(Ns), dtype=np.int64)
    order = np.flatnonzero(Ns >= 1)
    order = order[np.argsort(-Ns[order], kind="stable")]
    N = Ns[order]  # non-increasing, so y is too
    y = _icbrt(N)
    ends = np.cumsum(y)
    lo = 0
    while lo < len(N):
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - y[lo] + TILE, "right")))
        out[order[lo:hi]] = _hyperbola((c1, c2, c3), N[lo:hi], y[lo:hi])
        lo = hi
    return out


def _hyperbola(chis, N: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The three-variable hyperbola of triple_raw_sums for a group of
    decreasing N >= 1 with y = icbrt(N): one row per (N, n <= y)."""
    starts = np.cumsum(y) - y
    owner = np.repeat(np.arange(len(N)), y)
    n = np.arange(1, len(owner) + 1, dtype=np.int64) - starts[owner]
    vals = [c.values(n) for c in chis]
    M = N[owner] // n  # N // n; N // ab = M // b
    total = chis[0].partial_sum(y) * chis[1].partial_sum(y) * chis[2].partial_sum(y)
    for i, j, k in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
        if chis[i] in chis[:i]:
            continue  # P_jk is symmetric, so chi_i = chi_j gives term i = term j
        live = vals[i] != 0
        t, back = np.unique(M[live], return_inverse=True)  # nearby N share most t
        p = _pair_sums(chis[j], chis[k], t[::-1])[::-1][back]
        # chi_i(1) = 1 keeps every N's first row, so its run starts there
        runs = np.cumsum(live)[starts] - 1
        total += chis.count(chis[i]) * np.add.reduceat(vals[i][live] * p, runs)
    c1, c2, c3 = chis  # middle term: sum_{i<j} chi_i rjk, rjk = sum_{b<=y} chi_j(b) S_k(M // b)
    r23, r32, r31 = _row_sums(M, y[owner], ((c2, c3), (c3, c2), (c3, c1)))
    return total - np.add.reduceat(vals[0] * (r23 + r32) + vals[1] * r31, starts)


def triple_raw_sum(c1: RealCharacter, c2: RealCharacter, c3: RealCharacter, x: float) -> int:
    """Exact raw triple sum at one x: the one-element case of
    triple_raw_sums, exact in int64 for x < 5e15, with tiles of at most
    TILE entries for x < 4.4e12."""
    return int(triple_raw_sums(c1, c2, c3, [x])[0])


def naive_triple_raw_prefix(
    c1: RealCharacter, c2: RealCharacter, c3: RealCharacter, N: int
) -> np.ndarray:
    """Oracle: the raw sums at every integer x <= N.  The raw sum's
    Dirichlet series is L(s,chi1) L(s,chi2) L(s,chi3), so its coefficients
    are the convolution chi1 * chi2 * chi3 (Tenenbaum, I.3): two
    sieves.convolve calls, then a prefix sum.  Exact int64, O(N log N), and
    no code shared with the production hyperbola (_pair_sums, partial_sum).

    Its peak is MEMORY_RATES["convolution_oracle"] bytes per entry; raises
    MemoryBudgetError when N of them exceed DEFAULT_MEMORY_BUDGET."""
    return next(naive_triple_raw_prefixes(c1, c2, (c3,), N))


def naive_triple_raw_prefixes(c1: RealCharacter, c2: RealCharacter, thirds, N: int):
    """naive_triple_raw_prefix(c1, c2, c3, N) for each c3 in thirds, in
    order, from one chi1 * chi2 convolution: len(thirds) + 1
    sieves.convolve calls instead of 2 len(thirds).  A generator that
    builds each prefix when it is asked for, so its peak is that of one
    prefix as long as the caller drops each before asking for the next."""
    N = int(N)
    check_memory_budget(f"convolution oracle at N = {N}", N, "convolution_oracle", "N")
    # One int64 factor makes every product int64; |coefficients| <= d_3(n).
    pair = convolve(c1.value_table(N), c2.value_table(N).astype(np.int64), N)
    for c3 in thirds:
        prefix = convolve(pair, c3.value_table(N), N)
        np.cumsum(prefix, out=prefix)
        yield prefix
        del prefix  # not held while the next one is built


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


def triple_deltas(
    chi1: RealCharacter,
    chi2: RealCharacter,
    chi3: RealCharacter,
    xs: Sequence[float],
    cap: int = DEFAULT_RAW_CAP,
) -> List[DeltaSample]:
    """Raw sum, residue main term, and their exact difference at every x of
    xs, with the raw sums from one triple_raw_sums call.

    x below 1 is rejected; x above the brute-force cap raises with a hint
    to pass a larger cap explicitly.
    """
    for x in xs:
        if x < 1:
            raise ValueError(f"x must be >= 1, got {x}")
        if x > cap:
            raise ValueError(
                f"x = {x} exceeds the brute-force cap {cap}; pass cap=... "
                "(CLI: --cap) to override"
            )
    raws = triple_raw_sums(chi1, chi2, chi3, xs).tolist()
    D = chi1.conductor * chi2.conductor * chi3.conductor
    Dmax = max(chi1.conductor, chi2.conductor, chi3.conductor)
    out = []
    for x, raw in zip(xs, raws):
        residue = residue_main_term((chi1, chi2, chi3), x)
        out.append(DeltaSample(
            x=float(x),
            d1=chi1.discriminant,
            d2=chi2.discriminant,
            d3=chi3.discriminant,
            raw_sum=raw,
            residue=residue,
            delta=raw - residue,
            bound_value=theorem_bound_value(D, Dmax, x),
        ))
    return out


def triple_delta(
    chi1: RealCharacter,
    chi2: RealCharacter,
    chi3: RealCharacter,
    x: float,
    cap: int = DEFAULT_RAW_CAP,
    naive_check: bool = False,
) -> DeltaSample:
    """The one-element case of triple_deltas; with naive_check, the raw sum
    must also equal the convolution oracle's, else OracleMismatchError."""
    [sample] = triple_deltas(chi1, chi2, chi3, [x], cap)
    if naive_check:
        ref = naive_triple_raw(chi1, chi2, chi3, x)
        if sample.raw_sum != ref:
            raise OracleMismatchError(f"production {sample.raw_sum} != naive {ref} at x={x}")
    return sample


def _two_prod(a, b):
    """(p, e) with p = fl(a b) and p + e = a b exactly, for float64 arrays
    (Dekker's product with Veltkamp's split; no overflow or underflow)."""
    p = a * b
    c = 134217729.0 * a  # 2^27 + 1
    ah = c - (c - a)
    c = 134217729.0 * b
    bh = c - (c - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


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

    with compensated summation; error budget about length * 2^-50.

    The phase is taken mod 1 before the exponential, since a float phase
    near 1e5 alone is off by about 1e-11.  u = n1 n2 n3 x / D is formed in
    double-double (exact while n1 n2 n3 < 2^53), cbrt(u) by one Newton step
    from the float cube root, also in double-double (relative error about
    2^-100), and m n3 mod D3 in integers.  So each reduced phase in
    [-1/2, 1/2] is within about 2^-52 of the exact one, and each term
    within about 2 pi 2^-52 plus the error of cos and sin."""
    lo, hi = int(n3_range[0]), int(n3_range[1])
    if lo > hi:
        raise ValueError(f"empty range [{lo}, {hi}]")
    if min(n1, n2, lo) < 1 or x <= 0 or D <= 0:
        raise ValueError("n1, n2, range and x, D must be positive")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    q3 = chi3.conductor
    n3 = np.arange(lo, hi + 1, dtype=np.int64)
    D = float(D)
    ph, pl = _two_prod(n1 * n2 * n3.astype(np.float64), float(x))
    uh = ph / D
    th, tl = _two_prod(uh, D)
    ul = (((ph - th) - tl) + pl) / D  # u = uh + ul
    v = np.cbrt(uh)
    sh, sl = _two_prod(v, v)
    ch, cl = _two_prod(sh, v)  # v^3 = ch + cl + sl v
    dv = ((uh - ch) + (ul - cl - sl * v)) / (3.0 * sh)  # cbrt(u) = v + dv
    w, we = _two_prod(np.full_like(v, 3.0), v)  # 3 v = w + we
    f = (w - np.rint(w)) - ((m * n3) % q3) / q3
    f = (f - np.rint(f)) + (we + 3.0 * dv)
    arg = (2.0 * math.pi * sign) * (f - np.rint(f))
    return complex(math.fsum(np.cos(arg).tolist()), math.fsum(np.sin(arg).tolist()))


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
