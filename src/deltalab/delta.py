"""Brute-force triple character sums and single exponential sums, with
exponent fitting against the symbolic bounds.

The raw triple sum

    sum_{n1 n2 n3 <= x} chi1(n1) chi2(n2) chi3(n3)

is computed in exact integer arithmetic (character values lie in -1,0,1):
the production path is triple_raw_sums, the three-variable Dirichlet
hyperbola with y = icbrt(x) run for many x at once, exact below
EXACT_X_LIMIT (about 8.4e14), with triple_raw_sum, triple_deltas and
triple_delta on top of it.  Its one kernel, _row_sums, computes each
hyperbola row's quotients once (under 2 x^(2/3) + 2 x^(1/3) per x) and
S(v) = sum_{k<=v} chi(k) once per character, for all three pair sums and
the middle term.  Its oracle, the coefficient convolution chi1 * chi2 * chi3
summed to every x <= N (naive_triple_raw_prefix), shares no code with it.
Only the residue of the L-product is floating point, so delta carries a
single rounding.

Empirical comparisons against the symbolic bounds are report-only: the
suite asserts oracle equality and hard invariants, never that an asymptotic
bound "holds" (unknown constants and the x^eps factor make such assertions
meaningless at desk scale).
"""

from __future__ import annotations

import itertools
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
    "exponent_fit",
    "bound_check",
    "DEFAULT_RAW_CAP",
    "EXACT_X_LIMIT",
]

#: Default brute-force cap for the (hyperbola-assisted) raw sum.
DEFAULT_RAW_CAP = 10**9

#: The raw sums are exact below this x, about 8.41e14 (see triple_raw_sums).
EXACT_X_LIMIT = int(2**53 / (1 + math.log(TILE)))


def _exact_x(x):
    if x >= EXACT_X_LIMIT:
        raise ValueError(f"x = {x:g} is past the exact range x < {EXACT_X_LIMIT:.4g}")
    return x


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


def _row_sums(chars, M: np.ndarray, s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """R[k, r, j] = sum_{a <= s_r} chi_j(a) S_k(M_r // a) and R[k, r, K + j] over
    a <= y_r, in int64, for the K distinct characters chars and rows with M
    non-increasing, s = isqrt(M) and y <= s.  Per block of rows, as wide as its
    first (S(0) = 0 past a row's width) and of TILE entries over all K: one
    M // a tile, one S_k gather per character (take's "clip" mode writes
    unbuffered; indices are in range), one float64 product with [V | V at a <= y]."""
    K, R, trivial = len(chars), len(M), [k for k, c in enumerate(chars) if c.conductor == 1]
    out = np.zeros((K, R, 2 * K), dtype=np.int64)
    qtype = np.int32 if R and M[0] < 2**31 else np.int64  # int32 divides by q 3x as fast
    gathers = [(k, c.float_prefix(), qtype(c.conductor)) for k, c in enumerate(chars) if k not in trivial]
    Mf, top = M.astype(np.float64), int(s[0]) if R else 0
    for a0 in range(1, top + 1, TILE):
        a = np.arange(a0, min(a0 + TILE, top + 1), dtype=np.int64)
        V = np.stack([c.values(a) for c in chars], axis=1).astype(np.float64)
        V2, masked, acc, lo = np.hstack((V, 0 * V)), 0, np.zeros((K, R, 2 * K)), 0
        af, widths = a.astype(np.float64), np.minimum(s + 1 - a0, len(a)).tolist()
        ends = np.clip(y + 1 - a0, 0, len(a)).tolist()  # each row's middle-term columns
        while lo < R and widths[lo] > 0:
            w, hi = widths[lo], min(lo + max(1, TILE // (K * widths[lo])), R)
            rows, h, m, p = slice(lo, hi), hi - lo, max(widths[hi - 1], 0), max(ends[lo:hi])
            q = floor_div(Mf[rows, None], af[:w], qtype)
            q[:, m:] *= a[m:w] <= s[rows, None]
            S = np.empty((K, h, w))
            for k, table, c in gathers:
                table.take(q - q // c * c, out=S[k], mode="clip")
            S[trivial] = q  # S(t) = t
            if p != masked:
                V2[:, K:], masked = V * (a < a0 + p)[:, None], p
            res = S.reshape(K * h, w) @ V2[:w]
            if min(ends[lo:hi]) < p:  # rows of smaller y: take off their a in (y, p]
                res[:, K:] -= (S[:, :, :p] * (a[:p] > y[rows, None])).reshape(K * h, p) @ V[:p]
            acc[:, rows], lo = res.reshape(K, h, 2 * K), hi
        out += acc.astype(np.int64)
    return out


def pair_summatory(c1: RealCharacter, c2: RealCharacter, t: int) -> int:
    """Exact sum of chi1(a) chi2(b) over ab <= t, O(sqrt t): P_12(t) of triple_raw_sums."""
    t, chars = _exact_x(max(int(t), 0)), list(dict.fromkeys((c1, c2)))
    i, j, s = chars.index(c1), chars.index(c2), math.isqrt(t)
    r = _row_sums(chars, np.array([t]), np.array([s]), np.zeros(1, dtype=np.int64))[:, 0]
    return int(r[j, i] + r[i, j]) - int(c1.partial_sum(s)) * int(c2.partial_sum(s))


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

    where the last term needs no product condition because y^3 <= N, and
    P_jk(M) = sum_{a <= isqrt(M)} [chi_j(a) S_k(M // a) + chi_k(a) S_j(M // a)]
    - S_j(isqrt(M)) S_k(isqrt(M)).

    The N are taken in decreasing order and in groups whose y sum to at
    most TILE, one row per (N, n <= y) with M = N // n; rows with equal
    (M, y) are merged, as nearby N share most of them.  One _row_sums pass
    gives each row's sums over a <= isqrt(M), for the pair sums, and over
    its prefix b <= y (M >= y^2), for the middle term (N // ab = M // b),
    from each row's isqrt(M) quotients (under 2 x^(2/3) + 2 x^(1/3) per x)
    in tiles as wide as their widest row, the rest masked, of at most TILE
    entries, as is every row array while y <= TILE (x < 4.4e12).

    Exact below EXACT_X_LIMIT, ValueError from there on: a float64 row sum
    is exact below 2^53, and one over a chunk of TILE columns is at most
    x (1 + ln TILE), at the trivial character (S(t) = t)."""
    _exact_x(max(xs, default=0))
    Ns = np.array([math.floor(x) for x in xs], dtype=np.int64)
    out = np.zeros(len(Ns), dtype=np.int64)
    order = np.flatnonzero(Ns >= 1)
    order = order[np.argsort(-Ns[order], kind="stable")]
    N = Ns[order]  # non-increasing, so y is too
    y = _icbrt(N)
    ends, lo = np.cumsum(y), 0
    while lo < len(N):
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - y[lo] + TILE, "right")))
        out[order[lo:hi]] = _hyperbola((c1, c2, c3), N[lo:hi], y[lo:hi])
        lo = hi
    return out


def _hyperbola(chis, N: np.ndarray, y: np.ndarray) -> np.ndarray:
    """triple_raw_sums' hyperbola for decreasing N >= 1 with y = icbrt(N)."""
    chars = list(dict.fromkeys(chis))  # distinct, so each S_k is gathered once
    ix, K = [chars.index(c) for c in chis], len(chars)
    starts, owner = np.cumsum(y) - y, np.repeat(np.arange(len(N)), y)
    n = np.arange(1, len(owner) + 1, dtype=np.int64) - starts[owner]
    M, ym = N[owner] // n, y[owner]
    key, merged = np.unique(-M + 1j * ym, return_inverse=True)  # by -M, then y; equal (M, y) merged
    M, ym = (-key.real).astype(np.int64), key.imag.astype(np.int64)
    s = _isqrt(M)
    sums, Ss = _row_sums(chars, M, s, ym), np.stack([c.partial_sum(s) for c in chars])
    j, k = [ix[1], ix[0], ix[0]], [ix[2], ix[2], ix[1]]  # term i's pair (j, k)
    pair = sums[k, :, j] + sums[j, :, k] - Ss[j] * Ss[k]  # P_jk(M)
    # the middle term's sum_{b<=y} chi_j(b) S_k(M // b), weighted by chi_1, chi_1, chi_2
    terms = np.concatenate((pair, -sums[[ix[2], ix[1], ix[0]], :, [K + ix[1], K + ix[2], K + ix[2]]]))
    vals = np.stack([c.values(n) for c in chars])[[ix[i] for i in (0, 1, 2, 0, 0, 1)]]
    row = (vals * terms[:, merged]).sum(axis=0)
    return np.prod([c.partial_sum(y) for c in chis], axis=0) + np.add.reduceat(row, starts)


def triple_raw_sum(c1: RealCharacter, c2: RealCharacter, c3: RealCharacter, x: float) -> int:
    """Exact raw triple sum at one x: the one-element case of triple_raw_sums."""
    return int(triple_raw_sums(c1, c2, c3, [x])[0])


def naive_triple_raw_prefix(
    c1: RealCharacter, c2: RealCharacter, c3: RealCharacter, N: int
) -> np.ndarray:
    """Oracle: the raw sums at every integer x <= N.  The raw sum's
    Dirichlet series is L(s,chi1) L(s,chi2) L(s,chi3), so its coefficients
    are the convolution chi1 * chi2 * chi3 (Tenenbaum, I.3): two
    sieves.convolve calls, then a prefix sum.  Exact int64, O(N log N), and
    no code shared with the production hyperbola (_row_sums, partial_sum).

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
    double-double (exact while n1 n2 n3 < 2^53, so n1 n2 hi >= 2^53 raises
    ValueError), cbrt(u) by one Newton step from the float cube root, also
    in double-double (relative error about 2^-100), and m n3 mod D3 in
    integers.  So each reduced phase in [-1/2, 1/2] is within about 2^-52
    of the exact one, and each term within about 2 pi 2^-52 plus the error
    of cos and sin."""
    lo, hi = int(n3_range[0]), int(n3_range[1])
    if lo > hi:
        raise ValueError(f"empty range [{lo}, {hi}]")
    if min(n1, n2, lo) < 1 or x <= 0 or D <= 0:
        raise ValueError("n1, n2, range and x, D must be positive")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if n1 * n2 * hi >= 2**53:
        raise ValueError("n1 * n2 * n3 must stay below 2^53, where u is exact")
    q3, D, x = chi3.conductor, float(D), float(x)

    def arg(start):  # 2 pi sign times the reduced phases of one tile of n3
        n3 = np.arange(start, min(start + TILE, hi + 1), dtype=np.int64)
        ph, pl = _two_prod(n1 * n2 * n3.astype(np.float64), x)
        uh = ph / D
        th, tl = _two_prod(uh, D)
        ul = (((ph - th) - tl) + pl) / D  # u = uh + ul
        v = np.cbrt(uh)
        sh, sl = _two_prod(v, v)
        ch, cl = _two_prod(sh, v)  # v^3 = ch + cl + sl v
        dv = ((uh - ch) + (ul - cl - sl * v)) / (3.0 * sh)  # cbrt(u) = v + dv
        w, we = _two_prod(np.full_like(v, 3.0), v)  # 3 v = w + we
        f = (w - np.rint(w)) - ((m % q3) * (n3 % q3) % q3) / q3  # below q3^2: no int64 wrap
        f = (f - np.rint(f)) + (we + 3.0 * dv)
        return (2.0 * math.pi * sign) * (f - np.rint(f))

    starts = range(lo, hi + 1, TILE)  # one fsum per part rounds the exact sum once, in any order
    return complex(*(math.fsum(itertools.chain.from_iterable(fn(arg(s)).tolist() for s in starts))
                     for fn in (np.cos, np.sin)))


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
