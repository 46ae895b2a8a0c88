"""Benchmark-side exact references, written without deltalab's summation code.

Every benchmark op is checked against one of these, outside the timed
region.  They take character values as period tables (chi(0..q-1), from
``RealCharacter.period_array``) and share no summation logic with
``deltalab.delta`` or ``deltalab.tables``.

Integers stay exact in int64: every partial sum here is bounded by the
number of lattice points under the hyperbola it counts, below
x (log x)^2 < 4e11 for x <= 1e9, far inside int64.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

#: Rows per chunk of the vectorized two-factor sums, so temporaries stay
#: near 2^20 elements whatever the size.
_CHUNK_ELEMENTS = 1 << 20


def icbrt(n: int) -> int:
    """Largest y with y**3 <= n, for n >= 0."""
    y = int(round(n ** (1.0 / 3.0)))
    while y**3 > n:
        y -= 1
    while (y + 1) ** 3 <= n:
        y += 1
    return y


class CharTable:
    """Values chi(n) and prefix sums S(v) = sum_{1<=k<=v} chi(k) of a real
    primitive character, from its period table."""

    def __init__(self, period: np.ndarray):
        self.q = len(period)
        self.per = np.asarray(period, dtype=np.int64)
        # A nonprincipal character sums to 0 over a period, so S(v) only
        # depends on v mod q; cum[r] = chi(0) + ... + chi(r) with chi(0) = 0.
        self.cum = np.cumsum(self.per)

    def values(self, n: np.ndarray) -> np.ndarray:
        return self.per[n % self.q]

    def prefix(self, v):
        if self.q == 1:
            return v
        return self.cum[v % self.q]


def pair_sums(cj: CharTable, ck: CharTable, t: np.ndarray) -> np.ndarray:
    """P(t) = sum_{ab <= t} chi_j(a) chi_k(b) for every t in the array, by
    the two-factor hyperbola with a, b <= sqrt t, vectorized over a."""
    t = np.asarray(t, dtype=np.int64)
    s = np.array([math.isqrt(int(v)) for v in t], dtype=np.int64)
    out = np.empty(len(t), dtype=np.int64)
    smax = int(s.max()) if len(s) else 0
    a = np.arange(1, smax + 1, dtype=np.int64)
    wj, wk = cj.values(a), ck.values(a)
    rows = max(1, _CHUNK_ELEMENTS // max(smax, 1))
    for lo in range(0, len(t), rows):
        tt, ss = t[lo : lo + rows], s[lo : lo + rows]
        width = int(ss.max())
        quot = tt[:, None] // a[None, :width]
        live = a[None, :width] <= ss[:, None]
        terms = wj[:width] * ck.prefix(quot) + wk[:width] * cj.prefix(quot)
        out[lo : lo + rows] = (terms * live).sum(axis=1) - cj.prefix(ss) * ck.prefix(ss)
    return out


def triple_raw_sum(p1: np.ndarray, p2: np.ndarray, p3: np.ndarray, N: int) -> int:
    """sum_{n1 n2 n3 <= N} chi1(n1) chi2(n2) chi3(n3), exact.

    Three-variable hyperbola (Dirichlet's method; Tenenbaum, Introduction
    to Analytic and Probabilistic Number Theory, I.3.2) with y = icbrt(N):
    every triple has some n_i <= y, so inclusion-exclusion over the events
    A_i = {n_i <= y} gives

        sum_i sum_{n<=y} chi_i(n) P_jk(N//n)
      - sum_{i<j} sum_{a,b<=y} chi_i(a) chi_j(b) S_k(N//ab)
      + S_1(y) S_2(y) S_3(y),

    where the last term needs no product condition because y^3 <= N.
    """
    N = int(N)
    if N < 1:
        return 0
    c = [CharTable(p) for p in (p1, p2, p3)]
    y = icbrt(N)
    n = np.arange(1, y + 1, dtype=np.int64)
    total = 0
    for i, j, k in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
        total += int(np.dot(c[i].values(n), pair_sums(c[j], c[k], N // n)))
    for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
        weights = np.outer(c[i].values(n), c[j].values(n))
        total -= int((weights * c[k].prefix(N // np.outer(n, n))).sum())
    total += int(c[0].prefix(y)) * int(c[1].prefix(y)) * int(c[2].prefix(y))
    return total


def _blocks(N: int):
    """(k_lo, k_hi, v) for the O(sqrt N) blocks where N // k == v."""
    k = 1
    while k <= N:
        v = N // k
        k2 = N // v
        yield k, k2, v
        k = k2 + 1


def _divisor_summatory(t: int) -> int:
    """D(t) = sum_{m<=t} tau(m) = 2 sum_{a<=sqrt t} t//a - (sqrt t)^2."""
    s = math.isqrt(t)
    a = np.arange(1, s + 1, dtype=np.int64)
    return 2 * int((t // a).sum()) - s * s


def lambda_sum(period: np.ndarray, N: int) -> int:
    """sum_{n<=N} (1*chi)(n) = sum_k chi(k) floor(N/k), by blocks of k."""
    c = CharTable(period)
    return sum(int(c.prefix(k2) - c.prefix(k1 - 1)) * v for k1, k2, v in _blocks(N))


def rho_sum(period: np.ndarray, N: int) -> int:
    """sum_{n<=N} (1*1*chi)(n) = sum_k chi(k) D(N//k), by blocks of k."""
    c = CharTable(period)
    return sum(
        int(c.prefix(k2) - c.prefix(k1 - 1)) * _divisor_summatory(v) for k1, k2, v in _blocks(N)
    )


def _primes_to(n: int) -> np.ndarray:
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve)


def prime_window(lo: int, hi: int) -> Tuple[int, float]:
    """(number of primes, sum of Lambda(n)) over the integers lo < n <= hi,
    from one sieve of the window by the primes up to sqrt(hi)."""
    if hi <= lo:
        return 0, 0.0
    start = lo + 1
    composite = np.zeros(hi - lo, dtype=bool)  # index i <-> n = start + i
    composite[: max(0, 2 - start)] = True
    base = _primes_to(math.isqrt(hi))
    for p in base.tolist():
        first = max(p * p, -(-start // p) * p)
        composite[first - start :: p] = True
    primes = np.flatnonzero(~composite) + start
    logs = [float(np.log(primes.astype(np.float64)).sum())]
    for p in base.tolist():
        pk = p * p
        while pk <= hi:
            if pk > lo:
                logs.append(math.log(p))
            pk *= p
    return len(primes), math.fsum(logs)
