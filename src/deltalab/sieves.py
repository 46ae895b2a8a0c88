"""Shared sieve utilities: primes, smallest prime factors, Mobius, tau,
Dirichlet convolution, and a segmented von Mangoldt window sum for large x.

Everything returns numpy arrays indexed by n (entry 0 unused where noted).
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Tuple

import numpy as np

#: Segment length for windowed sieves (2^22 entries per block).
SEGMENT = 1 << 22


def prime_mask(n: int) -> np.ndarray:
    """Boolean array of length n+1, True at primes."""
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return mask


def primes_up_to(n: int) -> np.ndarray:
    return np.flatnonzero(prime_mask(n)).astype(np.int64)


def smallest_prime_factor(n: int) -> np.ndarray:
    """spf[k] = smallest prime factor of k (spf[1] = 1, spf[0] = 0).  No
    caller in the package: kept only because bench/tracing.py names it."""
    spf = np.arange(n + 1, dtype=np.int64)
    for p in range(2, math.isqrt(n) + 1):
        if spf[p] == p:
            sl = spf[p * p :: p]
            sl[sl == np.arange(p * p, n + 1, p)] = p
    return spf


def mobius_array(n: int) -> np.ndarray:
    """mu[k] for k <= n by strided passes over the primes p <= isqrt(n) only.

    Each pass flips the sign on the multiples of p, zeroes those of p^2 and
    divides rest[k] = k by p, so rest[k] ends as k over its distinct primes
    <= isqrt(n).  A squarefree k then has exactly one prime factor above
    isqrt(n) (two would exceed n) where rest[k] > 1, and one last sign flip
    there finishes mu.
    """
    mu = np.ones(n + 1, dtype=np.int8)
    mu[0] = 0
    rest = np.arange(n + 1)
    for p in primes_up_to(math.isqrt(n)).tolist():
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
        rest[p::p] //= p
    mu[rest > 1] *= -1
    del rest  # freed before the int64 copy: at most 10 bytes per k alive at once
    return mu.astype(np.int64)


def convolve(f: np.ndarray, g: np.ndarray, n: int, fmax: Optional[int] = None) -> np.ndarray:
    """h[k] = sum_{dm=k, d <= fmax} f[d] g[m] for 1 <= k <= n, split at
    s = isqrt(n): a strided pass per nonzero f[d], d <= s, then one per
    nonzero g[m], m <= n // (s + 1), for d in (s, min(n // m, fmax)].
    Products take numpy's promoted dtype: f or g must be wide enough."""
    fmax = n if fmax is None else max(0, min(int(fmax), n))
    h = np.zeros(n + 1, dtype=np.result_type(f, g))
    s = math.isqrt(n)
    for d in np.flatnonzero(f[1 : min(s, fmax) + 1]).tolist():
        d += 1
        h[d::d] += f[d] * g[1 : n // d + 1]
    if fmax > s:
        for m in np.flatnonzero(g[1 : n // (s + 1) + 1]).tolist():
            m += 1
            top = min(n // m, fmax)
            h[m * (s + 1) : m * top + 1 : m] += g[m] * f[s + 1 : top + 1]
    return h


def tau_array(n: int) -> np.ndarray:
    """Divisor counts tau(k) for k <= n, as the convolution 1 * 1."""
    one = np.broadcast_to(np.int64(1), (n + 1,))  # zero-stride constant 1
    return convolve(one, one, n)


def windows(lo: int, hi: int, width: int = SEGMENT) -> Iterator[Tuple[int, int]]:
    """Half-open [a, b) segments covering the half-open (lo, hi]."""
    a = lo + 1
    while a <= hi:
        b = min(a + width, hi + 1)
        yield a, b
        a = b


def von_mangoldt_window(lo: int, hi: int) -> Tuple[float, int]:
    """(sum of Lambda(n) for lo < n <= hi, count of primes in that range).

    Segmented: prime marks per 2^22-entry block; higher prime powers are
    enumerated directly (there are only O(sqrt(hi)) of them).
    """
    if hi <= lo:
        return 0.0, 0
    base = primes_up_to(math.isqrt(hi))
    log_terms = []
    prime_count = 0
    for a, b in windows(lo, hi):
        seg = np.ones(b - a, dtype=bool)
        if a <= 1 < b:
            seg[1 - a] = False
        if a <= 0 < b:
            seg[0 - a] = False
        for p in base:
            p = int(p)
            start = max(p * p, ((a + p - 1) // p) * p)
            if start < b:
                seg[start - a :: p] = False
        idx = np.flatnonzero(seg) + a
        prime_count += len(idx)
        if len(idx):
            log_terms.append(float(np.log(idx.astype(np.float64)).sum()))
    # Higher prime powers p^k with lo < p^k <= hi.
    for p in base:
        p = int(p)
        pk = p * p
        while pk <= hi:
            if pk > lo:
                log_terms.append(math.log(p))
            pk *= p
    return math.fsum(log_terms), prime_count
