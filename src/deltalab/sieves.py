"""Shared sieve utilities: primes, smallest prime factors, Mobius, tau,
Dirichlet convolution, a segmented von Mangoldt window sum for large x, and
the float floor division that the hyperbola kernels share.

Everything returns numpy arrays indexed by n (entry 0 unused where noted).
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

#: Segment length for windowed sieves (2^22 entries per block).
SEGMENT = 1 << 22

#: Entries per tile of every numpy kernel that walks its input in tiles,
#: so that its temporaries stay this size whatever the input: 2^14 int64
#: are 128 KiB, glibc's default mmap threshold.  (Blocks of 2^17 grew the
#: heap, which stayed resident: the tables-build peak RSS rose by 2-3 MB.)
TILE = 1 << 14

#: A base prime with at least this many multiples in a block clears them by
#: a strided slice of its own; the others share one fancy-indexed store per
#: multiple rank, so the Python loop runs over the small primes only.
_STRIDED_FROM = 16


def floor_div(t, d, dtype=np.int64) -> np.ndarray:
    """t // d for float64 arrays (or ints) holding integers t >= 0 and
    d >= 1 (broadcast), as int64 (or as dtype, if that holds every
    quotient), by one float division.  Exact while t + d < 2^53: a
    non-integral t/d lies at least 1/d below the next integer k + 1, and
    rounding moves it by at most (k + 1) 2^-53 < 1/d.  int64 division has
    no SIMD path and costs about twice as much."""
    return (t / d).astype(dtype)


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
    """spf[k] = smallest prime factor of k (spf[1] = 1, spf[0] = 0), int32.

    One strided store per prime p <= isqrt(n), from p^2 on, in descending
    order: the smallest prime of k is written last."""
    spf = np.arange(n + 1, dtype=np.int32)
    for p in primes_up_to(math.isqrt(n))[::-1].tolist():
        spf[p * p :: p] = p
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

    A coefficient of exactly 1 or -1 adds or subtracts its slice with no
    product temporary: a - b is a + (-b) in integers and in IEEE floats, so
    h is the same bit for bit.  Other products take numpy's promoted
    dtype: f or g must be wide enough."""
    fmax = n if fmax is None else max(0, min(int(fmax), n))
    h = np.zeros(n + 1, dtype=np.result_type(f, g))
    s = math.isqrt(n)
    ds = np.flatnonzero(f[1 : min(s, fmax) + 1] != 0) + 1
    for d, c in zip(ds.tolist(), f[ds].tolist()):
        _add_scaled(h[d::d], c, f[d], g[1 : n // d + 1])
    if fmax > s:
        ms = np.flatnonzero(g[1 : n // (s + 1) + 1] != 0) + 1
        for m, c in zip(ms.tolist(), g[ms].tolist()):
            top = min(n // m, fmax)
            _add_scaled(h[m * (s + 1) : m * top + 1 : m], c, g[m], f[s + 1 : top + 1])
    return h


def _add_scaled(out: np.ndarray, c, scalar, v: np.ndarray) -> None:
    """out += scalar * v in place, where c is scalar as a Python number; a
    product is formed TILE entries at a time, so its temporary stays that size."""
    if c == 1:
        out += v
    elif c == -1:
        out -= v
    else:
        for lo in range(0, len(v), TILE):
            out[lo : lo + TILE] += scalar * v[lo : lo + TILE]


def tau_array(n: int) -> np.ndarray:
    """Divisor counts tau(k) for k <= n, as the convolution 1 * 1."""
    one = np.broadcast_to(np.int64(1), (n + 1,))  # zero-stride constant 1
    return convolve(one, one, n)


def von_mangoldt_window(lo: int, hi: int) -> Tuple[float, int]:
    """(sum of Lambda(n) for lo < n <= hi, count of primes in that range).

    Segmented: prime marks per 2^22-entry block.  A base prime p clears its
    multiples from max(p^2, the block's start) on: by a strided slice when
    it has at least _STRIDED_FROM of them in the block, else together with
    every other such prime, one store per multiple rank.  Higher prime
    powers p^k take one pass over the base primes per k (there are only
    O(sqrt(hi)) of them), each adding math.log(p) once.
    """
    if hi <= lo:
        return 0.0, 0
    base = primes_up_to(math.isqrt(hi))
    log_terms = []
    prime_count = 0
    for a in range(lo + 1, hi + 1, SEGMENT):  # blocks [a, b) covering (lo, hi]
        b = min(a + SEGMENT, hi + 1)
        seg = np.ones(b - a, dtype=bool)
        if a <= 1 < b:
            seg[1 - a] = False
        if a <= 0 < b:
            seg[0 - a] = False
        off = np.maximum(base * base, -(-a // base) * base) - a  # first multiple, in the block
        count = (b - a - 1 - off) // base + 1  # <= 0 past the block's end
        strided = count >= _STRIDED_FROM
        for o, p in zip(off[strided].tolist(), base[strided].tolist()):
            seg[o::p] = False
        few = (count > 0) & ~strided
        off, p = off[few], base[few]
        while off.size:  # fewer than _STRIDED_FROM rounds
            seg[off] = False
            off += p
            inside = off < b - a
            off, p = off[inside], p[inside]
        idx = np.flatnonzero(seg) + a
        prime_count += len(idx)
        if len(idx):
            log_terms.append(float(np.log(idx.astype(np.float64)).sum()))
    # Higher prime powers pk = p^k, k >= 2, with lo < pk <= hi.
    p, pk = base, base * base
    while p.size:
        log_terms.extend(map(math.log, p[pk > lo].tolist()))
        more = pk <= hi // p
        p, pk = p[more], pk[more] * p[more]
    return math.fsum(log_terms), prime_count
