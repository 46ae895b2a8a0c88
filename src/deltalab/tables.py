"""Sieved tables of the character convolution functions, their cutoff
splits, divisor-sum asymptotics, and short-interval prime counts.

The functions, all attached to a real character chi of conductor D:

    lam  = 1 * chi            (integer)
    nu   = mu * (mu chi)      (integer)
    rho  = 1 * lam            (integer)
    lam' (d) = sum_{kl=d} chi(k) log l  = (lam * Lambda)(d)
    Lambda(n) = sum_{dm=n} lam'(d) nu(m)   (the von Mangoldt function)

plus the splits at the cutoff C (default D^2): rho = rho* + rho_*,
Lambda = Lambda* + Lambda_* according to m <= C versus m > C.
lam, nu and rho are multiplicative, so they are built from their values at
prime powers (Apostol, Introduction to Analytic Number Theory, ch. 2), with
strided passes per prime p <= sqrt(N); verify_table_identities checks them
against the convolutions that define them.  rho*, lam' and Lambda* are
sieves.convolve calls, which split the divisor pairs at sqrt(N): about
2 sqrt(N) numpy passes per table.

lam' and Lambda are integer combinations of logarithms of primes.  The
float arrays evaluate those combinations against the shared correctly
rounded math.log values; the identity checks in verify_table_identities
compare the integer coefficient vectors themselves (prime by prime up to
sqrt(N), and once for all larger primes, whose vectors depend on p only
through N // p), so they are exact and immune to float accumulation.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Dict, Optional

import numpy as np

from .characters import RealCharacter, ResiduePattern, l_one, l_one_derivative, residue_main_term
from .monomials import Monomial, evaluate, mono
from .sieves import convolve, mobius_array, primes_up_to
from .sieves import tau_array, von_mangoldt_window

__all__ = [
    "FunctionTable",
    "CountReport",
    "AsymptoticReport",
    "sieve_tables",
    "divisor_sum",
    "asymptotic_residual",
    "psi_counts",
    "tau_moment_bound",
    "verify_table_identities",
    "lam_prime_summatory",
    "nu_value",
    "MemoryBudgetError",
    "ERROR_MONOMIALS",
]


class MemoryBudgetError(MemoryError):
    """Table would not fit the configured budget."""


class IdentityCheckError(AssertionError):
    """An exact convolution-identity check failed."""


#: Bytes per entry: sieve_tables' tracemalloc peak is 72.0 at N = 1e5 and 1e6
#: (the nine output arrays), 72.2 at 1e4 and 73.4 at 2000; rounded up.
_BYTES_PER_ENTRY = 74
DEFAULT_MEMORY_BUDGET = 2 << 30

#: Block ends per tile of lam_prime_summatory: its temporaries stay this
#: size whatever z is.
_QUOTIENT_TILE = 1 << 12

#: Absolute tolerance of the float checks in verify_table_identities.
_FLOAT_SLACK = 1e-9

#: Error-term monomials of the divisor-sum asymptotics, eps = 0.
ERROR_MONOMIALS: Dict[str, Monomial] = {
    "lambda": mono(D=Fraction(1, 3), x=Fraction(1, 3)),
    "lambda_prime": mono(D=Fraction(1, 3), x=Fraction(1, 3)),
    "rho": mono(D=Fraction(527, 1038), x=Fraction(511, 1038)),
}


@dataclass(frozen=True)
class FunctionTable:
    """Arrays over n in [1, N] (index 0 unused), immutable after build."""

    limit: int
    chi: RealCharacter
    cutoff: int
    lam: np.ndarray
    nu: np.ndarray
    rho: np.ndarray
    rho_star: np.ndarray
    rho_substar: np.ndarray
    lam_prime: np.ndarray
    Lam: np.ndarray
    Lam_star: np.ndarray
    Lam_substar: np.ndarray

    def array(self, f: str) -> np.ndarray:
        return getattr(self, _canonical_name(f))


_NAME_ALIASES = {
    **{f.name: f.name for f in fields(FunctionTable) if f.name not in ("limit", "chi", "cutoff")},
    "lambda": "lam",
    "rho*": "rho_star",
    "rho_*": "rho_substar",
    "lambda_prime": "lam_prime",
    "lambda'": "lam_prime",
    "Lambda": "Lam",
    "Lambda_star": "Lam_star",
    "Lambda*": "Lam_star",
    "Lambda_substar": "Lam_substar",
    "Lambda_*": "Lam_substar",
}


def _canonical_name(f: str) -> str:
    try:
        return _NAME_ALIASES[f]
    except KeyError:
        raise ValueError(
            f"unknown function {f!r}; choose from {sorted(set(_NAME_ALIASES))}"
        ) from None


def _cutoff(chi: RealCharacter, cutoff: Optional[int]) -> int:
    """The split point C: D^2 by default; below 1 every m <= C sum is empty."""
    if cutoff is None:
        return chi.conductor**2
    C = int(cutoff)
    if C < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    return C


def _lam_at_prime_power(c: int, e: int) -> int:
    """lam(p^e) = sum_{k <= e} chi(p^k), where c = chi(p)."""
    return sum(c**k for k in range(e + 1))


def _nu_at_prime_power(c: int, e: int) -> int:
    """nu(p^e) = sum_{i+k=e} mu(p^i) mu(p^k) c^k: 1, -1 - c, c, then 0."""
    return (1, -1 - c, c)[e] if e < 3 else 0


def _rho_at_prime_power(c: int, e: int) -> int:
    """rho(p^e) = sum_{k <= e} lam(p^k)."""
    return sum(_lam_at_prime_power(c, k) for k in range(e + 1))


def nu_value(chi: RealCharacter, m: int) -> int:
    """nu(m) by trial division, from nu's values at prime powers."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    out = 1
    p = 2
    while p * p <= m:
        if m % p == 0:
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            out *= _nu_at_prime_power(chi(p), k)
            if out == 0:
                return 0
        p += 1 if p == 2 else 2
    if m > 1:
        out *= _nu_at_prime_power(chi(m), 1)
    return out


def check_memory_budget(what: str, N: int, bytes_per_entry: int, name: str, hint: str = "") -> None:
    """Raise MemoryBudgetError, with the largest N that fits, when N entries
    of bytes_per_entry bytes each exceed DEFAULT_MEMORY_BUDGET."""
    need = N * bytes_per_entry
    if need > DEFAULT_MEMORY_BUDGET:
        raise MemoryBudgetError(
            f"{what} needs ~{need >> 20} MiB > budget {DEFAULT_MEMORY_BUDGET >> 20} MiB; "
            f"use {name} <= {DEFAULT_MEMORY_BUDGET // bytes_per_entry}{hint}"
        )


def _multiplicative_tables(N: int, chi_tab: np.ndarray):
    """lam, nu and rho on [0, N] (entry 0 is 0): strided passes over the
    multiples of each prime p <= isqrt(N), then one gather for what is left
    of n, which is 1 or a prime above isqrt(N)."""
    rules = (_lam_at_prime_power, _nu_at_prime_power, _rho_at_prime_power)
    # values[chi(p) + 1, e] for every e with 2^e <= N
    values = [np.array([[rule(c, e) for e in range(N.bit_length())] for c in (-1, 0, 1)])
              for rule in rules]
    lam, nu, rho = tabs = [np.ones(N + 1, dtype=np.int64) for _ in rules]
    lam[0] = nu[0] = rho[0] = 0
    rest = np.arange(N + 1, dtype=np.int64)  # n with its primes <= isqrt(N) divided out
    for p in primes_up_to(math.isqrt(N)).tolist():
        e = np.ones(N // p, dtype=np.int64)  # e[j - 1] = v_p(j p)
        pk = p
        while pk <= N // p:
            e[pk - 1 :: pk] += 1
            pk *= p
        for f, v in zip(tabs, values):
            f[p::p] *= v[chi_tab[p] + 1, e]
        rest[p::p] //= p**e
    c, e = chi_tab[rest] + 1, (rest > 1).view(np.int8)  # rest = q^e, e = 0 or 1
    for f, v in zip(tabs, values):
        f *= v[c, e]
    return tabs


def sieve_tables(N: int, chi: RealCharacter, cutoff: Optional[int] = None) -> FunctionTable:
    """Build all nine arrays on [1, N]: lam, nu and rho from their values
    at prime powers, the others by square-root-split convolutions.

    cutoff defaults to D^2 and must be >= 1.  Raises MemoryBudgetError with
    a suggested smaller limit when the arrays would not fit
    DEFAULT_MEMORY_BUDGET.
    """
    N = int(N)
    if N < 1:
        raise ValueError(f"limit must be >= 1, got {N}")
    check_memory_budget(f"limit {N}", N, _BYTES_PER_ENTRY, "limit",
                        " or psi_counts, which streams segmented sieves")
    C = _cutoff(chi, cutoff)
    lam, nu, rho = _multiplicative_tables(N, chi.value_table(N))
    one = np.broadcast_to(np.int64(1), (N + 1,))  # zero-stride constant 1
    rho_star = convolve(lam, one, N, fmax=C)
    rho_substar = rho - rho_star  # exact integer complement of the m <= C part

    # Lambda at prime powers from math.log (the shared correctly rounded
    # table); lam' = Lambda * lam.
    Lam = np.zeros(N + 1, dtype=np.float64)
    for p in primes_up_to(N).tolist():
        lp = math.log(p)
        pk = p
        while pk <= N:
            Lam[pk] = lp
            pk *= p
    lam_prime = convolve(Lam, lam, N)

    Lam_star = convolve(nu, lam_prime, N, fmax=C)
    # Exact float complement so Lambda = Lambda* + Lambda_* holds pointwise;
    # the m > C definition is verified at the coefficient level by
    # verify_table_identities.
    Lam_substar = Lam - Lam_star

    for arr in (lam, nu, rho, rho_star, rho_substar, lam_prime, Lam, Lam_star, Lam_substar):
        arr.setflags(write=False)
    return FunctionTable(
        limit=N,
        chi=chi,
        cutoff=C,
        lam=lam,
        nu=nu,
        rho=rho,
        rho_star=rho_star,
        rho_substar=rho_substar,
        lam_prime=lam_prime,
        Lam=Lam,
        Lam_star=Lam_star,
        Lam_substar=Lam_substar,
    )


def divisor_sum(t: FunctionTable, f: str, x: float):
    """Exact partial sum of f over n <= x (int for the integer functions,
    float for the log-valued ones)."""
    kx = math.floor(x)
    if kx > t.limit:
        raise ValueError(f"x = {x} exceeds table limit {t.limit}")
    if kx < 1:
        return 0
    arr = t.array(f)
    seg = arr[1 : kx + 1]
    if arr.dtype == np.int64:
        return int(seg.sum())
    return float(seg.sum())


@dataclass(frozen=True)
class AsymptoticReport:
    main: float
    residual: float
    normalized: float


def asymptotic_residual(t: FunctionTable, f: str, x: float) -> AsymptoticReport:
    """Residual of the partial sum of f against its smooth main term,
    normalized by the error-term monomial at (D, x) with eps = 0.

    Main terms: lambda -> L(1,chi) x; lambda' -> L x log x + (L' - L) x;
    rho -> L x log x + (L' + (2 gamma - 1) L) x.
    """
    key = _canonical_name(f)
    if key not in ("lam", "lam_prime", "rho"):
        raise ValueError(f"asymptotics available for lambda, lambda_prime, rho; got {f}")
    chi = t.chi
    if key == "lam":
        main = residue_main_term(ResiduePattern(1, (chi,)), x)
        err = ERROR_MONOMIALS["lambda"]
    elif key == "lam_prime":
        L, Ld = l_one(chi), l_one_derivative(chi)
        main = L * x * math.log(x) + (Ld - L) * x
        err = ERROR_MONOMIALS["lambda_prime"]
    else:
        main = residue_main_term(ResiduePattern(2, (chi,)), x)
        err = ERROR_MONOMIALS["rho"]
    total = divisor_sum(t, key, x)
    residual = float(total) - main
    scale = evaluate(err, {"D": float(chi.conductor), "x": float(x)})
    return AsymptoticReport(main=main, residual=residual, normalized=residual / scale)


def lam_prime_summatory(chi: RealCharacter, z: int) -> float:
    """sum_{d <= z} lam'(d) = sum_{k <= z} chi(k) log(floor(z/k)!), O(sqrt z).

    The k with equal quotient v = z // k form a block that ends at k = z // v.
    The block ends are k = 1..isqrt(z), then z // v for every
    v < z // isqrt(z), downwards (a v that no k attains repeats the previous
    end).  With S = chi.partial_sum and k' the previous end (0 at first),
    each block adds [S(k) - S(k')] lgamma(z // k + 1).  The ends go in tiles
    of _QUOTIENT_TILE, with one partial_sum call per tile, so memory does
    not grow with z; the nonzero parts of every tile feed one math.fsum, so
    the result is their correctly rounded sum.
    """
    z = int(z)
    if z < 1:
        return 0.0
    r = math.isqrt(z)
    n = r + z // r - 1  # number of block ends

    def tile_parts(lo: int):
        i = np.arange(lo - 1, min(lo + _QUOTIENT_TILE, n), dtype=np.int64)
        k = np.where(i < r, i + 1, z // (n - i))  # i = lo - 1: the end before the tile
        w = np.diff(chi.partial_sum(k))
        live = w != 0
        lg = map(math.lgamma, (z // k[1:][live] + 1).tolist())
        return map(operator.mul, w[live].tolist(), lg)

    return math.fsum(itertools.chain.from_iterable(map(tile_parts, range(0, n, _QUOTIENT_TILE))))


@dataclass(frozen=True)
class CountReport:
    """Short-interval counts on (x-y, x].  psi is assembled as
    psi_star + psi_substar, so the split identity holds exactly."""

    x: float
    y: float
    psi: float
    psi_star: float
    psi_substar: float
    pi_count: int
    li_value: float
    main_term: float
    ratio: float

    def __post_init__(self):
        if self.psi != self.psi_star + self.psi_substar:
            raise ValueError(
                f"psi {self.psi} != psi_star {self.psi_star} + psi_substar {self.psi_substar}"
            )


def _li_window(a: float, b: float) -> float:
    """Integral of 1/log t over [a, b]; quadrature with 1e-9 tolerance for
    a >= 2, else the principal-value li difference (documented offset-free
    convention)."""
    if b <= a:
        return 0.0
    if a >= 2:
        from scipy.integrate import quad

        val, _ = quad(lambda t: 1.0 / math.log(t), a, b, epsabs=1e-9, epsrel=1e-12, limit=200)
        return float(val)
    import mpmath as mp

    return float(mp.li(b) - mp.li(a))


def psi_counts(
    N_limit: int,
    chi: RealCharacter,
    x: float,
    y: float,
    cutoff: Optional[int] = None,
) -> CountReport:
    """psi, psi*, psi_* over (x-y, x], plus prime count and Li window.

    psi comes from a segmented prime-power sieve; psi* from the m <= C
    convolution via lam_prime_summatory, once per distinct quotient z =
    x // m or (x - y) // m; psi_* is the exact
    complement (Lambda_* = Lambda - Lambda*), and psi is reassembled as
    psi_star + psi_substar (equal to the sieve value up to one rounding).
    cutoff C defaults to D^2 and must be >= 1.
    """
    if not 0 < y <= x:
        raise ValueError(f"need 0 < y <= x, got x={x}, y={y}")
    if x > N_limit:
        raise ValueError(f"x = {x} exceeds N_limit = {N_limit}")
    C = _cutoff(chi, cutoff)
    xi, xmy = math.floor(x), math.floor(x - y)

    psi_sieve, pi_cnt = von_mangoldt_window(xmy, xi)

    # F(z) = lam_prime_summatory(chi, z), once per distinct quotient z
    F = functools.lru_cache(maxsize=None)(functools.partial(lam_prime_summatory, chi))
    star_parts = []
    for m in range(1, min(C, xi) + 1):  # both partial sums vanish for m > x
        v = nu_value(chi, m)
        if v:
            star_parts.append(v * (F(xi // m) - F(xmy // m)))
    psi_star = math.fsum(star_parts)
    psi_substar = psi_sieve - psi_star
    psi = psi_star + psi_substar

    li_val = _li_window(x - y, x)
    return CountReport(
        x=float(x),
        y=float(y),
        psi=psi,
        psi_star=psi_star,
        psi_substar=psi_substar,
        pi_count=int(pi_cnt),
        li_value=li_val,
        main_term=float(y),
        ratio=psi / float(y),
    )


def tau_moment_bound(delta_cap: int, A: float) -> float:
    """The exact finite sum of tau(d)^A / d for d <= delta_cap.

    Reported next to (log cap)^(2^A + 1) by the CLI; the comparison is
    informational only, never asserted as a bound proof.
    """
    delta_cap = int(delta_cap)
    if delta_cap < 2:
        raise ValueError(f"delta_cap must be >= 2, got {delta_cap}")
    if A < 0:
        raise ValueError(f"A must be >= 0, got {A}")
    tau = tau_array(delta_cap)
    tmax = float(tau.max())
    if A * math.log(tmax) > math.log(1e300):
        raise OverflowError(f"tau^A overflows float range at A = {A}")
    d = np.arange(1, delta_cap + 1, dtype=np.float64)
    return float(np.sum(tau[1:].astype(np.float64) ** A / d))


# ---------------------------------------------------------------------------
# Exact identity verification at the log-coefficient level.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TableCheckReport:
    limit: int
    discriminant: int
    primes_checked: int
    max_float_deviation: float


def _prime_coefficients(t: FunctionTable, chi_np: np.ndarray, p: int):
    """The exact log p coefficient vectors of lam', Lambda* and Lambda_* on
    the multiples n = j*p <= N, indexed by j; raises IdentityCheckError
    unless the definition and convolution routes of lam' agree and
    lam' * nu is the indicator of the powers of p."""
    N = t.limit
    top = N // p
    b_c = np.zeros(top + 1, dtype=np.int64)  # b_c[j] = coeff at n = j*p
    stride = 1  # p^(k-1) in compressed coordinates
    while stride <= top:
        b_c[stride::stride] += t.lam[1 : top // stride + 1]
        stride *= p
    w = np.ones(top + 1, dtype=np.int64)  # w[j] = v_p(j*p): l = j*p
    stride = p
    while stride <= top:
        w[stride::stride] += 1
        stride *= p
    a_c = convolve(w, chi_np, top)
    if not np.array_equal(a_c, b_c):
        bad = int(np.flatnonzero(a_c != b_c)[0]) * p
        raise IdentityCheckError(
            f"lam' = lam*Lambda fails at n={bad}, prime {p}: "
            f"definition {a_c[bad // p]}, convolution {b_c[bad // p]}"
        )
    conv_c = convolve(a_c, t.nu, top)
    direct_c = np.zeros(top + 1, dtype=np.int64)
    stride = 1
    while stride <= top:
        direct_c[stride] = 1
        stride *= p
    if not np.array_equal(conv_c, direct_c):
        bad = int(np.flatnonzero(conv_c != direct_c)[0]) * p
        raise IdentityCheckError(
            f"Lambda = lam'*nu fails at n={bad}, prime {p}: "
            f"convolution {conv_c[bad // p]}, direct {direct_c[bad // p]}"
        )
    star_c = np.zeros(top + 1, dtype=np.int64)
    for m in range(1, min(t.cutoff, top) + 1):
        c = int(t.nu[m])
        if c:
            star_c[m::m] += c * a_c[1 : top // m + 1]
    sub_c = direct_c - star_c  # exact integer complement (m > C part)
    return a_c, star_c, sub_c


def verify_table_identities(t: FunctionTable) -> TableCheckReport:
    """Exact verification of every convolution identity.

    lam, nu and rho are compared with their defining convolutions 1*chi,
    mu*(mu chi) and 1*lam; lam' and Lambda are checked prime by prime on
    their integer log-coefficient vectors (the primes above isqrt(N) at once):

        definition route   a_p(d) = sum_{kl=d} chi(k) v_p(l)
        convolution route  b_p(d) = sum_k lam(d / p^k)
        Lambda route       (a_p * nu)(d) == [d is a power of p]

    plus the cutoff splits and 0 <= lam'(d) <= tau(d) log d (float check
    with absolute slack _FLOAT_SLACK), on the exact-coefficient evaluation
    and, for 0 <= lam', on the table's own array.  Raises IdentityCheckError
    on any mismatch.
    """
    N, C = t.limit, t.cutoff
    chi = t.chi
    chi_np = chi.value_table(N).astype(np.int64)

    one = np.broadcast_to(np.int64(1), (N + 1,))  # zero-stride constant 1
    mu = mobius_array(N)
    lam_ref = convolve(chi_np, one, N)
    for name, got, ref in (
        ("lambda = 1*chi", t.lam, lam_ref),
        ("nu = mu*(mu chi)", t.nu, convolve(mu * chi_np, mu, N)),
        ("rho = 1*lambda", t.rho, convolve(lam_ref, one, N)),
    ):
        if not np.array_equal(got[1:], ref[1:]):
            bad = int(np.flatnonzero(got[1:] != ref[1:])[0]) + 1
            raise IdentityCheckError(
                f"{name} fails first at n={bad}: table {got[bad]}, reference {ref[bad]}"
            )
    if not np.array_equal(t.rho[1:], t.rho_star[1:] + t.rho_substar[1:]):
        raise IdentityCheckError("rho != rho* + rho_* pointwise")
    small = min(C, N)
    if np.any(t.rho_substar[1 : small + 1] != 0):
        raise IdentityCheckError("rho_*(n) != 0 for some n <= cutoff")

    # Per-prime exact coefficient checks and the shared-log float build.
    # Coefficient vectors of log p live on multiples of p, so each prime
    # works on the compressed array indexed by j = n/p (length N//p).
    lamp_float = np.zeros(N + 1, dtype=np.float64)
    star_float = np.zeros(N + 1, dtype=np.float64)
    sub_float = np.zeros(N + 1, dtype=np.float64)
    primes = primes_up_to(N)
    n_small = int(np.searchsorted(primes, math.isqrt(N), side="right"))
    for p in primes[:n_small].tolist():
        a_c, star_c, sub_c = _prime_coefficients(t, chi_np, p)
        lp = math.log(p)
        lamp_float[p :: p] += lp * a_c[1:]
        star_float[p :: p] += lp * star_c[1:]
        sub_float[p :: p] += lp * sub_c[1:]

    # A prime p > isqrt(N) has top = N // p < p, so no p^2 enters its
    # vectors: they depend on p only through top, and each is a prefix of
    # those of the smallest such prime, so one check covers them all.  The
    # float build goes once per class of equal top, as one fancy-indexed
    # add over all its primes: the indices p*j are distinct, since n has at
    # most one prime factor above isqrt(N).  That factor is n's largest, so
    # this add comes last for n, as in a build by increasing p, and the
    # float arrays are the same bit for bit.
    large = primes[n_small:]
    if len(large):
        a_c, star_c, sub_c = _prime_coefficients(t, chi_np, int(large[0]))
        logs = np.array([math.log(p) for p in large.tolist()])[:, None]
        tops, firsts, counts = np.unique(N // large, return_index=True, return_counts=True)
        for top, lo, k in zip(tops.tolist(), firsts.tolist(), counts.tolist()):
            idx = large[lo : lo + k, None] * np.arange(1, top + 1)
            lp = logs[lo : lo + k]
            lamp_float[idx] += lp * a_c[1 : top + 1]
            star_float[idx] += lp * star_c[1 : top + 1]
            sub_float[idx] += lp * sub_c[1 : top + 1]

    # lam'(1) = 0 and the inequality 0 <= lam' <= tau log with slack.
    tau = tau_array(N)
    n_arr = np.arange(N + 1, dtype=np.float64)
    n_arr[0] = 1.0
    upper = tau * np.log(n_arr)
    if np.any(lamp_float < -_FLOAT_SLACK) or np.any(lamp_float[1:] > upper[1:] + _FLOAT_SLACK):
        bad = int(np.flatnonzero(
            (lamp_float < -_FLOAT_SLACK) | (lamp_float > upper + _FLOAT_SLACK))[0])
        raise IdentityCheckError(f"0 <= lam' <= tau log fails at n={bad}")
    if np.any(t.lam_prime < -_FLOAT_SLACK):
        bad = int(np.flatnonzero(t.lam_prime < -_FLOAT_SLACK)[0])
        raise IdentityCheckError(f"table lam' < 0 at n={bad}")

    devs = [
        float(np.max(np.abs(t.lam_prime - lamp_float))),
        float(np.max(np.abs(t.Lam_star - star_float))),
        float(np.max(np.abs(t.Lam_substar - sub_float))),
    ]
    if max(devs) > _FLOAT_SLACK:
        raise IdentityCheckError(
            f"float tables deviate from exact-coefficient evaluation by {max(devs)}"
        )
    return TableCheckReport(
        limit=N,
        discriminant=chi.discriminant,
        primes_checked=len(primes),
        max_float_deviation=max(devs),
    )
