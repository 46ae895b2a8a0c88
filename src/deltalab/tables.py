"""Sieved tables of the character convolution functions, their cutoff
splits, divisor-sum asymptotics, and short-interval prime counts.

The functions, all attached to a real character chi of conductor D:

    lam  = 1 * chi            (integer)
    nu   = mu * (mu chi)      (integer)
    rho  = 1 * lam            (integer)
    lam' (d) = sum_{kl=d} chi(k) log l  = (lam * Lambda)(d)
    Lambda(n) = sum_{dm=n} lam'(d) nu(m)   (the von Mangoldt function)

plus the splits at the cutoff C (default D^2): rho = rho* + rho_*,
Lambda = Lambda* + Lambda_* according to m <= C versus m > C, where a
table's rho_* and Lambda_* are its views rho - rho* and Lambda - Lambda*.
sieve_tables builds lam, rho and lam'; nu, rho* and Lambda* (the last two
the only arrays that depend on C) are built on first read: the CLI's
tables summary and divisor sums of lam, lam', rho and Lambda never build
them.
lam, nu and rho are multiplicative, so they are built from their values at
prime powers (Apostol, Introduction to Analytic Number Theory, ch. 2):
f(n) = f(m) f(pe(n)), with pe(n) the full power of the smallest prime of n
and m = n / pe(n), over doubling blocks of n; lam' = lam * Lambda comes in
the same pass by the Leibniz rule lam'(n) = lam(m) lam'(pe(n))
+ lam(pe(n)) lam'(m).  nu's first read runs the same recurrence for nu
alone.  verify_table_identities checks them against the convolutions that
define them.  pe and the prime powers with their logs do not depend on
chi: this skeleton is held for the last limit only (4 bytes per entry plus
O(pi(N))), so tables for several characters at one N share it; Lambda is
one scatter of its logs.  Each table keeps the skeleton it was built from
until it reads nu.  Lambda* is a sieves.convolve call, which
splits the divisor pairs at sqrt(N): about 2 sqrt(N) numpy passes.  rho*
is one too while C <= sqrt(N); above, it is rho - rho_*, with
N // (C + 1) passes.

lam' and Lambda are integer combinations of logarithms of primes.  The
float arrays evaluate those combinations against the shared correctly
rounded math.log values; verify_table_identities checks the integer
coefficient vectors themselves, exactly.  Those of log p on the multiples
n = jp are p-adic sums T_p f(j) = sum_{p^i | j} f(j / p^i) of two global
arrays, as T_p f = f * [n is a power of p] commutes with every Dirichlet
convolution: a few strided adds per prime p <= sqrt(N) and one build for
all larger primes, O(sqrt(N)) numpy passes in all.

psi_counts needs no table: psi comes from a segmented sieve, and psi*, the
m <= C part, is sum_m nu(m) [F(x // m) - F((x - y) // m)] with F the
summatory of lam'.  Each bracket is a Dirichlet hyperbola split of its
window, and its logs depend on the bracket only through integers: log of
a factorial ratio at n = mk, log l at l.  So the brackets add up exact
integer coefficients A(n) and B(l) (_psi_star), and one float pass in
fixed-size tiles sums A(n) log(q1!/q0!) + B(l) log l, with parts of the
window's size: the stated bound psi_star_err on psi*'s rounding follows
the window, not x.  The parts' sum is exact up to one final rounding
(_exact_sum: integer limbs per exponent, binned by numpy), and the
quotients x // n and z // l are float divisions, exact for x < 2^52
(sieves.floor_div).  A and B are built a chunk or tile at a time, where
they are summed: only the sieve's base primes grow like sqrt(x).
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, fields
from decimal import Decimal
from fractions import Fraction
from typing import Dict, Optional

import numpy as np

from .characters import RealCharacter, l_one, l_one_derivative, residue_main_term
from .monomials import Monomial, evaluate, mono, simplified_main_bound
from .sieves import TILE, convolve, floor_div, mobius_array, primes_up_to, smallest_prime_factor
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
    "chi_free_arrays",
    "ChiFreeArrays",
    "lam_prime_summatory",
    "nu_value",
    "MemoryBudgetError",
    "ERROR_MONOMIALS",
]


class MemoryBudgetError(MemoryError):
    """Table would not fit the configured budget."""


class IdentityCheckError(AssertionError):
    """An exact convolution-identity check failed."""


#: Peak bytes per entry of every array whose size a flag or argument sets,
#: by tracemalloc, rounded up; check_memory_budget reads them by key, and
#: test_memory_rate re-measures each at two sizes.  An entry is:
MEMORY_RATES: Dict[str, int] = {
    "sieve_tables": 64,  # one n <= limit of seven arrays, all read, and pe (the build: ~31)
    "tau_moment": 32,  # one d <= cap of tau_moment_bound
    "convolution_oracle": 22,  # one n <= N of naive_triple_raw_prefix
    "verify_tables": 132,  # one n <= table_limit of verify-all's convolution-identities check
    "period_table": 70,  # one residue mod |d|: a character's tables, Gauss sum and moments
    "delta_sweep": 470,  # one grid point of delta-sweep
}
_BYTES_PER_ENTRY = MEMORY_RATES["sieve_tables"]  # bench/run.py prints it in trace mode
DEFAULT_MEMORY_BUDGET = 2 << 30

#: n per int32 chunk of _psi_star's coefficients A(n) (1 MB): their memory
#: stays this size whatever x and C are.  With 2^20 (4 MB) psi-windows'
#: peak RSS rose by 2.6 MB (median of 9 runs, 91 MB in all); with 2^18 by
#: about 0.4 MB, at the same ops/s.
_COEFF_CHUNK = 1 << 18

#: Entries per flush of _exact_sum: 2^26 limbs below 2^27 sum below 2^53.
_EXACT_SUM_BLOCK = 1 << 26

#: Bins of _exact_sum, one per float64 exponent np.frexp gives (-1073..1024).
_EXPONENTS = 2098

#: log(q1!/q0!) takes the Stirling difference for q0 >= this.  Its
#: truncation is then below 1 / (1680 * 201^7) < 4.5e-20 (A&S 6.1.42).
_STIRLING_FROM = 200

#: Absolute tolerance of the float checks in verify_table_identities.
_FLOAT_SLACK = 1e-9

#: Error-term monomials of the divisor-sum asymptotics, eps = 0.
ERROR_MONOMIALS: Dict[str, Monomial] = {
    "lambda": mono(D=Fraction(1, 3), x=Fraction(1, 3)),
    "lambda_prime": mono(D=Fraction(1, 3), x=Fraction(1, 3)),
    "rho": Monomial(simplified_main_bound().exponents),
}


class _OnRead:
    """A FunctionTable field given as None, built by build(table) on its
    first read and then held read-only.  A data descriptor, so __init__ and
    dataclasses.replace store through __set__; class access raises
    AttributeError, so the field has no default."""

    def __init__(self, build):
        self.build = build

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, t, owner=None):
        if t is None:
            raise AttributeError(self.name)
        arr = t.__dict__[self.name]
        if arr is None:
            arr = t.__dict__[self.name] = self.build(t)
            arr.setflags(write=False)
        return arr

    def __set__(self, t, arr):
        t.__dict__[self.name] = arr


def _nu(t: FunctionTable) -> np.ndarray:
    """nu by the recurrence of the other multiplicative tables, on the
    skeleton t was built from (sieve_tables holds it as t._skeleton), which
    the table then lets go: nothing else of it is read, and its pe is freed
    once _SKELETON holds another limit.  A table made another way must be
    given its nu."""
    sk = t.__dict__.pop("_skeleton", None)
    if sk is None:
        raise ValueError("nu is built on read only for a table from sieve_tables; pass nu")
    return _multiplicative_tables(sk, t.chi, ("nu",))[0]


@dataclass(frozen=True)
class FunctionTable:
    """Arrays over n in [1, N] (index 0 unused).  sieve_tables builds lam,
    rho, lam' and Lambda, read-only; nu, and rho* and Lambda*, the two that
    depend on the cutoff, are built on first read (_OnRead): about 31 B
    per entry for the build, 62 with all read."""

    limit: int
    chi: RealCharacter
    cutoff: int
    lam: np.ndarray
    nu: np.ndarray = _OnRead(_nu)
    rho: np.ndarray
    rho_star: np.ndarray = _OnRead(lambda t: _rho_star(t.lam, t.rho, t.limit, t.cutoff))
    lam_prime: np.ndarray
    Lam: np.ndarray
    Lam_star: np.ndarray = _OnRead(lambda t: convolve(t.nu, t.lam_prime, t.limit, fmax=t.cutoff))

    @property
    def rho_substar(self) -> np.ndarray:
        """rho_* = rho - rho*, the m > C part, as a new array."""
        return self.rho - self.rho_star

    @property
    def Lam_substar(self) -> np.ndarray:
        """Lambda_* = Lambda - Lambda*, the m > C part, as a new array."""
        return self.Lam - self.Lam_star

    def array(self, f: str) -> np.ndarray:
        return getattr(self, _canonical_name(f))


_NAME_ALIASES = {
    **{f.name: f.name for f in fields(FunctionTable) if f.name not in ("limit", "chi", "cutoff")},
    "rho_substar": "rho_substar", "Lam_substar": "Lam_substar",
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


def _nu_at_prime_power(c: int, e: int) -> int:
    """nu(p^e) = sum_{i+k=e} mu(p^i) mu(p^k) c^k: 1, -1 - c, c, then 0."""
    return (1, -1 - c, c)[e] if e < 3 else 0


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


def check_memory_budget(what: str, N: int, rate: str, name: str, hint: str = "") -> None:
    """Raise MemoryBudgetError, with the largest N that fits, when N entries
    of MEMORY_RATES[rate] bytes each exceed DEFAULT_MEMORY_BUDGET.  A number
    of more than 15 digits in the message is rounded to 4 significant ones,
    so that a count of 1e300 still gives one short line."""
    bytes_per_entry = MEMORY_RATES[rate]
    need = N * bytes_per_entry
    if need > DEFAULT_MEMORY_BUDGET:
        message = (f"{what} needs ~{need >> 20} MiB > budget {DEFAULT_MEMORY_BUDGET >> 20} MiB; "
                   f"use {name} <= {DEFAULT_MEMORY_BUDGET // bytes_per_entry}{hint}")
        raise MemoryBudgetError(re.sub(r"\d{16,}", lambda m: f"{Decimal(m[0]):.3e}", message))


@dataclass(frozen=True)
class _Skeleton:
    """The chi-free part of the tables at limit N: pe[n] = p^e, the full
    power of the smallest prime p of n (int32, pe[1] = 1), and the prime
    powers q = p^e <= N with their p, e and math.log(p): 4 bytes per entry
    plus O(pi(N))."""

    limit: int
    pe: np.ndarray
    powers: np.ndarray
    primes: np.ndarray
    exps: np.ndarray
    logs: np.ndarray


#: The skeleton of the last limit sieve_tables was called at (_skeleton).
_SKELETON: Optional[_Skeleton] = None


def _skeleton(N: int) -> _Skeleton:
    """The chi-free part of every table at limit N, held here for the last
    N only.  The old one is dropped before a new one is built, so this
    holder never keeps two; a table whose nu is still unread keeps its own
    alive."""
    global _SKELETON
    if _SKELETON is None or _SKELETON.limit != N:
        _SKELETON = None
        _SKELETON = _build_skeleton(N)
    return _SKELETON


def _build_skeleton(N: int) -> _Skeleton:
    """pe by one recurrence on the smallest prime factor p of n, a blocked
    linear sieve (Gries and Misra, CACM 21, 1978): with q = n / p,
    pe(n) = p pe(q) when p divides q, else p.  Every read is at q <= n / 2,
    so over a block [lo, hi) with hi <= 2 lo it falls below lo, and the
    block is a few whole-array numpy passes.  The recurrence overwrites the
    smallest prime factors in place, which leaves no freed array behind:
    below lo, p divides q exactly when it divides pe(q), a power of the
    smallest prime of q.  The primes are the n with p = n; their powers
    follow by one pass per exponent."""
    pe = smallest_prime_factor(N)
    primes, logs = [np.zeros(0, dtype=np.int32)], [np.zeros(0)]
    lo = 2
    while lo <= N:
        hi = min(2 * lo, lo + TILE, N + 1)
        n = np.arange(lo, hi, dtype=np.int32)
        p = pe[lo:hi]  # not yet overwritten: the smallest prime factors
        ps = n[p == n]
        primes.append(ps)
        logs.append(np.fromiter(map(math.log, ps.tolist()), dtype=np.float64, count=len(ps)))
        pe_q = pe[floor_div(n, p)]
        pe[lo:hi] = np.where(pe_q % p == 0, p * pe_q, p)
        lo = hi
    p = q = np.concatenate(primes)
    logs = np.concatenate(logs)
    parts = []
    for e in range(1, N.bit_length() + 1):  # the powers q = p^e <= N
        parts.append((q, p, np.full(len(p), e, dtype=np.int8), logs))
        more = q <= N // p
        p, q, logs = p[more], q[more] * p[more], logs[more]
    powers, bases, exps, base_logs = map(np.concatenate, zip(*parts))
    return _Skeleton(limit=N, pe=pe, powers=powers, primes=bases, exps=exps, logs=base_logs)


#: The rule columns of _multiplicative_tables and their dtypes.
_RULES = {"lam": np.int64, "nu": np.int64, "rho": np.int64, "lam_prime": np.float64}


def _prime_power_values(c: int, E: int) -> dict:
    """f(p^e) for e = 0..E-1 of each rule column, where c = chi(p), as ints
    (lam' divided by log p), by running sums: lam(p^e) = lam(p^(e-1)) + c^e,
    rho(p^e) = rho(p^(e-1)) + lam(p^e), and lam'(p^e) / log p =
    sum_{k=1..e} lam(p^(e-k)) = rho(p^(e-1))."""
    lam, rho, lam_prime = [1], [1], [0]
    for e in range(1, E):
        lam_prime.append(rho[-1])
        lam.append(lam[-1] + c**e)
        rho.append(rho[-1] + lam[-1])
    return {"lam": lam, "nu": [_nu_at_prime_power(c, e) for e in range(E)],
            "rho": rho, "lam_prime": lam_prime}


def _multiplicative_tables(sk: _Skeleton, chi: RealCharacter, names) -> list:
    """The named columns of _RULES on [0, N], N = sk.limit (entry 0 is 0),
    in the order of names; lam_prime needs lam beside it.

    f(p^e) comes from _prime_power_values at (chi(p), e) over the
    skeleton's prime powers, times log p for lam'; then, block by block
    over the same doubling blocks as the skeleton, f(n) = f(m) f(pe) with
    pe = pe(n), m = n / pe, and lam' = lam * Lambda by the Leibniz rule over
    that coprime split, lam'(n) = lam(m) lam'(pe) + lam(pe) lam'(m): two
    products and one add, each rounded, per level, on the two lam gathers.
    m and pe are at most n / 2, so they fall in earlier blocks.  A column's
    bytes do not depend on which others are built with it."""
    N = sk.limit
    E = N.bit_length()  # every e with 2^e <= N is below E
    # the values at k = (chi(p) + 1) * E + e give f(p^e)
    k = (chi.values(sk.primes) + 1) * E + sk.exps
    values = [_prime_power_values(c, E) for c in (-1, 0, 1)]
    cols = {}
    for name in names:
        f = cols[name] = np.empty(N + 1, dtype=_RULES[name])
        f[:2] = (0, values[0][name][0])  # f(1) = f(p^0)
        f[sk.powers] = np.array([v[name] for v in values]).ravel()[k]
    lam_prime = cols.get("lam_prime")
    if lam_prime is not None:
        lam_prime[sk.powers] *= sk.logs
        lam = cols["lam"]
    plain = [f for name, f in cols.items()
             if lam_prime is None or name not in ("lam", "lam_prime")]
    lo = 2
    while lo <= N:
        hi = min(2 * lo, lo + TILE, N + 1)
        pe = sk.pe[lo:hi].astype(np.intp)  # converted once for the gathers
        m = floor_div(np.arange(lo, hi, dtype=np.float64), pe)
        if lam_prime is not None:
            lam_m, lam_pe = lam.take(m), lam.take(pe)
            np.add(lam_m * lam_prime.take(pe), lam_pe * lam_prime.take(m), out=lam_prime[lo:hi])
            np.multiply(lam_m, lam_pe, out=lam[lo:hi])
        for f in plain:
            np.multiply(f.take(m), f.take(pe), out=f[lo:hi])
        lo = hi
    return [cols[name] for name in names]


def _rho_star(lam: np.ndarray, rho: np.ndarray, N: int, C: int) -> np.ndarray:
    """rho* = sum_{dm = n, d <= C} lam(d), from the side of the split with
    fewer passes: convolve's about 2 isqrt(N) when C <= isqrt(N), else
    rho - rho_* with rho_* from one strided pass per m <= N // (C + 1),
    over d in (C, N // m].  Integers, so either side gives the same array."""
    if C <= math.isqrt(N):
        one = np.broadcast_to(np.int64(1), (N + 1,))  # zero-stride constant 1
        return convolve(lam, one, N, fmax=C)
    rho_star = rho.copy()
    for m in range(1, N // (C + 1) + 1):
        rho_star[m * (C + 1) :: m] -= lam[C + 1 : N // m + 1]
    return rho_star


def sieve_tables(N: int, chi: RealCharacter, cutoff: Optional[int] = None) -> FunctionTable:
    """The tables on [1, N]: lam, rho and lam' from their values at prime
    powers, by one recurrence that rounds lam' by two products and one add
    per level, and Lambda, one scatter of the skeleton's logs; about 31 B
    per entry.  nu (the
    same recurrence, alone), rho* (from the short side of its split) and
    Lambda* (a convolution cut at C) on first read, to about 62 B in all
    (rate 64).  rho_* and Lambda_* are views.

    cutoff defaults to D^2 and must be >= 1.  Raises MemoryBudgetError with
    a suggested smaller limit when the arrays would not fit
    DEFAULT_MEMORY_BUDGET.
    """
    N = int(N)
    if N < 1:
        raise ValueError(f"limit must be >= 1, got {N}")
    check_memory_budget(f"limit {N}", N, "sieve_tables", "limit",
                        " or psi_counts, which streams segmented sieves")
    C = _cutoff(chi, cutoff)
    # The skeleton comes before the outputs are allocated, so the scratch
    # of its build leaves no hole below a live table in the heap.
    sk = _skeleton(N)
    lam, rho, lam_prime = _multiplicative_tables(sk, chi, ("lam", "rho", "lam_prime"))
    Lam = np.zeros(N + 1, dtype=np.float64)  # log p at p^e, 0 elsewhere
    Lam[sk.powers] = sk.logs
    for arr in (lam, rho, lam_prime, Lam):
        arr.setflags(write=False)
    t = FunctionTable(limit=N, chi=chi, cutoff=C, lam=lam, nu=None, rho=rho, rho_star=None,
                      lam_prime=lam_prime, Lam=Lam, Lam_star=None)
    object.__setattr__(t, "_skeleton", sk)  # for nu, whatever limit _SKELETON moves to
    return t


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
    rho -> L x log x + (L' + (2 gamma - 1) L) x.  Those of lambda and rho
    are the residues of zeta L(s, chi) and zeta^2 L(s, chi), so at d = 1
    they are the divisor-problem main terms of tau and d_3; lambda' has
    none there (PoleError).
    """
    zeta = RealCharacter(1)
    key = _canonical_name(f)
    if key not in ("lam", "lam_prime", "rho"):
        raise ValueError(f"asymptotics available for lambda, lambda_prime, rho; got {f}")
    chi = t.chi
    if key == "lam":
        main = residue_main_term((zeta, chi), x)
        err = ERROR_MONOMIALS["lambda"]
    elif key == "lam_prime":
        L, Ld = l_one(chi), l_one_derivative(chi)
        main = L * x * math.log(x) + (Ld - L) * x
        err = ERROR_MONOMIALS["lambda_prime"]
    else:
        main = residue_main_term((zeta, zeta, chi), x)
        err = ERROR_MONOMIALS["rho"]
    total = divisor_sum(t, key, x)
    residual = float(total) - main
    scale = evaluate(err, {"D": float(chi.conductor), "x": float(x)})
    return AsymptoticReport(main=main, residual=residual, normalized=residual / scale)


def _lgamma_plus_one(q: np.ndarray) -> np.ndarray:
    """math.lgamma(q + 1) elementwise for an int64 array q >= 0."""
    return np.fromiter(map(math.lgamma, (q + 1).tolist()), dtype=np.float64, count=len(q))


def lam_prime_summatory(chi: RealCharacter, z: int) -> float:
    """sum_{d <= z} lam'(d) = sum_{k <= z} chi(k) log(floor(z/k)!), O(sqrt z).

    psi_counts does not call it: a difference of two of these values rounds
    at the scale of z log z, not of the window, so psi* has its own kernel,
    _psi_star.  It is the summatory that the tables-build check of
    the benchmark and the tests compare the sieved lam' table with.

    The k with equal quotient v = z // k form a block that ends at k = z // v.
    The block ends are k = 1..isqrt(z), then z // v for every
    v < z // isqrt(z), downwards (a v that no k attains repeats the previous
    end).  With S = chi.partial_sum and k' the previous end (0 at first),
    each block adds [S(k) - S(k')] lgamma(z // k + 1).  The ends go in tiles
    of TILE, with one partial_sum call per tile, so memory does
    not grow with z; the nonzero parts of every tile feed one math.fsum, so
    the result is their correctly rounded sum.

    lgamma(q + 1) is math.lgamma per live quotient (_lgamma_plus_one), and
    each part is one int64 x float64 array product, which rounds like
    Python's int * float (|S(k) - S(k')| < 2^53).  So the parts are the same
    floats as from a scalar math.lgamma loop, and fsum rounds their sum
    correctly in any order: the result is bit-identical.
    """
    z = int(z)
    if z < 1:
        return 0.0
    r = math.isqrt(z)
    n = r + z // r - 1  # number of block ends

    def tile_parts(lo: int):
        i = np.arange(lo - 1, min(lo + TILE, n), dtype=np.int64)
        k = np.where(i < r, i + 1, z // (n - i))  # i = lo - 1: the end before the tile
        w = np.diff(chi.partial_sum(k))
        live = w != 0
        return (w[live] * _lgamma_plus_one(z // k[1:][live])).tolist()

    return math.fsum(itertools.chain.from_iterable(map(tile_parts, range(0, n, TILE))))


def _stirling_tail(z: np.ndarray) -> np.ndarray:
    """1/(12 z) - 1/(360 z^3) + 1/(1260 z^5), the first terms of
    lgamma(z) - (z - 1/2) log z + z - log(2 pi) / 2 (A&S 6.1.41)."""
    r = 1.0 / z
    r2 = r * r
    return r * (1 / 12 - r2 * (1 / 360 - r2 / 1260))


def _log_factorial_ratio(q1: np.ndarray, q0: np.ndarray):
    """log(q1!/q0!) for int64 arrays q1 > q0 >= 0, without cancellation,
    and a magnitude M >= 0 per entry that bounds its rounding (see
    psi_counts).  With h = q1 - q0:

        h = 1              log(q1)                                 M = log q1
        h > 1, q0 >= 200   (a - 1/2) log1p(h/a) + h log b - h      M = the three
                           + tail(b) - tail(a), a = q0+1, b = q1+1     terms' sum
        h > 1, q0 < 200    lgamma(q1+1) - lgamma(q0+1)             M = their sum

    The middle row is the difference of Stirling's series for lgamma(b)
    and lgamma(a) (A&S 6.1.41), which are log(q1!) and log(q0!)."""
    g = np.log(q1.astype(np.float64))
    mag = g.copy()
    run = np.flatnonzero(q1 - q0 > 1)
    big = q0[run] >= _STIRLING_FROM
    i, j = run[big], run[~big]
    if i.size:
        a, b = q0[i] + 1.0, q1[i] + 1.0
        h = b - a
        t1, t2 = (a - 0.5) * np.log1p(h / a), h * np.log(b)
        g[i] = t1 + t2 - h + (_stirling_tail(b) - _stirling_tail(a))
        mag[i] = t1 + t2 + h
    if j.size:
        f1, f0 = _lgamma_plus_one(q1[j]), _lgamma_plus_one(q0[j])
        g[j] = f1 - f0
        mag[j] = f1 + f0
    return g, mag


def _exact_sum(parts) -> float:
    """The correctly rounded sum of the finite entries of an iterable of
    float64 arrays, when it is finite: the float math.fsum returns for them,
    in any order and however they are split into arrays.

    np.frexp writes each entry as M 2^(e - 53), M an integer with
    |M| < 2^53.  M splits into limbs h 2^26 + l with |h| <= 2^27 and
    0 <= l < 2^26, and np.bincount adds each limb per exponent e: at most
    _EXACT_SUM_BLOCK limbs per bin between flushes keep every bin sum below
    2^53, so it is exact.  A flush adds the bins to one Python int in units
    of 2^-1126 (e - 53 >= -1126 for every float64, subnormals included),
    and one int/int true division, which CPython rounds correctly, ends the
    sum."""
    total = 0
    bins = np.zeros((2, _EXPONENTS))
    held = 0

    def flush() -> None:
        nonlocal total, held
        for e in np.flatnonzero(bins.any(axis=0)).tolist():
            total += ((int(bins[0, e]) << 26) + int(bins[1, e])) << e
        bins[:] = 0.0
        held = 0

    for a in parts:
        for i in range(0, a.size, _EXACT_SUM_BLOCK):
            m, e = np.frexp(a[i : i + _EXACT_SUM_BLOCK])
            if held + m.size > _EXACT_SUM_BLOCK:
                flush()
            held += m.size
            m *= 2.0**53
            h = np.floor(m * 2.0**-26)
            e += 1073  # the unit 2^-1126 is 2^(e - 53) at e = -1073
            bins[0] += np.bincount(e, weights=h, minlength=_EXPONENTS)
            bins[1] += np.bincount(e, weights=m - h * 2.0**26, minlength=_EXPONENTS)
    flush()
    return total / (1 << 1126)


def _psi_star(chi: RealCharacter, x1: int, x0: int, brackets):
    """sum_m nu(m) [F(x1 // m) - F(x0 // m)] for F = lam_prime_summatory,
    0 <= x0 <= x1 < 2^52 with x1 - x0 <= 2^32 and brackets the pairs
    (m, nu(m)), and the magnitude W of its parts (see psi_counts).

    Bracket m is one Dirichlet hyperbola split (Tenenbaum, I.3.2) of both of
    its arguments at u = isqrt(z1), z1 = x1 // m.  F(z) sums chi(k) log l
    over the pairs kl <= z: those with k <= u give chi(k) log(floor(z/k)!),
    those with k > u have l <= z // (u + 1) and give log(l) [S(z // l) - S(u)],
    with S = chi.partial_sum.  As z0 // l > u exactly when l <= z0 // (u + 1),
    and floor(floor(x/m)/k) = floor(x/(mk)), the bracket adds

        sum_{k <= u} nu(m) chi(k) log(q1!/q0!),  q1 = x1 // mk, q0 = x0 // mk,
        sum_{l <= z1 // (u + 1)} nu(m) [S(z1 // l) - S(max(z0 // l, u))] log l.

    The first log depends on m and k only through n = mk, the second on l
    alone.  So the brackets add up integer coefficients

        A(n) = sum_{mk = n, k <= u_m} nu(m) chi(k)                  (int32)
        B(l) = sum_m nu(m) [S(z1 // l) - S(max(z0 // l, u_m))]      (int64)

    each built where it is summed, from the live brackets' records
    (m, nu(m), u_m, L_m = z1 // (u_m + 1)): a chunk of A takes a strided slice
    per bracket that reaches it, a tile of TILE l of B a slice per bracket
    with L_m in or past it.  The quotients z // l there and x // n below are
    sieves.floor_div float divisions, exact as t + d <= 2 x1 < 2^53.  The
    float work then runs once per n and once per l,

        sum_n A(n) log(q1!/q0!) + sum_l B(l) log l,

    in tiles of TILE, dropping the parts with q1 = q0 or a zero
    coefficient; every part sums over pairs kl in a bracket's window, so
    the parts are of the windows' size.  All parts feed one _exact_sum,
    which returns their correctly rounded sum (the float math.fsum would),
    and W is one left-to-right np.cumsum over n, then l: both are
    bit-identical whatever the chunk and tile sizes.

    The coefficient arrays have fixed sizes whatever x and C are.  A is built
    in int32 chunks of _COEFF_CHUNK n (chunk [lo, hi) takes a slice of every
    m < hi with m u_m >= lo), and |A(n)| <= sum_{m | n} |nu(m)|
    <= 4^omega(n) <= 4^15 < 2^31 for n < 2^63, as nu(p) = -1 - chi(p),
    nu(p^2) = chi(p) and nu(p^e) = 0 for e > 2.  A slice reads chi(k) at
    k mod q (q the conductor, chi's period) from an int32 table (nu(m) chi(k)
    outgrows int8) of chi(0..min(max u_m, q + _COEFF_CHUNK)), as it spans at
    most _COEFF_CHUNK k.  Each of B's S-differences is at most the number of
    multiples of ml in (x0, x1], so |B(l)| <= 4^15 ((x1 - x0) / l + 1) < 2^63."""
    S, q = chi.partial_sum, chi.conductor
    live = []  # (m, nu(m), u_m, L_m) of the brackets with a nonzero window
    for m, v in brackets:
        z1 = x1 // m
        if v and z1 != x0 // m:
            u = math.isqrt(z1)
            live.append((m, v, u, z1 // (u + 1)))
    if not live:
        return 0.0, 0.0
    ms, _, us, Ls = map(np.array, zip(*live))
    ends = ms * us  # the largest n = mk of each bracket
    n_max, l_max = int(ends.max()), int(Ls.max())
    chi_tab = chi.value_table(min(int(us.max()), q + _COEFF_CHUNK)).astype(np.int32)
    weight = 0.0

    def tally(mags: np.ndarray) -> None:
        nonlocal weight
        if mags.size:
            mags[0] += weight
            weight = float(np.cumsum(mags)[-1])

    def n_tiles(lo: int):  # the chunk [lo, hi) of A, then its float pass
        hi = min(lo + _COEFF_CHUNK, n_max + 1)
        A = np.zeros(hi - lo, dtype=np.int32)
        for i in np.flatnonzero((ms < hi) & (ends >= lo)).tolist():
            m, v, u, _ = live[i]
            k0, k1 = -(-lo // m), min(u, (hi - 1) // m)
            if k0 <= k1:
                A[k0 * m - lo : k1 * m - lo + 1 : m] += v * chi_tab[k0 % q : k0 % q + k1 - k0 + 1]
        for j in range(0, A.size, TILE):
            i = j + np.flatnonzero(A[j : j + TILE] != 0)
            n = (i + lo).astype(np.float64)
            q1, q0 = floor_div(x1, n), floor_div(x0, n)
            keep = np.flatnonzero(q1 != q0)
            a = A[i[keep]]
            g, mag = _log_factorial_ratio(q1[keep], q0[keep])
            tally(np.abs(a) * mag)
            yield a * g  # |A(n)| < 2^31: exact as a float

    def l_tile(lo: int):  # B on [lo, lo + TILE), then its float pass
        l = np.arange(lo, min(lo + TILE, l_max + 1), dtype=np.float64)
        B = np.zeros(l.size, dtype=np.int64)
        for i in np.flatnonzero(Ls >= lo).tolist():
            m, v, u, L = live[i]
            z1, z0, t = x1 // m, x0 // m, l[: L - lo + 1]
            B[: t.size] += v * (S(floor_div(z1, t)) - S(np.maximum(floor_div(z0, t), u)))
        i = np.flatnonzero(B)
        b, logs = B[i], np.log(l[i])
        tally(np.abs(b) * logs)
        return b * logs

    tiles = itertools.chain(
        itertools.chain.from_iterable(map(n_tiles, range(1, n_max + 1, _COEFF_CHUNK))),
        map(l_tile, range(1, l_max + 1, TILE)))
    return _exact_sum(tiles), weight  # tallies W on the way


@dataclass(frozen=True)
class CountReport:
    """Short-interval counts on (x-y, x].  psi is assembled as
    psi_star + psi_substar, so the split identity holds exactly.
    psi_star_err bounds |psi_star - its exact value| (see psi_counts)."""

    x: float
    y: float
    psi: float
    psi_star: float
    psi_substar: float
    psi_star_err: float
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
    """Integral of 1/log t over [a, b] as li(b) - li(a) at 30 digits (the
    principal value for a < 2).  The difference cancels log10(li(b) / window)
    digits, so it is one final rounding from exact while that ratio stays
    below about 10^13."""
    if b <= a:
        return 0.0
    import mpmath as mp

    with mp.workdps(30):
        return float(mp.li(b) - mp.li(a))


def psi_counts(
    N_limit: int,
    chi: RealCharacter,
    x: float,
    y: float,
    cutoff: Optional[int] = None,
) -> CountReport:
    """psi, psi*, psi_* over (x-y, x], plus prime count and Li window.

    psi comes from a segmented prime-power sieve.  psi* is the m <= C part,
    sum_{m <= min(C, x)} nu(m) [F(x // m) - F((x - y) // m)] with
    F = lam_prime_summatory, from _psi_star: the brackets add up exact
    integer coefficients, then one float pass sums parts of the window's
    size, not of F's (about z log z).  psi_* is the exact complement
    (Lambda_* = Lambda - Lambda*), and psi is reassembled as
    psi_star + psi_substar (equal to the sieve value up to one rounding).
    cutoff C defaults to D^2 and must be >= 1; y must be below 2^32, which
    keeps psi*'s coefficients within int64, and x below 2^52, which keeps
    its float quotients exact, and the sieve's base primes, under 3 bytes
    per isqrt(x) entry, under 192 MiB.  Neither end of the window may be 1:
    the Li window diverges there (its principal value exists only when 1 is
    strictly inside).

    psi_star_err = 2^-48 W bounds the rounding error of psi_star, where
    W = sum_n |A(n)| M(n) + sum_l |B(l)| log l over the live parts of
    _psi_star (M(n) is the magnitude of log(q1!/q0!), see
    _log_factorial_ratio).  With u = 2^-53 and np.log, np.log1p and
    math.lgamma within 4 ulps (8u), each log-value g is within 14u M of
    its exact value (Stirling row: 11u on its log1p term and three
    roundings of the sum; lgamma row 9u; log l 8u, with M = g).  The
    Stirling truncation is below 4.5e-20 < 2^-67 M, as M >= 2 log 202
    there.  A(n) is exact as a float; B(l) rounds once if |B(l)| >= 2^53,
    a u that fits in the 6u a log l leaves of its 14u.  Each product rounds
    once (u) and the exact sum once (u W).  So the error is below 16u W.
    W itself is a left-to-right sum of N < 2^51 positive floats, each
    within 2u of its term, so it is more than half the exact sum and
    2^-48 W = 32u W covers 16u.  By the triangle
    inequality W is at most the sum over brackets of their own parts'
    magnitudes, about (y/m) log^2(x/m) / 2 per m, so psi_star_err is at
    most about 2^-49 y log^2(x) sum_{m <= C} |nu(m)| / m: a factor log x
    above the size of psi* itself, as the parts' logs do not cancel.
    Cancellation inside the coefficients makes it smaller in practice.
    """
    if not 0 < y <= x:
        raise ValueError(f"need 0 < y <= x, got x={x}, y={y}")
    if x > N_limit:
        raise ValueError(f"x = {x} exceeds N_limit = {N_limit}")
    if y >= 2**32:
        raise ValueError(f"need y < 2^32, got y={y}")
    if x == 1 or x - y == 1:
        raise ValueError(f"the Li window diverges at an endpoint t = 1, got x={x}, y={y}")
    if x >= 2**52:
        raise ValueError(f"need x < 2^52, which keeps psi*'s float quotients exact, got x={x}")
    C = _cutoff(chi, cutoff)
    xi, xmy = math.floor(x), math.floor(x - y)

    psi_sieve, pi_cnt = von_mangoldt_window(xmy, xi)

    # both partial sums vanish for m > x
    brackets = ((m, nu_value(chi, m)) for m in range(1, min(C, xi) + 1))
    psi_star, weight = _psi_star(chi, xi, xmy, brackets)
    psi_substar = psi_sieve - psi_star
    psi = psi_star + psi_substar

    li_val = _li_window(x - y, x)
    return CountReport(
        x=float(x),
        y=float(y),
        psi=psi,
        psi_star=psi_star,
        psi_substar=psi_substar,
        psi_star_err=2.0**-48 * weight,
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
    check_memory_budget(f"cap {delta_cap}", delta_cap, "tau_moment", "cap")
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


@dataclass(frozen=True)
class ChiFreeArrays:
    """What verify_table_identities needs at limit N that does not depend
    on chi: mu, the primes <= N (the first n_small of them <= isqrt(N)),
    the bound tau(n) log n (log 1 at n = 0), and log p for the primes above
    isqrt(N).  No per-prime vector is held: each prime's
    coefficient vectors are p-adic sums of two arrays that depend on chi
    (_log_coefficients), a few strided adds each.  Built by
    chi_free_arrays(N)."""

    limit: int
    mu: np.ndarray
    primes: np.ndarray
    n_small: int
    tau_log: np.ndarray
    large_logs: np.ndarray


def chi_free_arrays(N: int) -> ChiFreeArrays:
    """The chi-free inputs of verify_table_identities at limit N, for a
    caller that checks several characters at the same N."""
    primes = primes_up_to(N)
    n_small = int(np.searchsorted(primes, math.isqrt(N), side="right"))
    n_arr = np.arange(N + 1, dtype=np.float64)
    n_arr[0] = 1.0
    large = primes[n_small:]
    return ChiFreeArrays(
        limit=N,
        mu=mobius_array(N),
        primes=primes,
        n_small=n_small,
        tau_log=tau_array(N) * np.log(n_arr),
        large_logs=np.array([math.log(p) for p in large.tolist()]),
    )


def _p_adic_sum(f: np.ndarray, p: int, top: int) -> np.ndarray:
    """T_p f on [0, top]: entry j is the sum of f(j / p^i) over the i >= 0
    with p^i | j, by one strided add per power p^i <= top.  T_p f is the
    Dirichlet convolution of f with P_p, the indicator of the powers of p."""
    out = f[: top + 1].copy()
    q = p
    while q <= top:
        out[q::q] += f[1 : top // q + 1]
        q *= p
    return out


def _log_coefficients(lam: np.ndarray, E: np.ndarray, p: int, N: int):
    """The exact log p coefficient vectors of lam', Lambda* and Lambda_* on
    the multiples n = j*p <= N, indexed by j: T_p lam, T_p E and
    P_p - T_p E (see verify_table_identities)."""
    top = N // p
    star = _p_adic_sum(E, p, top)
    sub = -star
    q = 1
    while q <= top:
        sub[q] += 1
        q *= p
    return _p_adic_sum(lam, p, top), star, sub


def _coefficient_floats(lam: np.ndarray, E: np.ndarray, shared: ChiFreeArrays) -> list:
    """lam', Lambda* and Lambda_* on [0, N] as float64, from their exact
    log p coefficient vectors (_log_coefficients) against the shared
    math.log values, one prime at a time by increasing p.

    The primes p <= isqrt(N) take one strided add each.  A prime above has
    N // p < p, so its vectors are prefixes of those of the first such
    prime, and the (p, j) with p j <= N go in ragged runs of whole primes,
    at most TILE entries a run, one fancy-indexed add per array each.  The
    indices p j are distinct, since n has at most one prime factor above
    isqrt(N).  That factor is n's largest, so its add comes last for n, as
    in a build by increasing p, and the floats are the same bit for bit."""
    N = shared.limit
    floats = [np.zeros(N + 1) for _ in range(3)]
    primes, n_small = shared.primes, shared.n_small
    for p in primes[:n_small].tolist():
        lp = math.log(p)
        for out, v in zip(floats, _log_coefficients(lam, E, p, N)):
            out[p :: p] += lp * v[1:]
    large = primes[n_small:]
    if len(large):
        vectors = _log_coefficients(lam, E, int(large[0]), N)
        tops = N // large
        ends = np.cumsum(tops)
        lo = 0
        while lo < len(large):
            start = int(ends[lo] - tops[lo])  # the run's first entry
            hi = max(lo + 1, int(np.searchsorted(ends, start + TILE, side="right")))
            sizes = tops[lo:hi]
            j = np.arange(1, int(ends[hi - 1]) - start + 1) - np.repeat(ends[lo:hi] - sizes - start, sizes)
            idx = np.repeat(large[lo:hi], sizes) * j
            lp = np.repeat(shared.large_logs[lo:hi], sizes)
            for out, v in zip(floats, vectors):
                out[idx] += lp * v[j]
            lo = hi
    return floats


def _first_mismatch(name: str, got: np.ndarray, ref: np.ndarray) -> None:
    """Raise IdentityCheckError naming the first n >= 1 where got != ref."""
    if not np.array_equal(got[1:], ref[1:]):
        bad = int(np.flatnonzero(got[1:] != ref[1:])[0]) + 1
        raise IdentityCheckError(
            f"{name} fails first at n={bad}: table {got[bad]}, reference {ref[bad]}"
        )


def verify_table_identities(t: FunctionTable, shared: Optional[ChiFreeArrays] = None) -> TableCheckReport:
    """Exact verification of every convolution identity.

    lam, nu and rho are compared with their defining convolutions 1*chi,
    mu*(mu chi) and 1*lam, and lam*nu with the unit [n = 1]: it is
    (1*mu)*(chi*(mu chi)), and chi is completely multiplicative.  lam' and Lambda are
    integer combinations of the log p, checked on their coefficient vectors
    over the multiples n = j*p, indexed by j.  Lambda(jp) = log p P_p(j),
    with P_p the indicator of the powers of p, and Dirichlet convolution is
    associative and commutative (Apostol, Introduction to Analytic Number
    Theory, ch. 2), so with T_p f = f * P_p (_p_adic_sum) and one
    E = nu_{m <= C} * lam for all p:

        lam'     = lam * Lambda          a_p    = T_p lam
        Lambda*  = nu_{m <= C} * lam'    star_p = T_p E
        Lambda_* = Lambda - Lambda*      sub_p  = P_p - T_p E

    The Lambda route, a_p * nu = P_p for every p, is T_p applied to
    lam * nu = [n = 1], which the unit check covers at once, and a_p is T_p
    of the lam already checked against 1*chi.  So the five
    convolutions make about 2 sqrt(N) numpy passes each, and the primes
    p <= isqrt(N) about 2 log(N) / log(p) strided adds each, O(sqrt(N)) in
    all.  A prime p > isqrt(N) has N // p < p, so T_p is the identity on
    [0, N // p]: its vectors are prefixes of lam, E and P_p - E, and one
    build serves every such prime.

    Also checked: the cutoff splits and 0 <= lam'(d) <= tau(d) log d (float
    check with absolute slack _FLOAT_SLACK), on the exact-coefficient
    evaluation and, for 0 <= lam', on the table's own array.  Raises
    IdentityCheckError on any mismatch.

    shared holds the arrays that do not depend on chi (mu, the primes,
    tau log n and the large primes' logs); pass chi_free_arrays(t.limit) to
    check several characters at one limit without rebuilding them.  By
    default they are built here.  The report is the same either way.
    """
    N, C = t.limit, t.cutoff
    if shared is None:
        shared = chi_free_arrays(N)
    elif shared.limit != N:
        raise ValueError(f"shared arrays are for limit {shared.limit}, the table's is {N}")
    chi = t.chi
    chi_np = chi.value_table(N).astype(np.int64)

    one = np.broadcast_to(np.int64(1), (N + 1,))  # zero-stride constant 1
    mu = shared.mu
    lam_ref = convolve(chi_np, one, N)
    _first_mismatch("lambda = 1*chi", t.lam, lam_ref)
    _first_mismatch("nu = mu*(mu chi)", t.nu, convolve(mu * chi_np, mu, N))
    del chi_np  # the references go as they are checked, before the per-prime pass
    _first_mismatch("rho = 1*lambda", t.rho, convolve(lam_ref, one, N))
    head = min(C, N) + 1
    if np.any(t.rho[1:head] != t.rho_star[1:head]):
        raise IdentityCheckError("rho_*(n) != 0 for some n <= cutoff")
    unit = convolve(lam_ref, t.nu, N)
    unit[1] -= 1  # lam*nu - [n = 1]
    if unit[1:].any():
        bad = int(np.flatnonzero(unit[1:])[0]) + 1
        raise IdentityCheckError(f"lambda*nu = [n = 1] fails first at n={bad}: off by {unit[bad]}")
    del unit
    E = convolve(t.nu, lam_ref, N, fmax=C)
    del lam_ref  # t.lam equals it on [1, N], and both are 0 at 0

    lamp_float, _, _ = floats = _coefficient_floats(t.lam, E, shared)
    del E

    # lam'(1) = 0 and the inequality 0 <= lam' <= tau log with slack.
    upper = shared.tau_log
    if np.any(lamp_float < -_FLOAT_SLACK) or np.any(lamp_float[1:] > upper[1:] + _FLOAT_SLACK):
        bad = int(np.flatnonzero(
            (lamp_float < -_FLOAT_SLACK) | (lamp_float > upper + _FLOAT_SLACK))[0])
        raise IdentityCheckError(f"0 <= lam' <= tau log fails at n={bad}")
    if np.any(t.lam_prime < -_FLOAT_SLACK):
        bad = int(np.flatnonzero(t.lam_prime < -_FLOAT_SLACK)[0])
        raise IdentityCheckError(f"table lam' < 0 at n={bad}")

    devs = [float(np.max(np.abs(t.array(f) - built)))  # the Lam_substar view only in its turn
            for f, built in zip(("lam_prime", "Lam_star", "Lam_substar"), floats)]
    if max(devs) > _FLOAT_SLACK:
        raise IdentityCheckError(
            f"float tables deviate from exact-coefficient evaluation by {max(devs)}"
        )
    return TableCheckReport(
        limit=N,
        discriminant=chi.discriminant,
        primes_checked=len(shared.primes),
        max_float_deviation=max(devs),
    )
