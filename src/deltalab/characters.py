"""Real primitive Dirichlet characters and their analytic companions.

Characters are realized exclusively through the Kronecker symbol of a
fundamental discriminant (no general character-group machinery): the
character of discriminant d is chi(n) = (d|n), of conductor |d|, even for
d > 0 and odd for d < 0.  d = 1 is admitted as the trivial character so
that zeta factors can appear in residue patterns and triple products; it is
rejected by the L-value routines (pole at s = 1).

The Kronecker symbol comes in two forms.  The scalar `kronecker` takes any
Python ints and is what chi(n) calls.  `kronecker_array` is the same symbol
elementwise on int64 arrays, for any int64 a and 0 <= n < 2^63 (n < 0 is
refused); it multiplies nothing, so that input bound is its only one.  It
builds every period table and runs the verify-all character checks, and
the tests pin it to the scalar form.

Floating-point contract: Gauss sums use compensated summation with an
absolute error budget of about D * 2^-50; L(1, chi) comes from the finite
classical formulas (good to ~1e-12) and is cross-checkable against an
accelerated truncated Dirichlet series; L'(1, chi) carries a documented
absolute error budget of 1e-6 (in practice ~1e-12).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np
from scipy.special import zeta as _hurwitz_zeta

__all__ = [
    "kronecker",
    "kronecker_array",
    "RealCharacter",
    "make_character",
    "is_fundamental_discriminant",
    "fundamental_discriminants",
    "gauss_sum",
    "l_one",
    "l_one_series",
    "l_one_derivative",
    "ResiduePattern",
    "residue_main_term",
    "PoleError",
    "EULER_GAMMA",
    "STIELTJES_GAMMA1",
]


class PoleError(ValueError):
    """Requested an L-value at a pole (the D = 1 factor is zeta)."""


EULER_GAMMA = float(np.euler_gamma)

# First Stieltjes constant gamma_1 (OEIS A082633), 15 significant digits.
# Validated at test time by an internal Euler-Maclaurin computation; agrees
# with mpmath.stieltjes(1).
STIELTJES_GAMMA1 = -0.0728158454836767


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n) on its full domain (any integers a, n)."""
    a, n = int(a), int(n)
    if n == 0:
        return 1 if a in (1, -1) else 0
    if a % 2 == 0 and n % 2 == 0:
        return 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -1
    v = (n & -n).bit_length() - 1
    n >>= v
    if v & 1 and a % 8 in (3, 5):
        result = -result
    # n is now odd and positive: standard Jacobi reciprocity loop.
    a %= n
    while a:
        v = (a & -a).bit_length() - 1
        a >>= v
        if v & 1 and n % 8 in (3, 5):
            result = -result
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


#: Bits 1, 3, ..., 61: a power of two 2^v < 2^63 meets this mask iff v is odd.
_ODD_POWERS_OF_TWO = sum(1 << b for b in range(1, 63, 2))


def _two_flips(low: np.ndarray, r: np.ndarray) -> np.ndarray:
    """True where (2|r)^v = -1, for low = 2^v: v odd and r = 3, 5 mod 8."""
    r8 = r & 7
    return ((low & _ODD_POWERS_OF_TWO) != 0) & ((r8 == 3) | (r8 == 5))


def kronecker_array(a, n) -> np.ndarray:
    """Kronecker symbol (a|n) elementwise, a and n broadcast, as int64.

    Domain: int64 a of any sign and 0 <= n < 2^63 (n = 0 gives 1 at
    a = +-1, else 0, as `kronecker` does); any n < 0 raises ValueError.
    The binary Jacobi loop (Cohen, A Course in Computational Algebraic
    Number Theory, Alg. 1.4.10) with each pass over the entries still
    active only, so the number of passes grows like log n.  It forms no
    products, so nothing overflows inside the int64 domain.
    """
    a, n = np.broadcast_arrays(np.asarray(a, dtype=np.int64), np.asarray(n, dtype=np.int64))
    if np.any(n < 0):
        raise ValueError("kronecker_array needs n >= 0; use kronecker for n < 0")
    out = np.array((n == 0) & (np.abs(a) == 1), dtype=np.int64)
    live = (n > 0) & (((a | n) & 1) == 1)  # n = 0 and both even are settled
    a, n = a[live], n[live]
    low = n & -n
    n = n // low
    sign = np.where(_two_flips(low, a), -1, 1)
    a = a % n  # n is now odd and positive
    pos = np.arange(len(a))
    res = np.empty(len(a), dtype=np.int64)
    while len(a):
        done = a == 0
        if done.any():
            res[pos[done]] = np.where(n[done] == 1, sign[done], 0)
            keep = ~done
            a, n, sign, pos = a[keep], n[keep], sign[keep], pos[keep]
            if not len(a):
                break
        low = a & -a
        a = a // low
        flip = _two_flips(low, n) ^ (((a & 3) == 3) & ((n & 3) == 3))
        sign = np.where(flip, -sign, sign)
        a, n = n % a, a
    out[live] = res
    return out


def _square_prime(n: int):
    """The least prime p with p^2 | n, or None if n is squarefree."""
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return p
        p += 1 if p == 2 else 2
    return None


def _discriminant_failure(d: int):
    """Why d is not a fundamental discriminant, or None if it is."""
    not_fd = f"{d} is not a fundamental discriminant"
    if d == 0:
        return not_fd
    if d % 4 == 1:
        p = _square_prime(abs(d))
        return None if p is None else f"{not_fd}: = 1 mod 4 but divisible by {p}^2"
    if d % 4 == 0:
        m = d // 4
        if m % 4 not in (2, 3):
            return f"{not_fd}: {d} = 4*{m} with {m} = {m % 4} mod 4 (need 2 or 3)"
        p = _square_prime(abs(m))
        return None if p is None else f"{not_fd}: {d} = 4*{m} with {m} divisible by {p}^2"
    return f"{not_fd}: = {d % 4} mod 4 (need 1, or 0 with d/4 = 2,3 mod 4)"


def is_fundamental_discriminant(d: int) -> bool:
    return _discriminant_failure(d) is None


def fundamental_discriminants(bound: int):
    """All fundamental discriminants 1 < |d| <= bound, ascending by |d|."""
    out = []
    for q in range(2, bound + 1):
        for d in (q, -q):
            if is_fundamental_discriminant(d):
                out.append(d)
    return out


@dataclass(frozen=True)
class RealCharacter:
    """A real primitive Dirichlet character, Kronecker-symbol backed.

    Construct through make_character, which validates the discriminant.
    """

    discriminant: int
    conductor: int
    parity: str  # "even" (d > 0) or "odd" (d < 0)

    def __call__(self, n: int) -> int:
        return kronecker(self.discriminant, n)

    @property
    def is_trivial(self) -> bool:
        return self.conductor == 1

    def period_array(self) -> np.ndarray:
        """chi(0..q-1) as int8 (read-only, cached per discriminant)."""
        return _period_array(self.discriminant)

    def value_table(self, n_max: int) -> np.ndarray:
        """chi(0..n_max) as an int8 numpy array."""
        q = self.conductor
        per = self.period_array()
        reps = n_max // q + 1
        return np.tile(per, reps)[: n_max + 1]

    def values(self, n: np.ndarray) -> np.ndarray:
        """chi(n) for every entry of the int64 array n >= 0, as int64."""
        return self.period_array()[n % self.conductor].astype(np.int64)

    def partial_sum(self, t):
        """S(t) = sum of chi(n) for 1 <= n <= t, exact, for an int t >= 0 or
        elementwise for an int64 array t >= 0 (same shape, int64).

        The trivial character gives t itself.  Otherwise S(t) is a lookup in
        the cached period prefix, since a nonprincipal character sums to 0
        over each full period."""
        if self.is_trivial:
            return t
        return _period_prefix(self.discriminant)[t % self.conductor]

    def __str__(self) -> str:
        return f"chi_{self.discriminant} (conductor {self.conductor}, {self.parity})"


@lru_cache(maxsize=256)
def _period_array(disc: int) -> np.ndarray:
    q = abs(disc) if abs(disc) > 1 else 1
    arr = kronecker_array(disc, np.arange(q)).astype(np.int8)
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=256)
def _period_prefix(disc: int) -> np.ndarray:
    arr = np.cumsum(_period_array(disc), dtype=np.int64)
    arr.setflags(write=False)
    return arr


def make_character(d_signed: int) -> RealCharacter:
    """Character of a fundamental discriminant; rejects anything else with
    the failed condition named."""
    d = int(d_signed)
    reason = _discriminant_failure(d)
    if reason is not None:
        raise ValueError(reason)
    return RealCharacter(
        discriminant=d, conductor=abs(d), parity="even" if d > 0 else "odd"
    )


def gauss_sum(m: int, chi: RealCharacter) -> complex:
    """G(m, chi) = sum_{k=1..D} chi(k) e(km/D), compensated summation.

    Absolute error budget about D * 2^-50.  For gcd(m, D) = 1 the modulus
    is sqrt(D) and G(m, chi) = chi(m) G(1, chi).  One gather from the
    cached roots of unity; fsum is correctly rounded, so the result does
    not depend on the order of the terms.
    """
    q = chi.conductor
    k = np.arange(1, q + 1)
    c = chi.period_array()[k % q]
    live = c != 0
    z = _unit_roots(q)[(k[live] * (m % q)) % q]
    c = c[live]
    return complex(math.fsum((c * z.real).tolist()), math.fsum((c * z.imag).tolist()))


@lru_cache(maxsize=256)
def _unit_roots(q: int) -> np.ndarray:
    """e(r/q) for 0 <= r < q as complex128 (read-only, cached per q)."""
    arr = np.array([cmath.exp(2j * math.pi * r / q) for r in range(q)])
    arr.setflags(write=False)
    return arr


def l_one(chi: RealCharacter) -> float:
    """L(1, chi) by the finite classical formulas (about 12 digits).

    Odd chi: -pi * sum a*chi(a) / D^(3/2); even chi: the character-weighted
    log-sine sum over a period scaled by 1/sqrt(D).  Cross-check against
    l_one_series in the test suite.
    """
    if chi.is_trivial:
        raise PoleError("L(s, chi_1) is zeta; no finite value at s = 1")
    q = chi.conductor
    per = chi.period_array()
    if chi.parity == "odd":
        s = math.fsum(int(per[a % q]) * a for a in range(1, q))
        return -math.pi * s / q**1.5
    s = math.fsum(
        int(per[a]) * math.log(math.sin(math.pi * a / q))
        for a in range(1, q)
        if per[a]
    )
    return -s / math.sqrt(q)


def _power_moments(chi: RealCharacter, j_max: int) -> list:
    """A_j = sum_{a=1..q} chi(a) a^j as exact ints, j = 0..j_max."""
    q = chi.conductor
    per = chi.period_array()
    vals = [(a, int(per[a])) for a in range(1, q) if per[a]]
    return [sum(c * a**j for a, c in vals) for j in range(j_max + 1)]


def l_one_series(chi: RealCharacter, periods: int = 64, k_max: int = 14) -> float:
    """L(1, chi) from the truncated Dirichlet series over `periods` full
    periods plus the exact partial-summation tail.

    Tail: sum_{n > Kq} chi(n)/n = sum_{k>=2} (-1)^(k-1) A_{k-1} q^-k zeta(k, K)
    with A_j the character power moments and zeta(.,.) the Hurwitz zeta;
    truncation error below K^-(k_max) (astronomically small for K = 64).
    """
    if chi.is_trivial:
        raise PoleError("L(s, chi_1) is zeta; no finite value at s = 1")
    q = chi.conductor
    K = periods
    tab = chi.value_table(K * q)
    n = np.flatnonzero(tab[1:]) + 1
    partial = math.fsum((tab[n] / n).tolist())
    moments = _power_moments(chi, k_max - 1)
    tail = math.fsum(
        (-1) ** (k - 1) * (moments[k - 1] / q**k) * float(_hurwitz_zeta(k, K))
        for k in range(2, k_max + 1)
    )
    return partial + tail


def l_one_derivative(chi: RealCharacter, periods: int = 64, j_max: int = 16) -> float:
    """L'(1, chi) = -sum chi(n) log(n)/n via cutoff plus accelerated tail.

    The tail expands log(t)/t around each period block and sums exactly in
    Hurwitz zeta values and their s-derivatives; documented absolute error
    budget 1e-6 (in practice ~1e-12 at the defaults).
    """
    if chi.is_trivial:
        raise PoleError("L(s, chi_1) is zeta; no finite value at s = 1")
    q = chi.conductor
    K = periods
    tab = chi.value_table(K * q)
    n = np.flatnonzero(tab[2:]) + 2
    logs = np.fromiter(map(math.log, n.tolist()), dtype=np.float64, count=len(n))
    partial = math.fsum((tab[n] * logs / n).tolist())
    moments = _power_moments(chi, j_max)
    logq = math.log(q)
    tail_terms = []
    harmonic = 0.0
    for j in range(1, j_max + 1):
        harmonic += 1.0 / j
        z, zp = _hurwitz_zeta_pair(j + 1, K)
        tail_terms.append(
            (-1) ** j * (moments[j] / q ** (j + 1)) * ((logq - harmonic) * z - zp)
        )
    return -(partial + math.fsum(tail_terms))


@lru_cache(maxsize=1024)
def _hurwitz_zeta_pair(s: int, K: int) -> Tuple[float, float]:
    """(zeta(s, K), d/ds zeta(s, K)), the character-free part of the L'(1)
    tail, computed once per process.  The derivative is mpmath's at 53-bit
    working precision whatever the caller's mpmath context, so the cached
    value does not depend on who asked first."""
    import mpmath as mp

    with mp.workprec(53):
        return float(_hurwitz_zeta(s, K)), float(mp.zeta(s, K, 1))


@dataclass(frozen=True)
class ResiduePattern:
    """Factor layout of a product of up to three L-series: a zeta
    multiplicity (0-3) plus nontrivial real characters.

    The primary use has exactly three factors; one- and two-factor variants
    are admitted for the classical divisor-sum main terms.
    """

    zeta_multiplicity: int
    characters: Tuple[RealCharacter, ...] = ()

    def __post_init__(self):
        total = self.zeta_multiplicity + len(self.characters)
        if not 1 <= total <= 3:
            raise ValueError(f"total factors must be 1..3, got {total}")
        if self.zeta_multiplicity < 0:
            raise ValueError("zeta multiplicity must be >= 0")
        for c in self.characters:
            if c.is_trivial:
                raise ValueError(
                    "trivial characters belong in zeta_multiplicity, not the "
                    "character list"
                )

    @classmethod
    def from_characters(cls, chis: Sequence[RealCharacter]) -> "ResiduePattern":
        """Classify trivial entries as zeta factors."""
        z = sum(1 for c in chis if c.is_trivial)
        return cls(z, tuple(c for c in chis if not c.is_trivial))


def _series_mul(a: Sequence[float], b: Sequence[float], order: int) -> list:
    out = [0.0] * order
    for i, ai in enumerate(a):
        if i >= order:
            break
        for j, bj in enumerate(b):
            if i + j >= order:
                break
            out[i + j] += ai * bj
    return out


def residue_main_term(pattern: ResiduePattern, x: float) -> float:
    """Residue at s = 1 of the L-product times x^s / s.

    Each zeta factor contributes (1/w)(1 + gamma*w - gamma_1*w^2 + ...) in
    w = s - 1; each character factor contributes L(1) + L'(1) w + ...; the
    x^s/s factor is x e^(w log x)/(1 + w).  Zero when no zeta factor.
    """
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    p = pattern.zeta_multiplicity
    if p == 0:
        return 0.0
    # Regular parts to order w^(p-1).
    zeta_reg = [1.0, EULER_GAMMA, -STIELTJES_GAMMA1][:p]
    prod = [1.0] + [0.0] * (p - 1)
    for _ in range(p):
        prod = _series_mul(prod, zeta_reg, p)
    for chi in pattern.characters:
        coeffs = [l_one(chi)]
        if p >= 2:
            coeffs.append(l_one_derivative(chi))
        prod = _series_mul(prod, coeffs, p)
    lx = math.log(x)
    xfac = [
        math.fsum((-1.0) ** (k - i) * lx**i / math.factorial(i) for i in range(k + 1))
        for k in range(p)
    ]
    prod = _series_mul(prod, xfac, p)
    return x * prod[p - 1]


def stieltjes_gamma1_euler_maclaurin(n: int = 20_000) -> float:
    """Internal Euler-Maclaurin computation of the first Stieltjes constant,
    used to validate the hard-coded literal at test time."""
    s = math.fsum(math.log(k) / k for k in range(2, n + 1))
    ln = math.log(n)
    f = ln / n
    f1 = (1 - ln) / n**2
    f3 = (11 - 6 * ln) / n**4
    return s - ln**2 / 2 - f / 2 - f1 / 12 + f3 / 720
