"""Real primitive Dirichlet characters and their analytic companions.

Characters are realized exclusively through the Kronecker symbol of a
fundamental discriminant (no general character-group machinery): the
character of discriminant d is chi(n) = (d|n), of conductor |d|, even for
d > 0 and odd for d < 0.  d = 1 is admitted as the trivial character so
that zeta factors can appear in residue patterns and triple products; it is
rejected by the L-value routines (pole at s = 1).

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


def _squarefree_or_reason(n: int):
    """(True, None) if n is squarefree, else (False, offending prime)."""
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return False, p
        p += 1 if p == 2 else 2
    return True, None


def is_fundamental_discriminant(d: int) -> bool:
    if d == 0:
        return False
    if d % 4 == 1:
        return _squarefree_or_reason(abs(d))[0]
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and _squarefree_or_reason(abs(m))[0]
    return False


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

    def partial_sum(self, t: int) -> int:
        """Exact sum of chi(n) for 1 <= n <= t (0 for t <= 0)."""
        t = int(t)
        if t <= 0:
            return 0
        if self.is_trivial:
            return t
        pre = _period_prefix(self.discriminant)
        # Full periods contribute 0 (nonprincipal character).
        return int(pre[t % self.conductor])

    def __str__(self) -> str:
        return f"chi_{self.discriminant} (conductor {self.conductor}, {self.parity})"


@lru_cache(maxsize=256)
def _period_array(disc: int) -> np.ndarray:
    q = abs(disc) if abs(disc) > 1 else 1
    arr = np.array([kronecker(disc, n) for n in range(q)], dtype=np.int8)
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
    if d == 0:
        raise ValueError("0 is not a fundamental discriminant")
    if d % 4 == 1:
        ok, p = _squarefree_or_reason(abs(d))
        if not ok:
            raise ValueError(
                f"{d} is not a fundamental discriminant: = 1 mod 4 but "
                f"divisible by {p}^2"
            )
    elif d % 4 == 0:
        m = d // 4
        if m % 4 not in (2, 3):
            raise ValueError(
                f"{d} is not a fundamental discriminant: {d} = 4*{m} with "
                f"{m} = {m % 4} mod 4 (need 2 or 3)"
            )
        ok, p = _squarefree_or_reason(abs(m))
        if not ok:
            raise ValueError(
                f"{d} is not a fundamental discriminant: {d} = 4*{m} with "
                f"{m} divisible by {p}^2"
            )
    else:
        raise ValueError(
            f"{d} is not a fundamental discriminant: = {d % 4} mod 4 "
            "(need 1, or 0 with d/4 = 2,3 mod 4)"
        )
    return RealCharacter(
        discriminant=d, conductor=abs(d), parity="even" if d > 0 else "odd"
    )


def gauss_sum(m: int, chi: RealCharacter) -> complex:
    """G(m, chi) = sum_{k=1..D} chi(k) e(km/D), compensated summation.

    Absolute error budget about D * 2^-50.  For gcd(m, D) = 1 the modulus
    is sqrt(D) and G(m, chi) = chi(m) G(1, chi).
    """
    q = chi.conductor
    per = chi.period_array()
    re, im = [], []
    for k in range(1, q + 1):
        c = int(per[k % q])
        if c == 0:
            continue
        z = cmath.exp(2j * math.pi * ((k * m) % q) / q)
        re.append(c * z.real)
        im.append(c * z.imag)
    return complex(math.fsum(re), math.fsum(im))


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
    partial = math.fsum(int(tab[n]) / n for n in range(1, K * q + 1) if tab[n])
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
    import mpmath as mp

    q = chi.conductor
    K = periods
    tab = chi.value_table(K * q)
    partial = math.fsum(
        int(tab[n]) * math.log(n) / n for n in range(2, K * q + 1) if tab[n]
    )
    moments = _power_moments(chi, j_max)
    logq = math.log(q)
    tail_terms = []
    harmonic = 0.0
    for j in range(1, j_max + 1):
        harmonic += 1.0 / j
        z = float(_hurwitz_zeta(j + 1, K))
        zp = float(mp.zeta(j + 1, K, 1))  # d/ds Hurwitz zeta
        tail_terms.append(
            (-1) ** j * (moments[j] / q ** (j + 1)) * ((logq - harmonic) * z - zp)
        )
    return -(partial + math.fsum(tail_terms))


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
