"""Real primitive Dirichlet characters and their analytic companions.

Characters are realized exclusively through the Kronecker symbol of a
fundamental discriminant (no general character-group machinery): the
character of discriminant d is chi(n) = (d|n), of conductor |d|, even for
d > 0 and odd for d < 0.  d = 1 is admitted as the trivial character, a
zeta factor in residue main terms and triple products; it is rejected by the
L-value routines (pole at s = 1).  L(1, chi) and L'(1, chi) are cached per
discriminant, as the period tables are.

The Kronecker symbol comes in two forms.  The scalar `kronecker` takes any
Python ints and is the definition, which no production path calls.
`kronecker_array` is the same symbol elementwise on int64 arrays, for any
int64 a and 0 <= n < 2^63 (n < 0 is refused); it multiplies nothing, so that
input bound is its only one.  It builds every period table, which chi(n)
reads at n mod |d| for any integer n, and runs the verify-all character
checks; the tests pin the table and chi(n) to the scalar form.

Floating-point contract: Gauss sums use compensated summation with an
absolute error budget of about D * 2^-50.  L(1, chi), from the finite
classical formulas, is within 4 ulps of a digamma oracle on every fundamental
|d| <= 200; L'(1, chi), from one Dirichlet series that also checks L(1, chi),
is within 2e-15 of Hurwitz-zeta oracles, in the tests.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice
from typing import Iterable, Iterator, Sequence, Tuple

import numpy as np

from .sieves import TILE

__all__ = [
    "kronecker",
    "kronecker_array",
    "RealCharacter",
    "make_character",
    "is_fundamental_discriminant",
    "fundamental_discriminants",
    "gauss_sum",
    "gauss_sums",
    "l_one",
    "l_one_series",
    "l_one_series_batch",
    "l_one_derivative",
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

#: Full periods K summed term by term by the L-series (_log_series), and
#: the order J of the Hurwitz-zeta moment tail that follows them.
_PERIODS = 8
_TAIL_ORDER = 19


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
    active only; an entry leaves it as soon as n < _JACOBI_N, by one gather
    from the cached table of (a|n) there, so a symbol whose n is small after
    the first reduction takes one pass.  It forms no products, so nothing
    overflows inside the int64 domain.
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
    out[live] = _jacobi(a % n, n, sign, _jacobi_table())  # n is now odd and positive
    return out


#: Odd n below this finish the Jacobi loop by one gather (_jacobi_table).
_JACOBI_N = 1 << 8


def _jacobi(a: np.ndarray, n: np.ndarray, sign: np.ndarray, table=None) -> np.ndarray:
    """sign * (a|n) elementwise for odd n > 0 and 0 <= a < n, by the binary
    Jacobi loop, which keeps a < n.  An entry ends once a = 0, as
    sign * [n = 1], or with table (_jacobi_table) once n < _JACOBI_N, as
    sign * table[n // 2, a].  As (0|n) = [n = 1], the table's last row
    serves a = 0 at any larger n."""
    pos = np.arange(len(a))
    res = np.empty(len(a), dtype=np.int64)
    while len(a):
        done = (a == 0) if table is None else (a == 0) | (n < _JACOBI_N)
        if done.any():
            a_d, n_d, s_d = a[done], n[done], sign[done]
            if table is None:
                res[pos[done]] = np.where(n_d == 1, s_d, 0)
            else:
                res[pos[done]] = s_d * table[np.minimum(n_d, _JACOBI_N - 1) >> 1, a_d]
            keep = ~done
            a, n, sign, pos = a[keep], n[keep], sign[keep], pos[keep]
            if not len(a):
                break
        low = a & -a
        a = a // low
        flip = _two_flips(low, n) ^ (((a & 3) == 3) & ((n & 3) == 3))
        sign = np.where(flip, -sign, sign)
        a, n = n % a, a
    return res


@lru_cache(maxsize=1)
def _jacobi_table() -> np.ndarray:
    """(a|n) at [n // 2, a] for the odd n < _JACOBI_N and 0 <= a < n, as
    int8 (0 elsewhere; read-only, built on first use): _jacobi's own loop,
    without the table, over the pairs of 8 odd n at a time, at most 2^11
    pairs a call, so that its temporaries stay small beside the 32 KiB
    table."""
    table = np.zeros((_JACOBI_N // 2, _JACOBI_N), dtype=np.int8)
    for lo in range(1, _JACOBI_N, 16):
        sizes = np.arange(lo, lo + 16, 2)  # n, and its number of residues a
        n = np.repeat(sizes, sizes)
        a = np.arange(len(n)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        table[n >> 1, a] = _jacobi(a, n, np.ones(len(n), dtype=np.int64))
    table.setflags(write=False)
    return table


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
    """A real primitive Dirichlet character, given by its discriminant alone.

    Construct through make_character, which validates the discriminant.
    """

    discriminant: int

    @property
    def conductor(self) -> int:
        return abs(self.discriminant)

    @property
    def parity(self) -> str:
        return "even" if self.discriminant > 0 else "odd"

    def __call__(self, n: int) -> int:
        """chi(n) = (d|n) for any integer n, from the period table."""
        return int(self.period_array()[n % self.conductor])

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
        q = self.conductor
        # t - t // q * q is t % q; numpy divides an int64 array by a scalar
        # through a fast path that its remainder lacks
        return _period_prefix(self.discriminant)[t - t // q * q]

    def float_prefix(self) -> np.ndarray:
        """S(0..q-1) as float64 (read-only, cached per discriminant), for a
        nontrivial character: S(t) is its entry t % q, as in partial_sum,
        and is exact, as |S(t)| <= q."""
        return _float_period_prefix(self.discriminant)

    def __str__(self) -> str:
        return f"chi_{self.discriminant} (conductor {self.conductor}, {self.parity})"


@lru_cache(maxsize=256)
def _period_array(disc: int) -> np.ndarray:
    q = abs(disc)
    arr = np.empty(q, dtype=np.int8)
    for lo in range(0, q, TILE):
        arr[lo : lo + TILE] = kronecker_array(disc, np.arange(lo, min(lo + TILE, q)))
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=256)
def _period_prefix(disc: int) -> np.ndarray:
    arr = np.cumsum(_period_array(disc), dtype=np.int64)
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=256)
def _float_period_prefix(disc: int) -> np.ndarray:
    arr = np.cumsum(_period_array(disc), dtype=np.float64)
    arr.setflags(write=False)
    return arr


def _nonzero_tiles(chi: RealCharacter, lo: int, hi: int):
    """(chi(n), n) as int8 and int64 arrays over the n in [lo, hi] with
    chi(n) != 0, a tile of at most TILE n at a time."""
    q = chi.conductor
    per = chi.period_array()
    for start in range(lo, hi + 1, TILE):
        n = np.arange(start, min(start + TILE, hi + 1), dtype=np.int64)
        c = per[n % q]
        live = c != 0
        yield c[live], n[live]


def make_character(d_signed: int) -> RealCharacter:
    """Character of a fundamental discriminant; rejects anything else with
    the failed condition named."""
    d = int(d_signed)
    reason = _discriminant_failure(d)
    if reason is not None:
        raise ValueError(reason)
    return RealCharacter(d)


def gauss_sum(m: int, chi: RealCharacter) -> complex:
    """G(m, chi) = sum_{k=1..D} chi(k) e(km/D), compensated summation.

    Absolute error budget about D * 2^-50.  For gcd(m, D) = 1 the modulus
    is sqrt(D) and G(m, chi) = chi(m) G(1, chi).  See gauss_sums.
    """
    return next(gauss_sums([m], chi))


def gauss_sums(ms: Iterable[int], chi: RealCharacter) -> Iterator[complex]:
    """G(m, chi) for each m in ms, in order, from gathers of the cached roots
    of unity in tiles of about TILE terms (at least one m each).

    Each G is two math.fsum calls over its terms chi(k) e(km/D); fsum is
    correctly rounded, so a G does not depend on the order of its terms or
    on the other m of the call."""
    q = chi.conductor
    per = chi.period_array()
    k = np.flatnonzero(per != 0)  # the k of chi(k) != 0, as residues mod q
    c = per[k]
    roots = _unit_roots(q)
    ms = iter(ms)  # no len: a range of m may be longer than an index reaches
    while block := [m % q for m in islice(ms, max(1, TILE // q))]:
        z = roots[np.array(block, dtype=np.int64)[:, None] * k % q]
        for re, im in zip(c * z.real, c * z.imag):
            yield complex(math.fsum(memoryview(re)), math.fsum(memoryview(im)))


@lru_cache(maxsize=256)
def _unit_roots(q: int) -> np.ndarray:
    """e(r/q) for 0 <= r < q as complex128 (read-only, cached per q)."""
    arr = np.fromiter((cmath.exp(2j * math.pi * r / q) for r in range(q)), np.complex128, q)
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=256)
def l_one(chi: RealCharacter) -> float:
    """L(1, chi) by the finite classical formulas, within 4 ulps (tested).

    Odd chi: -pi * sum a*chi(a) / D^(3/2); even chi: the character-weighted
    log-sine sum over a period scaled by 1/sqrt(D), each sine at
    min(a, D - a) as chi(D - a) = chi(a): near pi, rounding pi a/D costs
    about D ulps of the sine.  l_one_series is its oracle.
    """
    if chi.is_trivial:
        raise PoleError("L(s, chi_1) is zeta; no finite value at s = 1")
    q = chi.conductor
    if chi.parity == "odd":
        return -math.pi * _power_moments([chi], 1)[0][1] / q**1.5
    s = math.fsum(chain.from_iterable(
        memoryview(c * np.fromiter((math.log(math.sin(math.pi * a / q))
                                    for a in memoryview(np.minimum(n, q - n))), np.float64, len(n)))
        for c, n in _nonzero_tiles(chi, 1, q)))
    return -s / math.sqrt(q)


def _power_moments(chis: Sequence[RealCharacter], j_max: int) -> list:
    """[A_0, ..., A_j_max] for each character of chis, in order, where
    A_j = sum_{a=1..q} chi(a) a^j, as exact ints.

    The characters' tiles of nonzero (chi(a), a) go whole into batches of
    at most TILE entries (_moment_batches), so a batch costs the same numpy
    passes whatever number of characters it holds.  A batch holds a^j as
    int64 columns of w-bit limbs, low limb first, w from the largest
    conductor: a limb times a plus its carry, and chi(a) times a limb
    summed over a tile (one np.add.reduceat segment), stay below 2^63."""
    w = min(49, 62 - max(chi.conductor for chi in chis).bit_length())
    moments = [[0] * (j_max + 1) for _ in chis]
    for owners, starts, c, a in _moment_batches(chis):
        limbs = [np.ones_like(a)]
        for j in range(j_max + 1):
            for i, limb in enumerate(limbs):
                for k, s in zip(owners, np.add.reduceat(c * limb, starts).tolist()):
                    moments[k][j] += s << w * i
            carry = 0
            for limb in limbs:
                limb *= a
                limb += carry
                carry = limb >> w
                limb &= (1 << w) - 1
            if carry.any():
                limbs.append(carry)
    return moments


def _moment_batches(chis: Sequence[RealCharacter]):
    """(owners, starts, c, a) per batch of _power_moments: the nonempty
    tiles of _nonzero_tiles(chi, 1, q) of every character in turn, packed
    whole and in order into batches of at most TILE entries; c and a are
    their concatenations, and tile i of a batch starts at starts[i] and
    belongs to chis[owners[i]]."""
    held = []

    def batch():
        sizes = [len(a) for _, _, a in held]
        return ([k for k, _, _ in held], np.cumsum([0] + sizes[:-1]),
                np.concatenate([c for _, c, _ in held]), np.concatenate([a for _, _, a in held]))

    size = 0
    for k, chi in enumerate(chis):
        for c, a in _nonzero_tiles(chi, 1, chi.conductor):
            if held and size + len(a) > TILE:
                yield batch()
                held, size = [], 0
            if len(a):
                held.append((k, c, a))
                size += len(a)
    if held:
        yield batch()


def _log_series(chis: Sequence[RealCharacter], e: int) -> list:
    """sum_{n>=1} chi(n) log(n)^e / n for each character of chis, in order,
    e = 0 (L(1, chi)) or 1 (-L'(1, chi)): the terms over K = _PERIODS
    periods and the moment tail to order J = _TAIL_ORDER in one math.fsum
    per character.  The characters' power moments come from one
    _power_moments call.

    Tail: for n = qk + a > Kq, u = a/(qk) < 1/K and log(n)^e / n =
    (1/(qk)) sum_j (-u)^j (log(qk) - H_j)^e, H_j harmonic.  Over a and k,
    term j is T_j = (-1)^j A_j q^-(j+1) zeta(j+1, K) for e = 0, or with
    (log q - H_j) zeta(j+1, K) - zeta'(j+1, K) for e = 1 (A_0 = 0).  Bound:
    chi(q) = 0, so |A_j| <= q^(j+1)/(j+1), and against integrals
    sum_{k>=K} k^-s (log(qk) + H_j)^e <= K^(1-s) (1/K + 1/(s-1))
    (log(qK) + H_j + 1/(s-1))^e; so |T_{J+1}| <= K^-(J+1) (1/K + 1/(J+1))
    (log(qK) + 4)^e / (J+2), and each later bound is under 1/K of the last.
    At K = 8, J = 19 the omitted tail is below 2^-60 (log(qK) + 4)^e / 100,
    1.7e-19 at q = 400009.
    """
    if any(chi.is_trivial for chi in chis):
        raise PoleError("L(s, chi_1) is zeta; no finite value at s = 1")
    out = []
    for chi, moments in zip(chis, _power_moments(chis, _TAIL_ORDER)):
        q = chi.conductor
        logq, harmonic, tail = math.log(q), 0.0, []
        for j in range(1, _TAIL_ORDER + 1):
            harmonic += 1.0 / j
            z, zp = _hurwitz_zeta_pair(j + 1)
            tail.append((-1) ** j * (moments[j] / q ** (j + 1)) * ((logq - harmonic) * z - zp if e else z))
        partial = (c * np.fromiter(map(math.log, memoryview(n)), np.float64, len(n)) / n if e else c / n
                   for c, n in _nonzero_tiles(chi, 1, _PERIODS * q))
        out.append(math.fsum(chain(chain.from_iterable(map(memoryview, partial)), tail)))
    return out


def l_one_series(chi: RealCharacter) -> float:
    """L(1, chi) from the Dirichlet series, l_one's oracle."""
    return _log_series([chi], 0)[0]


def l_one_series_batch(chis: Sequence[RealCharacter]) -> list:
    """l_one_series of each character of chis, in order, with their power
    moments computed together: verify-all's oracle for l_one."""
    return _log_series(chis, 0)


@lru_cache(maxsize=256)
def l_one_derivative(chi: RealCharacter) -> float:
    """L'(1, chi) = -sum chi(n) log(n)/n, from the Dirichlet series."""
    return -_log_series([chi], 1)[0]


@lru_cache(maxsize=1024)
def _hurwitz_zeta_pair(s: int) -> Tuple[float, float]:
    """(zeta(s, K), d/ds zeta(s, K)) at K = _PERIODS for the L-series
    tail, rounded once to float and cached.  mpmath's error does not shrink
    with the pair, which is about K^(1-s), so the digits grow with
    (s - 1) log10 K, whatever the caller's context: 38 at s = 20.  There,
    against 150 digits, 53 bits is off by 4.7e-15 relative, 30 digits by
    1.3e-19 and these 38 digits by 5.4e-28."""
    import mpmath as mp

    K = _PERIODS
    with mp.workdps(20 + math.ceil((s - 1) * math.log10(K))):
        return float(mp.zeta(s, K)), float(mp.zeta(s, K, 1))


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


def residue_main_term(chis: Sequence[RealCharacter], x: float) -> float:
    """Residue at s = 1 of the product of L(s, chi) over the 1 to 3
    characters chis, times x^s / s; a trivial chi is a zeta factor.

    Each zeta factor contributes (1/w)(1 + gamma*w - gamma_1*w^2 + ...) in
    w = s - 1; each nontrivial factor, in the order given, contributes
    L(1) + L'(1) w + ...; the x^s/s factor is x e^(w log x)/(1 + w).  Zero
    when no zeta factor.
    """
    if not 1 <= len(chis) <= 3:
        raise ValueError(f"total factors must be 1..3, got {len(chis)}")
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    p = sum(chi.is_trivial for chi in chis)
    if p == 0:
        return 0.0
    # Regular parts to order w^(p-1).
    zeta_reg = [1.0, EULER_GAMMA, -STIELTJES_GAMMA1][:p]
    prod = [1.0] + [0.0] * (p - 1)
    for _ in range(p):
        prod = _series_mul(prod, zeta_reg, p)
    for chi in chis:
        if chi.is_trivial:
            continue
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


def stieltjes_gamma1_euler_maclaurin() -> float:
    """Internal Euler-Maclaurin computation of the first Stieltjes constant,
    used to validate the hard-coded literal at test time: the sum of
    log(k)/k to n = 20,000 and three correction terms."""
    n = 20_000
    s = math.fsum(math.log(k) / k for k in range(2, n + 1))
    ln = math.log(n)
    f = ln / n
    f1 = (1 - ln) / n**2
    f3 = (11 - 6 * ln) / n**4
    return s - ln**2 / 2 - f / 2 - f1 / 12 + f3 / 720
