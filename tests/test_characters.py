"""Character toolkit tests: an independent factorization-based Kronecker
oracle, sympy cross-checks, classical L-value identities, and residue
patterns against their Laurent-expansion formulas."""

import cmath
import math
import random
import re
from collections import Counter
from functools import lru_cache
from math import gcd

import mpmath as mp
import numpy as np
import pytest
import sympy
from scipy.special import zeta as hurwitz_zeta

from deltalab import characters, verify
from deltalab.characters import (
    EULER_GAMMA,
    STIELTJES_GAMMA1,
    PoleError,
    fundamental_discriminants,
    gauss_sum,
    gauss_sums,
    is_fundamental_discriminant,
    kronecker,
    kronecker_array,
    l_one,
    l_one_derivative,
    l_one_series,
    make_character,
    residue_main_term,
    stieltjes_gamma1_euler_maclaurin,
)


def kronecker_oracle(a: int, n: int, factors=None) -> int:
    """Independent route: factor n and multiply Legendre symbols with the
    standard supplements for 2 and the sign.  `factors` is |n|'s
    factorization when the caller already has it (default sympy's)."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    out = 1
    if n < 0:
        n = -n
        if a < 0:
            out = -out
    for p, e in (sympy.factorint(n) if factors is None else factors).items():
        if p == 2:
            if a % 2 == 0:
                return 0
            s = 1 if a % 8 in (1, 7) else -1
        else:
            r = pow(a % p, (p - 1) // 2, p)
            s = 0 if a % p == 0 else (1 if r == 1 else -1)
        out *= s**e
        if out == 0:
            return 0
    return out


def test_kronecker_unit_top():
    for n in range(1, 100):
        assert kronecker(1, n) == 1


def test_kronecker_five_two():
    assert kronecker(5, 2) == -1


def test_kronecker_periodicity_odd_bottom():
    rng = random.Random(0)
    for _ in range(500):
        n = rng.randrange(1, 400) * 2 + 1
        a = rng.randrange(-10**6, 10**6)
        assert kronecker(a, n) == kronecker(a % n, n)


def test_kronecker_against_factorization_oracle():
    rng = random.Random(1)
    for _ in range(1500):
        a = rng.randrange(-500, 500)
        n = rng.randrange(-500, 500)
        assert kronecker(a, n) == kronecker_oracle(a, n), (a, n)


def test_kronecker_against_sympy_jacobi():
    rng = random.Random(2)
    for _ in range(1500):
        n = rng.randrange(0, 1000) * 2 + 1  # odd positive
        a = rng.randrange(0, 10**6)
        assert kronecker(a, n) == int(sympy.jacobi_symbol(a, n))


def test_kronecker_bottom_multiplicativity():
    rng = random.Random(3)
    for _ in range(800):
        a = rng.randrange(-200, 200)
        m = rng.randrange(1, 300)
        n = rng.randrange(1, 300)
        assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


def test_kronecker_array_on_a_full_grid():
    a = np.arange(-60, 61)
    n = np.arange(0, 401)
    got = kronecker_array(a[:, None], n[None, :])
    assert got.dtype == np.int64 and got.shape == (121, 401)
    for i, ai in enumerate(a.tolist()):
        for j, nj in enumerate(n.tolist()):
            assert got[i, j] == kronecker(ai, nj) == kronecker_oracle(ai, nj), (ai, nj)


def test_kronecker_array_on_random_products_below_1e12():
    rng = random.Random(5)
    discs = fundamental_discriminants(500)
    d = np.array([rng.choice(discs) for _ in range(20_000)], dtype=np.int64)
    m = np.array([rng.randrange(1, 10**6) for _ in range(20_000)], dtype=np.int64)
    k = np.array([rng.randrange(1, 10**6) for _ in range(20_000)], dtype=np.int64)
    got = kronecker_array(d, m * k).tolist()
    for di, mi, ki, g in zip(d.tolist(), m.tolist(), k.tolist(), got):
        # n = m k is factored through its two factors, each below 1e6
        factors = Counter(sympy.factorint(mi)) + Counter(sympy.factorint(ki))
        assert g == kronecker(di, mi * ki) == kronecker_oracle(di, mi * ki, factors), (di, mi, ki)


def test_kronecker_array_scalar_shape_and_negative_bottom():
    assert kronecker_array(5, 2).shape == ()
    assert int(kronecker_array(5, 2)) == -1
    assert kronecker_array(-1, np.arange(4)).tolist() == [1, 1, 1, -1]
    big = 2**63 - 1  # the top of the domain: nothing overflows
    assert int(kronecker_array(-(2**63), big)) == kronecker(-(2**63), big)
    for n in (-1, np.array([3, -5, 7])):
        with pytest.raises(ValueError, match="n >= 0"):
            kronecker_array(3, n)


@pytest.fixture
def fresh_period_tables():
    """Period tables, and the L-values built from them, are cached from
    kronecker_array; keep a patched one from leaking into later tests."""
    caches = (characters._period_array, characters._period_prefix, l_one, l_one_derivative)
    for c in caches:
        c.cache_clear()
    yield
    for c in caches:
        c.cache_clear()


def test_multiplicativity_check_catches_one_flipped_class(monkeypatch, fresh_period_tables):
    orig = characters.kronecker_array

    def flipped(a, n):
        out = orig(a, n)
        return np.where(np.asarray(n) % 7 == 3, -out, out)

    monkeypatch.setattr(characters, "kronecker_array", flipped)
    limits = dict(verify.QUICK_LIMITS, mult_pairs=200)
    [r2] = [r for r in verify._check_characters(limits, np.random.default_rng(0))
            if r.name == "character-orthogonality-multiplicativity"]
    assert not r2.ok and r2.gating
    assert int(re.search(r"(\d+) failures", r2.detail).group(1)) > 0


def test_orthogonality_check_names_the_discriminant_of_one_flipped_value(
        monkeypatch, fresh_period_tables):
    orig = characters.kronecker_array

    def flipped(a, n):  # (-7|3) = -1 turned to +1
        out = orig(a, n)
        a, n = np.broadcast_arrays(np.asarray(a), np.asarray(n))
        return np.where((a == -7) & (n == 3), -out, out)

    monkeypatch.setattr(characters, "kronecker_array", flipped)
    limits = dict(verify.QUICK_LIMITS, mult_pairs=10)
    [r2] = [r for r in verify._check_characters(limits, np.random.default_rng(0))
            if r.name == "character-orthogonality-multiplicativity"]
    assert not r2.ok and r2.gating
    assert r2.detail.startswith("orthogonality fails for D in [-7];"), r2.detail


KNOWN_FUNDAMENTAL = {
    1, 5, 8, 12, 13, 17, 21, 24,
    -3, -4, -7, -8, -11, -15, -19, -20, -23, -24,
}


def test_fundamental_discriminant_table():
    got = {d for d in range(-24, 25) if is_fundamental_discriminant(d)}
    assert got == KNOWN_FUNDAMENTAL


def test_make_character_examples():
    chi = make_character(-4)
    assert (chi(1), chi(2), chi(3)) == (1, 0, -1)
    assert chi.parity == "odd" and chi.conductor == 4

    chi12 = make_character(12)
    assert chi12.parity == "even" and chi12.conductor == 12

    with pytest.raises(ValueError, match="divisible by 3\\^2"):
        make_character(9)
    with pytest.raises(ValueError):
        make_character(0)
    with pytest.raises(ValueError):
        make_character(6)  # 2 mod 4
    with pytest.raises(ValueError):
        make_character(16)  # 4m with m = 0 mod 4


def test_character_value_set_and_period():
    for d in (-4, 5, -8, 12, 13, -20):
        chi = make_character(d)
        q = chi.conductor
        for n in range(1, 3 * q + 1):
            v = chi(n)
            assert v in (-1, 0, 1)
            assert v == chi(n + q)
            assert (v == 0) == (gcd(n, q) > 1)


def test_character_multiplicativity_sampled():
    rng = random.Random(4)
    for d in (-4, 5, 13, -84, 140):
        chi = make_character(d)
        for _ in range(2000):
            m = rng.randrange(1, 10**5)
            n = rng.randrange(1, 10**5)
            assert chi(m * n) == chi(m) * chi(n)


def test_orthogonality_full_period():
    for d in fundamental_discriminants(60):
        chi = make_character(d)
        assert sum(chi(a) for a in range(1, chi.conductor + 1)) == 0


def test_partial_sum_matches_direct():
    for d in (1, -4, 5, 12, -23):
        chi = make_character(d)
        direct = [0]
        for t in range(1, 4 * chi.conductor + 3):
            direct.append(direct[-1] + chi(t))
            assert chi.partial_sum(t) == direct[t]
        assert chi.partial_sum(0) == 0
        # the array form: one call, elementwise, same shape
        t = np.arange(4 * chi.conductor + 3, dtype=np.int64)
        got = chi.partial_sum(t)
        assert got.dtype == np.int64 and got.tolist() == direct
        assert chi.partial_sum(t.reshape(1, -1)).tolist() == [direct]
        # near 1e12 the full periods cancel (or count 1 each, for d = 1)
        big = 10**12 + np.arange(-3, 4, dtype=np.int64)
        q = chi.conductor
        want = [int(v) if q == 1 else direct[int(v) % q] for v in big]
        assert chi.partial_sum(big).tolist() == want
        assert [chi.partial_sum(int(v)) for v in big] == want


def test_values_match_kronecker():
    for d in (1, -4, 5, 12, -23):
        chi = make_character(d)
        n = np.arange(3 * chi.conductor + 2, dtype=np.int64)
        got = chi.values(n)
        assert got.dtype == np.int64
        assert got[1:].tolist() == [kronecker(d, int(k)) for k in n[1:]]


def test_chi_is_the_scalar_kronecker_symbol():
    """chi(n) reads the period table at n mod q; the scalar kronecker is the
    definition, on both signs of n and past the int64 range."""
    big = 2**70 + 1
    for d in [1] + fundamental_discriminants(500):
        chi = make_character(d)
        q = chi.conductor
        got = [chi(n) for n in range(-2 * q, 2 * q + 1)] + [chi(big), chi(-big)]
        want = [kronecker(d, n) for n in range(-2 * q, 2 * q + 1)] + [kronecker(d, big),
                                                                      kronecker(d, -big)]
        assert got == want, d
        assert all(type(v) is int for v in got), d


def test_fundamental_test_agrees_with_make_character():
    for d in range(-300, 301):
        try:
            make_character(d)
            built = True
        except ValueError as e:
            built = False
            assert str(e).startswith(f"{d} is not a fundamental discriminant")
        assert is_fundamental_discriminant(d) == built, d


def test_gauss_sum_at_zero_and_small_values():
    chi5 = make_character(5)
    g0 = gauss_sum(0, chi5)
    assert abs(g0) < 1e-12
    g1 = gauss_sum(1, chi5)
    assert g1.real == pytest.approx(math.sqrt(5), abs=1e-12)
    assert abs(g1.imag) < 1e-12
    g4 = gauss_sum(1, make_character(-4))
    assert g4.imag == pytest.approx(2.0, abs=1e-12)
    assert abs(g4.real) < 1e-12


def test_gauss_magnitude_and_twist_sample():
    for d in (-4, 5, -8, 12, 13, -84):
        chi = make_character(d)
        q = chi.conductor
        g1 = gauss_sum(1, chi)
        for m in range(1, q + 1):
            if gcd(m, q) != 1:
                continue
            g = gauss_sum(m, chi)
            assert abs(abs(g) - math.sqrt(q)) < 1e-9
            assert abs(g - chi(m) * g1) < 1e-9


def _gauss_sum_loop(m, chi):
    """The per-k loop gauss_sum replaced, kept as its bit-for-bit pin."""
    q = chi.conductor
    per = chi.period_array()
    re_, im = [], []
    for k in range(1, q + 1):
        c = int(per[k % q])
        if c == 0:
            continue
        z = cmath.exp(2j * math.pi * ((k * m) % q) / q)
        re_.append(c * z.real)
        im.append(c * z.imag)
    return complex(math.fsum(re_), math.fsum(im))


def _moments(chi, j_max):
    q = chi.conductor
    per = chi.period_array()
    return [sum(int(per[a]) * a**j for a in range(1, q)) for j in range(j_max + 1)]


@lru_cache(maxsize=None)
def _zeta_pair_40_digits(s, K):
    """zeta(s, K) and zeta'(s, K) rounded from 40 digits: mpmath's default
    15 digits, or scipy's zeta, miss them by ulps at K = 8."""
    with mp.workdps(40):
        return float(mp.zeta(s, K)), float(mp.zeta(s, K, 1))


def _l_series_loop(chi, e, K=8, J=19):
    """sum chi(n) log(n)^e / n, term by term over K periods, plus the
    moment tail to order J, in one fsum."""
    q = chi.conductor
    tab = chi.value_table(K * q)
    moments = _moments(chi, J)
    logq = math.log(q)
    terms = [int(tab[n]) * math.log(n) ** e / n for n in range(1, K * q + 1) if tab[n]]
    harmonic = 0.0
    for j in range(1, J + 1):
        harmonic += 1.0 / j
        z, zp = _zeta_pair_40_digits(j + 1, K)
        factor = (logq - harmonic) * z - zp if e else z
        terms.append((-1) ** j * (moments[j] / q ** (j + 1)) * factor)
    return math.fsum(terms)


def _bits(z):
    z = complex(z)
    return z.real.hex(), z.imag.hex()


def test_array_passes_bit_identical_to_the_loops():
    for d in fundamental_discriminants(200):
        chi = make_character(d)
        q = chi.conductor
        ms = (0, 1, 2, -5, q - 1, q, 3 * q + 2, 10**6 + 3)
        for m, g in zip(ms, gauss_sums(ms, chi)):
            assert _bits(gauss_sum(m, chi)) == _bits(g) == _bits(_gauss_sum_loop(m, chi)), (d, m)
        assert _bits(l_one_series(chi)) == _bits(_l_series_loop(chi, 0)), d
        assert _bits(l_one_derivative(chi)) == _bits(-_l_series_loop(chi, 1)), d


def test_tail_hurwitz_zetas_against_scipy():
    """zeta(s, K) at every s the L-series tail reads, against scipy's
    Hurwitz zeta, which shares no code with mpmath's (and is within a few
    ulps, not correctly rounded, so the pin above reads mpmath's)."""
    K = characters._PERIODS
    for s in range(2, characters._TAIL_ORDER + 2):
        assert characters._hurwitz_zeta_pair(s)[0] == pytest.approx(hurwitz_zeta(s, K), rel=2e-15), s


def test_power_moments_equal_their_definition_over_three_tiles():
    """q = 32771 > 2 * 2^14: the moments cross two tile edges, and each
    a^16 spans six 46-bit limbs."""
    chi = make_character(-32771)
    assert characters._power_moments(chi, 16) == _moments(chi, 16)


def test_l_one_pi_over_four_via_leibniz_oracle():
    chi = make_character(-4)
    # alternating series 1 - 1/3 + 1/5 - ... with its first-omitted-term bound
    n_terms = 200_000
    partial = math.fsum((-1) ** k / (2 * k + 1) for k in range(n_terms))
    tail = 1.0 / (2 * n_terms + 1)
    val = l_one(chi)
    assert abs(val - partial) <= tail + 1e-12
    assert val == pytest.approx(math.pi / 4, abs=1e-12)


def test_l_one_even_positive_and_golden_ratio_value():
    chi = make_character(5)
    val = l_one(chi)
    assert val > 0
    assert val == pytest.approx(2 * math.log((1 + math.sqrt(5)) / 2) / math.sqrt(5), abs=1e-12)


def test_l_one_dual_method_agreement():
    for d in fundamental_discriminants(200):
        chi = make_character(d)
        assert abs(l_one(chi) - l_one_series(chi)) < 1e-9, d


def test_l_one_positive_up_to_500():
    for d in fundamental_discriminants(500):
        assert l_one(make_character(d)) > 0


def test_l_one_pole_at_trivial():
    with pytest.raises(PoleError):
        l_one(make_character(1))
    with pytest.raises(PoleError):
        l_one_derivative(make_character(1))


def _l_derivative_oracle(disc: int) -> float:
    """High-precision central difference of L(s, chi) via Hurwitz zeta."""
    with mp.workdps(50):
        q = abs(disc)
        h = mp.mpf("1e-10")

        def L(s):
            return mp.fsum(
                kronecker(disc, a) * mp.zeta(s, mp.mpf(a) / q) for a in range(1, q)
            ) / mp.mpf(q) ** s

        return float((L(1 + h) - L(1 - h)) / (2 * h))


def test_l_one_derivative_known_value_and_oracle():
    chi = make_character(-4)
    got = l_one_derivative(chi)
    assert math.isfinite(got)
    # classical closed form pi/4 (gamma + 2 log 2 + 3 log pi - 4 log Gamma(1/4))
    with mp.workdps(50):
        closed = float(
            mp.pi / 4 * (mp.euler + 2 * mp.log(2) + 3 * mp.log(mp.pi)
                         - 4 * mp.log(mp.gamma(mp.mpf(1) / 4)))
        )
    assert got == pytest.approx(closed, abs=1e-12)
    for d in (-4, 5, -8, 13):
        assert l_one_derivative(make_character(d)) == pytest.approx(
            _l_derivative_oracle(d), abs=1e-9
        )


@pytest.mark.parametrize("d", [-4, 5, -8, 12, 13])
def test_l_values_against_the_hurwitz_laurent_oracle(d):
    # L(s, chi) = q^-s sum_a chi(a) zeta(s, a/q), and zeta(s, t) =
    # 1/(s-1) - psi(t) - gamma_1(t) (s-1) + ...; the poles cancel as
    # sum chi(a) = 0, so L(1) = -(1/q) sum chi(a) psi(a/q) and
    # L'(1) = (1/q) [log q sum chi(a) psi(a/q) - sum chi(a) gamma_1(a/q)]
    # (Apostol, ch. 12).  The largest deviation seen is 1.1e-16, by l_one at
    # D = 12; l_one_derivative's is 1.9e-16, at D = 13.
    chi = make_character(d)
    q = chi.conductor
    with mp.workdps(25):
        ts = [(kronecker(d, a), mp.mpf(a) / q) for a in range(1, q) if gcd(a, q) == 1]
        digammas = mp.fsum(c * mp.digamma(t) for c, t in ts)
        stieltjes = mp.fsum(c * mp.stieltjes(1, t) for c, t in ts)
        L, Ld = -digammas / q, (mp.log(q) * digammas - stieltjes) / q
    assert abs(l_one(chi) - L) <= 2e-15, d
    assert abs(l_one_derivative(chi) - Ld) <= 2e-15, d


def test_l_one_within_4_ulps_of_the_digamma_oracle():
    """L(1) = -(1/q) sum chi(a) psi(a/q) at 25 digits, as above, on every
    fundamental |d| <= 200.  Even chi's sines taken near pi, without the
    reflection a -> q - a, are 25 ulps off at d = 173."""
    for d in fundamental_discriminants(200):
        chi = make_character(d)
        q = chi.conductor
        with mp.workdps(25):
            L = float(-mp.fsum(kronecker(d, a) * mp.digamma(mp.mpf(a) / q)
                               for a in range(1, q) if gcd(a, q) == 1) / q)
        for got in (l_one(chi), l_one_series(chi)):
            assert abs(got - L) <= 4 * math.ulp(L), (d, got, L)


@pytest.mark.parametrize("d", [-163, 152, 173])
def test_l_one_derivative_against_the_near_pole_hurwitz_oracle(d):
    # L'(s) = q^-s [-log q sum chi(a) zeta(s, a/q) + sum chi(a) zeta'(s, a/q)]
    # at s = 1 + 10^-30: the poles 1/(s-1) and -1/(s-1)^2 of each zeta and
    # zeta' cancel exactly, as sum chi(a) = 0, and 90 digits keep 30 past
    # the 10^60 of zeta'.  mp.stieltjes, above, is too slow at these q.
    q = abs(d)
    with mp.workdps(90):
        s = 1 + mp.mpf(10) ** -30
        ts = [(kronecker(d, a), mp.mpf(a) / q) for a in range(1, q) if gcd(a, q) == 1]
        zetas = mp.fsum(c * mp.zeta(s, t) for c, t in ts)
        derivatives = mp.fsum(c * mp.zeta(s, t, 1) for c, t in ts)
        Ld = float(q**-s * (derivatives - mp.log(q) * zetas))
    assert abs(l_one_derivative(make_character(d)) - Ld) <= 2e-15, d


def test_l_one_derivative_sign_against_finite_difference():
    # coarse symmetric difference of the truncated Dirichlet series at
    # s = 1 +- 1e-4: the sign (and rough size) must match
    h = 1e-4
    for d in (-4, 5, -8, 13):
        chi = make_character(d)
        cutoff = 200_000

        def L_truncated(s):
            tab = chi.value_table(cutoff)
            return math.fsum(int(tab[n]) * n**-s for n in range(1, cutoff + 1) if tab[n])

        fd = (L_truncated(1 + h) - L_truncated(1 - h)) / (2 * h)
        exact = l_one_derivative(chi)
        assert math.copysign(1, fd) == math.copysign(1, exact), d
        assert abs(fd - exact) < 1e-2, d


def test_stieltjes_literal_against_euler_maclaurin_and_mpmath():
    em = stieltjes_gamma1_euler_maclaurin()
    assert abs(em - STIELTJES_GAMMA1) < 1e-12
    assert abs(float(mp.stieltjes(1)) - STIELTJES_GAMMA1) < 1e-15
    assert EULER_GAMMA == pytest.approx(0.5772156649015329, abs=1e-15)


ZETA = make_character(1)  # a trivial character is a zeta factor of a residue


def test_residue_factor_count_validation():
    chi = make_character(-4)
    with pytest.raises(ValueError):
        residue_main_term((), 1e5)  # zero factors
    with pytest.raises(ValueError):
        residue_main_term((ZETA, ZETA, chi, chi), 1e5)  # four factors
    # a zeta factor counts wherever it stands
    assert _bits(residue_main_term((ZETA, chi, ZETA), 1e5)) == _bits(
        residue_main_term((ZETA, ZETA, chi), 1e5))


def test_residue_no_zeta_factor_is_zero():
    chi1, chi2, chi3 = (make_character(d) for d in (-4, 5, -8))
    assert residue_main_term((chi1, chi2, chi3), 1e5) == 0.0


def test_residue_two_zeta_one_character_matches_formula():
    chi = make_character(-4)
    x = 12345.0
    L, Ld = l_one(chi), l_one_derivative(chi)
    expect = L * x * math.log(x) + (Ld + (2 * EULER_GAMMA - 1) * L) * x
    got = residue_main_term((ZETA, ZETA, chi), x)
    assert got == pytest.approx(expect, rel=1e-12)


def test_residue_one_zeta_variants():
    chi = make_character(-4)
    chi5 = make_character(5)
    x = 999.0
    assert residue_main_term((ZETA, chi), x) == pytest.approx(
        l_one(chi) * x, rel=1e-12
    )
    assert residue_main_term((ZETA, chi, chi5), x) == pytest.approx(
        l_one(chi) * l_one(chi5) * x, rel=1e-12
    )
    assert residue_main_term((ZETA,), x) == pytest.approx(x)


def test_residue_zeta_squared_two_factor():
    x = 5000.0
    got = residue_main_term((ZETA, ZETA), x)
    assert got == pytest.approx(x * (math.log(x) + 2 * EULER_GAMMA - 1), rel=1e-12)


def test_residue_zeta_cubed_matches_piltz_polynomial():
    x = 1000.0
    lx = math.log(x)
    g = EULER_GAMMA
    g1 = STIELTJES_GAMMA1
    expect = x * (lx**2 / 2 + (3 * g - 1) * lx + (3 * g**2 - 3 * g1 - 3 * g + 1))
    got = residue_main_term((ZETA, ZETA, ZETA), x)
    assert got == pytest.approx(expect, rel=1e-12)


def test_residue_x_validation():
    with pytest.raises(ValueError):
        residue_main_term((ZETA, ZETA, ZETA), 0.5)
