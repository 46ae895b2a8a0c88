"""Character toolkit tests: an independent factorization-based Kronecker
oracle, sympy cross-checks, classical L-value identities, and residue
patterns against their Laurent-expansion formulas."""

import cmath
import math
import random
import re
from collections import Counter
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
    ResiduePattern,
    fundamental_discriminants,
    gauss_sum,
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
    """Period tables are cached from kronecker_array; keep a patched one
    from leaking into later tests."""
    caches = (characters._period_array, characters._period_prefix)
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
    [r2] = [r for r in verify._check_characters(limits, random.Random(0))
            if r.name == "character-orthogonality-multiplicativity"]
    assert not r2.ok and r2.gating
    assert int(re.search(r"(\d+) failures", r2.detail).group(1)) > 0


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
        assert got[1:].tolist() == [chi(int(k)) for k in n[1:]]


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


def _l_one_series_loop(chi, K=64, k_max=14):
    q = chi.conductor
    tab = chi.value_table(K * q)
    partial = math.fsum(int(tab[n]) / n for n in range(1, K * q + 1) if tab[n])
    moments = _moments(chi, k_max - 1)
    tail = math.fsum(
        (-1) ** (k - 1) * (moments[k - 1] / q**k) * float(hurwitz_zeta(k, K))
        for k in range(2, k_max + 1)
    )
    return partial + tail


def _l_one_derivative_loop(chi, K=64, j_max=16):
    q = chi.conductor
    tab = chi.value_table(K * q)
    partial = math.fsum(int(tab[n]) * math.log(n) / n for n in range(2, K * q + 1) if tab[n])
    moments = _moments(chi, j_max)
    logq = math.log(q)
    tail_terms = []
    harmonic = 0.0
    for j in range(1, j_max + 1):
        harmonic += 1.0 / j
        z = float(hurwitz_zeta(j + 1, K))
        zp = float(mp.zeta(j + 1, K, 1))
        tail_terms.append(
            (-1) ** j * (moments[j] / q ** (j + 1)) * ((logq - harmonic) * z - zp)
        )
    return -(partial + math.fsum(tail_terms))


def _bits(z):
    z = complex(z)
    return z.real.hex(), z.imag.hex()


def test_array_passes_bit_identical_to_the_loops():
    for d in fundamental_discriminants(200):
        chi = make_character(d)
        q = chi.conductor
        for m in (0, 1, 2, -5, q - 1, q, 3 * q + 2, 10**6 + 3):
            assert _bits(gauss_sum(m, chi)) == _bits(_gauss_sum_loop(m, chi)), (d, m)
        assert _bits(l_one_series(chi)) == _bits(_l_one_series_loop(chi)), d
        assert _bits(l_one_derivative(chi)) == _bits(_l_one_derivative_loop(chi)), d


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


def test_l_one_derivative_cutoff_self_consistency():
    for d in (-4, 5, 12):
        chi = make_character(d)
        a = l_one_derivative(chi, periods=64)
        b = l_one_derivative(chi, periods=256)
        assert abs(a - b) < 1e-5  # documented budget; in practice ~1e-13
        assert abs(a - b) < 1e-10


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


def test_residue_pattern_validation():
    chi = make_character(-4)
    with pytest.raises(ValueError):
        ResiduePattern(0, ())  # zero factors
    with pytest.raises(ValueError):
        ResiduePattern(2, (chi, chi))  # four factors
    with pytest.raises(ValueError):
        ResiduePattern(1, (make_character(1),))  # trivial char in the list
    p = ResiduePattern.from_characters([make_character(1), chi, make_character(1)])
    assert p.zeta_multiplicity == 2 and p.characters == (chi,)


def test_residue_no_zeta_factor_is_zero():
    chi1, chi2, chi3 = (make_character(d) for d in (-4, 5, -8))
    assert residue_main_term(ResiduePattern(0, (chi1, chi2, chi3)), 1e5) == 0.0


def test_residue_two_zeta_one_character_matches_formula():
    chi = make_character(-4)
    x = 12345.0
    L, Ld = l_one(chi), l_one_derivative(chi)
    expect = L * x * math.log(x) + (Ld + (2 * EULER_GAMMA - 1) * L) * x
    got = residue_main_term(ResiduePattern(2, (chi,)), x)
    assert got == pytest.approx(expect, rel=1e-12)


def test_residue_one_zeta_variants():
    chi = make_character(-4)
    chi5 = make_character(5)
    x = 999.0
    assert residue_main_term(ResiduePattern(1, (chi,)), x) == pytest.approx(
        l_one(chi) * x, rel=1e-12
    )
    assert residue_main_term(ResiduePattern(1, (chi, chi5)), x) == pytest.approx(
        l_one(chi) * l_one(chi5) * x, rel=1e-12
    )
    assert residue_main_term(ResiduePattern(1, ()), x) == pytest.approx(x)


def test_residue_zeta_squared_two_factor():
    x = 5000.0
    got = residue_main_term(ResiduePattern(2, ()), x)
    assert got == pytest.approx(x * (math.log(x) + 2 * EULER_GAMMA - 1), rel=1e-12)


def test_residue_zeta_cubed_matches_piltz_polynomial():
    x = 1000.0
    lx = math.log(x)
    g = EULER_GAMMA
    g1 = STIELTJES_GAMMA1
    expect = x * (lx**2 / 2 + (3 * g - 1) * lx + (3 * g**2 - 3 * g1 - 3 * g + 1))
    got = residue_main_term(ResiduePattern(3, ()), x)
    assert got == pytest.approx(expect, rel=1e-12)


def test_residue_x_validation():
    with pytest.raises(ValueError):
        residue_main_term(ResiduePattern(3, ()), 0.5)
