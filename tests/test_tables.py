"""Arithmetic-table tests: brute-force divisor oracles, the exact
log-coefficient identity checker, split spot-checks, asymptotics against
the residue formulas, and short-interval counts."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltalab import tables
from deltalab.characters import l_one, l_one_derivative, make_character
from deltalab.sieves import convolve, tau_array, von_mangoldt_window
from deltalab.tables import (
    CountReport,
    IdentityCheckError,
    MemoryBudgetError,
    asymptotic_residual,
    divisor_sum,
    lam_prime_summatory,
    nu_value,
    psi_counts,
    sieve_tables,
    tau_moment_bound,
    verify_table_identities,
)

CHI4 = make_character(-4)


@pytest.fixture(scope="module")
def table4():
    return sieve_tables(3000, CHI4)


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def test_unit_values(table4):
    t = table4
    assert t.lam[1] == 1 and t.nu[1] == 1 and t.rho[1] == 1
    assert t.lam_prime[1] == 0.0 and t.Lam[1] == 0.0


def test_prime_values(table4):
    for p in (3, 5, 7, 11, 13, 97):
        assert table4.lam[p] == 1 + CHI4(p)
        assert table4.nu[p] == -1 - CHI4(p)
        assert table4.Lam[p] == math.log(p)


def test_lam_prime_at_two(table4):
    assert table4.lam_prime[2] == math.log(2)


def test_lam_by_divisor_enumeration(table4):
    for n in list(range(1, 200)) + [1024, 2999, 3000]:
        assert table4.lam[n] == sum(CHI4(d) for d in divisors(n)), n
        assert table4.rho[n] == sum(table4.lam[m] for m in divisors(n)), n


def test_lam_prime_by_definition_enumeration(table4):
    for n in range(1, 300):
        expect = math.fsum(
            CHI4(n // l) * math.log(l) for l in divisors(n)
        )
        assert table4.lam_prime[n] == pytest.approx(expect, abs=1e-12), n


def test_Lambda_direct(table4):
    for n in range(2, 300):
        p = min(f for f in divisors(n) if f > 1)
        is_pp = all(f % p == 0 for f in divisors(n) if f > 1)
        expect = math.log(p) if is_pp else 0.0
        assert table4.Lam[n] == pytest.approx(expect, abs=1e-12), n


def test_splits_by_enumeration(table4):
    C = table4.cutoff
    assert C == 16
    for n in list(range(1, 400)) + [1000, 2048, 3000]:
        star = sum(table4.lam[m] for m in divisors(n) if m <= C)
        assert table4.rho_star[n] == star
        assert table4.rho_substar[n] == table4.rho[n] - star
        lstar = math.fsum(
            float(table4.lam_prime[n // m]) * table4.nu[m]
            for m in divisors(n)
            if m <= C
        )
        assert table4.Lam_star[n] == pytest.approx(lstar, abs=1e-9)
    # rho_* vanishes at or below the cutoff
    assert np.all(table4.rho_substar[1 : C + 1] == 0)


def test_pointwise_split_identities(table4):
    t = table4
    assert np.array_equal(t.rho[1:], t.rho_star[1:] + t.rho_substar[1:])
    assert np.allclose(t.Lam[1:], t.Lam_star[1:] + t.Lam_substar[1:], atol=1e-12)


def test_custom_cutoff():
    # isqrt(500) = 22: cutoffs below it, and above it, where the split
    # convolution's cofactor half also runs
    for C in (5, 40, 300):
        t = sieve_tables(500, CHI4, cutoff=C)
        assert t.cutoff == C
        for n in range(1, 500):
            ms = [m for m in divisors(n) if m <= C]
            assert t.rho_star[n] == sum(t.lam[m] for m in ms)
            lstar = math.fsum(t.nu[m] * float(t.lam_prime[n // m]) for m in ms)
            assert t.Lam_star[n] == pytest.approx(lstar, abs=1e-9)


def test_cutoff_below_one_rejected():
    # a cutoff below 1 would empty every m <= C sum: rho* = Lambda* = 0
    for C in (0, -1):
        with pytest.raises(ValueError, match="cutoff must be >= 1"):
            sieve_tables(100, CHI4, cutoff=C)
        with pytest.raises(ValueError, match="cutoff must be >= 1"):
            psi_counts(100, CHI4, 100, 10, cutoff=C)
    t = sieve_tables(100, CHI4, cutoff=1)
    assert t.cutoff == 1 and list(t.rho_star[1:6]) == [1] * 5
    rep = psi_counts(100, CHI4, 100, 10, cutoff=1)  # only m = 1, nu(1) = 1
    assert rep.psi_star == lam_prime_summatory(CHI4, 100) - lam_prime_summatory(CHI4, 90)


def brute_convolve(f, g, n, fmax):
    h = [0] * (n + 1)
    for d in range(1, n + 1 if fmax is None else min(fmax, n) + 1):
        for m in range(1, n // d + 1):
            h[d * m] += f[d] * g[m]
    return h


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_convolve_matches_divisor_double_loop(data):
    s = data.draw(st.integers(2, 40))
    n = data.draw(st.sampled_from([s * s - 1, s * s, s * s + 1]) | st.integers(1, 1600))
    r = math.isqrt(n)
    fmax = data.draw(st.sampled_from([None, r - 1, r, r + 1]) | st.integers(0, n + 2))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    f = rng.integers(-5, 6, n + 1) * (rng.random(n + 1) < 0.6)
    if data.draw(st.booleans()):
        g = rng.standard_normal(n + 1)
        want = brute_convolve(f.tolist(), g.tolist(), n, fmax)
        assert np.allclose(convolve(f, g, n, fmax), want, rtol=0, atol=1e-9)
    else:
        g = rng.integers(-5, 6, n + 1) * (rng.random(n + 1) < 0.6)
        got = convolve(f, g, n, fmax)
        assert got.dtype == np.int64
        assert got.tolist() == brute_convolve(f.tolist(), g.tolist(), n, fmax)


def test_tau_array_by_divisor_enumeration():
    tau = tau_array(500)
    assert tau[0] == 0
    assert tau[1:].tolist() == [len(divisors(n)) for n in range(1, 501)]


def test_identity_checker_all_test_discriminants():
    for d in (-4, 5, -8, 12, 13):
        t = sieve_tables(10**4, make_character(d))
        rep = verify_table_identities(t)
        assert rep.max_float_deviation < 1e-9
        assert rep.limit == 10**4


def test_identity_checker_catches_corruption():
    t = sieve_tables(2000, CHI4)
    bad = t.lam.copy()
    bad[1234] += 1
    broken = type(t)(
        limit=t.limit, chi=t.chi, cutoff=t.cutoff, lam=bad, nu=t.nu, rho=t.rho,
        rho_star=t.rho_star, rho_substar=t.rho_substar, lam_prime=t.lam_prime,
        Lam=t.Lam, Lam_star=t.Lam_star, Lam_substar=t.Lam_substar,
    )
    with pytest.raises(IdentityCheckError, match="n=1234"):
        verify_table_identities(broken)


def test_divisor_sum_basics(table4):
    assert divisor_sum(table4, "lambda", 1) == 1
    brute = sum(
        table4.lam[m] for lm in range(1, 11) for m in divisors(lm)
    )
    assert divisor_sum(table4, "rho", 10) == brute
    assert divisor_sum(table4, "rho", 10.9) == brute  # floor semantics
    s = divisor_sum(table4, "rho_star", 2500) + divisor_sum(table4, "rho_substar", 2500)
    assert divisor_sum(table4, "rho", 2500) == s
    with pytest.raises(ValueError):
        divisor_sum(table4, "rho", 5000)
    with pytest.raises(ValueError):
        divisor_sum(table4, "sigma", 10)


def test_lam_prime_summatory_matches_table(table4):
    for z in (1, 2, 10, 97, 1000, 3000):
        assert lam_prime_summatory(CHI4, z) == pytest.approx(
            divisor_sum(table4, "lambda_prime", z), abs=1e-8
        )


def test_nu_value_matches_table(table4):
    for m in range(1, 1000):
        assert nu_value(CHI4, m) == table4.nu[m], m


def test_asymptotic_residual_main_terms():
    t = sieve_tables(10**5, CHI4)
    x = 10**5
    L, Ld = l_one(CHI4), l_one_derivative(CHI4)
    rep = asymptotic_residual(t, "lambda", x)
    assert rep.main == pytest.approx(L * x, rel=1e-12)
    rep = asymptotic_residual(t, "lambda_prime", x)
    assert rep.main == pytest.approx(L * x * math.log(x) + (Ld - L) * x, rel=1e-12)
    rep = asymptotic_residual(t, "rho", x)
    g = float(np.euler_gamma)
    assert rep.main == pytest.approx(
        L * x * math.log(x) + (Ld + (2 * g - 1) * L) * x, rel=1e-12
    )
    # normalization divides by the error monomial at eps = 0
    lam_rep = asymptotic_residual(t, "lambda", x)
    assert lam_rep.normalized == pytest.approx(
        lam_rep.residual / (4 ** (1 / 3) * x ** (1 / 3)), rel=1e-12
    )
    rho_rep = asymptotic_residual(t, "rho", x)
    assert rho_rep.normalized == pytest.approx(
        rho_rep.residual / (4 ** (527 / 1038) * x ** (511 / 1038)), rel=1e-12
    )
    with pytest.raises(ValueError):
        asymptotic_residual(t, "nu", x)


def prime_power_log(n):
    for p in range(2, n + 1):
        if n % p == 0:
            while n % p == 0:
                n //= p
            return math.log(p) if n == 1 else 0.0
    return 0.0


def test_psi_window_direct_enumeration():
    rep = psi_counts(100, CHI4, 100, 10)
    expect = math.fsum(prime_power_log(n) for n in range(91, 101))
    assert expect == pytest.approx(math.log(97), abs=1e-15)
    assert rep.psi == pytest.approx(expect, abs=1e-12)
    assert rep.pi_count == 1
    assert rep.psi == rep.psi_star + rep.psi_substar
    assert rep.main_term == 10.0
    assert rep.ratio == rep.psi / 10.0


def test_psi_full_interval_equals_sieve():
    x = 20_000
    rep = psi_counts(x, CHI4, x, x)
    direct, pcount = von_mangoldt_window(0, x)
    assert rep.psi == pytest.approx(direct, abs=1e-9)
    assert rep.pi_count == pcount
    # cross-check against the table Lambda column
    t = sieve_tables(x, CHI4)
    assert rep.psi == pytest.approx(float(t.Lam[1:].sum()), abs=1e-7)


def test_psi_split_exact_at_1e5():
    rep = psi_counts(10**5, CHI4, 10**5, 10**4)
    assert rep.psi == rep.psi_star + rep.psi_substar


def test_count_report_rejects_broken_split():
    with pytest.raises(ValueError, match="psi_star"):
        CountReport(x=100.0, y=10.0, psi=5.0, psi_star=3.0, psi_substar=1.0,
                    pi_count=1, li_value=2.0, main_term=2.0, ratio=1.0)


def test_psi_cutoff_loop_capped_at_x(monkeypatch):
    chi = make_character(-47)  # C = 2209 > x, so every m > x adds 0
    x, y = 1000, 100
    uncapped = math.fsum(
        nu_value(chi, m)
        * (lam_prime_summatory(chi, x // m) - lam_prime_summatory(chi, (x - y) // m))
        for m in range(1, chi.conductor**2 + 1)
    )
    calls = []

    def counted(c, m):
        calls.append(m)
        return nu_value(c, m)

    monkeypatch.setattr(tables, "nu_value", counted)
    rep = psi_counts(x, chi, x, y)
    assert rep.psi_star == uncapped
    assert calls == list(range(1, x + 1))


def test_psi_validation():
    with pytest.raises(ValueError):
        psi_counts(100, CHI4, 200, 10)
    with pytest.raises(ValueError):
        psi_counts(100, CHI4, 50, 60)
    with pytest.raises(ValueError):
        psi_counts(100, CHI4, 50, 0)


def test_li_window_value():
    rep = psi_counts(1000, CHI4, 1000, 100)
    from scipy.integrate import quad

    ref, _ = quad(lambda t: 1 / math.log(t), 900, 1000)
    assert rep.li_value == pytest.approx(ref, abs=1e-9)


def test_tau_moment_values():
    assert tau_moment_bound(2, 0.0) == pytest.approx(1.5, abs=1e-15)
    taus = {1: 1, 2: 2, 3: 2, 4: 3, 5: 2, 6: 4, 7: 2, 8: 4, 9: 3, 10: 4}
    expect = math.fsum(v / k for k, v in taus.items())
    assert tau_moment_bound(10, 1.0) == pytest.approx(expect, rel=1e-12)
    prev = 0.0
    for cap in (2, 5, 10, 50, 200):
        cur = tau_moment_bound(cap, 1.5)
        assert cur >= prev
        prev = cur
    with pytest.raises(ValueError):
        tau_moment_bound(1, 1.0)
    with pytest.raises(OverflowError):
        tau_moment_bound(1000, 2000.0)


def test_memory_budget_error():
    with pytest.raises(MemoryBudgetError, match="limit"):
        sieve_tables(10**9, CHI4)


def test_sieve_tables_peak_within_bytes_per_entry():
    N = 10**4
    chi = make_character(13)
    chi.value_table(1)  # the period array is cached; build it outside the trace
    tracemalloc.start()
    try:
        sieve_tables(N, chi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= N * tables._BYTES_PER_ENTRY


def test_memory_budget_error_just_below_need():
    N = 10**4
    need = N * tables._BYTES_PER_ENTRY
    with pytest.raises(MemoryBudgetError):
        sieve_tables(N, CHI4, memory_budget=need - 1)
    assert sieve_tables(N, CHI4, memory_budget=need).limit == N
