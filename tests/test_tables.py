"""Arithmetic-table tests: brute-force divisor oracles, the exact
log-coefficient identity checker, split spot-checks, asymptotics against
the residue formulas, and short-interval counts."""

import collections
import contextlib
import dataclasses
import functools
import itertools
import math
import os
import re
import struct
import tracemalloc

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from deltalab import characters, cli, delta, sieves, tables, verify
from deltalab.characters import l_one, l_one_derivative, make_character
from deltalab.sieves import convolve, mobius_array, prime_mask, tau_array, von_mangoldt_window
from deltalab.tables import (
    CountReport,
    IdentityCheckError,
    MemoryBudgetError,
    asymptotic_residual,
    chi_free_arrays,
    divisor_sum,
    lam_prime_summatory,
    nu_value,
    psi_counts,
    sieve_tables,
    tau_moment_bound,
    verify_table_identities,
)

CHI4 = make_character(-4)
CHI13 = make_character(13)


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


def _brute_multiplicative(chi, N):
    """lam, nu and rho at every n <= N by divisor enumeration.  nu is the
    Dirichlet inverse of lam (mu and mu chi invert 1 and chi), so
    nu(n) = -sum_{d | n, d < n} nu(d) lam(n/d) for n > 1."""
    divs = [[] for _ in range(N + 1)]
    for d in range(1, N + 1):
        for m in range(d, N + 1, d):
            divs[m].append(d)
    lam = [0] + [sum(chi(d) for d in divs[n]) for n in range(1, N + 1)]
    rho = [0] + [sum(lam[d] for d in divs[n]) for n in range(1, N + 1)]
    nu = [0, 1]
    for n in range(2, N + 1):
        nu.append(-sum(nu[d] * lam[n // d] for d in divs[n][:-1]))
    return {"lam": lam, "nu": nu, "rho": rho}


@pytest.mark.parametrize("d", [1, -4, 5, -8, 12, -163])
def test_prime_power_pass_matches_brute_force(d):
    """Every n <= N, for N = 1..4, 53^2 (its largest sieving prime is
    isqrt(N) itself) and 53 * 59 (n = p*q with p = 53 just below
    isqrt(N) = 55 and q = 59 above it)."""
    chi = make_character(d)
    want = _brute_multiplicative(chi, 53 * 59)
    assert [nu_value(chi, n) for n in range(1, 53 * 59 + 1)] == want["nu"][1:]
    for N in (1, 2, 3, 4, 53**2, 53 * 59):
        t = sieve_tables(N, chi)
        for name, values in want.items():
            assert getattr(t, name).tolist() == values[: N + 1], (d, N, name)


def test_lam_prime_by_definition_enumeration(table4):
    for n in range(1, 300):
        expect = math.fsum(
            CHI4(n // l) * math.log(l) for l in divisors(n)
        )
        assert table4.lam_prime[n] == pytest.approx(expect, abs=1e-12), n


def _factor(n):
    """[(p, e)] with p^e || n, by trial division."""
    out, p = [], 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n, e = n // p, e + 1
        if e:
            out.append((p, e))
        p += 1
    return out + [(n, 1)] * (n > 1)


@functools.lru_cache(maxsize=None)
def _log30(p):
    with mpmath.workdps(30):
        return mpmath.log(p)


def _lam_prime_closed_form(chi, n):
    """lam'(n) = sum_{p^e || n} lam(n / p^e) rho(p^(e-1)) log p at 30
    digits (call under workdps(30)), with lam(p^k) = sum_{j <= k} chi(p)^j
    and rho(p^k) = sum_{j <= k} lam(p^j): the prime powers q dividing
    n = p^e m divide p^e or m, and lam is multiplicative."""
    fac = _factor(n)
    lam = {p: [sum(chi(p) ** j for j in range(k + 1)) for k in range(e + 1)] for p, e in fac}
    total = mpmath.mpf(0)
    for p, e in fac:
        lam_rest = math.prod(lam[q][k] for q, k in fac if q != p)
        total += lam_rest * sum(lam[p][:e]) * _log30(p)
    return total


def _assert_lam_prime_within_4_ulps(t, ns):
    with mpmath.workdps(30):
        for n in ns:
            want = _lam_prime_closed_form(t.chi, n)
            got = float(t.lam_prime[n])
            assert abs(mpmath.mpf(got) - want) <= 4 * math.ulp(float(want)), (n, got, want)


@pytest.mark.parametrize("d", [1, -4, 5, -8, 193])
def test_lam_prime_within_4_ulps_of_its_closed_form(d):
    """Every n <= 2e4 and a seeded sample of n up to 1e6."""
    N = 10**6
    t = sieve_tables(N, make_character(d))
    sample = np.random.default_rng(d % 1000).integers(20_001, N + 1, 2_000).tolist()
    _assert_lam_prime_within_4_ulps(t, itertools.chain(range(1, 20_001), sample, [N]))


@pytest.fixture
def convolve_calls(monkeypatch):
    """A list of the fmax of every sieves.convolve call from here on, under
    both names it is bound to."""
    calls, conv = [], sieves.convolve

    def counted(f, g, n, fmax=None):
        calls.append(fmax)
        return conv(f, g, n, fmax)

    monkeypatch.setattr(sieves, "convolve", counted)
    monkeypatch.setattr(tables, "convolve", counted)
    return calls


@pytest.mark.parametrize("N", [1, 2, 3, 1 << 14, (1 << 14) + 1, (1 << 20) + 1])
def test_the_recurrence_builds_lam_prime_without_a_convolution(N, convolve_calls):
    """At the block edges of the recurrence: the table and the divisor sums
    of its unsplit functions make no convolve call, Lambda* makes one, and
    lam' is within 4 ulps of its closed form at the first and last n of
    every block, and at a seeded sample."""
    starts = {1 << k for k in range(1, N.bit_length())} | set(range(sieves.TILE, N + 1, sieves.TILE))
    sample = np.random.default_rng(N).integers(1, N + 1, 500).tolist()
    ns = sorted({n for lo in starts for n in (lo - 1, lo)} | {1, N} | set(sample))
    for d in (1, -4, 5, -8, 193):
        t = sieve_tables(N, make_character(d))
        for f in ("lambda", "lambda_prime", "rho"):
            divisor_sum(t, f, N)
        assert convolve_calls == [], d
        t.Lam_star
        assert convolve_calls == [t.cutoff], d
        convolve_calls.clear()
        _assert_lam_prime_within_4_ulps(t, ns)


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
    two_sums = lam_prime_summatory(CHI4, 100) - lam_prime_summatory(CHI4, 90)
    assert abs(rep.psi_star - two_sums) <= rep.psi_star_err


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


def _convolve_before_unit_path(f, g, n, fmax=None):
    """convolve as it was before +-1 coefficients skipped the product: the
    bit-for-bit pin of the current one."""
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


@pytest.mark.parametrize("n", [1, 2, 97, 10**4])
def test_convolve_bits_match_the_product_loop(n):
    """Coefficients in -2..2 (floats also off the integers, so the float
    sums round) in int8, int64 and float64, every pairing, at each fmax
    edge: the same dtype and bytes as the loop that multiplied by +-1."""
    rng = np.random.default_rng(n)
    s = math.isqrt(n)

    def draw(dtype):
        v = rng.integers(-2, 3, n + 1)
        if dtype is np.float64:
            return np.where(rng.random(n + 1) < 0.5, v, rng.uniform(-2, 2, n + 1))
        return v.astype(dtype)

    for fd, gd in itertools.product((np.int8, np.int64, np.float64), repeat=2):
        f, g = draw(fd), draw(gd)
        for fmax in (None, 0, 1, s, s + 1, n):
            got, want = convolve(f, g, n, fmax), _convolve_before_unit_path(f, g, n, fmax)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (fd, gd, fmax)


def test_tau_array_by_divisor_enumeration():
    tau = tau_array(500)
    assert tau[0] == 0
    assert tau[1:].tolist() == [len(divisors(n)) for n in range(1, 501)]


def test_mobius_array_matches_sympy():
    for n in (0, 1, 2, 3, 4, 8, 9, 3000):
        assert mobius_array(n).tolist() == [0] + [int(sympy.mobius(k)) for k in range(1, n + 1)]


def test_mobius_array_matches_the_per_prime_loop():
    n = 10**5
    loop = np.ones(n + 1, dtype=np.int64)
    loop[0] = 0
    for p in np.flatnonzero(prime_mask(n)).tolist():
        loop[p::p] *= -1
        loop[p * p :: p * p] = 0
    got = mobius_array(n)
    assert got.dtype == np.int64 and np.array_equal(got, loop)


def _trial_spf(n):
    return next((p for p in range(2, math.isqrt(n) + 1) if n % p == 0), n)


def test_smallest_prime_factor_matches_trial_division():
    for n in (0, 1, 2, 3, 4):
        assert sieves.smallest_prime_factor(n).tolist() == [0, 1, 2, 3, 2][: n + 1]
    spf = sieves.smallest_prime_factor(10**4)
    assert spf.dtype == np.int32
    assert spf.tolist() == [0, 1] + [_trial_spf(n) for n in range(2, 10**4 + 1)]
    spf = sieves.smallest_prime_factor(10**6)
    for n in (999_983, 997**2, 991 * 997, 10**6):  # a prime, a prime square, two primes, the top
        assert spf[n] == _trial_spf(n), n


def _divisor_sum_oracle(chi, n):
    """lam(n) and rho(n) as direct divisor sums of chi and of lam, by
    sympy's divisors: no sieve, no prime-power rule."""
    lam = {d: sum(chi(k) for k in sympy.divisors(d)) for d in sympy.divisors(n)}
    return lam[n], sum(lam.values())


@pytest.mark.parametrize("d", [1, -4, -7, 5])  # trivial; chi(2) = 0, 1 and -1
def test_smallest_prime_factor_recurrence_matches_divisor_sums(d):
    """lam, nu, rho and Lambda at random n and at every block edge of the
    recurrence, plus and minus one, for N a prime, a prime square and 3^12."""
    chi = make_character(d)
    assert chi(2) == {1: 1, -4: 0, -7: 1, 5: -1}[d]
    rng = np.random.default_rng(abs(d))
    for N in (65_537, 257**2, 3**12):
        t = sieve_tables(N, chi)
        edges, lo = [], 2
        while lo <= N:
            edges.append(lo)
            lo = min(2 * lo, lo + tables.TILE)
        ns = {n + s for n in edges + [tables.TILE, N] for s in (-1, 0, 1)}
        ns = sorted(n for n in ns | set(rng.integers(1, N + 1, 40).tolist()) if 1 <= n <= N)
        for n in ns:
            lam, rho = _divisor_sum_oracle(chi, n)
            factors = sympy.factorint(n)
            Lam = math.log(next(iter(factors))) if len(factors) == 1 else 0.0
            assert (t.lam[n], t.nu[n], t.rho[n], t.Lam[n]) == (lam, nu_value(chi, n), rho, Lam), (N, n)


def _cold(fn):
    """fn with the held chi-free skeleton of the tables dropped first, so
    that every call builds its own and its peak counts it."""
    def cold(n):
        tables._SKELETON = None
        return fn(n)
    return cold


_ARRAYS = ("lam", "nu", "rho", "rho_star", "lam_prime", "Lam", "Lam_star")


@pytest.mark.parametrize("N", [1, 2, 3, 1 << 16, (1 << 16) + 1, (1 << 20) + 1])
def test_tables_on_the_held_skeleton_equal_cold_builds(N):
    """All seven arrays, byte for byte, of a cold build, of a build on the
    skeleton another character left at N, and of a build after a table at
    another limit in between."""
    cold = _cold(lambda chi: sieve_tables(N, chi))
    for d in (1, -4, 5, -199):
        chi = make_character(d)
        want = cold(chi)
        sieve_tables(N, CHI13)
        warm = sieve_tables(N, chi)
        sieve_tables(N + 1, CHI13)
        again = sieve_tables(N, chi)
        for name in _ARRAYS:
            a = getattr(want, name)
            for t in (warm, again):
                b = getattr(t, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (N, d, name)


@pytest.mark.parametrize("d", [1, -4, 5, -199])
def test_rho_star_matches_the_divisor_sum_on_both_sides_of_its_split(d):
    """rho*(n) = sum_{m | n, m <= C} lam(m) with lam by divisor enumeration,
    at cutoffs on both sides of isqrt(N), where sieve_tables turns from the
    convolution to rho - rho_*, and at C = 1, N - 1, N and 10 N."""
    N = 53 * 59
    chi = make_character(d)
    lam = _brute_multiplicative(chi, N)["lam"]
    r = math.isqrt(N)
    for C in (r - 1, r, r + 1, N - 1, N, 10 * N, 1):
        want = [0] * (N + 1)
        for m in range(1, min(C, N) + 1):
            for n in range(m, N + 1, m):
                want[n] += lam[m]
        assert sieve_tables(N, chi, cutoff=C).rho_star.tolist() == want, (d, C)


@pytest.mark.parametrize("N,d,C", [
    (1, -4, None), (1000, -4, None), (1000, -199, None),  # C = 16 <= isqrt(N) < C = 39601
    ((1 << 14) + 1, 13, 128), ((1 << 14) + 1, 13, 129), (10**5, 5, 7), (10**5, -163, 999),
])
def test_deferred_arrays_equal_the_eager_build(N, d, C):
    """rho* and Lambda*, read after tables at other limits have replaced
    the held skeleton, in either order, have the bits of the build that
    sieve_tables used to run for them before it returned."""
    chi = make_character(d)
    t = sieve_tables(N, chi, cutoff=C)
    C = t.cutoff
    want = {"rho_star": tables._rho_star(t.lam, t.rho, N, C),
            "Lam_star": convolve(t.nu, t.lam_prime, N, fmax=C)}
    for order in (("rho_star", "Lam_star"), ("Lam_star", "rho_star")):
        t = sieve_tables(N, chi, cutoff=C)
        sieve_tables(N + 1, CHI13)
        for name in order:
            got = getattr(t, name)
            assert got.dtype == want[name].dtype and got.tobytes() == want[name].tobytes(), name


def test_deferred_arrays_are_built_once_and_read_only():
    t = sieve_tables(2000, CHI13)
    for name, alias in (("rho_star", "rho*"), ("Lam_star", "Lambda*")):
        arr = getattr(t, name)
        assert getattr(t, name) is arr and t.array(alias) is arr
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[1] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.rho_star = t.rho
    given = t.rho.copy()
    assert dataclasses.replace(t, rho_star=given).rho_star is given


@pytest.fixture
def deferred_builds(monkeypatch):
    """A Counter of the rho* and Lambda* builds from here on: calls of
    tables._rho_star, and tables.convolve calls cut at fmax with a float g,
    which only Lambda* makes (rho*'s convolution has g = 1)."""
    built = collections.Counter()
    rho_star, conv = tables._rho_star, tables.convolve

    def counted_rho_star(*args):
        built["rho*"] += 1
        return rho_star(*args)

    def counted_convolve(f, g, n, fmax=None):
        if fmax is not None and g.dtype == np.float64:
            built["Lambda*"] += 1
        return conv(f, g, n, fmax)

    monkeypatch.setattr(tables, "_rho_star", counted_rho_star)
    monkeypatch.setattr(tables, "convolve", counted_convolve)
    return built


def test_only_readers_of_the_cutoff_split_build_it(deferred_builds):
    assert cli.run(["tables", "--disc", "-4", "--limit", "5000"]) == 0
    for d in (-4, -199):  # rho* by convolution, and as rho - rho_*
        t = sieve_tables(5000, make_character(d))
        for f in ("lambda", "lambda_prime", "rho"):
            divisor_sum(t, f, 5000)
            asymptotic_residual(t, f, 5000)
    assert not deferred_builds
    for f, built in (("rho*", {"rho*": 1}), ("rho_*", {"rho*": 1}),
                     ("Lambda*", {"Lambda*": 1}), ("Lambda_*", {"Lambda*": 1})):
        deferred_builds.clear()
        assert cli.run(["divisor-sum", "--f", f, "--x", "5000", "--disc", "-4"]) == 0
        assert deferred_builds == built, f
    deferred_builds.clear()
    t = sieve_tables(5000, CHI13)
    for f in ("rho*", "rho_*", "Lambda*", "Lambda_*", "rho*"):
        divisor_sum(t, f, 100)
    assert deferred_builds == {"rho*": 1, "Lambda*": 1}


def test_one_skeleton_at_a_time():
    """A table at a new limit frees the held skeleton before it builds its
    own.  After a table at n1, its skeleton is all the traced memory held,
    and more than the whole peak of a cold table at n2 < n1; a table at n2
    then peaks at most 64 KiB above the larger of the two.  Were the old
    skeleton alive while the new one is built, the build's scratch (about
    1 MB here) would come on top of it."""
    n1, n2 = 1 << 20, 1 << 16

    def build(n):
        return sieve_tables(n, CHI13)

    cold = _traced_peak(_cold(build), n2)
    tracemalloc.start()
    try:
        build(n1)  # the table is dropped, its skeleton held
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        build(n2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert held > cold, (held, cold)
    assert peak <= max(held, cold) + (64 << 10), (peak, held, cold)


def test_floor_div_exact_while_t_plus_d_below_2_53():
    # the hardest t are one below a multiple of d: t/d is then closest to
    # the next integer
    rng = np.random.default_rng(53)
    d = np.concatenate([np.arange(1, 1000), rng.integers(1, 2**27, 5000), [2**26, 2**27 - 1]])
    for top in (2**52, 2**53 - 1):  # t <= top - d: psi_counts' x < 2^52, then the edge
        k = (top - d) // d
        for t in (k * d - 1, k * d, (k - 1) * d + 1, rng.integers(0, top - d)):
            want = t // d
            assert np.array_equal(sieves.floor_div(t.astype(np.float64), d.astype(np.float64)), want)


def _per_prime_window(lo, hi):
    """von_mangoldt_window with one Python step per base prime and block,
    and one per prime power: the reference for its vectorised marks."""
    base = np.flatnonzero(prime_mask(math.isqrt(hi))).tolist()
    terms, count = [], 0
    for a in range(lo + 1, hi + 1, sieves.SEGMENT):
        b = min(a + sieves.SEGMENT, hi + 1)
        seg = np.ones(b - a, dtype=bool)
        for n in (0, 1):
            if a <= n < b:
                seg[n - a] = False
        for p in base:
            start = max(p * p, -(-a // p) * p)
            if start < b:
                seg[start - a :: p] = False
        idx = np.flatnonzero(seg) + a
        count += len(idx)
        if len(idx):
            terms.append(float(np.log(idx.astype(np.float64)).sum()))
    for p in base:
        pk = p * p
        while pk <= hi:
            if pk > lo:
                terms.append(math.log(p))
            pk *= p
    return math.fsum(terms), count


_SHORT_WINDOWS = [
    (0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3), (0, 4), (1, 4),  # 0/1, hi < 4
    (3, 9), (8, 9), (24, 25), (26, 27), (31, 32), (120, 121), (124, 125),  # p^k ends
    (90, 100), (1000, 1010), (10**6 - 15, 10**6), (10**9 - 7, 10**9 + 8),  # shorter than 16
]


def test_window_sieve_matches_the_per_prime_loop(monkeypatch):
    for lo, hi in _SHORT_WINDOWS + [(0, 20_000), (96_000, 101_000), (10**9 - 30_000, 10**9)]:
        assert von_mangoldt_window(lo, hi) == _per_prime_window(lo, hi), (lo, hi)
    # small blocks: windows cross block ends, and the strided and the
    # fancy-indexed marks split the base primes differently
    for segment in (5, 16, 17, 1000):
        monkeypatch.setattr(sieves, "SEGMENT", segment)
        for lo, hi in _SHORT_WINDOWS + [(0, 5000), (96_000, 101_000)]:
            assert von_mangoldt_window(lo, hi) == _per_prime_window(lo, hi), (segment, lo, hi)


def test_lam_fill_matches_the_per_prime_loop():
    for N in (1, 2, 4, 97, 10**5):
        loop = np.zeros(N + 1, dtype=np.float64)
        for p in np.flatnonzero(prime_mask(N)).tolist():
            lp = math.log(p)
            pk = p
            while pk <= N:
                loop[pk] = lp
                pk *= p
        assert sieve_tables(N, CHI13).Lam.tobytes() == loop.tobytes(), N


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
        rho_star=t.rho_star, lam_prime=t.lam_prime, Lam=t.Lam, Lam_star=t.Lam_star,
    )
    with pytest.raises(IdentityCheckError, match="n=1234"):
        verify_table_identities(broken)


@pytest.mark.parametrize("field,identity", [("nu", "nu = mu*(mu chi)"), ("rho", "rho = 1*lambda")])
def test_identity_checker_catches_integer_corruption_above_sqrt(field, identity):
    """n = 2*47 with 47 > isqrt(2000) = 44: the factor the table pass leaves
    to its final gather."""
    t = sieve_tables(2000, CHI13)
    arr = getattr(t, field).copy()
    arr[94] += 1
    with pytest.raises(IdentityCheckError, match=re.escape(f"{identity} fails first at n=94")):
        verify_table_identities(dataclasses.replace(t, **{field: arr}))


@pytest.mark.parametrize("field", ["lam_prime", "Lam_star", "Lam_substar"])
@pytest.mark.parametrize("n", [47, 3 * 47, 41 * 47, 1999, 2 * 997])
def test_identity_checker_catches_float_corruption_above_sqrt(field, n):
    """n = p*j with p > isqrt(2000) = 44: the primes checked by class.
    Lambda_* is the view Lambda - Lambda*, so it is corrupted through Lambda."""
    t = sieve_tables(2000, CHI13)
    stored = {"Lam_substar": "Lam"}.get(field, field)
    arr = getattr(t, stored).copy()
    arr[n] += 1e-6
    with pytest.raises(IdentityCheckError, match="deviate"):
        verify_table_identities(dataclasses.replace(t, **{stored: arr}))


def test_identity_checker_with_shared_arrays_gives_the_same_report():
    for N in (1, 2, 2000, 10**4):
        shared = chi_free_arrays(N)
        for d in (-4, 5, 13):
            t = sieve_tables(N, make_character(d))
            assert verify_table_identities(t, shared) == verify_table_identities(t), (N, d)
    with pytest.raises(ValueError, match="limit 2000"):
        verify_table_identities(sieve_tables(1000, CHI13), chi_free_arrays(2000))


def test_identity_checker_catches_corrupt_shared_mu_and_tau():
    """mu(94) = mu(2*47) and tau(47) log 47, with 47 > isqrt(2000)."""
    t = sieve_tables(2000, CHI13)
    shared = chi_free_arrays(2000)
    mu = shared.mu.copy()
    mu[94] = 0
    with pytest.raises(IdentityCheckError, match=re.escape("nu = mu*(mu chi) fails first at n=94")):
        verify_table_identities(t, dataclasses.replace(shared, mu=mu))
    tau_log = shared.tau_log.copy()
    tau_log[47] = 0.0
    with pytest.raises(IdentityCheckError, match="tau log fails at n=47"):
        verify_table_identities(t, dataclasses.replace(shared, tau_log=tau_log))


def test_identity_checker_counts_every_prime():
    for N, pi in ((1, 0), (2, 1), (3, 2), (10, 4), (2000, 303), (10**4, 1229)):
        assert verify_table_identities(sieve_tables(N, CHI13)).primes_checked == pi


def _old_route_vectors(t, p):
    """The log p coefficient vectors of lam', Lambda* and Lambda_* on
    n = j*p <= N by the per-prime convolutions: a_p = w_p * chi with
    w_p(j) = v_p(j p), star_p = nu_{m <= C} * a_p, sub_p = P_p - star_p."""
    top = t.limit // p
    w = np.ones(top + 1, dtype=np.int64)
    direct = np.zeros(top + 1, dtype=np.int64)
    direct[1] = 1
    q = p
    while q <= top:
        w[q::q] += 1
        direct[q] = 1
        q *= p
    a = convolve(w, t.chi.value_table(top).astype(np.int64), top)
    star = convolve(t.nu, a, top, fmax=t.cutoff)
    return a, star, direct - star


@pytest.mark.parametrize("N", [2000, 10**4])
@pytest.mark.parametrize("d", [-4, 13])
def test_checker_vectors_equal_the_per_prime_convolutions(N, d, monkeypatch):
    """The checker's p-adic sums T_p lam, T_p E and P_p - T_p E against the
    per-prime convolutions they replace, for every p <= isqrt(N) and the
    first prime above, at cutoffs below, at and above isqrt(N)."""
    chi = make_character(d)
    r = math.isqrt(N)
    primes = list(sympy.primerange(2, sympy.nextprime(r) + 1))
    seen = {}
    coefficients = tables._log_coefficients

    def recorded(lam, E, p, n):
        seen[p] = coefficients(lam, E, p, n)
        return seen[p]

    monkeypatch.setattr(tables, "_log_coefficients", recorded)
    for C in (1, chi.conductor**2, r, r + 1, N):
        seen.clear()
        t = sieve_tables(N, chi, cutoff=C)
        verify_table_identities(t)
        assert sorted(seen) == primes, (N, d, C)
        for p, got in seen.items():
            for name, g, want in zip(("a", "star", "sub"), got, _old_route_vectors(t, p)):
                assert np.array_equal(g, want), (N, d, C, p, name)


#: max_float_deviation.hex() of the five TABLE_DISCS, recorded with lam'
#: from the prime-power recurrence, whose entries
#: test_lam_prime_within_4_ulps_of_its_closed_form checks against mpmath.
_PINNED_DEVIATIONS = {
    10**5: ["0x1.0000000000000p-45", "0x1.0000000000000p-46", "0x1.4000000000000p-44",
            "0x1.0000000000000p-45", "0x1.0000000000000p-45"],
    (1 << 20) + 1: ["0x1.0000000000000p-44", "0x1.0000000000000p-45", "0x1.0000000000000p-42",
                    "0x1.0000000000000p-44", "0x1.4000000000000p-44"],
}


@pytest.mark.parametrize("N,passes", [(10**5, 8_000), ((1 << 20) + 1, 25_000)])
def test_checker_reports_pinned_bits_in_o_sqrt_n_passes(N, passes, monkeypatch):
    """The reports are the recorded ones to the last bit, and the numpy
    passes of sieves.convolve grow like sqrt(N): 7,380 for the five
    characters at 1e5 and 23,130 at 2^20 + 1 (the per-prime convolutions
    took 44,604 and 192,710)."""
    calls = 0
    add_scaled = sieves._add_scaled

    def counted(*args):
        nonlocal calls
        calls += 1
        add_scaled(*args)

    shared = chi_free_arrays(N)
    got = []
    for d in verify.TABLE_DISCS:
        t = sieve_tables(N, make_character(d))
        monkeypatch.setattr(sieves, "_add_scaled", counted)
        rep = verify_table_identities(t, shared)
        monkeypatch.setattr(sieves, "_add_scaled", add_scaled)
        assert rep.primes_checked == len(shared.primes)
        got.append(rep.max_float_deviation.hex())
    assert got == _PINNED_DEVIATIONS[N]
    assert calls <= passes


def test_unit_check_catches_a_nu_from_a_mismatched_mu():
    """nu rebuilt from mu with mu(94) = 0 passes the nu check against that
    mu, but it is no longer the inverse of lam: lam*nu = [n = 1] fails at
    94 = 2*47, 47 > isqrt(2000)."""
    t = sieve_tables(2000, CHI13)
    shared = chi_free_arrays(2000)
    mu = shared.mu.copy()
    mu[94] = 0
    nu = convolve(mu * CHI13.value_table(2000).astype(np.int64), mu, 2000)
    with pytest.raises(IdentityCheckError, match=re.escape("lambda*nu = [n = 1] fails first at n=94")):
        verify_table_identities(dataclasses.replace(t, nu=nu), dataclasses.replace(shared, mu=mu))


def test_every_array_field_is_a_function_name(table4):
    names = [f.name for f in dataclasses.fields(table4)
             if isinstance(getattr(table4, f.name), np.ndarray)]
    assert names == ["lam", "nu", "rho", "rho_star", "lam_prime", "Lam", "Lam_star"]
    for name in names:
        arr = getattr(table4, name)
        assert table4.array(name) is arr
        assert divisor_sum(table4, name, 100) == arr[1:101].sum(), name
    # the two views: the same subtraction that defines them, bit for bit
    for name, alias, whole, star in (("rho_substar", "rho_*", "rho", "rho_star"),
                                     ("Lam_substar", "Lambda_*", "Lam", "Lam_star")):
        want = getattr(table4, whole) - getattr(table4, star)
        for arr in (getattr(table4, name), table4.array(name), table4.array(alias)):
            assert arr.dtype == want.dtype and arr.tobytes() == want.tobytes(), name
        assert divisor_sum(table4, alias, 100) == want[1:101].sum(), name


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


def test_lam_prime_summatory_matches_table():
    N = 3000
    for d in (1, -4, 13, -163):
        chi = make_character(d)
        sums = np.cumsum(sieve_tables(N, chi).lam_prime)
        for z in range(N + 1):
            assert lam_prime_summatory(chi, z) == pytest.approx(sums[z], abs=1e-8), (d, z)


def _blocked_lam_prime_summatory(chi, z):
    """The summatory as one Python step per block of constant z // k."""
    parts = []
    k = 1
    while k <= z:
        v = z // k
        k2 = z // v
        s = int(chi.partial_sum(k2)) - int(chi.partial_sum(k - 1))
        if s:
            parts.append(s * math.lgamma(v + 1))
        k = k2 + 1
    return math.fsum(parts)


def test_lam_prime_summatory_pinned_across_tiles():
    # about 2 sqrt(z) block ends: 63,200 (four tiles) and 141,000 (nine tiles)
    for z in (10**9 + 7, 5 * 10**9 + 17):
        assert 2 * math.isqrt(z) > tables.TILE
        for d in (-4, 13):
            chi = make_character(d)
            assert lam_prime_summatory(chi, z) == _blocked_lam_prime_summatory(chi, z)


def test_lam_prime_summatory_pinned_around_a_square_and_at_quotients_of_x():
    square = 1 << 16
    X = 10**8 + 7
    # Around the square z = 256^2 the block ends switch from k <= isqrt(z)
    # to z // v; at z = 256^2 - 1 no k has quotient v = 256, so that end
    # repeats the one before.  2^32 + 5 = (2^16)^2 + 5 spans 8 tiles, and
    # X // m are the quotients of one x.
    zs = [square - 1, square, square + 1, 2**32 + 5] + [X // m for m in range(1, 50)]
    for d in (1, -4, 13, -163):
        chi = make_character(d)
        for z in zs:
            assert lam_prime_summatory(chi, z) == _blocked_lam_prime_summatory(chi, z), (d, z)


@pytest.mark.parametrize("d, x, y, psi_star_hex, err_hex", [
    (-4, 10**8, (10**8) ** 0.55, "0x1.14c0a5c1ffd12p+15", "0x1.926e290b5b85bp-27"),
    (-163, 10**7, (10**7) ** 0.6, "0x1.e58a53f2b162cp+13", "0x1.b1eb0442d717cp-28"),
    (-47, 1000, 100, "0x1.8dcc7c8ce46e0p+6", "0x1.ad3cf04073beep-35"),  # C > x, repeated quotients
    (29, 10**9, (10**9) ** 0.5, "0x1.3855b1f95fc7ep+14", "0x1.718ca7fc38f80p-26"),
    (-23, 10**9, (10**9) ** 0.7, "0x1.62504394bd7e1p+20", "0x1.5fbc8825d7bf5p-20"),
    # max u_m = 10^6 > 4 + _COEFF_CHUNK caps the chi table, and B spans 62 l-tiles
    (-4, 10**12, (10**12) ** 0.4923, "0x1.4e67113cd6d9fp+20", "0x1.a77be8197a95cp-21"),
], ids=["D=-4", "D=-163", "D=-47", "D=29", "D=-23", "D=-4,x=1e12"])
def test_psi_star_pinned_bits(d, x, y, psi_star_hex, err_hex):
    # psi* of the coefficient kernel and its bound psi_star_err, bit for
    # bit.  A 40-digit sum of the exact log-prime coefficients of the window
    # puts the first three 5.6e-11, 8.7e-12 and 3.8e-13 from the true value
    # (psi_star_err: 1.2e-8, 6.3e-9, 4.9e-11).
    rep = psi_counts(x, make_character(d), x, y)
    assert (rep.psi_star.hex(), rep.psi_star_err.hex()) == (psi_star_hex, err_hex)


def _bits(v):
    return struct.pack("<d", v)


def test_exact_sum_is_fsum_bit_for_bit():
    # Mutation note: with the low limb (bins[1]) dropped from the flush,
    # this test fails (1.0 + 2^-40 and the random arrays lose their low 26
    # mantissa bits), and so do the psi* pins.
    rng = np.random.default_rng(16)
    exps = rng.integers(-1074, 1001, 4000).astype(np.float64)
    wide = rng.choice([-1.0, 1.0], 4000) * rng.random(4000) * np.exp2(exps)
    near = rng.standard_normal(3000) * np.exp2(rng.integers(-60, 60, 3000).astype(np.float64))
    cases = [
        [], [0.0], [-0.0], [0.0, -0.0], [-0.0, -0.0],  # empty and signed zeros
        [1.0, -1.0], [1e16, 1.0, -1e16], [2.0**53, 1.0, 1.0, -(2.0**53)],  # cancellation
        [1.0, 2.0**-40], [0.1] * 10, [1e100, 1.0, -1e100, 1e-100],
        [2.0**-1074] * 7, [2.0**-1074, 2.0**1000, -(2.0**1000)],  # exponents at both ends
        [2.0**1000, 2.0**-1074, 2.0**-1022, -(2.0**1000)],
        [(1 - 2.0**-53) * 2.0**1000, 2.0**947, -(2.0**1000)],
        wide.tolist(), near.tolist(), (near + near[::-1] * 1e-17).tolist(),
        np.concatenate([near, -near[:-1]]).tolist(),  # cancels to one entry
    ]
    for case in cases:
        a = np.array(case, dtype=np.float64)
        want = _bits(math.fsum(case))
        assert _bits(tables._exact_sum([a])) == want, case[:4]
        # over many calls, empty arrays among them, in another order
        parts = np.array_split(a[::-1], 37)
        assert _bits(tables._exact_sum(iter(parts))) == want, case[:4]
    assert tables._exact_sum([]) == 0.0


def test_exact_sum_flushes_its_bins(monkeypatch):
    # each bin holds at most _EXACT_SUM_BLOCK limbs between flushes
    rng = np.random.default_rng(7)
    a = rng.standard_normal(5000) * 1e6
    want = _bits(math.fsum(a.tolist()))
    for block in (1, 3, 64, 4999):
        monkeypatch.setattr(tables, "_EXACT_SUM_BLOCK", block)
        assert _bits(tables._exact_sum(np.array_split(a, 11))) == want, block


def _brute_window_difference(chi, z1, z0):
    """F(z1) - F(z0) as the sum over k of chi(k) log(q1!/q0!), each log of a
    factorial ratio summed term by term."""
    return math.fsum(
        chi(k) * math.fsum(math.log(l) for l in range(z0 // k + 1, z1 // k + 1))
        for k in range(1, z1 + 1)
    )


@pytest.mark.parametrize("d", [1, -4, 13, -163])
def test_window_difference_matches_brute_force(d):
    chi = make_character(d)
    pairs = [(20_000, 19_000), (20_000, 0), (20_000, 20_000), (19_999, 19_900),
             (12_345, 12_000), (5_000, 2_500), (1_000, 999), (3, 0), (2, 1), (1, 0), (1, 1)]
    for z1, z0 in pairs:
        got, weight = tables._psi_star(chi, z1, z0, [(1, 1)])  # one bracket, nu(1) = 1
        # 2^-48 W is the kernel's bound; the other half covers the oracle,
        # which rounds three times per k on terms of about W's size
        assert abs(got - _brute_window_difference(chi, z1, z0)) <= 2**-47 * weight, (z1, z0)
        if z0 == z1:
            assert got == weight == 0.0
    # C > x: every m <= x enters, with z0 = 0 once m > x - y
    x, y = 2_000, 300
    rep = psi_counts(x, chi, x, y, cutoff=5 * x)
    want = math.fsum(nu_value(chi, m) * _brute_window_difference(chi, x // m, (x - y) // m)
                     for m in range(1, x + 1))
    assert abs(rep.psi_star - want) <= 2 * rep.psi_star_err  # half for the oracle


@pytest.mark.parametrize("d, x, y, cutoff", [
    (-47, 2_000, 300, 10_000),  # C > x: every m <= x enters
    (-7, 10**5, (10**5) ** 0.55, None),  # C = 49, so n = mk <= 2,205
], ids=["C>x", "C<x"])
def test_psi_star_bits_do_not_depend_on_the_chunk(monkeypatch, d, x, y, cutoff):
    # psi* is one correctly rounded fsum and psi_star_err one left-to-right
    # sum, so neither may move by a bit when A(n) is cut into other chunks
    # or B(l) into other tiles; at tiles of 5 and 2^8 each L_m ends inside a
    # tile, and one tile mixes brackets with different L_m
    chi = make_character(d)
    want = psi_counts(x, chi, x, y, cutoff=cutoff)
    for chunk, tile in itertools.product((1, 7, 2**10), (1, 5, 2**8)):
        monkeypatch.setattr(tables, "_COEFF_CHUNK", chunk)
        monkeypatch.setattr(tables, "TILE", tile)
        got = psi_counts(x, chi, x, y, cutoff=cutoff)
        assert (got.psi_star, got.psi_star_err) == (want.psi_star, want.psi_star_err), (chunk, tile)


def test_psi_star_with_coefficients_over_several_chunks(monkeypatch):
    chi = make_character(-4)
    x, y, chunk = 3_000, 500, 2**8
    monkeypatch.setattr(tables, "_COEFF_CHUNK", chunk)
    # A(n) reaches n = m isqrt(x // m) for the live m <= C = x: 2,993, so
    # twelve chunks
    n_max = max(m * math.isqrt(x // m) for m in range(1, x + 1)
                if nu_value(chi, m) and x // m != (x - y) // m)
    assert n_max > 11 * chunk
    rep = psi_counts(x, chi, x, y, cutoff=x)
    want = math.fsum(nu_value(chi, m) * _brute_window_difference(chi, x // m, (x - y) // m)
                     for m in range(1, x + 1))
    assert abs(rep.psi_star - want) <= 2 * rep.psi_star_err  # half for the oracle


def test_log_factorial_ratio_matches_mpmath():
    import mpmath as mp

    edge, s = 1 << 16, tables._STIRLING_FROM
    q0 = [0, 1, s - 2, s - 1, s - 1, s, s, s + 1, edge - 3, edge - 2, edge - 1, edge - 1,
          edge, edge, edge + 1, 10**6, 10**9, s - 1, s, 3, edge - 5]
    q1 = [1, 3, s, s + 1, s + 9, s + 1, s + 2, s + 40, edge - 1, edge, edge + 1, edge + 7,
          edge + 1, edge + 3, 2 * edge, 10**6 + 5000, 10**9 + 10**5, edge + 2, 10**8, edge, edge]
    g, mag = tables._log_factorial_ratio(np.array(q1, dtype=np.int64), np.array(q0, dtype=np.int64))
    with mp.workdps(30):
        for a, b, got, m in zip(q0, q1, g.tolist(), mag.tolist()):
            want = mp.loggamma(b + 1) - mp.loggamma(a + 1)
            assert abs(got - want) <= 2**-49 * m, (a, b)  # 14u M in psi_counts
            if a >= s or b == a + 1:  # no cancellation: within 16 ulps
                assert abs(got - want) <= 2**-48 * abs(want), (a, b)


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


def test_divisor_problem_main_terms_at_the_trivial_character():
    """At d = 1, lambda = 1 * 1 = tau and rho = 1 * 1 * 1 = d_3: their main
    terms are the divisor-problem ones (Tenenbaum I.3), with residuals a
    few error monomials in size; lambda' has none (zeta has a pole)."""
    x = 10**5
    t = sieve_tables(x, make_character(1))
    g, g1, lx = float(np.euler_gamma), characters.STIELTJES_GAMMA1, math.log(x)
    lam = asymptotic_residual(t, "lambda", x)
    assert lam.main == pytest.approx(x * (lx + 2 * g - 1), rel=1e-12)
    tau_sum = int(tau_array(x)[1:].sum())
    assert divisor_sum(t, "lambda", x) == tau_sum
    assert lam.residual == tau_sum - lam.main and abs(lam.normalized) < 4
    rho = asymptotic_residual(t, "rho", x)
    assert rho.main == pytest.approx(
        x * (lx**2 / 2 + (3 * g - 1) * lx + (3 * g**2 - 3 * g1 - 3 * g + 1)), rel=1e-12)
    assert abs(rho.normalized) < 4
    with pytest.raises(characters.PoleError):
        asymptotic_residual(t, "lambda_prime", x)


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


def test_psi_star_oracle_catches_summatory_off_by_1e_6(monkeypatch):
    x = 10**4
    assert all(r.ok for r in verify._check_psi({"psi_xs": (x,)}))
    orig = tables._psi_star

    def off(chi, x1, x0, brackets):  # psi* off by 1e-6
        value, weight = orig(chi, x1, x0, brackets)
        return value + 1e-6, weight

    monkeypatch.setattr(tables, "_psi_star", off)
    [oracle] = [r for r in verify._check_psi({"psi_xs": (x,)}) if r.name == "psi-star-oracle"]
    assert not oracle.ok and oracle.gating


def test_residual_and_psi_checks_share_one_table(monkeypatch):
    limits = {"residual_xs": (10**3, 10**4), "psi_xs": (10**4,)}
    alone = [verify._check_residuals(limits), *verify._check_psi(limits)]
    table = sieve_tables(10**4, CHI4)
    monkeypatch.setattr(tables, "sieve_tables", lambda *a, **k: pytest.fail("table rebuilt"))
    assert [verify._check_residuals(limits, table), *verify._check_psi(limits, table)] == alone


def test_count_report_rejects_broken_split():
    with pytest.raises(ValueError, match="psi_star"):
        CountReport(x=100.0, y=10.0, psi=5.0, psi_star=3.0, psi_substar=1.0,
                    psi_star_err=0.0, pi_count=1, li_value=2.0, main_term=2.0, ratio=1.0)


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
    assert abs(rep.psi_star - uncapped) <= rep.psi_star_err
    assert calls == list(range(1, x + 1))


def test_psi_validation():
    with pytest.raises(ValueError):
        psi_counts(100, CHI4, 200, 10)
    with pytest.raises(ValueError):
        psi_counts(100, CHI4, 50, 60)
    with pytest.raises(ValueError):
        psi_counts(100, CHI4, 50, 0)
    with pytest.raises(ValueError, match="2\\^32"):  # psi*'s int64 coefficient bound
        psi_counts(2**33, CHI4, 2**33, 2**32)
    with pytest.raises(ValueError, match="2\\^52"):  # psi*'s float quotients
        psi_counts(2**52, CHI4, 2**52, 100)
    # the Li window diverges at an endpoint t = 1: its principal value
    # exists only when 1 is strictly inside
    for x, y in ((10, 9), (1, 0.5)):
        with pytest.raises(ValueError, match="t = 1"):
            psi_counts(10, CHI4, x, y)


def test_li_window_value():
    # scipy's quadrature is the oracle: it shares no code with the mpmath li
    # difference, and at epsrel 1e-13 it matched 60-digit values on these
    from scipy.integrate import quad

    rep = psi_counts(1000, CHI4, 1000, 100)
    ref, _ = quad(lambda t: 1 / math.log(t), 900, 1000, epsabs=0, epsrel=1e-13)
    assert rep.li_value == pytest.approx(ref, rel=1e-13)
    for x in (1e3, 1e7, 1e9, 1e12):
        a = x - x**0.4923
        ref, _ = quad(lambda t: 1 / math.log(t), a, x, epsabs=0, epsrel=1e-13)
        assert tables._li_window(a, x) == pytest.approx(ref, rel=1e-13), x
    # x - y < 2: the principal value across t = 1, by a Cauchy-weight rule
    # on (t - 1) / log t, which is smooth there
    rep = psi_counts(10, CHI4, 2.5, 2.0)
    ref, _ = quad(lambda t: (t - 1) / math.log(t) if t != 1 else 1.0, 0.5, 2.5,
                  weight="cauchy", wvar=1, epsabs=0, epsrel=1e-13)
    assert rep.li_value == pytest.approx(ref, rel=1e-13)


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


def _quiet_run(*argv):
    """cli.run with stdout sent to os.devnull, so no output is held in memory."""
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
        assert cli.run(list(argv)) == 0


def _character_kernels(d):
    """Every kernel on the character of discriminant d in one sequence, from
    cold caches: its period table and prefix, one Gauss sum, and the power
    moments."""
    for cache in (characters._period_array, characters._period_prefix, characters._unit_roots):
        cache.cache_clear()
    chi = make_character(d)
    chi.partial_sum(1)
    characters.gauss_sum(1, chi)
    characters._power_moments(chi, characters._TAIL_ORDER)


def _read_all(t):
    """t after a read of rho* and Lambda*, the two arrays built on read."""
    t.rho_star, t.Lam_star
    return t


#: Per MEMORY_RATES key: two sizes n1 < n2, both past every fixed tile or
#: chunk of the path, and the call that allocates n entries.
RATE_CASES = {
    # every array read, as tables --dump csv reads them
    "sieve_tables": (1 << 15, 1 << 17, _cold(lambda n: _read_all(sieve_tables(n, CHI13)))),
    "tau_moment": (1 << 15, 1 << 17, lambda n: tau_moment_bound(n, 1.5)),
    "convolution_oracle": (1 << 15, 1 << 17, lambda n: delta.naive_triple_raw_prefix(
        *map(make_character, (-163, 5, 1)), n)),
    "verify_tables": (20_000, 40_000, _cold(lambda n: verify._check_tables({"table_limit": n}))),
    # n is the discriminant
    "period_table": (100_001, 400_009, _character_kernels),
    # past the raw-sum kernel's fixed peak, which hides the per-point cost
    # below about 16000 points
    "delta_sweep": (16_000, 32_000, lambda n: _quiet_run(
        "delta-sweep", "--d1", "-4", "--d2", "5", "--d3", "-3", "--x-grid",
        f"1e3:1e4:linear:{n}", "--out", "samples.csv")),
}


def _traced_peak(fn, n):
    tracemalloc.start()
    try:
        fn(n)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_every_memory_rate_has_a_rate_case():
    assert set(RATE_CASES) == set(tables.MEMORY_RATES)
    assert tables._BYTES_PER_ENTRY == tables.MEMORY_RATES["sieve_tables"]


@pytest.mark.parametrize("key", sorted(RATE_CASES))
def test_memory_rate(key, tmp_path, monkeypatch):
    """The tracemalloc peak grows by between 3/4 of the rate and the rate
    per entry, and the rate covers the whole peak at n2 up to 4 MiB."""
    monkeypatch.setenv("DELTALAB_OUT", str(tmp_path))
    n1, n2, fn = RATE_CASES[key]
    rate = tables.MEMORY_RATES[key]
    fn(n1)  # untraced: caches and imports are not counted
    peak1, peak2 = _traced_peak(fn, n1), _traced_peak(fn, n2)
    marginal = (peak2 - peak1) / (n2 - n1)
    report = (f"{key}: n1 = {n1}, n2 = {n2}, peaks {peak1} and {peak2} B, "
              f"marginal {marginal:.2f} B per entry, rate {rate}")
    assert 0.75 * rate <= marginal <= rate, report
    assert peak2 <= rate * n2 + (4 << 20), report


#: Per command whose output is written a tile at a time: two sizes 4x apart,
#: past two tiles, and its argv at n entries.
STREAMED_OUTPUTS = {
    "character": (1 << 15, 1 << 17, lambda n: ["character", "--disc", "-4", "--table", str(n),
                                               "--json"]),
    # 2^14 // 17 = 963 m per tile of gauss_sums
    "gauss": (2_500, 10_000, lambda n: ["gauss", "--disc", "17", "--m", f"1..{n}", "--json"]),
    "expsum": (1 << 14, 1 << 16, lambda n: ["expsum", "--n1", "3", "--n2", "5", "--d3", "-4",
                                            "--x", "1e6", "--range", f"1:{n}", "--m", "1"]),
}


@pytest.mark.parametrize("command", sorted(STREAMED_OUTPUTS))
def test_streamed_output_memory_stays_flat(command):
    """The tracemalloc peak grows by under 4 B per entry between the two
    sizes, where a list of one Python object per entry would take 36 B or
    more: no list or array is as long as the output.  (A tile's strings
    grow with the digits of n, and the parser's garbage is collected at
    varying times, by tens of KB.)"""
    n1, n2, argv = STREAMED_OUTPUTS[command]

    def run(n):
        _quiet_run(*argv(n))

    run(n1)  # untraced: caches and imports are not counted
    growth = (_traced_peak(run, n2) - _traced_peak(run, n1)) / (n2 - n1)
    assert growth < 4, f"{command}: {growth:.2f} B per entry"


def test_l_series_sums_stay_flat_past_a_tile():
    """Kq = 8q spans 16 and 64 tiles of the walk over chi at these
    conductors: each L-series sum's peak grows by at most the period_table
    rate per residue between them (whole-range arrays grew by about 3 KB)."""
    c1, c2 = make_character(-32771), make_character(-131071)
    rate = tables.MEMORY_RATES["period_table"]
    for fn in (characters.l_one_series, l_one_derivative):
        fn(c1), fn(c2)  # untraced: the period tables and Hurwitz-zeta values are cached

        def computed(chi):  # not read from l_one_derivative's own cache
            getattr(fn, "cache_clear", lambda: None)()
            return fn(chi)

        growth = _traced_peak(computed, c2) - _traced_peak(computed, c1)
        assert growth <= rate * (c2.conductor - c1.conductor), (fn.__name__, growth)


def test_psi_counts_memory_grows_by_the_sieve_base_primes_only():
    """The tracemalloc peak grows by at most 3 B per isqrt(x) entry, the
    segmented sieve's base primes (B, the float l and a chi table of
    isqrt(x) + 1 entries took about 21 B).  At x < 2^52, isqrt(x) < 2^26,
    that stays far below the memory budget, which is why psi_counts checks
    none.  The prime count stays right at a large x."""
    def run(n):  # x = (n - 1)^2, so isqrt(x) + 1 = n
        return psi_counts((n - 1) ** 2, CHI4, (n - 1) ** 2, 1000, cutoff=16)

    n1, n2 = 1 << 21, 1 << 23
    run(n1)  # untraced: caches and imports are not counted
    growth = (_traced_peak(run, n2) - _traced_peak(run, n1)) / (n2 - n1)
    assert growth <= 3, f"{growth:.2f} B per isqrt(x) entry"
    assert 3 * (1 << 26) < tables.DEFAULT_MEMORY_BUDGET / 8
    x = 10**12
    assert psi_counts(x, CHI4, x, 1000, cutoff=16).pi_count == len(list(sympy.primerange(x - 999, x + 1)))


def test_memory_budget_error_just_below_need(monkeypatch):
    N = 10**4
    need = N * tables.MEMORY_RATES["sieve_tables"]
    monkeypatch.setattr(tables, "DEFAULT_MEMORY_BUDGET", need - 1)
    with pytest.raises(MemoryBudgetError):
        sieve_tables(N, CHI4)
    monkeypatch.setattr(tables, "DEFAULT_MEMORY_BUDGET", need)
    assert sieve_tables(N, CHI4).limit == N
