"""Tests of the benchmark's own parts: the exact references, the seeded op
generator, the Harrell-Davis percentile, the speed probe's reference
seconds and the tracer.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

import math
import random

import numpy as np
import pytest

import reference
import run
import workloads
from deltalab import characters, delta, sieves, tables
import speed
from tracing import Tracer

PIN_N = 10_000


def _triples():
    """Seeded triples over a pool holding 1, -8, 12 and -163, plus two
    fixed ones so that each of the four appears in some slot."""
    rng = random.Random(20240121)
    pool = (1, -8, 12, -163, -4, 5)
    return [(1, -8, 12), (-163, 12, -8)] + [tuple(rng.choice(pool) for _ in range(3)) for _ in range(2)]


@pytest.mark.parametrize("triple", _triples())
def test_reference_triple_sum_pinned_to_both_oracles(triple):
    chis = [characters.make_character(d) for d in triple]
    naive = delta.naive_triple_raw_prefix(*chis, PIN_N)
    hyper = delta.hyperbola_raw_prefix(*chis, PIN_N)
    assert np.array_equal(naive, hyper)
    periods = [c.period_array() for c in chis]
    got = np.array([reference.triple_raw_sum(*periods, x) for x in range(PIN_N + 1)])
    bad = np.flatnonzero(got != naive)
    assert bad.size == 0, f"first mismatch at x={bad[0]}: {got[bad[0]]} vs {naive[bad[0]]}"


def test_reference_triple_sum_matches_production_at_large_x():
    for triple, x in (((-163, 12, -8), 10**6), ((1, 1, 1), 3 * 10**6), ((1, -8, 5), 2 * 10**6 + 17)):
        chis = [characters.make_character(d) for d in triple]
        assert reference.triple_raw_sum(*(c.period_array() for c in chis), x) == delta.triple_raw_sum(*chis, x)


def test_icbrt_is_exact_at_cube_boundaries():
    for y in (1, 2, 10, 215, 1000, 4641):
        for n in (y**3 - 1, y**3, y**3 + 1):
            r = reference.icbrt(n)
            assert r**3 <= n < (r + 1) ** 3


@pytest.mark.parametrize("d", [-4, 12, -163])
def test_block_sums_match_sieved_tables(d):
    chi = characters.make_character(d)
    N = 20_000
    t = tables.sieve_tables(N, chi)
    for n in (1, 2, 97, 1000, 12_345, N):
        assert reference.lambda_sum(chi.period_array(), n) == tables.divisor_sum(t, "lambda", n)
        assert reference.rho_sum(chi.period_array(), n) == tables.divisor_sum(t, "rho", n)


def test_prime_window_matches_brute_force_and_sieve():
    for lo, hi in ((0, 1), (0, 2), (89, 100), (0, 5000), (10**6 - 3000, 10**6 + 7)):
        primes = [n for n in range(max(lo + 1, 2), hi + 1) if all(n % p for p in range(2, math.isqrt(n) + 1))]
        count, psi = reference.prime_window(lo, hi)
        assert count == len(primes)
        want_psi, want_count = sieves.von_mangoldt_window(lo, hi)
        assert count == want_count
        assert math.isclose(psi, want_psi, rel_tol=1e-12, abs_tol=1e-12)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    a = workloads.generate(workload, 7, characters, rounds=3)
    b = workloads.generate(workload, 7, characters, rounds=3)
    c = workloads.generate(workload, 8, characters, rounds=3)
    assert a == b
    assert a != c
    assert all(len(r) == len(a[0]) for r in a)


def test_rounds_are_stratified():
    for seed in range(5):
        for ops in workloads.generate("delta-sweep", seed, characters, rounds=2):
            lo, hi = workloads.DELTA_LOG10_X
            k = workloads.DELTA_STRATA
            strata = sorted(int((math.log10(op[3]) - lo) / (hi - lo) * k) for op in ops)
            assert strata == list(range(k))
        for ops in workloads.generate("psi-windows", seed, characters, rounds=2):
            assert all(workloads.PSI_EXPONENT[0] <= a < workloads.PSI_EXPONENT[1] for _, _, a in ops)
            assert all(abs(d) <= workloads.PSI_DISC_BOUND for d, _, _ in ops)
        for ops in workloads.generate("tables-build", seed, characters, rounds=2):
            assert len({d for (d,) in ops}) == workloads.TABLE_STRATA


def test_harrell_davis():
    assert run.harrell_davis([3.0], 0.9) == pytest.approx(3.0)
    vals = [float(v) for v in range(1, 12)]
    assert run.harrell_davis(vals, 0.5) == pytest.approx(6.0)  # symmetric sample
    p90 = run.harrell_davis(vals, 0.9)
    assert 9.0 < p90 < 11.0
    # Repeating the same strata hardly moves it.
    assert run.harrell_davis(vals * 3, 0.9) == pytest.approx(p90, rel=0.05)


def test_reference_seconds_rescale_and_drop_probe_time():
    ref = speed.REF_KERNEL_S
    probe = speed.SpeedProbe()
    # (start, probe seconds in all, warm kernel seconds): a sample at
    # reference speed, then one on a core twice as fast.
    probe.samples = [(0.0, 0.01, ref), (1.0, 0.01, ref / 2)]
    raw, secs = probe.reference_seconds(0.5, 1.5)
    assert raw == pytest.approx(0.99)  # the sample's 0.01 s taken out
    assert secs == pytest.approx(1.98)
    # No sample inside: the latest one before the interval sets the speed.
    assert probe.reference_seconds(0.2, 0.4) == pytest.approx((0.2, 0.2))
    assert probe.reference_seconds(1.2, 1.4)[1] == pytest.approx(0.4)


def test_tracer_sees_nested_calls_and_restores_bindings():
    chi = characters.make_character(-7)
    orig = tables.nu_value
    tr = Tracer()
    tr.install()
    try:
        assert tables.nu_value is not orig
        with speed.SpeedProbe() as probe:
            tr.probe = probe
            with tr.op(0):
                tables.psi_counts(10**5, chi, 10**5, 1000.0)
        tables.nu_value(chi, 6)  # outside an op: not recorded
    finally:
        tr.uninstall()
    assert tables.nu_value is orig
    m = tr.layer_metrics()
    assert m["tables.psi_counts.s"] > 0
    assert m["tables.nu_value.calls"] == 49  # every m <= C = 7^2
    assert 0 < m["tables.nu_value.useful_ratio"] < 1
    assert m["sieves.von_mangoldt_window.elements"] == 1000
    assert 0 <= m["tables.psi_counts.self_s"] <= m["tables.psi_counts.s"]
    assert m["delta.triple_delta.calls"] == 0
