"""Empirical-lab tests: the production triple sum against the convolution
oracle, which is pinned to the literal triple loop; exponential-sum
invariants, least-squares fitting, and the bound-ratio report."""

import cmath
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltalab import delta
from deltalab.characters import make_character
from deltalab.delta import (
    BoundCheckReport,
    DeltaSample,
    bound_check,
    exp_sum,
    exp_sum_max_sign,
    exponent_fit,
    hyperbola_raw_prefix,
    naive_triple_raw,
    naive_triple_raw_prefix,
    pair_summatory,
    theorem_bound_value,
    triple_delta,
    triple_raw_sum,
)
from deltalab.exponents import bound_eval, derive_tuple
from deltalab.tables import DEFAULT_MEMORY_BUDGET, MemoryBudgetError

TRIV = make_character(1)
CHI4 = make_character(-4)
CHI5 = make_character(5)


def test_pair_summatory_against_double_loop():
    rng = random.Random(5)
    for c1, c2 in ((TRIV, TRIV), (CHI4, TRIV), (CHI4, CHI5), (CHI5, CHI5)):
        for t in [0, 1, 2, 17, 100] + [rng.randrange(2, 3000) for _ in range(10)]:
            brute = sum(
                c1(a) * c2(b)
                for a in range(1, t + 1)
                for b in range(1, t // a + 1)
            )
            assert pair_summatory(c1, c2, t) == brute, (c1.discriminant, c2.discriminant, t)


def _triple_loop_prefix(c1, c2, c3, N):
    """The definition, literally: put the character weight of every triple
    (n1, n2, n3) with n1 n2 n3 <= N into its product's bucket, then sum the
    buckets, giving the raw sum at every integer x <= N."""
    t1, t2, t3 = (c.value_table(N).astype(np.int64) for c in (c1, c2, c3))
    bucket = np.zeros(N + 1, dtype=np.int64)
    for n1 in range(1, N + 1):
        w1 = int(t1[n1])
        if not w1:
            continue
        for n2 in range(1, N // n1 + 1):
            w2 = int(t2[n2])
            if not w2:
                continue
            m = n1 * n2
            bucket[m::m] += (w1 * w2) * t3[1 : N // m + 1]
    return np.cumsum(bucket)


def test_convolution_oracle_matches_triple_loop():
    N = 2000
    chis = {d: make_character(d) for d in (1, -4, 5)}
    for discs in itertools.product(chis, repeat=3):
        triple = [chis[d] for d in discs]
        got = naive_triple_raw_prefix(*triple, N)
        assert np.array_equal(got, _triple_loop_prefix(*triple, N)), discs


def test_convolution_oracle_memory_budget():
    over = DEFAULT_MEMORY_BUDGET // delta._ORACLE_BYTES_PER_ENTRY + 1
    with pytest.raises(MemoryBudgetError, match="budget"):
        naive_triple_raw_prefix(TRIV, TRIV, TRIV, over)  # raises before allocating
    with pytest.raises(MemoryBudgetError):
        triple_delta(TRIV, TRIV, CHI4, over, cap=over, naive_check=True)


def test_convolution_oracle_peak_within_bytes_per_entry():
    N = 10**4
    chis = [make_character(d) for d in (-163, 5, 1)]
    for c in chis:
        c.value_table(1)  # the period array is cached; build it outside the trace
    tracemalloc.start()
    try:
        naive_triple_raw_prefix(*chis, N)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= N * delta._ORACLE_BYTES_PER_ENTRY


def test_d3_spot_value():
    assert triple_raw_sum(TRIV, TRIV, TRIV, 10) == 53
    assert naive_triple_raw(TRIV, TRIV, TRIV, 10) == 53


def test_prefix_oracle_equality_small():
    N = 2000
    for c1, c2, c3 in (
        (TRIV, TRIV, TRIV),
        (TRIV, TRIV, CHI4),
        (CHI4, CHI5, TRIV),
        (CHI4, CHI4, CHI4),
        (CHI5, CHI4, CHI5),
    ):
        naive = naive_triple_raw_prefix(c1, c2, c3, N)
        hyper = hyperbola_raw_prefix(c1, c2, c3, N)
        assert np.array_equal(naive, hyper)
        for x in (1, 2, 3, 10, 97, 500, 1999, 2000):
            assert triple_raw_sum(c1, c2, c3, x) == int(naive[x])


ORACLE_DISCS = (1, -3, -4, 5, -8, 8, 12, -163)


@given(
    st.tuples(*(st.sampled_from(ORACLE_DISCS) for _ in range(3))),
    st.integers(1, 10**6),
)
@settings(max_examples=25, deadline=None)
def test_triple_raw_sum_matches_naive_oracle(discs, x):
    chis = [make_character(d) for d in discs]
    naive = naive_triple_raw_prefix(*chis, x)
    assert triple_raw_sum(*chis, x) == int(naive[x])


def test_triple_raw_sum_at_cube_boundaries():
    N = 100**3 + 1
    for discs in ((1, 1, 1), (-3, 8, 1), (-163, 12, -4), (5, -8, 5)):
        chis = [make_character(d) for d in discs]
        naive = naive_triple_raw_prefix(*chis, N)
        for y in range(1, 101):
            for x in (y**3 - 1, y**3, y**3 + 1):
                if x >= 1:
                    assert triple_raw_sum(*chis, x) == int(naive[x]), (discs, x)


def test_d3_summatory_pins():
    # sum_{n <= 10^k} d_3(n), OEIS A061201; 10^k is a cube for k = 6 and 9,
    # and d_3(10^6) = 28^2, d_3(10^6 + 1) = 3^2 (101 * 9901),
    # d_3(10^9) = 55^2, d_3(10^9 + 1) = 3^5 (7 * 11 * 13 * 19 * 52579).
    pins = {
        10**6 - 1: 106030594 - 784,
        10**6: 106030594,
        10**6 + 1: 106030594 + 9,
        10**7: 1421760251,
        10**8: 18362473634,
        10**9 - 1: 230375375227 - 3025,
        10**9: 230375375227,
        10**9 + 1: 230375375227 + 243,
    }
    for x, want in pins.items():
        assert triple_raw_sum(TRIV, TRIV, TRIV, x) == want, x


def test_triple_raw_floor_semantics():
    assert triple_raw_sum(TRIV, TRIV, TRIV, 10.99) == 53
    assert triple_raw_sum(TRIV, TRIV, TRIV, 0.3) == 0


def test_triple_delta_sample_fields():
    s = triple_delta(TRIV, TRIV, CHI4, 10**4)
    assert s.raw_sum == naive_triple_raw(TRIV, TRIV, CHI4, 10**4)
    assert s.delta == s.raw_sum - s.residue
    assert s.bound_value == theorem_bound_value(4, 4, 10**4)
    assert (s.d1, s.d2, s.d3) == (1, 1, -4)


def test_triple_delta_nontrivial_residue_zero():
    s = triple_delta(CHI4, CHI5, CHI4, 500)
    assert s.residue == 0.0
    assert s.delta == s.raw_sum


def test_triple_delta_preconditions():
    with pytest.raises(ValueError):
        triple_delta(TRIV, TRIV, TRIV, 0.5)
    with pytest.raises(ValueError, match="cap"):
        triple_delta(TRIV, TRIV, TRIV, 10**7, cap=10**6)


def test_triple_delta_naive_check_path():
    s = triple_delta(CHI4, TRIV, CHI5, 3000, naive_check=True)
    assert s.raw_sum == naive_triple_raw(CHI4, TRIV, CHI5, 3000)


def test_delta_sample_rejects_inconsistent_delta():
    with pytest.raises(ValueError, match="delta"):
        DeltaSample(x=10.0, d1=1, d2=1, d3=1, raw_sum=53, residue=50.0,
                    delta=4.0, bound_value=1.0)


def test_theorem_bound_value_is_max_of_terms():
    D, Dmax, x = 20.0, 5.0, 1e6
    terms = [
        D ** (118 / 519) * Dmax ** (97 / 346) * x ** (511 / 1038),
        D ** (121 / 692) * Dmax ** (467 / 1384) * x ** (675 / 1384),
        D ** (56039 / 213309) * Dmax ** (69941 / 284412) * x ** (419257 / 853236),
        D ** (17936 / 50343) * Dmax ** (131 / 692) * x ** (91507 / 201372),
    ]
    assert theorem_bound_value(D, Dmax, x) == pytest.approx(max(terms), rel=1e-12)


def test_exp_sum_single_point_unit_modulus():
    v = exp_sum(3, 7, CHI5, (1000, 1000), 1e6, 20.0, 2)
    assert abs(v) == pytest.approx(1.0, abs=1e-12)
    # and it matches the direct phase evaluation
    phase = 3.0 * (3 * 7 * 1000 * 1e6 / 20.0) ** (1 / 3) - 2 * 1000 / 5
    assert v == pytest.approx(cmath.exp(2j * math.pi * phase), abs=1e-10)


def test_exp_sum_triangle_inequality():
    rng = random.Random(6)
    for _ in range(25):
        lo = rng.randrange(1, 5000)
        hi = lo + rng.randrange(0, 2000)
        n1, n2 = rng.randrange(1, 50), rng.randrange(1, 50)
        m = rng.randrange(0, 10)
        v = exp_sum(n1, n2, CHI5, (lo, hi), 1e6, 20.0, m)
        assert abs(v) <= (hi - lo + 1) + 1e-9


def test_exp_sum_validation_and_signs():
    with pytest.raises(ValueError):
        exp_sum(3, 7, CHI5, (10, 5), 1e6, 20.0, 2)
    with pytest.raises(ValueError):
        exp_sum(3, 7, CHI5, (5, 10), 1e6, 20.0, 2, sign=2)
    v, s = exp_sum_max_sign(3, 7, CHI5, (100, 300), 1e6, 20.0, 2)
    vp = exp_sum(3, 7, CHI5, (100, 300), 1e6, 20.0, 2, sign=1)
    vm = exp_sum(3, 7, CHI5, (100, 300), 1e6, 20.0, 2, sign=-1)
    assert abs(v) == max(abs(vp), abs(vm))
    assert s in (1, -1)


def test_exp_sum_sweep_against_order5_bound():
    # sweep-and-fit: the ratio |E| / bound is reported, never asserted as a
    # bound proof; here only finiteness and positivity are hard-checked.
    t5 = derive_tuple(5)
    rng = random.Random(9)
    ratios = []
    for _ in range(100):
        n1, n2 = rng.randrange(1, 20), rng.randrange(1, 20)
        lo = rng.randrange(500, 4000)
        length = rng.randrange(50, 1500)
        x = 10.0 ** rng.uniform(4, 7)
        D = float(CHI5.conductor)
        m = rng.randrange(1, 5)
        e = exp_sum(n1, n2, CHI5, (lo, lo + length), x, D, m)
        M = float(length + 1)
        T = (n1 * n2 * (lo + length / 2) * x / D) ** (1 / 3)
        ratios.append(abs(e) / bound_eval(t5, M, T, 0.0))
    fitted_constant = max(ratios)
    assert math.isfinite(fitted_constant) and fitted_constant > 0


def test_exponent_fit_exact_power_law():
    pts = [(10.0**k, (10.0**k) ** 0.5) for k in range(1, 8)]
    fit = exponent_fit(pts)
    assert fit.slope == pytest.approx(0.5, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_exponent_fit_planted_slopes():
    rng = random.Random(10)
    for _ in range(20):
        slope = rng.uniform(-2, 2)
        c = rng.uniform(0.1, 10)
        pts = [(x, c * x**slope) for x in (3.0, 10.0, 40.0, 160.0, 640.0)]
        fit = exponent_fit(pts)
        assert fit.slope == pytest.approx(slope, abs=1e-6)


def test_exponent_fit_errors():
    with pytest.raises(ValueError):
        exponent_fit([(1.0, 1.0), (2.0, 2.0)])
    with pytest.raises(ValueError):
        exponent_fit([(2.0, 1.0), (2.0, 2.0), (2.0, 3.0)])
    with pytest.raises(ValueError):
        exponent_fit([(1.0, 1.0), (2.0, -2.0), (3.0, 1.0)])


def test_bound_check_report():
    with pytest.raises(ValueError):
        bound_check([])
    one = triple_delta(TRIV, TRIV, CHI4, 100)
    rep = bound_check([one])
    assert isinstance(rep, BoundCheckReport)
    assert rep.n_samples == 1 and rep.trend_slope is None and not rep.flagged
    samples = [
        triple_delta(TRIV, TRIV, TRIV, x) for x in (10**3, 10**4, 3 * 10**4, 10**5)
    ]
    rep = bound_check(samples)
    assert rep.max_ratio == max(abs(s.delta) / s.bound_value for s in samples)
    assert rep.trend_slope is not None
    assert isinstance(rep.flagged, bool)
