"""Empirical-lab tests: the production triple sum against the convolution
oracle, which is pinned to the literal triple loop; exponential-sum
invariants, least-squares fitting, and the bound-ratio report."""

import cmath
import itertools
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltalab import characters, delta
from deltalab.characters import make_character
from deltalab.delta import (
    BoundCheckReport,
    DeltaSample,
    bound_check,
    exp_sum,
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
from deltalab.tables import DEFAULT_MEMORY_BUDGET, MEMORY_RATES, MemoryBudgetError

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


def test_convolution_oracle_shares_the_pair_convolution(monkeypatch):
    N = 2000
    thirds = [make_character(d) for d in (1, -4, 5, -4)]
    calls = []
    orig = delta.convolve

    def counted(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    monkeypatch.setattr(delta, "convolve", counted)
    got = list(delta.naive_triple_raw_prefixes(TRIV, CHI4, thirds, N))
    assert len(calls) == len(thirds) + 1
    for c3, prefix in zip(thirds, got):
        assert np.array_equal(prefix, _triple_loop_prefix(TRIV, CHI4, c3, N))


def test_convolution_oracle_memory_budget():
    over = DEFAULT_MEMORY_BUDGET // MEMORY_RATES["convolution_oracle"] + 1
    with pytest.raises(MemoryBudgetError, match="budget"):
        naive_triple_raw_prefix(TRIV, TRIV, TRIV, over)  # raises before allocating
    with pytest.raises(MemoryBudgetError):
        triple_delta(TRIV, TRIV, CHI4, over, cap=over, naive_check=True)


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
    # sign -1 negates the whole phase: the sum is exactly the conjugate
    vp = exp_sum(3, 7, CHI5, (100, 300), 1e6, 20.0, 2, sign=1)
    assert exp_sum(3, 7, CHI5, (100, 300), 1e6, 20.0, 2, sign=-1) == vp.conjugate()


def test_exp_sum_does_not_depend_on_its_tiles(monkeypatch):
    """One fsum over every tile rounds the exact sum once, so a range of
    one tile and of 429 tiles of 7 terms give the same bits."""
    args = (3, 7, make_character(-163), (1000, 4_000), 1e9, 163.0, 5)
    whole = exp_sum(*args)
    monkeypatch.setattr(delta, "TILE", 7)
    assert exp_sum(*args) == whole


def test_exp_sum_takes_m_mod_d3_without_int64_wrap():
    """m n3 mod D3 is (m mod D3)(n3 mod D3) mod D3: m + 5 * 2^60 (which
    wrapped m n3 in int64) and m + 5 * 2^70 (past int64) give m's bits."""
    args = (3, 7, CHI5, (1, 1000), 1e6, 20.0)
    for m in (2, -3):
        want = exp_sum(*args, m)
        assert exp_sum(*args, m + 5 * 2**60) == want
        assert exp_sum(*args, m + 5 * 2**70) == want


def test_exp_sum_rejects_n1_n2_hi_from_2_53():
    """u = n1 n2 n3 x / D is exact only while n1 n2 n3 < 2^53."""
    assert exp_sum(1, 1, CHI5, (2**53 - 1, 2**53 - 1), 1e6, 20.0, 2) != 0
    for n1, n2, hi in ((1, 1, 2**53), (2**26, 2**27, 1), (3, 7, 10**300)):
        with pytest.raises(ValueError, match="2\\^53") as e:
            exp_sum(n1, n2, CHI5, (1, hi), 1e6, 20.0, 2)
        assert not re.search(r"\d{16}", str(e.value))


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


AWKWARD_XS = [10**5, 17, 3, 17, 2.5, 999.99, 0.5, 0, -3, 1, 46**3, 10**5 - 1]
CUBE_XS = [y**3 + e for y in range(1, 47) for e in (-1, 0, 1)]  # 46^3 + 1 <= 1e5


@pytest.mark.parametrize("discs", [(1, 1, 1), (-3, 8, 1), (-163, 12, -4), (5, -8, 5), (-4, -4, -4)])
def test_triple_raw_sums_match_oracle_and_scalar_path(discs):
    chis = [make_character(d) for d in discs]
    naive = naive_triple_raw_prefix(*chis, 10**5)
    xs = AWKWARD_XS + random.Random(12).sample(CUBE_XS, len(CUBE_XS))
    got = delta.triple_raw_sums(*chis, xs)
    assert got.dtype == np.int64
    assert got.tolist() == [int(naive[math.floor(x)]) if x >= 1 else 0 for x in xs]
    assert got.tolist() == [triple_raw_sum(*chis, x) for x in xs]


def test_triple_raw_sums_empty():
    got = delta.triple_raw_sums(TRIV, CHI4, CHI5, [])
    assert got.dtype == np.int64 and got.shape == (0,)


def test_triple_raw_sums_across_groups_and_small_tiles(monkeypatch):
    # 300 points near 1e6 have y = icbrt(x) summing past one group's
    # TILE rows; a 64-element tile makes every tile boundary and
    # the b <= y / a <= s masks show up at small x as well.
    chis = [make_character(d) for d in (-4, 1, 5)]
    naive = naive_triple_raw_prefix(*chis, 10**6)
    rng = random.Random(13)
    xs = [rng.randrange(1, 10**6 + 1) for _ in range(300)]
    assert delta.triple_raw_sums(*chis, xs).tolist() == [int(naive[x]) for x in xs]
    monkeypatch.setattr(delta, "TILE", 64)
    small = xs[:40] + list(range(1, 60))
    assert delta.triple_raw_sums(*chis, small).tolist() == [int(naive[x]) for x in small]


def test_triple_deltas_equal_one_at_a_time():
    xs = [10.0, 1e4, 2.5e5, 1e4]
    batch = delta.triple_deltas(TRIV, CHI5, CHI4, xs)
    assert batch == [triple_delta(TRIV, CHI5, CHI4, x) for x in xs]
    with pytest.raises(ValueError, match="cap"):
        delta.triple_deltas(TRIV, CHI5, CHI4, [10.0, 2e6], cap=10**6)


def test_triple_deltas_pay_for_l_prime_once_per_grid():
    """L'(1, chi) is cached per discriminant: 100 residues with two zeta
    factors compute it once."""
    characters.l_one_derivative.cache_clear()
    delta.triple_deltas(TRIV, TRIV, CHI4, [1e3 + 10 * i for i in range(100)])
    assert characters.l_one_derivative.cache_info().misses == 1


def test_exp_sum_matches_mpmath_at_large_phases():
    from deltalab.verify import _exp_sum_oracle

    rng = random.Random(14)
    for _ in range(12):
        n1, n2 = rng.randrange(1, 100), rng.randrange(1, 100)
        lo = rng.randrange(1, 10**5)
        hi = lo + rng.randrange(0, 40)
        x, D = 10.0 ** rng.uniform(2, 13), rng.uniform(1, 50)
        m, sign = rng.randrange(-5, 10), rng.choice((1, -1))
        chi3 = rng.choice((CHI4, CHI5))
        got = exp_sum(n1, n2, chi3, (lo, hi), x, D, m, sign)
        want = _exp_sum_oracle(n1, n2, chi3.conductor, lo, hi, x, D, m, sign)
        assert abs(got - want) <= (hi - lo + 1) * 2.0**-50


# Triples with 0, 1, 2 and 3 trivial slots, and with a repeated character.
SMALL_TILE_MULTISETS = ((-4, 5, -3), (1, 5, -3), (1, 1, -4), (1, 1, 1), (-4, -4, 5), (1, 8, 8))


@pytest.mark.parametrize("tile", [64, 256])
def test_triple_raw_sums_around_cubes_with_small_tiles(tile, monkeypatch):
    """y^3 - 1 has icbrt y - 1 and y^3, y^3 + 1 have y, so with small tiles a
    row block holds rows of different y and the per-row a <= y mask is used."""
    monkeypatch.setattr(delta, "TILE", tile)
    xs = [y**3 + e for y in range(2, 41) for e in (-1, 0, 1)]
    for discs in SMALL_TILE_MULTISETS:
        naive = naive_triple_raw_prefix(*map(make_character, discs), xs[-1])
        want = [int(naive[x]) for x in xs]
        for order in sorted(set(itertools.permutations(discs))):
            got = delta.triple_raw_sums(*map(make_character, order), xs)
            assert got.tolist() == want, (tile, order)


@pytest.mark.parametrize("x, d3", [(10**6, 106030594), (10**7, 1421760251)])
def test_quotient_entries_per_x(x, d3, monkeypatch):
    """One x computes each hyperbola row's isqrt(x // n) quotients M // a once,
    for the three pair sums and the middle term alike: under 2 x^(2/3) +
    2 x^(1/3) of them (the kernel with one tile per pair sum and per middle
    term computed about 6.8 x^(2/3)).  A tile is as wide as its widest row,
    and the rest of it is masked to 0, as M // a >= 1 for a <= isqrt(M).  The
    trivial triple keeps every row; d3 is its raw sum (see
    test_d3_summatory_pins)."""
    tiles = []
    orig = delta.floor_div

    def kept(*args):
        tiles.append(orig(*args))
        return tiles[-1]

    monkeypatch.setattr(delta, "floor_div", kept)
    assert triple_raw_sum(TRIV, TRIV, TRIV, x) == d3
    y = round(x ** (1 / 3))
    assert y**3 <= x < (y + 1) ** 3
    used = sum(math.isqrt(x // n) for n in range(1, y + 1))
    assert sum(np.count_nonzero(q) for q in tiles) == used <= 2 * x ** (2 / 3) + 2 * x ** (1 / 3)
    assert sum(q.size for q in tiles) < 2 * used


def test_triple_raw_sums_refuse_x_at_the_exactness_limit(monkeypatch):
    """A tile's float64 row sum is at most x (1 + ln TILE), at the trivial
    character, and every x < EXACT_X_LIMIT keeps that below 2^53.  Below the
    limit the kernel runs (here a stub); at or above it nothing runs."""
    limit = delta.EXACT_X_LIMIT
    growth = 1 + math.log(delta.TILE)
    assert (limit - 1) * growth < 2**53 <= (limit + 1) * growth
    ran = []
    monkeypatch.setattr(delta, "_hyperbola", lambda chis, N, y: ran.append(N.tolist()) or N)
    assert delta.triple_raw_sums(TRIV, TRIV, TRIV, [limit - 0.5]).tolist() == [limit - 1]
    assert ran == [[limit - 1]]
    for xs in ([limit], [10, float(limit)], [limit + 0.5, 3]):
        with pytest.raises(ValueError, match="exact"):
            delta.triple_raw_sums(TRIV, TRIV, CHI4, xs)
    with pytest.raises(ValueError, match="exact"):
        triple_delta(TRIV, TRIV, TRIV, limit, cap=10**15)
    assert ran == [[limit - 1]]
    with pytest.raises(ValueError, match="exact"):
        delta.pair_summatory(TRIV, TRIV, limit)
