"""Feasibility-condition tests: the published parameter point, exact
ceilings, monotonicity, and the hypothesis report."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltalab.feasibility import (
    C0,
    C1,
    LEAD,
    PAPER_R,
    PAPER_THETA,
    check,
    claim_report,
    minimal_r,
)


def test_constants():
    assert C0 == F(492293, 10**6)
    assert C1 == F(507707, 10**6)
    assert C0 + C1 == 1
    assert LEAD == F(5, 2)


def test_literals_imply_the_condition_at_the_derived_exponents():
    """C0 and C1 sit E = 67/519,000,000 either side of 511/1038 and
    527/1038, so the literal left side exceeds the derived one by
    E (1 - 1/r) >= 0, and the literal condition implies the derived one."""
    E = F(67, 519_000_000)
    assert C0 - F(511, 1038) == E
    assert C1 - F(527, 1038) == -E
    rng = random.Random(21)
    for r in [1, 2, PAPER_R] + [rng.randrange(1, 10**8) for _ in range(300)]:
        literal = LEAD / r + C0 + C1 / r
        derived = LEAD / r + F(511, 1038) + F(527, 1038) / r
        assert literal - derived == E * (1 - F(1, r)) >= 0
        theta = literal if r != PAPER_R else PAPER_THETA
        assert check(theta, r) and derived <= theta
        theta = F(rng.randrange(490_000, 510_000), 10**6)
        assert not check(theta, r) or derived <= theta


def test_published_point_holds():
    assert check(PAPER_THETA, PAPER_R) is True
    assert check(F(4923, 10**4), 429_672) is False
    assert check(F(4923, 10**4), 429_673) is True


def test_check_theta_at_c0_false():
    for r in (1, 10, 10**6, 10**9):
        assert check(C0, r) is False


def test_check_validation():
    with pytest.raises(ValueError):
        check(PAPER_THETA, 0)


def test_minimal_r_exact_ceilings():
    assert minimal_r(PAPER_THETA) == 429_673  # ceil(3007707/7)
    assert minimal_r(F(1, 2)) == 391  # ceil(3007707/7707)
    assert check(F(1, 2), 390) is False and check(F(1, 2), 391) is True
    assert minimal_r(C0) is None
    assert minimal_r(F(1, 3)) is None
    assert minimal_r(F(100)) == 1


def test_minimal_r_definition_property():
    rng_thetas = [
        F(492294, 10**6), F(4923, 10**4), F(4930, 10**4), F(1, 2),
        F(495, 1000), F(499999, 10**6), F(9, 10),
    ]
    for theta in rng_thetas:
        r = minimal_r(theta)
        assert r is not None
        assert check(theta, r)
        if r >= 2:
            assert not check(theta, r - 1)


@given(
    st.integers(min_value=492294, max_value=999999),
    st.integers(min_value=1, max_value=10**7),
)
@settings(max_examples=300)
def test_check_monotone(theta_millionths, r):
    theta = F(theta_millionths, 10**6)
    if check(theta, r):
        assert check(theta + F(1, 10**6), r)
        assert check(theta, r + 1)


def test_claim_report_alpha_range():
    r = claim_report(x=1e9, alpha=1, D=2.0, r=3)
    assert r.alpha_in_range is True
    r = claim_report(x=1e9, alpha=F(4922, 10**4), D=2.0, r=3)
    assert r.alpha_in_range is False
    r = claim_report(x=7.0, alpha=F(4923, 10**4), D=2.0, r=3)
    assert r.x_ge_D_pow_r is False  # 7 < 2^3
    r = claim_report(x=8.0, alpha=F(4923, 10**4), D=2.0, r=3)
    assert r.x_ge_D_pow_r is True


def test_claim_report_theta_and_y_range():
    rep = claim_report(x=1e30, alpha=PAPER_THETA, D=1.0001, r=PAPER_R)
    assert rep.theta_condition is True
    assert rep.y_value == pytest.approx(1e30 ** float(PAPER_THETA), rel=1e-9)
    # huge D kills the y-range condition
    rep = claim_report(x=1e12, alpha=PAPER_THETA, D=1e6, r=PAPER_R)
    assert rep.y_range_ok is False
    # the range condition's lower bound is D^(5/2) x^(c0 + c1/r)
    rep = claim_report(x=1e12, alpha=F(6, 10), D=10.0, r=10**6)
    want = 10.0**2.5 * 1e12 ** float(C0 + C1 / 10**6)
    assert rep.y_lower_bound == pytest.approx(want, rel=1e-12)


def test_claim_report_validation():
    with pytest.raises(ValueError):
        claim_report(x=0.0, alpha=1, D=2.0, r=3)
    with pytest.raises(ValueError):
        claim_report(x=10.0, alpha=1, D=2.0, r=0)
