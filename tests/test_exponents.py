"""Exponent tests: frozen constants, exact step identities, an independent
sympy.Rational reimplementation of step, and the closed form of
derive_tuple against step, by induction and order by order."""

from fractions import Fraction as F

import pytest
import sympy
from sympy.polys.domains import GF

from deltalab import exponents
from deltalab.exponents import (
    MAX_ORDER,
    ExponentTuple,
    as_fraction,
    base_tuple,
    bound_eval,
    derive_tuple,
    step,
)
from deltalab.verify import _check_exponent_recursion

LEMMA2 = (F(139, 194), F(13, 194), F(163, 388), F(31, 194), F(745, 822), F(215, 194), F(21, 97))


def tuple_fields(t):
    return (t.a, t.b, t.xi, t.eta, t.alpha, t.gamma, t.delta)


def sympy_step(vals):
    """Independent reimplementation over sympy.Rational."""
    a, b, xi, eta, al, ga, de = vals
    d = 2 * (b + 1)
    return (
        (a + b + 1) / d,
        b / d,
        ((xi + 1) * (b + 1) - a * eta) / d,
        eta / d,
        (al + 1) / 2,
        (a * de + (b + 1) * (ga + 1)) / d,
        de / d,
    )


def test_base_tuple_values():
    t = base_tuple()
    assert tuple_fields(t) == (F(1, 2), F(13, 84), F(0), F(31, 84), F(334, 411), F(1), F(1, 2))
    assert t.order == 4
    assert t.eps_on == {"b", "eta"}
    assert t.xi == 0


def test_step_gives_order5_constants():
    assert tuple_fields(step(base_tuple())) == LEMMA2


def test_two_steps_independent_hand_values():
    t6 = step(step(base_tuple()))
    assert t6.a == F(173, 207)
    assert t6.b == F(13, 414)
    assert t6.alpha == F(1567, 1644)  # (745/822 + 1)/2


def test_matches_independent_sympy_route_to_order_12():
    ours = base_tuple()
    theirs = tuple(
        sympy.Rational(v.numerator, v.denominator) for v in tuple_fields(ours)
    )
    for _ in range(8):
        ours = step(ours)
        theirs = sympy_step(theirs)
        for mine, other in zip(tuple_fields(ours), theirs):
            assert mine.numerator == other.p and mine.denominator == other.q


def test_recursion_identities_exact_to_50():
    t = base_tuple()
    for j in range(5, 51):
        tn = step(t)
        assert 2 * (t.b + 1) * tn.b == t.b
        assert 2 * (t.b + 1) * tn.eta == t.eta
        assert 2 * (t.b + 1) * tn.delta == t.delta
        assert tn.b < t.b
        assert tn == derive_tuple(j)
        assert tn.order == j
        t = tn


def closed_form(k, u, xi_u=105):
    """The seven entries at order k + 4 with u = 2^k, restated from the
    formula: integer k and u as Fractions, or sympy symbols.  xi_u is xi's
    coefficient of u in its numerator, perturbable."""
    q = 110 * u - 26
    return (
        (110 * u - 68 - 13 * k) / q,
        13 / q,
        (110 * u**2 - xi_u * u - 31 * k * u - 5) / (q * u),
        31 / q,
        1 - 77 / (411 * u),
        (110 * u**2 - 68 * u + 42 * k * u + 42) / (q * u),
        42 / q,
    )


def test_closed_form_solves_step_by_induction():
    """closed(0) is the base tuple and step(closed(k)) = closed(k + 1) as
    rational functions of the symbols k and u = 2^k, so derive_tuple's
    closed form is the recursion at every order."""
    assert closed_form(F(0), F(1)) == tuple_fields(base_tuple())
    k, u = sympy.symbols("k u", positive=True)
    stepped = tuple_fields(step(ExponentTuple(4, *closed_form(k, u))))
    for mine, want in zip(stepped, closed_form(k + 1, 2 * u)):
        assert sympy.cancel(mine - want) == 0


def test_derive_tuple_is_the_restated_closed_form():
    for r in (4, 5, 6, 50, 399, MAX_ORDER):
        k = r - 4
        assert tuple_fields(derive_tuple(r)) == closed_form(F(k), F(2**k))


def test_derive_tuple_equals_the_recursion_to_399():
    t = base_tuple()
    for r in range(4, 400):
        assert derive_tuple(r) == t, r
        t = step(t)


def test_derive_tuple_equals_the_recursion_at_max_order_mod_a_prime():
    """The Fraction recursion to 7142 spends seconds in its gcds.  Over
    GF(2^61 - 1) step is the same map at microseconds a step (a denominator
    divisible by the prime would raise)."""
    K = GF(2**61 - 1)
    t = ExponentTuple(4, *(K(v.numerator) / K(v.denominator) for v in tuple_fields(base_tuple())))
    for _ in range(MAX_ORDER - 4):
        t = step(t)
    want = derive_tuple(MAX_ORDER)
    assert t.order == MAX_ORDER
    assert tuple_fields(t) == tuple(K(v.numerator) / K(v.denominator) for v in tuple_fields(want))


@pytest.mark.parametrize("from_order,detail", [
    (4, "order-5 mismatch"),
    (20, "closed form != step at order 20"),
])
def test_verify_catches_a_perturbed_closed_form(from_order, detail, monkeypatch):
    """xi's coefficient 105 -> 104 from some order on fails the gating check."""
    def perturbed(r):
        k = r - 4
        return ExponentTuple(r, *closed_form(F(k), F(2**k), 104 if r >= from_order else 105))

    monkeypatch.setattr(exponents, "derive_tuple", perturbed)
    res = _check_exponent_recursion()
    assert not res.ok and res.gating
    assert res.detail.startswith(detail)


def test_positivity_and_denominator_growth():
    prev_denom = 1
    for j in range(4, 51):
        t = derive_tuple(j)
        vals = tuple_fields(t)
        for name, v in zip("a b xi eta alpha gamma delta".split(), vals):
            if name == "xi" and j == 4:
                assert v == 0
            else:
                assert v > 0, (j, name, v)
        assert t.b.denominator >= prev_denom
        prev_denom = t.b.denominator
    assert derive_tuple(50).b.denominator > 10**12


def test_derive_tuple_dispatch():
    assert derive_tuple(4) == base_tuple()
    assert tuple_fields(derive_tuple(5)) == LEMMA2
    assert derive_tuple(6).alpha == (F(745, 822) + 1) / 2


def test_derive_tuple_domain_errors():
    with pytest.raises(ValueError):
        derive_tuple(3)
    with pytest.raises(ValueError):
        derive_tuple(MAX_ORDER + 1)
    with pytest.raises(ValueError):
        ExponentTuple(order=3, a=F(1), b=F(1), xi=F(0), eta=F(1), alpha=F(1), gamma=F(1), delta=F(1))


def test_eps_flags_propagate_to_b_eta_only():
    t = derive_tuple(30)
    assert t.eps_on == {"b", "eta"}


def test_bound_eval_at_unit_point():
    assert bound_eval(derive_tuple(5), 1, 1, 0.0) == 4.0
    assert bound_eval(base_tuple(), 1, 1, 0.0) == 4.0


def test_bound_eval_against_term_by_term_oracle():
    t = derive_tuple(5)
    M, T = 2.0**10, 2.0**20
    # independent term-by-term evaluation of the four powers
    expected = (
        M ** (139 / 194) * T ** (13 / 194)
        + M ** (163 / 388) * T ** (31 / 194)
        + M ** (745 / 822)
        + M ** (215 / 194) * T ** (-21 / 97)
    )
    assert bound_eval(t, M, T, 0.0) == pytest.approx(expected, rel=1e-13)


def test_bound_eval_eps_hits_flagged_terms_only():
    t = derive_tuple(5)
    M, T = 8.0, 64.0
    base = bound_eval(t, M, T, 0.0)
    with_eps = bound_eval(t, M, T, 0.01)
    # flagged terms scale by T^0.01, unflagged are unchanged
    t1 = M ** float(t.a) * T ** float(t.b)
    t2 = M ** float(t.xi) * T ** float(t.eta)
    boost = T**0.01
    assert with_eps == pytest.approx(base + (boost - 1) * (t1 + t2), rel=1e-12)


def test_bound_eval_validation():
    t = base_tuple()
    with pytest.raises(ValueError):
        bound_eval(t, 0.5, 1.0)
    with pytest.raises(ValueError):
        bound_eval(t, 1.0, 0.0)
    with pytest.raises(ValueError):
        bound_eval(t, 1.0, 1.0, -0.1)


def test_json_layout():
    d = derive_tuple(5).as_dict()
    assert d["a"] == "139/194"
    assert d["xi"] == "163/388"
    assert d["eps_on"] == ["b", "eta"]
    assert d["order"] == 5


@pytest.mark.parametrize("v", ["0.4923", "511/1038", "1e-3", " -2.5E+7 ", "1_000.5", ".5", "1e4299"])
def test_as_fraction_parses_decimals_as_fraction_does(v):
    assert as_fraction(v) == F(v)


@pytest.mark.parametrize("v", ["1e4300", "1e-4300", "1e10000000", "1e" + "9" * 5000,
                               "0." + "1" * 4300])
def test_as_fraction_rejects_more_digits_than_python_prints(v):
    with pytest.raises(ValueError, match="digits as an exact fraction"):
        as_fraction(v)
