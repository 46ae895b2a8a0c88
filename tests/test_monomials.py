"""Monomial algebra and derivation-pipeline tests.

Hypothesis drives the algebraic laws (congruence, homomorphism, balance
correctness); the pipeline stages are pinned to their frozen exact values.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltalab.monomials import (
    BalanceError,
    BoundExpr,
    CyclicSubstitutionError,
    IncomparableTermsError,
    Monomial,
    balance,
    derive_main_theorem,
    div,
    dominant_simplify,
    eliminate_bounded,
    evaluate,
    main_theorem_terms,
    mono,
    mul,
    simplified_main_bound,
    substitute,
)

fractions = st.fractions(min_value=-4, max_value=4)
symbols = st.sampled_from(["D", "Dmax", "x", "N", "P"])


@st.composite
def monomials(draw, syms=symbols):
    n = draw(st.integers(0, 4))
    exps = {draw(syms): draw(fractions) for _ in range(n)}
    return Monomial(exps, eps=draw(st.booleans()))


def test_mul_prefactor_example():
    left = mono(D="1/6", x="1/3")
    right = mono(P="1/3", Dmax="1/2")
    assert mul(left, right) == mono(D="1/6", Dmax="1/2", P="1/3", x="1/3")


def test_mul_identity_and_cancellation():
    m = mono(D="1/6", x="1/3", eps=True)
    assert mul(m, Monomial()) == m
    assert mul(mono(x="1/2"), mono(x="-1/2")) == Monomial()


@given(monomials(), monomials(), monomials())
@settings(max_examples=200)
def test_mul_associative_commutative(a, b, c):
    assert mul(a, b) == mul(b, a)
    assert mul(mul(a, b), c) == mul(a, mul(b, c))


def test_substitute_T_part_example():
    m = mono(T="13/194")
    repl = mono(D="-1/3", P="1/3", x="1/3")
    assert substitute(m, "T", repl) == mono(D="-13/582", P="13/582", x="13/582")


def test_substitute_zero_exponent_noop():
    m = mono(D="1/2")
    assert substitute(m, "T", mono(x=1)) == m


def test_substitute_n_choice_example():
    m = mono(N="-1/3")
    repl = mono(D="55/173", Dmax="-291/346", x="181/346")
    assert substitute(m, "N", repl) == mono(D="-55/519", Dmax="97/346", x="-181/1038")


def test_substitute_cyclic_error():
    with pytest.raises(CyclicSubstitutionError):
        substitute(mono(N=1), "N", mono(N="1/2", x=1))


@given(monomials(), monomials(), monomials())
@settings(max_examples=200)
def test_equality_is_congruence_for_mul(a, b, c):
    if a == b:
        assert mul(a, c) == mul(b, c)
    # exponent maps are cancellative (the eps OR is deliberately not)
    assert (mul(a, c).exponents == mul(b, c).exponents) == (a.exponents == b.exponents)


def test_eliminate_bounded_eq10_examples():
    lower, upper = mono(P="1/3"), mono(N=1)
    t1 = mono(D="14/97", N3="-55/194", P="69/194", x="69/194")
    e = eliminate_bounded(BoundExpr([t1]), "N3", lower, upper)
    e = eliminate_bounded(e, "P", None, mono(N=1))
    assert e.terms[0] == mono(D="14/97", N="76/291", x="69/194")

    t4 = mono(D="139/582", N3="21/194", P="76/291", x="76/291")
    e = eliminate_bounded(BoundExpr([t4]), "N3", lower, upper)
    assert e.terms[0] == mono(D="139/582", N="21/194", P="76/291", x="76/291")
    e = eliminate_bounded(e, "P", None, mono(N=1))
    assert e.terms[0] == mono(D="139/582", N="215/582", x="76/291")


def test_eliminate_bounded_zero_exponent_unchanged():
    t = mono(D="1/2", x="1/3")
    out = eliminate_bounded(BoundExpr([t]), "N3", mono(P="1/3"), mono(N=1))
    assert out.terms[0] == t


def test_eliminate_bounded_missing_bound_errors():
    with pytest.raises(ValueError):
        eliminate_bounded(BoundExpr([mono(N3="-1/2")]), "N3", None, mono(N=1))
    with pytest.raises(CyclicSubstitutionError):
        eliminate_bounded(BoundExpr([mono(N3="1/2")]), "N3", mono(P=1), mono(N3=1))


def test_eliminate_bounded_soundness_random():
    # every output term dominates its source under 1 <= P^(1/3) <= N3 <= N
    rng = random.Random(7)
    tail = mono(D="1/3", x="2/3", N="-1/3")
    terms = [
        mono(D="14/97", N3="-55/194", P="69/194", x="69/194"),
        mono(D="11/97", N3="-225/388", P="75/194", x="75/194"),
        mono(D="1/6", N3="-77/822", P="1/3", x="1/3"),
        mono(D="139/582", N3="21/194", P="76/291", x="76/291"),
        tail,
    ]
    stage1 = eliminate_bounded(BoundExpr(terms), "N3", mono(P="1/3"), mono(N=1))
    stage2 = eliminate_bounded(stage1, "P", None, mono(N=1))
    for _ in range(1000):
        D = rng.uniform(1, 50)
        x = rng.uniform(1, 10**6)
        N = rng.uniform(1, x)
        P = rng.uniform(1, N)
        N3 = rng.uniform(P ** (1 / 3), N)
        env = {"D": D, "x": x, "N": N, "P": P, "N3": N3}
        for src, out in zip(terms, stage1.terms):
            assert evaluate(out, env) >= evaluate(src, env) * (1 - 1e-12)
        for src, out in zip(stage1.terms, stage2.terms):
            assert evaluate(out, env) >= evaluate(src, env) * (1 - 1e-12)


def test_balance_paper_choice():
    tail = mono(D="1/3", x="2/3", N="-1/3", eps=True)
    lead = mono(Dmax="1/2", D="14/97", N="76/291", x="69/194", eps=True)
    got = balance(tail, lead, "N")
    assert got == mono(D="55/173", Dmax="-291/346", x="181/346")
    assert not got.eps  # a parameter choice carries no eps flag


def test_balance_equal_exponent_error():
    with pytest.raises(BalanceError):
        balance(mono(N=1), mono(N=1, x=1), "N")


def test_balance_hand_example():
    assert balance(mono(x=1, N=1), mono(x=3, N=-1), "N") == mono(x=1)


@given(monomials(syms=st.sampled_from(["D", "x", "P"])), monomials(syms=st.sampled_from(["D", "x", "P"])),
       st.fractions(min_value=-3, max_value=3), st.fractions(min_value=-3, max_value=3))
@settings(max_examples=200)
def test_balance_correctness_property(u1, u2, e1, e2):
    if e1 == e2:
        return
    t1 = mul(Monomial({"N": e1}), Monomial(u1.exponents))
    t2 = mul(Monomial({"N": e2}), Monomial(u2.exponents))
    sol = balance(t1, t2, "N")
    assert "N" not in sol.exponents
    lhs = substitute(t1, "N", sol)
    rhs = substitute(t2, "N", sol)
    assert lhs.exponents == rhs.exponents  # exact equality after substitution


def test_dominant_simplify_theorem_terms():
    got = dominant_simplify(main_theorem_terms())
    assert got == mono(D="527/1038", x="511/1038", eps=True)
    assert got == simplified_main_bound()


def test_dominant_simplify_single_term():
    t = mono(D="1/2", x="1/3")
    assert dominant_simplify(BoundExpr([t])) == t


def test_dominant_simplify_incomparable_reported():
    e = BoundExpr([mono(x=1), mono(D=2)])
    with pytest.raises(IncomparableTermsError) as exc:
        dominant_simplify(e)
    assert len(exc.value.pair) == 2
    with pytest.raises(ValueError, match="outside the chain"):
        dominant_simplify(BoundExpr([mono(x=1, N=1)]))


def test_dominant_simplify_output_dominates_numerically():
    rng = random.Random(11)
    expr = main_theorem_terms()
    top = dominant_simplify(expr)
    for _ in range(500):
        Dmax = rng.uniform(1, 100)
        D = rng.uniform(Dmax, 10**4)
        x = rng.uniform(D, 10**8)
        env = {"D": D, "Dmax": Dmax, "x": x}
        val = evaluate(top, env)
        for t in expr:
            assert val >= evaluate(t, env) * (1 - 1e-12)


def test_exponent_comparison_vs_other_simplified_pair():
    assert F(511, 1038) < F(2498, 5073)  # x exponent improves, exactly
    # and the D exponents are the exact complements
    assert F(511, 1038) + F(527, 1038) == 1
    assert F(2498, 5073) + F(2575, 5073) == 1


def test_evaluate_basics():
    m = mono(D="1/2", x="2/3")
    assert evaluate(m, {"D": 1.0, "x": 1.0}) == 1.0
    simp = simplified_main_bound()
    got = evaluate(simp, {"D": 1.0, "Dmax": 1.0, "x": 1e6})
    assert got == pytest.approx((1e6) ** (511 / 1038), rel=1e-13)
    with pytest.raises(ValueError):
        evaluate(m, {"D": 2.0})
    with pytest.raises(ValueError):
        evaluate(m, {"D": 0.5, "x": 2.0})


@given(monomials(), monomials())
@settings(max_examples=150)
def test_evaluate_mul_homomorphism(a, b):
    env = {s: 2.5 for s in ("D", "Dmax", "x", "N", "P")}
    va, vb = evaluate(a, env), evaluate(b, env)
    assert evaluate(mul(a, b), env) == pytest.approx(va * vb, rel=1e-9)


def test_bound_expr_merging_and_equality():
    a, b = mono(D=1), mono(x=1)
    assert BoundExpr([a, b, a]) == BoundExpr([b, a])
    assert len(BoundExpr([a, b, a])) == 2
    assert BoundExpr([a]) != BoundExpr([b])
    # eps distinguishes terms
    assert BoundExpr([mono(D=1)]) != BoundExpr([mono(D=1, eps=True)])


def test_div_keeps_left_flag():
    assert div(mono(x=1, eps=True), mono(x="1/2")) == mono(x="1/2", eps=True)


def test_derivation_pipeline_stages():
    r = derive_main_theorem()
    assert len(r.start) == 2
    tail = mono(D="1/3", x="2/3", N="-1/3", eps=True)
    assert tail in set(r.start.terms)

    assert r.after_lemma.terms[0] == tail
    assert r.after_lemma.terms[1] == mono(
        Dmax="1/2", D="14/97", N3="-55/194", P="69/194", x="69/194", eps=True)
    assert r.after_lemma.terms[2] == mono(
        Dmax="1/2", D="11/97", N3="-225/388", P="75/194", x="75/194", eps=True)
    assert r.after_lemma.terms[3] == mono(
        Dmax="1/2", D="1/6", N3="-77/822", P="1/3", x="1/3")
    assert r.after_lemma.terms[4] == mono(
        Dmax="1/2", D="139/582", N3="21/194", P="76/291", x="76/291")

    assert list(r.eq10.terms) == [
        tail,
        mono(Dmax="1/2", D="14/97", N="76/291", x="69/194", eps=True),
        mono(Dmax="1/2", D="11/97", N="75/388", x="75/194", eps=True),
        mono(Dmax="1/2", D="1/6", N="745/2466", x="1/3"),
        mono(Dmax="1/2", D="139/582", N="215/582", x="76/291"),
    ]

    assert r.n_choice == mono(D="55/173", Dmax="-291/346", x="181/346")

    assert list(r.final.terms) == [
        mono(D="118/519", Dmax="97/346", x="511/1038", eps=True),
        mono(D="121/692", Dmax="467/1384", x="675/1384", eps=True),
        mono(D="56039/213309", Dmax="69941/284412", x="419257/853236"),
        mono(D="17936/50343", Dmax="131/692", x="91507/201372"),
    ]
    assert r.simplified == mono(D="527/1038", x="511/1038", eps=True)


def test_derivation_merges_balanced_terms():
    # the truncation tail and the balanced first term coincide: 5 -> 4 terms
    r = derive_main_theorem()
    assert len(r.eq10) == 5
    assert len(r.final) == 4
