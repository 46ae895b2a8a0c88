"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and enforcing its stated runtime budget (run with -s to see the lines).

Two sub-checks are implemented exactly as specified and marked
xfail(strict=True) because they are deterministically false on the
prescribed data; the analysis lives next to each marker.
"""

import math
import random
import subprocess
import sys
import time
from fractions import Fraction as F

import numpy as np
import pytest

from deltalab import (
    derive_main_theorem,
    make_character,
    psi_counts,
    sieve_tables,
    verify_table_identities,
)
from deltalab.characters import fundamental_discriminants, gauss_sum
from deltalab.delta import (
    exponent_fit,
    hyperbola_raw_prefix,
    naive_triple_raw_prefix,
    triple_raw_sum,
)
from deltalab.exponents import base_tuple, derive_tuple, step
from deltalab.feasibility import check as feas_check
from deltalab.feasibility import minimal_r
from deltalab.monomials import mono
from deltalab.tables import asymptotic_residual


def _report(n: int, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {n}: {status} ({elapsed:.2f}s / budget {budget:.0f}s) {detail}")
    assert ok, detail
    assert elapsed < budget, f"criterion {n} overran its budget: {elapsed:.2f}s"


def test_criterion_1_exponent_recursion():
    t0 = time.perf_counter()
    t5 = derive_tuple(5)
    want = (F(139, 194), F(13, 194), F(163, 388), F(31, 194),
            F(745, 822), F(215, 194), F(21, 97))
    ok = (t5.a, t5.b, t5.xi, t5.eta, t5.alpha, t5.gamma, t5.delta) == want
    t = base_tuple()
    for j in range(5, 51):
        tn = step(t)
        ok = ok and 2 * (t.b + 1) * tn.b == t.b
        ok = ok and 2 * (t.b + 1) * tn.eta == t.eta
        ok = ok and 2 * (t.b + 1) * tn.delta == t.delta
        t = tn
    _report(1, ok, "order-5 constants and step identities exact to order 50",
            time.perf_counter() - t0, 1.0)


def test_criterion_2_derivation_pipeline():
    t0 = time.perf_counter()
    r = derive_main_theorem()  # raises on any internal regression mismatch
    eq9_expected = [
        mono(Dmax="1/2", D="14/97", N3="-55/194", P="69/194", x="69/194", eps=True),
        mono(Dmax="1/2", D="11/97", N3="-225/388", P="75/194", x="75/194", eps=True),
        mono(Dmax="1/2", D="1/6", N3="-77/822", P="1/3", x="1/3"),
        mono(Dmax="1/2", D="139/582", N3="21/194", P="76/291", x="76/291"),
    ]
    eq10_expected = [
        mono(D="1/3", x="2/3", N="-1/3", eps=True),
        mono(Dmax="1/2", D="14/97", N="76/291", x="69/194", eps=True),
        mono(Dmax="1/2", D="11/97", N="75/388", x="75/194", eps=True),
        mono(Dmax="1/2", D="1/6", N="745/2466", x="1/3"),
        mono(Dmax="1/2", D="139/582", N="215/582", x="76/291"),
    ]
    final_expected = [
        mono(D="118/519", Dmax="97/346", x="511/1038", eps=True),
        mono(D="121/692", Dmax="467/1384", x="675/1384", eps=True),
        mono(D="56039/213309", Dmax="69941/284412", x="419257/853236"),
        mono(D="17936/50343", Dmax="131/692", x="91507/201372"),
    ]
    ok = list(r.after_lemma.terms[1:]) == eq9_expected
    ok = ok and list(r.eq10.terms) == eq10_expected
    ok = ok and r.n_choice == mono(D="55/173", Dmax="-291/346", x="181/346")
    ok = ok and list(r.final.terms) == final_expected
    ok = ok and r.simplified == mono(D="527/1038", x="511/1038", eps=True)
    _report(2, ok, "all derivation stages equal their exact targets",
            time.perf_counter() - t0, 1.0)


def test_criterion_3_improvement_claim():
    t0 = time.perf_counter()
    ok = F(511, 1038) < F(2498, 5073)
    ok = ok and F(4922, 10_000) < F(511, 1038) < F(4923, 10_000)
    _report(3, ok, "511/1038 < 2498/5073 exactly; 0.4922 < 511/1038 < 0.4923",
            time.perf_counter() - t0, 1.0)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "Stated sub-check is exactly false: 527/1038 = 1 - 511/1038 and "
        "2575/5073 = 1 - 2498/5073, so 511/1038 < 2498/5073 forces "
        "527/1038 > 2575/5073 (0.5077071... > 0.5075892...).  The underlying "
        "improvement is in the x exponent only; the source claims nothing "
        "about the D-exponent direction."
    ),
)
def test_criterion_3_d_exponent_comparison_as_specified():
    print("\nACCEPTANCE 3b: FAIL (documented: claim is exactly false; "
          "see xfail reason and decisions ledger)")
    assert F(527, 1038) < F(2575, 5073)


def test_criterion_4_character_gauss_invariants():
    t0 = time.perf_counter()
    rng = random.Random(0)
    worst_mag = worst_twist = 0.0
    for d in fundamental_discriminants(200):
        chi = make_character(d)
        q = chi.conductor
        g1 = gauss_sum(1, chi)
        for m in range(1, q + 1):
            if math.gcd(m, q) != 1:
                continue
            g = gauss_sum(m, chi)
            worst_mag = max(worst_mag, abs(abs(g) - math.sqrt(q)))
            worst_twist = max(worst_twist, abs(g - chi(m) * g1))
        assert sum(chi(a) for a in range(1, q + 1)) == 0, f"orthogonality D={d}"
        for _ in range(10_000):
            a, b = rng.randrange(1, 10**6), rng.randrange(1, 10**6)
            assert chi(a * b) == chi(a) * chi(b)
    ok = worst_mag < 1e-9 and worst_twist < 1e-9
    _report(4, ok,
            f"|D|<=200, all coprime m: max ||G|-sqrt D| = {worst_mag:.2e}, "
            f"max |G(m)-chi(m)G(1)| = {worst_twist:.2e}; orthogonality and "
            "multiplicativity exact",
            time.perf_counter() - t0, 30.0)


def test_criterion_5_convolution_identities():
    t0 = time.perf_counter()
    details = []
    for d in (-4, 5, -8, 12, 13):
        t = sieve_tables(10**5, make_character(d))
        rep = verify_table_identities(t)  # raises on any exact mismatch
        details.append(f"D={d} ok")
        assert bool(np.all(t.lam_prime >= -1e-9))
    _report(5, True,
            "lambda, nu, rho, lambda', Lambda identities and the lambda' "
            "inequality exact at the log-coefficient level for n <= 1e5: "
            + ", ".join(details),
            time.perf_counter() - t0, 60.0)


def test_criterion_6_delta_oracle_equivalence():
    t0 = time.perf_counter()
    N = 10**4
    discs = (1, -4, 5)
    chis = {d: make_character(d) for d in discs}
    rng = random.Random(1)
    spots = sorted(set(range(1, 31)) | {53, 97, 100, 541, 999, 1000, 5000, N}
                   | {rng.randrange(1, N + 1) for _ in range(20)})
    for d1 in discs:
        for d2 in discs:
            for d3 in discs:
                c1, c2, c3 = chis[d1], chis[d2], chis[d3]
                naive = naive_triple_raw_prefix(c1, c2, c3, N)
                hyper = hyperbola_raw_prefix(c1, c2, c3, N)
                assert np.array_equal(naive, hyper), f"triple ({d1},{d2},{d3})"
                for x in spots:
                    assert triple_raw_sum(c1, c2, c3, x) == int(naive[x]), \
                        f"hyperbola path at ({d1},{d2},{d3}), x={x}"
    assert triple_raw_sum(chis[1], chis[1], chis[1], 10) == 53
    _report(6, True,
            "27 triples: naive == hyperbola for every integer x <= 1e4 "
            f"(exact int64); x^(2/3) hyperbola production path equal at {len(spots)} "
            "spot values per triple; sum d3(n<=10) = 53",
            time.perf_counter() - t0, 60.0)


XS_CRIT7 = (10**4, 10**5, 10**6, 10**7)


@pytest.fixture(scope="module")
def residuals_1e7():
    t0 = time.perf_counter()
    chi = make_character(-4)
    t = sieve_tables(10**7, chi)
    out = {}
    for f in ("lambda", "lambda_prime", "rho"):
        out[f] = [asymptotic_residual(t, f, x) for x in XS_CRIT7]
    return out, time.perf_counter() - t0


def test_criterion_7_lemma41_consistency(residuals_1e7):
    residuals_1e7, build_seconds = residuals_1e7
    t0 = time.perf_counter() - build_seconds
    worst = 0.0
    for f in ("lambda", "lambda_prime", "rho"):
        for rep in residuals_1e7[f]:
            worst = max(worst, abs(rep.normalized))
    assert worst < 10.0, f"normalized residual reached {worst}"
    slopes = {}
    for f, limit in (("lambda_prime", 1 / 3 + 0.05), ("rho", 511 / 1038 + 0.05)):
        pts = [(float(x), abs(rep.residual))
               for x, rep in zip(XS_CRIT7, residuals_1e7[f])]
        slopes[f] = exponent_fit(pts).slope
        assert slopes[f] <= limit, f"{f} slope {slopes[f]:.3f} > {limit:.3f}"
    _report(7, True,
            f"normalized residuals < 10 for lambda, lambda', rho at x = 1e4..1e7 "
            f"(max {worst:.3f}); |residual| trend slopes within limits for "
            f"lambda' ({slopes['lambda_prime']:.3f} <= {1/3+0.05:.3f}) and "
            f"rho ({slopes['rho']:.3f} <= {511/1038+0.05:.3f}); the lambda "
            "slope sub-check as literally specified is covered by the "
            "documented xfail below",
            time.perf_counter() - t0, 300.0)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "Deterministically false on the prescribed grid: the lambda residual "
        "at x = 1e4 is 0.0184 (sum_{n<=1e4} lambda(n) = 7854 = (A-1)/4 with "
        "A = 31417 lattice points in the radius-100 circle, vs main term "
        "pi*1e4/4 = 7853.98 -- the circle-problem error at radius exactly 100 "
        "is anomalously tiny), so the 4-point log-log fit gives slope 0.94 "
        ">> 1/3 + 0.05 no matter how the residuals actually grow.  Dropping "
        "that one lucky point gives slope 0.21, well under the limit."
    ),
)
def test_criterion_7_lambda_trend_as_specified(residuals_1e7):
    pts = [(float(x), abs(rep.residual))
           for x, rep in zip(XS_CRIT7, residuals_1e7[0]["lambda"])]
    slope = exponent_fit(pts).slope
    print(f"\nACCEPTANCE 7b: FAIL (documented: lambda slope {slope:.3f} > "
          f"{1/3 + 0.05:.3f} because of the anomalously small x=1e4 residual; "
          "see xfail reason and decisions ledger)")
    assert slope <= 1 / 3 + 0.05


def test_criterion_8_feasibility_regression():
    t0 = time.perf_counter()
    ok = feas_check(F(4923, 10**4), 433433) is True
    ok = ok and feas_check(F(4923, 10**4), 429672) is False
    ok = ok and minimal_r(F(4923, 10**4)) == 429673
    rng = random.Random(2)
    for _ in range(1000):
        theta = F(rng.randrange(492294, 550000), 10**6)
        r = rng.randrange(1, 10**7)
        if feas_check(theta, r):
            ok = ok and feas_check(theta + F(1, 10**6), r) and feas_check(theta, r + 1)
    _report(8, ok,
            "check(0.4923, 433433) true; check(0.4923, 429672) false; "
            "minimal_r = 429673 = ceil(3007707/7); monotone on a 1000-point grid",
            time.perf_counter() - t0, 1.0)


def test_criterion_9_psi_split_identity():
    t0 = time.perf_counter()
    chi = make_character(-4)
    ok = True
    for x in (10**5, 10**6):
        rep = psi_counts(x, chi, x, x // 10)
        ok = ok and rep.psi == rep.psi_star + rep.psi_substar
    rep97 = psi_counts(100, chi, 100, 10)
    dev = abs(rep97.psi - math.log(97))
    ok = ok and dev < 1e-12
    _report(9, ok,
            f"psi = psi* + psi_* exactly at x = 1e5, 1e6 (cutoff D^2); "
            f"psi(100)-psi(90) = log 97 to {dev:.2e}",
            time.perf_counter() - t0, 60.0)


def test_criterion_10_determinism():
    t0 = time.perf_counter()
    cmd = [sys.executable, "-m", "deltalab.cli", "verify-all", "--quick", "--seed", "0"]
    first = subprocess.run(cmd, capture_output=True, timeout=280)
    second = subprocess.run(cmd, capture_output=True, timeout=280)
    ok = first.returncode == 0 and second.returncode == 0
    ok = ok and first.stdout == second.stdout and len(first.stdout) > 0
    _report(10, ok,
            "verify-all --quick twice with seed 0: exit 0 and byte-identical "
            f"reports ({len(first.stdout)} bytes)",
            time.perf_counter() - t0, 300.0)
