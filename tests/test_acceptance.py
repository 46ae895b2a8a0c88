"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and enforcing its stated runtime budget (run with -s to see the lines).

Criteria 1, 3, 4, 5, 6, 8 and 9 run verify-all's own check of their
invariant (deltalab.verify) at the stated limits and seed, and pass when
every result it returns is ok; the line printed is the check's detail.
Where a criterion states a literal that the check reads from a module
constant, the test pins the constant.  Criterion 2 pins every derivation
stage independently of monomials.py, criterion 7 fits residual trends on a
1e7 grid that verify-all does not reach, and criterion 10 compares a
verify-all subprocess with an in-process run.

Two sub-checks are implemented exactly as specified and marked
xfail(strict=True) because they are deterministically false on the
prescribed data; the analysis lives next to each marker.
"""

import io
import subprocess
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction as F

import numpy as np
import pytest

from deltalab import derive_main_theorem, make_character, sieve_tables, verify
from deltalab.cli import run
from deltalab.delta import exponent_fit
from deltalab.feasibility import PAPER_R, PAPER_THETA
from deltalab.monomials import COMPARISON_PAIRS, mono
from deltalab.tables import asymptotic_residual
from deltalab.verify import FULL_LIMITS, QUICK_LIMITS


def _report(n: int, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {n}: {status} ({elapsed:.2f}s / budget {budget:.0f}s) {detail}")
    assert ok, detail
    assert elapsed < budget, f"criterion {n} overran its budget: {elapsed:.2f}s"


def _run_check(n: int, budget: float, check, *args):
    """Run one verify-all check; every CheckResult it returns must be ok."""
    t0 = time.perf_counter()
    results = check(*args)
    if isinstance(results, verify.CheckResult):
        results = [results]
    _report(n, all(r.ok for r in results),
            "; ".join(f"{r.name}: {r.detail}" for r in results),
            time.perf_counter() - t0, budget)


def test_criterion_1_exponent_recursion():
    _run_check(1, 1.0, verify._check_exponent_recursion)


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
    assert COMPARISON_PAIRS["x_exponent"] == (F(511, 1038), F(2498, 5073))
    _run_check(3, 1.0, lambda: next(
        r for r in verify._check_comparisons() if r.name == "improvement-claim"))


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
    # every coprime m for |D| <= 200; 10,000 pairs from [1, 1e6) per D
    assert (FULL_LIMITS["gauss_m_cap"], FULL_LIMITS["mult_pairs"]) == (None, 10_000)
    _run_check(4, 30.0, verify._check_characters, FULL_LIMITS, np.random.default_rng(0))


def test_criterion_5_convolution_identities():
    # every identity, the lambda' inequality and the table's own lambda' >= 0
    assert QUICK_LIMITS["table_limit"] == 10**5
    assert verify.TABLE_DISCS == (-4, 5, -8, 12, 13)
    _run_check(5, 60.0, verify._check_tables, QUICK_LIMITS)


def test_criterion_6_delta_oracle_equivalence():
    # production path == convolution oracle at 90 fixed spot points up to
    # 1e4, every cube boundary among them, and 20 drawn ones (up to 110)
    assert QUICK_LIMITS["delta_limit"] == 10**4
    _run_check(6, 60.0, verify._check_delta, QUICK_LIMITS, np.random.default_rng(1))


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
    assert PAPER_THETA == F(4923, 10**4) and PAPER_R == 433433
    _run_check(8, 1.0, verify._check_feasibility, np.random.default_rng(2))


def test_criterion_9_psi_split_identity():
    # psi* (cutoff D^2) equals the window sum of the sieved Lambda*;
    # psi(100)-psi(90) = log 97
    assert FULL_LIMITS["psi_xs"] == (10**5, 10**6)
    _run_check(9, 60.0, verify._check_psi, FULL_LIMITS)


def test_criterion_10_determinism():
    """verify-all --quick --seed 0 in a child interpreter and in this one,
    run side by side: both exit 0 and print byte-identical reports."""
    t0 = time.perf_counter()
    argv = ["verify-all", "--quick", "--seed", "0"]
    with subprocess.Popen([sys.executable, "-m", "deltalab.cli", *argv],
                          stdout=subprocess.PIPE) as child:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = run(argv)
        child_out, _ = child.communicate(timeout=280)
    here = buf.getvalue().encode()
    ok = child.returncode == 0 and code == 0 and child_out == here and len(here) > 0
    _report(10, ok,
            "verify-all --quick with seed 0, in a subprocess and in-process: "
            f"exit 0 and byte-identical reports ({len(here)} bytes)",
            time.perf_counter() - t0, 300.0)
