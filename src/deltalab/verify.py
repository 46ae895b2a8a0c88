"""The invariant suite behind the verify-all command.

Every check is deterministic for a given seed: randomized checks draw from
random.Random(seed), floats print at 12 significant digits, and no timing
or timestamps enter the report, so identical configs produce byte-identical
output.

Checks marked gating decide the exit code.  Recorded-only lines report
exact comparisons whose truth is part of the record (both directions of the
exponent comparison, and the two remark pairs) without gating.

The acceptance suite (tests/test_acceptance.py) calls these check functions
at its own limits and seeds, so each invariant has this one implementation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional

import numpy as np

from . import characters as ch
from . import delta as dl
from . import exponents as ex
from . import feasibility as fs
from . import monomials as mo
from . import tables as tb

__all__ = ["CheckResult", "run_suite", "format_report", "QUICK_LIMITS", "FULL_LIMITS"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    gating: bool
    detail: str


QUICK_LIMITS = {
    "table_limit": 100_000,
    "delta_limit": 10_000,
    "gauss_m_cap": 40,
    "mult_pairs": 1_000,
    "lone_disc_bound": 200,
    "residual_xs": (10_000, 100_000),
    "psi_xs": (100_000,),
    "table_discs": (-4, 5, -8, 12, 13),
}

FULL_LIMITS = {
    "table_limit": 100_000,
    "delta_limit": 30_000,
    "gauss_m_cap": None,  # every coprime m in [1, q]
    "mult_pairs": 10_000,
    "lone_disc_bound": 500,
    "residual_xs": (10_000, 100_000, 1_000_000),
    "psi_xs": (100_000, 1_000_000),
    "table_discs": (-4, 5, -8, 12, 13),
}

_F = Fraction


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _check_exponent_recursion() -> CheckResult:
    t5 = ex.derive_tuple(5)
    want = (_F(139, 194), _F(13, 194), _F(163, 388), _F(31, 194), _F(745, 822), _F(215, 194), _F(21, 97))
    got = (t5.a, t5.b, t5.xi, t5.eta, t5.alpha, t5.gamma, t5.delta)
    if got != want:
        return CheckResult("exponent-recursion", False, True, f"order-5 mismatch: {got}")
    t = ex.base_tuple()
    for j in range(5, 51):
        tn = ex.step(t)
        if not (
            2 * (t.b + 1) * tn.b == t.b
            and 2 * (t.b + 1) * tn.eta == t.eta
            and 2 * (t.b + 1) * tn.delta == t.delta
            and tn.b < t.b
            and tn.alpha == ex.alpha_closed_form(j)
            and all(v > 0 for v in (tn.a, tn.b, tn.xi, tn.eta, tn.alpha, tn.gamma, tn.delta))
        ):
            return CheckResult("exponent-recursion", False, True, f"identity fails at order {j}")
        t = tn
    return CheckResult(
        "exponent-recursion", True, True,
        "order-5 constants exact; step identities and positivity hold to order 50",
    )


def _check_derivation() -> CheckResult:
    try:
        r = mo.derive_main_theorem()
    except mo.DerivationRegressionError as e:
        return CheckResult("derivation-pipeline", False, True, str(e))
    simp = mo.mono(D=_F(527, 1038), x=_F(511, 1038), eps=True)
    ok = r.simplified == simp and len(r.final) == 4 and r.n_choice == mo.mono(
        D=_F(55, 173), Dmax=_F(-291, 346), x=_F(181, 346)
    )
    return CheckResult(
        "derivation-pipeline", ok, True,
        "every intermediate matches its frozen exact value" if ok else "final stage mismatch",
    )


def _check_comparisons() -> List[CheckResult]:
    out = []
    x_new, x_old = mo.COMPARISON_PAIRS["x_exponent"]
    d_new, d_old = mo.COMPARISON_PAIRS["D_exponent"]
    ok1 = x_new < x_old
    ok2 = _F(4922, 10_000) < x_new < _F(4923, 10_000)
    out.append(
        CheckResult(
            "improvement-claim", ok1 and ok2, True,
            f"x-exponent {x_new} < {x_old} is {ok1}; 0.4922 < {x_new} < 0.4923 is {ok2}",
        )
    )
    out.append(
        CheckResult(
            "exponent-comparisons-recorded", True, False,
            f"x: {x_new} ~ {float(x_new):.6f} vs {x_old} ~ {float(x_old):.6f} (new smaller: {x_new < x_old}); "
            f"D: {d_new} ~ {float(d_new):.6f} vs {d_old} ~ {float(d_old):.6f} (new smaller: {d_new < d_old}); "
            "the D-exponent direction is the exact complement of the x-exponent one",
        )
    )
    a1, b1 = mo.COMPARISON_PAIRS["remark_39_77_vs_39_79"]
    a2, b2 = mo.COMPARISON_PAIRS["remark_2500_5077_vs_2498_5073"]
    out.append(
        CheckResult(
            "remark-pairs-recorded", True, False,
            f"{a1} ~ {float(a1):.6f} vs {b1} ~ {float(b1):.6f}; "
            f"{a2} ~ {float(a2):.6f} vs {b2} ~ {float(b2):.6f}",
        )
    )
    return out


def _check_characters(limits: dict, rng: random.Random) -> List[CheckResult]:
    discs = ch.fundamental_discriminants(200)
    m_cap = limits["gauss_m_cap"]
    worst_mag = 0.0
    worst_twist = 0.0
    for d in discs:
        chi = ch.make_character(d)
        q = chi.conductor
        g1 = ch.gauss_sum(1, chi)
        ms = [m for m in range(1, q + 1) if math.gcd(m, q) == 1]
        if m_cap is not None and len(ms) > m_cap:
            ms = ms[:m_cap]
        for m in ms:
            g = ch.gauss_sum(m, chi)
            worst_mag = max(worst_mag, abs(abs(g) - math.sqrt(q)))
            worst_twist = max(worst_twist, abs(g - chi(m) * g1))
    ok_g = worst_mag < 1e-9 and worst_twist < 1e-9
    r1 = CheckResult(
        "gauss-invariants", ok_g, True,
        f"|D|<=200: max ||G|-sqrt D| = {_fmt(worst_mag)}, max twist dev = {_fmt(worst_twist)}",
    )

    bad_orth = [d for d in discs if sum(ch.make_character(d)(a) for a in range(1, abs(d) + 1)) != 0]
    pairs = limits["mult_pairs"]
    bad_mult = 0
    for d in discs:
        chi = ch.make_character(d)
        for _ in range(pairs):
            m = rng.randrange(1, 10**6)
            n = rng.randrange(1, 10**6)
            if chi(m * n) != chi(m) * chi(n):
                bad_mult += 1
    r2 = CheckResult(
        "character-orthogonality-multiplicativity",
        not bad_orth and bad_mult == 0, True,
        f"orthogonality exact on {len(discs)} discriminants; "
        f"{pairs} random multiplicativity pairs per discriminant, {bad_mult} failures",
    )

    lbound = limits["lone_disc_bound"]
    lvals = [ch.l_one(ch.make_character(d)) for d in ch.fundamental_discriminants(lbound)]
    series_dev = max(
        abs(ch.l_one(ch.make_character(d)) - ch.l_one_series(ch.make_character(d)))
        for d in ch.fundamental_discriminants(200)
    )
    r3 = CheckResult(
        "l-values", min(lvals) > 0 and series_dev < 1e-9, True,
        f"L(1,chi) > 0 for |D| <= {lbound} (min {_fmt(min(lvals))}); "
        f"finite-formula vs series max dev {_fmt(series_dev)} on |D| <= 200",
    )
    g1em = ch.stieltjes_gamma1_euler_maclaurin()
    r4 = CheckResult(
        "stieltjes-constant", abs(g1em - ch.STIELTJES_GAMMA1) < 1e-12, True,
        f"Euler-Maclaurin gamma_1 = {_fmt(g1em)} vs literal {_fmt(ch.STIELTJES_GAMMA1)}",
    )
    return [r1, r2, r3, r4]


def _check_tables(limits: dict) -> CheckResult:
    N = limits["table_limit"]
    details = []
    for d in limits["table_discs"]:
        chi = ch.make_character(d)
        t = tb.sieve_tables(N, chi)
        try:
            rep = tb.verify_table_identities(t)
        except tb.IdentityCheckError as e:
            return CheckResult("convolution-identities", False, True, f"D={d}: {e}")
        details.append(f"D={d}: {rep.primes_checked} primes, float dev {_fmt(rep.max_float_deviation)}")
    return CheckResult(
        "convolution-identities", True, True,
        f"exact at the log-coefficient level to n = {N}; " + "; ".join(details),
    )


def _check_delta(limits: dict, rng: random.Random) -> List[CheckResult]:
    N = limits["delta_limit"]
    discs = (1, -4, 5)
    chis = {d: ch.make_character(d) for d in discs}
    spots = set(range(1, 31)) | {53, 97, 100, 541, 999, 1000, 5000, N}
    spots |= {rng.randrange(1, N + 1) for _ in range(20)}
    spot_x = sorted(x for x in spots if x <= N)
    out = []
    for d1 in discs:
        for d2 in discs:
            for d3 in discs:
                c1, c2, c3 = chis[d1], chis[d2], chis[d3]
                naive = dl.naive_triple_raw_prefix(c1, c2, c3, N)
                hyper = dl.hyperbola_raw_prefix(c1, c2, c3, N)
                if not np.array_equal(naive, hyper):
                    bad = int(np.flatnonzero(naive != hyper)[0])
                    return [CheckResult(
                        "delta-oracle", False, True,
                        f"triple ({d1},{d2},{d3}) differs first at x={bad}: "
                        f"naive {naive[bad]}, hyperbola {hyper[bad]}",
                    )]
                for x in spot_x:
                    if dl.triple_raw_sum(c1, c2, c3, x) != int(naive[x]):
                        return [CheckResult(
                            "delta-oracle", False, True,
                            f"production raw sum differs at triple ({d1},{d2},{d3}), x={x}",
                        )]
    out.append(CheckResult(
        "delta-oracle", True, True,
        f"27 triples over {{1,-4,5}}: naive == hyperbola for every x <= {N}; "
        f"x^(2/3) hyperbola production path spot-checked at {len(spot_x)} points per triple",
    ))
    triv = chis[1]
    d3_10 = dl.triple_raw_sum(triv, triv, triv, 10)
    out.append(CheckResult(
        "d3-spot-value", d3_10 == 53, True, f"sum of d_3(n) for n <= 10 = {d3_10} (expected 53)",
    ))
    s = dl.triple_delta(chis[-4], chis[5], chis[-4], 1000)
    out.append(CheckResult(
        "nontrivial-residue-zero", s.residue == 0.0 and s.delta == s.raw_sum, True,
        "three nontrivial characters: residue 0, delta = raw sum",
    ))
    return out


def _check_exp_sum() -> CheckResult:
    chi5 = ch.make_character(5)
    one = dl.exp_sum(3, 7, chi5, (1000, 1000), 1e6, 20.0, 2)
    ok1 = abs(abs(one) - 1.0) < 1e-12
    ok2 = True
    for lo, hi in ((100, 250), (1000, 2000)):
        e = dl.exp_sum(3, 7, chi5, (lo, hi), 1e6, 20.0, 2)
        if abs(e) > (hi - lo + 1) + 1e-9:
            ok2 = False
    return CheckResult(
        "exp-sum-invariants", ok1 and ok2, True,
        "single point has unit modulus; |E| <= interval length on spot ranges",
    )


def _check_residuals(limits: dict) -> CheckResult:
    chi = ch.make_character(-4)
    xs = limits["residual_xs"]
    t = tb.sieve_tables(max(xs), chi)
    worst = 0.0
    rows = []
    for f in ("lambda", "lambda_prime", "rho"):
        vals = []
        for x in xs:
            rep = tb.asymptotic_residual(t, f, x)
            worst = max(worst, abs(rep.normalized))
            vals.append(_fmt(rep.normalized))
        rows.append(f"{f}: " + ", ".join(vals))
    return CheckResult(
        "lemma41-consistency", worst < 10.0, True,
        f"normalized residuals at x in {tuple(int(v) for v in xs)}: " + "; ".join(rows),
    )


def _check_psi(limits: dict) -> List[CheckResult]:
    chi = ch.make_character(-4)
    out = []
    rep = tb.psi_counts(100, chi, 100, 10)
    dev = abs(rep.psi - math.log(97))
    out.append(CheckResult(
        "psi-window-97", dev < 1e-12, True,
        f"psi(100)-psi(90) = {_fmt(rep.psi)} vs log 97, dev {_fmt(dev)}",
    ))
    split_ok = True
    details = []
    for x in limits["psi_xs"]:
        r = tb.psi_counts(x, chi, x, x // 10)
        exact = r.psi == r.psi_star + r.psi_substar
        split_ok = split_ok and exact
        details.append(f"x={int(x)}: psi={_fmt(r.psi)} split exact={exact}")
    out.append(CheckResult("psi-split-identity", split_ok, True, "; ".join(details)))
    return out


def _check_feasibility(rng: random.Random) -> CheckResult:
    ok = (
        fs.check(fs.PAPER_THETA, fs.PAPER_R)
        and not fs.check(fs.PAPER_THETA, 429_672)
        and fs.minimal_r(fs.PAPER_THETA) == 429_673
        and fs.minimal_r(_F(1, 2)) == 391
        and fs.minimal_r(fs.C0) is None
    )
    mono_ok = True
    for _ in range(1000):
        theta = _F(rng.randrange(492294, 550000), 1_000_000)
        r = rng.randrange(1, 10**7)
        if fs.check(theta, r):
            if not fs.check(theta + _F(1, 10**6), r) or not fs.check(theta, r + 1):
                mono_ok = False
    return CheckResult(
        "feasibility", ok and mono_ok, True,
        "published (theta, r) holds; minimal r = 429673 (exact ceiling of 3007707/7); "
        "monotone on a 1000-point random grid",
    )


def run_suite(quick: bool = True, seed: int = 0, overrides: Optional[dict] = None) -> List[CheckResult]:
    limits = dict(QUICK_LIMITS if quick else FULL_LIMITS)
    if overrides:
        unknown = set(overrides) - set(limits)
        if unknown:
            raise ValueError(f"unknown limit overrides: {sorted(unknown)}")
        limits.update({k: v for k, v in overrides.items() if v is not None})
    for key in ("table_limit", "delta_limit"):
        if limits[key] < 1:
            raise ValueError(f"{key} must be >= 1, got {limits[key]}")
    rng = random.Random(seed)
    results: List[CheckResult] = []
    results.append(_check_exponent_recursion())
    results.append(_check_derivation())
    results.extend(_check_comparisons())
    results.extend(_check_characters(limits, rng))
    results.append(_check_tables(limits))
    results.extend(_check_delta(limits, rng))
    results.append(_check_exp_sum())
    results.append(_check_residuals(limits))
    results.extend(_check_psi(limits))
    results.append(_check_feasibility(rng))
    return results


def format_report(results: List[CheckResult], seed: int, quick: bool) -> str:
    lines = [f"# verify-all mode={'quick' if quick else 'full'} seed={seed}"]
    for r in results:
        mark = "ok " if r.ok else "FAIL"
        tag = "" if r.gating else " [recorded]"
        lines.append(f"[{mark}] {r.name}{tag}: {r.detail}")
    gating = [r for r in results if r.gating]
    passed = sum(1 for r in gating if r.ok)
    lines.append(f"# {passed}/{len(gating)} gating checks passed")
    return "\n".join(lines) + "\n"
