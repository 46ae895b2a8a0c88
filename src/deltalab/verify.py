"""The invariant suite behind the verify-all command.

Every check is deterministic for a given seed: each randomized check draws
from its own stream, seeded by the suite seed and the crc32 of the check's
name (_check_rng), so its draws do not depend on which checks ran before
it; floats print at 12 significant digits, and no timing or timestamps
enter the report, so identical configs produce byte-identical output.

Checks marked gating decide the exit code.  Recorded-only lines report
exact comparisons whose truth is part of the record (both directions of the
exponent comparison, and the two remark pairs) without gating.

The acceptance suite (tests/test_acceptance.py) calls these check functions
at its own limits and seeds, so each invariant has this one implementation.
"""

from __future__ import annotations

import itertools
import math
import zlib
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
from .sieves import TILE

__all__ = [
    "CheckResult", "run_suite", "format_report", "QUICK_LIMITS", "FULL_LIMITS", "TABLE_DISCS",
]


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
}

FULL_LIMITS = {
    "table_limit": 1_000_000,
    "delta_limit": 1_000_000,
    "gauss_m_cap": None,  # every coprime m in [1, q]
    "mult_pairs": 10_000,
    "lone_disc_bound": 500,
    "residual_xs": (10_000, 100_000, 1_000_000),
    "psi_xs": (100_000, 1_000_000),
}

#: The discriminants of the convolution-identities check, in both modes.
TABLE_DISCS = (-4, 5, -8, 12, 13)

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
        if tn != ex.derive_tuple(j):
            return CheckResult("exponent-recursion", False, True, f"closed form != step at order {j}")
        if not (tn.b < t.b and min(tn.a, tn.b, tn.xi, tn.eta, tn.alpha, tn.gamma, tn.delta) > 0):
            return CheckResult("exponent-recursion", False, True, f"decay or positivity fails at order {j}")
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


def _check_rng(seed: int, name: str) -> np.random.Generator:
    """The stream of the check named name under the suite seed: fixed by
    (seed, name) alone, whatever PYTHONHASHSEED is.  SeedSequence takes
    non-negative words only, so the seed's sign is a word of its own."""
    return np.random.default_rng([abs(seed), int(seed < 0), zlib.crc32(name.encode())])


def _gauss_deviations(chi: ch.RealCharacter, m_cap: Optional[int]):
    """max ||G(m)| - sqrt q| and max |G(m) - chi(m) G(1)| over the first
    m_cap m in [1, q] coprime to q (all when m_cap is None), with every G
    from one gauss_sums call.

    The twist deviation is 0 exactly, by construction: for m coprime to q,
    k -> km mod q permutes the residues, so G(m)'s terms chi(k) e(km/q) are
    chi(m) times G(1)'s floats in another order, and each fsum is correctly
    rounded whatever the order.  So that half tests the gather in
    gauss_sums (which root each term reads), not its arithmetic: a row of
    roots read one residue off, G(m) e(1/q), keeps |G(m)| = sqrt q, and
    only the twist sees it."""
    q = chi.conductor
    per = chi.period_array()
    ms = [m for m in range(1, q + 1) if math.gcd(m, q) == 1]
    if m_cap is not None and len(ms) > m_cap:
        ms = ms[:m_cap]
    g1, *gs = ch.gauss_sums([1] + ms, chi)
    sq = math.sqrt(q)
    worst_mag = worst_twist = 0.0
    for m, g in zip(ms, gs):
        worst_mag = max(worst_mag, abs(abs(g) - sq))
        worst_twist = max(worst_twist, abs(g - int(per[m % q]) * g1))
    return worst_mag, worst_twist


def _orthogonality_failures(discs: List[int]) -> List[int]:
    """The d whose character does not sum to 0 over 1..|d|: one
    kronecker_array call over every d, one np.add.reduceat."""
    sizes = np.abs(discs)
    ends = np.cumsum(sizes)
    n = np.arange(1, ends[-1] + 1) - np.repeat(ends - sizes, sizes)
    sums = np.add.reduceat(ch.kronecker_array(np.repeat(discs, sizes), n), ends - sizes)
    return [d for d, s in zip(discs, sums.tolist()) if s != 0]


def _multiplicativity_failures(discs: List[int], draws: np.ndarray) -> int:
    """How many of the pairs (m, n) = draws[i] give (d|mn) != (d|m)(d|n)
    for d = discs[i]: three kronecker_array calls per block of whole
    discriminants, at most TILE entries a block (one discriminant at least)."""
    rows = max(1, TILE // max(1, draws.shape[2]))
    bad = 0
    for lo in range(0, len(discs), rows):
        d = np.array(discs[lo : lo + rows])[:, None]
        m, n = draws[lo : lo + rows, 0], draws[lo : lo + rows, 1]
        prod = ch.kronecker_array(d, m) * ch.kronecker_array(d, n)
        bad += int(np.count_nonzero(ch.kronecker_array(d, m * n) != prod))
    return bad


def _check_characters(limits: dict, rng: np.random.Generator) -> List[CheckResult]:
    lbound = limits["lone_disc_bound"]
    chis = {d: ch.make_character(d) for d in ch.fundamental_discriminants(max(200, lbound))}
    discs = [d for d in chis if abs(d) <= 200]
    devs = [_gauss_deviations(chis[d], limits["gauss_m_cap"]) for d in discs]
    worst_mag = max(mag for mag, _ in devs)
    worst_twist = max(twist for _, twist in devs)
    ok_g = worst_mag < 1e-9 and worst_twist < 1e-9
    r1 = CheckResult(
        "gauss-invariants", ok_g, True,
        f"|D|<=200: max ||G|-sqrt D| = {_fmt(worst_mag)}, max twist dev = {_fmt(worst_twist)}",
    )

    bad_orth = _orthogonality_failures(discs)
    pairs = limits["mult_pairs"]
    bad_mult = _multiplicativity_failures(
        discs, rng.integers(1, 10**6, size=(len(discs), 2, pairs)))
    orth = (f"orthogonality fails for D in {bad_orth}" if bad_orth
            else f"orthogonality exact on {len(discs)} discriminants")
    r2 = CheckResult(
        "character-orthogonality-multiplicativity",
        not bad_orth and bad_mult == 0, True,
        f"{orth}; {pairs} random multiplicativity pairs per discriminant, {bad_mult} failures",
    )

    lvals = [ch.l_one(chi) for d, chi in chis.items() if abs(d) <= lbound]
    series = ch.l_one_series_batch([chis[d] for d in discs])
    series_dev = max(abs(ch.l_one(chis[d]) - s) for d, s in zip(discs, series))
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


def _check_tables(limits: dict, prebuilt: Optional[dict] = None) -> CheckResult:
    """convolution-identities over TABLE_DISCS at N =
    limits["table_limit"], with one chi_free_arrays(N) for them all.
    prebuilt maps a discriminant to its table at N; each is popped from it
    when its turn comes, so no table outlives its check."""
    N = limits["table_limit"]
    prebuilt = {} if prebuilt is None else prebuilt
    shared = tb.chi_free_arrays(N)
    details = []
    for d in TABLE_DISCS:
        t = prebuilt.pop(d) if d in prebuilt else tb.sieve_tables(N, ch.make_character(d))
        try:
            rep = tb.verify_table_identities(t, shared)
        except tb.IdentityCheckError as e:
            return CheckResult("convolution-identities", False, True, f"D={d}: {e}")
        del t  # freed before the next table is built
        details.append(f"D={d}: {rep.primes_checked} primes, float dev {_fmt(rep.max_float_deviation)}")
    return CheckResult(
        "convolution-identities", True, True,
        f"exact at the log-coefficient level to n = {N}; " + "; ".join(details),
    )


def _check_delta(limits: dict, rng: np.random.Generator) -> List[CheckResult]:
    N = limits["delta_limit"]
    discs = (1, -4, 5)
    chis = {d: ch.make_character(d) for d in discs}
    spots = set(range(1, 31)) | {53, 97, 100, 541, 999, 1000, 5000, N}
    spots |= set(rng.integers(1, N + 1, size=20).tolist())
    # icbrt(x), the production path's split point, steps at every cube
    spots |= {y**3 + e for y in range(1, round(N ** (1 / 3)) + 2) for e in (-1, 0, 1)}
    spot_x = sorted(x for x in spots if 1 <= x <= N)
    out = []
    # The raw sum is symmetric in its characters, so one oracle prefix per
    # multiset serves every ordering; production runs each ordering.  The
    # multisets come grouped by their first two characters, and each group
    # shares one chi1 * chi2 convolution: 16 convolutions for the 10.
    multisets = itertools.combinations_with_replacement(discs, 3)
    for (a, b), group in itertools.groupby(multisets, key=lambda t: t[:2]):
        thirds = [t[2] for t in group]
        prefixes = dl.naive_triple_raw_prefixes(chis[a], chis[b], [chis[d] for d in thirds], N)
        # map drops each prefix once its spots are read
        for c, want in zip(thirds, map(lambda p: p[spot_x].tolist(), prefixes)):
            for d1, d2, d3 in sorted(set(itertools.permutations((a, b, c)))):
                got = dl.triple_raw_sums(chis[d1], chis[d2], chis[d3], spot_x).tolist()
                for x, g, w in zip(spot_x, got, want):
                    if g != w:
                        return [CheckResult(
                            "delta-oracle", False, True,
                            f"triple ({d1},{d2},{d3}) differs at x={x}: "
                            f"production {g}, convolution oracle {w}",
                        )]
    out.append(CheckResult(
        "delta-oracle", True, True,
        f"27 triples over {{1,-4,5}}: x^(2/3) hyperbola production path equals "
        f"the convolution oracle cumsum(chi1*chi2*chi3) at {len(spot_x)} points "
        f"per triple up to x = {N}, every cube boundary y^3-1, y^3, y^3+1 included",
    ))
    triv = chis[1]
    d3_10 = dl.triple_raw_sum(triv, triv, triv, 10)
    out.append(CheckResult(
        "d3-spot-value", d3_10 == 53, True, f"sum of d_3(n) for n <= 10 = {d3_10} (expected 53)",
    ))
    s = dl.triple_delta(chis[-4], chis[5], chis[-4], 1000)
    fails = [f"residue {s.residue!r} != 0"] if s.residue != 0.0 else []
    if s.delta != s.raw_sum:
        fails.append(f"delta {s.delta!r} != raw sum {s.raw_sum!r}")
    out.append(CheckResult(
        "nontrivial-residue-zero", not fails, True,
        ("three nontrivial characters (-4,5,-4) at x=1000: " + "; ".join(fails)) if fails
        else "three nontrivial characters: residue 0, delta = raw sum",
    ))
    return out


#: exp-sum-invariants ranges, (n1, n2, D3, (lo, hi), x, D, m, sign), 50
#: terms each; the first has phases from 1.0e5 to 1.3e5 (x = 1e12).
_EXP_SUM_CASES = (
    (3, 7, 5, (35, 84), 1e12, 20.0, 2, 1),
    (3, 7, 5, (100, 149), 1e6, 20.0, 2, -1),
    (1, 1, -4, (1, 50), 1e4, 4.0, 1, 1),
)


def _exp_sum_oracle(n1, n2, q3, lo, hi, x, D, m, sign) -> complex:
    """exp_sum's defining sum at 30 digits in mpmath (x and D converted
    exactly); shares no code with exp_sum."""
    import mpmath as mp

    with mp.workdps(30):
        u = mp.mpf(n1 * n2) * mp.mpf(x) / mp.mpf(D)
        total = mp.mpc(0)
        for n3 in range(lo, hi + 1):
            total += mp.expjpi(2 * sign * (3 * mp.cbrt(u * n3) - mp.mpf(m * n3) / q3))
        return complex(total)


def _check_exp_sum() -> CheckResult:
    ok = True
    worst = 0.0
    length = 0
    for n1, n2, d3, (lo, hi), x, D, m, sign in _EXP_SUM_CASES:
        chi3 = ch.make_character(d3)
        e = dl.exp_sum(n1, n2, chi3, (lo, hi), x, D, m, sign)
        dev = abs(e - _exp_sum_oracle(n1, n2, chi3.conductor, lo, hi, x, D, m, sign))
        ok = ok and dev <= (hi - lo + 1) * 2.0**-50
        worst = max(worst, dev)
        length = max(length, hi - lo + 1)
    return CheckResult(
        "exp-sum-invariants", ok, True,
        f"exp_sum against a 30-digit mpmath oracle on {len(_EXP_SUM_CASES)} ranges of "
        f"<= {length} terms, x up to {_fmt(max(c[4] for c in _EXP_SUM_CASES))}: "
        f"max |E - oracle| = {_fmt(worst)}, "
        f"within length * 2^-50 on each range: {ok}",
    )


def _minus4_tables(keep: Optional[int] = None) -> Callable[[int], tb.FunctionTable]:
    """x -> sieve_tables(x, chi_-4).  The table at x = keep is built on its
    first call and held for the later ones, as long as the function is; a
    table at any other x is a new build that only its caller holds."""
    chi = ch.make_character(-4)
    held = {}

    def table_at(x: int) -> tb.FunctionTable:
        if x != keep:
            return tb.sieve_tables(x, chi)
        if x not in held:
            held[x] = tb.sieve_tables(x, chi)
        return held[x]

    return table_at


def _check_residuals(limits: dict, table_at=None) -> CheckResult:
    xs = limits["residual_xs"]
    t = (table_at or _minus4_tables())(max(xs))
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


def _check_psi(limits: dict, table_at=None) -> List[CheckResult]:
    table_at = table_at or _minus4_tables()
    chi = ch.make_character(-4)
    out = []
    rep = tb.psi_counts(100, chi, 100, 10)
    dev = abs(rep.psi - math.log(97))
    out.append(CheckResult(
        "psi-window-97", dev < 1e-12, True,
        f"psi(100)-psi(90) = {_fmt(rep.psi)} vs log 97, dev {_fmt(dev)}",
    ))
    oracle_ok = True
    details = []
    for x in limits["psi_xs"]:
        t = table_at(x)
        for y in (x // 10, x ** float(fs.PAPER_THETA)):  # y = x^0.4923
            r = tb.psi_counts(x, chi, x, y)
            window, window_err = _lambda_star_window(t, x, y)
            dev = abs(r.psi_star - window)
            tol = r.psi_star_err + window_err
            oracle_ok = oracle_ok and dev <= tol
            details.append(f"x={x}, y={_fmt(y)}: psi*={_fmt(r.psi_star)}, "
                           f"dev {_fmt(dev)} <= {_fmt(tol)}")
    out.append(CheckResult(
        "psi-star-oracle", oracle_ok, True,
        "psi* against the window sum of sieve_tables' Lambda* "
        "(tolerance psi_star_err + the sum's own rounding bound); " + "; ".join(details),
    ))
    return out


def _lambda_star_window(t: tb.FunctionTable, x: int, y: float):
    """The sum of t.Lam_star over (x - y, x], and a bound on its rounding.

    Lambda*(n) = sum_{m | n, m <= C} nu(m) lam'(n / m), and lam'(d) sums
    log(p) lam(d / p^k) over the prime powers p^k | d: sieves.convolve
    accumulates at most min(C, x) and log2(x) nonzero products, all of one
    sign for lam' (lam >= 0).  With u = 2^-53 and math.log correctly
    rounded, each entry is within (min(C, x) + log2(x) + 3) u A(n) of
    Lambda*(n), where A(n) = sum_{m | n, m <= C} |nu(m)| lam'(n / m), and
    the fsum adds u |sum| <= u A.  A summed over the window is one strided
    slice of lam' per m."""
    lo = math.floor(x - y)
    window = math.fsum(t.Lam_star[lo + 1 : x + 1].tolist())
    mass = math.fsum(
        abs(int(t.nu[m])) * float(t.lam_prime[lo // m + 1 : x // m + 1].sum())
        for m in range(1, min(t.cutoff, x) + 1)
    )
    return window, (min(t.cutoff, x) + x.bit_length() + 4) * 2.0**-53 * mass


def _check_feasibility(rng: np.random.Generator) -> CheckResult:
    theta = fs.PAPER_THETA
    fails = []
    if not fs.check(theta, fs.PAPER_R):
        fails.append(f"published (theta, r) = ({theta}, {fs.PAPER_R}) fails")
    if fs.check(theta, 429_672):
        fails.append(f"r = 429672 holds at theta = {theta}")
    for th, want in ((theta, 429_673), (_F(1, 2), 391), (fs.C0, None)):
        got = fs.minimal_r(th)
        if got != want:
            fails.append(f"minimal_r({th}) = {got}, expected {want}")
    grid = rng.integers((492294, 1), (550000, 10**7), size=(1000, 2)).tolist()
    for t, r in grid:
        th = _F(t, 1_000_000)
        if fs.check(th, r) and not (fs.check(th + _F(1, 10**6), r) and fs.check(th, r + 1)):
            fails.append(f"not monotone at (theta, r) = ({th}, {r})")
            break
    return CheckResult(
        "feasibility", not fails, True,
        "; ".join(fails) if fails else
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
    # the delta check's peak is its convolution oracle's
    for key, rate in (("table_limit", "verify_tables"), ("delta_limit", "convolution_oracle")):
        if limits[key] < 1:
            raise ValueError(f"{key} must be >= 1, got {limits[key]}")
        tb.check_memory_budget(f"{key} = {limits[key]}", limits[key], rate, key)
    results: List[CheckResult] = []
    results.append(_check_exponent_recursion())
    results.append(_check_derivation())
    results.extend(_check_comparisons())
    results.extend(_check_characters(
        limits, _check_rng(seed, "character-orthogonality-multiplicativity")))
    # lemma41-consistency and psi-star-oracle share sieve_tables(N, chi_-4)
    # at N = max residual x.  When the tables check runs at that N too, it
    # takes this table as its D = -4 one and drops it there, so no table is
    # built twice, the tables check holds one table at a time, and none is
    # alive during the delta check.  The psi check runs first, over its x
    # in order (ascending in both modes), so the chi-free skeleton that
    # sieve_tables holds for one limit moves to N once and is still there
    # for the tables check; its table at a smaller x goes once the one at N
    # is built.  The results keep their order.
    N = max(limits["residual_xs"])
    table_at = _minus4_tables(N)
    psi = _check_psi(limits, table_at)
    residuals = _check_residuals(limits, table_at)
    table = table_at(N)
    prebuilt = {-4: table} if table.limit == limits["table_limit"] else {}
    del table, table_at
    results.append(_check_tables(limits, prebuilt))
    results.extend(_check_delta(limits, _check_rng(seed, "delta-oracle")))
    results.append(_check_exp_sum())
    results.append(residuals)
    results.extend(psi)
    results.append(_check_feasibility(_check_rng(seed, "feasibility")))
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
