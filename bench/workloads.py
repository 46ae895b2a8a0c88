"""The four workloads: seeded op generation, execution and output checks.

An op list is a sequence of rounds.  Each round covers its workload's
stated input range by stratified sampling: the range of each size
parameter is cut into equal strata, every stratum gets one op, the seed
places that op near the middle of its stratum (within LADDER_JITTER of the
stratum's width) and the seed shuffles the round.  Every round therefore
carries nearly the same amount of work, and a figure taken over whole
rounds depends on the program rather than on the seed.  The run-to-run
spread the benchmark must stay within is a spread across seeds, which is
why the sizes form a jittered ladder and not independent draws.

Round i of workload w under seed s is drawn from random.Random("w/s/i")
and nothing else, so one seed always gives the same op list.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import re
from typing import Dict, List, Optional, Tuple

import reference

WORKLOADS = ("verify-quick", "delta-sweep", "tables-build", "psi-windows")

#: Rounds generated in set-up, far more than any run of at most 60 s uses.
MAX_ROUNDS = {"verify-quick": 8, "delta-sweep": 64, "tables-build": 32, "psi-windows": 64}

TABLE_N = 10**6
DELTA_LOG10_X = (6.0, 8.0)
DELTA_STRATA = 8
#: Slots holding the trivial character, per x stratum (smallest x first):
#: each slot is trivial in a quarter of the ops and zeta multiplicities 0-3
#: all occur in every round.  Round i shifts the layout by
#: DELTA_LAYOUT_STEP * i strata, so over eight rounds every x stratum
#: carries every multiplicity; the layout depends on the round index only,
#: so it does not move a round's cost from seed to seed.
DELTA_TRIVIAL_SLOTS = ((), (0, 1, 2), (), (2,), (0, 1), (), (), ())
#: Prime to DELTA_STRATA, and large enough that the second round already
#: puts zeta^3 in the top quarter of the x range.
DELTA_LAYOUT_STEP = 3
DELTA_DISC_BOUND = 200
TABLE_DISC_BOUND = 200
TABLE_STRATA = 4
PSI_LOG10_X = (7.0, 9.0)
PSI_EXPONENT = (0.5, 0.7)
PSI_DISC_BOUND = 30
PSI_CELLS = 9  # ops per round: |d| and the exponent get 9 strata, x gets 3

#: Width of the seeded jitter around each stratum's middle, as a share of
#: the stratum.
LADDER_JITTER = 0.25

#: Relative tolerance of float sums compared across summation orders.
FLOAT_RTOL = 1e-9

_GATING = re.compile(r"# (\d+)/(\d+) gating checks passed")

Op = Tuple  # (workload-specific parameters...)


def _round_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def _strata(lo: float, hi: float, k: int, rng: random.Random) -> List[float]:
    """One value near the middle of each of k equal strata of [lo, hi)."""
    return [lo + (hi - lo) * (i + 0.5 + LADDER_JITTER * (rng.random() - 0.5)) / k
            for i in range(k)]


def _nonzero_share(d: int) -> float:
    """phi(|d|)/|d|: the share of n with chi_d(n) != 0, which sets how many
    strided passes sieve_tables makes."""
    q, share, p = abs(d), 1.0, 2
    while p * p <= q:
        if q % p == 0:
            share *= 1 - 1 / p
            while q % p == 0:
                q //= p
        p += 1
    return share * (1 - 1 / q) if q > 1 else share


def _disc_pools(characters):
    """Discriminant pools, each in the order its strata are cut: delta and
    tables by the share of nonzero character values, psi by |d|."""
    def by_share(ds):
        return sorted(ds, key=lambda d: (_nonzero_share(d), abs(d), d))

    delta = by_share(characters.fundamental_discriminants(DELTA_DISC_BOUND))
    table = by_share(characters.fundamental_discriminants(TABLE_DISC_BOUND))
    psi = characters.fundamental_discriminants(PSI_DISC_BOUND)  # ascending |d|
    return delta, table, psi


def generate_round(workload: str, seed: int, index: int, pools) -> List[Op]:
    rng = _round_rng(workload, seed, index)
    delta_discs, table_discs, psi_discs = pools
    if workload == "verify-quick":
        return [(rng.randrange(2**31),)]
    if workload == "delta-sweep":
        # pair_summatory's cost follows the nonzero shares of chi1 and chi2,
        # so their ranks by that share are antithetic (r and n-1-r): each
        # slot is still uniform over the pool, but the op's cost at its x
        # hardly depends on the seed.  The trivial slots follow the fixed
        # layout DELTA_TRIVIAL_SLOTS, one pattern per x stratum, shifted
        # by the round index.
        ops = []
        n = len(delta_discs)
        shift = DELTA_LAYOUT_STEP * index
        layout = [DELTA_TRIVIAL_SLOTS[(j + shift) % DELTA_STRATA] for j in range(DELTA_STRATA)]
        for v, trivial in zip(_strata(*DELTA_LOG10_X, DELTA_STRATA, rng), layout):
            r = rng.randrange(n)
            ds = (delta_discs[r], delta_discs[n - 1 - r], rng.choice(delta_discs))
            ds = tuple(1 if i in trivial else d for i, d in enumerate(ds))
            ops.append(ds + (int(10**v),))
    elif workload == "tables-build":
        ops = [(table_discs[int(u)],) for u in _strata(0, len(table_discs), TABLE_STRATA, rng)]
    elif workload == "psi-windows":
        # psi_counts' cost grows like |d| sqrt(x).  Nine |d| strata, one per
        # op; x stratum j holds |d| strata j, j+3 and j+6, so every x
        # stratum gets a small, a middle and a large |d|.  The exponent's
        # nine strata are shuffled over the cells.
        exps = _strata(*PSI_EXPONENT, PSI_CELLS, rng)
        rng.shuffle(exps)
        ranks = _strata(0, len(psi_discs), PSI_CELLS, rng)
        xs = _strata(*PSI_LOG10_X, PSI_CELLS // 3, rng)
        ops = [(psi_discs[int(r)], 10 ** xs[i % 3], a) for i, (r, a) in enumerate(zip(ranks, exps))]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng.shuffle(ops)
    return ops


def generate(workload: str, seed: int, characters, rounds: Optional[int] = None) -> List[List[Op]]:
    """The op list of a run, as rounds."""
    n = MAX_ROUNDS[workload] if rounds is None else rounds
    pools = _disc_pools(characters)
    return [generate_round(workload, seed, i, pools) for i in range(n)]


def build_characters(workload: str, rounds: List[List[Op]], characters) -> Dict[int, object]:
    """Characters of every discriminant in the op list, period tables built."""
    if workload == "verify-quick":
        return {}
    width = 3 if workload == "delta-sweep" else 1
    chars = {}
    for d in sorted({d for r in rounds for op in r for d in op[:width]}):
        chi = characters.make_character(d)
        chi.period_array()
        chars[d] = chi
    return chars


# ---------------------------------------------------------------------------
# Execution.  ``execute`` is the timed op; ``digest`` runs right after it,
# untimed, and keeps only what the checks need, so large outputs such as a
# sieve table are freed before the next op.
# ---------------------------------------------------------------------------


def execute(workload: str, op: Op, chars, dl):
    """Run one op through deltalab's public API (``dl`` is the package)."""
    if workload == "verify-quick":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = dl.cli.run(["verify-all", "--quick", "--seed", str(op[0])])
        return rc, buf.getvalue()
    if workload == "delta-sweep":
        d1, d2, d3, x = op
        return dl.delta.triple_delta(chars[d1], chars[d2], chars[d3], x)
    if workload == "tables-build":
        t = dl.tables.sieve_tables(TABLE_N, chars[op[0]])
        sums = {f: dl.tables.divisor_sum(t, f, TABLE_N) for f in ("lambda", "lambda_prime", "rho")}
        resid = {f: dl.tables.asymptotic_residual(t, f, TABLE_N) for f in sums}
        return t, sums, resid
    d, x, a = op
    return dl.tables.psi_counts(math.ceil(x), chars[d], x, x**a)


def digest(workload: str, out, dl):
    if workload == "verify-quick":
        rc, text = out
        lines = text.rstrip("\n").splitlines()
        return rc, lines[-1] if lines else ""
    if workload == "tables-build":
        t, sums, resid = out
        return sums, resid, dl.tables.divisor_sum(t, "Lambda", TABLE_N)
    return out


def check(workload: str, op: Op, result, chars, dl) -> Optional[str]:
    """None when the op's output is right, else what is wrong."""
    if workload == "verify-quick":
        rc, last = result
        m = _GATING.fullmatch(last)
        if rc != 0 or not m or m.group(1) != m.group(2):
            return f"verify-all seed {op[0]}: exit {rc}, last line {last!r}"
        return None
    if workload == "delta-sweep":
        d1, d2, d3, x = op
        s = result
        ref = reference.triple_raw_sum(*(chars[d].period_array() for d in (d1, d2, d3)), x)
        if s.raw_sum != ref:
            return f"{op}: raw_sum {s.raw_sum} != reference {ref}"
        if s.delta != s.raw_sum - s.residue:
            return f"{op}: delta {s.delta} != raw_sum - residue"
        if not (math.isfinite(s.bound_value) and s.bound_value > 0):
            return f"{op}: bound_value {s.bound_value} is not finite and positive"
        return None
    if workload == "tables-build":
        sums, resid, psi_table = result
        chi = chars[op[0]]
        per, N = chi.period_array(), TABLE_N
        lam_ref = reference.lambda_sum(per, N)
        if sums["lambda"] != lam_ref:
            return f"{op}: sum lambda {sums['lambda']} != blocks {lam_ref}"
        rho_ref = reference.rho_sum(per, N)
        if sums["rho"] != rho_ref:
            return f"{op}: sum rho {sums['rho']} != blocks {rho_ref}"
        lamp_ref = dl.tables.lam_prime_summatory(chi, N)
        if not math.isclose(sums["lambda_prime"], lamp_ref, rel_tol=FLOAT_RTOL):
            return f"{op}: sum lambda' {sums['lambda_prime']} != summatory {lamp_ref}"
        psi_ref = dl.sieves.von_mangoldt_window(0, N)[0]
        if not math.isclose(psi_table, psi_ref, rel_tol=FLOAT_RTOL):
            return f"{op}: psi(N) {psi_table} != window sieve {psi_ref}"
        if not all(math.isfinite(r.main) and math.isfinite(r.residual) for r in resid.values()):
            return f"{op}: non-finite asymptotic residual"
        return None
    d, x, a = op
    r = result
    pi_ref, psi_ref = reference.prime_window(math.floor(x - x**a), math.floor(x))
    if r.pi_count != pi_ref:
        return f"{op}: pi_count {r.pi_count} != window sieve {pi_ref}"
    # psi is reassembled as psi_star + (psi_sieve - psi_star): one rounding
    # at the scale of |psi_star|.
    tol = FLOAT_RTOL * (abs(psi_ref) + abs(r.psi_star) + 1.0)
    if abs(r.psi - psi_ref) > tol:
        return f"{op}: psi {r.psi} != window sieve {psi_ref}"
    if r.psi != r.psi_star + r.psi_substar:
        return f"{op}: psi != psi_star + psi_substar"
    return None
