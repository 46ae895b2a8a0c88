"""verify-all's checks can fail, and their seeded draws are fixed by the
seed and the check alone."""

import cmath
import dataclasses
import io
import math
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from deltalab import characters, delta, feasibility, tables, verify
from deltalab.cli import run
from deltalab.verify import QUICK_LIMITS

DATA = Path(__file__).resolve().parent / "data"

SMALL = {"table_limit": 1000, "delta_limit": 1000, "mult_pairs": 10,
         "residual_xs": (1000,), "psi_xs": (1000,)}


def _lines(results):
    return {r.name: r.detail for r in results}


def test_check_draws_do_not_depend_on_earlier_checks(monkeypatch):
    full = _lines(verify.run_suite(quick=True, seed=7, overrides=SMALL))
    monkeypatch.setattr(verify, "_check_characters", lambda limits, rng: [])
    alone = _lines(verify.run_suite(quick=True, seed=7, overrides=SMALL))
    assert "character-orthogonality-multiplicativity" not in alone
    assert {k: v for k, v in full.items() if k in alone} == alone
    assert alone["feasibility"] == full["feasibility"]


def test_verify_all_bytes_do_not_depend_on_hash_seed():
    argv = [sys.executable, "-m", "deltalab.cli", "verify-all", "--quick", "--seed", "7"]
    children = [subprocess.Popen(argv, stdout=subprocess.PIPE,
                                 env=dict(os.environ, PYTHONHASHSEED=hash_seed))
                for hash_seed in ("1", "2")]
    outs = [child.communicate(timeout=280)[0] for child in children]
    assert [child.returncode for child in children] == [0, 0]
    assert outs[0] == outs[1]
    assert outs[0].decode().endswith("# 16/16 gating checks passed\n")


def test_check_rng_streams():
    a = verify._check_rng(7, "feasibility").integers(0, 2**62, size=4)
    assert np.array_equal(a, verify._check_rng(7, "feasibility").integers(0, 2**62, size=4))
    assert not np.array_equal(a, verify._check_rng(7, "delta-oracle").integers(0, 2**62, size=4))
    assert not np.array_equal(a, verify._check_rng(-7, "feasibility").integers(0, 2**62, size=4))


def test_delta_check_names_the_triple_and_x_when_off_by_one(monkeypatch):
    orig = delta.triple_raw_sums

    def off_by_one(c1, c2, c3, xs):
        out = orig(c1, c2, c3, xs)
        if (c1.discriminant, c2.discriminant, c3.discriminant) == (-4, 5, 1):
            out[list(xs).index(541)] += 1
        return out

    monkeypatch.setattr(delta, "triple_raw_sums", off_by_one)
    limits = dict(QUICK_LIMITS, delta_limit=2000)
    [r] = verify._check_delta(limits, np.random.default_rng(0))
    assert r.name == "delta-oracle" and r.gating and not r.ok
    assert "triple (-4,5,1) differs at x=541" in r.detail


def test_exp_sum_check_passes():
    r = verify._check_exp_sum()
    assert r.ok and r.gating, r.detail


def test_exp_sum_check_fails_on_one_phase_off_by_1e9(monkeypatch):
    orig = delta.exp_sum

    def perturbed(n1, n2, chi3, n3_range, x, D, m, sign=1):
        lo = n3_range[0]
        first = orig(n1, n2, chi3, (lo, lo), x, D, m, sign)
        shift = cmath.exp(2j * math.pi * sign * 1e-9) - 1
        return orig(n1, n2, chi3, n3_range, x, D, m, sign) + first * shift

    monkeypatch.setattr(delta, "exp_sum", perturbed)
    r = verify._check_exp_sum()
    assert r.gating and not r.ok, r.detail


@pytest.mark.parametrize("seed", [0, 7])
def test_verify_all_quick_report_matches_its_golden_file(seed):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert run(["verify-all", "--quick", "--seed", str(seed)]) == 0
    assert buf.getvalue() == (DATA / f"verify_all_quick_seed{seed}.txt").read_text()


def test_quick_suite_builds_the_minus4_table_once(monkeypatch):
    orig = tables.sieve_tables
    builds = []

    def counted(N, chi, cutoff=None):
        builds.append((N, chi.discriminant))
        return orig(N, chi, cutoff)

    monkeypatch.setattr(tables, "sieve_tables", counted)
    results = verify.run_suite(quick=True, seed=0)
    assert all(r.ok for r in results)
    assert sorted(builds) == sorted((10**5, d) for d in verify.TABLE_DISCS)


CHARACTER_LIMITS = dict(QUICK_LIMITS, mult_pairs=10)


def test_gauss_check_fails_on_a_perturbed_unit_root(monkeypatch):
    orig = characters._unit_roots

    def perturbed(q):
        z = orig(q).copy()
        if q == 5:
            z[2] *= cmath.exp(1e-6j)
        return z

    monkeypatch.setattr(characters, "_unit_roots", perturbed)
    r = verify._check_characters(CHARACTER_LIMITS, np.random.default_rng(0))[0]
    assert r.name == "gauss-invariants" and r.gating and not r.ok, r.detail


def test_gauss_check_fails_on_a_gather_one_residue_off(monkeypatch):
    """gauss_sums with G(m), m > 1, rotated by e(1/q), as if each term read
    the root one residue on.  |G(m)| stays sqrt q, so the magnitude half
    passes and only the twist half, exact by construction, sees it."""
    orig = characters.gauss_sums

    def rotated(ms, chi):
        ms = list(ms)
        turn = cmath.exp(2j * math.pi / chi.conductor)
        for m, g in zip(ms, orig(ms, chi)):
            yield g * turn if m > 1 else g

    monkeypatch.setattr(characters, "gauss_sums", rotated)
    r = verify._check_characters(CHARACTER_LIMITS, np.random.default_rng(0))[0]
    assert r.name == "gauss-invariants" and r.gating and not r.ok, r.detail
    mag, twist = map(float, re.search(r"= (\S+), max twist dev = (\S+)$", r.detail).groups())
    assert mag < 1e-9 < twist, r.detail


def test_suite_builds_one_skeleton_per_limit(monkeypatch):
    """The psi check's table below the shared N is built before it, as in
    full mode (psi x = 1e5 and 1e6, tables at 1e6), so the held chi-free
    skeleton moves to N once and the tables check at N finds it there."""
    orig = tables._build_skeleton
    calls = []

    def counted(N):
        calls.append(N)
        return orig(N)

    monkeypatch.setattr(tables, "_build_skeleton", counted)
    monkeypatch.setattr(tables, "_SKELETON", None)
    limits = dict(SMALL, table_limit=10_000, residual_xs=(1000, 10_000), psi_xs=(1000, 10_000))
    assert all(r.ok for r in verify.run_suite(quick=True, seed=0, overrides=limits))
    assert calls == [1000, 10_000]


def test_residue_zero_failure_names_the_residue(monkeypatch):
    orig = delta.triple_delta

    def with_residue(*args, **kwargs):
        s = orig(*args, **kwargs)
        return dataclasses.replace(s, residue=0.5, delta=s.raw_sum - 0.5)

    monkeypatch.setattr(delta, "triple_delta", with_residue)
    r = verify._check_delta(dict(QUICK_LIMITS, delta_limit=1000), np.random.default_rng(0))[-1]
    assert r.name == "nontrivial-residue-zero" and r.gating and not r.ok
    assert "residue 0.5 != 0" in r.detail and "residue 0, delta" not in r.detail, r.detail


def test_feasibility_failure_names_the_condition(monkeypatch):
    orig = feasibility.minimal_r
    monkeypatch.setattr(feasibility, "minimal_r",
                        lambda theta: orig(theta) + 1 if theta == Fraction(1, 2) else orig(theta))
    r = verify._check_feasibility(np.random.default_rng(0))
    assert r.name == "feasibility" and r.gating and not r.ok
    assert r.detail == "minimal_r(1/2) = 392, expected 391"
