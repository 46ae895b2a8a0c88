"""CLI contract tests: subcommand outputs, exit codes, config files, and
the output-directory environment override.  All in-process via cli.run."""

import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import deltalab.characters
import deltalab.cli
import deltalab.tables
from deltalab.characters import gauss_sum, kronecker, make_character
from deltalab.cli import build_parser, count, finite, run
from deltalab.exponents import MAX_ORDER
from deltalab.tables import sieve_tables


def out_of(capsys):
    return capsys.readouterr().out


def test_tuple_json(capsys):
    assert run(["tuple", "--order", "5", "--json"]) == 0
    d = json.loads(out_of(capsys))
    assert d["a"] == "139/194"
    assert d["b"] == "13/194"
    assert d["eps_on"] == ["b", "eta"]


def test_tuple_text_and_eval(capsys):
    assert run(["tuple", "--order", "4", "--eval-M", "1", "--eval-T", "1"]) == 0
    text = out_of(capsys)
    assert "a = 1/2" in text
    assert "b = 13/84 (+eps)" in text
    assert "bound(1.0, 1.0) = 4" in text


def test_tuple_validation_exit_code(capsys):
    assert run(["tuple", "--order", "3"]) == 1


def test_tuple_prints_every_order_it_accepts(capsys):
    """MAX_ORDER is the largest order whose exponents convert to str under
    Python's default 4300-digit limit; one order more is rejected up front."""
    assert MAX_ORDER == 7142
    for extra in ([], ["--json"]):
        assert run(["tuple", "--order", str(MAX_ORDER), *extra]) == 0
        out = out_of(capsys)
        assert len(out) > 32_000 and f"{MAX_ORDER}" in out
        assert run(["tuple", "--order", str(MAX_ORDER + 1), *extra]) == 1
        out, err = capsys.readouterr()
        assert out == "" and f"exceeds cap {MAX_ORDER}" in err


def test_unknown_subcommand_exit_code(capsys):
    assert run(["frobnicate"]) == 1


def test_derive_text(capsys):
    assert run(["derive"]) == 0
    text = out_of(capsys)
    assert "n_choice: D^(55/173)*Dmax^(-291/346)*x^(181/346)" in text
    assert "simplified: D^(527/1038)*x^(511/1038)*x^eps" in text


def test_derive_json(capsys):
    assert run(["derive", "--json"]) == 0
    d = json.loads(out_of(capsys))
    assert len(d["pipeline"]["final"]) == 4
    assert d["pipeline"]["simplified"] == "D^(527/1038)*x^(511/1038)*x^eps"


def test_compare_explicit(capsys):
    assert run(["compare", "--ours", "511/1038", "--theirs", "2498/5073"]) == 0
    text = out_of(capsys)
    assert "511/1038 < 2498/5073 (exact)" in text
    assert "0.492293 vs 0.492411" in text


def test_compare_default_records_both_pairs(capsys):
    assert run(["compare"]) == 0
    text = out_of(capsys)
    assert "x_exponent: 511/1038 < 2498/5073" in text
    assert "D_exponent: 527/1038 > 2575/5073" in text
    assert "remark_39_77_vs_39_79" in text
    assert "remark_2500_5077_vs_2498_5073" in text


def test_character_table(capsys):
    assert run(["character", "--disc", "-4", "--table", "8"]) == 0
    assert "1 0 -1 0 1 0 -1 0" in out_of(capsys)


@pytest.mark.parametrize("d", [-4, 5, -163])
def test_character_table_matches_the_scalar_character(capsys, d):
    chi = make_character(d)
    values = {k: kronecker(d, k) for k in range(1, 1001)}
    assert run(["character", "--disc", str(d), "--table", "1000", "--json"]) == 0
    assert out_of(capsys) == json.dumps({"discriminant": d, "conductor": chi.conductor,
                                         "parity": chi.parity, "values": values}, indent=2) + "\n"
    assert run(["character", "--disc", str(d), "--table", "1000"]) == 0
    assert out_of(capsys).splitlines()[1:] == [
        f"character: {chi}",
        "n: " + " ".join(map(str, values)),
        "chi: " + " ".join(map(str, values.values())),
    ]


def test_character_invalid_disc(capsys):
    assert run(["character", "--disc", "9"]) == 1


@pytest.mark.parametrize("table", ["-5", "0", "2.7"])
def test_character_table_below_one_or_fractional_rejected(table, capsys):
    for extra in ([], ["--json"]):
        assert run(["character", "--disc", "-4", "--table", table, *extra]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "error: " in err and "Traceback" not in err


def test_gauss_range(capsys):
    assert run(["gauss", "--disc", "5", "--m", "1..3", "--json"]) == 0
    d = json.loads(out_of(capsys))
    assert [row["m"] for row in d["values"]] == [1, 2, 3]
    assert float(d["values"][0]["abs"]) == pytest.approx(5**0.5, rel=1e-9)


def test_gauss_reversed_range_is_an_error(capsys):
    assert run(["gauss", "--disc", "5", "--m", "5..1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --m 5..1: empty range [5, 1]\n"


@pytest.mark.parametrize("d", [5, -163, 1429])
def test_gauss_batched_output_matches_the_per_m_path(d, monkeypatch, capsys):
    """1429 > 2^14 / 300: gauss_sums takes its 300 m in several tiles."""
    argv = ["gauss", "--disc", str(d), "--m", "1..300"]
    got = []
    for extra in ([], ["--json"]):
        assert run([*argv, *extra]) == 0
        got.append(out_of(capsys))
    monkeypatch.setattr(deltalab.cli, "gauss_sums",
                        lambda ms, chi: [gauss_sum(m, chi) for m in ms])
    for extra, text in zip(([], ["--json"]), got):
        assert run([*argv, *extra]) == 0
        assert out_of(capsys) == text


def test_lfunction(capsys):
    assert run(["lfunction", "--disc", "-4", "--derivative"]) == 0
    text = out_of(capsys)
    assert "L(1) = 0.785398163397" in text
    assert "L'(1) = 0.192901316797" in text


def test_tables_csv(tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert run(["tables", "--disc", "-4", "--limit", "50", "--dump", "csv",
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("n,lambda,nu,lambda_prime,rho,Lambda,rho_star,"
                        "rho_substar,Lambda_star,Lambda_substar")
    assert len(lines) == 51
    assert lines[1] == "1,1,1,0,1,0,1,0,0,0"
    row2 = lines[2].split(",")
    assert row2[0] == "2" and row2[3] == "0.69314718056"


def test_tables_csv_matches_per_row_formatting_across_blocks(tmp_path, capsys):
    """The dump formats 2^14-row blocks of .tolist() columns; past a block
    edge it must read as numpy scalars formatted one row at a time."""
    N = (1 << 14) + 5
    out = tmp_path / "t.csv"
    assert run(["tables", "--disc", "13", "--limit", str(N), "--cutoff", "7", "--dump", "csv",
                "--out", str(out)]) == 0
    t = sieve_tables(N, make_character(13), cutoff=7)
    rho_sub, Lam_sub = t.rho_substar, t.Lam_substar
    rows = [f"{n},{t.lam[n]},{t.nu[n]},{t.lam_prime[n]:.12g},{t.rho[n]},{t.Lam[n]:.12g},"
            f"{t.rho_star[n]},{rho_sub[n]},{t.Lam_star[n]:.12g},{Lam_sub[n]:.12g}"
            for n in range(1, N + 1)]
    assert out.read_text().splitlines()[1:] == rows


def test_tables_out_env_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DELTALAB_OUT", str(tmp_path))
    assert run(["tables", "--disc", "5", "--limit", "10", "--dump", "csv",
                "--out", "sub/t.csv"]) == 0
    assert (tmp_path / "sub" / "t.csv").exists()


def test_divisor_sum(capsys):
    assert run(["divisor-sum", "--f", "rho", "--x", "100", "--disc", "-4",
                "--residual"]) == 0
    text = out_of(capsys)
    # independent oracle: rho = 1*1*chi, so the partial sum is a triple loop
    from deltalab import make_character

    chi = make_character(-4)
    brute = sum(
        chi(c)
        for a in range(1, 101)
        for b in range(1, 100 // a + 1)
        for c in range(1, 100 // (a * b) + 1)
    )
    assert f"sum = {brute}" in text
    assert "normalized =" in text


def test_divisor_sum_residuals_at_the_trivial_character(capsys):
    """--disc 1: lambda is tau and rho is d_3, with the divisor-problem main
    terms; lambda' has no main term there, at the pole of zeta."""
    assert run(["divisor-sum", "--f", "lambda", "--x", "1e6", "--disc", "1", "--residual"]) == 0
    text = out_of(capsys)
    assert "sum = 13970034\n" in text and "main = 13969941.8878\n" in text
    assert run(["divisor-sum", "--f", "rho", "--x", "1e4", "--disc", "1", "--residual"]) == 0
    assert "normalized =" in out_of(capsys)
    assert run(["divisor-sum", "--f", "lambda_prime", "--x", "1e4", "--disc", "1",
                "--residual"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: L(s, chi_1) is zeta; no finite value at s = 1\n"


@pytest.mark.parametrize("x, message", [
    ("0.99", "--x must be >= 1, got 0.99"),
    ("0", "--x must be >= 1, got 0"),
    ("-3", "--x must be >= 1, got -3"),
    ("1e9", f"--x 1000000000 needs ~{10**9 * deltalab.tables.MEMORY_RATES['sieve_tables'] >> 20} "
            f"MiB > budget 2048 MiB; use --x <= "
            f"{deltalab.tables.DEFAULT_MEMORY_BUDGET // deltalab.tables.MEMORY_RATES['sieve_tables']}"),
])
def test_divisor_sum_names_x_when_it_rejects_it(x, message, monkeypatch, capsys):
    """divisor-sum's table has floor(x) entries: an x below 1 or over the
    budget exits 1 with a message about --x, not the table's limit, before
    any table is built."""
    monkeypatch.setattr(deltalab.cli, "sieve_tables", lambda *a, **k: pytest.fail("table built"))
    assert run(["divisor-sum", "--f", "rho", "--x", x, "--disc", "-4"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


def test_psi_short(capsys):
    assert run(["psi-short", "--x", "100", "--y", "10", "--disc", "-4"]) == 0
    text = out_of(capsys)
    assert "psi = 4.5747109785" in text
    assert "pi_count = 1" in text


def test_psi_short_reports_psi_star_err(capsys):
    from deltalab.characters import make_character
    from deltalab.tables import psi_counts

    rep = psi_counts(10**7, make_character(13), 10**7, (10**7) ** 0.55)
    assert run(["psi-short", "--x", "1e7", "--alpha", "0.55", "--disc", "13", "--json"]) == 0
    result = json.loads(out_of(capsys))["result"]
    assert result["psi_star_err"] == rep.psi_star_err > 0
    assert run(["psi-short", "--x", "1e7", "--alpha", "0.55", "--disc", "13"]) == 0
    assert f"psi_star_err = {rep.psi_star_err:.12g}\n" in out_of(capsys)


def test_psi_short_past_the_float_quotient_bound_allocates_nothing(capsys):
    # x = 1e17 would need isqrt(x) + 1 = 3.2e8 entries per array (2.4 GiB
    # for B alone) and float quotients past 2^53
    import time
    import tracemalloc

    tracemalloc.start()
    try:
        start = time.perf_counter()
        assert run(["psi-short", "--x", "1e17", "--y", "100", "--disc", "-4"]) == 1
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1 and "2^52" in err
    assert peak < 1 << 20 and elapsed < 1.0


def test_psi_short_needs_y_or_alpha(capsys):
    assert run(["psi-short", "--x", "100", "--disc", "-4"]) == 1


def test_delta_naive_check(capsys):
    assert run(["delta", "--d1", "1", "--d2", "1", "--d3", "-4", "--x", "2000",
                "--naive-check", "--json"]) == 0
    d = json.loads(out_of(capsys))
    assert d["result"]["naive_check"] == "passed"
    assert d["result"]["raw_sum"] == d["result"]["naive_raw"]


def test_delta_naive_check_mismatch_exits_2(monkeypatch, capsys):
    import deltalab.delta

    monkeypatch.setattr(deltalab.delta, "naive_triple_raw", lambda *args: -1)
    assert run(["delta", "--d1", "1", "--d2", "1", "--d3", "-4", "--x", "2000",
                "--naive-check"]) == 2
    err = capsys.readouterr().err
    assert "oracle regression" in err
    assert "Traceback" not in err


def test_delta_cap_exit(capsys):
    assert run(["delta", "--d1", "1", "--d2", "1", "--d3", "1", "--x", "1e7",
                "--cap", "1e6"]) == 1


def test_delta_at_the_exactness_limit_exits_1(capsys):
    """Past the cap, x at delta.EXACT_X_LIMIT (about 8.41e14) is refused
    before any work, with one error line."""
    import deltalab.delta

    x = str(deltalab.delta.EXACT_X_LIMIT)
    assert run(["delta", "--d1", "1", "--d2", "1", "--d3", "1", "--x", x, "--cap", "1e15"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1 and "exact" in err


def test_delta_sweep_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert run(["delta-sweep", "--d1", "1", "--d2", "1", "--d3", "-4",
                "--x-grid", "100:10000:geometric:5", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,d1,d2,d3,raw_sum,residue,delta,bound_value,ratio"
    assert len(lines) == 6
    text = out_of(capsys)
    assert "max |delta|/bound" in text


def test_expsum_default_modulus(capsys):
    assert run(["expsum", "--n1", "3", "--n2", "7", "--d3", "5", "--x", "1e6",
                "--range", "1000:1100", "--m", "2"]) == 0
    text = out_of(capsys)
    assert "length = 101" in text
    assert "abs =" in text


def test_expsum_at_m_past_int64_is_the_sum_at_m_mod_d3(capsys):
    argv = ["expsum", "--n1", "3", "--n2", "7", "--d3", "5", "--x", "1e6", "--range", "1:1000"]
    assert run([*argv, "--m", "2"]) == 0
    want = out_of(capsys).split("\n", 1)[1]  # past the config echo, which names m
    for m in (2 + 5 * 2**60, 2 + 5 * 2**62):  # m n3 wrapped in int64; m >= 2^63
        assert run([*argv, "--m", str(m)]) == 0
        out, err = capsys.readouterr()
        assert err == "" and out.split("\n", 1)[1] == want.replace("m = 2\n", f"m = {m}\n")


@pytest.mark.parametrize("argv", [
    ["gauss", "--disc", "5", "--m", "1..200000"],
    ["character", "--disc", "-4", "--table", "1e6", "--json"],
])
def test_closed_stdout_exits_1_without_a_traceback(argv):
    """A reader that stops after one line, as | head -1 does."""
    with subprocess.Popen([sys.executable, "-m", "deltalab.cli", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        assert child.stdout.readline()
        child.stdout.close()
        code = child.wait(timeout=60)
        err = child.stderr.read().decode()
    assert (code, err) == (1, ""), err[-500:]


def test_feasibility_check_and_minimal(capsys):
    assert run(["feasibility", "--theta", "0.4923", "--r", "433433"]) == 0
    assert "= True" in out_of(capsys)
    assert run(["feasibility", "--theta", "0.4923", "--minimal"]) == 0
    assert "minimal_r(4923/10000) = 429673" in out_of(capsys)
    assert run(["feasibility", "--theta", "0.492293", "--minimal"]) == 0
    assert "infeasible" in out_of(capsys)
    assert run(["feasibility", "--theta", "0.4923"]) == 1  # needs --r or --minimal


#: Rejected fractions and flags of compare and feasibility, with what the
#: error line names.
_REJECTED_FRACTIONS = [
    (["feasibility", "--theta", "1e10000000", "--minimal"], "digits"),
    (["feasibility", "--theta", "1e-999999999", "--r", "5"], "digits"),
    (["compare", "--ours", "1e999999999", "--theirs", "1/2"], "digits"),
    (["compare", "--ours", "1/2", "--theirs", "1e-10000000"], "digits"),
    (["compare", "--ours", "abc", "--theirs", "1/2"], "'abc'"),
    (["compare", "--ours", "1/0", "--theirs", "1/2"], "zero denominator"),
    (["feasibility", "--theta", "0.5"], "need --r or --minimal"),
]


@pytest.mark.parametrize("argv", [argv for argv, _ in _REJECTED_FRACTIONS])
def test_huge_decimal_exponent_exits_1_at_once(argv, capsys):
    """A rejected value exits 1 at once, with one error line and nothing on
    stdout: the config echo comes after validation."""
    import time

    start = time.perf_counter()
    assert run(argv) == 1
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == ""
    why = next(why for rejected, why in _REJECTED_FRACTIONS if rejected == argv)
    assert err.startswith("error: ") and err.count("\n") == 1 and why in err


def test_huge_decimal_exponent_in_config_exits_1_at_once(tmp_path, capsys):
    import time

    cfg = tmp_path / "run.cfg"
    cfg.write_text("theta=1e10000000\n")
    start = time.perf_counter()
    assert run(["feasibility", "--theta", "0.5", "--minimal", "--config", str(cfg)]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_config_file_overrides(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("order=6\n# comment line\n")
    assert run(["tuple", "--order", "5", "--config", str(cfg), "--json"]) == 0
    d = json.loads(out_of(capsys))
    assert d["order"] == 6


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nonsense=1\n")
    assert run(["tuple", "--order", "5", "--config", str(cfg)]) == 1


def test_config_echoed(capsys):
    assert run(["feasibility", "--theta", "0.4923", "--minimal"]) == 0
    first = out_of(capsys).splitlines()[0]
    assert first.startswith("# config command=feasibility seed=0")
    assert "theta=0.4923" in first


def test_tau_moment(capsys):
    assert run(["tau-moment", "--cap", "10", "--A", "1"]) == 0
    assert "sum = 6.00238095238" in out_of(capsys)
    # (log 2)^(2^10 + 1) is still a normal float; at A = 11 .. 996 it is 0.0
    assert run(["tau-moment", "--cap", "2", "--A", "10"]) == 0
    assert out_of(capsys).splitlines()[1:] == [
        "sum = 513", "log_power_comparison = 7.01612909382e-164", "ratio = 7.31172407378e+165"]


def test_verify_all_reduced(capsys):
    code = run(["verify-all", "--quick", "--table-limit", "2000",
                "--delta-limit", "500"])
    text = out_of(capsys)
    assert code == 0, text
    assert "[ok ] exponent-recursion" in text
    assert "gating checks passed" in text
    assert "[recorded]" in text


# Every --config key of every subcommand, typed as its flag: a value that
# does not parse, a negative, zero, a fraction and a zero denominator must
# each end in exit 0, 1 or 2, never an exception.  The base arguments keep
# each run small.
_BASE_ARGV = {
    "tuple": ["--order", "5"],
    "derive": [],
    "compare": [],
    "character": ["--disc", "-4"],
    "gauss": ["--disc", "5"],
    "lfunction": ["--disc", "-4"],
    "tables": ["--disc", "-4", "--limit", "100"],
    "divisor-sum": ["--f", "rho", "--x", "100", "--disc", "-4"],
    "psi-short": ["--x", "100", "--y", "10", "--disc", "-4"],
    "delta": ["--d1", "1", "--d2", "1", "--d3", "-4", "--x", "1000"],
    "delta-sweep": ["--d1", "1", "--d2", "1", "--d3", "-4", "--x-grid", "100:1000:geometric:3"],
    "expsum": ["--n1", "3", "--n2", "7", "--d3", "5", "--x", "1e6", "--range", "1:50",
               "--m", "2"],
    "feasibility": ["--theta", "0.4923", "--r", "5"],
    "tau-moment": ["--cap", "100", "--A", "1"],
    "verify-all": ["--quick", "--table-limit", "2000", "--delta-limit", "500"],
}
_VALUES = ("junk", "-1", "0", "2.7", "1/0")
_FLAG_VALUES = ("maybe", "yes")


def _keys_by_command():
    """command -> [(dest, is store_true)] for every key a config may set."""
    parser = build_parser()
    assert set(parser.commands) == set(_BASE_ARGV)
    return {
        command: [(a.dest, a.nargs == 0) for a in sub._actions
                  if a.option_strings and a.dest not in ("help", "config")]
        for command, sub in parser.commands.items()
    }


@pytest.mark.parametrize(
    "command,key,is_flag",
    [(c, k, f) for c, keys in _keys_by_command().items() for k, f in keys],
)
def test_config_key_never_raises(command, key, is_flag, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DELTALAB_OUT", str(tmp_path))
    cfg = tmp_path / "run.cfg"
    for value in _FLAG_VALUES if is_flag else _VALUES:
        cfg.write_text(f"{key}={value}\n")
        code = run([command, *_BASE_ARGV[command], "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (key, value, code)
        assert "Traceback" not in err, (key, value)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_config_key_combinations_never_raise(data):
    """Several keys at once, so that values meet each other (claim_x with
    claim_D, limit with cutoff); verify-all's keys run in the matrix above."""
    keys = {c: k for c, k in _keys_by_command().items() if c != "verify-all"}
    command = data.draw(st.sampled_from(sorted(keys)))
    chosen = data.draw(st.lists(st.sampled_from(keys[command]), min_size=1, unique_by=lambda a: a[0]))
    # plus values that parse and run, too slow for verify-all's full mode
    flag_values, values = _FLAG_VALUES + ("off",), _VALUES + ("7", "1e3")
    lines = [f"{dest}={data.draw(st.sampled_from(flag_values if is_flag else values))}"
             for dest, is_flag in chosen]
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        err = io.StringIO()
        with mock.patch.dict(os.environ, {"DELTALAB_OUT": tmp}), \
                redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = run([command, *_BASE_ARGV[command], "--config", str(cfg)])
    assert code in (0, 1, 2), (command, lines, code)
    assert "Traceback" not in err.getvalue(), (command, lines)


def test_config_none_default_keys_are_typed(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("claim_x=1e6\nclaim_D=10\n")
    assert run(["feasibility", "--theta", "0.4923", "--r", "5", "--config", str(cfg)]) == 0
    text = out_of(capsys)
    assert "claim_D=10 claim_x=1000000" in text
    assert "x >= D^r: True" in text


def test_config_values_checked_like_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("order=2.7\n")
    assert run(["tuple", "--order", "5", "--config", str(cfg)]) == 1
    assert "error: config key order: invalid value '2.7'" in capsys.readouterr().err
    cfg.write_text("json=maybe\n")
    assert run(["tuple", "--order", "5", "--config", str(cfg)]) == 1
    cfg.write_text("sign=2\n")
    assert run(["expsum", *_BASE_ARGV["expsum"], "--config", str(cfg)]) == 1


# Every key a run can set besides --config, which every subcommand has.
# Each one is read by its command: a flag that does nothing fails this table.
_OPTIONS = {
    "tuple": {"json", "order", "eval_M", "eval_T", "eps"},
    "derive": {"json"},
    "compare": {"ours", "theirs"},
    "character": {"json", "disc", "table"},
    "gauss": {"json", "disc", "m"},
    "lfunction": {"json", "disc", "derivative"},
    "tables": {"json", "disc", "limit", "cutoff", "dump", "out"},
    "divisor-sum": {"json", "f", "x", "disc", "residual"},
    "psi-short": {"json", "x", "alpha", "y", "disc", "cutoff"},
    "delta": {"json", "d1", "d2", "d3", "x", "cap", "naive_check"},
    "delta-sweep": {"d1", "d2", "d3", "x_grid", "out", "cap"},
    "expsum": {"json", "n1", "n2", "d3", "x", "D", "range", "m", "sign"},
    "feasibility": {"theta", "r", "minimal", "claim_x", "claim_D"},
    "tau-moment": {"json", "cap", "A"},
    "verify-all": {"seed", "quick", "table_limit", "delta_limit"},
}


def test_option_surface():
    got = {c: {k for k, _ in keys} for c, keys in _keys_by_command().items()}
    assert got == _OPTIONS
    assert sum(map(len, got.values())) + len(got) == 83  # + one --config each


def test_echo_keeps_seed_without_seed_flag(capsys):
    assert run(["lfunction", "--disc", "-4", "--json"]) == 0
    assert json.loads(out_of(capsys))["config"]["seed"] == 0
    assert run(["compare"]) == 0
    assert out_of(capsys).startswith("# config command=compare seed=0\n")
    assert run(["compare", "--seed", "1"]) == 1


def test_fractional_limit_rejected(tmp_path, capsys):
    argv = ["verify-all", "--quick", "--delta-limit", "500"]
    assert run([*argv, "--table-limit", "2.7"]) == 1
    assert "error: argument --table-limit: invalid count value: '2.7'" in capsys.readouterr().err
    for bad in ("inf", "nan", "-inf"):
        assert run([*argv, "--table-limit", bad]) == 1
    cfg = tmp_path / "run.cfg"
    cfg.write_text("table_limit=2.7\n")
    assert run([*argv, "--config", str(cfg)]) == 1
    assert "error: config key table_limit: invalid value '2.7'" in capsys.readouterr().err
    expsum = ["expsum", *_BASE_ARGV["expsum"]]  # a later --range replaces its 1:50
    assert run([*expsum, "--range", "1.5:50"]) == 1
    assert "error: not an integer: '1.5'" in capsys.readouterr().err
    assert run([*expsum, "--range", "1e1:50"]) == 0
    assert "length = 41" in out_of(capsys)


# (command, key, value template): every float-typed key, and both bounds of
# the delta-sweep grid
_FLOAT_KEYS = [
    (command, a.dest, "{}")
    for command, sub in build_parser().commands.items()
    for a in sub._actions
    if a.type is finite
] + [("delta-sweep", "x_grid", "{}:1e6:linear:3"), ("delta-sweep", "x_grid", "1:{}:linear:3")]


def test_every_float_flag_is_finite():
    types = [a.type for sub in build_parser().commands.values() for a in sub._actions]
    assert float not in types and types.count(finite) == 13


@pytest.mark.parametrize("form", ["flag", "config"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command,key,template", _FLOAT_KEYS)
def test_non_finite_float_rejected(command, key, template, value, form, tmp_path, monkeypatch,
                                   capsys):
    monkeypatch.setenv("DELTALAB_OUT", str(tmp_path))
    argv = [command, *_BASE_ARGV[command]]  # a later flag replaces a base one
    if form == "flag":
        argv.append(f"--{key.replace('_', '-')}={template.format(value)}")
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={template.format(value)}\n")
        argv += ["--config", str(cfg)]
    assert run(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: " in err and "Traceback" not in err


#: Every count flag at 1e300, with the exit code of the run: a cap bounds x
#: and takes any value, as does expsum's m (its phase takes m mod d3), and a
#: size is checked against the memory budget, or against the bound of its
#: arithmetic (character --table < 2^63), first.
_HUGE_COUNTS = [
    ("character", "table", "1e300", 1),
    ("tables", "limit", "1e300", 1),
    ("tables", "cutoff", "1e300", 0),
    ("psi-short", "cutoff", "1e300", 0),
    ("delta", "cap", "1e300", 0),
    ("delta-sweep", "cap", "1e300", 0),
    ("tau-moment", "cap", "1e300", 1),
    ("verify-all", "table_limit", "1e300", 1),
    ("verify-all", "delta_limit", "1e300", 1),
    ("expsum", "m", "1e300", 0),
]


def test_huge_counts_cover_every_count_flag():
    flags = {(command, a.dest) for command, sub in build_parser().commands.items()
             for a in sub._actions if a.type is count}
    assert flags == {(command, key) for command, key, _, _ in _HUGE_COUNTS}


@pytest.mark.parametrize("form", ["flag", "config"])
@pytest.mark.parametrize("command,key,value,code", _HUGE_COUNTS + [
    ("expsum", "range", "1:1e300", 1),  # two counts
    ("divisor-sum", "x", "1e300", 1),  # a float that sizes a table
])
def test_huge_count_gives_one_short_error_line(command, key, value, code, form, tmp_path,
                                                monkeypatch, capsys):
    """A count of 1e300 has 301 digits; an error line names it in four."""
    monkeypatch.setenv("DELTALAB_OUT", str(tmp_path))
    argv = [command, *_BASE_ARGV[command]]  # a later flag replaces a base one
    if form == "flag":
        argv.append(f"--{key.replace('_', '-')}={value}")
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={value}\n")
        argv += ["--config", str(cfg)]
    assert run(argv) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert err == ""
        return
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200, err[:300]
    assert not re.search(r"\d{16}", err) and "Traceback" not in err


def test_count_flag_reads_exponent_form(capsys):
    assert run(["tables", "--disc", "-4", "--limit", "1e3"]) == 0
    text = out_of(capsys)
    assert "limit=1000" in text.splitlines()[0]
    assert "limit = 1000\n" in text
    assert run(["tau-moment", "--cap", "1e1", "--A", "1"]) == 0
    assert "sum = 6.00238095238" in out_of(capsys)
    for extra in ([], ["--json"]):
        assert run(["character", "--disc", "-4", "--table", "1e3", *extra]) == 0
        got = out_of(capsys)
        assert run(["character", "--disc", "-4", "--table", "1000", *extra]) == 0
        assert got == out_of(capsys)


@pytest.mark.parametrize("argv", [["tables", "--disc", "-4", "--limit", "100"],
                                  ["psi-short", "--x", "1e4", "--y", "100", "--disc", "-4"]])
def test_cutoff_reads_exponent_form(argv, capsys):
    assert run([*argv, "--cutoff", "1e1"]) == 0
    got = out_of(capsys)
    assert run([*argv, "--cutoff", "10"]) == 0
    assert got == out_of(capsys) and "cutoff=10 " in got
    if argv[0] == "tables":
        assert "cutoff = 10\n" in got


def test_count_is_exact_past_the_float_mantissa():
    assert count("1e23") == 10**23  # float("1e23") is 99999999999999991611392
    assert count("12345678901234567.89e2") == 1234567890123456789
    assert count("-1e3") == -1000
    for bad in ("1e-3", "2.5e0", "1e400", "sNaN", "x"):
        with pytest.raises(ValueError):
            count(bad)


def test_m_flags_read_exponent_form(capsys):
    for extra in ([], ["--json"]):
        outs = []
        for m in ("1..1e2", "1..100"):
            assert run(["gauss", "--disc", "5", "--m", m, *extra]) == 0
            outs.append(out_of(capsys))
        if not extra:  # the config echo names the spec as given
            outs = [out.split("\n", 1)[1] for out in outs]
        assert outs[0] == outs[1]
    assert run(["gauss", "--disc", "5", "--m", "2e0,3"]) == 0
    assert "G(2) = " in out_of(capsys)
    argv = ["expsum", "--n1", "3", "--n2", "7", "--d3", "5", "--x", "1e6", "--range", "1:100"]
    assert run([*argv, "--m", "1e5"]) == 0
    got = out_of(capsys)
    assert run([*argv, "--m", "100000"]) == 0
    assert got == out_of(capsys)


@pytest.mark.parametrize("spec,why", [("1..1e5x", "not a number: '1e5x'"),
                                      ("1..2.5", "not an integer: '2.5'"),
                                      ("1..2..3", "not a number: '2..3'"),
                                      ("1,x", "not a number: 'x'")])
def test_bad_m_spec_names_the_flag(spec, why, capsys):
    assert run(["gauss", "--disc", "5", "--m", spec]) == 1
    assert capsys.readouterr() == ("", f"error: --m {spec}: {why}\n")


def test_cutoff_below_one_rejected(capsys):
    assert run(["tables", "--disc", "-4", "--limit", "100", "--cutoff", "-1"]) == 1
    assert "cutoff must be >= 1" in capsys.readouterr().err
    # sieve_tables checks C itself, though only rho* and Lambda* read it
    assert run(["tables", "--disc", "-4", "--limit", "100", "--cutoff", "0"]) == 1
    assert capsys.readouterr() == ("", "error: cutoff must be >= 1, got 0\n")
    assert run(["psi-short", "--x", "100", "--y", "10", "--disc", "-4", "--cutoff", "0"]) == 1
    assert "cutoff must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["tables", "--disc", "-4", "--limit", "1e9"],
    ["tables", "--disc", "-4", "--limit", "4e7", "--dump", "csv"],
    ["divisor-sum", "--f", "rho", "--x", "1e9", "--disc", "-4"],
    ["delta-sweep", "--d1", "1", "--d2", "1", "--d3", "-4", "--x-grid", "0:10:geometric:3"],
    ["delta", "--d1", "1", "--d2", "1", "--d3", "-4", "--x", "1e9", "--naive-check"],
    ["psi-short", "--x", "10", "--y", "9", "--disc", "-4", "--json"],
    ["psi-short", "--x", "1", "--y", "0.5", "--disc", "-4", "--json"],
    ["tau-moment", "--cap", "2", "--A", "11"],
    ["tau-moment", "--cap", "2", "--A", "996"],
    ["verify-all", "--quick", "--table-limit", "1e9"],
    ["verify-all", "--quick", "--delta-limit", "1e9"],
    ["tau-moment", "--cap", "1e12", "--A", "1"],
    ["expsum", "--n1", "1", "--n2", "1", "--d3", "5", "--x", "1e6", "--range", "1:1e16", "--m", "1"],
    ["expsum", "--n1", "100000000", "--n2", "100000000", "--d3", "5", "--x", "1e6", "--range",
     "1:1000", "--m", "1"],
    ["delta-sweep", "--d1", "1", "--d2", "1", "--d3", "1", "--x-grid", "1:10:linear:100000000"],
    ["character", "--disc", "5", "--table", "1e19"],
    ["tuple", "--order", "7143"],
])
def test_failing_run_exits_1_with_message(argv, tmp_path, monkeypatch, capsys):
    """Over the memory budget (tables, verify-all's two limits before any
    check runs, the --naive-check oracle, and every array or list whose size
    a flag sets), a geometric grid from 0, a Li window with an end at t = 1
    (it diverges), a log power (log 2)^(2^A + 1) that underflows to 0, an
    expsum with n1 n2 hi >= 2^53 (past its exact phases), a character table
    past 2^63, and an order past the cap."""
    monkeypatch.setenv("DELTALAB_OUT", str(tmp_path))
    assert run(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("flag,argv", [
    ("--disc", ["character", "--disc", "1000001", "--table", "5"]),
    ("--d3", ["delta", "--d1", "1", "--d2", "1", "--d3", "1000001", "--x", "10"]),
])
def test_character_over_the_memory_budget_exits_1_before_its_table(flag, argv, monkeypatch,
                                                                   capsys):
    """A character's tables are checked against the budget before they are
    built, at MEMORY_RATES["period_table"] bytes per residue: 1,000,001
    residues need a MiB more than the budget set here."""
    need = 1_000_001 * deltalab.tables.MEMORY_RATES["period_table"]
    budget = need - (1 << 20)
    monkeypatch.setattr(deltalab.tables, "DEFAULT_MEMORY_BUDGET", budget)
    monkeypatch.setattr(deltalab.characters, "_period_array",
                        lambda d: pytest.fail("period table built"))
    assert run(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {flag} 1000001 needs ~{need >> 20} MiB > budget "
                          f"{budget >> 20} MiB")
    assert err.count("\n") == 1


def test_character_of_a_million_residues_runs_under_the_default_budget(capsys):
    assert run(["character", "--disc", "1000001", "--table", "5"]) == 0
    assert out_of(capsys).endswith("chi: 1 1 -1 1 1\n")


def test_raw_sum_cap_defaults_come_from_delta():
    from deltalab.delta import DEFAULT_RAW_CAP

    commands = build_parser().commands
    for command in ("delta", "delta-sweep"):
        (cap,) = [a for a in commands[command]._actions if a.dest == "cap"]
        assert cap.default == DEFAULT_RAW_CAP, command


# (command, base argv, the one key given, its value, the flag the error names)
_HALF_PAIRS = [
    ("tuple", ["--order", "5"], "eval_M", "2", "--eval-T"),
    ("tuple", ["--order", "5"], "eval_T", "2", "--eval-M"),
    ("feasibility", ["--theta", "0.4923", "--r", "433433"], "claim_x", "1e9", "--claim-D"),
    ("feasibility", ["--theta", "0.4923", "--r", "433433"], "claim_D", "10", "--claim-x"),
    ("tables", ["--disc", "-4", "--limit", "100"], "out", "x.csv", "--dump csv"),
    ("compare", [], "ours", "1/2", "--theirs"),
    ("compare", [], "theirs", "1/2", "--ours"),
    ("psi-short", ["--x", "100", "--y", "10", "--disc", "-4"], "alpha", "0.5", "--y"),
]


@pytest.mark.parametrize("form", ["flag", "config"])
@pytest.mark.parametrize("command,base,key,value,partner", _HALF_PAIRS)
def test_half_of_flag_pair_rejected(command, base, key, value, partner, form,
                                    tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DELTALAB_OUT", str(tmp_path))
    if form == "flag":
        extra = ["--" + key.replace("_", "-"), value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={value}\n")
        extra = ["--config", str(cfg)]
    assert run([command, *base, *extra]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and partner in err
    assert not (tmp_path / "x.csv").exists()


# (command, base argv, the keys given and their values (None: a switch),
# the flags the error names)
_CONFLICTS = [
    ("tuple", ["--order", "5"], {"eps": "0.5"}, ["--eps", "--eval-M"]),
    ("tuple", ["--order", "5"], {"eps": "0"}, ["--eps", "--eval-M"]),
    ("feasibility", ["--theta", "0.4923", "--minimal"], {"r": "5"}, ["--minimal", "--r"]),
    ("feasibility", ["--theta", "0.4923", "--minimal"], {"claim_x": "1e9"},
     ["--minimal", "--claim-x"]),
    ("feasibility", ["--theta", "0.4923", "--minimal"], {"claim_D": "10"},
     ["--minimal", "--claim-D"]),
    ("feasibility", ["--theta", "0.4923", "--minimal"],
     {"r": "5", "claim_x": "1e9", "claim_D": "10"},
     ["--minimal", "--r", "--claim-x", "--claim-D"]),
    ("feasibility", ["--theta", "0.4923", "--r", "433433"], {"minimal": None},
     ["--minimal", "--r"]),
    ("tables", ["--disc", "-4", "--limit", "100", "--dump", "csv"], {"json": None},
     ["--dump csv", "--json"]),
]


@pytest.mark.parametrize("form", ["flag", "config"])
@pytest.mark.parametrize("command,base,given,named", _CONFLICTS)
def test_flag_without_effect_rejected(command, base, given, named, form, tmp_path, capsys):
    """A flag the run would ignore: --eps outside the bound line, anything
    but --theta next to --minimal, and --json next to --dump csv."""
    if form == "flag":
        extra = []
        for key, value in given.items():
            extra += ["--" + key.replace("_", "-")] + ([] if value is None else [value])
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k}={'yes' if v is None else v}\n" for k, v in given.items()))
        extra = ["--config", str(cfg)]
    assert run([command, *base, *extra]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and all(flag in err for flag in named), err


def test_tuple_eps_enters_the_bound_line(tmp_path, capsys):
    argv = ["tuple", "--order", "5", "--eval-M", "2", "--eval-T", "3"]
    assert run(argv) == 0
    plain = out_of(capsys)
    assert "eps=0 " in plain and "bound(2.0, 3.0) = 6.93727918901" in plain
    assert run([*argv, "--eps", "0.1"]) == 0
    assert "bound(2.0, 3.0) = 7.32786085256" in out_of(capsys)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eps=0.1\n")
    assert run([*argv, "--config", str(cfg)]) == 0
    assert "bound(2.0, 3.0) = 7.32786085256" in out_of(capsys)


@pytest.mark.parametrize("form", ["flag", "config"])
@pytest.mark.parametrize("key", ["table_limit", "delta_limit"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_verify_all_limit_below_one_rejected(value, key, form, tmp_path, capsys):
    argv = ["verify-all", "--quick", "--table-limit", "2000", "--delta-limit", "500"]
    if form == "flag":
        argv += ["--" + key.replace("_", "-"), value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={value}\n")
        argv += ["--config", str(cfg)]
    assert run(argv) == 1
    assert f"error: {key} must be >= 1, got {value}" in capsys.readouterr().err
