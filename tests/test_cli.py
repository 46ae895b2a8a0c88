"""CLI contract tests: subcommand outputs, exit codes, config files, and
the output-directory environment override.  All in-process via cli.run."""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltalab.cli import build_parser, finite, run


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


def test_character_invalid_disc(capsys):
    assert run(["character", "--disc", "9"]) == 1


def test_gauss_range(capsys):
    assert run(["gauss", "--disc", "5", "--m", "1..3", "--json"]) == 0
    d = json.loads(out_of(capsys))
    assert [row["m"] for row in d["values"]] == [1, 2, 3]
    assert float(d["values"][0]["abs"]) == pytest.approx(5**0.5, rel=1e-9)


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


def test_psi_short(capsys):
    assert run(["psi-short", "--x", "100", "--y", "10", "--disc", "-4"]) == 0
    text = out_of(capsys)
    assert "psi = 4.5747109785" in text
    assert "pi_count = 1" in text


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


def test_feasibility_check_and_minimal(capsys):
    assert run(["feasibility", "--theta", "0.4923", "--r", "433433"]) == 0
    assert "= True" in out_of(capsys)
    assert run(["feasibility", "--theta", "0.4923", "--minimal"]) == 0
    assert "minimal_r(4923/10000) = 429673" in out_of(capsys)
    assert run(["feasibility", "--theta", "0.492293", "--minimal"]) == 0
    assert "infeasible" in out_of(capsys)
    assert run(["feasibility", "--theta", "0.4923"]) == 1  # needs --r or --minimal


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


def test_count_flag_reads_exponent_form(capsys):
    assert run(["tables", "--disc", "-4", "--limit", "1e3"]) == 0
    text = out_of(capsys)
    assert "limit=1000" in text.splitlines()[0]
    assert "limit = 1000\n" in text
    assert run(["tau-moment", "--cap", "1e1", "--A", "1"]) == 0
    assert "sum = 6.00238095238" in out_of(capsys)


def test_cutoff_below_one_rejected(capsys):
    assert run(["tables", "--disc", "-4", "--limit", "100", "--cutoff", "-1"]) == 1
    assert "cutoff must be >= 1" in capsys.readouterr().err
    assert run(["psi-short", "--x", "100", "--y", "10", "--disc", "-4", "--cutoff", "0"]) == 1
    assert "cutoff must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["tables", "--disc", "-4", "--limit", "1e9"],
    ["divisor-sum", "--f", "rho", "--x", "1e9", "--disc", "-4"],
    ["delta-sweep", "--d1", "1", "--d2", "1", "--d3", "-4", "--x-grid", "0:10:geometric:3"],
    ["delta", "--d1", "1", "--d2", "1", "--d3", "-4", "--x", "1e9", "--naive-check"],
])
def test_failing_run_exits_1_with_message(argv, tmp_path, monkeypatch, capsys):
    """Over the memory budget (tables, and the --naive-check oracle), and a
    geometric grid from 0."""
    monkeypatch.setenv("DELTALAB_OUT", str(tmp_path))
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


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
]


@pytest.mark.parametrize("form", ["flag", "config"])
@pytest.mark.parametrize("command,base,given,named", _CONFLICTS)
def test_flag_without_effect_rejected(command, base, given, named, form, tmp_path, capsys):
    """A flag the run would ignore: --eps outside the bound line, and
    anything but --theta next to --minimal."""
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
