"""Command-line entry point wiring all modules.

Exit codes: 0 success, 1 validation/usage error, 2 internal regression
mismatch (the derivation pipeline, an exact identity check, or the raw
triple sum against its convolution oracle).

Every run echoes its fully resolved configuration first.  A config file of
key=value lines (--config) overrides flags; each value is typed and checked
as its flag would be, and unknown keys are rejected.  Every flag is read by
its command: --seed exists on verify-all only (the echo prints seed=0
elsewhere), and --json only on the commands that have a JSON form.
Count flags (--limit, --cutoff, --cap, --table, --table-limit,
--delta-limit, expsum's --m, and the bounds and items of gauss's --m and
expsum's --range) read 1e6, and 1e23 as exactly 10^23, but reject 2.7, inf
and nan; float flags and --x-grid bounds must be finite.
Flags that act only together (--eval-M with --eval-T, --claim-x with
--claim-D, --ours with --theirs, --out with --dump csv) exit 1 when given
alone, as do tuple's --eps without --eval-M and --eval-T, feasibility's
--minimal with --r, --claim-x or --claim-D, and tables' --json with --dump
csv; psi-short takes exactly one of --y and --alpha.
psi-short with an end of the window at 1, and tau-moment with a log power
or ratio outside the float range, exit 1 rather than print inf.  character,
gauss and expsum write their output a tile at a time, bounded by arithmetic
alone: --table n < 2^63 (int64 tiles), expsum's n1 n2 hi < 2^53 (exact
phases).  Any other array or list a flag sizes, a character's tables
included, is checked against the memory budget first, except psi-short's
(x < 2^52 bounds it); a MemoryError, or a stdout closed early, exits 1.
Floats print at 12 significant digits; CSV is comma-separated with a header
row and no quoting (numeric fields only).  The DELTALAB_OUT environment
variable overrides the default output directory for relative output paths.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from . import __version__
from .characters import gauss_sums, l_one, l_one_derivative, make_character
from .delta import (
    DEFAULT_RAW_CAP,
    OracleMismatchError,
    bound_check,
    exp_sum,
    exponent_fit,
    triple_delta,
    triple_deltas,
)
from .exponents import as_fraction, bound_eval, derive_tuple
from .feasibility import check as feas_check
from .feasibility import claim_report, minimal_r
from .monomials import (
    COMPARISON_PAIRS,
    DerivationRegressionError,
    derive_main_theorem,
    simplified_main_bound,
)
from .sieves import TILE
from .tables import (
    IdentityCheckError,
    asymptotic_residual,
    check_memory_budget,
    divisor_sum,
    psi_counts,
    sieve_tables,
    tau_moment_bound,
)
from .verify import format_report, run_suite


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


@dataclass
class ExperimentConfig:
    """Resolved run configuration: command, flat parameter map, seed."""

    command: str
    params: Dict[str, object]
    seed: int

    def echo(self) -> str:
        items = " ".join(f"{k}={_fmt(v)}" for k, v in sorted(self.params.items()))
        return f"# config command={self.command} seed={self.seed} {items}".rstrip()


def _load_config_file(path: str) -> Dict[str, str]:
    out: Dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        k, v = line.split("=", 1)
        out[k.strip().replace("-", "_")] = v.strip()
    return out


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def finite(raw: str) -> float:
    """A float flag value; nan, inf and -inf are invalid."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw!r}")
    return value


def count(raw: str) -> int:
    """An integer flag value that may be written as 1e6, read exactly (1e23
    is 10^23, not the float nearest it); fractions, inf, nan and values past
    the float range are invalid rather than truncated."""
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        value = Decimal(raw)
    except InvalidOperation:
        raise ValueError(f"not a number: {raw!r}") from None
    if not value.is_finite() or value.adjusted() > 308 or value != value.to_integral_value():
        raise ValueError(f"not an integer: {raw!r}")
    return int(value)


def _parse_override(action: argparse.Action, raw: str):
    """Type a config-file value as argparse types the same flag."""
    try:
        if action.nargs == 0:  # store_true
            value = _BOOLS[raw.lower()]
        else:
            value = raw if action.type is None else action.type(raw)
    except (KeyError, ValueError):
        raise ValueError(f"config key {action.dest}: invalid value {raw!r}") from None
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"config key {action.dest}: {raw!r} is not one of {sorted(action.choices)}")
    return value


def _resolve_config(args: argparse.Namespace, sub: argparse.ArgumentParser) -> ExperimentConfig:
    params = {k: v for k, v in vars(args).items() if k not in ("func", "config") and v is not None}
    if getattr(args, "config", None):
        actions = {a.dest: a for a in sub._actions
                   if a.option_strings and a.dest not in ("help", "config")}
        overrides = _load_config_file(args.config)
        unknown = set(overrides) - set(actions)
        if unknown:
            raise ValueError(
                f"unknown config keys {sorted(unknown)}; known: {sorted(actions)}"
            )
        for k, v in overrides.items():
            params[k] = _parse_override(actions[k], v)
            setattr(args, k, params[k])
    seed = params.pop("seed", 0)
    return ExperimentConfig(command=params.pop("command"), params=params, seed=seed)


def _out_path(name: str) -> Path:
    p = Path(name)
    if p.is_absolute():
        return p
    return Path(os.environ.get("DELTALAB_OUT", ".")) / p


def _emit(payload: dict, as_json: bool, config: ExperimentConfig) -> None:
    if as_json:
        print(json.dumps({"config": {"command": config.command, "seed": config.seed,
                                     **{k: _fmt(v) for k, v in sorted(config.params.items())}},
                          "result": payload}, indent=2, sort_keys=True))
    else:
        print(config.echo())
        for k, v in payload.items():
            if isinstance(v, list):
                print(f"{k}:")
                for item in v:
                    print(f"  {item}")
            else:
                print(f"{k} = {_fmt(v)}")


def _write_joined(head: str, sep: str, pieces: Iterable[str], tail: str) -> None:
    """Write head + sep.join(pieces) + tail to stdout one piece at a time."""
    sys.stdout.write(head)
    for i, piece in enumerate(pieces):
        sys.stdout.write(sep + piece if i else piece)
    sys.stdout.write(tail)


def _parse_range(spec: str):
    """lo:hi  -> inclusive integer interval."""
    lo, hi = spec.split(":")
    return count(lo), count(hi)


def _parse_mspec(spec: str) -> Sequence[int]:
    """m values: '3', '1..4' (a range, so no list of them), or '1,2,5', each
    bound or item a count (1e5 reads as 100000)."""
    try:
        if ".." in spec:
            lo, hi = map(count, spec.split("..", 1))
            if hi < lo:
                raise ValueError(f"empty range [{lo}, {hi}]")
            return range(lo, hi + 1)
        return list(map(count, spec.split(",")))
    except ValueError as e:
        raise ValueError(f"--m {spec}: {e}") from None


def _parse_grid(spec: str) -> List[float]:
    """lo:hi:geometric:n or lo:hi:linear:n."""
    parts = spec.split(":")
    if len(parts) != 4:
        raise ValueError(f"grid spec must be lo:hi:kind:n, got {spec!r}")
    lo, hi, kind, n = finite(parts[0]), finite(parts[1]), parts[2], int(parts[3])
    if n < 1 or hi < lo:
        raise ValueError(f"bad grid {spec!r}")
    check_memory_budget(f"grid {spec}", n, "delta_sweep", "n")
    if kind == "geometric" and lo <= 0:
        raise ValueError(f"a geometric grid needs lo > 0, got {spec!r}")
    if n == 1:
        return [lo]
    if kind == "geometric":
        ratio = (hi / lo) ** (1.0 / (n - 1))
        return [lo * ratio**i for i in range(n)]
    if kind == "linear":
        step = (hi - lo) / (n - 1)
        return [lo + step * i for i in range(n)]
    raise ValueError(f"grid kind must be geometric or linear, got {kind!r}")


# ---------------------------------------------------------------------------
# Subcommand implementations.
# ---------------------------------------------------------------------------


def _require_pair(args, first: str, second: str) -> None:
    """Flags that act only together: one without the other is an error."""
    given = [dest for dest in (first, second) if getattr(args, dest) is not None]
    if len(given) == 1:
        missing = second if given[0] == first else first
        raise ValueError(f"--{given[0]} needs --{missing}".replace("_", "-"))


def _cmd_tuple(args, config):
    _require_pair(args, "eval_M", "eval_T")
    if args.eps is None:
        args.eps = config.params["eps"] = 0.0
    elif args.eval_M is None:
        raise ValueError("--eps needs --eval-M and --eval-T: it only enters their bound line")
    t = derive_tuple(args.order)
    if args.json:
        print(json.dumps(t.as_dict(), indent=2))
        return 0
    print(config.echo())
    d = t.as_dict()
    for name in ("a", "b", "xi", "eta", "alpha", "gamma", "delta"):
        eps = " (+eps)" if name in t.eps_on else ""
        print(f"{name} = {d[name]}{eps}")
    if args.eval_M is not None:
        print(f"bound({args.eval_M}, {args.eval_T}) = "
              f"{_fmt(bound_eval(t, args.eval_M, args.eval_T, args.eps))}")
    return 0


def _cmd_derive(args, config):
    r = derive_main_theorem()
    if args.json:
        print(json.dumps({"config": {"command": "derive"}, "pipeline": r.as_dict()}, indent=2))
        return 0
    print(config.echo())
    d = r.as_dict()
    for stage in ("start", "after_lemma", "eq10"):
        print(f"{stage}:")
        for t in d[stage]:
            print(f"  {t}")
    print(f"n_choice: {d['n_choice']}")
    print("final:")
    for t in d["final"]:
        print(f"  {t}")
    print(f"simplified: {d['simplified']}")
    return 0


def _cmd_compare(args, config):
    _require_pair(args, "ours", "theirs")
    if args.ours is not None:
        ours, theirs = as_fraction(args.ours), as_fraction(args.theirs)
        print(config.echo())
        rel = "<" if ours < theirs else (">" if ours > theirs else "=")
        print(f"{ours} {rel} {theirs} (exact)")
        print(f"decimals: {float(ours):.6f} vs {float(theirs):.6f}")
        return 0
    print(config.echo())
    for name, (a, b) in COMPARISON_PAIRS.items():
        rel = "<" if a < b else (">" if a > b else "=")
        print(f"{name}: {a} {rel} {b} (exact); {float(a):.6f} vs {float(b):.6f}")
    return 0


def _cmd_character(args, config):
    chi = make_character(args.disc)
    n = args.table
    if not 1 <= n < 1 << 63:  # n indexes its tiles in int64
        raise ValueError(f"--table must be >= 1 and below 2^63, got {n:.4g}")

    def tiles():  # (k, chi(k)) as lists, for each tile of the k in 1..n
        for lo in range(1, n + 1, TILE):
            k = np.arange(lo, min(lo + TILE, n + 1), dtype=np.int64)
            yield k.tolist(), chi.values(k).tolist()

    if args.json:  # the text json.dumps(indent=2) gives, written one tile at a time
        _write_joined(f'{{\n  "discriminant": {chi.discriminant},\n  "conductor": {chi.conductor},'
                      f'\n  "parity": "{chi.parity}",\n  "values": {{\n', ",\n",
                      (",\n".join(f'    "{k}": {v}' for k, v in zip(*tile)) for tile in tiles()),
                      "\n  }\n}\n")
        return 0
    print(config.echo())
    print(f"character: {chi}")
    _write_joined("n: ", " ", (" ".join(map(str, ks)) for ks, _ in tiles()), "\n")
    _write_joined("chi: ", " ", (" ".join(map(str, vs)) for _, vs in tiles()), "\n")
    return 0


def _cmd_gauss(args, config):
    chi = make_character(args.disc)
    ms = _parse_mspec(args.m)
    gs = zip(ms, gauss_sums(ms, chi))
    if args.json:  # the text json.dump(indent=2) gives, written one m at a time
        _write_joined(f'{{\n  "discriminant": {chi.discriminant},\n  "values": [\n', ",\n", (
            f'    {{\n      "m": {m},\n      "re": "{_fmt(g.real)}",\n      "im": "{_fmt(g.imag)}",'
            f'\n      "abs": "{_fmt(abs(g))}"\n    }}' for m, g in gs), "\n  ]\n}\n")
        return 0
    print(config.echo())
    print(f"sqrt(D) = {_fmt(math.sqrt(chi.conductor))}")
    for m, g in gs:
        print(f"G({m}) = {_fmt(g.real)} + {_fmt(g.imag)}i  |G| = {_fmt(abs(g))}")
    return 0


def _cmd_lfunction(args, config):
    chi = make_character(args.disc)
    payload = {"L(1)": l_one(chi)}
    if args.derivative:
        payload["L'(1)"] = l_one_derivative(chi)
    _emit(payload, args.json, config)
    return 0


def _cmd_tables(args, config):
    if args.out is not None and args.dump is None:
        raise ValueError("--out needs --dump csv")
    if args.dump is not None and args.json:
        raise ValueError("--json conflicts with --dump csv: the run writes CSV and prints one line")
    chi = make_character(args.disc)
    N = args.limit
    t = sieve_tables(N, chi, cutoff=args.cutoff)
    if args.dump == "csv":
        path = _out_path(args.out or f"tables_{args.disc}_{N}.csv")
        path.parent.mkdir(parents=True, exist_ok=True)
        cols = (t.lam, t.nu, t.lam_prime, t.rho, t.Lam, t.rho_star, t.Lam_star)
        with path.open("w") as fh:
            fh.write("n,lambda,nu,lambda_prime,rho,Lambda,rho_star,rho_substar,"
                     "Lambda_star,Lambda_substar\n")
            for lo in range(1, N + 1, TILE):  # one tolist per stored column and tile
                fh.writelines(
                    f"{n},{lam},{nu},{lamp:.12g},{rho},{Lam:.12g},{rs},{rho - rs},{Ls:.12g},"
                    f"{Lam - Ls:.12g}\n"
                    for n, lam, nu, lamp, rho, Lam, rs, Ls in zip(
                        range(lo, N + 1), *(c[lo : lo + TILE].tolist() for c in cols)))
        print(config.echo())
        print(f"wrote {path} ({N} rows)")
        return 0
    _emit({
        "limit": N, "cutoff": t.cutoff,
        "sum_lambda": int(t.lam[1:].sum()),
        "sum_rho": int(t.rho[1:].sum()),
        "sum_lambda_prime": float(t.lam_prime[1:].sum()),
        "psi(N)": float(t.Lam[1:].sum()),
    }, args.json, config)
    return 0


def _cmd_divisor_sum(args, config):
    if args.x < 1:
        raise ValueError(f"--x must be >= 1, got {_fmt(args.x)}")
    check_memory_budget(f"--x {_fmt(args.x)}", int(args.x), "sieve_tables", "--x")
    chi = make_character(args.disc)
    t = sieve_tables(int(args.x), chi)
    val = divisor_sum(t, args.f, args.x)
    payload = {"f": args.f, "x": args.x, "sum": val}
    if args.residual:
        rep = asymptotic_residual(t, args.f, args.x)
        payload.update({"main": rep.main, "residual": rep.residual,
                        "normalized": rep.normalized})
    _emit(payload, args.json, config)
    return 0


def _cmd_psi_short(args, config):
    chi = make_character(args.disc)
    if (args.y is None) == (args.alpha is None):
        raise ValueError("need exactly one of --y and --alpha (y = x^alpha)")
    y = args.y if args.y is not None else args.x ** args.alpha
    rep = psi_counts(int(math.ceil(args.x)), chi, args.x, y, cutoff=args.cutoff)
    _emit({
        "x": rep.x, "y": rep.y, "psi": rep.psi, "psi_star": rep.psi_star,
        "psi_star_err": rep.psi_star_err, "psi_substar": rep.psi_substar,
        "pi_count": rep.pi_count,
        "li_window": rep.li_value, "main_term": rep.main_term, "ratio": rep.ratio,
    }, args.json, config)
    return 0


def _delta_payload(s) -> dict:
    return {
        "x": s.x, "d1": s.d1, "d2": s.d2, "d3": s.d3, "raw_sum": s.raw_sum,
        "residue": s.residue, "delta": s.delta, "bound_value": s.bound_value,
        "ratio": abs(s.delta) / s.bound_value,
    }


def _cmd_delta(args, config):
    c1, c2, c3 = (make_character(d) for d in (args.d1, args.d2, args.d3))
    s = triple_delta(c1, c2, c3, args.x, cap=args.cap, naive_check=args.naive_check)
    payload = _delta_payload(s)
    if args.naive_check:
        # triple_delta raised unless the convolution oracle equals raw_sum
        payload["naive_check"] = "passed"
        payload["naive_raw"] = s.raw_sum
    _emit(payload, args.json, config)
    return 0


def _cmd_delta_sweep(args, config):
    c1, c2, c3 = (make_character(d) for d in (args.d1, args.d2, args.d3))
    xs = _parse_grid(args.x_grid)
    samples = triple_deltas(c1, c2, c3, xs, cap=args.cap)

    path = _out_path(args.out)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.write(",".join(_delta_payload(samples[0])) + "\n")
        for s in samples:  # each row formatted as it is written
            fh.write(",".join(_fmt(v) for v in _delta_payload(s).values()) + "\n")
    print(config.echo())
    print(f"wrote {path} ({len(samples)} samples)")
    rep = bound_check(samples)
    print(f"max |delta|/bound = {_fmt(rep.max_ratio)}")
    if rep.trend_slope is not None:
        print(f"ratio trend slope = {_fmt(rep.trend_slope)} "
              f"({'FLAGGED: grows with x' if rep.flagged else 'no upward trend'})")
    pairs = [(s.x, abs(s.delta)) for s in samples if s.delta != 0]
    if len(pairs) >= 3 and len({p[0] for p in pairs}) >= 2:
        fit = exponent_fit(pairs)
        x_exp = simplified_main_bound().exponent("x")
        print(f"|delta| ~ x^{_fmt(fit.slope)} (r^2 = {_fmt(fit.r_squared)}); "
              f"simplified-bound x-exponent {x_exp} = {_fmt(float(x_exp))}")
    return 0


def _cmd_expsum(args, config):
    chi3 = make_character(args.d3)
    if args.D is None:
        args.D = float(chi3.conductor)
        config.params["D"] = args.D
    lo, hi = _parse_range(args.range)
    sig = int(args.sign)
    val = exp_sum(args.n1, args.n2, chi3, (lo, hi), args.x, args.D, args.m, sign=sig)
    _emit({
        "n1": args.n1, "n2": args.n2, "d3": args.d3, "m": args.m, "sign": sig,
        "range": f"{lo}:{hi}", "length": hi - lo + 1,
        "re": val.real, "im": val.imag, "abs": abs(val),
    }, args.json, config)
    return 0


def _cmd_feasibility(args, config):
    if args.minimal:
        given = [f"--{dest}".replace("_", "-") for dest in ("r", "claim_x", "claim_D")
                 if getattr(args, dest) is not None]
        if given:
            raise ValueError(f"--minimal conflicts with {', '.join(given)}: "
                             "it prints only the minimal r")
    _require_pair(args, "claim_x", "claim_D")
    theta = as_fraction(args.theta)
    if args.minimal:
        r = minimal_r(theta)
        lines = [f"minimal_r({theta}) = {'infeasible' if r is None else r}"]
    elif args.r is None:
        raise ValueError("need --r or --minimal")
    else:
        lines = [f"check(theta={theta}, r={args.r}) = {feas_check(theta, args.r)}"]
        if args.claim_x is not None:
            rep = claim_report(args.claim_x, theta, args.claim_D, args.r)
            lines.append(
                f"x >= D^r: {rep.x_ge_D_pow_r}; alpha in [0.4923, 1]: {rep.alpha_in_range}; "
                f"theta condition: {rep.theta_condition}; y-range: {rep.y_range_ok} "
                f"(y = {_fmt(rep.y_value)}, lower bound {_fmt(rep.y_lower_bound)})")
    print(config.echo())
    print("\n".join(lines))
    return 0


def _cmd_tau_moment(args, config):
    s = tau_moment_bound(args.cap, args.A)
    comp = math.log(args.cap) ** (2.0**args.A + 1.0)
    if not 0 < comp < math.inf or s / comp == math.inf:
        raise OverflowError(
            f"(log cap)^(2^A + 1) or the ratio leaves the float range at A = {args.A}")
    _emit({"sum": s, "log_power_comparison": comp, "ratio": s / comp}, args.json, config)
    return 0


def _cmd_verify_all(args, config):
    results = run_suite(quick=args.quick, seed=args.seed, overrides={
        "table_limit": args.table_limit, "delta_limit": args.delta_limit})
    print(config.echo())
    sys.stdout.write(format_report(results, seed=args.seed, quick=args.quick))
    return 0 if all(r.ok for r in results if r.gating) else 1


# ---------------------------------------------------------------------------
# Parser assembly.
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    p = _Parser(prog="deltalab", description=__doc__)
    p.add_argument("--version", action="version", version=f"deltalab {__version__}")
    sub = p.add_subparsers(dest="command", required=True, metavar="COMMAND")
    p.commands = sub.choices  # name -> subparser; its flags type --config values

    def add(name, fn, help_, json_output=True):
        sp = sub.add_parser(name, help=help_)
        sp.set_defaults(func=fn)
        sp.add_argument("--config", help="key=value file overriding flags")
        if json_output:
            sp.add_argument("--json", action="store_true", help="JSON output")
        return sp

    sp = add("tuple", _cmd_tuple, "derivative-test exponents at a given order")
    sp.add_argument("--order", type=int, required=True)
    sp.add_argument("--eval-M", type=finite, default=None)
    sp.add_argument("--eval-T", type=finite, default=None)
    sp.add_argument("--eps", type=finite, default=None)

    add("derive", _cmd_derive, "run the full symbolic bound derivation")

    sp = add("compare", _cmd_compare, "exact comparison of exponent fractions", json_output=False)
    sp.add_argument("--ours", default=None)
    sp.add_argument("--theirs", default=None)

    sp = add("character", _cmd_character, "tabulate a real character")
    sp.add_argument("--disc", type=int, required=True)
    sp.add_argument("--table", type=count, default=20)

    sp = add("gauss", _cmd_gauss, "Gauss sums G(m, chi)")
    sp.add_argument("--disc", type=int, required=True)
    sp.add_argument("--m", default="1")

    sp = add("lfunction", _cmd_lfunction, "L(1, chi) and optionally L'(1, chi)")
    sp.add_argument("--disc", type=int, required=True)
    sp.add_argument("--derivative", action="store_true")

    sp = add("tables", _cmd_tables, "sieve the convolution-function tables")
    sp.add_argument("--disc", type=int, required=True)
    sp.add_argument("--limit", type=count, required=True)
    sp.add_argument("--cutoff", type=count, default=None)
    sp.add_argument("--dump", choices=("csv",), default=None)
    sp.add_argument("--out", default=None)

    sp = add("divisor-sum", _cmd_divisor_sum, "exact partial sum of a table function")
    sp.add_argument("--f", required=True)
    sp.add_argument("--x", type=finite, required=True)
    sp.add_argument("--disc", type=int, required=True)
    sp.add_argument("--residual", action="store_true",
                    help="also report the main term and normalized residual")

    sp = add("psi-short", _cmd_psi_short, "short-interval psi/pi counts")
    sp.add_argument("--x", type=finite, required=True)
    sp.add_argument("--alpha", type=finite, default=None)
    sp.add_argument("--y", type=finite, default=None)
    sp.add_argument("--disc", type=int, required=True)
    sp.add_argument("--cutoff", type=count, default=None)

    sp = add("delta", _cmd_delta, "triple character sum remainder at one x")
    sp.add_argument("--d1", type=int, required=True)
    sp.add_argument("--d2", type=int, required=True)
    sp.add_argument("--d3", type=int, required=True)
    sp.add_argument("--x", type=finite, required=True)
    sp.add_argument("--cap", type=count, default=DEFAULT_RAW_CAP)
    sp.add_argument("--naive-check", action="store_true")

    sp = add("delta-sweep", _cmd_delta_sweep, "delta samples over an x grid, to CSV",
             json_output=False)
    sp.description = (
        "CSV columns: x, d1, d2, d3, raw_sum (exact integer), residue, "
        "delta (= raw_sum - residue), bound_value (max of the four final "
        "monomials at eps = 0), ratio (= |delta| / bound_value)."
    )
    sp.add_argument("--d1", type=int, required=True)
    sp.add_argument("--d2", type=int, required=True)
    sp.add_argument("--d3", type=int, required=True)
    sp.add_argument("--x-grid", required=True, help="lo:hi:geometric:n or lo:hi:linear:n")
    sp.add_argument("--out", default="samples.csv")
    sp.add_argument("--cap", type=count, default=DEFAULT_RAW_CAP)

    sp = add("expsum", _cmd_expsum, "inner exponential sum over an n3 range")
    sp.add_argument("--n1", type=int, required=True)
    sp.add_argument("--n2", type=int, required=True)
    sp.add_argument("--d3", type=int, required=True)
    sp.add_argument("--x", type=finite, required=True)
    sp.add_argument("--D", type=finite, default=None,
                    help="modulus product in the phase; defaults to the d3 conductor")
    sp.add_argument("--range", required=True, help="lo:hi inclusive")
    sp.add_argument("--m", type=count, required=True)
    sp.add_argument("--sign", default="1", choices=("1", "-1"))

    sp = add("feasibility", _cmd_feasibility, "exact (theta, r) condition", json_output=False)
    sp.add_argument("--theta", required=True)
    sp.add_argument("--r", type=int, default=None)
    sp.add_argument("--minimal", action="store_true")
    sp.add_argument("--claim-x", type=finite, default=None)
    sp.add_argument("--claim-D", type=finite, default=None)

    sp = add("tau-moment", _cmd_tau_moment, "divisor-moment sum vs its log power")
    sp.add_argument("--cap", type=count, required=True)
    sp.add_argument("--A", type=finite, required=True)

    sp = add("verify-all", _cmd_verify_all, "run the whole invariant suite", json_output=False)
    sp.add_argument("--seed", type=int, default=0, help="seed for the sampled checks")
    sp.add_argument("--quick", action="store_true",
                    help="reduced limits: tables 1e5, delta 1e4")
    sp.add_argument("--table-limit", type=count, default=None)
    sp.add_argument("--delta-limit", type=count, default=None)

    return p


def run(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else 0
    try:
        config = _resolve_config(args, parser.commands[args.command])
        for flag in ("disc", "d1", "d2", "d3"):  # every flag that names a character
            d = getattr(args, flag, None)
            if d is not None:
                check_memory_budget(f"--{flag} {d}", abs(d), "period_table", f"|--{flag}|")
        return args.func(args, config)
    except DerivationRegressionError as e:
        print(f"derivation regression: {e}", file=sys.stderr)
        return 2
    except IdentityCheckError as e:
        print(f"identity regression: {e}", file=sys.stderr)
        return 2
    except OracleMismatchError as e:
        print(f"oracle regression: {e}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
    except BrokenPipeError:  # the reader has gone: the rest of stdout goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
