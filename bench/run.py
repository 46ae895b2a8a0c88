#!/usr/bin/env python3
"""deltalab benchmark: one workload, one closed-loop caller, one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; deltalab is imported from src/.
The next op starts only after the previous one finished.  Ops run in whole
rounds (see workloads.py) until --seconds of wall time have passed; each
op's output is checked after the timed loop.  Op times are converted to
reference-speed seconds (see speed.py).  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}, with the
end-to-end metrics for --trace 0 and the per-layer metrics for --trace 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from speed import SpeedProbe, speed_factor  # noqa: E402
from tracing import LAYER_METRICS, Tracer  # noqa: E402

#: Child processes timed per run for setup_s; the median is reported.
SETUP_SAMPLES = 7

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "op_s.p90": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def load_deltalab():
    """Import deltalab from this checkout's src/ with the modules it loads
    lazily (scipy.integrate, mpmath), so set-up pays for all of them."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import deltalab
    from deltalab import characters, cli, delta, sieves, tables  # noqa: F401
    import mpmath  # noqa: F401
    import scipy.integrate  # noqa: F401

    if Path(deltalab.__file__).resolve().parent != src / "deltalab":
        raise ImportError(f"deltalab imported from {deltalab.__file__}, not from {src}")
    return deltalab


def setup(workload: str, seed: int):
    """Everything a run does before its first op: import, inputs, characters."""
    dl = load_deltalab()
    rounds = workloads.generate(workload, seed, dl.characters)
    chars = workloads.build_characters(workload, rounds, dl.characters)
    return dl, rounds, chars


def setup_samples(workload: str, seed: int) -> list:
    """(raw, reference) seconds of SETUP_SAMPLES fresh processes that only
    set up, interpreter start included: what a user pays on every CLI call.
    Each one ends when the child prints its clock after set-up: perf_counter
    reads the system-wide monotonic clock, and timing the child's exit
    instead would add subprocess's 50 ms polling steps.  The host's speed
    is probed right before and right after each one."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    probe, out = SpeedProbe(), []
    for _ in range(SETUP_SAMPLES):
        first = len(probe.samples)
        for _ in range(3):
            probe.sample()
        t0 = perf_counter()
        child = subprocess.run(cmd, check=True, timeout=120, capture_output=True, text=True)
        raw = float(child.stdout.split()[-1]) - t0
        for _ in range(3):
            probe.sample()
        out.append((raw, raw * speed_factor(probe.samples[first:])))
    return out


def harrell_davis(values, p: float) -> float:
    """The p-quantile by the Harrell-Davis estimator: a beta-weighted mean
    of all order statistics.  With the 4 to 20 ops of a run it varies far
    less from run to run than any single order statistic."""
    from scipy.special import betainc

    x = sorted(values)
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [float(betainc(a, b, i / n)) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x[i] for i in range(n))


def _exception_line() -> str:
    return traceback.format_exc(limit=-1).strip().splitlines()[-1]


def measure(workload, rounds, chars, dl, seconds, tracer):
    """Closed loop over whole rounds until `seconds` have passed.  Returns
    [(op, raw seconds, reference seconds, digested output or None, error
    or None)]."""
    records = []
    start = perf_counter()
    with SpeedProbe() as probe:
        if tracer:
            tracer.probe = probe
        for ops in rounds:
            if perf_counter() - start >= seconds:
                break
            for op in ops:
                span = tracer.op(len(records)) if tracer else contextlib.nullcontext()
                err = out = raw = None
                t0 = perf_counter()
                try:
                    with span:
                        raw = workloads.execute(workload, op, chars, dl)
                except Exception:  # an op that raises is a failed op, not a crash
                    err = _exception_line()
                t1 = perf_counter()
                secs, ref = probe.reference_seconds(t0, t1)
                if err is None:
                    try:
                        out = workloads.digest(workload, raw, dl)
                    except Exception:
                        err = _exception_line()
                records.append((op, secs, ref, out, err))
    return records


def run(args) -> dict:
    dl, rounds, chars = setup(args.workload, args.seed)
    setup_s = [] if args.trace else setup_samples(args.workload, args.seed)

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        records = measure(args.workload, rounds, chars, dl, args.seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.measure_table_memory(dl.tables)

    # Output checks, outside the timed region; a failed check is counted.
    checked = []
    for op, secs, ref, out, err in records:
        if err is None:
            try:
                err = workloads.check(args.workload, op, out, chars, dl)
            except Exception:
                err = "check raised " + _exception_line()
        checked.append((op, secs, ref, err))

    times = [ref for _, _, ref, _ in checked]
    failed = sum(1 for *_, err in checked if err is not None)
    ops_per_s = (len(times) - failed) / sum(times)
    if tracer:
        metrics = tracer.layer_metrics()
        metrics["trace.ops_per_s"] = ops_per_s
    else:
        metrics = {
            "ops_per_s": ops_per_s,
            "op_s.p50": harrell_davis(times, 0.5),
            "op_s.p90": harrell_davis(times, 0.9),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(ref for _, ref in setup_s),
        }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "setup_samples_s": [{"s": raw, "ref_s": ref} for raw, ref in setup_s],
        "metrics": metrics,
        "raw_ops_per_s": (len(times) - failed) / sum(secs for _, secs, _, _ in checked),
        "ops": [{"op": list(op), "s": secs, "ref_s": ref, "error": err}
                for op, secs, ref, err in checked],
    }
    if tracer:
        record["self_s_ranking"] = tracer.self_time_ranking()
        tracer.write_spans(OUT / f"{stem}.spans.jsonl.gz")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for op, _, _, err in checked:
        if err is not None:
            print(f"FAILED {op}: {err}", file=sys.stderr)
    return {"times": times, "failed": failed, "metrics": metrics, "tracer": tracer,
            "raw_ops_per_s": record["raw_ops_per_s"]}


def unit(name: str) -> str:
    return END_TO_END_UNITS.get(name) or LAYER_METRICS[name]


def print_summary(args, res) -> None:
    n, failed = len(res["times"]), res["failed"]
    print(f"# deltalab bench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"# ops={n} (op_s percentiles: Harrell-Davis over these {n} samples) "
          f"failed={failed} fail_ratio={failed / n:.6g}")
    print(f"# times are reference-speed seconds (bench/speed.py); "
          f"raw wall ops_per_s={res['raw_ops_per_s']:.6g}")
    for name, value in res["metrics"].items():
        print(f"{name:48s} {value:.6g} {unit(name)}")
    if res["tracer"]:
        from deltalab import tables

        if res["tracer"].peak_bytes_per_entry:
            print(f"# tables.sieve_tables.peak_bytes_per_entry is tracemalloc peak / N; "
                  f"tables._BYTES_PER_ENTRY = {tables._BYTES_PER_ENTRY}")
        print("# largest self time per op:")
        for name, v in res["tracer"].self_time_ranking()[:5]:
            print(f"#   {name:44s} {v:.4g} s")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    try:
        if args.setup_only:
            setup(args.workload, args.seed)
            print(repr(perf_counter()))
            return 0
        res = run(args)
    except ImportError as e:
        print(f"error: cannot import deltalab from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    n, failed = len(res["times"]), res["failed"]
    print_summary(args, res)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)}
                    for k, v in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
