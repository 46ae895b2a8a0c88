#!/usr/bin/env python3
"""Every end-to-end metric of every workload in one table, plus the
tracing overhead and the largest self times of the traced run.

    python3 bench/report.py [--seed N] [--seconds S] [--workloads a,b,...]

Runs bench/run.py once untraced and once traced per workload, one process
at a time, and writes the table to bench/out/report-seed<N>.json too.
Tracing overhead = 1 - traced ops_per_s / untraced ops_per_s.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from run import END_TO_END_UNITS, OUT  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=BENCH.parent)
    if p.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {p.returncode}:\n{p.stderr}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    args = ap.parse_args(argv)

    rows = {}
    for w in args.workloads.split(","):
        plain = run_once(w, args.seed, args.seconds, 0)
        traced = run_once(w, args.seed, args.seconds, 1)
        m = {k: v["value"] for k, v in plain["metrics"].items()}
        m["fail_ratio"] = plain["failed"] / plain["attempted"]
        m["samples"] = plain["attempted"]
        m["traced_ops_per_s"] = traced["metrics"]["trace.ops_per_s"]["value"]
        m["trace_overhead"] = 1 - m["traced_ops_per_s"] / m["ops_per_s"]
        stem = f"{w}-seed{args.seed}-trace1"
        m["top_self_s"] = json.loads((OUT / f"{stem}.json").read_text())["self_s_ranking"][:3]
        m["correct"] = plain["correct"] and traced["correct"]
        rows[w] = m

    units = dict(END_TO_END_UNITS, fail_ratio="1", traced_ops_per_s="1/s", trace_overhead="1")
    cols = ["ops_per_s", "op_s.p50", "op_s.p90", "peak_rss_mb", "setup_s", "fail_ratio",
            "traced_ops_per_s", "trace_overhead"]
    print(f"# seed={args.seed} seconds={args.seconds}; op_s percentiles are over "
          "the n ops of the untraced run")
    print(f"{'workload':14s} {'n':>3s} " + " ".join(f"{c + ' (' + units[c] + ')':>22s}" for c in cols))
    for w, m in rows.items():
        print(f"{w:14s} {m['samples']:3d} " + " ".join(f"{m[c]:22.4g}" for c in cols))
    print("# largest self time per op in the traced run (s):")
    for w, m in rows.items():
        print(f"#   {w:14s} " + "; ".join(f"{name} {v:.3g}" for name, v in m["top_self_s"]))
    OUT.mkdir(exist_ok=True)
    (OUT / f"report-seed{args.seed}.json").write_text(json.dumps(rows, indent=1) + "\n")
    return 0 if all(m["correct"] for m in rows.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
