"""Per-layer tracing from outside the program.

``Tracer.install`` replaces chosen public functions of deltalab with
wrappers in every ``deltalab`` module namespace that binds them, so nested
calls are seen too: ``verify`` -> ``tables.sieve_tables`` ->
``sieves.mobius_array``, ``triple_raw_sum`` -> ``pair_summatory``,
``psi_counts`` -> ``nu_value``.  Spans (name, start, end, parent, op id)
stay in memory and are written out when the run ends.  Span seconds are
reference seconds, as op times are: the wall time of each span, less the
speed probe's samples that ran inside it, times its op's ratio of
reference to raw seconds (see speed.py).  One ratio per op keeps the spans
additive, so a span's self time, its seconds minus those of its direct
child spans, is never negative, and an op's self times add up to its op
time.

Functions whose only metric is a call count are counted, not spanned
(``kronecker`` runs about 4e5 times per verify-quick op, and spans there
would swamp what they measure); their time stays in the self time of the
span that called them.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import tracemalloc
from collections import Counter, defaultdict
from time import perf_counter
from typing import Dict, List, Optional

SPAN, COUNT = "span", "count"

#: Largest N at which the table memory is measured under tracemalloc.
TABLE_MEMORY_N = 10**5

#: (module, function, mode) for every traced function.
TARGETS = (
    ("cli", "run", SPAN),
    ("verify", "run_suite", SPAN),
    ("exponents", "derive_tuple", SPAN),
    ("exponents", "step", COUNT),
    ("monomials", "derive_main_theorem", SPAN),
    ("feasibility", "check", SPAN),
    ("characters", "make_character", COUNT),
    ("characters", "kronecker", COUNT),
    ("characters", "gauss_sum", SPAN),
    ("characters", "l_one", SPAN),
    ("characters", "l_one_series", SPAN),
    ("characters", "l_one_derivative", SPAN),
    ("characters", "residue_main_term", SPAN),
    ("sieves", "prime_mask", SPAN),
    ("sieves", "mobius_array", SPAN),
    ("sieves", "smallest_prime_factor", SPAN),
    ("sieves", "tau_array", SPAN),
    ("sieves", "von_mangoldt_window", SPAN),
    ("tables", "sieve_tables", SPAN),
    ("tables", "verify_table_identities", SPAN),
    ("tables", "asymptotic_residual", SPAN),
    ("tables", "psi_counts", SPAN),
    ("tables", "nu_value", COUNT),
    ("tables", "lam_prime_summatory", SPAN),
    ("delta", "triple_delta", SPAN),
    ("delta", "triple_raw_sum", SPAN),
    ("delta", "pair_summatory", SPAN),
    ("delta", "theorem_bound_value", SPAN),
    ("delta", "naive_triple_raw_prefix", SPAN),
    ("delta", "hyperbola_raw_prefix", SPAN),
)

#: The per-layer metrics a traced run reports, with their units.  Values
#: are means per op (counts and seconds), except the two ratios and the
#: traced run's own throughput, trace.ops_per_s.
LAYER_METRICS = {
    "cli.run.s": "s",
    "cli.run.self_s": "s",
    "verify.run_suite.s": "s",
    "verify.run_suite.self_s": "s",
    "exponents.derive_tuple.s": "s",
    "exponents.step.calls": "count",
    "monomials.derive_main_theorem.s": "s",
    "feasibility.check.calls": "count",
    "feasibility.check.s": "s",
    "characters.make_character.calls": "count",
    "characters.kronecker.calls": "count",
    "characters.gauss_sum.calls": "count",
    "characters.gauss_sum.s": "s",
    "characters.l_one.s": "s",
    "characters.l_one_series.s": "s",
    "characters.l_one_derivative.s": "s",
    "characters.residue_main_term.calls": "count",
    "characters.residue_main_term.s": "s",
    "sieves.prime_mask.s": "s",
    "sieves.mobius_array.s": "s",
    "sieves.smallest_prime_factor.s": "s",
    "sieves.tau_array.s": "s",
    "sieves.von_mangoldt_window.s": "s",
    "sieves.von_mangoldt_window.elements": "count",
    "tables.sieve_tables.calls": "count",
    "tables.sieve_tables.s": "s",
    "tables.sieve_tables.self_s": "s",
    "tables.sieve_tables.entries": "count",
    "tables.sieve_tables.peak_bytes_per_entry": "B",
    "tables.verify_table_identities.s": "s",
    "tables.verify_table_identities.self_s": "s",
    "tables.verify_table_identities.primes_checked": "count",
    "tables.asymptotic_residual.s": "s",
    "tables.psi_counts.s": "s",
    "tables.psi_counts.self_s": "s",
    "tables.nu_value.calls": "count",
    "tables.nu_value.useful_ratio": "ratio",
    "tables.lam_prime_summatory.calls": "count",
    "tables.lam_prime_summatory.s": "s",
    "delta.triple_delta.calls": "count",
    "delta.triple_delta.s": "s",
    "delta.triple_raw_sum.s": "s",
    "delta.triple_raw_sum.self_s": "s",
    "delta.pair_summatory.calls": "count",
    "delta.pair_summatory.s": "s",
    "delta.theorem_bound_value.s": "s",
    "delta.naive_triple_raw_prefix.s": "s",
    "delta.hyperbola_raw_prefix.s": "s",
    "trace.ops_per_s": "1/s",
}


class Tracer:
    """Spans and counters for the calls made inside ``op(...)`` blocks."""

    def __init__(self):
        self.spans: List[tuple] = []  # (op, span id, parent id, name, start, end)
        self.calls: Counter = Counter()
        # Counters computed from arguments or results, keyed by metric name.
        self.extra: Counter = Counter()
        self.peak_bytes_per_entry = 0.0
        self.first_table_call = None  # (args, chi) of the first sieve_tables call
        self.ops = 0
        #: The run's speed.SpeedProbe; set before the first op.
        self.probe = None
        self._seconds = None
        self._op: Optional[int] = None
        self._stack: List[int] = []
        self._patched: List[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "deltalab" or name.startswith("deltalab.")]
        for modname, fname, mode in TARGETS:
            orig = getattr(importlib.import_module(f"deltalab.{modname}"), fname)
            wrapper = self._wrap(f"{modname}.{fname}", orig, mode)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._patched.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def _wrap(self, name: str, fn, mode: str):
        calls, extra, stack, spans = self.calls, self.extra, self._stack, self.spans
        hook = _HOOKS.get(name)

        if mode == COUNT:
            def counted(*args, **kwargs):
                if self._op is None:
                    return fn(*args, **kwargs)
                calls[name] += 1
                out = fn(*args, **kwargs)
                if hook:
                    hook(self, args, out)
                return out
            return counted

        def spanned(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            calls[name] += 1
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid] = (self._op, sid, parent, name, t0, t1)
            if hook:
                hook(self, args, out)
            return out
        return spanned

    # -- ops and memory -------------------------------------------------------

    def measure_table_memory(self, tables) -> None:
        """tracemalloc peak / N of sieve_tables, replayed once, untimed,
        with the first traced call's character at N = min(its N, 1e5).
        tracemalloc slows sieve_tables about elevenfold, so it never runs
        inside a traced op; the peak per entry hardly depends on N (89.03 B
        at 1e5, 89.00 B at 1e6 for D = -163)."""
        if self.first_table_call is None:
            return
        args, chi = self.first_table_call
        n = min(int(args[0]), TABLE_MEMORY_N)
        tracemalloc.start()
        try:
            tables.sieve_tables(n, chi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.peak_bytes_per_entry = peak / n

    def op(self, op_id: int):
        return _OpSpan(self, op_id)

    # -- results --------------------------------------------------------------

    def _times(self):
        """Total and self reference seconds per function name over all op
        spans."""
        if self._seconds is not None:
            return self._seconds
        ratio = {}
        for op, _, parent, _, t0, t1 in self.spans:
            if parent == -1:
                raw, ref = self.probe.reference_seconds(t0, t1)
                ratio[op] = ref / raw
        secs = [self.probe.reference_seconds(t0, t1)[0] * ratio[op]
                for op, *_, t0, t1 in self.spans]
        child: Dict[int, float] = defaultdict(float)
        for (_, _, parent, *_), t in zip(self.spans, secs):
            child[parent] += t
        total: Dict[str, float] = defaultdict(float)
        own: Dict[str, float] = defaultdict(float)
        for (_, sid, _, name, *_), t in zip(self.spans, secs):
            total[name] += t
            own[name] += t - child[sid]
        self._seconds = total, own
        return self._seconds

    def layer_metrics(self) -> Dict[str, float]:
        """Every LAYER_METRICS entry but the traced throughput, as means per
        op, except the two ratios; 0 where a layer never ran in the run."""
        total, own = self._times()
        ops = max(self.ops, 1)
        out = {}
        for key in LAYER_METRICS:
            name, field = key.rsplit(".", 1)
            if name == "trace":
                continue
            if field == "calls":
                out[key] = self.calls[name] / ops
            elif field == "s":
                out[key] = total[name] / ops
            elif field == "self_s":
                out[key] = own[name] / ops
            elif field == "useful_ratio":
                out[key] = self.extra[key] / self.calls[name] if self.calls[name] else 0.0
            elif field == "peak_bytes_per_entry":
                out[key] = self.peak_bytes_per_entry
            else:
                out[key] = self.extra[key] / ops
        return out

    def self_time_ranking(self) -> List[tuple]:
        """(function, self seconds per op) of every spanned function, largest first."""
        _, own = self._times()
        ops = max(self.ops, 1)
        return sorted(((k, v / ops) for k, v in own.items() if k != "op"), key=lambda kv: -kv[1])

    def write_spans(self, path) -> None:
        """One JSON array per line: op, span id, parent id, name, start, end."""
        with gzip.open(path, "wt") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


class _OpSpan:
    """Root span of one op; every traced call inside it becomes a child."""

    def __init__(self, tracer: Tracer, op_id: int):
        self.tracer, self.op_id = tracer, op_id

    def __enter__(self):
        tr = self.tracer
        self.sid = len(tr.spans)
        tr.spans.append(None)
        tr._op = self.op_id
        tr._stack.append(self.sid)
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        t1 = perf_counter()
        tr._stack.pop()
        tr.spans[self.sid] = (self.op_id, self.sid, -1, "op", self.t0, t1)
        tr._op = None
        tr.ops += 1
        return False


def _window_elements(tr: Tracer, args, out) -> None:
    lo, hi = int(args[0]), int(args[1])
    tr.extra["sieves.von_mangoldt_window.elements"] += max(hi - lo, 0)


def _table_entries(tr: Tracer, args, out) -> None:
    tr.extra["tables.sieve_tables.entries"] += out.limit
    if tr.first_table_call is None:
        tr.first_table_call = (args, out.chi)


def _primes_checked(tr: Tracer, args, out) -> None:
    tr.extra["tables.verify_table_identities.primes_checked"] += out.primes_checked


def _nu_useful(tr: Tracer, args, out) -> None:
    if out:
        tr.extra["tables.nu_value.useful_ratio"] += 1


_HOOKS = {
    "sieves.von_mangoldt_window": _window_elements,
    "tables.sieve_tables": _table_entries,
    "tables.verify_table_identities": _primes_checked,
    "tables.nu_value": _nu_useful,
}
