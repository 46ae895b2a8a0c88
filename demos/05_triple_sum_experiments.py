#!/usr/bin/env python3
"""Measure the triple-sum remainder delta against the symbolic bound.

The raw sums are exact integers from the three-variable hyperbola; the
residue of the L-product is subtracted; ratios |delta| / bound and a
fitted growth exponent are reported (report-only by design: constants and
the x^eps factor make pass/fail assertions meaningless at desk scale)."""

from deltalab import bound_check, make_character, triple_delta
from deltalab.delta import exponent_fit, naive_triple_raw, triple_deltas

triv = make_character(1)
chi4 = make_character(-4)
chi5 = make_character(5)

print("=" * 72)
print("Triple-sum experiments")
print("=" * 72)

print("\nOracle spot check: hyperbola vs the convolution chi1*chi2*chi3 at x = 2000")
for trip in ((triv, triv, triv), (triv, triv, chi4), (chi4, chi5, chi5)):
    s = triple_delta(*trip, 2000)
    oracle = naive_triple_raw(*trip, 2000)
    discs = tuple(c.discriminant for c in trip)
    print(f"   {str(discs):>12}: raw = {s.raw_sum:>8} oracle = {oracle:>8} equal = {s.raw_sum == oracle}")

print("\nSweep (1, 1, -4): two zeta factors against one character")
samples = triple_deltas(triv, triv, chi4,
                        (10**3, 3 * 10**3, 10**4, 3 * 10**4, 10**5, 3 * 10**5, 10**6))
print(f"{'x':>9} {'raw':>10} {'residue':>14} {'delta':>10} {'bound':>10} {'ratio':>8}")
for s in samples:
    print(f"{s.x:>9.3g} {s.raw_sum:>10} {s.residue:>14.2f} {s.delta:>10.2f} "
          f"{s.bound_value:>10.1f} {abs(s.delta)/s.bound_value:>8.4f}")

rep = bound_check(samples)
print(f"\nmax |delta|/bound = {rep.max_ratio:.4f} over {rep.n_samples} samples")
print(f"ratio trend slope = {rep.trend_slope:+.4f} "
      f"({'flagged: grows with x' if rep.flagged else 'no upward trend'})")

pairs = [(s.x, abs(s.delta)) for s in samples if s.delta]
fit = exponent_fit(pairs)
print(f"|delta| ~ x^{fit.slope:.4f} (r^2 = {fit.r_squared:.3f}); "
      f"the simplified bound allows x^{511/1038:.4f}")

print("\nAll three characters nontrivial: no pole, delta is the raw sum itself")
s = triple_delta(chi4, chi5, chi4, 10**5)
print(f"   x = 1e5: raw = {s.raw_sum}, residue = {s.residue}, "
      f"|delta|/bound = {abs(s.delta)/s.bound_value:.5f}")
