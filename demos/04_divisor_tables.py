#!/usr/bin/env python3
"""Sieve the convolution-function tables, verify every identity exactly at
the log-coefficient level, and watch the divisor-sum residuals stay inside
their error monomials."""

from deltalab import (
    asymptotic_residual,
    divisor_sum,
    make_character,
    sieve_tables,
    verify_table_identities,
)

chi = make_character(-4)
N = 10**5

print("=" * 72)
print(f"Tables for chi_-4 up to N = {N} (cutoff D^2 = {chi.conductor ** 2})")
print("=" * 72)

t = sieve_tables(N, chi)
rho_sub = t.rho_substar  # a view, rho - rho*: built once here
hdr = f"{'n':>4} {'lam':>4} {'nu':>4} {'rho':>4} {'rho*':>5} {'rho_*':>6} {'lam_prime':>10} {'Lambda':>8}"
print("\n" + hdr)
for n in (1, 2, 3, 4, 6, 8, 9, 12, 16, 30, 97):
    print(f"{n:>4} {t.lam[n]:>4} {t.nu[n]:>4} {t.rho[n]:>4} {t.rho_star[n]:>5} "
          f"{rho_sub[n]:>6} {t.lam_prime[n]:>10.5f} {t.Lam[n]:>8.5f}")

rep = verify_table_identities(t)
print(f"\nIdentity check: {rep.primes_checked} primes, every convolution "
      f"identity exact; float arrays within {rep.max_float_deviation:.1e} of "
      "the exact-coefficient evaluation")

print("\nPartial sums against their smooth main terms:")
print(f"{'f':>14} {'x':>9} {'partial sum':>16} {'main term':>16} {'resid':>10} {'normalized':>11}")
for f in ("lambda", "lambda_prime", "rho"):
    for x in (10**3, 10**4, 10**5):
        s = divisor_sum(t, f, x)
        a = asymptotic_residual(t, f, x)
        print(f"{f:>14} {x:>9} {float(s):>16.4f} {a.main:>16.4f} "
              f"{a.residual:>10.4f} {a.normalized:>11.5f}")

print("\nnormalized = residual / error-monomial(D, x); staying O(1) is the "
      "consistency signal.")
