#!/usr/bin/env python3
"""Walk the derivative-test exponent recursion.

Shows the exact order-4 base data, a few recursion steps, the decay of the
T-exponent b_r, and how the four-term bound evaluates numerically.
"""

from fractions import Fraction

from deltalab import base_tuple, bound_eval, derive_tuple, step

print("=" * 72)
print("Derivative-test exponents: base data and recursion")
print("=" * 72)

t = base_tuple()
print(f"\norder 4 (base): {t}")

for _ in range(4):
    t = step(t)
    print(f"order {t.order}: a={t.a}  b={t.b}  alpha={t.alpha}")

print("\nThe division by 2(b+1) halves b each time, roughly:")
ident_hdr = "2(b+1)b' == b"
print(f"{'order':>6} {'b_r':>22} {'float':>12} {ident_hdr:>15}")
prev = base_tuple()
for r in range(5, 17):
    cur = step(prev)
    ident = 2 * (prev.b + 1) * cur.b == prev.b
    print(f"{r:>6} {str(cur.b):>22} {float(cur.b):>12.3e} {str(ident):>15}")
    prev = cur

print("\nderive_tuple(r) is the recursion in closed form, with k = r - 4, u = 2^k,")
print("q = 110u - 26:")
print("  a = (110u - 68 - 13k)/q      b = 13/q (+eps)     eta = 31/q (+eps)")
print("  xi = (110u^2 - 105u - 31ku - 5)/(qu)            delta = 42/q")
print("  gamma = (110u^2 - 68u + 42ku + 42)/(qu)         alpha = 1 - 77/(411u)")
t = base_tuple()
for r in range(4, 21):
    k, u = r - 4, Fraction(2 ** (r - 4))
    q = 110 * u - 26
    closed = ((110 * u - 68 - 13 * k) / q, 13 / q,
              (110 * u**2 - 105 * u - 31 * k * u - 5) / (q * u), 31 / q, 1 - 77 / (411 * u),
              (110 * u**2 - 68 * u + 42 * k * u + 42) / (q * u), 42 / q)
    assert derive_tuple(r) == t and (t.a, t.b, t.xi, t.eta, t.alpha, t.gamma, t.delta) == closed
    if r in (4, 6, 10, 20):
        print(f"  order {r}: " + "  ".join(f"{n}={v}" for n, v in zip(
            ("a", "b", "xi", "eta", "alpha", "gamma", "delta"), closed)))
    t = step(t)
print("(equal to the step recursion at every order 4..20)")

print("\nNumeric value of the four-term bound at order 5:")
t5 = derive_tuple(5)
for M, T in ((1.0, 1.0), (2.0**10, 2.0**20), (1e5, 1e8)):
    print(f"  M = {M:10.4g}  T = {T:10.4g}  bound = {bound_eval(t5, M, T):12.6g}")
