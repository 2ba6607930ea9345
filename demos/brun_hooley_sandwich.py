"""Brun weights, the divisor-sum sandwich, and Hooley's neutraliser.

The truncated Moebius weights bracket the indicator of integers free of
prime factors below w.  Feeding a multiplicative density through the same
weights brackets the corresponding Euler product; with the full Moebius
table the bracket collapses to the product exactly.
"""

from bhlab.poly import IntPolynomial
from bhlab.sieve import (build_brun_weights, density_product,
                         neutralised_bounds, sandwich_check, sieve_sum,
                         truncated_density_product)

w, y = 12.0, 1e3
lower = build_brun_weights(w, y, "lower")
upper = build_brun_weights(w, y, "upper")
print(f"w = {w}, y = {y}")
for weights in (lower, upper):
    table = {k: weights.table[k] for k in weights.support}
    print(f"{weights.parity} weights (level {weights.level}): {table}")

rep = sandwich_check(lower, upper, 10**5)
print(f"sandwich over n <= 1e5: {rep.violations} violations")

# telescoping: pushing y far out deactivates the truncation
big = build_brun_weights(w, w**26, "upper")
h = lambda l: (l - 1) / l**2
print(f"sieve_sum with full Moebius table = {sieve_sum(big, h):.15f}")
print(f"Euler product of the same density = {density_product(w, h):.15f}")

# the neutralised bounds bracket the truncated squared-series factor
P = IntPolynomial((1, 0, 1))
for z in (6.0, 12.0, 20.0):
    lo = build_brun_weights(z, 1e3, "lower")
    up = build_brun_weights(z, 1e3, "upper")
    got = neutralised_bounds(P, z, lo, up)
    direct = truncated_density_product(P, z)
    print(f"z = {z:4}: {got.lower:.6f} <= {direct:.6f} <= {got.upper:.6f}")
