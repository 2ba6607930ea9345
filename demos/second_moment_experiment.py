"""The family second moment of psi_P(x) - x S_P(z), exhaustive and sampled.

An exhaustive pass over a small family shows the algebraic decomposition
direct = diag + nondiag - 2x cross + x^2 ssq holding to machine precision.
A Monte Carlo pass over a family far too large to enumerate reproduces the
small-family mean within its jackknife error bar, and a sweep over H shows
the mean growing by the same amount per decade of H: linear in log H.
"""

import math

from bhlab.moments import diagonal_term, second_moment
from bhlab.poly import FamilySpec

spec = FamilySpec(d=2, H=50)
x = z = 10
rep = second_moment(spec, x, z)
print(f"exhaustive d=2 H=50, {rep.visit_count} polynomials, x = z = {x}")
for key in rep.FIELDS:
    print(f"  raw {key:8s} = {rep.raw[key]:.6f}")
print(f"  decomposition residual = {rep.decomposition_residual():.2e}")
print(f"  normalized direct term = {rep.normalized('direct'):.6f}")
print(f"  x log H for comparison = {x * math.log(spec.H):.6f}")

print()
mc_spec = FamilySpec(d=2, H=5 * 10**5, mode="montecarlo",
                     sample_count=2 * 10**5, seed=1)
mc = second_moment(mc_spec, x, z)
print(f"Monte Carlo d=2 H=5e5, {mc.visit_count} samples")
print(f"  mean direct = {mc.mean('direct'):.4f} +- {mc.mc_stderr:.4f}")
print(f"  x log H     = {x * math.log(mc_spec.H):.4f}")

print()
print("Monte Carlo mean direct term per decade of H, 1e5 samples, x = z = 10")
for d, top in ((1, 6), (2, 5)):
    prev = None
    for e in range(3, top + 1):
        rep = second_moment(FamilySpec(d=d, H=10**e, mode="montecarlo",
                                       sample_count=10**5, seed=1), x, z)
        mean = rep.mean("direct")
        step = "" if prev is None else f", slope per decade = {mean - prev:.2f}"
        print(f"  d={d} H=1e{e}: mean = {mean:.2f} +- {rep.mc_stderr:.2f}"
              + step)
        prev = mean

print()
print("diagonal term against its 2 H log H main term")
for H in (10**4, 10**5, 10**6):
    got = diagonal_term(0, H)
    print(f"  H = {H:8d}: value = {got.value:16.2f}, "
          f"deviation / (H loglog H) = {got.deviation:6.3f}")
