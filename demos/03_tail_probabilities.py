"""Single and pairwise upper-tail probabilities of the studentized ratio.

Monte Carlo estimates with their guards and intervals, compared against
the exact finite-sample reference (for Gaussian rows) and the bivariate
normal limit (for pairs), plus the large-deviation decay diagnostics.
"""

from exceedlab import exceedance as xc
from exceedlab import panelgen as pg
from exceedlab.numerics import bivariate_normal_tail
from exceedlab.studentize import normal_r_sf

print("=" * 70)
print("1. Single-row tails vs the exact finite-sample law")
print("=" * 70)
n = 400
spec = pg.PanelSpec(
    p=10, n=n, model=pg.DependenceModel.iid(), law=pg.InnovationLaw.normal(),
    seed=101,
)
print(f"  n = {n}, iid standard normal rows, 2e6 replicates per level")
print(f"  {'s':>4s} {'estimate':>11s} {'exact':>11s} {'within CI':>9s} "
      f"{'-log(p)/(s^2/2)':>16s}")
for s in (1.5, 2.0, 2.5):
    est = xc.tail_probability(spec, (1,), s, 2_000_000)
    exact = normal_r_sf(s, n)
    inside = est.wilson_low <= exact <= est.wilson_high
    print(f"  {s:4.1f} {est.estimate:11.3e} {exact:11.3e} {str(inside):>9s} "
          f"{est.exponent:16.4f}")
print("  The decay exponent approaches 1 from above as the level grows.")

print("\n" + "=" * 70)
print("2. The hit-count guard refuses starved estimates")
print("=" * 70)
try:
    xc.tail_probability(spec, (1,), 4.5, 10_000)
except xc.InsufficientReplicates as err:
    print(f"  s = 4.5 with 1e4 replicates -> rejected: {err}")
    print(f"  (required attribute: {err.required:,d})")

print("\n" + "=" * 70)
print("3. Offsets push the tail up (paired-seed comparison)")
print("=" * 70)
flat = pg.PanelSpec(p=10, n=100, model=pg.DependenceModel.iid(),
                    law=pg.InnovationLaw.normal(), seed=7)
shifted = pg.PanelSpec(p=10, n=100, model=pg.DependenceModel.iid(),
                       law=pg.InnovationLaw.normal(), seed=7,
                       offsets=((1, 0.2),))
a = xc.tail_probability(flat, (1,), 2.0, 500_000)
b = xc.tail_probability(shifted, (1,), 2.0, 500_000)
print(f"  P(R > 2) with d = 0.0: {a.estimate:.4f}")
print(f"  P(R > 2) with d = 0.2: {b.estimate:.4f}  (same random numbers)")

print("\n" + "=" * 70)
print("4. Pairs: dependence within range, factorization beyond it")
print("=" * 70)
spec = pg.PanelSpec(
    p=10, n=400, model=pg.DependenceModel.gaussian_kdep((0.5,)),
    law=pg.InnovationLaw.normal(), seed=33,
)
s = 2.5
near = xc.tail_probability(spec, (1, 2), s, 4_000_000)
far = xc.tail_probability(spec, (1, 3), s, 4_000_000)
single = xc.tail_probability(spec, (1,), s, 4_000_000)
print(f"  lag 1 (rho = 0.5):  pair = {near.estimate:.3e}   "
      f"bivariate-normal limit = {bivariate_normal_tail(s, 0.5):.3e}")
print(f"  lag 2 (rho = 0.0):  pair = {far.estimate:.3e}   "
      f"product of singles = {single.estimate**2:.3e}")
print(f"  decay exponents: single {single.exponent:.3f}, "
      f"dependent pair {near.exponent:.3f}")
alpha = 0.25 * (1.0 - 0.5)
print(f"  the pair exponent sits above 1 + alpha = {1 + alpha:.3f}, the "
      "single above 1:")
print("  joint exceedances decay strictly faster than single ones, which is")
print("  what makes high-level exceedances behave independently.")
