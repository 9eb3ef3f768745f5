"""Block decomposition and cluster diagnostics of exceedance patterns.

Tiles the test axis into alternating large blocks and short buffers,
counts exceedances per block across replicated dependent panels, and
shows that above the admissible level the no-cluster event dominates.
"""

import numpy as np

from exceedlab import exceedance as xc
from exceedlab import panelgen as pg
from exceedlab import studentize as stu
from exceedlab.numerics import dependence_summary, phi_bound, threshold_regime

print("=" * 70)
print("1. The block layout")
print("=" * 70)
scheme = xc.block_scheme(120, 2, ell=55)
for kind, start, end in scheme.blocks:
    print(f"  {kind:9s} [{start:3d}, {end:3d}]  (length {end - start + 1})")
print(f"  complete large blocks: m = {scheme.m}")

level = 4.0
derived = xc.block_scheme(10_000, 2, s=level)
print(f"\n  from a level s = {level}: ell = ceil(exp(s^2/4)) = {derived.ell}")

print("\n" + "=" * 70)
print("2. Cluster statistics across replicated dependent panels")
print("=" * 70)
rho = (0.1, 0.08, 0.06, 0.04, 0.02)
spec = pg.PanelSpec(
    p=4000, n=150, model=pg.DependenceModel.gaussian_kdep(rho),
    law=pg.InnovationLaw.normal(), seed=404,
)
gamma = dependence_summary(spec.model.rho_max).gamma
reps = 400
print(f"  panel {spec.p} x {spec.n}, kappa = 5, gamma = {gamma}, "
      f"{reps} replicates per level\n")
print(f"  {'t':>5s} {'mean exc.':>9s} {'P(>=1)':>7s} {'P(F fails)':>10s} "
      f"{'phi shape':>9s}")
levels = (3.4, 3.8, 4.2)
r_levels = [stu.t_level_to_r_level(t, spec.n) for t in levels]
schemes = [xc.block_scheme(spec.p, 5, s=s) for s in r_levels]
counts = np.zeros((len(levels), 3), dtype=int)  # exceedances, any hit, F fails
for rep in range(reps):
    # each replicate is drawn once, as row sums, and read at every level
    sum1, sum2 = pg.panel_sums(spec, [rep])
    r = stu.studentize_sums(sum1[0], sum2[0], spec.n).r
    for k, (s, scheme) in enumerate(zip(r_levels, schemes)):
        cs = xc.cluster_stats(xc.extract(r, s), scheme)
        counts[k] += (cs.total, cs.total > 0, not cs.event_f)
for t, (total, any_hit, f_fail) in zip(levels, counts):
    phi = phi_bound(t, spec.p, gamma).phi_nominal
    print(f"  {t:5.2f} {total / reps:9.3f} {any_hit / reps:7.3f} "
          f"{f_fail / reps:10.3f} {phi:9.3f}")

floor = threshold_regime(spec.p, 0.05, gamma).t_min
print(f"\n  admissible floor at eta = 0.05: t_min = {floor:.3f}")
print("  Above the floor the event F (no buffer hits, at most one exceedance")
print("  per large block, empty fragment) holds on all but a phi-shaped")
print("  fraction of replicates: exceedances arrive isolated, not clustered.")
