"""The count-match coupling: dependent vs independent block hit counts.

Estimates per-block any-exceedance probabilities for a dependent panel
and a matched independent panel, forms the lower bound
1 - sum |pi_j - pi'_j| on P(N = N'), and verifies it against the
shared-uniform construction: P(N = N') exactly, by convolution, and the
match frequency of realized draws, whose count is Binomial(draws, P)
in law.
"""

import numpy as np

from exceedlab import exceedance as xc
from exceedlab import panelgen as pg
from exceedlab import studentize as stu

print("=" * 70)
print("1. The shared-uniform construction on a tiny example")
print("=" * 70)
pi = np.array([0.1, 0.2])
pi_prime = np.array([0.15, 0.2])
bound = xc.count_match_lower_bound(pi, pi_prime)
exact = xc.count_match_probability(pi, pi_prime)
freq, se = xc.simulate_count_match(pi, pi_prime, 200_000, np.random.default_rng(0))
print(f"  pi = {pi.tolist()}, pi' = {pi_prime.tolist()}")
print(f"  lower bound 1 - sum|gap| = {bound}")
print(f"  exact P(N = N') = {exact:.4f}")
print(f"  realized over 200000 draws = {freq:.4f} +- {se:.4f}")
print("  (the second coordinates coincide, so the match probability is")
print("   exactly 1 - 0.05 = 0.95 under the shared uniforms)")

print("\n" + "=" * 70)
print("2. End to end on dependent panels, sweeping the level")
print("=" * 70)
spec = pg.PanelSpec(
    p=300, n=60, model=pg.DependenceModel.gaussian_kdep((0.3, 0.1)),
    law=pg.InnovationLaw.normal(), seed=55,
)
print(f"  panel {spec.p} x {spec.n}, lag correlations {spec.model.rho}, "
      "1000 matched panel pairs per level\n")
print(f"  {'s':>4s} {'m':>3s} {'max pi':>7s} {'bound':>7s} {'exact':>7s} {'realized':>9s}")
for s in (1.8, 2.4, 3.0):
    scheme = xc.block_scheme(spec.p, spec.model.kappa, s=s)
    est = xc.coupling_estimate(spec, scheme, s, 1000, match_draws=50_000)
    exact = xc.count_match_probability(est.pi, est.pi_prime)
    print(f"  {s:4.1f} {scheme.m:3d} {float(est.pi.max()):7.3f} "
          f"{est.lower_bound:7.3f} {exact:7.4f} {est.realized_match:9.4f}")
print("\n  As the level grows the per-block hit probabilities of the")
print("  dependent and independent panels converge, the bound climbs")
print("  toward one, and the block hit counts become exchangeable:")
print("  the dependent exceedance pattern is indistinguishable from an")
print("  independent one at the level of block counts.")

print("\n" + "=" * 70)
print("3. A note on the estimates")
print("=" * 70)
s = 2.4
scheme = xc.block_scheme(spec.p, spec.model.kappa, s=s)
est = xc.coupling_estimate(spec, scheme, s, 1000, match_draws=50_000)
print(f"  per-block standard errors at s = {s}: max {float(est.se_pi.max()):.4f}")
print("  The guard rejects runs whose replicate budget cannot cap the")
print("  worst-case standard error:")
try:
    xc.coupling_estimate(spec, scheme, s, 50, se_cap=0.02)
except xc.InsufficientReplicates as err:
    print(f"    50 replicates at se_cap 0.02 -> {err}")
