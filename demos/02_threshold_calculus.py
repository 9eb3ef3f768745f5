"""The calibration calculus: alpha, gamma, admissible levels, error bounds.

Reproduces the worked analytic table for highly multiple t-tests: with
n = 100 observations per test and the level pinned at the upper 1e-6
Student t quantile, the chance that at least one of p independent tests
exceeds it, next to the nominal dependence-error bound.
"""

import math

from exceedlab.numerics import (
    LOGLOG_COEFF,
    any_exceedence_prob,
    dependence_summary,
    phi_bound,
    student_t_quantile,
    student_t_sf,
    threshold_regime,
)

print("=" * 70)
print("1. From a correlation ceiling to gamma")
print("=" * 70)
for rho_max in (0.0, 0.1, 0.5, 0.9):
    s = dependence_summary(rho_max)
    print(f"  rho_max = {rho_max:4.2f} -> alpha = {s.alpha:6.4f}, gamma = {s.gamma:6.4f}")

print("\n" + "=" * 70)
print("2. Admissible level floors, t_min = (1 + eta) sqrt(2 log(p) / gamma)")
print("=" * 70)
gamma = dependence_summary(0.1).gamma
for p in (10**4, 10**5, 10**6):
    reg = threshold_regime(p, 0.05, gamma)
    print(f"  p = {p:>9,d}: t_min = {reg.t_min:.4f}")
ma = threshold_regime(10**6, 0.05, gamma, variant="moving-average")
print(f"  moving-average refinement at p = 1e6: t = {ma.t_refined:.4f} "
      f"(log-log coefficient {LOGLOG_COEFF})")

print("\n" + "=" * 70)
print("3. The worked analytic table (n = 100, level = t quantile at 1 - 1e-6)")
print("=" * 70)
n = 100
t = student_t_quantile(1.0 - 1e-6, n - 1)
q = float(student_t_sf(t, n - 1))
print(f"  level t = {t:.4f}, single-test tail q = {q:.3e}, gamma = {gamma}")
print(f"  {'p':>9s} {'P(any exceedance)':>18s} {'phi_nominal':>12s} {'ratio':>7s}")
for p in (10**4, 10**5, 10**6):
    p_any = any_exceedence_prob(p, q)
    phi = phi_bound(t, p, gamma).phi_nominal
    print(f"  {p:>9,d} {p_any:>18.5f} {phi:>12.5f} {phi / p_any:>7.1%}")
print(
    "\n  The bound column sets the unknowable exp(o(t^2)) prefactor to 1:\n"
    "  it is a comparison shape, not a certified bound.  Any probability\n"
    "  statement about the exceedance pattern computed under independence\n"
    "  is accurate to within this shape once the level clears t_min."
)

print("\n" + "=" * 70)
print("4. The t-level floor falls as p grows relative to the quantile level")
print("=" * 70)
for k in (4, 5, 6):
    p = 10**k
    floor = threshold_regime(p, 0.0, gamma).t_min
    print(f"  p = {p:>9,d}: floor {floor:.4f}  vs working level {t:.4f} "
          f"({'inside' if t >= floor else 'below'} the admissible regime)")
eta_star = t / threshold_regime(10**6, 0.0, gamma).t_min - 1.0
print(f"  at p = 1e6 the working level corresponds to slack eta = {eta_star:.4f}")
