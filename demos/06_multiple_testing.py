"""Multiple testing under the independence license: bins, BH, step-down.

Builds the bin thresholds whose counts are multinomial, runs the
Benjamini-Hochberg and step-down procedures on dependent all-null
panels, and measures the realized error rates against their nominal
levels.
"""

import numpy as np

from exceedlab import mtc
from exceedlab import panelgen as pg
from exceedlab import studentize as stu
from exceedlab.numerics import dependence_summary

print("=" * 70)
print("1. Bin thresholds: P(T > t_j) = j beta / p under the marginal")
print("=" * 70)
p, n, k = 10_000, 100, 4
bins = mtc.bin_thresholds(p, 1.0, k, mtc.StudentTMarginal(n - 1),
                          gamma=1.225, eta=0.0)
print(f"  p = {p}, beta = 1, k = {k}, marginal {bins.marginal_name}")
for j, (t, valid) in enumerate(zip(bins.thresholds, bins.valid), start=1):
    print(f"  t_{j} = {t:.4f}   clears the admissible floor: {bool(valid)}")
print(f"  floor = {bins.t_floor:.4f}; every bin carries probability "
      f"beta/p = {bins.bin_probability():.4g}")

rng = np.random.default_rng(1)
rows = stu.studentize_panel(rng.standard_normal((p, n)))
counts = mtc.bin_counts(rows, bins)
print(f"  one null panel: Q = {counts.counts.tolist()}, remainder "
      f"{counts.remainder} (sums to p: {counts.total == p})")

print("\n" + "=" * 70)
print("2. The procedures on a single panel with planted signals")
print("=" * 70)
spec = pg.PanelSpec(
    p=2000, n=100, model=pg.DependenceModel.gaussian_kdep((0.1, 0.05)),
    law=pg.InnovationLaw.normal(), seed=9,
    offsets=tuple((i, 0.6) for i in range(1, 21)),
)
marginal = mtc.StudentizedNormalMarginal(spec.n)  # exact law of the divisor-n T
rows = stu.studentize_panel(pg.generate(spec))
pv = mtc.one_sided_p_values(rows, marginal)
nonnull = spec.nonnull_rows()
bh = mtc.bh_fdr(pv, 0.1, nonnull=nonnull)
sd = mtc.stepdown_fwer(pv, 0.05, nonnull=nonnull)
for report in (bh, sd):
    hits = report.rejected.size - report.false_rejections
    print(f"  {report.procedure:22s} rejections {report.rejected.size:3d} "
          f"(true {hits}, false {report.false_rejections}, "
          f"fdp {report.fdp:.3f})")
print(f"  planted signals: {len(nonnull)} rows at offset 0.6")

print("\n" + "=" * 70)
print("3. Realized error rates on dependent all-null panels")
print("=" * 70)
null_spec = pg.PanelSpec(
    p=2000, n=100, model=pg.DependenceModel.gaussian_kdep((0.1, 0.05)),
    law=pg.InnovationLaw.normal(), seed=10,
)
gamma = dependence_summary(null_spec.model.rho_max).gamma
reps = 400
bh_reports = []
sd_reports = []
for rep in range(reps):
    rows = stu.studentize_panel(pg.generate(null_spec.with_replicate(rep)))
    pv = mtc.one_sided_p_values(rows, marginal)
    bh_reports.append(mtc.bh_fdr(pv, 0.1, nonnull=[]))
    sd_reports.append(mtc.stepdown_fwer(pv, 0.05, nonnull=[]))
bh_summary = mtc.realized_error_rates(r.outcome for r in bh_reports)
sd_summary = mtc.realized_error_rates(r.outcome for r in sd_reports)
print(f"  {reps} replicates of a dependent all-null {null_spec.p} x "
      f"{null_spec.n} panel (gamma = {gamma})")
print(f"  BH(q=0.1):        realized FDR  {bh_summary.fdr:.4f} "
      f"(nominal 0.1, se {bh_summary.fdr_se:.4f})")
print(f"  step-down(a=.05): realized FWER {sd_summary.fwer:.4f} "
      f"(nominal 0.05, Wilson {sd_summary.fwer_wilson[0]:.4f}.."
      f"{sd_summary.fwer_wilson[1]:.4f})")
print("\n  Both procedures price every rejection with independence-product")
print("  probabilities, yet hold their nominal levels on dependent panels:")
print("  the rejections live above the admissible level, where the")
print("  dependent exceedance pattern matches an independent one.")
