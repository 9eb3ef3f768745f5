"""Panel generation walk-through: dependence models, laws, reproducibility.

Generates small panels under each dependence model, verifies the lag
correlations empirically, and shows the determinism contract and the
flat text config round trip.  Run as ``python demos/01_panel_models.py``.
"""

import numpy as np

from exceedlab import experiments as ex
from exceedlab import panelgen as pg

print("=" * 70)
print("1. The three dependence models")
print("=" * 70)

# Columns are iid observation vectors; down a column the sequence over
# tests is kappa-dependent.  A long single-column panel exposes the
# correlation structure directly.

ma_spec = pg.PanelSpec(
    p=200_001, n=1, model=pg.DependenceModel.moving_average(4),
    law=pg.InnovationLaw.normal(), seed=11,
)
x = pg.generate(ma_spec).data[:, 0]
print("\nmoving-average window 4 (implied lag-m correlation (4-m)/4):")
for m in (1, 2, 3, 4, 5):
    est = float(np.mean(x[:-m] * x[m:]))
    want = max(4 - m, 0) / 4
    print(f"  lag {m}: sample {est:+.4f}   model {want:+.4f}")

rho = (0.1, 0.08, 0.06, 0.04, 0.02)
kdep_spec = pg.PanelSpec(
    p=200_001, n=1, model=pg.DependenceModel.gaussian_kdep(rho),
    law=pg.InnovationLaw.normal(), seed=11,
)
x = pg.generate(kdep_spec).data[:, 0]
print("\ngaussian-kdep with requested lag correlations", rho, ":")
for m in (1, 3, 5, 6):
    est = float(np.mean(x[:-m] * x[m:]))
    want = kdep_spec.model.lag_correlation(m)
    print(f"  lag {m}: sample {est:+.4f}   model {want:+.4f}")
print("  filter weights:", np.round(pg.ma_filter_weights(rho), 5))

print("\n" + "=" * 70)
print("2. Innovation laws are standardized (mean 0, variance 1)")
print("=" * 70)
for law in (
    pg.InnovationLaw.normal(),
    pg.InnovationLaw.pareto(4.0),
    pg.InnovationLaw.rademacher(),
    pg.InnovationLaw.two_point(0.5),
):
    mean, var, m3 = pg.standardized_law_moments(law)
    draws = law.sample(np.random.default_rng(1), 200_000)
    print(
        f"  {law.kind:28s} closed-form E|X|^3 = {m3:7.4f}   "
        f"sample mean {draws.mean():+.4f}  sample var {draws.var():.4f}"
    )

# The zero atom survives standardization, so whole rows can vanish: with
# atom probability 0.5 and n = 3 a row is all-zero with probability 1/8.
tp = pg.PanelSpec(
    p=100_000, n=3, model=pg.DependenceModel.iid(),
    law=pg.InnovationLaw.two_point(0.5), seed=2,
)
frac = float((pg.generate(tp).data == 0.0).all(axis=1).mean())
print(f"\n  all-zero rows with atom 0.5, n=3: {frac:.4f} (theory 0.125)")

print("\n" + "=" * 70)
print("3. Determinism and the flat text config")
print("=" * 70)
spec = pg.PanelSpec(
    p=4, n=6, model=pg.DependenceModel.moving_average(2),
    law=pg.InnovationLaw.normal(), seed=42,
)
a = pg.generate(spec)
b = pg.generate(spec)
print("  same (spec, seed, replicate) twice -> bit-identical:",
      np.array_equal(a.data, b.data))
c = pg.generate(spec.with_replicate(1))
print("  different replicate id -> fresh panel:", not np.array_equal(a.data, c.data))

print("\n  flat text config round trip:")
text = ex.ExperimentConfig(kind="calibrate", panel=spec).to_text()
print("    " + "\n    ".join(text[text.index("[panel]"):].strip().splitlines()))
back = ex.ExperimentConfig.from_text(text).panel
print("  regenerates identically:", np.array_equal(pg.generate(back).data, a.data))
