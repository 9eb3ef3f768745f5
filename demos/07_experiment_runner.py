"""The experiment runner: configs, parallel replication, manifests, replay.

Runs a small replicated cluster experiment through the same engine the
command line uses, shows that outputs are byte-identical across worker
counts, and verifies the recorded manifest digests by replaying it.
"""

import json
import tempfile
from pathlib import Path

from exceedlab import experiments as ex
from exceedlab import panelgen as pg

spec = pg.PanelSpec(
    p=800, n=60, model=pg.DependenceModel.gaussian_kdep((0.1, 0.06, 0.03)),
    law=pg.InnovationLaw.normal(), seed=314159,
)
cfg = ex.ExperimentConfig(kind="cluster", panel=spec, eta=0.05, reps=300)

print("=" * 70)
print("1. The resolved configuration (flat text, diff-friendly)")
print("=" * 70)
print("\n".join("  " + line for line in cfg.to_text().strip().splitlines()))

t_level, r_level, gamma = ex.resolve_level(cfg)
print(f"\n  resolved levels: t = {t_level:.4f}, r = {r_level:.4f}, "
      f"gamma = {gamma:.4f}")
print("  regime diagnostics:", ex.validate_config(cfg) or "none")

# every output goes into a temporary directory, removed when the demo exits
with tempfile.TemporaryDirectory(prefix="exceedlab_demo_") as tmp:
    base = Path(tmp)

    print("\n" + "=" * 70)
    print("2. Byte-identical outputs across worker counts")
    print("=" * 70)
    digests = {}
    for jobs in (1, 2):
        cfg.jobs = jobs
        manifest = ex.run(cfg, out_dir=base / f"jobs{jobs}")
        digests[jobs] = {e["path"]: e["sha256"] for e in manifest.outputs}
        print(f"  jobs={jobs}: " + ", ".join(
            f"{name} {sha[:10]}" for name, sha in sorted(digests[jobs].items())
        ))
    print("  identical:", digests[1] == digests[2])

    print("\n" + "=" * 70)
    print("3. The summary and the manifest")
    print("=" * 70)
    summary = json.loads((base / "jobs2" / "cluster_summary.json").read_text())
    for key in ("replicates", "t_level", "p_any_empirical", "p_any_independent_ref",
                "phi_nominal", "event_f_fraction"):
        print(f"  {key}: {summary[key]}")
    manifest = ex.load_manifest(base / "jobs2" / "manifest.json")
    print(f"  manifest: kind={manifest.kind}, seed={manifest.seed}, "
          f"code={manifest.code_version}, wall={manifest.wall_clock_s:.2f}s")

    print("\n" + "=" * 70)
    print("4. Replay re-runs the snapshot and verifies every digest")
    print("=" * 70)
    ok, report = ex.replay(base / "jobs2" / "manifest.json",
                           work_dir=base / "replay", jobs=2)
    for line in report:
        print("  " + line)
    print("  replay verdict:", "outputs reproduced" if ok else "MISMATCH")
