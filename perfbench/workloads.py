"""The benchmark's workloads: panel shapes, laws, offsets and per-round seeds.

A run of a workload is a sequence of rounds.  Each round is one call of
``experiments.run`` with ``ROUND_REPS[name]`` replicates; round k of a run
with seed s draws its panels from the panel seed ``round_seed(s, k)``, so
the same (s, k) always gives the same inputs.  Inputs that are not panel
draws (the non-null rows and their offsets of ``mtc-genomics``) come from
the run seed alone and are the same in every round of a run.
"""

from __future__ import annotations

import numpy as np

from exceedlab import experiments as ex
from exceedlab import panelgen as pg

# Criterion-4 band: kappa = 5 lag correlations falling linearly from rho_max = 0.1.
KAPPA = 5
RHO_MAX = 0.1
RHO = tuple(RHO_MAX * (KAPPA - m + 1) / KAPPA for m in range(1, KAPPA + 1))

JOBS = 2

# Replicates per round: each round takes about 2-3.5 s at JOBS = 2 on a
# 2-core Xeon, long enough to amortise the worker pool start.
ROUND_REPS = {"cluster-kdep": 60, "mtc-genomics": 80, "coupling-ma-rademacher": 100}

NAMES = tuple(ROUND_REPS)

MTC_P = 20_000
MTC_NONNULL = MTC_P // 100
MTC_OFFSET_RANGE = (0.75, 1.25)

# Coupling rejects reps below 0.25 / se_cap^2; 0.05 admits 100 per round.
COUPLING_SE_CAP = 0.05


def round_seed(seed: int, k: int) -> int:
    """The panel seed of round ``k`` of a run with seed ``seed``."""
    ss = np.random.SeedSequence(int(seed), spawn_key=(0, int(k)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def mtc_offsets(seed: int) -> tuple[tuple[int, float], ...]:
    """1% non-null rows, chosen uniformly, with offsets uniform on [0.75, 1.25]."""
    rng = np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=(1,)))
    rows = np.sort(rng.choice(MTC_P, size=MTC_NONNULL, replace=False)) + 1
    values = rng.uniform(*MTC_OFFSET_RANGE, size=MTC_NONNULL)
    return tuple((int(i), float(d)) for i, d in zip(rows, values))


def config(name: str, seed: int, k: int = 0, jobs: int = JOBS) -> ex.ExperimentConfig:
    """The validated config of round ``k`` of workload ``name``."""
    panel_seed = round_seed(seed, k)
    reps = ROUND_REPS[name]
    if name == "cluster-kdep":
        panel = pg.PanelSpec(
            p=10_000, n=200, model=pg.DependenceModel.gaussian_kdep(RHO),
            law=pg.InnovationLaw.normal(), seed=panel_seed,
        )
        cfg = ex.ExperimentConfig(kind="cluster", panel=panel, eta=0.05,
                                  reps=reps, jobs=jobs)
    elif name == "mtc-genomics":
        panel = pg.PanelSpec(
            p=MTC_P, n=40, model=pg.DependenceModel.gaussian_kdep(RHO),
            law=pg.InnovationLaw.normal(), offsets=mtc_offsets(seed),
            seed=panel_seed,
        )
        cfg = ex.ExperimentConfig(kind="mtc", panel=panel, eta=0.05, reps=reps,
                                  jobs=jobs, bh_q=0.1, fwer_a=0.05)
    elif name == "coupling-ma-rademacher":
        panel = pg.PanelSpec(
            p=2000, n=200, model=pg.DependenceModel.moving_average(3),
            law=pg.InnovationLaw.rademacher(), seed=panel_seed,
        )
        cfg = ex.ExperimentConfig(kind="coupling", panel=panel, eta=0.05,
                                  reps=reps, jobs=jobs, se_cap=COUPLING_SE_CAP)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    cfg.validate()
    return cfg
