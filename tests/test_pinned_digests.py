"""Outputs pinned by digest: a change to a random stream or to the arithmetic shows here.

Each case runs one small config of an experiment kind and compares the
SHA-256 of its table and summary with digests recorded when the streams
last changed.  The digests hold only for the recorded Python, numpy and
scipy, so elsewhere the test is skipped.  A change that alters a stream on
purpose re-records the digests here, in the same commit, and says so.
"""

import hashlib

import pytest

from exceedlab import experiments as ex
from exceedlab import panelgen as pg

RECORDED_ENV = {"python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1"}

_KDEP = pg.DependenceModel.gaussian_kdep((0.1, 0.08, 0.06, 0.04, 0.02))
_MA = pg.DependenceModel.moving_average(3)
_NORMAL = pg.InnovationLaw.normal()
_PARETO = pg.InnovationLaw.pareto(4.5)


def _config(kind, p, n, model, law, offsets=(), **kw):
    panel = pg.PanelSpec(p=p, n=n, model=model, law=law, offsets=offsets, seed=7)
    return ex.ExperimentConfig(kind=kind, panel=panel, jobs=1, **kw)


CASES = {
    "calibrate": _config("calibrate", 10_000, 200, _KDEP, _NORMAL),
    "paper-table": _config("paper-table", 10_000, 100, _KDEP, _NORMAL),
    # exact law of the sums; cells of a Pareto moving-average; cells at n = 2
    "tails-gaussian-pair": _config("tails", 20, 30, _MA, _NORMAL, reps=100_000,
                                   s_level=1.2, pair=(3, 4)),
    "tails-pareto-ma-pair": _config("tails", 20, 30, _MA, _PARETO, reps=50_000,
                                    s_level=1.1, pair=(3, 5)),
    "tails-gaussian-pair-n2": _config("tails", 20, 2, _MA, _NORMAL, reps=50_000,
                                      s_level=0.8, pair=(2, 3)),
    "coupling-rademacher-ma": _config("coupling", 300, 40, _MA, pg.InnovationLaw.rademacher(),
                                      reps=100, se_cap=0.05, match_draws=20_000),
    "coupling-gaussian-kdep": _config("coupling", 300, 40, _KDEP, _NORMAL, reps=100,
                                      se_cap=0.05, match_draws=20_000),
    # row sums cut at the level; cells of a Pareto moving-average
    "cluster-cut": _config("cluster", 2000, 100, _KDEP, _NORMAL, reps=20),
    "cluster-cells-pareto-ma": _config("cluster", 1000, 40, _MA, _PARETO, reps=20,
                                       level_policy="explicit", level_t=3.0),
    "mtc": _config("mtc", 2000, 40, _KDEP, _NORMAL, offsets=((5, 1.0), (70, 1.2), (900, 0.9)),
                   reps=10),
}

# Recorded with the samplers sufficiency-v2 (mtc), sufficiency-v2-cut (cluster)
# and packed-sums (Rademacher coupling).  The paper-table outputs and the mtc
# summary were re-recorded when every t-level came to be solved by
# student_t_isf: an arithmetic change, no stream moved.
DIGESTS = {
    'calibrate': {
        'calibrate.csv': 'de3c0c4651a82210fe22391cd7100b30fcc86238c5919963e03962eaca26b62d',
        'calibrate_summary.json': '45c7d10ba1be5d2cb914d337178e291dd7bbea1c43d5ecf04d8f90c240a00cc1',
    },
    'paper-table': {
        'paper_table.csv': 'bc0bef6e9ad0b668731f6808659db714fb27e29bce4a5d5e1accc5e66a0e369d',
        'paper_table_summary.json': 'ec82d80340deb1051e84177bc74fbf65dad58527be9b5fdc45e87e0e688a2a59',
    },
    'tails-gaussian-pair': {
        'tails.csv': '5cc3c1707739d4a5a2091a95388e47b35ff5201f8c2fd0fb94ebd4de2b796133',
        'tails_summary.json': '2e52bf78285bb188ff99e676a509d679b1e49a305398395f37a7588bd48976b8',
    },
    'tails-pareto-ma-pair': {
        'tails.csv': '09ba2a5e3b0905af4a83d784a797d28239c13da2ca071c1a57d14450051765f3',
        'tails_summary.json': '8f1e0b7c3355112e25ad055236784c512096242bfc3627373538e3d709dd184f',
    },
    'tails-gaussian-pair-n2': {
        'tails.csv': '3836aa88c00e37c3d05849612fe860f0a4184f48d29ab4a17ae2d33d255100dd',
        'tails_summary.json': '0f921f010d67f2ea3ff505b8728cfec5b9a6d3dd403743f5e3618bd73589c4b2',
    },
    'coupling-rademacher-ma': {
        'coupling.csv': 'bb2713715bdde0a420f3bc5838342fc60ed23be483813b5e36527f4fd901b283',
        'coupling_summary.json': '75d85e765fb5bc934ee3ae0288c24f7b5e9d6fc42c334daefd1285a6ca6d3e4a',
    },
    'coupling-gaussian-kdep': {
        'coupling.csv': '0288ccd58e93d516229698e9aa93dda2c25321afd331f3bb68c3b49272778650',
        'coupling_summary.json': '73959a751474fa086bd6bf8b25de5b56d4c2975302dc499ba0773166e54c006d',
    },
    'cluster-cut': {
        'cluster.csv': '23f53b35cf8fb15ce9af0379a3ca254c0e232e02d50a9665606e27f525ce49d2',
        'cluster_summary.json': '8e46012988f808bd30509e5df082eb78388ffa43a0620093b04057a090510b91',
    },
    'cluster-cells-pareto-ma': {
        'cluster.csv': '2bd7eb88fc9b874bb1e67b88b9725718f966029fe74b36b33e52d2c8e42b76d0',
        'cluster_summary.json': '5a374a1d57d0cb27cfc17b052c00675b85a081953ada6ecf41a2680af8d749e0',
    },
    'mtc': {
        'mtc.csv': '6f8422885ae739ae3ece5b45cb70616b3cd5b32b6bc98216db58206c54089853',
        'mtc_summary.json': '7f647cb2955d7997aed32f85b5a2f2fff41d9294d31859be7899d79a123ee033',
    },
}


def _environment_matches() -> bool:
    env = ex.environment()
    return all(env[key] == value for key, value in RECORDED_ENV.items())


@pytest.mark.skipif(not _environment_matches(),
                    reason=f"digests recorded under {RECORDED_ENV} only")
@pytest.mark.parametrize("name", CASES)
def test_outputs_match_their_recorded_digests(name, tmp_path):
    manifest = ex.run(CASES[name], out_dir=tmp_path)
    got = {entry["path"]: entry["sha256"] for entry in manifest.outputs}
    assert got == DIGESTS[name]
    for path, digest in got.items():  # the manifest's digests are the files'
        assert hashlib.sha256((tmp_path / path).read_bytes()).hexdigest() == digest
