"""The output checks pass on real output and fail on corrupted copies of it.

Each fixture runs a small experiment through ``experiments.run``; each
negative control corrupts one thing in a copy of that output and asserts
that the check meant to catch it reports a failure.
"""

import copy
import itertools
import math

import numpy as np
import pytest

import checks
import workloads
from exceedlab import experiments as ex
from exceedlab import panelgen as pg


def _run(cfg, tmp_path):
    ex.run(cfg, out_dir=tmp_path)
    return checks.read_outputs(tmp_path, cfg.kind)


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    panel = pg.PanelSpec(p=2000, n=50, model=pg.DependenceModel.gaussian_kdep(workloads.RHO),
                         law=pg.InnovationLaw.normal(), seed=11)
    cfg = ex.ExperimentConfig(kind="cluster", panel=panel, eta=0.05, reps=200, jobs=1)
    return cfg, _run(cfg, tmp_path_factory.mktemp("cluster"))


@pytest.fixture(scope="module")
def mtc(tmp_path_factory):
    offsets = tuple((i, 1.0) for i in range(50, 2000, 100))
    panel = pg.PanelSpec(p=2000, n=30, model=pg.DependenceModel.gaussian_kdep(workloads.RHO),
                         law=pg.InnovationLaw.normal(), offsets=offsets, seed=12)
    cfg = ex.ExperimentConfig(kind="mtc", panel=panel, eta=0.05, reps=100, jobs=1)
    return cfg, _run(cfg, tmp_path_factory.mktemp("mtc"))


@pytest.fixture(scope="module")
def coupling(tmp_path_factory):
    panel = pg.PanelSpec(p=500, n=100, model=pg.DependenceModel.moving_average(3),
                         law=pg.InnovationLaw.rademacher(), seed=13)
    cfg = ex.ExperimentConfig(kind="coupling", panel=panel, eta=0.05, reps=100, jobs=1,
                              se_cap=0.05, match_draws=20_000)
    return cfg, _run(cfg, tmp_path_factory.mktemp("coupling"))


def _passes(cfg, out):
    assert checks.check_round(cfg, out) == []
    assert all(zc.passed for zc in checks.check_pooled(cfg, [out]))


def _rows(out, **match):
    return [r for r in out["table"] if all(r[k] == v for k, v in match.items())]


# -- real output passes ------------------------------------------------------


def test_cluster_output_passes(cluster):
    _passes(*cluster)


def test_mtc_output_passes(mtc):
    _passes(*mtc)


def test_coupling_output_passes(coupling):
    _passes(*coupling)


# -- per-round negative controls ----------------------------------------------


def _round_fails(cfg, out, corrupt):
    bad = copy.deepcopy(out)
    corrupt(bad)
    errs = checks.check_round(cfg, bad)
    assert errs, "the corrupted output passed the per-round checks"
    return errs


def test_cluster_dropped_replicate_row_fails(cluster):
    _round_fails(*cluster, lambda o: o["table"].pop(37))


def test_cluster_total_shifted_by_one_fails(cluster):
    def shift(o):
        o["table"][5]["total"] += 1

    _round_fails(*cluster, shift)


def test_cluster_within_kappa_flag_flipped_fails(cluster):
    def flip(o):
        o["table"][0]["within_kappa_cluster"] ^= 1

    _round_fails(*cluster, flip)


def test_cluster_event_f_flipped_fails(cluster):
    def flip(o):
        o["table"][3]["event_f"] ^= 1

    _round_fails(*cluster, flip)


def test_cluster_reference_probability_off_fails(cluster):
    def nudge(o):
        o["summary"]["q_single_exact_normal"] *= 1.000001

    _round_fails(*cluster, nudge)


def test_cluster_summary_fraction_off_fails(cluster):
    def nudge(o):
        o["summary"]["p_any_empirical"] += 1.0 / 200

    _round_fails(*cluster, nudge)


def test_mtc_false_rejection_shifted_by_one_fails(mtc):
    def shift(o):
        _rows(o, replicate=4, procedure="bh")[0]["false_rejections"] += 1

    _round_fails(*mtc, shift)


def test_mtc_stepdown_above_bh_fails(mtc):
    def lift(o):
        bh = _rows(o, replicate=9, procedure="bh")[0]
        sd = _rows(o, replicate=9, procedure="stepdown-fwer")[0]
        sd["rejections"] = bh["rejections"] + 1
        sd["fdp"] = sd["false_rejections"] / sd["rejections"]

    errs = _round_fails(*mtc, lift)
    assert any("step-down" in e for e in errs)


def test_mtc_dropped_row_fails(mtc):
    _round_fails(*mtc, lambda o: o["table"].pop(100))


def test_coupling_swapped_pi_fails(coupling):
    def swap(o):
        sm = o["summary"]
        sm["pi"], sm["pi_prime"] = sm["pi_prime"], sm["pi"]

    _round_fails(*coupling, swap)


def test_coupling_lower_bound_off_fails(coupling):
    def nudge(o):
        o["summary"]["lower_bound"] -= 1e-6

    _round_fails(*coupling, nudge)


def test_misspelt_config_key_fails(coupling, cluster):
    def misspell(key):
        def corrupt(o):
            text = o["manifest"]["config"]
            assert f"\n{key} = " in text
            o["manifest"]["config"] = text.replace(f"\n{key} = ", f"\n{key}x = ")
        return corrupt

    errs = _round_fails(*coupling, misspell("se_cap"))
    assert any("se_cap" in e for e in errs)
    errs = _round_fails(*cluster, misspell("reps"))
    assert any("reps" in e for e in errs)


# -- pooled Monte Carlo negative controls -------------------------------------


def _pooled_fails(cfg, out, corrupt):
    bad = copy.deepcopy(out)
    corrupt(bad)
    assert not all(zc.passed for zc in checks.check_pooled(cfg, [bad]))


def test_cluster_totals_shifted_fail_pooled(cluster):
    def shift(o):
        for r in o["table"]:
            r["total"] += 1

    _pooled_fails(*cluster, shift)


def test_mtc_false_rejections_shifted_fail_pooled(mtc):
    def shift(o):
        for r in _rows(o, procedure="single-threshold"):
            r["false_rejections"] += 1
            r["rejections"] += 1

    _pooled_fails(*mtc, shift)


def test_mtc_true_rejections_shifted_fail_pooled(mtc):
    def shift(o):
        for r in _rows(o, procedure="single-threshold"):
            r["rejections"] -= 1

    _pooled_fails(*mtc, shift)


def test_coupling_realized_match_moved_5se_fails_pooled(coupling):
    def move(o):
        o["summary"]["realized_match"] += 5 * o["summary"]["realized_se"]

    _pooled_fails(*coupling, move)


# -- references ----------------------------------------------------------------


def test_exact_match_probability_matches_enumeration():
    pi = np.array([0.3, 0.05, 0.6, 0.2])
    pp = np.array([0.1, 0.25, 0.6, 0.4])
    lo, hi = np.minimum(pi, pp), np.maximum(pi, pp)
    # Per block: both counts step (min), only the larger side (gap), none.
    total = 0.0
    for outcome in itertools.product(range(3), repeat=pi.size):
        prob, diff = 1.0, 0
        for j, o in enumerate(outcome):
            prob *= (lo[j], hi[j] - lo[j], 1.0 - hi[j])[o]
            if o == 1:
                diff += 1 if pi[j] > pp[j] else -1
        total += prob if diff == 0 else 0.0
    assert math.isclose(checks.exact_match_probability(pi, pp), total, rel_tol=1e-12)
    assert checks.exact_match_probability(pi, pi) == 1.0


def test_exact_tail_matches_direct_simulation():
    rng = np.random.default_rng(5)
    n, t = 12, 1.5
    for d in (0.0, 0.3):
        x = rng.standard_normal((200_000, n)) + d
        tstat = math.sqrt(n) * x.mean(axis=1) / x.std(axis=1)  # divisor-n scale
        freq = float((tstat > t).mean())
        se = math.sqrt(freq * (1 - freq) / x.shape[0])
        assert abs(freq - checks.exact_tail(t, n, d)) < 4 * se
