"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.  The two replicated experiments (criteria 4/9 and
criterion 8) execute through the experiment engine at full scale, so this
module takes tens of minutes on a small machine; everything is seeded and
deterministic.

Criterion 7 judges its plug-in TV statistic against the statistic's own
null law.  Even when the counts come exactly from the reference
multinomial, the plug-in TV at 1e5 replicates averages 0.0113 (sd ~0.001),
so a fixed 0.01 cut-off would fail a correct program most of the time.  The
test passes iff the measured TV is at most the 0.999 quantile of that null
law (~0.0144), estimated from multinomial draws on a separate stream lane;
0.01 is the separation it is sized to detect (detection ~0.82 for a wrong
marginal scale at TV = 0.01, >= 0.84 for every shape tried at 0.0125).  A
built-in negative control, the nominal q = beta/p reference that ignores
the divisor-n scale of T, must be flagged by the same rule.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from exceedlab import exceedance as xc
from exceedlab import experiments as ex
from exceedlab import mtc
from exceedlab import panelgen as pg
from exceedlab import studentize as stu
from exceedlab.numerics import (
    any_exceedence_prob,
    bivariate_normal_tail,
    dependence_summary,
    normal_cdf,
    normal_quantile,
    student_t_cdf,
    student_t_dual_gap,
    student_t_quantile,
    student_t_sf,
    threshold_regime,
)

SEED = 20260810


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num} ({name}): {status} - {detail}"
    print(line)
    assert ok, line


def _rho_vector(rho_max: float, kappa: int) -> tuple:
    return tuple(rho_max * (kappa - m + 1) / kappa for m in range(1, kappa + 1))


# ---------------------------------------------------------------------------
# Heavy shared runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def criterion4_runs(tmp_path_factory):
    """The criterion-4 cluster experiment, run twice with different --jobs."""
    base = tmp_path_factory.mktemp("criterion4")
    spec = pg.PanelSpec(
        p=10_000, n=200, model=pg.DependenceModel.gaussian_kdep(_rho_vector(0.1, 5)),
        law=pg.InnovationLaw.normal(), seed=SEED,
    )
    dirs = {}
    for jobs in (2, 3):
        cfg = ex.ExperimentConfig(
            kind="cluster", panel=spec, eta=0.05, reps=10_000, jobs=jobs,
        )
        out = base / f"jobs{jobs}"
        ex.run(cfg, out_dir=out)
        dirs[jobs] = out
    return dirs


@pytest.fixture(scope="session")
def criterion8_run(tmp_path_factory):
    """The criterion-8 error-rate experiment on dependent all-null panels."""
    out = tmp_path_factory.mktemp("criterion8")
    spec = pg.PanelSpec(
        p=2000, n=400, model=pg.DependenceModel.gaussian_kdep(_rho_vector(0.1, 5)),
        law=pg.InnovationLaw.normal(), seed=SEED + 8,
    )
    cfg = ex.ExperimentConfig(
        kind="mtc", panel=spec, eta=0.05, reps=10_000, jobs=2,
        bh_q=0.1, fwer_a=0.05,
    )
    ex.run(cfg, out_dir=out)
    return out, cfg


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_acceptance_1_worked_table_analytic():
    t = student_t_quantile(1.0 - 1e-6, 99)
    ok = abs(t - 5.052) <= 0.001
    q = float(student_t_sf(t, 99))
    wants = {10**4: 0.00995, 10**5: 0.09516, 10**6: 0.63212}
    got = {p: any_exceedence_prob(p, q) for p in wants}
    ok = ok and all(abs(got[p] - want) <= 5e-4 for p, want in wants.items())
    _report(
        1, "analytic any-exceedance table", ok,
        f"t={t:.4f}, P(any)={got[10**4]:.5f}/{got[10**5]:.5f}/{got[10**6]:.5f} "
        "vs 0.00995/0.09516/0.63212 (tol 5e-4)",
    )


def test_acceptance_2_calibration_constants():
    s = dependence_summary(0.1)
    ok = s.alpha == 0.225 and s.gamma == 1.225
    _report(2, "calibration constants", ok,
            f"rho_max=0.1 -> alpha={s.alpha!r}, gamma={s.gamma!r} (exact)")


def test_acceptance_3_numerics_oracles():
    xs = np.linspace(-38.0, 38.0, 10_000)
    worst_gap = max(
        float(np.max(student_t_dual_gap(xs, df))) for df in (1, 2, 10, 99, 1000)
    )
    ok = worst_gap < 1e-10

    grid = np.concatenate([np.geomspace(1e-8, 0.5, 25), 1 - np.geomspace(1e-8, 0.4, 25)])
    worst_rt = 0.0
    for df in (1, 2, 10, 99, 1000):
        for u in grid:
            x = student_t_quantile(float(u), df)
            worst_rt = max(worst_rt, abs(float(student_t_cdf(x, df)) - u))
    for u in grid:
        worst_rt = max(worst_rt, abs(normal_cdf(normal_quantile(float(u))) - u))
    ok = ok and worst_rt < 1e-9

    worst_bvn = max(
        abs(bivariate_normal_tail(0.0, r) - (0.25 + math.asin(r) / (2 * math.pi)))
        for r in np.linspace(-0.98, 0.98, 41)
    )
    ok = ok and worst_bvn < 1e-10
    _report(
        3, "numerics oracles", ok,
        f"dual-path gap {worst_gap:.2e} (<1e-10), quantile round-trip "
        f"{worst_rt:.2e} (<1e-9), orthant tail gap {worst_bvn:.2e} (<1e-10)",
    )


def _criterion4_cluster_fraction(summary: dict) -> tuple[bool, float, float]:
    """Criterion 4 (b): (pass, fraction, bound) for a cluster summary.

    The fraction of replicates with two exceedances within kappa rows of
    each other passes iff it is at most phi + 3 SE.
    """
    reps = summary["replicates"]
    frac = summary["within_kappa_cluster_fraction"]
    se_frac = math.sqrt(max(frac * (1.0 - frac), 1.0 / reps) / reps)
    bound = summary["phi_nominal"] + 3.0 * se_frac
    return frac <= bound, frac, bound


def test_acceptance_4_upper_tail_independence_desk_scale(criterion4_runs):
    summary = json.loads((criterion4_runs[2] / "cluster_summary.json").read_text())
    reps = summary["replicates"]
    phi = summary["phi_nominal"]

    emp = summary["p_any_empirical"]
    ref = summary["p_any_independent_ref"]
    se_any = math.sqrt(emp * (1.0 - emp) / reps)
    ok_a = abs(emp - ref) <= phi + 3.0 * se_any

    ok_b, frac, bound_b = _criterion4_cluster_fraction(summary)

    q = summary["q_single_exact_normal"]
    p = 10_000
    hist = {int(k): v for k, v in summary["count_histogram"].items()}

    def binom_pmf(k):
        return math.exp(
            math.lgamma(p + 1) - math.lgamma(k + 1) - math.lgamma(p - k + 1)
            + k * math.log(q) + (p - k) * math.log1p(-q)
        )

    kmax = max(hist) + 20
    tv = 0.5 * sum(abs(hist.get(k, 0) / reps - binom_pmf(k)) for k in range(kmax + 1))
    tv += 0.5 * max(0.0, 1.0 - sum(binom_pmf(k) for k in range(kmax + 1)))
    ok_c = tv <= 0.02

    _report(
        4, "upper-tail independence at desk scale", ok_a and ok_b and ok_c,
        f"(a) |{emp:.4f}-{ref:.4f}|={abs(emp-ref):.4f} <= phi+3SE={phi + 3 * se_any:.4f}; "
        f"(b) cluster fraction {frac:.5f} <= {bound_b:.4f}; "
        f"(c) TV(counts, Binomial)={tv:.4f} <= 0.02 "
        f"[t={summary['t_level']:.4f}, q_single={q:.3e}]",
    )


@pytest.mark.parametrize("n, in_regime", [(8, False), (200, True)])
def test_criterion_4_cluster_fraction_fails_out_of_regime(n, in_regime, tmp_path):
    # Criterion 4's negative control.  The claim needs n to grow faster than
    # log p: at n = 8 (log p / n = 1.15) a rho = 0.5 panel clusters its
    # exceedances, and (b) must fail; the same panel at n = 200 passes.
    # Measured before the seed was fixed: at 500 replicates (b) failed on
    # 10 of 10 seeds at n = 8 (fraction 0.608-0.662 against bounds of at
    # most 0.466) and passed on 10 of 10 at n = 200 (at most 0.008 against
    # at least 0.406); criterion 4's own runs are untouched.
    spec = pg.PanelSpec(
        p=10_000, n=n, model=pg.DependenceModel.gaussian_kdep((0.5,)),
        law=pg.InnovationLaw.normal(), seed=SEED + 4,
    )
    ex.run(ex.ExperimentConfig(kind="cluster", panel=spec, eta=0.05, reps=500, jobs=2),
           out_dir=tmp_path)
    summary = json.loads((tmp_path / "cluster_summary.json").read_text())
    ok, frac, bound = _criterion4_cluster_fraction(summary)
    assert ok is in_regime, f"n = {n}: cluster fraction {frac:.4f} against {bound:.4f}"


def test_acceptance_5_pair_tail_shape():
    spec = pg.PanelSpec(
        p=10, n=400, model=pg.DependenceModel.gaussian_kdep((0.5,)),
        law=pg.InnovationLaw.normal(), seed=0,
    )
    reps = 10**7
    s = 2.5
    pair_near = xc.tail_probability(replace(spec, seed=SEED), (1, 2), s, reps)
    ref = bivariate_normal_tail(s, 0.5)
    ok_a = abs(pair_near.estimate - ref) <= 3.0 * pair_near.se

    pair_far = xc.tail_probability(replace(spec, seed=SEED + 1), (1, 3), s, reps)
    s1 = xc.tail_probability(replace(spec, seed=SEED + 2), (1,), s, reps)
    s2 = xc.tail_probability(replace(spec, seed=SEED + 3), (3,), s, reps)
    prod = s1.estimate * s2.estimate
    se_prod = math.hypot(s1.estimate * s2.se, s2.estimate * s1.se)
    comb = math.hypot(pair_far.se, se_prod)
    ok_b = abs(pair_far.estimate - prod) <= 3.0 * comb

    ok_c = pair_near.exponent > s1.exponent

    _report(
        5, "pair-tail shape", ok_a and ok_b and ok_c,
        f"(near) {pair_near.estimate:.3e} vs bvn {ref:.3e} "
        f"(gap {abs(pair_near.estimate - ref) / pair_near.se:.2f} SE, tol 3 SE); "
        f"(far) {pair_far.estimate:.3e} vs product {prod:.3e} "
        f"(gap {abs(pair_far.estimate - prod) / comb:.2f} SE); "
        f"(exponent) pair {pair_near.exponent:.3f} > single {s1.exponent:.3f}",
    )


def test_acceptance_6_coupling_count_match_bound():
    rng = np.random.default_rng(SEED)
    draws = 10**5
    pairs = 1000
    worst_margin = math.inf
    fails = 0
    for k in range(pairs):
        m = int(rng.integers(1, 101))
        pi = rng.random(m)
        if k % 2 == 0:
            # perturbed twins keep the bound active (near one)
            pi_prime = np.clip(pi + rng.uniform(-1.0 / m, 1.0 / m, m), 0.0, 1.0)
        else:
            pi_prime = rng.random(m)
        bound = xc.count_match_lower_bound(pi, pi_prime)
        freq, se = xc.simulate_count_match(pi, pi_prime, draws, rng)
        margin = freq - (bound - 3.0 * se)
        worst_margin = min(worst_margin, margin)
        if margin < 0.0:
            fails += 1
    ok = fails == 0
    _report(
        6, "count-match coupling bound", ok,
        f"{pairs} random vector pairs (m<=100, {draws} draws each): "
        f"{fails} violations, worst margin {worst_margin:+.4f}",
    )


def _multinomial_cells(p: int, q: list, cells: list) -> np.ndarray:
    """Enumerated multinomial probabilities of ``cells`` plus one lumped tail cell.

    ``q`` holds the bin probabilities; the remainder takes 1 - sum(q).
    """
    lg = math.lgamma
    logs = [math.log(x) for x in q]
    rest = math.log(1.0 - sum(q))
    pm = np.array([
        math.exp(
            lg(p + 1) - sum(lg(x + 1) for x in cell) - lg(p - sum(cell) + 1)
            + sum(x * lq for x, lq in zip(cell, logs)) + (p - sum(cell)) * rest
        )
        for cell in cells
    ])
    return np.append(pm, 1.0 - pm.sum())


def _plugin_tv(counts: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Plug-in TV between cell counts (last axis) and cell probabilities."""
    reps = counts.sum(axis=-1, keepdims=True)
    return 0.5 * np.abs(counts / reps - probs).sum(axis=-1)


def _plugin_tv_null_mean(reps: int, probs: np.ndarray) -> float:
    """Exact E[plug-in TV] when the counts are Multinomial(reps, probs).

    Each cell count is Binomial(reps, p_c); de Moivre's mean absolute
    deviation E|X - N p| = 2 nu C(N, nu) p^nu (1 - p)^(N - nu + 1) with
    nu = floor(N p) + 1, summed over the cells and divided by 2N.
    """
    lg = math.lgamma
    total = 0.0
    for pc in probs:
        if pc <= 0.0:
            continue
        nu = math.floor(reps * pc) + 1
        total += 2.0 * math.exp(
            math.log(nu) + lg(reps + 1) - lg(nu + 1) - lg(reps - nu + 1)
            + nu * math.log(pc) + (reps - nu + 1) * math.log1p(-pc)
        )
    return total / (2.0 * reps)


def test_acceptance_7_multinomial_bin_equivalence():
    """Independent rows give exactly multinomial bin counts (Q_1..Q_3, rest).

    The statistic is the plug-in TV between the empirical joint law of the
    counts over 1e5 independent 50 x 100 normal panels and the enumerated
    multinomial (the 286 cells with a + b + c <= 10 plus one lumped tail
    cell).  Even under the exact law that TV is biased upward: its null
    mean at N = 1e5 is 0.01134 (de Moivre), with sd ~0.00095.  A fixed
    cut-off at 0.01 would fail a correct program about 94% of the time, so
    the decision rule is calibrated instead: pass iff TV_hat is at most the
    0.999 quantile of TV_hat's own null law at the same N, estimated from
    B multinomial draws on a stream lane separate from the data.

    0.01 is then the separation the check is sized to detect, not a
    cut-off.  Measured detection at true TV = 0.01: ~0.82 for a uniform
    1.4% bin-rate shift (a wrong marginal scale), ~0.68 for a diffuse
    Gaussian perturbation, ~0.44 for the least favourable shape (cell
    changes proportional to p_c^(2/3)); at TV = 0.0125 it is >= 0.84 and at
    TV = 0.015 >= 0.98 for every shape tried.  No check on a TV statistic
    at 1e5 replicates can both pass the exact law reliably and flag every
    TV = 0.01 law.

    A built-in negative control scores the same counts against the nominal
    reference q = beta/p = 0.02 per bin, which ignores the divisor-n scale
    of T (true TV 0.0118 from the data law); the rule must flag it.
    """
    p, n, k = 50, 100, 3
    reps = 10**5
    null_draws = 20_000
    bins = mtc.bin_thresholds(p, 1.0, k, mtc.StudentTMarginal(n - 1))
    exact = mtc.StudentizedNormalMarginal(n)
    sf = [float(exact.sf(t)) for t in bins.thresholds]
    q = [sf[0], sf[1] - sf[0], sf[2] - sf[1]]

    rng = np.random.default_rng(SEED + 7)
    counts: dict[tuple, int] = {}
    chunk = 2000
    done = 0
    while done < reps:
        c = min(chunk, reps - done)
        rows = stu.studentize_panel(rng.standard_normal((c * p, n)))
        t_mat = rows.t.reshape(c, p)
        q1 = (t_mat > bins.thresholds[0]).sum(axis=1)
        q2 = (t_mat > bins.thresholds[1]).sum(axis=1) - q1
        q3 = (t_mat > bins.thresholds[2]).sum(axis=1) - q1 - q2
        if done == 0:
            # the vectorized counting must agree with bin_counts on every
            # row of the first chunk, so the criterion scores the program
            for i in range(c):
                bc = mtc.bin_counts(t_mat[i], bins)
                assert bc.counts.tolist() == [int(q1[i]), int(q2[i]), int(q3[i])], i
        for a, b, c3 in zip(q1, q2, q3):
            key = (int(a), int(b), int(c3))
            counts[key] = counts.get(key, 0) + 1
        done += c

    cells = [
        (a, b, c3) for a in range(11) for b in range(11 - a) for c3 in range(11 - a - b)
    ]
    emp = np.array([counts.get(cell, 0) for cell in cells])
    emp = np.append(emp, reps - emp.sum())

    def calibrated(probs, lane):
        """(TV_hat, null sd, null 0.999 quantile) against ``probs``."""
        null_rng = np.random.default_rng(np.random.SeedSequence(SEED + 7, spawn_key=(lane,)))
        null_tv = _plugin_tv(null_rng.multinomial(reps, probs, size=null_draws), probs)
        return (
            float(_plugin_tv(emp, probs)),
            float(null_tv.std(ddof=1)), float(np.quantile(null_tv, 0.999)),
        )

    ref = _multinomial_cells(p, q, cells)
    tv, sd, bound = calibrated(ref, lane=1)
    mean = _plugin_tv_null_mean(reps, ref)
    ctl_tv, _, ctl_bound = calibrated(_multinomial_cells(p, [1.0 / p] * k, cells), lane=2)
    ok = tv <= bound and ctl_tv > ctl_bound
    _report(
        7, "multinomial bin-count equivalence", ok,
        f"TV_hat={tv:.5f} {'<=' if tv <= bound else '>'} null q0.999={bound:.5f} "
        f"(null mean {mean:.5f} exact, sd {sd:.5f}, margin {(bound - tv) / sd:+.1f} sd; "
        f"{reps} replicates, {null_draws} null draws); control q=1/p per bin: "
        f"TV_hat={ctl_tv:.5f} vs its bound {ctl_bound:.5f} "
        f"({'flagged' if ctl_tv > ctl_bound else 'NOT flagged'})",
    )


def test_acceptance_8_error_rate_control(criterion8_run):
    out, cfg = criterion8_run
    summary = json.loads((out / "mtc_summary.json").read_text())
    reps = summary["replicates"]

    bh = summary["procedures"]["bh"]
    ok_bh = bh["fdr"] <= 0.1 + 3.0 * bh["fdr_se"]

    sd = summary["procedures"]["stepdown-fwer"]
    se_fwer = math.sqrt(max(sd["fwer"] * (1.0 - sd["fwer"]), 1.0 / reps) / reps)
    phi_op = sd["phi_nominal_at_operative"]
    ok_sd = sd["fwer"] <= 0.05 + phi_op + 3.0 * se_fwer

    # precondition: the operative thresholds clear the admissible floor
    t_bh = student_t_quantile(1.0 - cfg.bh_q / cfg.panel.p, cfg.panel.n - 1)
    floor = threshold_regime(cfg.panel.p, cfg.eta, 1.225).t_min
    ok_floor = t_bh >= floor

    _report(
        8, "error-rate control on dependent nulls", ok_bh and ok_sd and ok_floor,
        f"BH FDR {bh['fdr']:.4f} <= 0.1+3SE={0.1 + 3 * bh['fdr_se']:.4f}; "
        f"step-down FWER {sd['fwer']:.4f} <= 0.05+phi+3SE="
        f"{0.05 + phi_op + 3 * se_fwer:.4f}; operative t {t_bh:.3f} >= floor "
        f"{floor:.3f}",
    )


def test_acceptance_9_determinism_across_jobs(criterion4_runs):
    a_csv = (criterion4_runs[2] / "cluster.csv").read_bytes()
    b_csv = (criterion4_runs[3] / "cluster.csv").read_bytes()
    a_sum = (criterion4_runs[2] / "cluster_summary.json").read_bytes()
    b_sum = (criterion4_runs[3] / "cluster_summary.json").read_bytes()
    ok = a_csv == b_csv and a_sum == b_sum
    _report(
        9, "determinism across parallelism", ok,
        f"jobs=2 vs jobs=3: cluster.csv {'identical' if a_csv == b_csv else 'DIFFER'} "
        f"({len(a_csv)} bytes), summary "
        f"{'identical' if a_sum == b_sum else 'DIFFER'}",
    )
