"""Bin thresholds/counts, BH, step-down FWER, realized error rates."""

import math

import numpy as np
import pytest
import scipy.stats as st
from hypothesis import assume, example, given, settings, strategies as hst

from exceedlab import mtc
from exceedlab import panelgen as pg
from exceedlab import studentize as stu
from exceedlab.numerics import any_exceedence_prob, student_t_quantile


def test_bin_thresholds_small_case():
    bins = mtc.bin_thresholds(100, 1.0, 3, mtc.StudentTMarginal(99))
    assert bins.thresholds[0] == pytest.approx(student_t_quantile(0.99, 99), rel=1e-12)
    assert bins.thresholds[0] == pytest.approx(2.3646, abs=1e-4)
    assert np.all(np.diff(bins.thresholds) < 0)
    assert bins.bin_probability() == pytest.approx(0.01)


def test_bin_thresholds_deep_case():
    bins = mtc.bin_thresholds(10**6, 1.0, 2, mtc.StudentTMarginal(99))
    assert bins.thresholds[0] == pytest.approx(5.052, abs=1e-3)


def test_bin_thresholds_guard():
    with pytest.raises(ValueError):
        mtc.bin_thresholds(10, 1.0, 10, mtc.StudentTMarginal(99))


def test_bin_threshold_validity_flags():
    # with gamma context, thresholds below the admissible floor are flagged
    bins = mtc.bin_thresholds(
        10**5, 1.0, 4, mtc.StudentTMarginal(99), gamma=1.225, eta=0.0
    )
    assert bins.t_floor is not None
    assert bins.valid.tolist() == (bins.thresholds >= bins.t_floor).tolist()
    assert bins.valid[0]
    assert not bins.valid[-1]


def test_bin_counts_trivials():
    bins = mtc.bin_thresholds(50, 1.0, 3, mtc.StudentTMarginal(9))
    low = np.zeros(50)
    counts = mtc.bin_counts(low, bins)
    assert counts.counts.tolist() == [0, 0, 0]
    assert counts.remainder == 50
    one = np.zeros(50)
    one[7] = bins.thresholds[0] + 1.0
    counts = mtc.bin_counts(one, bins)
    assert counts.counts.tolist() == [1, 0, 0]
    assert counts.total == 50


def test_bin_counts_boundaries_and_conservation():
    bins = mtc.bin_thresholds(6, 1.0, 2, mtc.StudentTMarginal(9))
    t1, t2 = bins.thresholds
    values = np.array([t1, t2, t1 + 1.0, math.inf, -math.inf, 0.0])
    counts = mtc.bin_counts(values, bins)
    # exactly-at-threshold values fall in the lower bin (half-open intervals)
    assert counts.counts.tolist() == [2, 1]
    assert counts.counts.sum() + counts.remainder == 6
    rng = np.random.default_rng(4)
    for _ in range(25):
        values = rng.standard_normal(6) * 3
        counts = mtc.bin_counts(values, bins)
        assert counts.counts.sum() + counts.remainder == 6


def test_bin_counts_multinomial_chi_square():
    # independent panels: the pooled per-bin frequencies match the exact
    # per-bin probabilities (chi-square GOF at the 1% level).  This checks
    # the marginal bin rates only; acceptance criterion 7 checks the joint
    # multinomial law of (Q_1..Q_k, remainder).
    p, n, k, reps = 50, 50, 3, 10_000
    exact = mtc.StudentizedNormalMarginal(n)
    bins = mtc.bin_thresholds(p, 1.0, k, exact)
    rng = np.random.default_rng(314)
    totals = np.zeros(k + 1)
    for _ in range(reps):
        rows = stu.studentize_panel(rng.standard_normal((p, n)))
        counts = mtc.bin_counts(rows.t, bins)
        totals[:k] += counts.counts
        totals[k] += counts.remainder
    cell_p = np.array([1.0 / p] * k + [1.0 - k / p])
    expected = reps * p * cell_p
    chi2 = float(((totals - expected) ** 2 / expected).sum())
    assert chi2 < st.chi2(k).ppf(0.99)


def test_bh_worked_example():
    report = mtc.bh_fdr(np.array([0.001, 0.02, 0.03, 0.9]), 0.05)
    assert report.rejected.tolist() == [1, 2, 3]
    assert report.kind == "bh"


def test_bh_trivials():
    assert mtc.bh_fdr(np.ones(5), 0.05).rejected.size == 0
    assert mtc.bh_fdr(np.array([0.03]), 0.05).rejected.tolist() == [1]
    assert mtc.bh_fdr(np.array([0.08]), 0.05).rejected.size == 0


# p-value vectors with ties: a few shared values, exact 0 and 1, and any
# value in [0, 1]
_P_VALUES = hst.lists(
    hst.one_of(hst.sampled_from([0.0, 1e-6, 1e-3, 0.01, 0.05, 0.5, 1.0]),
               hst.floats(0.0, 1.0)),
    min_size=1, max_size=60,
).map(np.array)
_LEVELS = hst.floats(1e-4, 0.6)


def _smallest_first(pv, report):
    # the rejections are the k smallest p-values, ties taken in index order
    k = report.rejected.size
    order = np.argsort(pv, kind="stable")
    assert report.rejected.tolist() == sorted((order[:k] + 1).tolist())
    return set(report.rejected.tolist())


@settings(max_examples=300, deadline=None)
@given(_P_VALUES, _LEVELS, _LEVELS)
def test_bh_monotone_in_q(pv, q1, q2):
    small = _smallest_first(pv, mtc.bh_fdr(pv, min(q1, q2)))
    large = _smallest_first(pv, mtc.bh_fdr(pv, max(q1, q2)))
    assert small <= large


@settings(max_examples=300, deadline=None)
@given(_P_VALUES, _LEVELS, _LEVELS)
def test_stepdown_monotone_in_a(pv, a1, a2):
    small = _smallest_first(pv, mtc.stepdown_fwer(pv, min(a1, a2)))
    large = _smallest_first(pv, mtc.stepdown_fwer(pv, max(a1, a2)))
    assert small <= large


@settings(max_examples=300, deadline=None)
@given(_P_VALUES, _LEVELS, _LEVELS)
def test_stepdown_within_bh_when_its_log_level_is_below_q(pv, a, q):
    # stage k's critical value 1 - (1 - a)^(1/(m-k+1)) stays below
    # -log(1 - a)/(m-k+1) <= k q / m whenever -log(1 - a) <= q
    assume(-math.log1p(-a) <= q)
    stepdown = set(mtc.stepdown_fwer(pv, a).rejected.tolist())
    assert stepdown <= set(mtc.bh_fdr(pv, q).rejected.tolist())


def test_bh_input_validation():
    with pytest.raises(ValueError):
        mtc.bh_fdr(np.array([0.5, 1.5]), 0.05)
    with pytest.raises(ValueError):
        mtc.bh_fdr(np.array([0.5]), 0.0)


def test_stepdown_single_extreme():
    # one extreme statistic, the rest tiny: exactly one rejection whenever
    # the level covers its marginal p-value
    values = np.array([9.0, -2.0, -1.5, -3.0])
    marginal = mtc.StudentTMarginal(9)
    p_extreme = float(marginal.sf(9.0))
    for a in (0.05, 0.2, 0.5):
        report = mtc.stepdown_fwer(mtc.one_sided_p_values(values, marginal), a)
        if a >= p_extreme:
            assert report.rejected.tolist() == [1]
        else:
            assert report.rejected.size == 0


@settings(max_examples=300, deadline=None)
@given(_P_VALUES, _LEVELS)
# the last stage's critical value is a itself: -expm1(log1p(-0.25)) rounds below it
@example(np.array([0.25]), 0.25)
def test_stepdown_dominates_bonferroni(pv, a):
    stepdown = set(mtc.stepdown_fwer(pv, a).rejected.tolist())
    bonferroni = {i + 1 for i, v in enumerate(pv) if v <= a / pv.size}
    assert bonferroni <= stepdown


def test_stepdown_critical_values_are_independence_products():
    # stage-k critical value solves 1 - (1 - u)^(m-k+1) = a
    m, a = 7, 0.1
    pv = np.full(m, 0.5)
    pv[0] = 1e-9
    report = mtc.stepdown_fwer(pv, a)
    u1 = 1.0 - (1.0 - a) ** (1.0 / m)
    assert report.rejected.tolist() == [1]
    pv[0] = u1 * 1.0000001
    assert mtc.stepdown_fwer(pv, a).rejected.size == 0


def test_degenerate_statistics_flow_through():
    values = np.array([math.inf, -math.inf, 1.0])
    pv = mtc.one_sided_p_values(values, mtc.StudentTMarginal(9))
    assert pv[0] == 0.0 and pv[1] == 1.0
    assert 0.0 < pv[2] < 1.0
    report = mtc.bh_fdr(pv, 0.05)
    assert 1 in report.rejected.tolist()


def test_single_threshold_and_truth_annotation():
    values = np.array([3.0, 0.5, 4.0, -1.0])
    report = mtc.single_threshold(values, 2.0, nonnull=[3])
    assert report.rejected.tolist() == [1, 3]
    assert report.false_rejections == 1
    assert report.fdp == 0.5
    assert report.outcome == (2, 1, 0.5)
    # the truth as a boolean mask over the tests reads the same
    mask = np.array([False, False, True, False])
    assert mtc.single_threshold(values, 2.0, nonnull=mask).outcome == (2, 1, 0.5)
    with pytest.raises(ValueError, match="1..4"):
        mtc.single_threshold(values, 2.0, nonnull=[5])
    with pytest.raises(ValueError, match="shape"):
        mtc.single_threshold(values, 2.0, nonnull=mask[:3])


def test_realized_error_rates_never_rejecting():
    reports = [
        mtc.single_threshold(np.zeros(5), 10.0, nonnull=[]) for _ in range(20)
    ]
    summary = mtc.realized_error_rates(rpt.outcome for rpt in reports)
    assert summary.fwer == 0.0 and summary.fdr == 0.0
    assert summary.mean_rejections == 0.0


def test_realized_error_rates_requires_truth():
    report = mtc.single_threshold(np.array([5.0]), 1.0)
    with pytest.raises(ValueError, match="truth"):
        mtc.realized_error_rates([report.outcome])


def test_realized_error_rates_sum_exactly():
    rng = np.random.default_rng(12)
    rejections = rng.integers(1, 30, 200)
    false = [int(rng.integers(0, k + 1)) for k in rejections]
    outcomes = [(int(k), f, f / k) for k, f in zip(rejections, false)]
    summary = mtc.realized_error_rates(outcomes)
    assert summary.replicates == 200
    assert summary.fwer == sum(f > 0 for f in false) / 200
    assert summary.fdr == math.fsum(f / k for k, f in zip(rejections, false)) / 200
    assert summary.mean_rejections == int(rejections.sum()) / 200
    backwards = mtc.realized_error_rates(outcomes[::-1])
    assert (backwards.fdr, backwards.mean_rejections) == (summary.fdr, summary.mean_rejections)


def test_single_threshold_fwer_matches_binomial_reference():
    # all-null iid normal panels: FWER of the single-threshold rule equals
    # the analytic any-exceedance probability at the exact marginal level
    p, n, reps = 200, 50, 3000
    marginal = mtc.StudentizedNormalMarginal(n)
    t = marginal.upper_quantile(0.0005)
    rng = np.random.default_rng(2718)
    reports = []
    for _ in range(reps):
        rows = stu.studentize_panel(rng.standard_normal((p, n)))
        reports.append(mtc.single_threshold(rows.t, t, nonnull=[]))
    summary = mtc.realized_error_rates(rpt.outcome for rpt in reports)
    want = any_exceedence_prob(p, 0.0005)
    lo, hi = summary.fwer_wilson
    assert lo <= want <= hi


def test_stepdown_fwer_on_dependent_null_panels():
    # dependent all-null panels at levels above the admissible floor keep
    # the realized FWER within the nominal level plus noise
    spec = pg.PanelSpec(
        p=300, n=100, model=pg.DependenceModel.gaussian_kdep((0.1, 0.05)),
        law=pg.InnovationLaw.normal(), seed=55,
    )
    marginal = mtc.StudentTMarginal(spec.n - 1)
    a = 0.05
    reps = 1500
    hits = 0
    for rep in range(reps):
        rows = stu.studentize_panel(pg.generate(spec.with_replicate(rep)))
        pv = mtc.one_sided_p_values(rows, marginal)
        report = mtc.stepdown_fwer(pv, a, nonnull=[])
        hits += 1 if report.false_rejections > 0 else 0
    fwer = hits / reps
    se = math.sqrt(a * (1 - a) / reps)
    assert fwer <= a + 4.0 * se


def test_studentized_normal_marginal_is_exact():
    # against direct simulation: the sf of the divisor-n statistic
    n = 20
    marginal = mtc.StudentizedNormalMarginal(n)
    rng = np.random.default_rng(777)
    rows = stu.studentize_panel(rng.standard_normal((200_000, n)))
    for x in (1.0, 2.0, 2.8):
        emp = float((rows.t > x).mean())
        se = math.sqrt(emp * (1 - emp) / 200_000)
        assert abs(float(marginal.sf(x)) - emp) < 4.0 * se


@pytest.mark.parametrize("marginal", [
    mtc.StudentizedNormalMarginal(40), mtc.StudentizedNormalMarginal(5),
    mtc.StudentTMarginal(39), mtc.StudentTMarginal(3.5),
    mtc.StudentizedNormalMarginal(400),  # near the normal limit, as in criterion 8
])
def test_upper_quantile_round_trips_into_the_deep_tail(marginal):
    for q in (0.7, 0.3, 1e-2, 1e-4, 1e-6, 1e-8, 1e-9, 1e-10, 1e-12):
        back = float(marginal.sf(marginal.upper_quantile(q)))
        assert back == pytest.approx(q, rel=1e-10, abs=0)


class _PValueMarginal:
    """T = -p: the statistic is the negated p-value, so p = sf(T) exactly."""

    def sf(self, x):
        return np.clip(-np.asarray(x, dtype=float), 0.0, 1.0)

    def upper_quantile(self, levels):
        return -np.asarray(levels, dtype=float)


class _RoundedPValueMarginal(_PValueMarginal):
    """T = -p with p rounded to a multiple of 2^-40: distinct T share a p-value."""

    def sf(self, x):
        return np.round(super().sf(x) * 2.0 ** 40) / 2.0 ** 40


def _as_tuple(report):
    return (report.procedure, report.kind, report.nominal, report.n_tests,
            report.rejected.tolist(), report.false_rejections, report.fdp)


def _decide_both_ways(values, marginal, q, a, nonnull, decider=None):
    decider = decider or mtc.TailDecider(marginal, q, a)
    mask = np.zeros(values.size, dtype=bool)
    mask[np.asarray(nonnull, dtype=np.int64) - 1] = True
    fast = decider.decide(values, mask)
    pv = mtc.one_sided_p_values(values, marginal)
    oracle = (mtc.bh_fdr(pv, q, nonnull=nonnull), mtc.stepdown_fwer(pv, a, nonnull=nonnull))
    assert [_as_tuple(r) for r in fast] == [_as_tuple(r) for r in oracle]
    return pv


# A statistic is drawn as a code: a value tied exactly at the cut, the
# floats either side of it, the upper q and a quantiles, +-inf, the
# degenerate T = 1.0, any float, or the T-space critical value c_k of
# BH or step-down at stage k (taken mod m) moved by whole ulps, or by
# 2^-42 either way, less than the rounded marginal's step in p.
_SHIFTS = [0, 1, -1, 2, -2, 2.0 ** -42, -2.0 ** -42]
_T_CODES = hst.lists(
    hst.one_of(hst.sampled_from(["cut", "below", "above", "q", "a", "inf", "-inf", "one"]),
               hst.tuples(hst.sampled_from(["bh", "sd"]), hst.integers(1, 60),
                          hst.sampled_from(_SHIFTS)),
               hst.floats(-4.0, 12.0)),
    min_size=1, max_size=60,
)
# levels on both sides of 1/2, where c_k < 0
_DECIDER_LEVELS = hst.floats(1e-4, 0.95)


def _critical_value(code, marginal, q, a, m):
    kind, k, shift = code
    k = (k - 1) % m
    level = (mtc._bh_levels(q, m, k, k + 1) if kind == "bh"
             else mtc._stepdown_levels(a, m, k, k + 1))
    c = float(marginal.upper_quantile(level)[0])
    if isinstance(shift, float):
        return c + shift
    for _ in range(abs(shift)):
        c = np.nextafter(c, math.copysign(math.inf, shift))
    return c


@settings(max_examples=400, deadline=None)
@given(codes=_T_CODES, n=hst.sampled_from([None, "rounded", 2, 3, 5, 40]),
       q=_DECIDER_LEVELS, a=_DECIDER_LEVELS, data=hst.data())
# every row is a candidate and every one is rejected: the full-vector fallback
@example(codes=["inf", "inf"], n=40, q=0.1, a=0.05, data=None)
# m = 1 at p exactly a: the last step-down critical value is a itself
@example(codes=[-0.25], n=None, q=0.1, a=0.25, data=None)
@example(codes=[-0.25], n=None, q=0.25, a=0.1, data=None)
# T at, and one ulp either side of, critical values whose p-values tie with them
@example(codes=[("bh", 1, 0), ("bh", 2, 0), ("sd", 1, 0), 8.0, 9.0], n=None,
         q=0.3, a=0.2, data=None)
@example(codes=[("bh", 1, 1), ("bh", 2, -1), ("sd", 2, 1), ("sd", 1, -1), 0.5, 0.5],
         n=None, q=0.3, a=0.2, data=None)
# ties in p that straddle c_2 of BH
@example(codes=[("bh", 2, 2.0 ** -42), ("bh", 2, -2.0 ** -42), -0.9, -0.8], n="rounded",
         q=0.6, a=0.7, data=None)
@example(codes=[("bh", 2, 0), ("bh", 3, 0), ("sd", 1, 0), ("sd", 2, 0), 11.0], n=40,
         q=0.1, a=0.05, data=None)
def test_tail_decider_equals_bh_and_stepdown_on_every_p_value(codes, n, q, a, data):
    marginal = {None: _PValueMarginal(), "rounded": _RoundedPValueMarginal()}.get(n)
    marginal = marginal or mtc.StudentizedNormalMarginal(n)
    decider = mtc.TailDecider(marginal, q, a)
    cut, m = decider.cut, len(codes)
    named = {"cut": cut, "below": np.nextafter(cut, -np.inf),
             "above": np.nextafter(cut, np.inf), "q": marginal.upper_quantile(q),
             "a": marginal.upper_quantile(a), "inf": np.inf, "-inf": -np.inf, "one": 1.0}
    if not isinstance(marginal, mtc.StudentizedNormalMarginal):
        # this marginal's statistic lives on [-1, 0]
        codes = [c / -12.0 if isinstance(c, float) and c >= 0.0 else c for c in codes]
    values = np.array([_critical_value(c, marginal, q, a, m) if isinstance(c, tuple)
                       else named.get(c, c) for c in codes], dtype=float)
    nonnull, kept = ([], values.size // 2) if data is None else (
        data.draw(hst.sets(hst.integers(1, values.size)), label="nonnull"),
        data.draw(hst.integers(0, values.size), label="kept"))
    # first the leading rows alone, then all: the second decision may need
    # more stages than the first built, and the table grows
    fewer = np.where(np.arange(values.size) < kept, values, -np.inf)
    _decide_both_ways(fewer, marginal, q, a, sorted(nonnull), decider)
    pv = _decide_both_ways(values, marginal, q, a, sorted(nonnull), decider)
    below = pv[values < cut]
    assert np.all(below > max(q, a))  # the margin: no row below the cut is rejectable


def test_tail_decider_table_grows_and_resizes_with_the_test_count():
    marginal = mtc.StudentizedNormalMarginal(40)
    decider = mtc.TailDecider(marginal, 0.1, 0.05)
    rng = np.random.default_rng(5)
    values = rng.standard_normal(3000)
    values[:40] = 6.0 + rng.random(40)
    few = np.where(values > 1.8, values, 0.0)  # 160 candidates
    _decide_both_ways(few, marginal, 0.1, 0.05, [1], decider)
    built = decider._u.shape[1]
    _decide_both_ways(values, marginal, 0.1, 0.05, [1], decider)  # 317 candidates
    assert decider._u.shape[1] > built
    _decide_both_ways(values[:1000], marginal, 0.1, 0.05, [1], decider)  # m changes
    assert decider._m == 1000


def _count_p_values(monkeypatch):
    sizes = []
    original = mtc.one_sided_p_values
    monkeypatch.setattr(mtc, "one_sided_p_values",
                        lambda rows, m: sizes.append(np.size(rows)) or original(rows, m))
    return sizes


def test_tail_decider_decides_on_every_p_value_when_all_candidates_are_rejected(monkeypatch):
    marginal = mtc.StudentizedNormalMarginal(40)
    sizes = _count_p_values(monkeypatch)
    values = np.full(500, -1.0)
    values[[3, 70]] = [np.inf, 12.0]  # the only candidates; both are rejected
    _decide_both_ways(values, marginal, 0.1, 0.05, [4])
    assert sizes == [500, 500]  # every row, then the oracle's every row
    sizes.clear()
    values[70] = 2.5  # a candidate neither procedure rejects
    _decide_both_ways(values, marginal, 0.1, 0.05, [4])
    assert sizes == [500]  # the oracle's alone


def test_tail_decider_computes_p_values_only_near_a_critical_value(monkeypatch):
    marginal = mtc.StudentizedNormalMarginal(40)
    sizes = _count_p_values(monkeypatch)
    values = np.full(500, -1.0)
    c1 = float(marginal.upper_quantile(mtc._bh_levels(0.1, 500, 0, 1))[0])
    values[[70, 71]] = [2.5, c1 * (1.0 + 2e-6)]  # both outside every band
    _decide_both_ways(values, marginal, 0.1, 0.05, [4])
    assert sizes == [500]  # the oracle's alone
    sizes.clear()
    values[71] = np.nextafter(c1, np.inf)  # inside c_1's band, where N(u_1) is 0 or 1
    _decide_both_ways(values, marginal, 0.1, 0.05, [4])
    assert sizes == [1, 500]
    sizes.clear()
    values[3] = np.inf  # N(u_1) >= 1 without it: the band no longer matters
    _decide_both_ways(values, marginal, 0.1, 0.05, [4])
    assert sizes == [500]


def test_nan_p_values_and_statistics_are_refused():
    pv = np.array([0.001, np.nan, 0.002])
    for procedure in (mtc.bh_fdr, mtc.stepdown_fwer):
        with pytest.raises(ValueError, match="p-values must not be NaN: 1 of 3 are, the first at test 2"):
            procedure(pv, 0.1)
    decider = mtc.TailDecider(mtc.StudentizedNormalMarginal(40), 0.1, 0.05)
    with pytest.raises(ValueError, match="statistics must not be NaN: 2 of 4 are, the first at test 2"):
        decider.decide(np.array([10.0, np.nan, 9.0, np.nan]))
