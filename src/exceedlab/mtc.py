"""Multiple-testing procedures under the independence approximation.

Bin thresholds t_j solve P(T > t_j) = j * beta / p under a chosen
marginal law (t_0 = +inf), so each bin (t_j, t_{j-1}] carries probability
beta / p and, for a panel with independent rows, the bin counts
Q_1..Q_k together with the remainder are exactly multinomial.  Above the
admissible level the same calculations remain valid for dependent panels
up to the nominal phi bound; the procedures here lean on that license:

* Benjamini-Hochberg step-up on one-sided p-values,
* a step-down FWER procedure whose joint exceedance probabilities are the
  independence products (so the stage-k critical value is
  ``1 - (1 - a)^{1/(m - k + 1)}``),
* a plain single-threshold rule.

One-sided p-values come from a pluggable marginal: Student t with n - 1
degrees of freedom, or the exact finite-sample law of the divisor-n
studentized normal mean.
Degenerate rows flow through unchanged (T = +inf maps to p-value 0,
T = -inf to 1).

:class:`TailDecider` runs BH and step-down together on the statistics
and decides them in T space.  BH rejects only p <= q, step-down only
p <= a (its last critical value is a), so rows with T below the upper
quantile of max(q, a) never get a place in the sort.  The candidates are
counted against the critical values mapped to T, c_k = the upper
quantile of u_k, solved once per decider for every stage of both
procedures; a p-value is computed only for a T within a band of
relative width 1e-6 around some c_k, and only where that T could change
whether stage k passes.  The decisions equal those of :func:`bh_fdr` and
:func:`stepdown_fwer` on every p-value, which stay as the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from exceedlab.exceedance import wilson_interval
from exceedlab.numerics import student_t_isf, student_t_sf, threshold_regime

__all__ = [
    "BinCounts",
    "BinSpec",
    "DecisionReport",
    "ErrorRateSummary",
    "StudentTMarginal",
    "StudentizedNormalMarginal",
    "TailDecider",
    "bh_fdr",
    "bin_counts",
    "bin_thresholds",
    "one_sided_p_values",
    "realized_error_rates",
    "single_threshold",
    "stepdown_fwer",
]


# ---------------------------------------------------------------------------
# Marginal laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StudentTMarginal:
    """Student t with ``df`` degrees of freedom (the standard approximation)."""

    df: float

    def sf(self, x):
        return student_t_sf(x, self.df)

    def upper_quantile(self, levels) -> np.ndarray:
        return student_t_isf(levels, self.df)

    def describe(self) -> str:
        return f"student-t(df={self.df:g})"


@dataclass(frozen=True)
class StudentizedNormalMarginal:
    """Exact law of the divisor-n studentized mean of n iid normals.

    T = sqrt(n) Ubar / S with S^2 = mean of squares minus squared mean
    equals sqrt(n/(n-1)) times a classical t variable on n - 1 degrees of
    freedom; this marginal applies that exact scale.
    """

    n: int

    @property
    def _scale(self) -> float:
        return math.sqrt((self.n - 1.0) / self.n)

    def sf(self, x):
        return student_t_sf(np.asarray(x, dtype=float) * self._scale, self.n - 1)

    def upper_quantile(self, levels) -> np.ndarray:
        return student_t_isf(levels, self.n - 1) / self._scale

    def describe(self) -> str:
        return f"studentized-normal(n={self.n})"


# ---------------------------------------------------------------------------
# Bin thresholds and counts
# ---------------------------------------------------------------------------


@dataclass
class BinSpec:
    """Thresholds t_1 > ... > t_k with P(T > t_j) = j beta / p.

    ``valid`` flags, when a (gamma, eta) context is supplied, whether each
    t_j still clears the admissible level floor; calculations in bins
    whose flag is off leave the regime where the independence
    approximation is quantified.
    """

    p: int
    beta: float
    k: int
    thresholds: np.ndarray
    marginal_name: str
    valid: np.ndarray | None = None
    t_floor: float | None = None

    def bin_probability(self) -> float:
        return self.beta / self.p


def bin_thresholds(
    p: int,
    beta: float,
    k: int,
    marginal,
    gamma: float | None = None,
    eta: float | None = None,
) -> BinSpec:
    """Thresholds for k bins of marginal probability beta / p each.

    Requires k * beta / p < 1 so every level is a proper upper quantile.
    With ``gamma`` (and optional ``eta``, default 0) the admissible floor
    is computed and each threshold is flagged valid iff it clears it.
    """
    if p < 1:
        raise ValueError(f"test count p must be >= 1, got {p!r}")
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta!r}")
    if k < 1:
        raise ValueError(f"bin count k must be >= 1, got {k!r}")
    if k * beta >= p:
        raise ValueError(
            f"k * beta / p = {k * beta / p:g} must stay below 1; "
            "fewer bins or smaller beta required"
        )
    thresholds = marginal.upper_quantile(np.arange(1, k + 1) * beta / p)
    if np.any(np.diff(thresholds) >= 0.0):
        raise ValueError("marginal produced non-decreasing thresholds")
    valid = None
    floor = None
    if gamma is not None:
        floor = threshold_regime(p, 0.0 if eta is None else eta, gamma).t_min
        valid = thresholds >= floor
    return BinSpec(
        p=p, beta=beta, k=k, thresholds=thresholds,
        marginal_name=marginal.describe(), valid=valid, t_floor=floor,
    )


@dataclass
class BinCounts:
    """Counts Q_1..Q_k over the bins (t_j, t_{j-1}] plus the remainder."""

    counts: np.ndarray
    remainder: int

    @property
    def total(self) -> int:
        return int(self.counts.sum()) + self.remainder


def bin_counts(rows, bins: BinSpec) -> BinCounts:
    """Exact half-open interval counting of statistics into the bins.

    ``rows`` is a StudentizedRows or a plain statistic vector of length
    p; +inf statistics land in the top bin.
    """
    values = np.asarray(getattr(rows, "t", rows), dtype=float)
    if values.shape[0] != bins.p:
        raise ValueError(
            f"statistic count {values.shape[0]} does not match bins.p {bins.p}"
        )
    # Q_j = #{t_j < T <= t_{j-1}} falls out of the cumulative counts
    # above each threshold; +inf statistics land in the top bin.
    above = np.array([(values > tj).sum() for tj in bins.thresholds], dtype=np.int64)
    counts = np.diff(np.concatenate([[0], above]))
    remainder = int(bins.p - above[-1])
    return BinCounts(counts=counts, remainder=remainder)


# ---------------------------------------------------------------------------
# Decision procedures
# ---------------------------------------------------------------------------


@dataclass
class DecisionReport:
    """Outcome of one multiple-testing procedure on one panel.

    ``rejected`` holds 1-based indices.  ``false_rejections`` and ``fdp``
    are filled when the ground truth is known: the procedures take it as
    ``nonnull``, the 1-based non-null test indices or a boolean mask over
    the tests.
    """

    procedure: str
    kind: str
    nominal: float
    n_tests: int
    rejected: np.ndarray
    false_rejections: int | None = None
    fdp: float | None = None

    @property
    def outcome(self) -> tuple:
        """(rejections, false_rejections, fdp): what the error rates read."""
        return self.rejected.size, self.false_rejections, self.fdp


def one_sided_p_values(rows, marginal) -> np.ndarray:
    """Upper-tail p-values of the statistics under the marginal law."""
    values = np.asarray(getattr(rows, "t", rows), dtype=float)
    pv = np.full_like(values, np.nan)
    finite = np.isfinite(values)
    pv[finite] = np.asarray(marginal.sf(values[finite]))
    pv[np.isposinf(values)] = 0.0
    pv[np.isneginf(values)] = 1.0
    return pv


def _attach_truth(report: DecisionReport, nonnull) -> DecisionReport:
    if nonnull is None:
        return report
    null = ~_nonnull_mask(nonnull, report.n_tests)
    false = int(np.count_nonzero(null[report.rejected - 1]))
    report.false_rejections = false
    report.fdp = false / max(1, report.rejected.size)
    return report


def _nonnull_mask(nonnull, m: int) -> np.ndarray:
    """The non-null tests as a boolean mask over tests 1..m.

    ``nonnull`` is that mask already or the 1-based non-null test indices.
    """
    given = np.asarray(nonnull)
    if given.dtype == bool:
        if given.shape != (m,):
            raise ValueError(f"non-null mask has shape {given.shape}, not ({m},)")
        return given
    rows = given.astype(np.int64).ravel()
    if np.any((rows < 1) | (rows > m)):
        raise ValueError(f"non-null test indices must lie in 1..{m}")
    mask = np.zeros(m, dtype=bool)
    mask[rows - 1] = True
    return mask


def _refuse_nan(values: np.ndarray, what: str) -> None:
    nan = np.flatnonzero(np.isnan(values))
    if nan.size:
        raise ValueError(
            f"{what} must not be NaN: {nan.size} of {values.size} are, "
            f"the first at test {nan[0] + 1}"
        )


def _check_p_values(p_values) -> np.ndarray:
    pv = np.asarray(p_values, dtype=float)
    if pv.ndim != 1:
        raise ValueError("p-values must form a vector")
    _refuse_nan(pv, "p-values")
    if np.any((pv < 0.0) | (pv > 1.0)):
        raise ValueError("p-values must lie in [0, 1]")
    return pv


def _check_level(level: float, name: str) -> None:
    if not 0.0 < level < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {level!r}")


def _bh_levels(q: float, m: int, start: int, stop: int) -> np.ndarray:
    """BH's critical values q k / m at stages k = start + 1 .. stop of m tests."""
    return q * np.arange(start + 1, stop + 1) / m


def _stepdown_levels(a: float, m: int, start: int, stop: int) -> np.ndarray:
    """Step-down's critical values 1 - (1 - a)^(1/(m - k + 1)) at stages k = start + 1 .. stop."""
    remaining = m - np.arange(start, stop)
    crit = -np.expm1(np.log1p(-a) / remaining)
    # exactly a at the last stage, where the rounded form can fall below it
    crit[remaining == 1] = a
    return crit


def _step_up(ok: np.ndarray) -> int:
    """The largest stage k with ``ok[k - 1]``, or 0: how many BH rejects."""
    hits = np.flatnonzero(ok)
    return int(hits[-1]) + 1 if hits.size else 0


def _step_down(ok: np.ndarray) -> int:
    """The length of the leading run of ``ok``: how many step-down rejects."""
    return ok.size if bool(ok.all()) else int(np.argmin(ok))


# The procedure label of each kind of report, formatted with its nominal level.
_PROCEDURES = {"bh": "BH(q={:g})", "stepdown-fwer": "stepdown-FWER(a={:g})"}


def _report(kind: str, nominal: float, rows: np.ndarray, m: int, nonnull) -> DecisionReport:
    """The ``kind`` report at level ``nominal`` rejecting the 0-based test indices ``rows``."""
    report = DecisionReport(
        procedure=_PROCEDURES[kind].format(nominal), kind=kind, nominal=nominal,
        n_tests=m, rejected=(np.sort(rows) + 1).astype(np.int64),
    )
    return _attach_truth(report, nonnull)


def bh_fdr(p_values, q: float, nonnull=None) -> DecisionReport:
    """Benjamini-Hochberg step-up at FDR level ``q``.

    Rejects the tests with the smallest i p-values where i is the largest
    index with p_(i) <= i q / m.  Ties are broken by original index
    (stable sort), keeping the outcome deterministic.
    """
    pv = _check_p_values(p_values)
    _check_level(q, "FDR level q")
    m = pv.size
    order = np.argsort(pv, kind="stable")
    return _report("bh", q, order[:_step_up(pv[order] <= _bh_levels(q, m, 0, m))], m, nonnull)


def stepdown_fwer(p_values, a: float, nonnull=None) -> DecisionReport:
    """Step-down FWER control with independence-product joint probabilities.

    At stage k (k - 1 rejections so far, m - k + 1 tests remaining) the
    smallest remaining p-value is rejected iff the probability that at
    least one of the remaining independent statistics shows a p-value
    that small stays within ``a``:

        1 - (1 - p_(k))^(m - k + 1) <= a,

    i.e. p_(k) <= 1 - (1 - a)^{1/(m - k + 1)}.  Stops at the first
    failure.
    """
    _check_level(a, "FWER level a")
    pv = _check_p_values(p_values)
    m = pv.size
    order = np.argsort(pv, kind="stable")
    return _report("stepdown-fwer", a,
                   order[:_step_down(pv[order] <= _stepdown_levels(a, m, 0, m))], m, nonnull)


# Relative widening of the candidate level max(q, a): far above the
# rounding of the quantile solve and of the p-values, so that every row
# below the cut has a computed p-value above max(q, a).
_CUT_MARGIN = 1e-6

# Half-width of the band around each critical value c_k in T, relative to
# max(1, |c_k|): far above the error of the solve and the rounding of the
# p-values, so that a statistic outside the band lies on the same side of
# c_k as its p-value does of u_k.  The table checks this at the band's ends.
_BAND = 1e-6


class TailDecider:
    """BH at FDR level q and step-down FWER at level a from the upper tail of T.

    Gives the reports of :func:`bh_fdr` and :func:`stepdown_fwer` on the
    p-values of every test, but sorts only the candidates, the rows with
    T at or above the cut: the upper ``marginal`` quantile of max(q, a)
    widened by ``_CUT_MARGIN``.  Every other row has a p-value above
    max(q, a), which neither procedure can reject.  The cut is solved
    once, here, for every panel decided.

    The candidates are decided in T space.  With N(u) = #{p_i <= u} and
    u_k the critical value of stage k, BH rejects k* = max{k : N(u_k) >= k}
    tests, and step-down as many as the leading run of stages with
    N(u_k) >= k.  Since u_k never decreases in k, the rejected tests are
    then exactly those with p <= u_k at that stage.  N(u_k) is counted by
    searching the sorted candidate T for c_k, the upper ``marginal``
    quantile of u_k.  The table of c_k is solved by one vectorised call of
    ``marginal.upper_quantile`` for the stages of both procedures; it is
    kept for every panel of the same m, and grows on demand to an eighth
    more stages than the most candidates seen.  A T within
    ``_BAND * max(1, |c_k|)`` of c_k gets its p-value, but only where it
    could decide whether N(u_k) >= k.  The table checks that the sf at
    each band's ends falls strictly on either side of u_k; a stage whose
    check fails gets an infinite band, and is then decided on the
    p-values of the candidates.
    """

    def __init__(self, marginal, q: float, a: float):
        _check_level(q, "FDR level q")
        _check_level(a, "FWER level a")
        self.marginal, self.q, self.a = marginal, q, a
        level = max(q, a) * (1.0 + _CUT_MARGIN)
        self.cut = float(marginal.upper_quantile(level)) if level < 1.0 else -math.inf
        # levels u_k and band ends around c_k; rows BH and step-down, columns k = 1, 2, ..
        self._m = None
        self._u = self._lo = self._hi = np.empty((2, 0))

    def _reach(self, stages: int, m: int) -> None:
        """Extend the tables of m tests to at least ``stages`` stages."""
        if m != self._m:
            self._m = m
            self._u = self._lo = self._hi = np.empty((2, 0))
        have = self._u.shape[1]
        if stages <= have:
            return
        stop = min(m, stages + stages // 8)
        u = np.stack([_bh_levels(self.q, m, have, stop),
                      _stepdown_levels(self.a, m, have, stop)])
        levels = np.concatenate([self._u, u], axis=1)
        if np.any(np.diff(levels, axis=1) < 0.0):
            raise ArithmeticError("a critical value decreases from one stage to the next")
        c = np.asarray(self.marginal.upper_quantile(u), dtype=float)
        width = _BAND * np.maximum(1.0, np.abs(c))
        lo, hi = c - width, c + width
        sf_lo, sf_hi = np.asarray(self.marginal.sf(np.stack([lo, hi])), dtype=float)
        failed = ~((sf_lo > u) & (sf_hi <= u))
        lo[failed], hi[failed] = -math.inf, math.inf
        self._u = levels
        self._lo = np.concatenate([self._lo, lo], axis=1)
        self._hi = np.concatenate([self._hi, hi], axis=1)

    def decide(self, t, nonnull=None) -> tuple[DecisionReport, DecisionReport]:
        """(BH report, step-down report) for the statistics ``t`` of m tests.

        Exact: a non-candidate's p-value sorts after every candidate's
        p-value at or below max(q, a), so those candidates hold the same
        ranks among themselves as among all m tests, and the critical
        values keep the full m.  Equal T give equal p-values and fall on
        the same side of the cut.  Should either procedure reject every
        candidate, the rows below the cut are next in line, and the
        decision is taken on the p-values of all m tests instead, so that
        it never rests on the margin alone.  NaN statistics are refused.
        """
        values = np.asarray(getattr(t, "t", t), dtype=float)
        if values.ndim != 1:
            raise ValueError("statistics must form a vector")
        _refuse_nan(values, "statistics")
        m = values.shape[0]
        rows = np.flatnonzero(values >= self.cut)
        rows = rows[np.argsort(values[rows])]
        ts, size = values[rows], rows.size
        self._reach(size, m)
        u, lo, hi = (table[:, :size] for table in (self._u, self._lo, self._hi))
        # sorted positions [start, stop) hold the T inside a band, [stop, size)
        # those above it: N(u_k) is at least size - stop and at most size - start
        # (c_k falls with k: the keys go in reversed, rising, which searches faster)
        start = np.searchsorted(ts, lo[:, ::-1], "right")[:, ::-1]
        stop = np.searchsorted(ts, hi[:, ::-1], "left")[:, ::-1]
        stages = np.arange(1, size + 1)
        ok = size - stop >= stages
        unsure = np.argwhere(~ok & (size - start >= stages))
        pv = np.full(size, np.nan)
        if unsure.size:
            near = np.unique(np.concatenate([np.arange(start[j, k], stop[j, k])
                                             for j, k in unsure]))
            pv[near] = one_sided_p_values(ts[near], self.marginal)
            for j, k in unsure:
                band = pv[start[j, k]:stop[j, k]]
                ok[j, k] = size - stop[j, k] + np.count_nonzero(band <= u[j, k]) > k
        k_bh, k_sd = _step_up(ok[0]), _step_down(ok[1])
        if size in (k_bh, k_sd):
            pv_all = one_sided_p_values(values, self.marginal)
            return (bh_fdr(pv_all, self.q, nonnull),
                    stepdown_fwer(pv_all, self.a, nonnull))

        def rejected(j: int, k: int) -> np.ndarray:
            """The candidates with p <= u_k of procedure j (0 BH, 1 step-down).

            Where stage k was sure, N(u_k) = k = size - stop: no T of its
            band counts, and none has a p-value.
            """
            if k == 0:
                return rows[:0]
            band = np.arange(start[j, k - 1], stop[j, k - 1])
            above = np.arange(stop[j, k - 1], size)
            return rows[np.concatenate([band[pv[band] <= u[j, k - 1]], above])]

        return (_report("bh", self.q, rejected(0, k_bh), m, nonnull),
                _report("stepdown-fwer", self.a, rejected(1, k_sd), m, nonnull))


def single_threshold(rows, t: float, nonnull=None) -> DecisionReport:
    """Reject every test whose statistic strictly exceeds the level t."""
    values = np.asarray(getattr(rows, "t", rows), dtype=float)
    rejected = np.flatnonzero(values > t).astype(np.int64) + 1
    report = DecisionReport(
        procedure=f"single-threshold(t={t:g})", kind="single-threshold",
        nominal=t, n_tests=values.shape[0], rejected=rejected,
    )
    return _attach_truth(report, nonnull)


# ---------------------------------------------------------------------------
# Realized error rates
# ---------------------------------------------------------------------------


@dataclass
class ErrorRateSummary:
    """Realized FWER/FDR over replicates, with uncertainty.

    FWER is the fraction of replicates with at least one false rejection
    (Wilson 95% interval); FDR is the mean false-discovery proportion
    with its standard error.
    """

    replicates: int
    fwer: float
    fwer_wilson: tuple[float, float]
    fdr: float
    fdr_se: float
    mean_rejections: float


def realized_error_rates(outcomes) -> ErrorRateSummary:
    """Aggregate realized error rates over replicates.

    ``outcomes`` holds one ``(rejections, false_rejections, fdp)`` triple
    per replicate, as :attr:`DecisionReport.outcome` gives it.  Every
    triple must carry the ground truth; otherwise the measurement is
    impossible and the call is rejected.  Means use exact summation
    (math.fsum), so the result does not depend on the replicate order.
    """
    outcomes = list(outcomes)
    if not outcomes:
        raise ValueError("no outcomes to aggregate")
    if any(false is None for _, false, _ in outcomes):
        raise ValueError(
            "realized error rates need ground truth: build the reports with "
            "nonnull given"
        )
    r = len(outcomes)
    false_any = sum(1 for _, false, _ in outcomes if false > 0)
    fdps = [fdp for _, _, fdp in outcomes]
    return ErrorRateSummary(
        replicates=r,
        fwer=false_any / r,
        fwer_wilson=wilson_interval(false_any, r),
        fdr=math.fsum(fdps) / r,
        fdr_se=float(np.std(fdps, ddof=1) / math.sqrt(r)) if r > 1 else 0.0,
        mean_rejections=math.fsum(rej for rej, _, _ in outcomes) / r,
    )
