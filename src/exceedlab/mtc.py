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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from exceedlab.exceedance import wilson_interval
from exceedlab.numerics import student_t_quantile, student_t_sf, threshold_regime

__all__ = [
    "BinCounts",
    "BinSpec",
    "DecisionReport",
    "ErrorRateSummary",
    "StudentTMarginal",
    "StudentizedNormalMarginal",
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

    def upper_quantile(self, q: float) -> float:
        return -student_t_quantile(q, self.df)

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

    def upper_quantile(self, q: float) -> float:
        return -student_t_quantile(q, self.n - 1) / self._scale

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
    thresholds = np.array(
        [marginal.upper_quantile(j * beta / p) for j in range(1, k + 1)]
    )
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
    are filled when the ground truth (the non-null index set) is known.
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
    nonnull = set(int(i) for i in nonnull)
    false = sum(1 for i in report.rejected if int(i) not in nonnull)
    report.false_rejections = int(false)
    report.fdp = false / max(1, report.rejected.size)
    return report


def bh_fdr(p_values, q: float, nonnull=None) -> DecisionReport:
    """Benjamini-Hochberg step-up at FDR level ``q``.

    Rejects the tests with the smallest i p-values where i is the largest
    index with p_(i) <= i q / m.  Ties are broken by original index
    (stable sort), keeping the outcome deterministic.
    """
    pv = np.asarray(p_values, dtype=float)
    if pv.ndim != 1:
        raise ValueError("p-values must form a vector")
    if np.any((pv < 0.0) | (pv > 1.0)):
        raise ValueError("p-values must lie in [0, 1]")
    if not 0.0 < q < 1.0:
        raise ValueError(f"FDR level q must lie in (0, 1), got {q!r}")
    m = pv.shape[0]
    order = np.argsort(pv, kind="stable")
    sorted_pv = pv[order]
    ok = sorted_pv <= q * np.arange(1, m + 1) / m
    if np.any(ok):
        cut = int(np.flatnonzero(ok).max()) + 1
        rejected = np.sort(order[:cut]) + 1
    else:
        rejected = np.empty(0, dtype=np.int64)
    report = DecisionReport(
        procedure=f"BH(q={q:g})", kind="bh", nominal=q, n_tests=m,
        rejected=rejected.astype(np.int64),
    )
    return _attach_truth(report, nonnull)


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
    if not 0.0 < a < 1.0:
        raise ValueError(f"FWER level a must lie in (0, 1), got {a!r}")
    pv = np.asarray(p_values, dtype=float)
    if np.any((pv < 0.0) | (pv > 1.0)):
        raise ValueError("p-values must lie in [0, 1]")
    m = pv.shape[0]
    order = np.argsort(pv, kind="stable")
    sorted_pv = pv[order]
    remaining = m - np.arange(m)
    crit = -np.expm1(np.log1p(-a) / remaining)
    crit[-1:] = a  # exactly a at the last stage, where the rounded form can fall below it
    ok = sorted_pv <= crit
    cut = m if bool(ok.all()) else int(np.argmin(ok))
    rejected = np.sort(order[:cut]) + 1
    report = DecisionReport(
        procedure=f"stepdown-FWER(a={a:g})", kind="stepdown-fwer", nominal=a,
        n_tests=m, rejected=rejected.astype(np.int64),
    )
    return _attach_truth(report, nonnull)


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
