"""Special functions and the threshold/error-bound calculus.

Everything here is pure and reentrant.  The Student t CDF is evaluated
through the regularized incomplete beta function along two independent
routes (a Lentz-style continued fraction and a power series, both behind
the same symmetry switch); their agreement is a shipped self-test, see
:func:`student_t_dual_gap`.  Every Student t quantile comes from one
vectorised Newton solve on the log sf, kept inside the bracket its own
evaluations give (:func:`student_t_isf`); the normal quantile polishes
Acklam's rational guess by Newton steps.

The calibration quantities follow the dependent-panel calculus:

* ``alpha = (1 - rho_max) / 4`` and ``gamma = alpha + 1``,
* the admissible threshold floor ``t_min = (1 + eta) * sqrt(2 log(p) / gamma)``
  with a refined moving-average variant
  ``sqrt(2 (log p + A log log p) / gamma)``,
* the nominal error bound ``phi(t) = exp(-t^2/4) + p exp(-gamma t^2/2)``.

``phi_nominal`` sets the unknowable ``exp(o(t^2))`` prefactor to one and is
therefore a shape, not a certified bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LOGLOG_COEFF",
    "DependenceSummary",
    "ErrorBound",
    "ThresholdRegime",
    "any_exceedence_prob",
    "bivariate_normal_tail",
    "dependence_summary",
    "normal_cdf",
    "normal_pdf",
    "normal_quantile",
    "normal_sf",
    "phi_bound",
    "student_t_cdf",
    "student_t_dual_gap",
    "student_t_isf",
    "student_t_quantile",
    "student_t_sf",
    "threshold_regime",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Standard normal distribution
# ---------------------------------------------------------------------------


def normal_pdf(x: float) -> float:
    """Standard normal density."""
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def normal_cdf(x: float) -> float:
    """Standard normal distribution function, accurate to well below 1e-12."""
    return 0.5 * math.erfc(-x / _SQRT2)


def normal_sf(x: float) -> float:
    """Upper tail 1 - Phi(x), computed without cancellation."""
    return 0.5 * math.erfc(x / _SQRT2)


# Acklam's rational approximation of the normal quantile: the first guess of
# normal_quantile, polished below by Newton steps, and of student_t_isf.
_ACKLAM_A = (
    -3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
    1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00,
)
_ACKLAM_B = (
    -5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
    6.680131188771972e01, -1.328068155288572e01,
)
_ACKLAM_C = (
    -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
    -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00,
)
_ACKLAM_D = (
    7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
    3.754408661907416e00,
)


def _normal_isf_guess(u: np.ndarray) -> np.ndarray:
    """Acklam's rational approximation of z with 1 - Phi(z) = u, elementwise."""
    a, b, c, d = _ACKLAM_A, _ACKLAM_B, _ACKLAM_C, _ACKLAM_D
    small = np.minimum(u, 1.0 - u)
    r = np.sqrt(-2.0 * np.log(small))
    tail = np.polyval(c, r) / np.polyval((*d, 1.0), r)  # Phi^{-1}(small) < 0
    s = u - 0.5
    central = np.polyval(a, s * s) * s / np.polyval((*b, 1.0), s * s)
    return np.where(small < 0.02425, np.where(u <= 0.5, -tail, tail), -central)


def normal_quantile(u: float) -> float:
    """Inverse of :func:`normal_cdf` on (0, 1).

    ``u`` equal to 0 or 1 returns the correspondingly signed infinity;
    values outside [0, 1] are rejected.
    """
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"quantile level must lie in [0, 1], got {u!r}")
    if u == 0.0:
        return -math.inf
    if u == 1.0:
        return math.inf
    x = -float(_normal_isf_guess(u))
    # Newton polish; the tail branch works on the smaller of cdf/sf so the
    # residual stays well conditioned out to u = 1e-300.
    for _ in range(4):
        if u <= 0.5:
            err = normal_cdf(x) - u
        else:
            err = (1.0 - u) - normal_sf(x)
        pdf = normal_pdf(x)
        if pdf == 0.0:
            break
        step = err / pdf
        x -= step
        if abs(step) <= 1e-15 * max(1.0, abs(x)):
            break
    return x


# ---------------------------------------------------------------------------
# Regularized incomplete beta: two independent evaluation routes
# ---------------------------------------------------------------------------

_BETA_TINY = 1e-300
_CF_MAX_ITER = 600
_SERIES_MAX_ITER = 200_000


def _lbeta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _betainc_cf_core(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """Continued fraction for I_x(a,b), valid for x <= (a+1)/(a+b+2).

    Modified Lentz evaluation of the standard even/odd coefficient pattern,
    vectorized over ``x`` with lock-step iterations.
    """
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    np.copyto(d, _BETA_TINY, where=np.abs(d) < _BETA_TINY)
    d = 1.0 / d
    h = d.copy()
    done = np.zeros(x.shape, dtype=bool)
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        np.copyto(d, _BETA_TINY, where=np.abs(d) < _BETA_TINY)
        c = 1.0 + aa / c
        np.copyto(c, _BETA_TINY, where=np.abs(c) < _BETA_TINY)
        d = 1.0 / d
        h *= np.where(done, 1.0, d * c)
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        np.copyto(d, _BETA_TINY, where=np.abs(d) < _BETA_TINY)
        c = 1.0 + aa / c
        np.copyto(c, _BETA_TINY, where=np.abs(c) < _BETA_TINY)
        d = 1.0 / d
        delta = d * c
        h *= np.where(done, 1.0, delta)
        done |= np.abs(delta - 1.0) < 1e-15
        if np.all(done):
            break
    else:
        raise ArithmeticError("incomplete beta continued fraction did not converge")
    lb = _lbeta(a, b)
    with np.errstate(divide="ignore"):
        front = np.exp(a * np.log(x) + b * np.log1p(-x) - math.log(a) - lb)
    return front * h


def _betainc_series_core(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """Power series for I_x(a,b) on the same domain as the continued fraction.

    Uses I_x(a,b) = x^a / B(a,b) * sum_n (1-b)_n x^n / (n! (a+n)), a route
    that shares no intermediate with :func:`_betainc_cf_core`.

    For 0 < b < 1 it raises ArithmeticError up front where the terms
    provably cannot meet the stopping rule within ``_SERIES_MAX_ITER``.
    """
    if 0.0 < b < 1.0:
        # Every term is positive and falls with n, and term n is at least
        # x^n (n + 1)^-b / (Gamma(1 - b) (a + n)) (Gautschi).  The sum stays
        # below B(a, b) x^-a, as I_x(a, b) <= 1, and below (1 - x)^(b - 1) / a,
        # as the (1 - b)_n x^n / n! sum to that.  If the last allowed term at
        # the largest x is above twice the stop fraction of the smaller bound
        # (the factor 2 covers rounding), no term there can stop the loop.
        n, x_max = _SERIES_MAX_ITER, float(np.max(x))
        log_term = (n * math.log(x_max) - b * math.log(n + 1.0)
                    - math.lgamma(1.0 - b) - math.log(a + n))
        log_sum = min(_lbeta(a, b) - a * math.log(x_max),
                      (b - 1.0) * math.log1p(-x_max) - math.log(a))
        if log_term > math.log(2e-17) + log_sum:
            raise ArithmeticError(
                f"incomplete beta series cannot converge in {n} terms at "
                f"a = {a!r}, b = {b!r}, x = {x_max!r}"
            )
    s = np.full_like(x, 1.0 / a)
    t = np.ones_like(x)
    done = np.zeros(x.shape, dtype=bool)
    for n in range(1, _SERIES_MAX_ITER + 1):
        t = t * ((n - b) / n) * x
        term = np.where(done, 0.0, t / (a + n))
        s += term
        done |= np.abs(term) <= 1e-17 * np.abs(s)
        if np.all(done):
            break
    else:
        raise ArithmeticError("incomplete beta series did not converge")
    lb = _lbeta(a, b)
    with np.errstate(divide="ignore"):
        return s * np.exp(a * np.log(x) - lb)


def _betainc(a: float, b: float, x, core):
    """Regularized incomplete beta I_x(a, b) for a, b > 0, x in [0, 1],
    through ``core``, the continued fraction or the series.

    Both routes apply the symmetry switch ``I_x(a,b) = 1 - I_{1-x}(b,a)``
    at ``x > (a+1)/(a+b+2)``.  Scalar input gives scalar output.
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError("incomplete beta requires a > 0 and b > 0")
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs)
    if np.any((xs < 0.0) | (xs > 1.0)):
        raise ValueError("incomplete beta argument x must lie in [0, 1]")

    out = np.full_like(xs, np.nan)
    direct = xs <= (a + 1.0) / (a + b + 2.0)
    interior = (xs > 0.0) & (xs < 1.0)
    m_direct = direct & interior
    m_swap = ~direct & interior
    if np.any(m_direct):
        out[m_direct] = core(a, b, xs[m_direct])
    if np.any(m_swap):
        out[m_swap] = 1.0 - core(b, a, 1.0 - xs[m_swap])
    out[xs == 0.0] = 0.0
    out[xs == 1.0] = 1.0
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Student t distribution
# ---------------------------------------------------------------------------


def _check_df(df: float) -> float:
    df = float(df)
    if not df >= 1.0:
        raise ValueError(f"degrees of freedom must be >= 1, got {df!r}")
    return df


def student_t_cdf(x, df: float):
    """Student t distribution function via the regularized incomplete beta.

    Its continued fraction and power series agree to better than 1e-10;
    :func:`student_t_dual_gap` exposes the gap.  Accepts scalars or arrays.
    """
    return _student_t_cdf(x, df, _betainc_cf_core)


def _student_t_cdf(x, df: float, core):
    """:func:`student_t_cdf` with the incomplete beta evaluated by ``core``."""
    df = _check_df(df)
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs)
    with np.errstate(over="ignore"):
        sq = xs * xs
    xb = df / (df + sq)
    tail = 0.5 * np.asarray(_betainc(0.5 * df, 0.5, xb, core))
    tail = np.atleast_1d(tail)
    huge = np.isinf(sq) & np.isfinite(xs)
    if huge.any():
        # x * x overflows (|x| > ~1.3e154): xb = df / x^2 to the last bit,
        # and I_xb(a, 1/2) is its leading term xb^a / (a B(a, 1/2)), the
        # rest of the series being relatively below 1e-300
        a = 0.5 * df
        log_xb = math.log(df) - 2.0 * np.log(np.abs(xs[huge]))
        tail[huge] = 0.5 * np.exp(a * log_xb - math.log(a) - _lbeta(a, 0.5))
    out = np.where(xs >= 0.0, 1.0 - tail, tail)
    out[np.isposinf(xs)] = 1.0
    out[np.isneginf(xs)] = 0.0
    return float(out[0]) if scalar else out


def student_t_sf(x, df: float):
    """Upper tail P(T > x); exact in the far tail (no 1 - cdf cancellation)."""
    return student_t_cdf(-np.asarray(x, dtype=float), df)


def student_t_dual_gap(x, df: float):
    """Absolute disagreement of the two Student t CDF evaluation routes.

    The series route stops at ``_SERIES_MAX_ITER`` terms.  It needs the
    most, about 9 df, just above |x| = sqrt(3), and reaches every x there
    for df up to 23,704.  Beyond, such x raise ArithmeticError: up front
    from df = 24,567 on, after the last term in between.
    """
    cf = np.asarray(_student_t_cdf(x, df, _betainc_cf_core))
    series = np.asarray(_student_t_cdf(x, df, _betainc_series_core))
    gap = np.abs(cf - series)
    return float(gap) if gap.ndim == 0 else gap


def student_t_isf(u, df: float) -> np.ndarray:
    """Upper quantiles: x with ``student_t_sf(x, df) = u``, elementwise on (0, 1).

    The one Student t quantile solve; :func:`student_t_quantile` calls it
    for the smaller tail.  Newton steps on log sf start from the closed
    form at df = 1 and 2, and otherwise from the Cornish-Fisher expansion
    about the normal quantile.  A step that leaves the bracket the
    evaluated sf values give bisects it, or steps max(1, |end|) past the
    end of a one-sided one.  Each step evaluates the sf of every level not
    yet converged in one call.  A level has converged when its Newton step
    is within 1e-8 * max(1, |x|), so its error is about the square of
    that; the looser bound is what the sf's own rounding allows near
    u = 1/2 at df in the millions.  After 100 steps the last iterate is
    returned.
    """
    df = _check_df(df)
    levels = np.asarray(u, dtype=float)
    if not np.all((levels > 0.0) & (levels < 1.0)):
        raise ValueError("quantile levels must lie in (0, 1)")
    flat = levels.ravel()
    if df == 1.0:  # Cauchy and df = 2 have closed forms
        x = 1.0 / np.tan(math.pi * flat)
    elif df == 2.0:
        x = (1.0 - 2.0 * flat) / np.sqrt(2.0 * flat * (1.0 - flat))
    else:
        z = _normal_isf_guess(flat)
        x = (z + (z ** 3 + z) / (4.0 * df)
             + (5.0 * z ** 5 + 16.0 * z ** 3 + 3.0 * z) / (96.0 * df * df))
    lo = np.full_like(x, -math.inf)
    hi = np.full_like(x, math.inf)
    log_norm = (math.lgamma(0.5 * (df + 1.0)) - math.lgamma(0.5 * df)
                - 0.5 * math.log(df * math.pi))
    active = np.arange(x.size)
    for _ in range(100):
        if active.size == 0:
            break
        xa, ua = x[active], flat[active]
        sf = student_t_sf(xa, df)
        la = np.where(sf > ua, xa, lo[active])
        ha = np.where(sf < ua, xa, hi[active])
        lo[active], hi[active] = la, ha
        density = np.exp(log_norm - 0.5 * (df + 1.0) * np.log1p(xa * xa / df))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = (np.log(sf) - np.log(ua)) * sf / density
            step[sf == ua] = 0.0
            new = xa + step
            done = np.abs(step) <= 1e-8 * np.maximum(1.0, np.abs(xa))
            out = ~done & ~((new > la) & (new < ha))
            la, ha = la[out], ha[out]
            new[out] = np.where(np.isinf(la), ha - np.maximum(1.0, np.abs(ha)),
                                np.where(np.isinf(ha), la + np.maximum(1.0, np.abs(la)),
                                         0.5 * (la + ha)))
        x[active] = new
        active = active[~done]
    return x.reshape(levels.shape)


def student_t_quantile(u: float, df: float) -> float:
    """Inverse Student t CDF on (0, 1); round-trips to better than 1e-9.

    By symmetry, :func:`student_t_isf` of the smaller tail: of u below 1/2,
    and of 1 - u, which is exact, above it.  u = 1/2 gives exactly 0.
    """
    _check_df(df)
    if u == 0.5:
        return 0.0
    if u < 0.5:
        return -float(student_t_isf(u, df))
    return float(student_t_isf(1.0 - u, df))


# ---------------------------------------------------------------------------
# Bivariate normal upper orthant tail
# ---------------------------------------------------------------------------


def bivariate_normal_tail(s: float, rho: float) -> float:
    """P(Z1 > s, Z2 > s) for standard bivariate normal with correlation rho.

    Uses the tetrachoric reduction: the derivative of the orthant
    probability in rho is the bivariate density at (s, s), so

        P(s, rho) = (1 - Phi(s))^2
                    + (2 pi)^{-1} * integral_0^{arcsin rho}
                          exp(-s^2 / (1 + sin theta)) d theta,

    a smooth bounded integrand handled by adaptive quadrature to absolute
    error well below 1e-12.  Requires s >= 0 and |rho| < 1.
    """
    if not -1.0 < rho < 1.0:
        raise ValueError(f"correlation must satisfy |rho| < 1, got {rho!r}")
    if s < 0.0:
        raise ValueError(f"level s must be nonnegative, got {s!r}")
    base = normal_sf(s) ** 2
    if rho == 0.0:
        return base
    from scipy.integrate import quad  # imported here: no run's hot path needs it

    ss = s * s
    val, err = quad(
        lambda theta: math.exp(-ss / (1.0 + math.sin(theta))),
        0.0,
        math.asin(rho),
        epsabs=1e-15,
        epsrel=1e-13,
        limit=200,
    )
    if abs(err) > 1e-12:
        raise ArithmeticError(f"bivariate tail quadrature error {err:g} too large")
    return base + val / (2.0 * math.pi)


# ---------------------------------------------------------------------------
# Calibration calculus
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DependenceSummary:
    """Pairwise-correlation summary driving the threshold calculus.

    ``alpha = (1 - rho_max) / 4`` and ``gamma = alpha + 1``; with
    ``rho_max`` in [0, 1) this pins alpha to (0, 1/4] and gamma to
    (1, 1.25].
    """

    rho_max: float
    alpha: float
    gamma: float


def dependence_summary(rho_max: float) -> DependenceSummary:
    """Summary constants for a maximal pairwise correlation in [0, 1)."""
    if not 0.0 <= rho_max < 1.0:
        raise ValueError(f"rho_max must lie in [0, 1), got {rho_max!r}")
    alpha = 0.25 * (1.0 - rho_max)
    return DependenceSummary(rho_max=rho_max, alpha=alpha, gamma=alpha + 1.0)


# The constant A of the refined moving-average level: the theory asks only
# that it be sufficiently large.
LOGLOG_COEFF = 3.0


@dataclass(frozen=True)
class ThresholdRegime:
    """Admissible level floor for a test count p and slack eta.

    ``t_min = (1 + eta) sqrt(2 log(p) / gamma)``.  For the moving-average
    generalization the refined level
    ``t_refined = sqrt(2 (log p + A log log p) / gamma)`` is also filled
    in, with A = ``LOGLOG_COEFF``.
    """

    p: int
    eta: float
    gamma: float
    t_min: float
    t_refined: float | None = None


def threshold_regime(
    p: int,
    eta: float,
    gamma: float,
    variant: str = "plain",
) -> ThresholdRegime:
    """Level floor(s) for ``p`` tests, slack ``eta`` and constant ``gamma``.

    ``variant`` is ``"plain"`` or ``"moving-average"``; the latter also
    computes the refined log-log level.  ``eta = 0`` and ``gamma = 1`` are
    accepted as the boundary of the regime.
    """
    if p < 2:
        raise ValueError(f"test count p must be >= 2, got {p!r}")
    if eta < 0.0:
        raise ValueError(f"slack eta must be >= 0, got {eta!r}")
    if gamma < 1.0:
        raise ValueError(f"gamma must be >= 1, got {gamma!r}")
    if variant not in ("plain", "moving-average"):
        raise ValueError(f"unknown threshold variant {variant!r}")
    logp = math.log(p)
    t_min = (1.0 + eta) * math.sqrt(2.0 * logp / gamma)
    t_refined = None
    if variant == "moving-average":
        t_refined = math.sqrt(2.0 * (logp + LOGLOG_COEFF * math.log(logp)) / gamma)
    return ThresholdRegime(p=p, eta=eta, gamma=gamma, t_min=t_min, t_refined=t_refined)


@dataclass(frozen=True)
class ErrorBound:
    """Nominal independence-approximation error at level t.

    ``phi_nominal = exp(-t^2/4) + p exp(-gamma t^2/2)`` with the
    exp(o(t^2)) prefactor set to one; a shape for comparisons, not a
    certified bound.
    """

    t: float
    p: int
    gamma: float
    phi_nominal: float


def phi_bound(t: float, p: int, gamma: float) -> ErrorBound:
    """Nominal error bound at level ``t`` for ``p`` tests."""
    if t <= 0.0:
        raise ValueError(f"level t must be positive, got {t!r}")
    if p < 1:
        raise ValueError(f"test count p must be >= 1, got {p!r}")
    if gamma < 1.0:
        raise ValueError(f"gamma must be >= 1, got {gamma!r}")
    tt = t * t
    phi = math.exp(-0.25 * tt) + p * math.exp(-0.5 * gamma * tt)
    return ErrorBound(t=t, p=p, gamma=gamma, phi_nominal=phi)


def any_exceedence_prob(p: int, q_single: float) -> float:
    """P(at least one of p independent events), each of probability q_single.

    Evaluates ``1 - (1 - q)^p`` through log1p/expm1 so tiny ``q`` at large
    ``p`` keeps full precision.
    """
    if p < 1:
        raise ValueError(f"test count p must be >= 1, got {p!r}")
    if not 0.0 <= q_single <= 1.0:
        raise ValueError(f"q_single must lie in [0, 1], got {q_single!r}")
    if q_single == 1.0:
        return 1.0
    return -math.expm1(p * math.log1p(-q_single))
