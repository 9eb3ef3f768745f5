"""Special function and calibration calculus tests.

Reference values come from independent oracles computed in the tests:
mpmath for the normal distribution, bisection against our own CDFs for
quantiles, closed forms (Cauchy, orthant probability, products of tails)
and scipy as a cross-library check.
"""

import math
import time

import mpmath
import numpy as np
import pytest
import scipy.stats as st
from scipy.integrate import quad

from exceedlab import numerics as nm


def test_normal_cdf_center_and_symmetry():
    assert nm.normal_cdf(0.0) == 0.5
    for x in (0.3, 1.7, 4.2):
        assert nm.normal_cdf(-x) == pytest.approx(1.0 - nm.normal_cdf(x), abs=1e-15)


def test_normal_cdf_against_mpmath():
    for x in np.linspace(-8.0, 8.0, 81):
        want = float(mpmath.ncdf(float(x)))
        assert abs(nm.normal_cdf(float(x)) - want) < 1e-12


def test_normal_cdf_975_point():
    assert nm.normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)


def test_normal_quantile_tail_point_vs_bisection_oracle():
    # Bisection oracle on our own cdf, independent of the Newton path.
    u = 1.0 - 1e-6
    lo, hi = 0.0, 50.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if nm.normal_cdf(mid) < u:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)
    got = nm.normal_quantile(u)
    assert got == pytest.approx(oracle, abs=1e-9)
    assert got == pytest.approx(4.753424, abs=1e-4)


def test_normal_quantile_edges_and_roundtrip():
    assert nm.normal_quantile(0.0) == -math.inf
    assert nm.normal_quantile(1.0) == math.inf
    with pytest.raises(ValueError):
        nm.normal_quantile(-0.1)
    grid = np.concatenate([np.geomspace(1e-8, 0.5, 30), 1 - np.geomspace(1e-8, 0.4, 30)])
    for u in grid:
        x = nm.normal_quantile(float(u))
        assert abs(nm.normal_cdf(x) - u) < 1e-9


def test_student_t_cdf_center():
    for df in (1, 2, 10, 99, 1000):
        assert nm.student_t_cdf(0.0, df) == 0.5


def test_student_t_cdf_cauchy_closed_form():
    for x in np.linspace(-30, 30, 121):
        want = 0.5 + math.atan(float(x)) / math.pi
        assert abs(nm.student_t_cdf(float(x), 1) - want) < 1e-12


def test_student_t_dual_paths_agree():
    xs = np.linspace(-9.0, 9.0, 2001)
    for df in (1, 2, 10, 99, 1000):
        gap = nm.student_t_dual_gap(xs, df)
        assert float(np.max(gap)) < 1e-10


def test_series_oracle_refuses_a_df_it_cannot_reach_at_once():
    # near |x| = sqrt(3) the series needs ~9 df terms, above its cap at 1e5
    xs = np.linspace(-9.0, 9.0, 2001)
    t0 = time.perf_counter()
    with pytest.raises(ArithmeticError, match=r"cannot converge .* a = 50000\.0, b = 0\.5, x = "):
        nm.student_t_dual_gap(xs, 1e5)
    assert time.perf_counter() - t0 < 0.25


def test_series_oracle_refuses_df_25000_at_its_slowest_x_at_once():
    # the slowest x puts xb = df / (df + x^2) at the top of the direct branch,
    # where the sum bound (1 - xb)^(-1/2) / a refuses from df = 24,567 on
    df = 25_000.0
    a = 0.5 * df
    xb = (a + 1.0) / (a + 2.5)
    x = math.sqrt(df / xb - df)
    while df / (df + x * x) > xb:
        x = math.nextafter(x, math.inf)
    t0 = time.perf_counter()
    with pytest.raises(ArithmeticError, match=r"cannot converge .* a = 12500\.0, b = 0\.5, x = "):
        nm.student_t_dual_gap(x, df)
    assert time.perf_counter() - t0 < 0.25


def test_betainc_series_matches_the_continued_fraction():
    # the power series is the continued fraction's oracle, away from b = 1/2 too
    xs = np.linspace(0.0, 1.0, 201)
    for a in (0.5, 2.0, 10.0):
        for b in (0.5, 3.0, 20.0):
            series = nm._betainc(a, b, xs, nm._betainc_series_core)
            assert np.max(np.abs(nm._betainc(a, b, xs, nm._betainc_cf_core) - series)) < 1e-10


def test_student_t_cdf_against_scipy():
    xs = np.linspace(-9.0, 9.0, 501)
    for df in (1, 3, 25, 99, 400):
        assert np.max(np.abs(nm.student_t_cdf(xs, df) - st.t.cdf(xs, df))) < 1e-11


def test_student_t_quantile_paper_level():
    got = nm.student_t_quantile(1.0 - 1e-6, 99)
    assert got == pytest.approx(5.052, abs=1e-3)


def test_student_t_quantile_roundtrip():
    grid = np.concatenate([np.geomspace(1e-8, 0.5, 20), 1 - np.geomspace(1e-8, 0.4, 20)])
    for df in (1, 2, 10, 99, 1000):
        for u in grid:
            x = nm.student_t_quantile(float(u), df)
            assert abs(nm.student_t_cdf(x, df) - u) < 1e-9
        assert nm.student_t_quantile(0.5, df) == 0.0


def test_student_t_isf_inverts_the_sf_elementwise():
    # the upper quantiles keep their input's shape and invert the sf into
    # the deep tail and past u = 1/2; in the upper tail they agree with
    # scipy's (near u = 1 the sf is too flat to pin x down)
    grid = np.concatenate([np.geomspace(1e-12, 0.5, 30), 1 - np.geomspace(1e-8, 0.45, 10)])
    for df in (1, 1.5, 2, 3.5, 39, 399, 1e4):
        x = nm.student_t_isf(grid.reshape(5, 8), df).ravel()
        assert np.allclose(nm.student_t_sf(x, df), grid, rtol=1e-11, atol=0)
        assert np.allclose(x[:30], st.t.isf(grid[:30], df), rtol=1e-11, atol=1e-11)
    with pytest.raises(ValueError):
        nm.student_t_isf([0.5, 1.0], 10)


def test_student_t_rejects_bad_df_and_levels():
    with pytest.raises(ValueError):
        nm.student_t_cdf(1.0, 0.5)
    with pytest.raises(ValueError):
        nm.student_t_quantile(0.0, 10)
    with pytest.raises(ValueError):
        nm.student_t_quantile(1.0, 10)


def test_student_t_converges_to_normal():
    xs = np.linspace(-8.0, 8.0, 401)
    gap = np.abs(nm.student_t_cdf(xs, 1e6) - np.array([nm.normal_cdf(float(x)) for x in xs]))
    assert float(gap.max()) < 1e-5


def test_student_t_sf_deep_tail():
    # sf computed tail-first: no 1 - cdf cancellation even at 1e-60 levels
    assert nm.student_t_sf(40.0, 99) == pytest.approx(float(st.t.sf(40.0, 99)), rel=1e-10)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_student_t_sf_where_x_squared_overflows():
    # |x| above ~1.3e154: df / (df + x * x) would be 0 and the tail with it.
    # At df = 1 the sf is atan(1/x) / pi = 1/(pi x) to far below 1e-300.
    xs = np.array([1.0e154, 1.4e154, 1.0e155, 3.0e200, 1.0e300, 1.7e308])
    want = 1.0 / math.pi / xs  # pi x overflows at the last
    for x, sf in zip(xs, want):
        assert nm.student_t_sf(x, 1) == pytest.approx(sf, rel=1e-12)
        assert nm.student_t_cdf(-x, 1) == pytest.approx(sf, rel=1e-12)
        assert nm.student_t_cdf(x, 1) == 1.0
    got = nm.student_t_sf(np.concatenate((xs, -xs, [2.0, np.inf, -np.inf])), 1)
    assert np.allclose(got[:6], want, rtol=1e-12, atol=0)
    assert np.array_equal(got[6:12], np.ones(6))
    assert got[12] == nm.student_t_sf(2.0, 1) and got[13] == 0.0 and got[14] == 1.0
    # heavier df underflows to 0, as the true tail ~ x^-df does
    assert nm.student_t_sf(1e155, 3) == 0.0


def test_import_leaves_quadrature_and_optimisation_unloaded():
    # scipy.integrate (and the scipy.optimize it pulls in) loads only when
    # bivariate_normal_tail is called: no run's hot path needs them.
    import subprocess
    import sys

    code = ("import sys, exceedlab; "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]", out.stdout


def test_bivariate_tail_quadrant():
    assert nm.bivariate_normal_tail(0.0, 0.0) == pytest.approx(0.25, abs=1e-14)


def test_bivariate_tail_orthant_closed_form():
    for rho in (-0.95, -0.5, -0.1, 0.2, 0.6, 0.9, 0.999):
        want = 0.25 + math.asin(rho) / (2.0 * math.pi)
        assert abs(nm.bivariate_normal_tail(0.0, rho) - want) < 1e-12


def test_bivariate_tail_independent_product():
    want = nm.normal_sf(2.0) ** 2
    assert nm.bivariate_normal_tail(2.0, 0.0) == pytest.approx(want, abs=1e-14)


def test_bivariate_tail_against_quadrature_oracle():
    # Independent double-integral oracle over the conditional tail.
    def oracle(s, rho):
        rr = math.sqrt(1.0 - rho * rho)

        def integrand(z):
            return nm.normal_pdf(z) * nm.normal_sf((s - rho * z) / rr)

        val, _ = quad(integrand, s, math.inf, epsabs=1e-14, limit=300)
        return val

    for s, rho in ((1.0, 0.3), (2.5, 0.5), (3.0, -0.4), (0.5, 0.85)):
        assert nm.bivariate_normal_tail(s, rho) == pytest.approx(
            oracle(s, rho), abs=1e-12
        )


def test_bivariate_tail_monotone_in_rho_and_guards():
    values = [nm.bivariate_normal_tail(1.5, r) for r in np.linspace(-0.9, 0.9, 19)]
    assert all(b > a for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        nm.bivariate_normal_tail(1.0, 1.0)
    with pytest.raises(ValueError):
        nm.bivariate_normal_tail(-0.5, 0.0)


def test_dependence_summary_worked_values():
    s = nm.dependence_summary(0.1)
    assert s.alpha == 0.225
    assert s.gamma == 1.225
    s0 = nm.dependence_summary(0.0)
    assert s0.alpha == 0.25 and s0.gamma == 1.25


def test_dependence_summary_limit_and_rejection():
    s = nm.dependence_summary(1.0 - 1e-12)
    assert 0.0 < s.alpha < 1e-12
    assert 1.0 < s.gamma < 1.0 + 1e-12
    with pytest.raises(ValueError):
        nm.dependence_summary(1.0)
    with pytest.raises(ValueError):
        nm.dependence_summary(-0.2)


def test_threshold_regime_arithmetic():
    t = nm.threshold_regime(10**6, 0.0, 1.225)
    assert t.t_min == pytest.approx(math.sqrt(2.0 * math.log(1e6) / 1.225), rel=1e-14)
    # gamma = 1 reduces to the classical extreme level
    t1 = nm.threshold_regime(10**6, 0.0, 1.0)
    assert t1.t_min == pytest.approx(math.sqrt(2.0 * math.log(1e6)), rel=1e-14)


def test_threshold_regime_eta_solves_worked_level():
    base = nm.threshold_regime(10**6, 0.0, 1.225).t_min
    eta = 5.052 / base - 1.0
    assert eta == pytest.approx(0.064, abs=1e-3)
    assert nm.threshold_regime(10**6, eta, 1.225).t_min == pytest.approx(5.052, abs=1e-12)


def test_threshold_regime_monotonicity_and_refinement():
    assert nm.threshold_regime(10**7, 0.0, 1.2).t_min > nm.threshold_regime(10**6, 0.0, 1.2).t_min
    assert nm.threshold_regime(10**6, 0.1, 1.2).t_min > nm.threshold_regime(10**6, 0.0, 1.2).t_min
    assert nm.threshold_regime(10**6, 0.0, 1.25).t_min < nm.threshold_regime(10**6, 0.0, 1.2).t_min
    ma = nm.threshold_regime(10**6, 0.0, 1.225, variant="moving-average")
    assert nm.LOGLOG_COEFF == 3.0
    want = math.sqrt(2.0 * (math.log(1e6) + 3.0 * math.log(math.log(1e6))) / 1.225)
    assert ma.t_refined == pytest.approx(want, rel=1e-14)
    with pytest.raises(ValueError):
        nm.threshold_regime(1, 0.0, 1.2)
    with pytest.raises(ValueError):
        nm.threshold_regime(100, 0.0, 0.9)


def test_phi_bound_worked_value():
    b = nm.phi_bound(5.052, 10**5, 1.225)
    first = math.exp(-0.25 * 5.052**2)
    second = 10**5 * math.exp(-0.5 * 1.225 * 5.052**2)
    assert first == pytest.approx(0.00169, abs=2e-5)
    assert second == pytest.approx(0.0163, abs=1e-4)
    assert b.phi_nominal == first + second
    assert b.phi_nominal == pytest.approx(0.0180, abs=2e-4)
    ratio = b.phi_nominal / 0.09516
    assert 0.17 < ratio < 0.21


def test_phi_bound_monotonicity():
    ts = np.linspace(2.0, 9.0, 15)
    vals = [nm.phi_bound(float(t), 10**5, 1.225).phi_nominal for t in ts]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    ps = [10**3, 10**4, 10**5, 10**6]
    vals = [nm.phi_bound(5.0, p, 1.225).phi_nominal for p in ps]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    gs = [1.0, 1.1, 1.2, 1.25]
    vals = [nm.phi_bound(5.0, 10**5, g).phi_nominal for g in gs]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert nm.phi_bound(40.0, 10**6, 1.225).phi_nominal < 1e-80


def test_any_exceedence_prob_worked_values():
    assert nm.any_exceedence_prob(10**4, 1e-6) == pytest.approx(0.00995, abs=5e-6)
    assert nm.any_exceedence_prob(10**5, 1e-6) == pytest.approx(0.09516, abs=5e-6)
    assert nm.any_exceedence_prob(10**6, 1e-6) == pytest.approx(0.63212, abs=5e-6)


def test_any_exceedence_prob_edges_and_stability():
    assert nm.any_exceedence_prob(10, 0.0) == 0.0
    assert nm.any_exceedence_prob(10, 1.0) == 1.0
    # tiny q at large p keeps full precision through log1p/expm1:
    # high-precision oracle for 1 - (1 - 1e-12)^(1e9)
    with mpmath.workdps(50):
        want = float(1 - (1 - mpmath.mpf("1e-12")) ** (10**9))
    assert nm.any_exceedence_prob(10**9, 1e-12) == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError):
        nm.any_exceedence_prob(0, 0.5)
    with pytest.raises(ValueError):
        nm.any_exceedence_prob(10, 1.5)


def test_phi_over_any_exceedence_vanishes_along_matched_levels():
    # Along levels t with 1 - Phi(t) = 1/p the relative error shrinks to zero.
    gamma = 1.225
    ratios = []
    for k in range(3, 10):
        p = 10**k
        t = nm.normal_quantile(1.0 - 1.0 / p)
        phi = nm.phi_bound(t, p, gamma).phi_nominal
        ratios.append(phi / nm.any_exceedence_prob(p, 1.0 / p))
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < 0.1 * ratios[0]


def test_betainc_methods_reject_bad_input():
    with pytest.raises(ValueError):
        nm._betainc(0.0, 1.0, 0.5, nm._betainc_cf_core)
    with pytest.raises(ValueError):
        nm._betainc(1.0, 1.0, 1.5, nm._betainc_cf_core)


def test_nan_propagates():
    assert math.isnan(nm._betainc(2.0, 3.0, math.nan, nm._betainc_cf_core))
    assert math.isnan(nm.student_t_cdf(math.nan, 10))
