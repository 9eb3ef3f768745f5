"""Studentized statistic tests: worked rows, conventions, the level map."""

import math

import numpy as np
import pytest
import scipy.stats as st
from hypothesis import assume, given, settings, strategies as hst

from exceedlab import studentize as stu


def _direct_t(row):
    # Independent arithmetic oracle for one row.
    row = np.asarray(row, dtype=float)
    n = row.size
    mean = row.sum() / n
    s2 = (row * row).sum() / n - mean * mean
    return math.sqrt(n) * mean / math.sqrt(s2)


def test_symmetric_row_is_zero():
    rows = stu.studentize_panel(np.array([[1.0, -1.0, 1.0, -1.0]]))
    assert rows.t[0] == 0.0


def test_worked_row():
    row = [1.0, 1.0, 1.0, -1.0]
    rows = stu.studentize_panel(np.array([row]))
    assert rows.t[0] == pytest.approx(1.154700, abs=1e-6)
    assert rows.t[0] == pytest.approx(_direct_t(row), rel=1e-15)


def test_zero_row_convention():
    rows = stu.studentize_panel(np.zeros((1, 4)))
    assert rows.t[0] == 1.0
    assert rows.r[0] == pytest.approx(1.0 / math.sqrt(1.25), rel=1e-15)


def test_constant_row_convention():
    rows = stu.studentize_panel(np.array([[2.0] * 4, [-3.0] * 4]))
    assert rows.t[0] == math.inf and rows.t[1] == -math.inf
    assert rows.r[0] == 2.0 and rows.r[1] == -2.0


@pytest.mark.parametrize("value, n", [(1.0 / 3.0, 12), (1.1, 40)], ids=["third", "1.1"])
def test_constant_row_convention_from_the_cells(value, n):
    # rounding leaves these rows' variance from their sums above 0, so only
    # the cells can show that every value is equal
    data = np.array([[value] * n, [-value] * n])
    s1, s2 = data.sum(axis=1), np.einsum("ij,ij->i", data, data)
    assert np.maximum(s2 / n - (s1 / n) ** 2, 0.0).min() > 0.0
    sums = stu.studentize_sums(s1, s2, n)
    assert np.all(np.isfinite(sums.t)) and sums.t[0] > 1e8
    rows = stu.studentize_panel(data)
    assert rows.t[0] == math.inf and rows.t[1] == -math.inf
    assert rows.r[0] == math.sqrt(n) and rows.r[1] == -math.sqrt(n)


def test_rejects_single_column():
    with pytest.raises(ValueError):
        stu.studentize_panel(np.ones((3, 1)))


def test_scale_invariance():
    rng = np.random.default_rng(7)
    data = rng.standard_normal((100, 8))
    base = stu.studentize_panel(data)
    # powers of two rescale exactly in floating point
    doubled = stu.studentize_panel(data * 4.0)
    assert np.array_equal(base.t, doubled.t)
    # general positive factors agree to rounding
    scaled = stu.studentize_panel(data * 1.7)
    assert np.allclose(base.t, scaled.t, rtol=1e-12)
    flipped = stu.studentize_panel(-data)
    assert np.array_equal(base.t, -flipped.t)


def test_t_r_event_equivalence_exact():
    # The T and R exceedance events coincide exactly on simulated rows.
    rng = np.random.default_rng(11)
    n = 10
    data = rng.standard_normal((120_000, n))
    rows = stu.studentize_panel(data)
    for t in (0.5, 1.0, 1.8, 2.5, 3.5):
        r_level = stu.t_level_to_r_level(t, n)
        assert np.array_equal(rows.t > t, rows.r > r_level)


@settings(max_examples=100, deadline=None)
@given(seed=hst.integers(0, 2**32 - 1), p=hst.integers(1, 12), n=hst.integers(2, 24),
       kappa=hst.integers(1, 4), t=hst.floats(0.05, 8.0))
def test_integer_window_sums_studentize_like_the_cells(seed, p, n, kappa, t):
    # a small +-1 moving-average panel in integer cells, plus a constant row
    # and the zero row of an antithetic kappa = 2 window (eps, -eps)
    rng = np.random.default_rng(seed)
    eps = rng.choice(np.array([-1, 1]), (p + kappa - 1, n))
    windows = sum(eps[k:k + p] for k in range(kappa))
    anti = rng.choice(np.array([-1, 1]), n)
    cells = np.vstack([windows, np.full(n, kappa), anti + -anti])
    s1 = cells.sum(axis=1)
    s2 = (cells * cells).sum(axis=1)
    sums = stu.studentize_sums(s1, s2, n)
    rows = stu.studentize_panel(cells.astype(float))
    for field in ("t", "r"):
        assert np.array_equal(getattr(sums, field), getattr(rows, field)), field
    assert sums.t[-2] == math.inf and sums.r[-2] == math.sqrt(n)
    assert sums.t[-1] == 1.0
    # T > t iff R > t_level_to_r_level(t, n), away from ties within rounding
    assume(np.all(np.abs(sums.t - t) > 1e-9 * t))
    assert np.array_equal(sums.t > t, sums.r > stu.t_level_to_r_level(t, n))


def test_level_map_values_and_limits():
    assert stu.t_level_to_r_level(2.0, 4) == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert stu.t_level_to_r_level(1e-9, 4) == pytest.approx(1e-9, rel=1e-6)
    assert stu.t_level_to_r_level(3.0, 10**12) == pytest.approx(3.0, rel=1e-9)
    with pytest.raises(ValueError):
        stu.t_level_to_r_level(0.0, 4)


def test_level_map_monotone_bijection():
    n = 25
    ts = np.geomspace(1e-6, 50.0, 200)
    rs = np.array([stu.t_level_to_r_level(float(t), n) for t in ts])
    assert np.all(np.diff(rs) > 0)
    for t, r in zip(ts, rs):
        assert abs(stu.r_level_to_t_level(float(r), n) - t) < 1e-12 * max(1.0, t)
    with pytest.raises(ValueError):
        stu.r_level_to_t_level(5.0, 25)  # at sqrt(n) the map blows up


def test_null_distribution_matches_student_t():
    # For iid normal rows the exact-scale statistic follows Student t(n-1):
    # T uses the divisor-n scale, so T * sqrt((n-1)/n) is classical t.
    rng = np.random.default_rng(2024)
    n = 10
    reps = 100_000
    rows = stu.studentize_panel(rng.standard_normal((reps, n)))
    classical = rows.t * math.sqrt((n - 1.0) / n)
    stat, _ = st.kstest(classical, st.t(n - 1).cdf)
    assert stat < 1.63 / math.sqrt(reps)


def test_studentize_sums_matches_panel_arithmetic():
    rng = np.random.default_rng(8)
    data = rng.standard_normal((50, 12)) + np.linspace(-1.0, 1.0, 50)[:, None]
    data[3] = 0.0
    data[7] = 2.0  # a constant row whose variance is exactly 0 from its sums
    data[9] = -0.5
    sums = stu.studentize_sums(data.sum(axis=1), np.einsum("ij,ij->i", data, data), 12)
    cells = stu.studentize_panel(data)
    for field in ("t", "r"):
        assert getattr(sums, field).tobytes() == getattr(cells, field).tobytes(), field
    assert sums.t[3] == 1.0 and sums.t[7] == math.inf and sums.t[9] == -math.inf
    with pytest.raises(ValueError):
        stu.studentize_sums(np.zeros(3), np.zeros(2), 12)
    with pytest.raises(ValueError):
        stu.studentize_sums(np.zeros(3), np.zeros(3), 1)


def test_non_finite_rows_fail_at_the_boundary():
    data = np.ones((30, 5))
    data[:, 0] = 2.0
    bad_rows = [2, 6, 7, 25]
    for row, value in zip(bad_rows, (np.nan, np.inf, -np.inf, np.nan)):
        data[row - 1, 3] = value
    with pytest.raises(ValueError, match=r"rows \[2, 6, 7, 25\]"):
        stu.studentize_panel(data)
    sum1 = data.sum(axis=1)
    sum2 = np.einsum("ij,ij->i", data, data)
    with pytest.raises(ValueError, match=r"rows \[2, 6, 7, 25\]"):
        stu.studentize_sums(sum1, sum2, 5)
    with pytest.raises(ValueError, match=r"rows \[1\]"):
        stu.studentize_sums([np.nan, 1.0], [1.0, 2.0], 5)
    # only the first 20 offending rows are named
    with pytest.raises(ValueError) as err:
        stu.studentize_panel(np.full((50, 4), np.nan))
    assert str(list(range(1, 21))) in str(err.value)
