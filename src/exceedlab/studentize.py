"""Row-wise studentized statistics T and their transformed companions R.

Every row holds the same number n of values.  For row i with values
U_i1..U_in the statistic is ``T_i = sqrt(n) Ubar_i / S_i`` with the
variance divisor n (not n - 1):

    Ubar_i = n^-1 sum_j U_ij,      S_i^2 = n^-1 sum_j U_ij^2 - Ubar_i^2.

The companion ratio uses the uncentered second moment,

    R_i = sum_j U_ij / (sum_j U_ij^2)^(1/2),

so that the events ``T_i > t`` and ``R_i > t / sqrt(1 + t^2/n)`` coincide
exactly for every non-degenerate row.

Degenerate rows (all entries equal, hence S = 0) follow fixed
conventions: the all-zero row takes T = 1 (and R at the matching
transformed level), a nonzero constant row takes T = sign(mean) * inf
and R = sign(mean) * sqrt(n), the natural limits.

A row whose sums are not finite (a NaN or infinite cell) is rejected
with a ValueError naming it, rather than carried on as a NaN statistic.

Since |R_i| <= sqrt(n) by Cauchy-Schwarz, an R-level s is reached only
below sqrt(n).  For a row of n iid standard normals, T is sqrt(n/(n-1))
times a Student t on n - 1 degrees of freedom; :func:`normal_r_sf` is
the exact tail P(R > s) this gives, coded once for every reference and
guard that needs it.

All computations are pure and row-wise; rows may be processed
concurrently and merged by index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from exceedlab.numerics import student_t_sf

__all__ = [
    "StudentizedRows",
    "normal_r_sf",
    "r_level_to_t_level",
    "studentize_panel",
    "studentize_sums",
    "t_level_to_r_level",
]


@dataclass
class StudentizedRows:
    """T and R of every row of a panel, stored as parallel arrays.

    Entry i refers to test i + 1 in the 1-based labelling used throughout
    outputs.
    """

    t: np.ndarray
    r: np.ndarray


def t_level_to_r_level(t: float, n: int) -> float:
    """Map a T-level to the equivalent R-level t / sqrt(1 + t^2/n)."""
    if t <= 0.0:
        raise ValueError(f"level t must be positive, got {t!r}")
    if n < 1:
        raise ValueError("group size n must be >= 1")
    return float(t / math.sqrt(1.0 + t * t / n))


def r_level_to_t_level(r: float, n: float) -> float:
    """Inverse of :func:`t_level_to_r_level`; requires r < sqrt(n)."""
    if r <= 0.0:
        raise ValueError(f"level r must be positive, got {r!r}")
    if r * r >= n:
        raise ValueError(f"R-level {r!r} is not attainable below sqrt(n), n={n!r}")
    return r / math.sqrt(1.0 - r * r / n)


def normal_r_sf(s: float, n: int) -> float:
    """P(R > s) for a row of n iid standard normals, exactly, for s >= 0.

    R > s iff T > :func:`r_level_to_t_level` (s, n), and T scaled by
    sqrt((n - 1)/n) is a Student t on n - 1 degrees of freedom.  The tail
    is 1/2 at s = 0 and 0 from s = sqrt(n) on, which R never exceeds.
    """
    if not s >= 0.0:
        raise ValueError(f"level s must be nonnegative, got {s!r}")
    if s * s >= n:
        return 0.0
    t = r_level_to_t_level(s, n) if s else 0.0
    return float(student_t_sf(t * math.sqrt((n - 1) / n), n - 1))


def _finish(sum1: np.ndarray, sum2: np.ndarray, n: int,
            constant: np.ndarray | None = None) -> StudentizedRows:
    """T, R and the degenerate-row conventions from the row sums.

    A row is degenerate when its variance s2 is 0 or, if ``constant`` is
    given, when that mask flags it (all its values equal).  Non-finite
    sums are rejected here, on the O(p) sums rather than the p x n cells.
    """
    bad = np.flatnonzero(~np.isfinite(sum1) | ~np.isfinite(sum2))
    if bad.size:
        raise ValueError(
            f"row sums are not finite (NaN or infinite cells) in rows "
            f"{(bad + 1).tolist()[:20]}"
        )
    mean = sum1 / n
    msq = sum2 / n
    s2 = np.maximum(msq - mean * mean, 0.0)
    num = math.sqrt(n) * mean
    with np.errstate(divide="ignore", invalid="ignore"):
        t = num / np.sqrt(s2)
        r = num / np.sqrt(msq)

    degenerate = s2 == 0.0 if constant is None else constant | (s2 == 0.0)
    if degenerate.any():
        zero_rows = degenerate & (mean == 0.0)
        const_rows = degenerate & (mean != 0.0)
        t[zero_rows] = 1.0
        r[zero_rows] = 1.0 / math.sqrt(1.0 + 1.0 / n)
        sign = np.sign(mean[const_rows])
        t[const_rows] = sign * np.inf
        r[const_rows] = sign * math.sqrt(n)
    return StudentizedRows(t=t, r=r)


def studentize_sums(sum1, sum2, n: int) -> StudentizedRows:
    """Studentize rows of n values given only their sums and sums of squares.

    ``sum1[i]`` and ``sum2[i]`` are the sum and the sum of squares of row
    i.  The arithmetic is that of :func:`studentize_panel`; a row is
    degenerate iff its variance s2 is 0, since no cell is available to
    show that its values are all equal.
    """
    sum1 = np.asarray(sum1, dtype=float)
    sum2 = np.asarray(sum2, dtype=float)
    if sum1.ndim != 1 or sum2.shape != sum1.shape:
        raise ValueError("sum1 and sum2 must be equal-length vectors")
    if n < 2:
        raise ValueError("group size n must be >= 2")
    return _finish(sum1, sum2, n)


def studentize_panel(panel) -> StudentizedRows:
    """Studentize every row of a panel (or a plain p-by-n array).

    A row whose values are all equal is degenerate even where rounding
    leaves the variance s2 from its sums above 0 (a row of 1.1s, say).
    """
    data = np.asarray(getattr(panel, "data", panel), dtype=float)
    if data.ndim != 2:
        raise ValueError(f"panel data must be 2-dimensional, got shape {data.shape}")
    n = data.shape[1]
    if n < 2:
        raise ValueError("group size n must be >= 2")
    return _finish(data.sum(axis=1), np.einsum("ij,ij->i", data, data), n,
                   constant=data.max(axis=1) == data.min(axis=1))
