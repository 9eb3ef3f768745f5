"""Row-wise studentized statistics T and their transformed companions R.

For row i with values U_i1..U_in the statistic is ``T_i = sqrt(n) Ubar_i / S_i``
with the variance divisor n (not n - 1):

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

All computations are pure and row-wise; rows may be processed
concurrently and merged by index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "StudentizedRows",
    "r_level_to_t_level",
    "studentize_panel",
    "studentize_sums",
    "t_level_to_r_level",
]


@dataclass
class StudentizedRows:
    """Per-row statistics for a whole panel, stored as parallel arrays.

    Entry i refers to test i + 1 in the 1-based labelling used throughout
    outputs.
    """

    mean: np.ndarray
    scale: np.ndarray
    t: np.ndarray
    r: np.ndarray
    degenerate: np.ndarray
    sizes: np.ndarray


def t_level_to_r_level(t: float, n) -> float:
    """Map a T-level to the equivalent R-level t / sqrt(1 + t^2/n)."""
    if t <= 0.0:
        raise ValueError(f"level t must be positive, got {t!r}")
    n_arr = np.asarray(n, dtype=float)
    if np.any(n_arr < 1):
        raise ValueError("group size n must be >= 1")
    out = t / np.sqrt(1.0 + t * t / n_arr)
    return float(out) if out.ndim == 0 else out


def r_level_to_t_level(r: float, n: float) -> float:
    """Inverse of :func:`t_level_to_r_level`; requires r < sqrt(n)."""
    if r <= 0.0:
        raise ValueError(f"level r must be positive, got {r!r}")
    if r * r >= n:
        raise ValueError(f"R-level {r!r} is not attainable below sqrt(n), n={n!r}")
    return r / math.sqrt(1.0 - r * r / n)


def _finish(sum1: np.ndarray, sum2: np.ndarray, n,
            constant: np.ndarray | None = None) -> StudentizedRows:
    """T, R and the degenerate-row conventions from the row sums.

    ``n`` is the group size: one number for every row, or one per row.
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
    n_rows = np.broadcast_to(n, sum1.shape)  # a view: one n is not copied per row
    mean = sum1 / n
    msq = sum2 / n
    s2 = np.maximum(msq - mean * mean, 0.0)
    degenerate = s2 == 0.0 if constant is None else constant | (s2 == 0.0)

    scale = np.sqrt(s2)
    scale[degenerate] = 0.0

    num = np.sqrt(n) * mean
    with np.errstate(divide="ignore", invalid="ignore"):
        t = num / scale
        r = num / np.sqrt(msq)

    if degenerate.any():
        zero_rows = degenerate & (mean == 0.0)
        const_rows = degenerate & (mean != 0.0)
        t[zero_rows] = 1.0
        r[zero_rows] = 1.0 / np.sqrt(1.0 + 1.0 / n_rows[zero_rows])
        sign = np.sign(mean[const_rows])
        t[const_rows] = sign * np.inf
        r[const_rows] = sign * np.sqrt(n_rows[const_rows])

    return StudentizedRows(
        mean=mean, scale=scale, t=t, r=r, degenerate=degenerate,
        sizes=n_rows.astype(np.int64, copy=False),
    )


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


def studentize_panel(panel, sizes=None) -> StudentizedRows:
    """Studentize every row of a panel (or a plain p-by-n array).

    ``sizes`` optionally gives per-row group sizes n_i (each at least 2);
    row i then uses its first n_i entries.  When the panel's spec carries
    sizes they are picked up automatically.
    """
    data = np.asarray(getattr(panel, "data", panel), dtype=float)
    if data.ndim != 2:
        raise ValueError(f"panel data must be 2-dimensional, got shape {data.shape}")
    p, n = data.shape
    if sizes is None:
        sizes = getattr(getattr(panel, "spec", None), "sizes", None)
    if sizes is None:
        if n < 2:
            raise ValueError("group size n must be >= 2")
        return _finish(data.sum(axis=1), np.einsum("ij,ij->i", data, data), n,
                       constant=data.max(axis=1) == data.min(axis=1))
    sizes = np.asarray(sizes, dtype=np.int64)
    if sizes.shape != (p,):
        raise ValueError("sizes must give one group size per row")
    if np.any(sizes < 2):
        bad = np.flatnonzero(sizes < 2) + 1
        raise ValueError(f"per-row sizes must be >= 2; offending rows {bad.tolist()}")
    if np.any(sizes > n):
        raise ValueError("per-row sizes cannot exceed the panel width n")
    mask = np.arange(n)[None, :] < sizes[:, None]
    ym = np.where(mask, data, 0.0)
    ymax = np.where(mask, data, -np.inf).max(axis=1)
    ymin = np.where(mask, data, np.inf).min(axis=1)
    return _finish(ym.sum(axis=1), (ym * ym).sum(axis=1), sizes,
                   constant=ymax == ymin)
