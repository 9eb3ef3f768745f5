"""Row-wise studentized statistics T and their transformed companions R.

For row i with values U_i1..U_in the statistic is ``T_i = sqrt(n) Ubar_i / S_i``
with the variance divisor n (not n - 1):

    Ubar_i = n^-1 sum_j U_ij,      S_i^2 = n^-1 sum_j U_ij^2 - Ubar_i^2.

The companion ratio uses the uncentered second moment,

    R_i = sum_j U_ij / (sum_j U_ij^2)^(1/2),

so that the events ``T_i > t`` and ``R_i > t / sqrt(1 + t^2/n)`` coincide
exactly for every non-degenerate row.  A variant with the normalizer
centered at known offsets is exposed separately
(:func:`centered_ratio`) for diagnostics; it coincides with R under the
null.

Degenerate rows (all entries equal, hence S = 0) follow fixed
conventions: the all-zero row takes T = 1 (and R at the matching
transformed level), a nonzero constant row takes T = sign(mean) * inf
and R = sign(mean) * sqrt(n), the natural limits.

All computations are pure and row-wise; rows may be processed
concurrently and merged by index.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "LevelSpec",
    "StudentizedRow",
    "StudentizedRows",
    "WeightConstraints",
    "centered_ratio",
    "check_weights",
    "r_level_to_t_level",
    "studentize_panel",
    "studentize_sums",
    "t_level_to_r_level",
    "weighted_studentize",
    "write_row_stats_csv",
]


class StudentizedRow(NamedTuple):
    """Statistics of a single row; ``index`` is the 1-based test id."""

    index: int
    mean: float
    scale: float
    t: float
    r: float
    degenerate: bool


@dataclass
class StudentizedRows:
    """Per-row statistics for a whole panel, stored as parallel arrays.

    Iteration and indexing yield :class:`StudentizedRow` views;
    ``rows[i]`` refers to test ``i + 1`` in the 1-based labelling used
    throughout outputs.
    """

    mean: np.ndarray
    scale: np.ndarray
    t: np.ndarray
    r: np.ndarray
    degenerate: np.ndarray
    sizes: np.ndarray

    def __len__(self) -> int:
        return self.t.shape[0]

    def __getitem__(self, i: int) -> StudentizedRow:
        return StudentizedRow(
            index=i + 1 if i >= 0 else len(self) + i + 1,
            mean=float(self.mean[i]),
            scale=float(self.scale[i]),
            t=float(self.t[i]),
            r=float(self.r[i]),
            degenerate=bool(self.degenerate[i]),
        )

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]


def t_level_to_r_level(t: float, n) -> float:
    """Map a T-level to the equivalent R-level t / sqrt(1 + t^2/n)."""
    if t <= 0.0:
        raise ValueError(f"level t must be positive, got {t!r}")
    n_arr = np.asarray(n, dtype=float)
    if np.any(n_arr < 1):
        raise ValueError("group size n must be >= 1")
    out = t / np.sqrt(1.0 + t * t / n_arr)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class LevelSpec:
    """An exceedance level on the T scale with its R-scale equivalent.

    The events ``T > t`` and ``R > r`` coincide row by row, with
    ``r = t / sqrt(1 + t^2/n)`` always below both t and sqrt(n) and
    strictly increasing in t.
    """

    t: float
    n: int

    def __post_init__(self):
        t_level_to_r_level(self.t, self.n)  # validates t > 0, n >= 1

    @property
    def r(self) -> float:
        return t_level_to_r_level(self.t, self.n)

    @classmethod
    def from_r_level(cls, r: float, n: int) -> "LevelSpec":
        return cls(t=r_level_to_t_level(r, n), n=n)


def r_level_to_t_level(r: float, n: float) -> float:
    """Inverse of :func:`t_level_to_r_level`; requires r < sqrt(n)."""
    if r <= 0.0:
        raise ValueError(f"level r must be positive, got {r!r}")
    if r * r >= n:
        raise ValueError(f"R-level {r!r} is not attainable below sqrt(n), n={n!r}")
    return r / math.sqrt(1.0 - r * r / n)


def _as_data(panel) -> np.ndarray:
    data = getattr(panel, "data", panel)
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise ValueError(f"panel data must be 2-dimensional, got shape {data.shape}")
    return data


def _resolve_sizes(panel, data: np.ndarray, sizes) -> np.ndarray | None:
    if sizes is None:
        spec = getattr(panel, "spec", None)
        sizes = getattr(spec, "sizes", None)
    if sizes is None:
        if data.shape[1] < 2:
            raise ValueError("group size n must be >= 2")
        return None
    sizes = np.asarray(sizes, dtype=np.int64)
    if sizes.shape != (data.shape[0],):
        raise ValueError("sizes must give one group size per row")
    if np.any(sizes < 2):
        bad = np.flatnonzero(sizes < 2) + 1
        raise ValueError(f"per-row sizes must be >= 2; offending rows {bad.tolist()}")
    if np.any(sizes > data.shape[1]):
        raise ValueError("per-row sizes cannot exceed the panel width n")
    return sizes


def _studentize_values(y: np.ndarray, sizes: np.ndarray | None) -> StudentizedRows:
    """Shared core: studentize the (possibly weighted) row values ``y``."""
    p, n = y.shape
    if sizes is None:
        n_eff = np.full(p, float(n))
        sum1 = y.sum(axis=1)
        sum2 = np.einsum("ij,ij->i", y, y)
        ymax = y.max(axis=1)
        ymin = y.min(axis=1)
    else:
        n_eff = sizes.astype(float)
        mask = np.arange(n)[None, :] < sizes[:, None]
        ym = np.where(mask, y, 0.0)
        sum1 = ym.sum(axis=1)
        sum2 = (ym * ym).sum(axis=1)
        ymax = np.where(mask, y, -np.inf).max(axis=1)
        ymin = np.where(mask, y, np.inf).min(axis=1)

    return _finish(sum1, sum2, n_eff, constant=ymax == ymin)


def _finish(sum1: np.ndarray, sum2: np.ndarray, n_eff: np.ndarray,
            constant: np.ndarray | None = None) -> StudentizedRows:
    """T, R and the degenerate-row conventions from the row sums.

    A row is degenerate when its variance s2 is 0 or, if ``constant`` is
    given, when that mask flags it (all its values equal).
    """
    mean = sum1 / n_eff
    msq = sum2 / n_eff
    s2 = np.maximum(msq - mean * mean, 0.0)
    degenerate = s2 == 0.0 if constant is None else constant | (s2 == 0.0)

    scale = np.sqrt(s2)
    scale[degenerate] = 0.0

    sqrt_n = np.sqrt(n_eff)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = sqrt_n * mean / scale
        r = sqrt_n * mean / np.sqrt(msq)

    zero_rows = degenerate & (mean == 0.0)
    const_rows = degenerate & (mean != 0.0)
    if np.any(zero_rows):
        t[zero_rows] = 1.0
        r[zero_rows] = 1.0 / np.sqrt(1.0 + 1.0 / n_eff[zero_rows])
    if np.any(const_rows):
        sign = np.sign(mean[const_rows])
        t[const_rows] = sign * np.inf
        r[const_rows] = sign * sqrt_n[const_rows]

    return StudentizedRows(
        mean=mean, scale=scale, t=t, r=r, degenerate=degenerate,
        sizes=n_eff.astype(np.int64),
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
    return _finish(sum1, sum2, np.full(sum1.shape[0], float(n)))


def studentize_panel(panel, sizes=None) -> StudentizedRows:
    """Studentize every row of a panel (or a plain p-by-n array).

    ``sizes`` optionally gives per-row group sizes n_i (each at least 2);
    row i then uses its first n_i entries.  When the panel's spec carries
    sizes they are picked up automatically.
    """
    data = _as_data(panel)
    sizes = _resolve_sizes(panel, data, sizes)
    return _studentize_values(data, sizes)


@dataclass(frozen=True)
class WeightConstraints:
    """Admissible-weight constants: sup |w| <= c1 and, per row, at least a
    fraction c3 of entries with |w| >= c2."""

    c1: float = 10.0
    c2: float = 0.1
    c3: float = 0.5

    def __post_init__(self):
        if not (self.c1 > 0 and self.c2 > 0 and self.c3 > 0):
            raise ValueError("weight constraint constants must be positive")


def check_weights(
    weights: np.ndarray,
    constraints: WeightConstraints = WeightConstraints(),
    sizes: np.ndarray | None = None,
) -> None:
    """Validate the weight matrix, raising with the offending row list."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2:
        raise ValueError("weights must be a p-by-n matrix")
    aw = np.abs(w)
    if sizes is None:
        sup_bad = np.flatnonzero((aw > constraints.c1).any(axis=1))
        frac = (aw >= constraints.c2).mean(axis=1)
    else:
        mask = np.arange(w.shape[1])[None, :] < np.asarray(sizes)[:, None]
        sup_bad = np.flatnonzero(((aw > constraints.c1) & mask).any(axis=1))
        frac = ((aw >= constraints.c2) & mask).sum(axis=1) / np.asarray(sizes)
    frac_bad = np.flatnonzero(frac < constraints.c3)
    problems = []
    if sup_bad.size:
        problems.append(
            f"|w| exceeds C1={constraints.c1} in rows {(sup_bad + 1).tolist()[:20]}"
        )
    if frac_bad.size:
        problems.append(
            f"fraction of |w| >= C2={constraints.c2} below C3={constraints.c3} "
            f"in rows {(frac_bad + 1).tolist()[:20]}"
        )
    if problems:
        raise ValueError("weight constraints violated: " + "; ".join(problems))


def weighted_studentize(
    panel,
    weights: np.ndarray,
    sizes=None,
    constraints: WeightConstraints = WeightConstraints(),
) -> StudentizedRows:
    """Weighted studentization with per-cell weights w_ij.

        Ubar_i = n_i^-1 sum_j w_ij U_ij,
        S_i^2  = n_i^-1 sum_j w_ij^2 U_ij^2 - Ubar_i^2,
        T_i    = sqrt(n_i) Ubar_i / S_i.

    With all weights one (and uniform sizes) the output is bitwise
    identical to :func:`studentize_panel`, the two paths sharing the same
    reduction.  Weight constraints are enforced up front and violations are
    rejected with the offending rows listed.
    """
    data = _as_data(panel)
    sizes = _resolve_sizes(panel, data, sizes)
    w = np.asarray(weights, dtype=float)
    if w.shape != data.shape:
        raise ValueError(
            f"weights shape {w.shape} does not match panel shape {data.shape}"
        )
    check_weights(w, constraints, sizes)
    return _studentize_values(w * data, sizes)


def centered_ratio(panel, offsets=None, sizes=None) -> np.ndarray:
    """Ratio with the normalizer centered at the known offsets d_i.

    Returns ``sum_j U_ij / (sum_j (U_ij - d_i)^2)^(1/2)`` per row, the
    proof-shape variant of R; identical to R when all offsets are zero.
    """
    data = _as_data(panel)
    sizes = _resolve_sizes(panel, data, sizes)
    p, n = data.shape
    d = np.zeros(p) if offsets is None else np.asarray(offsets, dtype=float)
    if d.shape != (p,):
        raise ValueError("offsets must give one value per row")
    v = data - d[:, None]
    if sizes is None:
        num = data.sum(axis=1)
        den = np.sqrt((v * v).sum(axis=1))
    else:
        mask = np.arange(n)[None, :] < sizes[:, None]
        num = np.where(mask, data, 0.0).sum(axis=1)
        den = np.sqrt(np.where(mask, v * v, 0.0).sum(axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        return num / den


def write_row_stats_csv(rows: StudentizedRows, path) -> None:
    """Write per-row statistics as CSV: i, mean, scale, T, R, degenerate."""
    with open(path, "w", newline="") as fh:
        fh.write("# schema: exceedlab.row-stats.v1\n")
        writer = csv.writer(fh)
        writer.writerow(["i", "mean", "scale", "T", "R", "degenerate"])
        for i in range(len(rows)):
            writer.writerow(
                [
                    i + 1,
                    repr(float(rows.mean[i])),
                    repr(float(rows.scale[i])),
                    repr(float(rows.t[i])),
                    repr(float(rows.r[i])),
                    int(rows.degenerate[i]),
                ]
            )
