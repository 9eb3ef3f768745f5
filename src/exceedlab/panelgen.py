"""Synthetic data panels with exact control of dependence, tails and offsets.

A panel is a p-by-n matrix whose row i holds the n observations of test i.
The n observation columns are independent and identically distributed; down
each column the sequence over tests is kappa-dependent, following one of
three models:

``iid``
    cells drawn independently from the innovation law;
``gaussian-kdep``
    each column is a stationary Gaussian sequence built by filtering
    shared standard-normal drivers with kappa + 1 weights solved once per
    spec from the banded Toeplitz correlation equations, so the requested
    lag correlations hold exactly and variables more than kappa apart are
    independent;
``moving-average``
    each column is the normalized sliding-window sum
    ``kappa^{-1/2} (eps_{i+1} + ... + eps_{i+kappa})`` of independent
    innovations from the chosen law, with implied lag-m correlation
    ``max(kappa - m, 0) / kappa``.

All innovation laws are standardized to mean 0 and variance 1 with finite
third absolute moment.  Mean offsets d_i >= 0 are added after the
dependent noise is built, so each cell has variance 1 and mean d_i
exactly in law.

Generation is pure: a panel is a deterministic function of
(spec, seed, replicate), with one splittable random stream per
(seed, replicate) pair and a fixed draw order, so disjoint replicates can
be generated concurrently in any schedule.

Every statistic the lab compares depends on a row only through its sum
and sum of squares, and this module alone decides how a replicate's
sums are drawn.  ``panel_sums`` (cluster, mtc) and ``matched_sums``
(coupling) pick from the spec: ``row_sums`` draws Gaussian panels
without their cells where ``row_sums_preferred`` holds; otherwise the
replicate is one ``copies_sums`` copy from its stream, which is exactly
``generate``'s draw, summed from packed bits for Rademacher iid and
moving-average panels and from the filtered cells for every other.
``rows_sums`` (tails) draws one or two rows of many independent panels:
from the exact law of their sums for Gaussian panels with n above the
number of rows, otherwise as ``copies_sums`` of the panel those rows
span, and says which it did.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "DependenceModel",
    "InnovationLaw",
    "Panel",
    "PanelSpec",
    "SpecError",
    "copies_sums",
    "generate",
    "level_cut",
    "ma_filter_weights",
    "map_replicates",
    "matched_sums",
    "panel_sums",
    "rademacher_bits",
    "rademacher_sums_supported",
    "row_sums",
    "row_sums_preferred",
    "row_sums_unsupported",
    "rows_sums",
    "standardized_law_moments",
    "stream",
]

LAW_KINDS = (
    "standard-normal",
    "standardized-pareto",
    "standardized-rademacher",
    "two-point-with-atom",
)
MODEL_KINDS = ("iid", "gaussian-kdep", "moving-average")


class SpecError(ValueError):
    """An invalid panel specification, with a human-readable diagnostic."""


# ---------------------------------------------------------------------------
# Innovation laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InnovationLaw:
    """A standardized innovation distribution (mean 0, variance 1).

    ``standardized-pareto`` carries the tail exponent a > 3 of the
    underlying Pareto(a, minimum 1) before standardization;
    ``two-point-with-atom`` places probability ``atom`` on 0 and splits
    the rest evenly between +/- (1 - atom)^{-1/2}, keeping the atom at
    zero exactly (a location shift would destroy it).
    """

    kind: str
    tail_exponent: float | None = None
    atom: float | None = None

    @classmethod
    def normal(cls) -> "InnovationLaw":
        return cls("standard-normal")

    @classmethod
    def pareto(cls, tail_exponent: float) -> "InnovationLaw":
        return cls("standardized-pareto", tail_exponent=float(tail_exponent))

    @classmethod
    def rademacher(cls) -> "InnovationLaw":
        return cls("standardized-rademacher")

    @classmethod
    def two_point(cls, atom: float) -> "InnovationLaw":
        return cls("two-point-with-atom", atom=float(atom))

    def validate(self) -> None:
        if self.kind not in LAW_KINDS:
            raise SpecError(f"[panel] law: unknown innovation law {self.kind!r}")
        if self.kind == "standardized-pareto":
            if self.tail_exponent is None or not self.tail_exponent > 3.0:
                raise SpecError(
                    "[panel] pareto_exponent: pareto tail exponent must be strictly "
                    f"greater than 3, got {self.tail_exponent!r}"
                )
        if self.kind == "two-point-with-atom":
            if self.atom is None or not 0.0 < self.atom < 1.0:
                raise SpecError(
                    f"[panel] atom: zero-atom probability must lie in (0, 1), got {self.atom!r}"
                )

    @property
    def is_gaussian(self) -> bool:
        return self.kind == "standard-normal"

    def sample(self, rng: np.random.Generator, shape) -> np.ndarray:
        """Draw standardized innovations of the given shape."""
        if self.kind == "standard-normal":
            return rng.standard_normal(shape)
        if self.kind == "standardized-pareto":
            a = self.tail_exponent
            mu = a / (a - 1.0)
            sigma = math.sqrt(a / ((a - 1.0) ** 2 * (a - 2.0)))
            u = rng.random(shape)
            return ((1.0 - u) ** (-1.0 / a) - mu) / sigma
        if self.kind == "standardized-rademacher":
            shape = (shape,) if np.ndim(shape) == 0 else tuple(shape)
            return 2.0 * np.unpackbits(rademacher_bits(rng, shape), -1, count=shape[-1]) - 1.0
        if self.kind == "two-point-with-atom":
            delta = self.atom
            c = 1.0 / math.sqrt(1.0 - delta)
            u = rng.random(shape)
            out = np.where(u < delta, 0.0, np.where(u < 0.5 + 0.5 * delta, -c, c))
            return out
        raise SpecError(f"unknown innovation law {self.kind!r}")


def rademacher_bits(rng: np.random.Generator, shape) -> np.ndarray:
    """Rademacher cells of ``shape`` packed 8 to a byte along the last axis.

    Row length n takes ceil(n / 8) uniform bytes, in numpy's big-endian bit
    order (``np.unpackbits``); bit 1 is +1 and bit 0 is -1.  The padding
    bits of a partial last byte are zero, so popcounts see only cells.
    """
    *lead, n = shape
    bits = rng.integers(0, 256, (*lead, -(-n // 8)), dtype=np.uint8)
    if n % 8:
        bits[..., -1] &= np.uint8(0xFF << (8 - n % 8) & 0xFF)
    return bits


def standardized_law_moments(law: InnovationLaw) -> tuple[float, float, float]:
    """Closed-form (mean, variance, third absolute moment) of the law.

    Every supported law is standardized, so the first two entries are
    always (0, 1); the third absolute moment is:

    * standard normal: 2 sqrt(2/pi),
    * standardized Pareto(a): E|P - mu|^3 / sigma^3 with the split-at-mu
      power integrals in closed form,
    * Rademacher: 1,
    * two-point with atom delta: (1 - delta)^{-1/2}.
    """
    law.validate()
    if law.kind == "standard-normal":
        return (0.0, 1.0, 2.0 * math.sqrt(2.0 / math.pi))
    if law.kind == "standardized-rademacher":
        return (0.0, 1.0, 1.0)
    if law.kind == "two-point-with-atom":
        return (0.0, 1.0, 1.0 / math.sqrt(1.0 - law.atom))
    a = law.tail_exponent
    mu = a / (a - 1.0)
    sigma2 = a / ((a - 1.0) ** 2 * (a - 2.0))
    # E(P - mu)^3 over [mu, inf): powers of mu against the Pareto density.
    j_plus = (
        a
        * mu ** (3.0 - a)
        * (1.0 / (a - 3.0) - 3.0 / (a - 2.0) + 3.0 / (a - 1.0) - 1.0 / a)
    )
    # E(mu - P)^3 over [1, mu).
    j_minus = (
        -(mu ** 3) * (mu ** (-a) - 1.0)
        + 3.0 * mu * mu * a * (mu ** (1.0 - a) - 1.0) / (a - 1.0)
        - 3.0 * mu * a * (mu ** (2.0 - a) - 1.0) / (a - 2.0)
        + a * (mu ** (3.0 - a) - 1.0) / (a - 3.0)
    )
    return (0.0, 1.0, (j_plus + j_minus) / sigma2 ** 1.5)


# ---------------------------------------------------------------------------
# Dependence models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DependenceModel:
    """How the column sequence over tests is correlated.

    ``rho`` holds the lag-1..kappa correlations for ``gaussian-kdep``;
    the other kinds derive their correlations from ``kappa`` alone.
    """

    kind: str
    kappa: int = 0
    rho: tuple[float, ...] = ()

    @classmethod
    def iid(cls) -> "DependenceModel":
        return cls("iid", kappa=0)

    @classmethod
    def gaussian_kdep(cls, rho) -> "DependenceModel":
        rho = tuple(float(r) for r in rho)
        return cls("gaussian-kdep", kappa=len(rho), rho=rho)

    @classmethod
    def moving_average(cls, kappa: int) -> "DependenceModel":
        return cls("moving-average", kappa=int(kappa))

    def validate(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise SpecError(f"[panel] model: unknown dependence model {self.kind!r}")
        if self.kind == "iid":
            if self.kappa != 0 or self.rho:
                raise SpecError("[panel] kappa: the iid model takes no kappa or correlations")
        elif self.kind == "gaussian-kdep":
            if len(self.rho) != self.kappa or self.kappa < 1:
                raise SpecError(
                    "[panel] rho: gaussian-kdep needs a lag-correlation vector "
                    "of length kappa >= 1"
                )
            bad = [r for r in self.rho if not 0.0 <= r < 1.0]
            if bad:
                raise SpecError(
                    f"[panel] rho: lag correlations must lie in [0, 1); offending entries {bad}"
                )
            try:
                ma_filter_weights(self.rho)  # realizability
            except SpecError as exc:
                raise SpecError(f"[panel] rho: {exc}") from None
        elif self.kind == "moving-average":
            if self.kappa < 1:
                raise SpecError("[panel] kappa: moving-average window length must be "
                                f">= 1, got {self.kappa!r}")

    def lag_correlation(self, m: int) -> float:
        """Model correlation between tests m apart (0 beyond kappa)."""
        m = abs(int(m))
        if m == 0:
            return 1.0
        if self.kind == "gaussian-kdep" and m <= self.kappa:
            return self.rho[m - 1]
        if self.kind == "moving-average" and m < self.kappa:
            return (self.kappa - m) / self.kappa
        return 0.0

    @property
    def rho_max(self) -> float:
        """Maximal pairwise correlation over distinct tests."""
        if self.kind == "gaussian-kdep":
            return max(self.rho)
        if self.kind == "moving-average":
            return (self.kappa - 1) / self.kappa
        return 0.0


def _verify_weights(w: np.ndarray, r: np.ndarray, tol: float) -> np.ndarray:
    kappa = r.shape[0]
    w = w / math.sqrt(float(np.dot(w, w)))
    implied = np.array(
        [float(np.dot(w[: kappa + 1 - m], w[m:])) for m in range(1, kappa + 1)]
    )
    if float(np.max(np.abs(implied - r), initial=0.0)) > tol:
        raise SpecError(
            "filter weight solve failed verification; implied lag "
            f"correlations {implied} vs requested {r}"
        )
    w.setflags(write=False)
    return w


_NEWTON_STEPS = 200  # cap; boundary spectra, converging only linearly, take ~30


@lru_cache(maxsize=128)
def ma_filter_weights(rho: tuple[float, ...]) -> np.ndarray:
    """Filter weights hitting the requested lag correlations exactly (read-only).

    Solves f_m(w) = sum_j w_j w_{j+m} = c_m for w_0..w_kappa, with
    c = (1, rho_1, ..., rho_kappa), by Wilson's Newton iteration
    (G. T. Wilson, SIAM J. Numer. Anal. 6, 1969): from w = e_0 each step
    solves J(w) step = c - f(w), J[m, k] = w_{k-m} + w_{k+m}.  It returns
    the minimum-phase factor: every root of sum_k w_k z^k lies on or
    outside the unit circle.  Convergence is quadratic for interior
    spectra and linear where the spectral density touches zero, so the
    solve stops at the first step that does not shrink (rounding has
    taken over) and the implied correlations are then verified to 1e-9,
    or to 1e-6 on the boundary.  Correlation vectors with a negative
    spectral density are not realizable and are rejected.
    """
    kappa = len(rho)
    r = np.asarray(rho, dtype=float)
    if np.any((r < 0.0) | (r >= 1.0)):
        raise SpecError(f"lag correlations must lie in [0, 1), got {rho}")
    omega = np.linspace(0.0, math.pi, 8192)
    density = 1.0 + 2.0 * sum(
        (r[m] * np.cos((m + 1) * omega) for m in range(kappa)), np.zeros_like(omega)
    )
    fmin = float(density.min())
    if fmin < -1e-9:
        raise SpecError(
            "lag correlations are not realizable as a kappa-dependent sequence "
            f"(spectral density minimum {fmin:.3e} below zero)"
        )
    c = np.concatenate([[1.0], r])
    k = np.arange(kappa + 1)
    lag, lead = k - k[:, None], k + k[:, None]  # row m: k - m and k + m
    w = np.zeros(kappa + 1)
    w[0] = 1.0
    last = math.inf
    for _ in range(_NEWTON_STEPS):
        padded = np.concatenate([w, np.zeros(kappa + 1)])  # k - m < 0 wraps into the zeros
        f = np.correlate(w, w, "full")[kappa:]
        try:
            step = np.linalg.solve(padded[lag] + padded[lead], c - f)
        except np.linalg.LinAlgError:
            break
        norm = float(np.max(np.abs(step)))
        if not norm < last:
            break
        w, last = w + step, norm
    return _verify_weights(w, r, 1e-9 if fmin > 1e-6 else 1e-6)


# ---------------------------------------------------------------------------
# Panel specification and generation
# ---------------------------------------------------------------------------


@dataclass
class PanelSpec:
    """Full generative description of one p-by-n panel.

    ``offsets`` is a sparse tuple of (row, value) pairs with 1-based row
    indices and nonnegative values (the default empty tuple is the global
    null).  Every row has the same group size n: ``sizes`` stays a field
    only because the benchmark's config-snapshot check reads it, and any
    value but None is refused.
    """

    p: int
    n: int
    model: DependenceModel
    law: InnovationLaw
    offsets: tuple[tuple[int, float], ...] = ()
    sizes: tuple[int, ...] | None = None
    seed: int = 0
    replicate: int = 0

    def validate(self) -> None:
        if self.p < 1:
            raise SpecError(f"[panel] p: test count p must be >= 1, got {self.p!r}")
        if self.n < 1:
            raise SpecError(f"[panel] n: group size n must be >= 1, got {self.n!r}")
        self.law.validate()
        self.model.validate()
        if self.model.kind == "gaussian-kdep" and not self.law.is_gaussian:
            raise SpecError(
                "[panel] law: gaussian-kdep builds columns from standard-normal "
                f"drivers; innovation law {self.law.kind!r} is not compatible "
                "(use the moving-average model for non-Gaussian dependence)"
            )
        seen = set()
        for idx, d in self.offsets:
            if not 1 <= idx <= self.p:
                raise SpecError(f"[panel] offsets: row {idx} outside [1, {self.p}]")
            if idx in seen:
                raise SpecError(f"[panel] offsets: duplicate row {idx}")
            seen.add(idx)
            if d < 0.0:
                raise SpecError(f"[panel] offsets: d_i must be >= 0, got {d!r} at row {idx}")
        if self.sizes is not None:
            raise SpecError("[panel] sizes: per-row group sizes are not accepted; "
                            "every row has the group size n")
        if not 0 <= self.seed < 2 ** 64:
            raise SpecError(
                f"[panel] seed: seed must be a 64-bit nonnegative integer, got {self.seed!r}"
            )
        if self.replicate < 0:
            raise SpecError(
                f"[panel] replicate: replicate index must be >= 0, got {self.replicate!r}"
            )

    def offset_vector(self) -> np.ndarray:
        d = np.zeros(self.p)
        for idx, val in self.offsets:
            d[idx - 1] = val
        return d

    def nonnull_rows(self) -> np.ndarray:
        """1-based rows with a strictly positive offset (the true signals)."""
        return np.array(sorted(idx for idx, val in self.offsets if val > 0.0),
                        dtype=np.int64)

    def with_replicate(self, replicate: int) -> "PanelSpec":
        return replace(self, replicate=int(replicate))


@dataclass
class Panel:
    """One realized panel: the data matrix plus its generating spec."""

    spec: PanelSpec
    data: np.ndarray


def stream(seed: int, replicate: int = 0, lane: int = 0) -> np.random.Generator:
    """The splittable random stream for (seed, replicate[, lane]).

    Distinct replicates (or lanes within a replicate) get statistically
    independent streams; the mapping is deterministic and independent of
    which worker draws from it.
    """
    key = (int(replicate),) if lane == 0 else (int(replicate), int(lane))
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=key))


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_replicates(fn, reps: int, jobs: int, *args) -> list:
    """``fn(*args, start, stop)`` on ``jobs`` contiguous chunks of 0..reps-1.

    Chunks run in forked workers, no more at once than the CPUs this
    process may use (``fn`` must pickle: a top-level function), and their
    results come back in chunk order; with one chunk ``fn`` runs in this
    process.  Replicate r draws only from
    ``stream(seed, r)``, so merged results do not depend on ``jobs``.  A
    worker that dies raises RuntimeError naming the unfinished replicates.
    """
    jobs = max(1, int(jobs))
    bounds = [i * reps // jobs for i in range(jobs + 1)]
    spans = [(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    if len(spans) <= 1:
        return [fn(*args, a, b) for a, b in spans]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(min(len(spans), _usable_cpus()), mp_context=ctx) as pool:
        futures = [pool.submit(fn, *args, a, b) for a, b in spans]
        try:
            return [f.result() for f in futures]
        except BrokenProcessPool as exc:
            lost = [f"{a}..{b - 1}" for (a, b), f in zip(spans, futures)
                    if isinstance(f.exception(), BrokenProcessPool)]
            raise RuntimeError(
                f"a replicate worker died; replicates {', '.join(lost)} did not finish"
            ) from exc


def _driver_filter(model: DependenceModel) -> np.ndarray:
    """The L taps w with data row i = sum_k w_k eps_{i+k} over driver rows."""
    if model.kind == "gaussian-kdep":
        return np.ascontiguousarray(ma_filter_weights(model.rho)[::-1])
    if model.kind == "moving-average":
        return np.full(model.kappa, 1.0 / math.sqrt(model.kappa))
    return np.ones(1)


def _filtered_drivers(spec: PanelSpec, rng: np.random.Generator, copies=()):
    """``copies`` panels without offsets and the drivers they filter: (data, eps).

    Data row i is sum_k w_k eps_{i+k} along axis -2, and the drivers are
    drawn as (*copies, p + L - 1, n); an iid panel is its own drivers.
    """
    p, n = spec.p, spec.n
    if spec.model.kind == "iid":
        data = spec.law.sample(rng, (*copies, p, n))
        return data, data
    w = _driver_filter(spec.model)
    eps = spec.law.sample(rng, (*copies, p + w.shape[0] - 1, n))
    windows = sliding_window_view(eps, w.shape[0], axis=-2)
    return np.einsum("...ijk,k->...ij", windows, w), eps


def _add_offsets(data: np.ndarray, spec: PanelSpec) -> None:
    for idx, d in spec.offsets:
        if d != 0.0:
            data[idx - 1] += d


def _shift_sums(s1: np.ndarray, s2: np.ndarray, d: np.ndarray, n: int) -> None:
    """Move row sums (S1, S2) in place to those of the rows shifted by d."""
    s2 += 2.0 * d * s1 + n * d * d
    s1 += n * d


def generate(spec: PanelSpec) -> Panel:
    """Generate the panel described by ``spec``.

    Deterministic given (spec, seed, replicate): one stream, fixed draw
    order (drivers first, row-major), offsets added last.
    """
    spec.validate()
    data, _ = _filtered_drivers(spec, stream(spec.seed, spec.replicate))
    _add_offsets(data, spec)
    return Panel(spec=spec, data=data)


def rademacher_sums_supported(spec: PanelSpec) -> bool:
    """Whether ``spec``'s panels are summed from packed bits (:func:`copies_sums`):
    Rademacher iid or moving-average ones (gaussian-kdep takes normal drivers)."""
    return spec.law.kind == "standardized-rademacher" and spec.model.kind != "gaussian-kdep"


def _window_sums(bits: np.ndarray, kappa: int, n: int):
    """Integer (sum, sum of squares) of each window of kappa packed rows.

    Windows slide along axis -2.  A row sums to 2 popcount - n, and rows
    a, b have <a, b> = n - 2 popcount(a XOR b) (padding bits are zero).
    einsum adds up a row's byte counts about twice as fast as ``sum``.
    """
    ones = 2 * np.einsum("...i->...", np.bitwise_count(bits).astype(np.int32)) - n
    s1 = sliding_window_view(ones, kappa, axis=-1).sum(axis=-1)
    s2 = np.full(s1.shape, kappa * n, dtype=np.int64)
    for m in range(1, kappa):
        xor = np.bitwise_count(bits[..., m:, :] ^ bits[..., :-m, :]).astype(np.int32)
        dots = n - 2 * np.einsum("...i->...", xor)
        s2 += 2 * sliding_window_view(dots, kappa - m, axis=-1).sum(axis=-1)
    return s1, s2


def copies_sums(spec: PanelSpec, copies: int, rng: np.random.Generator):
    """Row sums of ``copies`` independent panels of ``spec``, drawn from ``rng``.

    Returns (S1, S2), each (copies, p), the offsets added in closed form.
    Rademacher iid and moving-average panels are summed exactly from
    packed bits drawn as (copies, p + kappa - 1, n) (:func:`_window_sums`);
    every other panel filters drivers drawn as (copies, p + L - 1, n),
    one copy being exactly :func:`generate`'s draw.
    """
    spec.validate()
    if not rademacher_sums_supported(spec):
        return _cells_sums(_filtered_drivers(spec, rng, (copies,))[0], spec)
    n = spec.n
    kappa = max(spec.model.kappa, 1)
    s1, s2 = _window_sums(rademacher_bits(rng, (copies, spec.p + kappa - 1, n)), kappa, n)
    s1, s2 = s1 / math.sqrt(kappa), s2 / kappa
    if spec.offsets:
        _shift_sums(s1, s2, spec.offset_vector(), n)
    return s1, s2


def _cells_sums(data: np.ndarray, spec: PanelSpec):
    """Row sums (S1, S2) of cells ``data`` without offsets, then shifted by them."""
    s1, s2 = data.sum(axis=-1), np.einsum("...i,...i->...", data, data)
    if spec.offsets:
        _shift_sums(s1, s2, spec.offset_vector(), spec.n)
    return s1, s2


def panel_sums(spec: PanelSpec, replicates,
               u_min: float = -math.inf) -> tuple[np.ndarray, np.ndarray]:
    """Row sums (S1, S2) of the panels of ``spec``, each (len(replicates), p).

    Entry [k, i] belongs to row i + 1 of ``spec.with_replicate(replicates[k])``.
    :func:`row_sums` draws them where :func:`row_sums_preferred` holds,
    cut at ``u_min``; otherwise each replicate r is one :func:`copies_sums`
    copy from ``stream(seed, r)``, the draw of :func:`generate`, with
    every row drawn.
    """
    if row_sums_preferred(spec):
        return row_sums(spec, replicates, u_min)
    s1, s2 = np.empty((2, len(replicates), spec.p))
    for k, r in enumerate(replicates):
        c1, c2 = copies_sums(spec, 1, stream(spec.seed, r))
        s1[k], s2[k] = c1[0], c2[0]
    return s1, s2


def matched_sums(spec: PanelSpec):
    """Row sums of :func:`generate`'s panel and of a matched independent one.

    Returns ((S1, S2), (S1', S2')).  The panel is one :func:`copies_sums`
    copy from ``stream(seed, replicate)``.  The matched panel has the same
    law in every row, rows independent: gaussian-kdep sums the panel's
    first p drivers (common random numbers), moving-average draws p copies
    of a one-row panel next from the same stream, each shifted by its
    row's offset, and an iid panel is its own counterpart (the same pair
    twice).
    """
    rng = stream(spec.seed, spec.replicate)
    if spec.model.kind == "gaussian-kdep":
        spec.validate()
        data, eps = _filtered_drivers(spec, rng)
        return _cells_sums(data, spec), _cells_sums(eps[: spec.p], spec)
    s1, s2 = copies_sums(spec, 1, rng)
    dep = (s1[0], s2[0])
    if spec.model.kind != "moving-average":
        return dep, dep
    one_row = replace(spec, p=1, offsets=())
    s1, s2 = (s.reshape(spec.p) for s in copies_sums(one_row, spec.p, rng))
    if spec.offsets:
        _shift_sums(s1, s2, spec.offset_vector(), spec.n)
    return dep, (s1, s2)


_CELL_BUDGET = 1 << 22  # cells one explicit draw may take, filter window included


def rows_sums(spec: PanelSpec, rows, copies: int,
              rng: np.random.Generator) -> tuple[str, int, np.ndarray, np.ndarray]:
    """Row sums of the 1-based ``rows`` (one or two) of independent panels of ``spec``.

    Returns (method, drawn, S1, S2), S1 and S2 of shape (len(rows), drawn)
    with drawn <= ``copies``; entry [k, c] belongs to row rows[k] of copy c.

    A Gaussian panel with n > len(rows) takes ``"sufficiency"``: all
    ``copies`` from the exact law of the sums.  The mean vector is
    d + L g / sqrt(n) and the scatter L B B' L', with L the Cholesky factor
    of the model's correlations among ``rows``, g standard normal and B
    lower triangular (Bartlett): row j of B takes j normals, then the
    square root of chi2(n - 1 - j).  Every other panel takes
    ``"explicit"``, the cells (:func:`_rows_cells_sums`).
    """
    n = spec.n
    if not (spec.law.is_gaussian and n > len(rows)):
        return ("explicit", *_rows_cells_sums(spec, rows, copies, rng))
    chol = np.linalg.cholesky([[spec.model.lag_correlation(a - b) for b in rows]
                               for a in rows])
    s1 = (math.sqrt(n) * chol) @ rng.standard_normal((len(rows), copies))
    s1 += n * spec.offset_vector()[[i - 1 for i in rows], None]
    s2 = s1 * s1 / n
    chi = rng.chisquare(n - 1, copies)  # B_00^2
    s2[0] += chi
    if len(rows) == 2:
        b1 = chol[1, 0] * np.sqrt(chi) + chol[1, 1] * rng.standard_normal(copies)
        s2[1] += chol[1, 1] ** 2 * rng.chisquare(n - 2, copies) + b1 * b1
    return "sufficiency", copies, s1, s2


def _rows_cells_sums(spec: PanelSpec, rows, copies: int, rng: np.random.Generator):
    """(drawn, S1, S2) of :func:`rows_sums` from the cells, for any law and n.

    Rows min..max are drawn as a panel of their own (:func:`copies_sums`;
    the model is stationary down the rows), as many copies as fit 2^22
    cells; rows at zero lag correlation are independent, and each is drawn
    in turn as a one-row panel.
    """
    n = spec.n
    lo, hi = min(rows), max(rows)
    if spec.model.lag_correlation(hi - lo) == 0.0:
        drawn, a1, a2 = _rows_cells_sums(spec, rows[:1], copies, rng)
        _, b1, b2 = _rows_cells_sums(spec, rows[1:], drawn, rng)
        return drawn, np.vstack((a1, b1)), np.vstack((a2, b2))
    drawn = min(copies, max(1, _CELL_BUDGET // ((hi - lo + 1 + spec.model.kappa) * n)))
    sub = replace(spec, p=hi - lo + 1, offsets=tuple(
        (i - lo + 1, d) for i, d in spec.offsets if lo <= i <= hi))
    s1, s2 = copies_sums(sub, drawn, rng)
    cols = [i - lo for i in rows]
    return drawn, s1[:, cols].T, s2[:, cols].T


# ---------------------------------------------------------------------------
# Row sums of Gaussian panels, drawn without their cells
# ---------------------------------------------------------------------------

_SUMS_CHUNK_ROWS = 512  # driver rows whose normals one replicate draws at a time
# Frame entries, over all replicates, that one elementwise pass of
# _window_norms works on (2 MB): enough blocks to amortise its numpy calls
# at small batches; 2^17 to 2^19 measured alike (BENCH_15.json).
_SUMS_PASS_ENTRIES = 1 << 18
# Filters of up to this many taps work their frames elementwise, many
# blocks at once; wider ones one frame at a time, where BLAS and LAPACK
# were faster (BENCH_15.json, "crossover").
_SUMS_ELEMENTWISE_TAPS = 8
# With n - L below this, drawing the n cells of a row costs less than
# row_sums (measured over filters of 2 to 21 taps; BENCH_4.json, "crossover").
_SUMS_MIN_NEW = 6


def row_sums_unsupported(spec: PanelSpec) -> str | None:
    """Why :func:`row_sums` cannot draw ``spec``'s panels, or None if it can."""
    if not spec.law.is_gaussian:
        return f"innovation law {spec.law.kind!r} is not standard-normal"
    taps = _driver_filter(spec.model).shape[0]
    if spec.n < max(2, 2 * taps - 1):
        return (f"n = {spec.n} is below 2L - 1 = {2 * taps - 1} "
                f"for a filter of L = {taps} taps")
    return None


def row_sums_preferred(spec: PanelSpec) -> bool:
    """Whether :func:`row_sums` applies to ``spec`` and beats drawing cells.

    It does for iid panels from n = 2, and for filters of L >= 2 taps from
    n >= max(2L - 1, L + 6): with n - L below 6, drawing the n cells of a
    row was measured faster.
    """
    if row_sums_unsupported(spec) is not None:
        return False
    taps = _driver_filter(spec.model).shape[0]
    return taps == 1 or spec.n - taps >= _SUMS_MIN_NEW


# The total variation that the level cut of row_sums may cost one
# replicate: p delta, delta bounding the chance that a skipped row exceeds.
_CUT_TV = 2.0 ** -64
# Relative shrinkage of the Chernoff floor x: far above the rounding of its
# solve, so that P(chi2(n - 1) <= x) <= delta holds for the computed x.
_CUT_MARGIN = 1e-6


def _chi2_floor(k: int, delta: float) -> float:
    """An x with P(chi2(k) <= x) <= delta, from the Chernoff bound.

    P(X <= x) <= (x/k)^(k/2) e^((k - x)/2) for x < k.  With y = x/k the
    bound equals delta where log y + 1 - y = 2 log(delta) / k; Newton on
    s = log y from s = c - 1 climbs to the root from below (the function
    is concave and increasing there), so every iterate is a safe floor.
    """
    c = 2.0 * math.log(delta) / k
    s = c - 1.0
    for _ in range(100):
        step = (s + 1.0 - math.exp(s) - c) / (1.0 - math.exp(s))
        s -= step
        if abs(step) <= 1e-15 * abs(s):
            break
    return k * math.exp(s) * (1.0 - _CUT_MARGIN)


def level_cut(spec: PanelSpec, level: float) -> tuple[float, float]:
    """(u_min, delta): the cut of :func:`row_sums` for T-level ``level``.

    In the notation of :func:`row_sums`, row i has u_i = along_i + sqrt(n) d_i
    and T_i = sqrt(n) u_i / sqrt(V_i), with V_i ~ chi2(n - 1) independent
    of u_i; so T_i > t needs V_i < n u_i^2 / t^2.  A row with u_i <= u_min
    = t sqrt(x / n) then exceeds only if V_i < x, which has chance at most
    delta = 2^-64 / p (:func:`_chi2_floor`).  Skipping those rows changes
    the law of a replicate's exceedances by at most p delta = 2^-64 in
    total variation.  A level at or below 0 cuts nothing.
    """
    delta = _CUT_TV / spec.p
    if level <= 0.0:
        return -math.inf, delta
    return level * math.sqrt(_chi2_floor(spec.n - 1, delta) / spec.n), delta


def row_sums(spec: PanelSpec, replicates, u_min: float = -math.inf):
    """Row sums and row sums of squares of whole panels, without their cells.

    Returns (sum1, sum2), each of shape (len(replicates), p); entry [r, i]
    belongs to row i + 1 of the panel of ``spec.with_replicate(replicates[r])``.
    The pair is exact in law for every panel built from standard-normal
    drivers with n >= 2L - 1 (and n >= 2), L being the number of filter
    taps (kappa + 1 for gaussian-kdep, kappa for moving-average, 1 for iid).

    Each driver row eps_j splits into a_j = <eps_j, 1/sqrt(n)> ~ N(0, 1)
    and its coordinates e_j ~ N(0, I_{n-1}) in the complement, all
    independent.  Data row i = sum_k w_k eps_{i+k} then has
    S1_i = sqrt(n) along_i and S2_i = along_i^2 + V_i, with
    along_i = sum_k w_k a_{i+k} and V_i = |sum_k w_k e_{i+k}|^2.  The e-part
    is built in blocks of K = L - 1 new drivers in an orthonormal frame of
    dimension 2(L - 1): the L - 1 drivers carried over from the previous
    block, which are exactly its new drivers, take the Cholesky factor of
    their Gram matrix as coordinates, and new driver j takes N(0, 1)
    coordinates on the first L - 1 + j directions plus a residual of squared
    norm chi2(n - L - j) (Bartlett's decomposition; n >= 2L - 1 keeps every
    degree of freedom positive).  The first block of a run of blocks starts
    from the run's first frame, its first L - 1 drivers in Bartlett form.
    No carry is chained, so the carries of many blocks come from one
    factorisation step: elementwise across blocks, runs and replicates for
    filters of up to 8 taps, one LAPACK call per block for wider ones.
    Offsets enter in closed form.

    ``u_min`` cuts the draw to the rows that can exceed a level (see
    :func:`level_cut`): the e-part is drawn only for the blocks holding a
    row with u_i = along_i + sqrt(n) d_i above ``u_min``, as runs of
    consecutive blocks that share no driver.  Every other row gets
    sum2 = NaN.  The default keeps every row, one run of all blocks.

    Replicate r draws only from ``stream(seed, r)``, in a fixed order: the
    a_j; the normals of its runs' first frames, then their chi-squares;
    then, for each chunk of 512 // K blocks (about 512 drivers) of its runs
    taken in order, the normals of its blocks block by block, then their
    chi-squares.  The arithmetic is separate per replicate and block, so
    its sums are bit-identical in any batch of replicates.
    """
    spec.validate()
    why = row_sums_unsupported(spec)
    if why is not None:
        raise SpecError(f"row sums cannot be drawn without the cells: {why}")
    p, n = spec.p, spec.n
    rngs = [stream(spec.seed, int(r)) for r in replicates]
    if not rngs:
        return np.zeros((0, p)), np.zeros((0, p))
    w = _driver_filter(spec.model)
    taps = w.shape[0]
    # one replicate at a time, so that a stays in cache while it is filtered
    along, a = np.empty((len(rngs), p)), np.empty(p + taps - 1)
    for b, rng in enumerate(rngs):
        rng.standard_normal(out=a)
        np.multiply(w[0], a[:p], out=along[b])
        for k in range(1, taps):
            along[b] += w[k] * a[k:k + p]
    K = max(1, taps - 1)
    blocks = -(-p // K)
    u = along + math.sqrt(n) * spec.offset_vector() if spec.offsets else along
    keep = []
    for ui in u:
        # the blocks holding a row above the cut, increasing, each once
        q = np.flatnonzero(ui > u_min) // K
        keep.append(q[np.diff(q, prepend=-1) != 0])
    out = _window_norms(rngs, w, n, keep)
    across = np.full((len(rngs), blocks, K), np.nan)
    for b, kept in enumerate(keep):
        across[b, kept] = out[b, :kept.size]
    across = across.reshape(len(rngs), blocks * K)[:, :p]
    sum2 = along * along
    sum2 += across
    del across
    sum1 = along
    sum1 *= math.sqrt(n)
    if spec.offsets:
        _shift_sums(sum1, sum2, spec.offset_vector(), n)
    return sum1, sum2


def _gram_cholesky(rows: np.ndarray) -> np.ndarray:
    """Cholesky factors of the Gram matrices of row sets stacked on the last axes.

    ``rows`` is (c, D, ...), entry [i, d, ...] coordinate d of row i, and
    row i must vanish beyond coordinate D - c + i, as the last c rows of a
    lower triangular frame do.  Returns (c, c, ...), lower triangular.
    Every operation is elementwise along the stacked axes, so each factor
    is computed alone and bit-identically in any stack.
    """
    c, D = rows.shape[:2]
    chol = np.zeros((c, c) + rows.shape[2:])
    for j in range(c):
        # column j of the Gram matrix from row j and below, over row j's support
        col = rows[j:, 0] * rows[j, 0]
        for d in range(1, D - c + j + 1):
            col += rows[j:, d] * rows[j, d]
        for k in range(j):
            col -= chol[j:, k] * chol[j, k]
        chol[j, j] = np.sqrt(col[0])
        np.divide(col[1:], chol[j, j], out=chol[j + 1:, j])
    return chol


def _window_norms(rngs, w: np.ndarray, n: int, keep) -> np.ndarray:
    """|sum_k w_k e_{i+k}|^2 for the rows of the kept blocks of iid N(0, I_{n-1}) drivers.

    ``keep[b]`` lists, increasing, the blocks that replicate b draws; block
    q holds rows qK..qK + K - 1.  Returns (batch, M, K), entry [b, m] the
    rows of block keep[b][m] (M the most blocks any replicate keeps).  A
    filter of one tap draws each kept row's chi2(n - 1) directly; longer
    ones work on frames of c = L - 1 carried rows followed by K new rows,
    one frame per block; see :func:`row_sums`.
    """
    batch, taps = len(rngs), w.shape[0]
    counts = [kept.size for kept in keep]
    M = max(counts)
    if taps == 1:
        out = np.empty((batch, M, 1))
        for b, rng in enumerate(rngs):
            out[b, :counts[b], 0] = rng.chisquare(n - 1, counts[b])
        return out
    c = K = taps - 1
    D = c + K
    # Flat positions, within one frame, of the new rows' normal coordinates
    # and residuals; new row j sits on frame row c + j.
    j = np.arange(K)
    normal_at = c * D + np.flatnonzero(np.arange(D)[None, :] < (c + j)[:, None])
    resid_at = (c + j) * D + c + j
    df = n - taps - j

    # Runs of consecutive blocks share no driver (K >= c); each starts from
    # a first frame, its first c drivers in Bartlett form.
    r = np.arange(c)
    first_at = np.flatnonzero(r[None, :] < r[:, None])
    runs, firsts = [], []
    for b, (rng, kept) in enumerate(zip(rngs, keep)):
        at = np.flatnonzero(np.diff(kept, prepend=-2) != 1)
        first = np.zeros((at.size, c * c))
        first[:, first_at] = rng.standard_normal((at.size, first_at.size))
        first[:, r * c + r] = np.sqrt(rng.chisquare(np.tile(n - 1 - r, at.size))).reshape(
            at.size, c)
        runs.append(np.stack((np.full(at.size, b), at)))
        firsts.append(first.reshape(at.size, c, c))
    run_b, run_at = np.concatenate(runs, axis=1)
    firsts = np.concatenate(firsts)

    chunk = max(1, _SUMS_CHUNK_ROWS // K)  # blocks a replicate draws at a time
    elementwise = taps <= _SUMS_ELEMENTWISE_TAPS
    per_pass = chunk
    if elementwise:  # long passes amortise the numpy calls
        per_pass *= max(1, _SUMS_PASS_ENTRIES // (D * D * batch * chunk))
    per_pass = max(1, min(M, per_pass))
    # One frame buffer for every pass: the entries above the diagonal stay
    # zero, and every other entry of a pass's blocks is rewritten.  A
    # replicate that keeps fewer blocks than M leaves frames at the end of
    # its last pass as they were, or as unit frames at first; their norms are
    # never read.
    if elementwise:
        buf = np.zeros((D * D, batch, per_pass))
        buf[resid_at] = 1.0
        carry = np.zeros((c, c, batch))
        firsts = np.moveaxis(firsts, 0, -1)
    else:
        buf = np.zeros((batch, per_pass, D * D))
        buf[..., resid_at] = 1.0
        carry = np.zeros((batch, c, c))
    out = np.empty((batch, M, K))
    for b0 in range(0, M, per_pass):
        nb = min(per_pass, M - b0)
        for b, rng in enumerate(rngs):
            for q in range(0, min(nb, counts[b] - b0), chunk):
                size = min(chunk, counts[b] - b0 - q, nb - q)
                flat = buf[:, b, q:q + size].T if elementwise else buf[b, q:q + size]
                flat[:, normal_at] = rng.standard_normal((size, normal_at.size))
                flat[:, resid_at] = np.sqrt(rng.chisquare(df, (size, K)))
        here = (run_at >= b0) & (run_at < b0 + nb)
        fresh = run_b[here], run_at[here] - b0
        if elementwise:
            norms, carry = _band_norms_elementwise(
                buf[..., :nb].reshape(D, D, batch, nb), w, carry, fresh, firsts[..., here])
            out[:, b0:b0 + nb] = norms.transpose(1, 2, 0)
        else:
            out[:, b0:b0 + nb], carry = _band_norms_stacked(
                buf[:, :nb].reshape(batch, nb, D, D), w, carry, fresh, firsts[here])
    return out


def _band_norms_elementwise(frame: np.ndarray, w: np.ndarray, carry: np.ndarray,
                            fresh, given: np.ndarray):
    """Output norms and the next carry of frames stacked on the last axes.

    ``frame`` is (D, D, batch, blocks) with its carried rows still unset,
    ``carry`` (c, c, batch) the carry of the first block.  The blocks at
    (batch, block) indices ``fresh`` start runs and take the carries
    ``given``, (c, c, len(fresh[0])), instead.  Returns the norms,
    (K, batch, blocks), and the carry of the block after the last.
    """
    taps = w.shape[0]
    c = taps - 1
    K = frame.shape[0] - c
    # K >= c: a block's last c rows are all new, so no carry is chained.
    nxt = _gram_cholesky(frame[K:])
    frame[:c, :c, :, 0] = carry
    frame[:c, :c, :, 1:] = nxt[..., :-1]
    frame[:c, :c, fresh[0], fresh[1]] = given
    norms = np.empty((K,) + frame.shape[2:])
    for t in range(K):
        # frame row r vanishes beyond column r
        v = frame[t + c, :t + taps] * w[c]
        for k in range(c):
            v[:t + k + 1] += frame[t + k, :t + k + 1] * w[k]
        v *= v
        norms[t] = v[0]
        for d in range(1, t + taps):
            norms[t] += v[d]
    return norms, nxt[..., -1]


def _band_norms_stacked(frame: np.ndarray, w: np.ndarray, carry: np.ndarray,
                        fresh, given: np.ndarray):
    """:func:`_band_norms_elementwise` one (D, D) frame at a time.

    ``frame`` is (batch, blocks, D, D), ``carry`` (batch, c, c) and
    ``given`` (len(fresh[0]), c, c); returns norms (batch, blocks, K) and
    the next carry.  matmul, cholesky and the einsum work one matrix or row
    at a time, so a replicate's values do not depend on its batch.
    """
    taps = w.shape[0]
    c = taps - 1
    K = frame.shape[-1] - c
    rows = frame[:, :, K:, :]
    nxt = np.linalg.cholesky(rows @ rows.swapaxes(-1, -2))
    frame[:, 0, :c, :c] = carry
    frame[:, 1:, :c, :c] = nxt[:, :-1]
    frame[fresh[0], fresh[1], :c, :c] = given
    band = np.zeros((K, K + c))  # output t sums frame rows t..t+c with weights w
    for t in range(K):
        band[t, t:t + taps] = w
    v = band @ frame
    return np.einsum("...d,...d->...", v, v), nxt[:, -1]
