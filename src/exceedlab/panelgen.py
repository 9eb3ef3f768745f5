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
from the exact law of their sums for Gaussian panels, otherwise as
``copies_sums`` of the panel those rows span.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import cholesky_banded

__all__ = [
    "DependenceModel",
    "InnovationLaw",
    "Panel",
    "PanelSpec",
    "SpecError",
    "copies_sums",
    "generate",
    "ma_filter_weights",
    "map_replicates",
    "matched_sums",
    "panel_spec_from_config",
    "panel_spec_to_config",
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
    if float(np.max(np.abs(implied - r))) > tol:
        raise SpecError(
            "filter weight solve failed verification; implied lag "
            f"correlations {implied} vs requested {r}"
        )
    w.setflags(write=False)
    return w


def _bauer_weights(r: np.ndarray) -> np.ndarray | None:
    """Stationary rows of the banded Toeplitz Cholesky factor, or None.

    Converges geometrically when the spectral density stays away from
    zero; returns None (rather than raising) when it does not settle.
    """
    kappa = r.shape[0]
    size = max(256, 32 * kappa)
    while size <= (1 << 16):
        ab = np.zeros((kappa + 1, size))
        ab[0] = 1.0
        for m in range(1, kappa + 1):
            ab[m] = r[m - 1]
        try:
            chol = cholesky_banded(ab, lower=True)
        except np.linalg.LinAlgError as exc:
            raise SpecError(
                f"correlation matrix is not positive definite: {exc}"
            ) from exc
        w = np.array([chol[k, size - 1 - k] for k in range(kappa + 1)])
        w_prev = np.array([chol[k, size - 2 - k] for k in range(kappa + 1)])
        if float(np.max(np.abs(w - w_prev))) < 1e-13:
            return w
        size *= 4
    return None


def _root_factor_weights(r: np.ndarray) -> np.ndarray:
    """Spectral factorization through the covariance polynomial roots.

    Handles boundary spectra (density touching zero): the roots of
    z^kappa * (1 + sum_m rho_m (z^m + z^-m)) come in (root, 1/root) pairs
    with even multiplicity on the unit circle; one conjugate-closed half
    is selected and expanded into the filter coefficients.
    """
    kappa = r.shape[0]
    coeffs = np.concatenate([r[::-1], [1.0], r])  # degree 2*kappa, palindromic
    roots = np.roots(coeffs[::-1])
    order = np.argsort(np.abs(roots))
    inside = [z for z in roots[order[:kappa]]]
    # Enforce conjugate closure (unit-circle ties can split pairs).
    selected: list[complex] = []
    pool = list(roots[order])
    while len(selected) < kappa and pool:
        z = pool.pop(0)
        selected.append(z)
        if abs(z.imag) > 1e-9:
            match = min(
                range(len(pool)),
                key=lambda j: abs(pool[j] - z.conjugate()),
                default=None,
            )
            if match is not None and len(selected) < kappa:
                selected.append(pool.pop(match))
    if len(selected) != kappa:
        selected = inside
    w = np.real(np.poly(selected)[::-1])
    return np.ascontiguousarray(w, dtype=float)


@lru_cache(maxsize=128)
def ma_filter_weights(rho: tuple[float, ...]) -> np.ndarray:
    """Filter weights hitting the requested lag correlations exactly.

    Solves for w_0..w_kappa with sum_k w_k w_{k+m} = rho_m (rho_0 = 1)
    from the banded Toeplitz correlation equations: the Cholesky rows
    converge to the stationary weights for interior spectra, and a root
    factorization covers spectra touching zero.  Correlation vectors with
    a negative spectral density are not realizable and are rejected.
    """
    kappa = len(rho)
    if kappa == 0:
        return np.ones(1)
    r = np.asarray(rho, dtype=float)
    if np.any((r < 0.0) | (r >= 1.0)):
        raise SpecError(f"lag correlations must lie in [0, 1), got {rho}")
    omega = np.linspace(0.0, math.pi, 8192)
    density = 1.0 + 2.0 * sum(r[m] * np.cos((m + 1) * omega) for m in range(kappa))
    fmin = float(density.min())
    if fmin < -1e-9:
        raise SpecError(
            "lag correlations are not realizable as a kappa-dependent sequence "
            f"(spectral density minimum {fmin:.3e} below zero)"
        )
    if fmin > 1e-6:
        w = _bauer_weights(r)
        if w is not None:
            return _verify_weights(w, r, 1e-9)
    w = _root_factor_weights(r)
    return _verify_weights(w, r, 1e-6)


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


def map_replicates(fn, reps: int, jobs: int, *args) -> list:
    """``fn(*args, start, stop)`` on ``jobs`` contiguous chunks of 0..reps-1.

    Chunks run in forked workers (``fn`` must pickle: a top-level
    function) and their results come back in chunk order; with one chunk
    ``fn`` runs in this process.  Replicate r draws only from
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
    with ProcessPoolExecutor(len(spans), mp_context=ctx) as pool:
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


def panel_sums(spec: PanelSpec, replicates) -> tuple[np.ndarray, np.ndarray]:
    """Row sums (S1, S2) of the panels of ``spec``, each (len(replicates), p).

    Entry [k, i] belongs to row i + 1 of ``spec.with_replicate(replicates[k])``.
    :func:`row_sums` draws them where :func:`row_sums_preferred` holds;
    otherwise each replicate r is one :func:`copies_sums` copy from
    ``stream(seed, r)``, the draw of :func:`generate`.
    """
    if row_sums_preferred(spec):
        return row_sums(spec, replicates)
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


def rows_sums(spec: PanelSpec, rows, copies: int, rng: np.random.Generator,
              method: str) -> tuple[int, np.ndarray, np.ndarray]:
    """Row sums of the 1-based ``rows`` (one or two) of independent panels of ``spec``.

    Returns (drawn, S1, S2), S1 and S2 of shape (len(rows), drawn) with
    drawn <= ``copies``; entry [k, c] belongs to row rows[k] of copy c.

    ``"sufficiency"`` draws all ``copies`` from the exact law of the sums
    of a Gaussian panel, which needs n > len(rows): the mean vector is
    d + L g / sqrt(n) and the scatter L B B' L', with L the Cholesky
    factor of the model's correlations among ``rows``, g standard normal
    and B lower triangular (Bartlett): row j of B takes j normals, then
    the square root of chi2(n - 1 - j).  ``"explicit"`` draws rows
    min..max as a panel of their own (:func:`copies_sums`; the model is
    stationary down the rows), as many copies as fit 2^22 cells; rows at
    zero lag correlation are independent, and each is drawn in turn as a
    one-row panel.
    """
    n = spec.n
    if method == "sufficiency":
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
        return copies, s1, s2
    lo, hi = min(rows), max(rows)
    if spec.model.lag_correlation(hi - lo) == 0.0:
        drawn, a1, a2 = rows_sums(spec, rows[:1], copies, rng, method)
        _, b1, b2 = rows_sums(spec, rows[1:], drawn, rng, method)
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

_SUMS_BLOCK = 16  # new driver rows per Bartlett block, at least L - 1, at most n - L
_SUMS_CHUNK_ROWS = 512  # driver rows whose normals one replicate draws at a time
# With fewer new drivers per block than this, the per-block Gram and
# Cholesky work of row_sums costs more than drawing the n cells of a row
# (measured over filters of 2 to 21 taps; BENCH_4.json, "crossover").
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
    n >= max(2L - 1, L + 6), where blocks get at least 6 new drivers.
    """
    if row_sums_unsupported(spec) is not None:
        return False
    taps = _driver_filter(spec.model).shape[0]
    return taps == 1 or spec.n - taps >= _SUMS_MIN_NEW


def row_sums(spec: PanelSpec, replicates) -> tuple[np.ndarray, np.ndarray]:
    """Row sums and row sums of squares of whole panels, without their cells.

    Returns (sum1, sum2), each of shape (len(replicates), p); entry [r, i]
    belongs to row i + 1 of the panel of ``spec.with_replicate(replicates[r])``.
    The pair is exact in law for every panel built from standard-normal
    drivers with n >= 2L - 1 (and n >= 2), L being the number of filter
    taps (kappa + 1 for gaussian-kdep, kappa for moving-average, 1 for iid).

    Each driver row eps_j splits into a_j = <eps_j, 1/sqrt(n)> ~ N(0, 1)
    and its coordinates e_j ~ N(0, I_{n-1}) in the complement, all
    independent.  Data row i = sum_k w_k eps_{i+k} then has
    S1_i = sqrt(n) sum_k w_k a_{i+k} and
    S2_i = (sum_k w_k a_{i+k})^2 + |sum_k w_k e_{i+k}|^2.  The e-part is
    built in blocks of K new drivers in an orthonormal frame of dimension
    L - 1 + K: the L - 1 drivers carried over from the previous block take
    the Cholesky factor of their Gram matrix as coordinates, and new driver
    j takes N(0, 1) coordinates on the first L - 1 + j directions plus a
    residual of squared norm chi2(n - L - j) (Bartlett's decomposition).
    With K >= L - 1, which n >= 2L - 1 allows, a block's last L - 1 drivers
    are all new, so every carry of a chunk of blocks comes from one batched
    Gram and Cholesky step.  Offsets enter in closed form.

    Replicate r draws only from ``stream(seed, r)``, in a fixed order (the
    a_j, the first frame, then the normals and chi-squares of the blocks,
    about 512 drivers at a time), and the arithmetic is separate per
    replicate, so its sums are bit-identical in any batch of replicates.
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
    a = np.stack([rng.standard_normal(p + taps - 1) for rng in rngs])
    along = w[0] * a[:, :p]
    for k in range(1, taps):
        along += w[k] * a[:, k:k + p]
    del a  # in place from here on: keep the batch within one explicit panel
    if taps == 1:
        across = np.stack([rng.chisquare(n - 1, p) for rng in rngs])
    else:
        across = _window_norms(rngs, w, p, n)
    sum2 = along * along
    sum2 += across
    del across
    sum1 = along
    sum1 *= math.sqrt(n)
    if spec.offsets:
        _shift_sums(sum1, sum2, spec.offset_vector(), n)
    return sum1, sum2


def _gram_cholesky(rows: np.ndarray) -> np.ndarray:
    """Cholesky factors of the Gram matrices of stacked (c, D) row sets."""
    return np.linalg.cholesky(rows @ rows.swapaxes(-1, -2))


def _window_norms(rngs, w: np.ndarray, p: int, n: int) -> np.ndarray:
    """|sum_k w_k e_{i+k}|^2 for rows i < p of iid N(0, I_{n-1}) drivers e_j.

    Works on frames of c = L - 1 carried rows followed by K new rows, one
    frame per block; see :func:`row_sums`.
    """
    batch, taps = len(rngs), w.shape[0]
    c = taps - 1
    K = min(max(_SUMS_BLOCK, c), n - taps)
    D = c + K
    # Flat positions, within one frame, of the new rows' normal coordinates
    # and residuals; new row j sits on frame row c + j.
    j = np.arange(K)
    normal_at = c * D + np.flatnonzero(np.arange(D)[None, :] < (c + j)[:, None])
    resid_at = (c + j) * D + c + j
    df = n - taps - j
    band = np.zeros((K, D))  # output t sums frame rows t..t+c with weights w
    for t in range(K):
        band[t, t:t + taps] = w

    # The first frame: the first c drivers in Bartlett form.
    r = np.arange(c)
    carry = np.zeros((batch, c * c))
    first_at = np.flatnonzero(r[None, :] < r[:, None])
    for b, rng in enumerate(rngs):
        carry[b, first_at] = rng.standard_normal(first_at.size)
        carry[b, r * c + r] = np.sqrt(rng.chisquare(n - 1 - r))
    carry = carry.reshape(batch, c, c)

    blocks = -(-p // K)
    out = np.empty((batch, blocks * K))
    chunk = max(1, _SUMS_CHUNK_ROWS // K)
    for b0 in range(0, blocks, chunk):
        nb = min(chunk, blocks - b0)
        frame = np.zeros((batch, nb, D, D))
        for b, rng in enumerate(rngs):
            flat = frame[b].reshape(nb, D * D)  # a view: frame[b] is contiguous
            flat[:, normal_at] = rng.standard_normal((nb, normal_at.size))
            flat[:, resid_at] = np.sqrt(rng.chisquare(df, (nb, K)))
        # K >= c: a block's last c rows are all new, so no carry is chained.
        nxt = _gram_cholesky(frame[:, :, K:, :])
        frame[:, 0, :c, :c] = carry
        frame[:, 1:, :c, :c] = nxt[:, :-1]
        carry = nxt[:, -1]
        # matmul, cholesky and this einsum work one matrix or row at a
        # time, so a replicate's values do not depend on its batch.
        v = band @ frame
        norms = np.einsum("...d,...d->...", v, v)
        out[:, b0 * K:(b0 + nb) * K] = norms.reshape(batch, nb * K)
    return out[:, :p]


# ---------------------------------------------------------------------------
# Flat text configuration
# ---------------------------------------------------------------------------


def panel_spec_to_config(spec: PanelSpec) -> str:
    """Serialize a spec to the flat text format (section ``[panel]``)."""
    cp = configparser.ConfigParser()
    sec = {
        "p": str(spec.p),
        "n": str(spec.n),
        "model": spec.model.kind,
        "law": spec.law.kind,
        "seed": str(spec.seed),
        "replicate": str(spec.replicate),
    }
    if spec.model.kind != "iid":
        sec["kappa"] = str(spec.model.kappa)
    if spec.model.kind == "gaussian-kdep":
        sec["rho"] = ", ".join(repr(r) for r in spec.model.rho)
    if spec.law.kind == "standardized-pareto":
        sec["pareto_exponent"] = repr(spec.law.tail_exponent)
    if spec.law.kind == "two-point-with-atom":
        sec["atom"] = repr(spec.law.atom)
    if spec.offsets:
        sec["offsets"] = ", ".join(f"{i}:{repr(d)}" for i, d in spec.offsets)
    cp["panel"] = sec
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def _tuple_of(parse):
    return lambda text: tuple(parse(tok) for tok in text.split(",") if tok.strip())


def _parse_offsets(text: str) -> tuple[tuple[int, float], ...]:
    pairs = (tok.partition(":") for tok in text.split(",") if tok.strip())
    return tuple((int(idx), float(val)) for idx, _, val in pairs)


def panel_spec_from_config(source) -> PanelSpec:
    """Parse a spec from flat text (a string, or a path to a config file)."""
    cp = configparser.ConfigParser()
    text = str(source)
    if "\n" not in text and not text.lstrip().startswith("["):
        with open(source) as fh:
            text = fh.read()
    cp.read_string(text)
    if "panel" not in cp:
        raise SpecError("config has no [panel] section")
    sec = cp["panel"]
    known = {
        "p", "n", "model", "law", "kappa", "rho", "pareto_exponent", "atom",
        "offsets", "seed", "replicate",
    }
    unknown = set(sec) - known
    if unknown:
        raise SpecError(f"unknown [panel] keys: {sorted(unknown)}")

    def value(key: str, parse, default=None):  # no default: the key is required
        raw = sec.get(key, "").strip()
        if not raw:
            if default is None:
                raise SpecError(f"[panel] {key} is required")
            return default
        try:
            return parse(raw)
        except ValueError as exc:
            raise SpecError(f"[panel] {key}: {exc}") from None

    model_kind = sec.get("model", "iid")
    if model_kind == "gaussian-kdep":
        model = DependenceModel.gaussian_kdep(value("rho", _tuple_of(float), ()))
    else:  # an unknown kind fails in spec.validate()
        kappa = value("kappa", int) if model_kind == "moving-average" else 0
        model = DependenceModel(model_kind, kappa=kappa)
    law_kind = sec.get("law", "standard-normal")
    law = InnovationLaw(
        law_kind,
        tail_exponent=(value("pareto_exponent", float)
                       if law_kind == "standardized-pareto" else None),
        atom=value("atom", float) if law_kind == "two-point-with-atom" else None,
    )

    spec = PanelSpec(
        p=value("p", int),
        n=value("n", int),
        model=model,
        law=law,
        offsets=value("offsets", _parse_offsets, ()),
        seed=value("seed", int, 0),
        replicate=value("replicate", int, 0),
    )
    spec.validate()
    return spec
