"""Level exceedances: extraction, block/cluster structure, tail estimation.

An exceedance set records which rows of a studentized panel surpass a
level, in increasing index order.  The index axis can be tiled into
alternating large blocks (length ell) and small buffer blocks (length
kappa + 1), large block first; when the large-block length is derived
from a level s it follows ``ell = max(kappa + 2, ceil(exp(s^2 / 4)))``,
so that exceedances in distinct large blocks are independent and, at
admissible levels, each large block rarely holds more than one.

One Monte Carlo tail estimator, :func:`tail_probability`, covers one row
and a pair of rows alike, with a hit-count guard and a Wilson interval.
Its rows' sums come from ``panelgen.rows_sums``, which alone picks the
draw from the law and n (for Gaussian laws the exact law of the sums,
sample mean plus Bartlett-decomposed scatter, instead of whole rows;
otherwise the rows drawn as a panel of their own), and R from
``studentize_sums``, the lab's one R definition.  The test suite
cross-checks the two draws against each other.

The coupling machinery estimates per-block hit probabilities for a
dependent panel and a matched independent panel (same marginal law),
forms the count-match lower bound ``1 - sum_j |pi_j - pi'_j|`` and
verifies it against the shared-uniform construction: draw U_j once, count
``N = #{U_j <= pi_j}`` and ``N' = #{U_j <= pi'_j}`` and measure
``P(N = N')``, which is also computed exactly by convolution.  Both
panels arrive as row sums from ``panelgen.matched_sums``, a batch of
replicates at a time, and R comes from ``studentize_sums``.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from exceedlab import panelgen as _pg
from exceedlab import studentize as _stu
from exceedlab.numerics import bivariate_normal_tail

__all__ = [
    "BlockScheme",
    "ClusterStats",
    "CouplingEstimate",
    "ExceedanceSet",
    "InsufficientReplicates",
    "TailEstimate",
    "block_scheme",
    "cluster_stats",
    "count_match_lower_bound",
    "count_match_probability",
    "coupling_estimate",
    "extract",
    "simulate_count_match",
    "tail_probability",
    "wilson_interval",
]

_Z95 = 1.959963984540054


class InsufficientReplicates(ValueError):
    """A Monte Carlo guard tripped; ``required`` names the needed count."""

    def __init__(self, message: str, required: int):
        super().__init__(message)
        self.required = required


def wilson_interval(hits: int, n: int) -> tuple[float, float]:
    """Wilson score 95% interval for a binomial proportion."""
    if n <= 0:
        raise ValueError("interval needs a positive sample size")
    phat, z = hits / n, _Z95
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / n + z * z / (4 * n * n)) / denom
    lo = 0.0 if hits == 0 else max(0.0, center - half)
    hi = 1.0 if hits == n else min(1.0, center + half)
    return (lo, hi)


# ---------------------------------------------------------------------------
# Exceedance sets
# ---------------------------------------------------------------------------


@dataclass
class ExceedanceSet:
    """Rows whose statistic strictly exceeds ``level``; 1-based indices."""

    level: float
    indices: np.ndarray
    width: int

    def __len__(self) -> int:
        return self.indices.shape[0]


def extract(rows, level: float) -> ExceedanceSet:
    """Exact threshold pass over statistics (a StudentizedRows or an array).

    Rows at +inf exceed every finite level; rows pinned at the T = 1
    convention are included exactly when ``level < 1``.
    """
    if not math.isfinite(level):
        raise ValueError(f"level must be finite, got {level!r}")
    values = np.asarray(getattr(rows, "t", rows), dtype=float)
    if values.ndim != 1:
        raise ValueError("extract expects a 1-d statistic vector")
    idx = np.flatnonzero(values > level).astype(np.int64) + 1
    return ExceedanceSet(level=float(level), indices=idx, width=values.shape[0])


# ---------------------------------------------------------------------------
# Block schemes and cluster statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockScheme:
    """Alternating large/small tiling of [1, p], large block first.

    ``blocks`` lists (kind, start, end) with inclusive 1-based bounds and
    kind in {"large", "small", "fragment"}; a trailing partial block is
    the fragment.  ``m`` counts complete large blocks.
    """

    width: int
    kappa: int
    ell: int
    blocks: tuple[tuple[str, int, int], ...]

    @property
    def m(self) -> int:
        return sum(1 for kind, _, _ in self.blocks if kind == "large")

    def bounds(self, kind: str) -> tuple[np.ndarray, np.ndarray]:
        """Inclusive 1-based (starts, ends) of every block of ``kind``."""
        return self._bounds[kind]

    @cached_property
    def _bounds(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        table = np.array([(s, e) for _, s, e in self.blocks], dtype=np.int64).reshape(-1, 2)
        kinds = np.array([kind for kind, _, _ in self.blocks])
        return {k: (table[kinds == k, 0], table[kinds == k, 1])
                for k in ("large", "small", "fragment")}


def block_scheme(
    p: int, kappa: int, s: float | None = None, ell: int | None = None
) -> BlockScheme:
    """Tile [1, p] into large blocks and small buffers of length kappa + 1.

    The large-block length is ``ell`` when given, otherwise derived from
    the level: ``ell = max(kappa + 2, ceil(exp(s^2 / 4)))``, so large
    blocks always exceed the buffers.
    """
    if p < 1:
        raise ValueError(f"width p must be >= 1, got {p!r}")
    if kappa < 0:
        raise ValueError(f"kappa must be >= 0, got {kappa!r}")
    if ell is None:
        if s is None or s <= 0.0:
            raise ValueError("need a positive level s (or an explicit ell)")
        grow = 0.25 * s * s
        raw = p if grow > math.log(max(p, 2)) + 2.0 else math.ceil(math.exp(grow))
        ell = max(kappa + 2, int(raw))
    ell = int(ell)
    if ell <= kappa + 1:
        raise ValueError("large blocks must be longer than small blocks")
    blocks: list[tuple[str, int, int]] = []
    pos = 1
    want_large = True
    while pos <= p:
        length = ell if want_large else kappa + 1
        end = pos + length - 1
        if end > p:
            blocks.append(("fragment", pos, p))
            break
        blocks.append(("large" if want_large else "small", pos, end))
        pos = end + 1
        want_large = not want_large
    return BlockScheme(width=p, kappa=kappa, ell=ell, blocks=tuple(blocks))


@dataclass
class ClusterStats:
    """Block-level exceedance counts for one replicate.

    ``small_block_exceedances`` includes hits in a trailing fragment
    shorter than kappa + 1 (such a stub is attached to the preceding
    buffer for counting); ``fragment_exceedances`` stays raw.  ``event_f``
    holds when no exceedance falls outside the large blocks and no large
    block holds more than one.  ``max_run_length`` is the longest run of
    consecutive exceedance indices (0 when empty), ``min_gap`` the
    smallest spacing between distinct exceedances (0 when fewer than two).
    """

    total: int
    large_blocks_hit: int
    large_blocks_multi: int
    small_block_exceedances: int
    fragment_exceedances: int
    max_run_length: int
    min_gap: int
    event_f: bool

    CSV_FIELDS = (
        "total", "large_blocks_hit", "large_blocks_multi",
        "small_block_exceedances", "fragment_exceedances",
        "max_run_length", "min_gap", "event_f",
    )

    def to_csv_row(self) -> list:
        return [
            self.total, self.large_blocks_hit, self.large_blocks_multi,
            self.small_block_exceedances, self.fragment_exceedances,
            self.max_run_length, self.min_gap, int(self.event_f),
        ]


def _counts_in(indices: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    lo = np.searchsorted(indices, starts, side="left")
    hi = np.searchsorted(indices, ends, side="right")
    return hi - lo


def cluster_stats(exc: ExceedanceSet, scheme: BlockScheme) -> ClusterStats:
    """Exact block-level counts of an exceedance set under a scheme."""
    if exc.width != scheme.width:
        raise ValueError(
            f"exceedance width {exc.width} does not match scheme {scheme.width}"
        )
    idx = exc.indices
    total = int(idx.shape[0])
    if total == 0:
        return ClusterStats(0, 0, 0, 0, 0, 0, 0, event_f=True)

    counts_l = _counts_in(idx, *scheme.bounds("large"))
    hit = int((counts_l >= 1).sum())
    multi = int((counts_l >= 2).sum())
    small_raw = int(_counts_in(idx, *scheme.bounds("small")).sum())
    frag_raw = int(_counts_in(idx, *scheme.bounds("fragment")).sum())
    kind, start, end = scheme.blocks[-1]
    stub = kind == "fragment" and end - start + 1 < scheme.kappa + 1
    frag_attached = frag_raw if stub else 0

    if total >= 2:
        gaps = np.diff(idx)
        min_gap = int(gaps.min())
        run = 1
        max_run = 1
        for g in gaps:
            run = run + 1 if g == 1 else 1
            max_run = max(max_run, run)
    else:
        min_gap = 0
        max_run = total

    event_f = small_raw == 0 and frag_raw == 0 and multi == 0
    return ClusterStats(
        total=total,
        large_blocks_hit=hit,
        large_blocks_multi=multi,
        small_block_exceedances=small_raw + frag_attached,
        fragment_exceedances=frag_raw,
        max_run_length=int(max_run),
        min_gap=min_gap,
        event_f=event_f,
    )


# ---------------------------------------------------------------------------
# Tail probability estimation
# ---------------------------------------------------------------------------


@dataclass
class TailEstimate:
    """Monte Carlo estimate of P(R_i > s for every i in ``rows``) with a
    Wilson 95% interval.

    ``rows`` holds one row or two; ``lag`` is their distance (0 for one
    row) and ``rho_lag`` the model's correlation at that lag.
    ``exponent`` is the decay diagnostic -log(estimate) / (s^2 / 2): for
    one centered row it approaches 1 from above as n grows, for a pair
    within the dependence range it is to be compared against 1 + alpha.
    """

    s: float
    estimate: float
    hits: int
    reps: int
    se: float
    wilson_low: float
    wilson_high: float
    exponent: float
    method: str
    rows: tuple[int, ...]
    lag: int
    rho_lag: float


_CHUNK = 2_000_000  # copies drawn at a time; the draw order depends on it
_SLICE = 1 << 16  # copies studentized at a time: their temporaries stay in cache
_MIN_EXPECTED_HITS = 50


def _exponent(estimate: float, s: float) -> float:
    if s == 0.0:
        return math.nan
    if estimate <= 0.0:
        return math.inf
    return -math.log(estimate) / (0.5 * s * s)


def tail_probability(spec: _pg.PanelSpec, rows, s: float, reps: int) -> TailEstimate:
    """Estimate P(R_i > s for every i in ``rows``) over panels drawn from ``spec``.

    ``rows`` is one 1-based row or two distinct ones; a pair's joint law
    enters only through their lag.  The copies draw from
    ``stream(spec.seed, 0, lane=len(rows))``; pass ``replace(spec,
    seed=...)`` for another stream.  The expected hit count under a
    reference law must reach 50, or the call is rejected naming the
    required replicate count: for one row :func:`studentize.normal_r_sf`,
    for two the bivariate normal tail at the lag correlation, capped by
    that single-row tail, which bounds it (near s = sqrt(n) the normal
    limit is far larger).  :func:`panelgen.rows_sums` picks the draw, and
    ``method`` names it: ``"sufficiency"`` for Gaussian laws with n above
    the number of rows, ``"explicit"`` rows otherwise; R comes from
    :func:`studentize.studentize_sums` either way.
    """
    spec.validate()
    rows = tuple(rows)
    if len(rows) not in (1, 2) or len(set(rows)) < len(rows) or not all(
            isinstance(i, (int, np.integer)) and 1 <= i <= spec.p for i in rows):
        raise _pg.SpecError(f"rows = {rows!r} is not one row or two distinct rows "
                            f"in [1, {spec.p}]")
    if not s >= 0.0:
        raise ValueError(f"level s must be nonnegative, got {s!r}")
    n, what, lag = spec.n, ("single", "pair")[len(rows) - 1], abs(rows[-1] - rows[0])
    rho = spec.model.lag_correlation(lag)
    q_ref = _stu.normal_r_sf(s, n)
    if lag:
        q_ref = min(q_ref, bivariate_normal_tail(s, rho))
    if reps * q_ref < _MIN_EXPECTED_HITS:
        required = 2 ** 62 if q_ref <= 0.0 else int(math.ceil(_MIN_EXPECTED_HITS / q_ref))
        raise InsufficientReplicates(
            f"{what} tail at s={s:g}: expected hits {reps * q_ref:.2f} below the guard "
            f"({_MIN_EXPECTED_HITS}); need at least {required} replicates at this level",
            required=required,
        )

    rng = _pg.stream(spec.seed, 0, lane=len(rows))
    hits = 0
    done = 0
    while done < reps:
        method, drawn, s1, s2 = _pg.rows_sums(spec, rows, min(_CHUNK, reps - done), rng)
        for a in range(0, drawn, _SLICE):
            part = np.s_[:, a:a + _SLICE]
            r = _stu.studentize_sums(s1[part].ravel(), s2[part].ravel(), n).r
            hits += int((r.reshape(len(rows), -1) > s).all(axis=0).sum())
        done += drawn
    est = hits / reps
    lo, hi = wilson_interval(hits, reps)
    return TailEstimate(
        s=s, estimate=est, hits=hits, reps=reps,
        se=math.sqrt(max(est * (1.0 - est), 0.0) / reps),
        wilson_low=lo, wilson_high=hi, exponent=_exponent(est, s), method=method,
        rows=rows, lag=lag, rho_lag=rho,
    )


# ---------------------------------------------------------------------------
# Count-match coupling
# ---------------------------------------------------------------------------


def _probability_vectors(pi, pi_prime) -> tuple[np.ndarray, np.ndarray]:
    """``pi`` and ``pi_prime`` as equal-length vectors of probabilities."""
    pi = np.asarray(pi, dtype=float)
    pp = np.asarray(pi_prime, dtype=float)
    if pi.shape != pp.shape or pi.ndim != 1:
        raise ValueError("pi and pi_prime must be equal-length vectors")
    for name, v in (("pi", pi), ("pi_prime", pp)):
        if not np.all((v >= 0.0) & (v <= 1.0)):  # NaN fails both
            raise ValueError(f"{name} entries must be finite and lie in [0, 1]")
    return pi, pp


def count_match_lower_bound(pi, pi_prime) -> float:
    """The coupling lower bound 1 - sum_j |pi_j - pi'_j| on P(N = N')."""
    pi, pp = _probability_vectors(pi, pi_prime)
    return 1.0 - float(np.abs(pi - pp).sum())


def count_match_probability(pi, pi_prime) -> float:
    """P(N = N') under the shared-uniform construction, exactly.

    One uniform per block steps both counts with probability
    min(pi_j, pi'_j) and only the larger side with probability
    |pi_j - pi'_j|, so N - N' is a sum of independent {-1, 0, +1} steps:
    up with max(pi_j - pi'_j, 0), down with max(pi'_j - pi_j, 0).  Its
    law takes O(m^2) to convolve; the result is clamped to [0, 1].
    """
    pi, pp = _probability_vectors(pi, pi_prime)
    dist = np.ones(1)
    for up, down in zip(np.maximum(pi - pp, 0.0), np.maximum(pp - pi, 0.0)):
        dist = np.convolve(dist, [down, 1.0 - up - down, up])
    return min(max(float(dist[dist.size // 2]), 0.0), 1.0)


_MATCH_CHUNK = 65_536  # uniforms drawn at a time (bounds memory), and the least a thread draws


def simulate_count_match(
    pi,
    pi_prime,
    draws: int,
    rng: np.random.Generator,
    jobs: int = 1,
) -> tuple[float, float]:
    """Realize the shared-uniform coupling ``draws`` times and measure P(N = N').

    Each draw shares one uniform vector U across both probability
    vectors: N counts U_j <= pi_j and N' counts U_j <= pi'_j.  Only a U_j
    between pi_j and pi'_j moves N - N', up when pi_j is the larger, so a
    draw matches when its moves cancel; the match count is
    Binomial(draws, P) in law, with P = :func:`count_match_probability`.
    The draws are split over ``jobs`` threads, no more than the CPUs this
    process may use, each jumped ahead to its stretch of ``rng``'s stream,
    so neither the count nor the state ``rng`` is left in depends on
    ``jobs``.  Returns (match frequency, its standard error).
    """
    pi, pp = _probability_vectors(pi, pi_prime)
    if draws < 1:
        raise ValueError("draws must be >= 1")
    m = pi.shape[0]
    lo, hi = np.minimum(pi, pp), np.maximum(pi, pp)
    step = np.sign(pi - pp).astype(np.float32)
    per = max(1, min(_MATCH_CHUNK // max(m, 1), draws))

    def count_matches(gen: np.random.Generator, start: int, stop: int) -> int:
        u = np.empty((min(per, stop - start), m))
        count = 0
        for a in range(start, stop, per):
            c = min(per, stop - a)
            gen.random(out=u[:c])
            moved = (u[:c] > lo) & (u[:c] <= hi)
            count += int(np.count_nonzero(moved.astype(np.float32) @ step == 0.0))
        return count

    bg = rng.bit_generator
    parts = min(max(int(jobs), 1), max(draws * m // _MATCH_CHUNK, 1), _pg._usable_cpus())
    if parts == 1 or not isinstance(bg, np.random.PCG64):
        matches = count_matches(rng, 0, draws)
    else:
        from concurrent.futures import ThreadPoolExecutor

        def ahead(rows: int) -> np.random.PCG64:
            return copy.deepcopy(bg).advance(rows * m)

        cuts = [k * draws // parts for k in range(parts + 1)]
        gens = [rng] + [np.random.Generator(ahead(a)) for a in cuts[1:-1]]
        with ThreadPoolExecutor(parts) as pool:
            matches = sum(pool.map(count_matches, gens, cuts[:-1], cuts[1:]))
        # rng drew the first stretch: move it past the others, keeping the
        # buffered 32-bit half-draw that advance() drops
        kept = bg.state
        bg.state = {**ahead(draws - cuts[1]).state,
                    "has_uint32": kept["has_uint32"], "uinteger": kept["uinteger"]}
    freq = matches / draws
    se = math.sqrt(max(freq * (1.0 - freq), 0.0) / draws)
    return freq, se


def _shared_uniform_matches(pi, pi_prime, draws: int, rng: np.random.Generator) -> int:
    """Matches N = N' among ``draws`` uniform vectors, counted as written: the oracle."""
    pi, pp = _probability_vectors(pi, pi_prime)
    u = rng.random((draws, pi.shape[0]))
    return int(((u <= pi).sum(axis=1) == (u <= pp).sum(axis=1)).sum())


@dataclass
class CouplingEstimate:
    """Per-block hit probabilities and the count-match bound.

    ``pi`` comes from dependent panels, ``pi_prime`` from matched
    independent panels (:func:`panelgen.matched_sums`: same marginal law,
    for Gaussian panels the iid twin).  ``realized_match`` is the match
    frequency of ``match_draws`` realizations of the shared-uniform
    construction applied to the estimated vectors, so it is
    Binomial(match_draws, P)/match_draws in law, with P = P(N = N')
    computed exactly by :func:`count_match_probability`.
    """

    s: float
    pi: np.ndarray
    pi_prime: np.ndarray
    se_pi: np.ndarray
    se_pi_prime: np.ndarray
    lower_bound: float
    realized_match: float
    realized_se: float
    reps: int
    match_draws: int

    def to_json_dict(self) -> dict:
        return {
            "s": self.s,
            "m": int(self.pi.shape[0]),
            "reps": self.reps,
            "match_draws": self.match_draws,
            "pi": [float(v) for v in self.pi],
            "pi_prime": [float(v) for v in self.pi_prime],
            "se_pi": [float(v) for v in self.se_pi],
            "se_pi_prime": [float(v) for v in self.se_pi_prime],
            "lower_bound": self.lower_bound,
            "realized_match": self.realized_match,
            "realized_se": self.realized_se,
        }


def _coupling_hits(
    spec: _pg.PanelSpec, starts: np.ndarray, ends: np.ndarray, s: float,
    start: int, stop: int,
) -> tuple[np.ndarray, np.ndarray]:
    """(dependent, independent) any-hit counts per large block, start..stop-1."""
    hits = np.zeros((2, starts.size), dtype=np.int64)
    batch = max(1, min(64, spec.n // 4))  # the cluster and mtc workers' batches
    for lo in range(start, stop, batch):
        arms = _pg.matched_sums(spec, range(lo, min(lo + batch, stop)))
        for arm, (s1, s2) in enumerate(arms):
            r = _stu.studentize_sums(s1.ravel(), s2.ravel(), spec.n).r.reshape(s1.shape)
            upto = np.pad(np.cumsum(r > s, axis=1), ((0, 0), (1, 0)))  # hits in rows 1..i
            hits[arm] += (upto[:, ends] > upto[:, starts - 1]).sum(axis=0)
    return hits[0], hits[1]


def coupling_estimate(
    spec: _pg.PanelSpec,
    scheme: BlockScheme,
    s: float,
    reps: int,
    se_cap: float = 0.02,
    match_draws: int = 100_000,
    jobs: int = 1,
) -> CouplingEstimate:
    """Estimate the count-match coupling bound for ``spec`` at level ``s``.

    Simulates ``reps`` matched panel pairs, estimates the per-large-block
    any-hit probabilities pi_j (dependent) and pi'_j (independent),
    computes the lower bound 1 - sum |pi_j - pi'_j| and verifies it by
    the shared-uniform construction with ``match_draws`` draws
    (:func:`simulate_count_match`): ``realized_match`` is
    Binomial(match_draws, P)/match_draws in law, with P = P(N = N')
    computed exactly by :func:`count_match_probability`.  The call is
    rejected unless ``reps`` caps every estimate's worst-case standard
    error at ``se_cap``.  The panel pairs are split over ``jobs`` worker
    processes (:func:`panelgen.map_replicates`) and the match draws over
    ``jobs`` threads; hit counts are integers and the draws keep their
    stream, so the estimate does not depend on ``jobs``.
    """
    spec.validate()
    if scheme.width != spec.p:
        raise ValueError("block scheme width must match the panel width")
    if s <= 0.0:
        raise ValueError(f"level s must be positive, got {s!r}")
    required = int(math.ceil(0.25 / (se_cap * se_cap)))
    if reps < required:
        raise InsufficientReplicates(
            f"coupling at se_cap={se_cap:g} needs at least {required} replicates, "
            f"got {reps}",
            required=required,
        )
    starts, ends = scheme.bounds("large")
    if starts.size == 0:
        raise ValueError("block scheme has no complete large block")
    parts = _pg.map_replicates(_coupling_hits, reps, jobs, spec, starts, ends, s)
    hits_dep, hits_ind = np.sum(parts, axis=0)
    pi = hits_dep / reps
    pp = hits_ind / reps
    se_pi = np.sqrt(pi * (1.0 - pi) / reps)
    se_pp = np.sqrt(pp * (1.0 - pp) / reps)
    bound = count_match_lower_bound(pi, pp)
    rng = _pg.stream(spec.seed, reps, lane=3)
    freq, freq_se = simulate_count_match(pi, pp, match_draws, rng, jobs=jobs)
    return CouplingEstimate(
        s=s, pi=pi, pi_prime=pp, se_pi=se_pi, se_pi_prime=se_pp,
        lower_bound=bound, realized_match=freq, realized_se=freq_se,
        reps=reps, match_draws=match_draws,
    )
