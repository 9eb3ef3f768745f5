"""Experiment runner: configuration, seeded parallel replication, outputs.

An experiment is described by a flat text config (INI-style sections, one
key per line) or built programmatically as an :class:`ExperimentConfig`.
Each experiment kind is a function of the config alone that returns its
table and summary; :func:`run` alone names, writes and digests the files.
It writes ``<stem>.<format>`` (CSV by default) and ``<stem>_summary.json``,
the stem being the kind with ``_`` for ``-``, into the output directory,
and finishes with a ``manifest.json`` listing both with their SHA-256
digests, the resolved config snapshot, the code version, the environment
that fixes the random streams, and per-stage timings: ``experiment_s``
computes the table and summary, ``write_s`` writes and digests both files.

Determinism contract: the data outputs (tables and summaries) are a pure
function of (config, seed), independent of the parallelism degree.
Replicates map to workers by static contiguous chunking keyed to the
replicate id, every replicate draws from its own (seed, replicate)
stream, results are merged in replicate order, and probability
aggregation uses exact summation (math.fsum).  Manifest timing fields are
informational and excluded from the contract; ``replay`` re-runs the
config snapshot and re-verifies the output digests.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import json
import math
import os
import sys
import time
from collections import namedtuple
from dataclasses import MISSING, asdict, dataclass, fields, replace
from operator import attrgetter
from pathlib import Path

import numpy as np

from exceedlab import __version__ as _CODE_VERSION
from exceedlab import exceedance as xc
from exceedlab import mtc
from exceedlab import panelgen as pg
from exceedlab import studentize as stu
from exceedlab.numerics import (
    LOGLOG_COEFF,
    any_exceedence_prob,
    bivariate_normal_tail,
    dependence_summary,
    phi_bound,
    student_t_isf,
    student_t_sf,
    threshold_regime,
)

__all__ = [
    "EXPERIMENT_KINDS",
    "ExperimentConfig",
    "RunManifest",
    "default_jobs",
    "environment",
    "load_manifest",
    "replay",
    "resolve_level",
    "resolve_sampler",
    "run",
    "validate_config",
]

EXPERIMENT_KINDS = ("calibrate", "tails", "coupling", "cluster", "mtc", "paper-table")
_LOGP_N_RATIO_MAX = 0.5  # validate_config warns above this log(p)/n

_JOBS_ENV = "EXCEEDLAB_JOBS"


def default_jobs() -> int:
    """Worker count: the EXCEEDLAB_JOBS override, else the CPUs this process may use."""
    env = os.environ.get(_JOBS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise pg.SpecError(f"{_JOBS_ENV} must be an integer, got {env!r}") from None
    return pg._usable_cpus()


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    """Everything one run needs; validated before any work starts.

    ``level_policy`` is ``"eta"`` (derive t from the admissible floor at
    slack eta, using gamma from the model's maximal correlation),
    ``"ma-refined"`` (the moving-average log-log refinement) or
    ``"explicit"`` (use ``level_t`` as given).  ``s_level`` optionally
    fixes the R-scale level for tails/coupling; by default it is the
    mapped t-level.  How replicates are drawn follows from the kind and
    the panel spec alone (:func:`panelgen.panel_sums`,
    :func:`panelgen.matched_sums`).  Every field but ``panel``, and each
    panel setting its model and law take (:func:`_panel_keys`), is one
    config-file key (``_CONFIG_TABLE``), defaulting to the field default.
    """

    kind: str
    panel: pg.PanelSpec
    level_policy: str = "eta"
    eta: float = 0.05
    level_t: float | None = None
    rho_max_override: float | None = None
    reps: int = 1000
    jobs: int = 0
    out: str | None = None
    fmt: str = "csv"
    # tails
    s_level: float | None = None
    row: int = 1
    pair: tuple[int, int] | None = None
    # block scheme override (cluster/coupling); derived from the level if None
    block_ell: int | None = None
    # coupling
    se_cap: float = 0.02
    match_draws: int = 100_000
    # mtc
    bh_q: float = 0.1
    fwer_a: float = 0.05
    # paper-table
    p_list: tuple[int, ...] = (10_000, 100_000, 1_000_000)
    p0: int = 1_000_000

    def validate(self) -> None:
        if self.kind not in EXPERIMENT_KINDS:
            raise pg.SpecError(f"[experiment] kind {self.kind!r} is unknown")
        self.panel.validate()
        if self.panel.n < 2:
            raise pg.SpecError(
                f"[panel] n: group size n must be >= 2 to studentize a row, got {self.panel.n}"
            )
        if self.level_policy not in ("eta", "ma-refined", "explicit"):
            raise pg.SpecError(f"[level] policy {self.level_policy!r} is unknown")
        if self.level_policy == "explicit" and not (
            self.level_t is not None and 0.0 < self.level_t < math.inf
        ):
            raise pg.SpecError(f"[level] t must be finite and > 0 for policy explicit, "
                               f"got {self.level_t!r}")
        if self.level_policy == "ma-refined" and self.panel.model.kind != "moving-average":
            raise pg.SpecError("[level] policy ma-refined needs a moving-average model")
        if self.reps < 1:
            raise pg.SpecError(f"[experiment] reps must be >= 1, got {self.reps!r}")
        if self.jobs < 0:
            raise pg.SpecError(f"[experiment] jobs must be >= 0 (0 means auto), got {self.jobs}")
        if self.fmt not in ("csv", "json"):
            raise pg.SpecError(f"[experiment] format {self.fmt!r} is not csv or json")
        if not 1 <= self.row <= self.panel.p:
            raise pg.SpecError(f"[tails] row {self.row} outside [1, {self.panel.p}]")
        if self.pair is not None and (
            len(self.pair) != 2 or self.pair[0] == self.pair[1]
            or not all(1 <= i <= self.panel.p for i in self.pair)
        ):
            raise pg.SpecError(f"[tails] pair {self.pair!r} is not two distinct rows "
                               f"in [1, {self.panel.p}]")
        if not 0.0 < self.bh_q < 1.0:
            raise pg.SpecError(f"[mtc] bh_q must lie in (0, 1), got {self.bh_q!r}")
        if not 0.0 < self.fwer_a < 1.0:
            raise pg.SpecError(f"[mtc] fwer_a must lie in (0, 1), got {self.fwer_a!r}")
        if any(p < 2 for p in self.p_list):
            raise pg.SpecError(f"[paper-table] p_list entries must be >= 2, got {self.p_list}")
        if self.p0 < 2:
            raise pg.SpecError(f"[paper-table] p0 must be >= 2, got {self.p0!r}")
        if not 0.0 <= self.eta < math.inf:
            raise pg.SpecError(f"[level] eta must be finite and >= 0, got {self.eta!r}")
        # the level floor needs two tests, its moving-average refinement three
        # (log p + 3 log log p > 0); calibrate reports them under every policy
        p = self.panel.p
        refined = self.level_policy == "ma-refined" or (
            self.kind == "calibrate" and self.panel.model.kind == "moving-average")
        uses_floor = self.kind == "calibrate" or (
            self.kind != "paper-table" and self.level_policy != "explicit")
        if uses_floor and p < 2 + refined:
            raise pg.SpecError(f"[panel] p must be >= {2 + refined} for the level floor "
                               f"of this run, got {p}")
        rho = self.rho_max_override
        if rho is not None and not 0.0 <= rho < 1.0:
            raise pg.SpecError(f"[level] rho_max must lie in [0, 1), got {rho!r}")
        ell, kappa = self.block_ell, self.panel.model.kappa
        if ell is not None and ell < kappa + 2:
            raise pg.SpecError(f"[level] ell must be >= kappa + 2 = {kappa + 2}, got {ell}")
        s = self.s_level
        if s is not None and not math.isfinite(s):
            raise pg.SpecError(f"[level] s must be finite, got {s!r}")
        if s is not None and self.kind == "tails" and not s >= 0.0:
            raise pg.SpecError(f"[level] s must be >= 0 for tails, got {s!r}")
        # coupling counts R > s in blocks; cluster derives its blocks from s
        needs_positive = self.kind == "coupling" or self.kind == "cluster" and ell is None
        if s is not None and needs_positive and not s > 0.0:
            raise pg.SpecError(f"[level] s must be > 0 for {self.kind}, got {s!r}")
        if s is not None and self.kind in ("tails", "coupling") and s * s >= self.panel.n:
            raise pg.SpecError(f"[level] s must lie below sqrt(n) = "
                               f"{math.sqrt(self.panel.n):.6g}, which R never exceeds, got {s!r}")
        if not self.se_cap > 0.0:
            raise pg.SpecError(f"[coupling] se_cap must be > 0, got {self.se_cap!r}")
        if self.match_draws < 1:
            raise pg.SpecError(f"[coupling] match_draws must be >= 1, got {self.match_draws!r}")
        if self.kind == "coupling":
            scheme = _block_scheme_for(self, resolve_level(self)[1])
            if scheme.m == 0:
                key = "[panel] p" if ell is None else "[level] ell"
                raise pg.SpecError(f"{key} leaves no complete large block: "
                                   f"ell = {scheme.ell} > p = {p}")

    # -- flat text round trip ------------------------------------------------

    def to_text(self) -> str:
        taken = _panel_keys(self.panel.model.kind, self.panel.law.kind)
        sections: dict[str, dict[str, str]] = {}
        for section, key, field, _ in _CONFIG_TABLE:
            value = attrgetter(field)(self)
            if value not in (None, ()) and (section != "panel" or key in taken):
                sections.setdefault(section, {})[key] = _text(value)
        cp = configparser.ConfigParser(interpolation=None)
        cp.read_dict(sections)
        buf = io.StringIO()
        cp.write(buf)
        return buf.getvalue()

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        """Parse a config; a key left out or empty takes the field default.

        ``[panel]`` may set only the keys its model and law take
        (:func:`_panel_keys`), and the panel it describes is validated.
        """
        cp = configparser.ConfigParser(interpolation=None)
        try:
            cp.read_string(text)
        except configparser.Error as exc:
            raise pg.SpecError(f"config text does not parse: {exc}") from None
        known = {row[:2] for row in _CONFIG_TABLE} | set(_RETIRED_KEYS)
        for name in cp.sections():
            if name not in {section for section, _ in known}:
                raise pg.SpecError(f"[{name}]: unknown config section")
            unknown = sorted(key for key in cp[name] if (name, key) not in known)
            if unknown:
                raise pg.SpecError(f"[{name}] {unknown[0]}: not a key of this section")
        for (section, key), fixed in _RETIRED_KEYS.items():
            if cp.get(section, key, fallback=fixed) != fixed:
                raise pg.SpecError(f"[{section}] {key}: retired; only {fixed} is accepted")
        values, panel = {"kind": "calibrate"}, {}
        for section, key, field, parse in _CONFIG_TABLE:
            raw = cp.get(section, key, fallback="")
            if raw:
                try:
                    value = parse(raw)
                except ValueError as exc:
                    raise pg.SpecError(f"[{section}] {key}: {exc}") from None
                if section == "panel":
                    panel[key] = value
                else:
                    values[field] = value
        return cls(panel=_panel_spec(panel), **values)


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(","))


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _offsets(text: str) -> tuple[tuple[int, float], ...]:
    pairs = (tok.partition(":") for tok in text.split(",") if tok.strip())
    return tuple((int(idx), float(val)) for idx, _, val in pairs)


def _text(value) -> str:
    """A config value as text: tuples comma-separated, offsets as row:value."""
    if isinstance(value, tuple):
        return ", ".join(":".join(map(str, v)) if isinstance(v, tuple) else str(v)
                         for v in value)
    return str(value)


# The config file's keys: (section, key, ExperimentConfig field, parser).
# A [panel] field is a path into the panel spec; _panel_spec reads its keys.
_CONFIG_TABLE = (
    ("experiment", "kind", "kind", str),
    ("experiment", "reps", "reps", int),
    ("experiment", "jobs", "jobs", int),
    ("experiment", "format", "fmt", str),
    ("experiment", "out", "out", str),
    ("level", "policy", "level_policy", str),
    ("level", "eta", "eta", float),
    ("level", "t", "level_t", float),
    ("level", "s", "s_level", float),
    ("level", "rho_max", "rho_max_override", float),
    ("level", "ell", "block_ell", int),
    ("tails", "row", "row", int),
    ("tails", "pair", "pair", _ints),
    ("coupling", "se_cap", "se_cap", float),
    ("coupling", "match_draws", "match_draws", int),
    ("mtc", "bh_q", "bh_q", float),
    ("mtc", "fwer_a", "fwer_a", float),
    ("paper-table", "p_list", "p_list", _ints),
    ("paper-table", "p0", "p0", int),
    ("panel", "p", "panel.p", int),
    ("panel", "n", "panel.n", int),
    ("panel", "model", "panel.model.kind", str),
    ("panel", "law", "panel.law.kind", str),
    ("panel", "seed", "panel.seed", int),
    ("panel", "kappa", "panel.model.kappa", int),
    ("panel", "rho", "panel.model.rho", _floats),
    ("panel", "pareto_exponent", "panel.law.tail_exponent", float),
    ("panel", "atom", "panel.law.atom", float),
    ("panel", "offsets", "panel.offsets", _offsets),
)


def _panel_keys(model: str, law: str) -> set[str]:
    """The [panel] keys a panel of this dependence model and law takes."""
    keys = {"p", "n", "model", "law", "seed", "offsets"}
    if model != "iid":
        keys.add("kappa")
    if model == "gaussian-kdep":
        keys.add("rho")
    if law == "standardized-pareto":
        keys.add("pareto_exponent")
    if law == "two-point-with-atom":
        keys.add("atom")
    return keys


def _panel_spec(given: dict) -> pg.PanelSpec:
    """The validated panel of the parsed [panel] values ``given``, by key."""
    model = given.get("model", "iid")
    law = given.get("law", "standard-normal")
    extra = sorted(given.keys() - _panel_keys(model, law))
    if extra:
        raise pg.SpecError(f"[panel] {extra[0]}: not a key of the {model} model "
                           f"with the {law} law")
    for key in ("p", "n"):
        if key not in given:
            raise pg.SpecError(f"[panel] {key} is required")
    if model == "gaussian-kdep":
        dependence = pg.DependenceModel.gaussian_kdep(given.get("rho", ()))
        if given.get("kappa", dependence.kappa) != dependence.kappa:
            raise pg.SpecError(f"[panel] kappa: {given['kappa']} differs from the "
                               f"{dependence.kappa} lag correlations in rho")
    else:
        dependence = pg.DependenceModel(model, kappa=given.get("kappa", 0))
    spec = pg.PanelSpec(
        p=given["p"],
        n=given["n"],
        model=dependence,
        law=pg.InnovationLaw(law, tail_exponent=given.get("pareto_exponent"),
                             atom=given.get("atom")),
        offsets=given.get("offsets", ()),
        seed=given.get("seed", 0),
    )
    spec.validate()
    return spec


# Keys that earlier versions wrote into every manifest, with the one value
# the code now fixes: those manifests still replay, and any other value
# fails instead of drawing differently.
_RETIRED_KEYS = {
    ("experiment", "sampler"): "auto",
    ("level", "loglog_coeff"): str(LOGLOG_COEFF),
    ("validate", "logp_n_ratio_max"): str(_LOGP_N_RATIO_MAX),
    ("panel", "replicate"): "0",
}


def resolve_sampler(cfg: ExperimentConfig) -> str:
    """The summaries' tag for how :mod:`panelgen` draws the row sums:
    "sufficiency-v2" (mtc, Gaussian coupling: :func:`panelgen.row_sums` in
    blocks of L - 1 new drivers), "sufficiency-v2-cut" (cluster, the same
    blocks drawn only for the rows that can reach the level,
    :func:`panelgen.level_cut`) or "packed-sums" (Rademacher coupling)
    where no cell is drawn, otherwise "explicit", the panel's own stream."""
    if cfg.kind == "coupling" and pg.rademacher_sums_supported(cfg.panel):
        return "packed-sums"
    if not pg.row_sums_preferred(cfg.panel):
        return "explicit"
    return "sufficiency-v2-cut" if cfg.kind == "cluster" else "sufficiency-v2"


def _effective_rho_max(cfg: ExperimentConfig) -> float:
    if cfg.rho_max_override is not None:
        return cfg.rho_max_override
    return cfg.panel.model.rho_max


def resolve_level(cfg: ExperimentConfig) -> tuple[float, float, float]:
    """The operative levels of a run: (t-level, R-level, gamma).

    gamma comes from the maximal pairwise correlation (the model's, or an
    explicit override); the t-level from the level policy; the R-level is
    the exact level map of the t-level unless ``s_level`` overrides it.
    """
    gamma = dependence_summary(_effective_rho_max(cfg)).gamma
    if cfg.level_policy == "explicit":
        t = float(cfg.level_t)
    elif cfg.level_policy == "ma-refined":
        t = threshold_regime(cfg.panel.p, cfg.eta, gamma, variant="moving-average").t_refined
    else:
        t = threshold_regime(cfg.panel.p, cfg.eta, gamma).t_min
    s = cfg.s_level if cfg.s_level is not None else stu.t_level_to_r_level(t, cfg.panel.n)
    return t, float(s), gamma


def validate_config(cfg: ExperimentConfig) -> list[str]:
    """Soft regime diagnostics (run() separately enforces the hard errors).

    Checks every proxy it can: the log p = o(n) regime (warn when
    log(p)/n exceeds 0.5), kappa <= log p for the
    moving-average generalization and correlation constraints.
    """
    notes: list[str] = []
    try:
        cfg.validate()
    except ValueError as exc:
        notes.append(f"error: {exc}")
        return notes
    p, n = cfg.panel.p, cfg.panel.n
    ratio = math.log(p) / n
    if ratio > _LOGP_N_RATIO_MAX:
        notes.append(
            f"warning: log(p)/n = {ratio:.3g} exceeds {_LOGP_N_RATIO_MAX:g}; "
            "the sample-size regime (log p small against n) is violated"
        )
    model = cfg.panel.model
    if model.kind == "moving-average" and model.kappa > math.log(p):
        notes.append(
            f"warning: kappa = {model.kappa} exceeds log(p) = {math.log(p):.3g}; "
            "the moving-average window outgrows the admissible range"
        )
    return notes


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _json_cell(v):
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v)
    return v


def _fmt_cell(v) -> str:
    v = _json_cell(v)
    return str(int(v)) if isinstance(v, bool) else str(v)


def _write_table(path: Path, schema: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema: {schema}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt_cell(v) for v in row) + "\n")


def _write_json(path: Path, obj) -> Path:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return path


def _write_json_table(path: Path, schema: str, header: list[str], rows: list[list]) -> None:
    _write_json(path, {
        "schema_version": schema,
        "rows": [dict(zip(header, [_json_cell(v) for v in row])) for row in rows],
    })


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Replicated experiment workers (top level: must pickle for worker pools)
# ---------------------------------------------------------------------------


def _map_records(cfg: ExperimentConfig, worker) -> list:
    """The records of ``worker`` over all replicates, in replicate order."""
    parts = pg.map_replicates(worker, cfg.reps, cfg.jobs, cfg)
    return [rec for part in parts for rec in part]


def _block_scheme_for(cfg: ExperimentConfig, r_level: float) -> xc.BlockScheme:
    if cfg.block_ell is not None:
        return xc.block_scheme(cfg.panel.p, cfg.panel.model.kappa, ell=cfg.block_ell)
    return xc.block_scheme(cfg.panel.p, cfg.panel.model.kappa, s=r_level)


def _studentized_replicates(cfg: ExperimentConfig, start: int, stop: int,
                            u_min: float = -math.inf):
    """Yield (rep, StudentizedRows) for replicates start..stop-1 in order.

    A few replicates are drawn at a time, so that the working arrays of
    :func:`panelgen.row_sums` stay within the size of one p x n panel.
    With a ``u_min`` from :func:`panelgen.level_cut`, the rows that the
    cut skips (sum2 NaN) take T = R = -inf: each stays below the level but
    with a chance of at most delta.
    """
    spec = cfg.panel
    batch = max(1, min(64, spec.n // 4))
    for lo in range(start, stop, batch):
        reps = range(lo, min(lo + batch, stop))
        sum1, sum2 = pg.panel_sums(spec, reps, u_min)
        for k, rep in enumerate(reps):
            drawn = ~np.isnan(sum2[k])
            rows = stu.studentize_sums(sum1[k][drawn], sum2[k][drawn], spec.n)
            t, r = np.full((2, spec.p), -np.inf)
            t[drawn], r[drawn] = rows.t, rows.r
            yield rep, stu.StudentizedRows(t=t, r=r)


# One row of cluster.csv; its fields are the table header.
ClusterRecord = namedtuple("ClusterRecord", [
    "replicate", *xc.ClusterStats.CSV_FIELDS, "any_exceedance", "within_kappa_cluster",
])


def _cluster_worker(cfg: ExperimentConfig, start: int, stop: int) -> list[ClusterRecord]:
    t_level, r_level, _ = resolve_level(cfg)
    kappa = cfg.panel.model.kappa
    scheme = _block_scheme_for(cfg, r_level)
    u_min, _ = pg.level_cut(cfg.panel, t_level)
    records = []
    for rep, rows in _studentized_replicates(cfg, start, stop, u_min):
        exc = xc.extract(rows.t, t_level)
        cs = xc.cluster_stats(exc, scheme)
        within = cs.total >= 2 and 0 < cs.min_gap <= kappa
        records.append(
            ClusterRecord(rep, *cs.to_csv_row(), int(cs.total >= 1), int(within))
        )
    return records


def _mtc_worker(cfg: ExperimentConfig, start: int, stop: int) -> list[tuple]:
    t_level, _, _ = resolve_level(cfg)
    decider = mtc.TailDecider(mtc.StudentizedNormalMarginal(cfg.panel.n),
                              cfg.bh_q, cfg.fwer_a)
    nonnull = np.zeros(cfg.panel.p, dtype=bool)
    nonnull[cfg.panel.nonnull_rows() - 1] = True
    records = []
    for rep, rows in _studentized_replicates(cfg, start, stop):
        reports = (
            *decider.decide(rows.t, nonnull),
            mtc.single_threshold(rows.t, t_level, nonnull=nonnull),
        )
        records.extend((rep, rpt.kind, rpt.nominal, *rpt.outcome) for rpt in reports)
    return records


# ---------------------------------------------------------------------------
# Experiment implementations
# ---------------------------------------------------------------------------


def _experiment_calibrate(cfg: ExperimentConfig) -> tuple[list[str], list, dict]:
    t_level, r_level, gamma = resolve_level(cfg)
    summary_dep = dependence_summary(_effective_rho_max(cfg))
    p, n = cfg.panel.p, cfg.panel.n
    q_single = float(student_t_sf(t_level, n - 1))
    phi = phi_bound(t_level, p, gamma).phi_nominal
    p_any = any_exceedence_prob(p, q_single)
    header = ["p", "n", "rho_max", "alpha", "gamma", "eta", "t_min", "t_refined",
              "r_level", "q_single_t", "p_any_independent", "phi_nominal"]
    regime = threshold_regime(
        p, cfg.eta, gamma,
        variant="moving-average" if cfg.panel.model.kind == "moving-average" else "plain",
    )
    rows = [[
        p, n, summary_dep.rho_max, summary_dep.alpha, summary_dep.gamma, cfg.eta,
        regime.t_min, regime.t_refined if regime.t_refined is not None else "",
        r_level, q_single, p_any, phi,
    ]]
    summary = {
        "schema_version": "exceedlab.calibrate.v1",
        "alpha": summary_dep.alpha,
        "gamma": summary_dep.gamma,
        "rho_max": summary_dep.rho_max,
        "eta": cfg.eta,
        "t_min": regime.t_min,
        "t_refined": regime.t_refined,
        "t_level": t_level,
        "r_level": r_level,
        "q_single_t": q_single,
        "p_any_independent": p_any,
        "phi_nominal": phi,
    }
    return header, rows, summary


def _experiment_paper_table(cfg: ExperimentConfig) -> tuple[list[str], list, dict]:
    n = cfg.panel.n
    # Default calibration for this table is the empirically motivated
    # rho_max = 0.1 (gamma = 1.225) unless explicitly overridden.
    rho_max = cfg.rho_max_override if cfg.rho_max_override is not None else 0.1
    gamma = dependence_summary(rho_max).gamma
    q0 = 1.0 / cfg.p0
    t = float(student_t_isf(q0, n - 1))
    header = ["p", "t", "q_single", "p_any_exceedence", "phi_nominal", "ratio"]
    rows = []
    for p in cfg.p_list:
        p_any = any_exceedence_prob(p, q0)
        phi = phi_bound(t, p, gamma).phi_nominal
        rows.append([p, t, q0, p_any, phi, phi / p_any])
    summary = {
        "schema_version": "exceedlab.paper-table.v1",
        "n": n,
        "gamma": gamma,
        "t": t,
        "rows": [dict(zip(header, [_json_cell(v) for v in row])) for row in rows],
        "note": (
            "ratio = phi_nominal / P(any exceedence); the nominal shape sets "
            "the unknowable exp(o(t^2)) prefactor to 1, so ratios are "
            "indicative upper shapes, not certified bounds (at the largest "
            "test count the computed ratio is on the order of tens of "
            "percent; quoted sub-percent figures are not reproducible from "
            "the nominal shape)"
        ),
    }
    return header, rows, summary


def _experiment_tails(cfg: ExperimentConfig) -> tuple[list[str], list, dict]:
    _, s, gamma = resolve_level(cfg)
    header = ["kind", "i1", "i2", "lag", "rho_lag", "s", "estimate", "se",
              "wilson_low", "wilson_high", "hits", "reps", "exponent", "method",
              "reference"]
    cells = attrgetter("estimate", "se", "wilson_low", "wilson_high", "hits", "reps",
                       "exponent", "method")
    single = xc.tail_probability(cfg.panel, (cfg.row,), s, cfg.reps)
    ref = stu.normal_r_sf(s, cfg.panel.n) if cfg.panel.law.is_gaussian else ""
    rows = [["single", cfg.row, "", 0, "", s, *cells(single), ref]]
    summary = {
        "schema_version": "exceedlab.tails.v2",
        "s": s,
        "gamma": gamma,
        "single": {"estimate": single.estimate, "se": single.se,
                   "exponent": single.exponent, "hits": single.hits},
    }
    if cfg.pair is not None:
        pair = xc.tail_probability(cfg.panel, cfg.pair, s, cfg.reps)
        rows.append(["pair", *cfg.pair, pair.lag, pair.rho_lag, s, *cells(pair),
                     bivariate_normal_tail(s, pair.rho_lag)])
        summary["pair"] = {"estimate": pair.estimate, "se": pair.se,
                           "exponent": pair.exponent, "lag": pair.lag,
                           "rho_lag": pair.rho_lag, "hits": pair.hits}
    return header, rows, summary


def _experiment_coupling(cfg: ExperimentConfig) -> tuple[list[str], list, dict]:
    _, s, _ = resolve_level(cfg)
    scheme = _block_scheme_for(cfg, s)
    est = xc.coupling_estimate(
        cfg.panel, scheme, s, cfg.reps,
        se_cap=cfg.se_cap, match_draws=cfg.match_draws, jobs=cfg.jobs,
    )
    header = ["block", "pi_dependent", "se_dependent", "pi_independent",
              "se_independent", "abs_gap"]
    rows = [
        [j + 1, est.pi[j], est.se_pi[j], est.pi_prime[j], est.se_pi_prime[j],
         abs(est.pi[j] - est.pi_prime[j])]
        for j in range(est.pi.shape[0])
    ]
    summary = {
        "schema_version": "exceedlab.coupling.v3",
        **est.to_json_dict(),
        "sampler": resolve_sampler(cfg),
        "ell": scheme.ell,
    }
    return header, rows, summary


def _experiment_cluster(cfg: ExperimentConfig) -> tuple[list[str], list, dict]:
    t_level, r_level, gamma = resolve_level(cfg)
    records = _map_records(cfg, _cluster_worker)

    reps = cfg.reps
    any_hits = sum(rec.any_exceedance for rec in records)
    within_hits = sum(rec.within_kappa_cluster for rec in records)
    f_holds = sum(rec.event_f for rec in records)
    counts: dict[str, int] = {}
    for rec in records:
        counts[str(rec.total)] = counts.get(str(rec.total), 0) + 1
    n = cfg.panel.n
    q_exact = None
    if cfg.panel.law.is_gaussian:
        q_exact = float(mtc.StudentizedNormalMarginal(n).sf(t_level))
    q_t = float(student_t_sf(t_level, n - 1))
    phi = phi_bound(t_level, cfg.panel.p, gamma).phi_nominal
    sampler = resolve_sampler(cfg)
    p_any = any_hits / reps
    p_ref = any_exceedence_prob(cfg.panel.p, q_exact if q_exact is not None else q_t)
    se_any = math.sqrt(max(p_any * (1.0 - p_any), 1.0 / reps) / reps)
    cut = None
    if sampler == "sufficiency-v2-cut":
        _, delta = pg.level_cut(cfg.panel, t_level)
        cut = {"delta": delta, "tv_per_replicate": cfg.panel.p * delta,
               "tv_bound": reps * cfg.panel.p * delta}
    summary = {
        "schema_version": "exceedlab.cluster.v2",
        "sampler": sampler,
        "replicates": reps,
        "t_level": t_level,
        "r_level": r_level,
        "gamma": gamma,
        "phi_nominal": phi,
        "p_any_gap_se": (p_any - p_ref) / se_any,
        "q_single_exact_normal": q_exact,
        "q_single_t_approx": q_t,
        "p_any_empirical": p_any,
        "p_any_wilson": list(xc.wilson_interval(any_hits, reps)),
        "p_any_independent_ref": p_ref,
        "within_kappa_cluster_fraction": within_hits / reps,
        "event_f_fraction": f_holds / reps,
        "level_cut": cut,
        "count_histogram": counts,
    }
    return list(ClusterRecord._fields), records, summary


def _experiment_mtc(cfg: ExperimentConfig) -> tuple[list[str], list, dict]:
    t_level, _, gamma = resolve_level(cfg)
    records = _map_records(cfg, _mtc_worker)
    records.sort(key=lambda rec: (rec[0], rec[1]))
    header = ["replicate", "procedure", "nominal", "rejections",
              "false_rejections", "fdp"]

    marginal = mtc.StudentizedNormalMarginal(cfg.panel.n)
    summary: dict = {
        "schema_version": "exceedlab.mtc.v1",
        "sampler": resolve_sampler(cfg),
        "marginal": marginal.describe(),
        "replicates": cfg.reps,
        "t_level": t_level,
        "gamma": gamma,
        "procedures": {},
    }
    for kind in ("bh", "stepdown-fwer", "single-threshold"):
        rows_k = [rec for rec in records if rec[1] == kind]
        # operative level: the first-rejection p-value threshold of the
        # procedure, mapped back to a t-level for the phi shape
        if kind == "bh":
            t_op = float(marginal.upper_quantile(cfg.bh_q / cfg.panel.p))
        elif kind == "stepdown-fwer":
            u1 = -math.expm1(math.log1p(-cfg.fwer_a) / cfg.panel.p)
            t_op = float(marginal.upper_quantile(u1))
        else:
            t_op = t_level
        rates = mtc.realized_error_rates(rec[3:] for rec in rows_k)
        summary["procedures"][kind] = {
            "nominal": rows_k[0][2],
            "fwer": rates.fwer,
            "fwer_wilson": list(rates.fwer_wilson),
            "fdr": rates.fdr,
            "fdr_se": rates.fdr_se,
            "mean_rejections": rates.mean_rejections,
            "phi_nominal_at_operative": phi_bound(
                t_op, cfg.panel.p, gamma
            ).phi_nominal if t_op > 0 else None,
        }
    return header, records, summary


# Each kind's experiment: cfg -> (table header, table rows, summary).  The
# summary's schema_version is the table's schema too.
_EXPERIMENTS = {
    "calibrate": _experiment_calibrate,
    "tails": _experiment_tails,
    "coupling": _experiment_coupling,
    "cluster": _experiment_cluster,
    "mtc": _experiment_mtc,
    "paper-table": _experiment_paper_table,
}


# ---------------------------------------------------------------------------
# Manifest and runner
# ---------------------------------------------------------------------------


_MANIFEST_SCHEMAS = ("exceedlab.manifest.v1", "exceedlab.manifest.v2")
# The manifest.json key of each RunManifest field whose name differs.
_MANIFEST_KEYS = {"config_text": "config"}
# What replay needs each of these manifest.json values to be, and a test of it.
_MANIFEST_VALUES = {
    "outputs": ("a list of objects with a string path and sha256",
                lambda value: isinstance(value, list) and all(
                    isinstance(entry, dict) and isinstance(entry.get("path"), str)
                    and isinstance(entry.get("sha256"), str) for entry in value)),
    "config": ("a string", lambda value: isinstance(value, str)),
    "environment": ("an object or null", lambda value: value is None or isinstance(value, dict)),
}


def environment() -> dict:
    """What fixes a run's streams and arithmetic; replay ignores other keys, such as scipy."""
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "bit_generator": type(pg.stream(0).bit_generator).__name__,
        "rademacher": "packed-bytes",  # how +-1 cells are drawn; unrecorded before
        # how row_sums draws: Bartlett blocks of L - 1 new drivers and, for
        # cluster, only the rows that can reach the level; unrecorded before
        # the blocks of L - 1
        "row_sums": "blocks-of-L-1; cluster cut at p*delta = 2^-64",
    }


@dataclass
class RunManifest:
    """Recorded provenance of one run; see module docstring for scope.

    ``environment`` is None for a v1 manifest, which did not record it.
    """

    kind: str
    seed: int
    code_version: str
    config_text: str
    wall_clock_s: float
    timings: dict
    outputs: list[dict]
    environment: dict | None = None
    schema_version: str = _MANIFEST_SCHEMAS[-1]

    def to_json_dict(self) -> dict:
        return {_MANIFEST_KEYS.get(key, key): value for key, value in asdict(self).items()}


def run(cfg: ExperimentConfig, out_dir=None) -> RunManifest:
    """Execute the configured experiment and write outputs plus manifest.

    ``out_dir`` overrides ``cfg.out``; one of them must be set.  Returns
    the manifest (also written as ``manifest.json`` in the output
    directory).
    """
    cfg.validate()
    cfg = replace(cfg, jobs=cfg.jobs if cfg.jobs > 0 else default_jobs())
    out = Path(out_dir if out_dir is not None else (cfg.out or "."))
    out.mkdir(parents=True, exist_ok=True)

    t_start = time.perf_counter()
    header, rows, summary = _EXPERIMENTS[cfg.kind](cfg)
    t_written = time.perf_counter()
    stem = cfg.kind.replace("-", "_")
    table = out / f"{stem}.{cfg.fmt}"
    write_table = _write_json_table if cfg.fmt == "json" else _write_table
    write_table(table, summary["schema_version"], header, rows)
    paths = (table, _write_json(out / f"{stem}_summary.json", summary))
    outputs = [{"path": path.name, "sha256": _sha256(path)} for path in paths]
    timings = {"experiment_s": t_written - t_start,
               "write_s": time.perf_counter() - t_written}

    manifest = RunManifest(
        kind=cfg.kind,
        seed=cfg.panel.seed,
        code_version=_CODE_VERSION,
        config_text=replace(cfg, out=None, jobs=0).to_text(),
        wall_clock_s=time.perf_counter() - t_start,
        timings=timings,
        outputs=outputs,
        environment=environment(),
    )
    _write_json(out / "manifest.json", manifest.to_json_dict())
    return manifest


def load_manifest(path) -> RunManifest:
    """The manifest at ``path``; a v1 manifest, without ``environment``, too.

    Raises ValueError for another schema, for keys missing or unexpected,
    or for a value of ``_MANIFEST_VALUES`` of the wrong shape.
    """
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict) or raw.get("schema_version") not in _MANIFEST_SCHEMAS:
        raise ValueError(f"{path}: unsupported manifest schema")
    fields_by_key = {_MANIFEST_KEYS.get(f.name, f.name): f for f in fields(RunManifest)}
    missing = sorted(key for key, f in fields_by_key.items()
                     if f.default is MISSING and key not in raw)
    unexpected = sorted(raw.keys() - fields_by_key.keys())
    if missing or unexpected:
        raise ValueError(f"{path}: manifest keys missing {missing}, unexpected {unexpected}")
    for key, (shape, fits) in _MANIFEST_VALUES.items():
        if not fits(raw.get(key)):
            raise ValueError(f"{path}: manifest {key} must be {shape}")
    return RunManifest(**{fields_by_key[key].name: value for key, value in raw.items()})


def _environment_line(recorded: dict | None, current: dict) -> str:
    if recorded is None:
        return "ENV not recorded (manifest v1)"
    changed = [f"{key} {recorded.get(key)} -> {value}"
               for key, value in current.items() if recorded.get(key) != value]
    if changed:
        return "ENV changed: " + ", ".join(changed)
    return "ENV same: " + ", ".join(f"{key} {value}" for key, value in current.items())


def replay(manifest_path, work_dir=None, jobs: int | None = None) -> tuple[bool, list[str]]:
    """Re-run a manifest's config and verify the recorded output digests.

    Returns (ok, report lines): first an ``ENV`` line comparing the
    recorded environment with this one, then one line per file.  Only
    the digests decide ``ok``.  The rerun happens in ``work_dir`` (a
    temporary sibling directory by default); parallelism may differ from
    the original run, the outputs may not.
    """
    manifest_path = Path(manifest_path)
    manifest = load_manifest(manifest_path)
    cfg = ExperimentConfig.from_text(manifest.config_text)
    if jobs is not None:
        cfg.jobs = jobs
    if work_dir is None:
        work_dir = manifest_path.parent / "_replay"
    fresh = run(cfg, out_dir=work_dir)
    recorded = {entry["path"]: entry["sha256"] for entry in manifest.outputs}
    produced = {entry["path"]: entry["sha256"] for entry in fresh.outputs}
    report = [_environment_line(manifest.environment, fresh.environment)]
    ok = True
    for name, digest in sorted(recorded.items()):
        new = produced.get(name)
        if new is None:
            ok = False
            report.append(f"MISSING {name}")
        elif new != digest:
            ok = False
            report.append(f"MISMATCH {name}: recorded {digest[:12]} got {new[:12]}")
        else:
            report.append(f"OK {name}")
    for name in sorted(set(produced) - set(recorded)):
        report.append(f"EXTRA {name}")
    return ok, report
