"""Output checks of the benchmark's rounds.

Every check compares the program's outputs either with a reference
computed apart from the program (scipy, or an exact convolution written
here) or with a property the method must have.  None compares with a
stored copy of earlier output, so every check still holds after a change
of random streams.

``check_round`` checks one round exactly (invariants, summary against
table, closed-form fields, the manifest's config snapshot).
``check_pooled`` makes the Monte Carlo checks over all rounds of a run:
a mean whose exact expectation is known must lie within ``Z_LIMIT``
standard errors of it.  ``check_round`` returns failure messages (none
when the outputs pass), ``check_pooled`` its ``ZCheck`` results.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from exceedlab import exceedance as xc
from exceedlab import experiments as ex

Z_LIMIT = 4.0
MTC_PROCEDURES = ("bh", "single-threshold", "stepdown-fwer")


# ---------------------------------------------------------------------------
# Reading a round's outputs
# ---------------------------------------------------------------------------


def _cell(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def read_table(path: Path) -> list[dict]:
    """Rows of an exceedlab CSV table (after its schema line) as dicts."""
    lines = path.read_text().splitlines()
    if not lines or not lines[0].startswith("# schema:"):
        raise ValueError(f"{path.name}: missing schema line")
    header = lines[1].split(",")
    return [dict(zip(header, (_cell(v) for v in line.split(",")))) for line in lines[2:]]


def read_outputs(out_dir: Path, kind: str) -> dict:
    """The table, summary and manifest one ``experiments.run`` call wrote."""
    return {
        "table": read_table(out_dir / f"{kind}.csv"),
        "summary": json.loads((out_dir / f"{kind}_summary.json").read_text()),
        "manifest": json.loads((out_dir / "manifest.json").read_text()),
    }


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


def exact_tail(t: float, n: int, offset: float = 0.0) -> float:
    """P(T > t) for the divisor-n studentized mean of n iid N(offset, 1).

    T equals sqrt(n / (n - 1)) times a (noncentral) t on n - 1 degrees of
    freedom with noncentrality sqrt(n) * offset.
    """
    # Imported here, not at module level: the benchmark reads outputs
    # while it measures, and scipy.stats would add ~18 MB to the parent
    # and to every worker it forks.
    from scipy import stats

    x = t * math.sqrt((n - 1) / n)
    if offset == 0.0:
        return float(stats.t.sf(x, n - 1))
    return float(stats.nct.sf(x, n - 1, math.sqrt(n) * offset))


def exact_match_probability(pi, pi_prime) -> float:
    """P(N = N') under the shared-uniform construction, by convolution.

    With one uniform per block, both counts step together with
    probability min(pi_j, pi'_j); only the larger side steps with
    probability |pi_j - pi'_j|.  N - N' is then a sum of independent
    {-1, 0, +1} steps, whose law takes O(m^2) to convolve.
    """
    dist = np.ones(1)
    for a, b in zip(np.asarray(pi, float), np.asarray(pi_prime, float)):
        up, down = max(a - b, 0.0), max(b - a, 0.0)
        dist = np.convolve(dist, [down, 1.0 - up - down, up])
    return float(dist[(dist.size - 1) // 2])


def _close(a, b, rel: float = 1e-9, abs_: float = 1e-12) -> bool:
    return a is not None and math.isclose(a, b, rel_tol=rel, abs_tol=abs_)


# ---------------------------------------------------------------------------
# Per-round checks
# ---------------------------------------------------------------------------


SNAPSHOT_FIELDS = ("kind", "reps", "level_policy", "eta", "level_t", "s_level",
                   "rho_max_override", "block_ell", "se_cap", "match_draws", "bh_q",
                   "fwer_a")
PANEL_FIELDS = ("p", "n", "model", "law", "offsets", "sizes", "seed", "replicate")


def check_snapshot(cfg: ex.ExperimentConfig, manifest: dict) -> list[str]:
    """The manifest's config snapshot parses back to the intended fields."""
    parsed = ex.ExperimentConfig.from_text(manifest["config"])
    errs = [f"config snapshot: {name} parses to {getattr(parsed, name)!r}, "
            f"intended {getattr(cfg, name)!r}"
            for name in SNAPSHOT_FIELDS if getattr(parsed, name) != getattr(cfg, name)]
    errs += [f"config snapshot: panel.{name} parses to {getattr(parsed.panel, name)!r}, "
             f"intended {getattr(cfg.panel, name)!r}"
             for name in PANEL_FIELDS
             if getattr(parsed.panel, name) != getattr(cfg.panel, name)]
    if manifest["seed"] != cfg.panel.seed:
        errs.append(f"manifest seed {manifest['seed']} is not the panel seed {cfg.panel.seed}")
    return errs


def _check_replicate_ids(rows: list[dict], reps: int, per_rep: int, name: str) -> list[str]:
    ids = [r["replicate"] for r in rows]
    want = [rep for rep in range(reps) for _ in range(per_rep)]
    if ids != want:
        missing = sorted(set(range(reps)) - set(ids))
        return [f"{name}: {len(ids)} rows for {reps} replicates "
                f"(missing {missing[:5]}, expected {per_rep} row(s) each, in order)"]
    return []


def _row_rules(rows: list[dict], rules, label) -> list[str]:
    """For each (what, test) rule, name the first row that fails it."""
    errs = []
    for what, test in rules:
        bad = next((r for r in rows if not test(r)), None)
        if bad is not None:
            errs.append(f"{label(bad)}: {what}")
    return errs


def _check_cluster(cfg: ex.ExperimentConfig, out: dict) -> list[str]:
    rows, summary = out["table"], out["summary"]
    t_level, _, _ = ex.resolve_level(cfg)
    kappa, p, n, reps = cfg.panel.model.kappa, cfg.panel.p, cfg.panel.n, cfg.reps
    errs = _check_replicate_ids(rows, reps, 1, "cluster.csv")

    def event_f(r):
        return int(r["small_block_exceedances"] == 0 and r["fragment_exceedances"] == 0
                   and r["large_blocks_multi"] == 0)

    def within(r):
        return int(r["total"] >= 2 and 0 < r["min_gap"] <= kappa)

    rules = [
        ("any_exceedance != [total >= 1]",
         lambda r: r["any_exceedance"] == int(r["total"] >= 1)),
        ("event_f disagrees with its block counts", lambda r: r["event_f"] == event_f(r)),
        ("event_f without one hit block per exceedance",
         lambda r: not r["event_f"] or r["large_blocks_hit"] == r["total"]),
        ("large_blocks_hit > total", lambda r: r["large_blocks_hit"] <= r["total"]),
        ("large_blocks_multi > large_blocks_hit",
         lambda r: r["large_blocks_multi"] <= r["large_blocks_hit"]),
        ("max_run_length > total", lambda r: r["max_run_length"] <= r["total"]),
        ("min_gap inconsistent with total",
         lambda r: (r["min_gap"] >= 1) if r["total"] >= 2 else r["min_gap"] == 0),
        ("within_kappa_cluster != [total >= 2 and min_gap <= kappa]",
         lambda r: r["within_kappa_cluster"] == within(r)),
    ]
    errs += _row_rules(rows, rules, lambda r: f"cluster.csv replicate {r['replicate']}")

    k = max(len(rows), 1)
    histogram = Counter(str(r["total"]) for r in rows)
    agree = [
        ("replicates", summary["replicates"], reps),
        ("t_level", summary["t_level"], t_level),
        ("p_any_empirical", summary["p_any_empirical"],
         sum(r["any_exceedance"] for r in rows) / k),
        ("within_kappa_cluster_fraction", summary["within_kappa_cluster_fraction"],
         sum(r["within_kappa_cluster"] for r in rows) / k),
        ("event_f_fraction", summary["event_f_fraction"], sum(r["event_f"] for r in rows) / k),
    ]
    errs += [f"cluster summary {name} = {got!r}, table gives {want!r}"
             for name, got, want in agree if not _close(got, want)]
    if summary["count_histogram"] != dict(histogram):
        errs.append(f"cluster summary count_histogram {summary['count_histogram']} "
                    f"disagrees with the table's {dict(histogram)}")

    q = exact_tail(t_level, n)
    p_any = -math.expm1(p * math.log1p(-q))
    if not _close(summary["q_single_exact_normal"], q):
        errs.append(f"q_single_exact_normal {summary['q_single_exact_normal']!r} != scipy {q!r}")
    if not _close(summary["p_any_independent_ref"], p_any):
        errs.append(f"p_any_independent_ref {summary['p_any_independent_ref']!r} "
                    f"!= scipy {p_any!r}")
    return errs


def _check_mtc(cfg: ex.ExperimentConfig, out: dict) -> list[str]:
    rows, summary = out["table"], out["summary"]
    t_level, _, _ = ex.resolve_level(cfg)
    reps, p = cfg.reps, cfg.panel.p
    n_nonnull = cfg.panel.nonnull_rows().size
    nominal = {"bh": cfg.bh_q, "stepdown-fwer": cfg.fwer_a, "single-threshold": t_level}
    errs = _check_replicate_ids(rows, reps, len(MTC_PROCEDURES), "mtc.csv")
    rules = [
        ("unknown procedure or wrong nominal level",
         lambda r: r["procedure"] in nominal and _close(r["nominal"], nominal[r["procedure"]])),
        ("false rejections outside [0, rejections] or rejections above p",
         lambda r: 0 <= r["false_rejections"] <= r["rejections"] <= p),
        (f"more true rejections than the {n_nonnull} non-null rows",
         lambda r: r["rejections"] - r["false_rejections"] <= n_nonnull),
        ("fdp != false / max(1, rejections)",
         lambda r: _close(r["fdp"], r["false_rejections"] / max(1, r["rejections"]), 0.0, 1e-15)),
    ]
    errs += _row_rules(rows, rules,
                       lambda r: f"mtc.csv replicate {r['replicate']} {r['procedure']}")

    by_rep: dict[int, dict[str, dict]] = {}
    for r in rows:
        by_rep.setdefault(r["replicate"], {})[r["procedure"]] = r
    for rep, procs in sorted(by_rep.items()):
        if sorted(procs) != list(MTC_PROCEDURES):
            errs.append(f"mtc.csv replicate {rep}: procedures {sorted(procs)}")
            break
        if procs["stepdown-fwer"]["rejections"] > procs["bh"]["rejections"]:
            errs.append(f"mtc.csv replicate {rep}: step-down rejects "
                        f"{procs['stepdown-fwer']['rejections']} > BH {procs['bh']['rejections']}")
            break

    if summary["replicates"] != reps:
        errs.append(f"mtc summary replicates {summary['replicates']} != {reps}")
    for kind in MTC_PROCEDURES:
        mine = [r for r in rows if r["procedure"] == kind]
        got = summary["procedures"].get(kind)
        if not mine or got is None:
            errs.append(f"mtc summary or table lacks procedure {kind}")
            continue
        k = len(mine)
        agree = [
            ("mean_rejections", got["mean_rejections"],
             math.fsum(r["rejections"] for r in mine) / k),
            ("fwer", got["fwer"], sum(r["false_rejections"] > 0 for r in mine) / k),
            ("fdr", got["fdr"], math.fsum(r["fdp"] for r in mine) / k),
        ]
        errs += [f"mtc summary {kind} {name} = {g!r}, table gives {w!r}"
                 for name, g, w in agree if not _close(g, w)]
    return errs


def _check_coupling(cfg: ex.ExperimentConfig, out: dict) -> list[str]:
    rows, sm = out["table"], out["summary"]
    _, s, _ = ex.resolve_level(cfg)
    scheme = xc.block_scheme(cfg.panel.p, cfg.panel.model.kappa, s=s)
    pi, pp = np.asarray(sm["pi"], float), np.asarray(sm["pi_prime"], float)
    reps, draws = sm["reps"], sm["match_draws"]
    errs = []
    fields = [("reps", reps, cfg.reps), ("match_draws", draws, cfg.match_draws),
              ("m", sm["m"], scheme.m), ("len(pi)", pi.size, scheme.m),
              ("len(pi_prime)", pp.size, scheme.m), ("table rows", len(rows), scheme.m)]
    errs += [f"coupling {name} = {got!r}, expected {want!r}"
             for name, got, want in fields if got != want]
    if not _close(sm["s"], s):
        errs.append(f"coupling s {sm['s']!r} != resolved level {s!r}")
    if errs:
        return errs
    for name, v in (("pi", pi), ("pi_prime", pp)):
        hits = v * reps
        if np.any((v < 0) | (v > 1)) or not np.allclose(hits, np.round(hits), rtol=0, atol=1e-6):
            errs.append(f"coupling {name} is not a hit fraction of {reps} replicates")
    for name, v, se in (("se_pi", pi, sm["se_pi"]), ("se_pi_prime", pp, sm["se_pi_prime"])):
        if not np.allclose(se, np.sqrt(v * (1 - v) / reps), rtol=1e-12, atol=1e-15):
            errs.append(f"coupling {name} differs from sqrt(pi (1 - pi) / reps)")
    rm = sm["realized_match"]
    if not _close(sm["realized_se"], math.sqrt(rm * (1 - rm) / draws), 1e-12, 1e-15):
        errs.append("coupling realized_se differs from sqrt(f (1 - f) / match_draws)")
    bound = 1.0 - float(np.abs(pi - pp).sum())
    if not _close(sm["lower_bound"], bound):
        errs.append(f"coupling lower_bound {sm['lower_bound']!r} != 1 - sum|pi - pi'| = {bound!r}")
    table = np.array([[r["block"], r["pi_dependent"], r["se_dependent"], r["pi_independent"],
                       r["se_independent"], r["abs_gap"]] for r in rows], dtype=float)
    want = np.column_stack([np.arange(1, pi.size + 1), pi, sm["se_pi"], pp, sm["se_pi_prime"],
                            np.abs(pi - pp)])
    if not np.allclose(table, want, rtol=1e-12, atol=1e-15):
        errs.append("coupling.csv disagrees with the coupling summary")
    return errs


_ROUND_CHECKS = {"cluster": _check_cluster, "mtc": _check_mtc, "coupling": _check_coupling}


def check_round(cfg: ex.ExperimentConfig, out: dict) -> list[str]:
    """Exact checks of one round's outputs against its config."""
    return check_snapshot(cfg, out["manifest"]) + _ROUND_CHECKS[cfg.kind](cfg, out)


# ---------------------------------------------------------------------------
# Pooled Monte Carlo checks
# ---------------------------------------------------------------------------


@dataclass
class ZCheck:
    """A pooled mean against its exact expectation, in standard errors."""

    name: str
    mean: float
    expected: float
    se: float
    count: int

    @property
    def z(self) -> float:
        gap = self.mean - self.expected
        if self.se > 0:
            return gap / self.se
        return 0.0 if gap == 0 else math.copysign(math.inf, gap)

    @property
    def passed(self) -> bool:
        return abs(self.z) <= Z_LIMIT

    def describe(self) -> str:
        return (f"{self.name}: {self.mean:.6g} against {self.expected:.6g} "
                f"(z = {self.z:+.2f}, {self.count} samples)")


def _mean_check(name: str, values, expected: float) -> ZCheck:
    v = np.asarray(values, dtype=float)
    se = float(v.std(ddof=1) / math.sqrt(v.size)) if v.size > 1 else 0.0
    return ZCheck(name, float(v.mean()), expected, se, int(v.size))


def check_pooled(cfg: ex.ExperimentConfig, outs: list[dict]) -> list[ZCheck]:
    """Monte Carlo checks over every round of a run (``cfg`` is any round's)."""
    t_level, _, _ = ex.resolve_level(cfg)
    p, n = cfg.panel.p, cfg.panel.n
    res: list[ZCheck] = []
    if cfg.kind == "cluster":
        totals = [r["total"] for out in outs for r in out["table"]]
        res.append(_mean_check("mean total per replicate", totals,
                                       p * exact_tail(t_level, n)))
    elif cfg.kind == "mtc":
        single = [r for out in outs for r in out["table"] if r["procedure"] == "single-threshold"]
        offsets = [d for _, d in cfg.panel.offsets if d > 0.0]
        p0 = p - len(offsets)
        res.append(_mean_check(
            "single-threshold false rejections", [r["false_rejections"] for r in single],
            p0 * exact_tail(t_level, n)))
        res.append(_mean_check(
            "single-threshold true rejections",
            [r["rejections"] - r["false_rejections"] for r in single],
            math.fsum(exact_tail(t_level, n, d) for d in offsets)))
    else:
        sms = [out["summary"] for out in outs]
        gaps = [sm["realized_match"] - exact_match_probability(sm["pi"], sm["pi_prime"])
                for sm in sms]
        se = math.sqrt(math.fsum(sm["realized_se"] ** 2 for sm in sms))
        # The limit never drops below 1e-9 per round: a round with
        # realized_match 1 reports zero standard error.
        res.append(ZCheck("realized_match minus exact P(N = N'), summed over rounds",
                                  math.fsum(gaps), 0.0, max(se, 1e-9 * len(sms) / Z_LIMIT),
                                  len(sms)))
    return res
