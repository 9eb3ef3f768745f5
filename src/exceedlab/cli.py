"""Command line interface: seeded, parallel, manifest-tracked experiments.

Every run subcommand accepts a flat text config (``--config``) plus
overriding flags, executes through :mod:`exceedlab.experiments`, writes
CSV/JSON outputs and a ``manifest.json`` into ``--out``, and prints a
short report.  ``validate`` only prints regime diagnostics; ``replay``
re-runs a manifest and verifies the recorded output digests.
"""

from __future__ import annotations

import argparse
import configparser
import io
import json
import sys
from pathlib import Path

from exceedlab import __version__, experiments, panelgen as pg
from exceedlab.exceedance import InsufficientReplicates
from exceedlab.experiments import ExperimentConfig

_EPILOG = """\
subcommands:
  calibrate    alpha/gamma/threshold/error-bound table for one configuration
  paper-table  analytic any-exceedance table over a grid of test counts
  tails        Monte Carlo single (and pair) upper-tail probabilities
  coupling     per-block hit probabilities and the count-match bound
  cluster      replicated exceedance/cluster statistics on full panels
  mtc          replicated BH / step-down / single-threshold decisions
  validate     print regime diagnostics for a configuration (exit 0 once
               its text and panel are read)
  replay       re-run a manifest and verify output digests

common flags (after the subcommand).  Each flag but --config sets one
config key, which <subcommand> --help shows as its metavar (--p PANEL.P
sets [panel] p; --model, --law and --format set [panel] model, [panel]
law and [experiment] format).  An invalid value is reported under that
[section] key.
  --config PATH   flat text config; the flags override its keys
  --p INT         number of tests (panel rows)
  --n INT         group size (panel columns)
  --model NAME    iid | gaussian-kdep | moving-average
  --kappa INT     dependence range (gaussian-kdep, moving-average)
  --rho-max X     maximal lag correlation
  --law NAME      standard-normal | standardized-pareto |
                  standardized-rademacher | two-point-with-atom
  --eta X         slack in the admissible level floor (default 0.05)
  --level T       explicit t-level
  --reps INT      Monte Carlo replicates
  --seed INT      64-bit seed; (seed, replicate) keys every random stream
  --jobs INT      worker processes (0 = auto; env EXCEEDLAB_JOBS overrides)
  --out DIR       output directory (default runs/<kind>)
  --format F      csv | json for the main table (summaries are JSON)

Four flags also edit other keys:
  --level     sets [level] policy = explicit
  --rho-max   on a gaussian-kdep panel, sets [panel] rho: lag m gets
              rho_max*(kappa-m+1)/kappa
  --law       naming another law, drops the config's pareto_exponent and
              atom; the new law gets pareto_exponent 4.0 or atom 0.5
              unless --pareto-exponent or --atom gives one
  --model     drops the config's keys the new model cannot take: kappa
              for iid, rho for all but gaussian-kdep
A flag that the resulting configuration cannot use is still an error:
--kappa on the iid model, --pareto-exponent or --atom on a law that
takes none.

environment:
  EXCEEDLAB_JOBS  default parallelism when --jobs is 0 or absent

exit status:
  0 success; 2 invalid configuration; 3 infeasible Monte Carlo guard;
  1 any other failure (and replay mismatch).
"""


def _count(text: str) -> int:
    """A whole number, also written as 1e6."""
    value = float(text)
    if not value.is_integer():
        raise ValueError(text)
    return int(value)


def _counts(text: str) -> tuple[int, ...]:
    return tuple(_count(tok) for tok in text.split(","))


# Every flag but --config sets the config key its dest names, as
# "section.key"; _build_config writes the given flags into the config text.
def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat text config file")
    sub.add_argument("--p", type=_count, dest="panel.p", help="number of tests")
    sub.add_argument("--n", type=_count, dest="panel.n", help="group size")
    sub.add_argument("--kappa", type=int, dest="panel.kappa", help="dependence range")
    sub.add_argument("--rho-max", type=float, dest="level.rho_max",
                     help="maximal lag correlation")
    sub.add_argument("--model", choices=pg.MODEL_KINDS, dest="panel.model")
    sub.add_argument("--law", choices=pg.LAW_KINDS, dest="panel.law")
    sub.add_argument("--pareto-exponent", type=float, dest="panel.pareto_exponent")
    sub.add_argument("--atom", type=float, dest="panel.atom")
    sub.add_argument("--eta", type=float, dest="level.eta")
    sub.add_argument("--level", type=float, dest="level.t", help="explicit t-level")
    sub.add_argument("--reps", type=_count, dest="experiment.reps")
    sub.add_argument("--seed", type=int, dest="panel.seed")
    sub.add_argument("--jobs", type=int, dest="experiment.jobs")
    sub.add_argument("--out", dest="experiment.out")
    sub.add_argument("--format", choices=("csv", "json"), dest="experiment.format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exceedlab",
        description=(
            "Monte Carlo laboratory for upper-tail exceedances of highly "
            "multiple studentized tests on dependent panels"
        ),
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    for kind in experiments.EXPERIMENT_KINDS:
        sub = subs.add_parser(kind, help=f"run the {kind} experiment")
        _add_common(sub)
        if kind in ("tails", "coupling"):
            sub.add_argument("--s", type=float, dest="level.s", help="R-scale level")
        if kind == "tails":
            sub.add_argument("--row", type=int, dest="tails.row")
            sub.add_argument("--pair", type=_counts, dest="tails.pair", help="i1,i2 row pair")
        if kind == "coupling":
            sub.add_argument("--se-cap", type=float, dest="coupling.se_cap")
            sub.add_argument("--match-draws", type=_count, dest="coupling.match_draws")
        if kind in ("cluster", "coupling"):
            sub.add_argument("--ell", type=int, dest="level.ell",
                             help="override the large-block length")
        if kind == "mtc":
            sub.add_argument("--q", type=float, dest="mtc.bh_q", help="BH FDR level")
            sub.add_argument("--a", type=float, dest="mtc.fwer_a",
                             help="step-down FWER level")
        if kind == "paper-table":
            sub.add_argument("--p-list", type=_counts, dest="paper-table.p_list",
                             help="comma-separated test counts")
            sub.add_argument("--p0", type=_count, dest="paper-table.p0",
                             help="test count pinning the quantile level")

    sub = subs.add_parser("validate", help="print regime diagnostics")
    _add_common(sub)

    sub = subs.add_parser("replay", help="re-run a manifest, verify digests")
    sub.add_argument("--manifest", required=True)
    sub.add_argument("--work-dir", dest="work_dir")
    sub.add_argument("--jobs", type=int)
    return parser


_DEFAULT_CONFIG = "[panel]\np = 1000\nn = 100\n"


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    """The --config text, or the default panel, with each given flag written
    into its key, read back by :meth:`ExperimentConfig.from_text`.

    A key written as "" reads as left out, so it takes its default.
    """
    text = Path(args.config).read_text() if args.config else _DEFAULT_CONFIG
    base = ExperimentConfig.from_text(text)
    keys = {dest: value for dest, value in vars(args).items()
            if "." in dest and value is not None}
    if args.command != "validate":
        keys["experiment.kind"] = args.command
    if "level.t" in keys:
        keys["level.policy"] = "explicit"
    model = keys.get("panel.model", base.panel.model.kind)
    if "panel.model" in keys:
        if model == "iid":
            keys.setdefault("panel.kappa", "")
        if model != "gaussian-kdep":
            keys["panel.rho"] = ""
    law = keys.get("panel.law", base.panel.law.kind)
    if law != base.panel.law.kind:
        keys.setdefault("panel.pareto_exponent", 4.0 if law == "standardized-pareto" else "")
        keys.setdefault("panel.atom", 0.5 if law == "two-point-with-atom" else "")
    if model == "gaussian-kdep" and "level.rho_max" in keys:
        rho_max = keys["level.rho_max"]
        kappa = keys.get("panel.kappa", base.panel.model.kappa)
        keys["panel.rho"] = tuple(rho_max * (kappa - m + 1) / kappa
                                  for m in range(1, kappa + 1))

    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(base.to_text())
    for dest, value in keys.items():
        section, key = dest.split(".")
        value = ", ".join(map(str, value)) if isinstance(value, tuple) else str(value)
        cp.read_dict({section: {key: value}})
    buf = io.StringIO()
    cp.write(buf)
    cfg = ExperimentConfig.from_text(buf.getvalue())
    if cfg.out is None:
        cfg.out = f"runs/{cfg.kind}"
    return cfg


_ECHO_KEYS = {
    "calibrate": ("alpha", "gamma", "rho_max", "eta", "t_min", "t_refined",
                  "t_level", "q_single_t", "p_any_independent", "phi_nominal"),
    "tails": ("s",),
    "coupling": ("m", "ell", "lower_bound", "realized_match", "realized_se"),
    "cluster": ("replicates", "t_level", "p_any_empirical",
                "p_any_independent_ref", "phi_nominal", "event_f_fraction"),
}


def _echo_summary(kind: str, path: Path) -> None:
    """Print the headline numbers of the run summary at ``path`` to stdout."""
    try:
        summary = json.loads(path.read_text())
    except (OSError, ValueError):
        return
    if kind == "paper-table":
        print(f"  n={summary['n']}  gamma={summary['gamma']}  t={summary['t']:.4f}")
        for row in summary["rows"]:
            print(
                f"  p={row['p']:>9,d}  P(any exceedence)={row['p_any_exceedence']:.5f}"
                f"  phi_nominal={row['phi_nominal']:.5f}  ratio={row['ratio']:.3f}"
            )
        return
    for key in _ECHO_KEYS.get(kind, ()):
        if key in summary and summary[key] is not None:
            value = summary[key]
            print(f"  {key} = {value:.6g}" if isinstance(value, float)
                  else f"  {key} = {value}")
    if kind == "tails":
        for name in ("single", "pair"):
            if name in summary:
                est = summary[name]
                lag = f" lag={est['lag']}" if name == "pair" else ""
                print(f"  {name}: estimate={est['estimate']:.6g} se={est['se']:.3g} "
                      f"hits={est['hits']}{lag}")
    if kind == "mtc":
        for name, proc in summary.get("procedures", {}).items():
            print(f"  {name}: fwer={proc['fwer']:.4f} fdr={proc['fdr']:.4f} "
                  f"mean_rejections={proc['mean_rejections']:.3f}")


def _print_summary(kind: str, manifest: experiments.RunManifest, out: str) -> None:
    print(f"{kind}: wrote {len(manifest.outputs)} files to {out}")
    _echo_summary(kind, Path(out) / manifest.outputs[-1]["path"])
    for entry in manifest.outputs:
        print(f"  {entry['path']}  sha256:{entry['sha256'][:12]}")
    print(f"  manifest.json  (wall clock {manifest.wall_clock_s:.2f}s)")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "replay":
        try:
            ok, report = experiments.replay(
                args.manifest, work_dir=args.work_dir, jobs=args.jobs
            )
        except (OSError, ValueError) as exc:
            print(f"replay failed: {exc}", file=sys.stderr)
            return 1
        for line in report:
            print(line)
        print("replay: outputs reproduced" if ok else "replay: MISMATCH")
        return 0 if ok else 1

    try:
        cfg = _build_config(args)
    except (ValueError, OSError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        notes = experiments.validate_config(cfg)
        if not notes:
            print("configuration satisfies every checkable regime constraint")
        for note in notes:
            print(note)
        return 0

    try:
        manifest = experiments.run(cfg)
    except InsufficientReplicates as exc:
        print(f"infeasible Monte Carlo guard: {exc}", file=sys.stderr)
        return 3
    except pg.SpecError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    _print_summary(cfg.kind, manifest, cfg.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
