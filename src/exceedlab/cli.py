"""Command line interface: seeded, parallel, manifest-tracked experiments.

Every run subcommand accepts a flat text config (``--config``) plus
overriding flags, executes through :mod:`exceedlab.experiments`, writes
CSV/JSON outputs and a ``manifest.json`` into ``--out``, and prints a
short report.  ``validate`` only prints regime diagnostics; ``replay``
re-runs a manifest and verifies the recorded output digests.
"""

from __future__ import annotations

import argparse
import dataclasses
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
  validate     print regime diagnostics for a configuration (always exit 0)
  replay       re-run a manifest and verify output digests

common flags (after the subcommand):
  --config PATH   flat text config; flags below override its keys
  --p INT         number of tests (panel rows)
  --n INT         group size (panel columns)
  --model NAME    iid | gaussian-kdep | moving-average
  --kappa INT     dependence range (gaussian-kdep, moving-average)
  --rho-max X     maximal lag correlation; for gaussian-kdep without an
                  explicit rho vector, lag m gets rho_max*(kappa-m+1)/kappa
  --law NAME      standard-normal | standardized-pareto |
                  standardized-rademacher | two-point-with-atom
  --eta X         slack in the admissible level floor (default 0.05)
  --level T       explicit t-level (switches the level policy to explicit)
  --reps INT      Monte Carlo replicates
  --seed INT      64-bit seed; (seed, replicate) keys every random stream
  --jobs INT      worker processes (0 = auto; env EXCEEDLAB_JOBS overrides)
  --out DIR       output directory (default runs/<kind>)
  --format F      csv | json for the main table (summaries are JSON)

A flag that the resulting configuration cannot use is an error: --kappa
on the iid model, --pareto-exponent or --atom on a law that takes none.

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


# Every flag's dest is the ExperimentConfig field it sets, except --config
# and the panel flags (--p, --n, --kappa, --model, --law, --pareto-exponent,
# --atom, --seed), which _build_config applies to the panel spec.
def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat text config file")
    sub.add_argument("--p", type=_count, help="number of tests")
    sub.add_argument("--n", type=_count, help="group size")
    sub.add_argument("--kappa", type=int, help="dependence range")
    sub.add_argument("--rho-max", type=float, dest="rho_max_override",
                     help="maximal lag correlation")
    sub.add_argument("--model", choices=pg.MODEL_KINDS)
    sub.add_argument("--law", choices=pg.LAW_KINDS)
    sub.add_argument("--pareto-exponent", type=float, dest="pareto_exponent")
    sub.add_argument("--atom", type=float)
    sub.add_argument("--eta", type=float)
    sub.add_argument("--level", type=float, dest="level_t", help="explicit t-level")
    sub.add_argument("--reps", type=_count)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--jobs", type=int)
    sub.add_argument("--out")
    sub.add_argument("--format", choices=("csv", "json"), dest="fmt")


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
            sub.add_argument("--s", type=float, dest="s_level", help="R-scale level")
        if kind == "tails":
            sub.add_argument("--row", type=int)
            sub.add_argument("--pair", type=_counts, help="i1,i2 row pair")
        if kind == "coupling":
            sub.add_argument("--se-cap", type=float, dest="se_cap")
            sub.add_argument("--match-draws", type=_count, dest="match_draws")
        if kind in ("cluster", "coupling"):
            sub.add_argument("--ell", type=int, dest="block_ell",
                             help="override the large-block length")
        if kind == "mtc":
            sub.add_argument("--q", type=float, dest="bh_q", help="BH FDR level")
            sub.add_argument("--a", type=float, dest="fwer_a",
                             help="step-down FWER level")
        if kind == "paper-table":
            sub.add_argument("--p-list", type=_counts, dest="p_list",
                             help="comma-separated test counts")
            sub.add_argument("--p0", type=_count,
                             help="test count pinning the quantile level")

    sub = subs.add_parser("validate", help="print regime diagnostics")
    _add_common(sub)

    sub = subs.add_parser("replay", help="re-run a manifest, verify digests")
    sub.add_argument("--manifest", required=True)
    sub.add_argument("--work-dir", dest="work_dir")
    sub.add_argument("--jobs", type=int)
    return parser


def _default_rho_vector(rho_max: float, kappa: int) -> tuple[float, ...]:
    return tuple(rho_max * (kappa - m + 1) / kappa for m in range(1, kappa + 1))


def _law(args: argparse.Namespace, law: pg.InnovationLaw) -> pg.InnovationLaw:
    """``law`` after --law, --pareto-exponent and --atom."""
    if args.law is not None and args.law != law.kind:
        law = pg.InnovationLaw(
            args.law,
            tail_exponent=4.0 if args.law == "standardized-pareto" else None,
            atom=0.5 if args.law == "two-point-with-atom" else None,
        )
    for flag, field, value in (("--pareto-exponent", "tail_exponent", args.pareto_exponent),
                               ("--atom", "atom", args.atom)):
        if value is not None:
            if getattr(law, field) is None:
                raise pg.SpecError(f"{flag} does not apply to the {law.kind} law")
            law = dataclasses.replace(law, **{field: value})
    return law


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.config:
        cfg = ExperimentConfig.from_file(args.config)
        cfg.kind = args.command if args.command != "validate" else cfg.kind
    else:
        spec = pg.PanelSpec(
            p=1000, n=100, model=pg.DependenceModel.iid(),
            law=pg.InnovationLaw.normal(),
        )
        kind = args.command if args.command != "validate" else "calibrate"
        cfg = ExperimentConfig(kind=kind, panel=spec)

    spec = cfg.panel
    if args.p is not None:
        spec.p = args.p
    if args.n is not None:
        spec.n = args.n
    if args.seed is not None:
        spec.seed = args.seed
    spec.law = _law(args, spec.law)

    model_kind = args.model or spec.model.kind
    kappa = args.kappa if args.kappa is not None else spec.model.kappa
    rho_max = args.rho_max_override
    if model_kind == "iid" and args.kappa is not None:
        raise pg.SpecError("--kappa does not apply to the iid model")
    if args.model is not None or args.kappa is not None or rho_max is not None:
        if model_kind == "iid":
            spec.model = pg.DependenceModel.iid()
        elif model_kind == "moving-average":
            if kappa < 1:
                raise pg.SpecError("moving-average model needs --kappa >= 1")
            spec.model = pg.DependenceModel.moving_average(kappa)
        else:
            if rho_max is not None:
                if kappa < 1:
                    raise pg.SpecError("gaussian-kdep needs --kappa >= 1")
                spec.model = pg.DependenceModel.gaussian_kdep(
                    _default_rho_vector(rho_max, kappa)
                )
            elif spec.model.kind != "gaussian-kdep":
                raise pg.SpecError(
                    "gaussian-kdep needs --rho-max (or a rho vector in --config)"
                )
            elif args.kappa is not None and args.kappa != spec.model.kappa:
                raise pg.SpecError(
                    "changing kappa for gaussian-kdep needs --rho-max or a "
                    "rho vector in --config"
                )

    for field in dataclasses.fields(ExperimentConfig):
        value = getattr(args, field.name, None)
        if value is not None:
            setattr(cfg, field.name, value)
    if args.level_t is not None:
        cfg.level_policy = "explicit"
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


def _echo_summary(kind: str, out: str) -> None:
    """Print the headline numbers of a finished run to stdout."""
    path = Path(out) / f"{kind.replace('-', '_')}_summary.json"
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
    _echo_summary(kind, out)
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
    except (pg.SpecError, ValueError, OSError) as exc:
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
        cfg.validate()
    except (pg.SpecError, ValueError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2

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
