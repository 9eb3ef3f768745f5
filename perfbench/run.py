#!/usr/bin/env python3
"""exceedlab benchmark: replicate throughput of ``experiments.run``.

Run from the root of a checkout (nothing needs installing; the package is
imported from ``src/``):

    python3 perfbench/run.py --workload cluster-kdep --seed 1 --seconds 20 --trace 0

A run repeats rounds, each one ``experiments.run`` call with the
workload's config at ``jobs = 2`` as the CLI makes it, until ``--seconds``
have passed (the round under way is finished).  Every round's outputs are
checked (see ``checks.py``); the last line of standard output is one JSON
object with ``correct``, ``attempted`` and ``failed`` replicates and the
metrics.  ``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the
per-layer ones: it spends the first 40% of the time on untraced rounds and
the rest on serial rounds traced by ``tracing.py``.  BLAS and OpenMP pools
are held to one thread, so the load is one process and its two workers.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "_runs"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 5  # fresh interpreters timed per run, after one untimed warm-up
UNTRACED_SHARE = 0.4  # of a traced run's time, spent on untraced parallel rounds

END_TO_END_UNITS = {
    "replicates_per_s": "1/s",
    "cpu_ms_per_replicate": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def _usage() -> tuple[float, int]:
    """CPU seconds and minor page faults of this process and its reaped children."""
    both = (resource.getrusage(resource.RUSAGE_SELF),
            resource.getrusage(resource.RUSAGE_CHILDREN))
    return sum(u.ru_utime + u.ru_stime for u in both), sum(u.ru_minflt for u in both)


class Rounds:
    """Runs and records the rounds of one benchmark run."""

    def __init__(self, name: str, seed: int, run_dir: Path):
        self.name, self.seed, self.run_dir = name, seed, run_dir
        self.done: list[dict] = []  # one dict per completed round
        self.started = 0  # rounds begun; round k draws from round_seed(seed, k)
        self.attempted = 0
        self.failed = 0

    def until(self, deadline: float, jobs: int, traced: bool = False) -> None:
        """Run whole rounds until ``deadline``; always at least one."""
        while True:
            self.one(jobs, traced)
            if time.perf_counter() >= deadline:
                return

    def one(self, jobs: int, traced: bool) -> None:
        import checks
        import workloads
        from exceedlab import experiments

        cfg = workloads.config(self.name, self.seed, self.started, jobs=jobs)
        out_dir = self.run_dir / f"round-{self.started}"
        self.started += 1
        self.attempted += cfg.reps
        try:
            (cpu0, faults0), t0 = _usage(), time.perf_counter()
            manifest = experiments.run(cfg, out_dir=out_dir)
            wall = time.perf_counter() - t0
            cpu1, faults1 = _usage()
            outputs = checks.read_outputs(out_dir, cfg.kind)
        except Exception:  # a failed round counts its replicates as failed
            traceback.print_exc()
            self.failed += cfg.reps
            return
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        self.done.append({"cfg": cfg, "outputs": outputs, "reps": cfg.reps, "wall": wall,
                          "cpu": cpu1 - cpu0, "faults": faults1 - faults0,
                          "write_s": manifest.timings["write_s"], "traced": traced})

    def untraced(self) -> list[dict]:
        return [r for r in self.done if not r["traced"]]


def _setup_times(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Import and config seconds from fresh interpreters (warm-up dropped)."""
    imports, configs = [], []
    for i in range(SETUP_PROBES + 1):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), name, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        if Path(probe["module"]).resolve().parent != SRC / "exceedlab":
            raise RuntimeError(f"set-up probe imported exceedlab from {probe['module']}")
        if i > 0:
            imports.append(probe["import_s"])
            configs.append(probe["config_s"])
    return imports, configs


def _layer_metrics(tracer, rounds: Rounds, traced_cpu_s: float, setup) -> dict:
    import tracing

    traced_reps = sum(r["reps"] for r in rounds.done if r["traced"])
    totals = tracing.layer_totals(tracer.spans)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0}

    def per_call(name, key="total_s", scale=1e3):
        row = totals.get(name, empty)
        return row[key] * scale / row["calls"] if row["calls"] else 0.0

    def per_rep(name, key="total_s"):
        return totals.get(name, empty)[key] * 1e3 / traced_reps

    untraced = rounds.untraced()
    cpu_ms = statistics.median(1e3 * r["cpu"] / r["reps"] for r in untraced)
    ms_per_call = ("panelgen.generate", "studentize.studentize_panel", "exceedance.extract",
                   "exceedance.cluster_stats", "exceedance.simulate_count_match",
                   "mtc.one_sided_p_values", "numerics.student_t_sf", "mtc.bh_fdr",
                   "mtc.stepdown_fwer", "mtc.single_threshold")
    metrics = {f"{name}.ms": (per_call(name), "ms/call") for name in ms_per_call}
    metrics.update({
        "panelgen.generate.cells": (per_call("panelgen.generate", "count", 1), "count/call"),
        "panelgen.law_sample.ms": (per_rep("panelgen.law_sample"), "ms/rep"),
        "exceedance.exceedances": (per_call("exceedance.extract", "count", 1), "count/call"),
        "exceedance.coupling_estimate.self_ms":
            (per_rep("exceedance.coupling_estimate", "self_s"), "ms/rep"),
        "numerics.student_t_sf.values":
            (per_call("numerics.student_t_sf", "count", 1), "count/call"),
        "mtc.bh_fdr.rejections": (per_call("mtc.bh_fdr", "count", 1), "count/call"),
        "experiments.run.self_ms": (per_rep("experiments.run", "self_s"), "ms/rep"),
        "experiments.cores_used":
            (statistics.median(r["cpu"] / r["wall"] for r in untraced), "cpu_s/s"),
        "experiments.write_s": (statistics.median(r["write_s"] for r in untraced), "s/run"),
        "experiments.minor_faults":
            (statistics.median(r["faults"] / r["reps"] for r in untraced), "count/rep"),
        "setup.import_s": (statistics.median(setup[0]), "s"),
        "setup.config_s": (statistics.median(setup[1]), "s"),
        "trace.overhead_pct": (100.0 * (1e3 * traced_cpu_s / traced_reps / cpu_ms - 1.0), "%"),
    })
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "exceedlab" / "__init__.py").is_file():
        print(f"perfbench: no exceedlab package under {SRC}; run this from the root "
              "of an exceedlab checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    rounds = Rounds(args.workload, args.seed, RUNS / f"{args.workload}-{os.getpid()}")
    tracer = None
    if args.trace:
        import tracing

        rounds.until(start + UNTRACED_SHARE * args.seconds, workloads.JOBS)
        tracer = tracing.Tracer()
        cpu0 = _usage()[0]
        with tracer.installed():
            rounds.until(start + args.seconds, jobs=1, traced=True)
        traced_cpu_s = _usage()[0] - cpu0
        tracer.write(RUNS / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        rounds.until(start + args.seconds, workloads.JOBS)
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    shutil.rmtree(rounds.run_dir, ignore_errors=True)
    setup = _setup_times(args.workload, args.seed)

    import checks

    errors = []
    for r in rounds.done:
        errors += [f"round seed {r['cfg'].panel.seed}: {e}"
                   for e in checks.check_round(r["cfg"], r["outputs"])]
    if rounds.done:
        for zc in checks.check_pooled(rounds.done[0]["cfg"],
                                      [r["outputs"] for r in rounds.done]):
            print(f"perfbench check: {zc.describe()}", file=sys.stderr)
            if not zc.passed:
                errors.append(f"{zc.describe()} exceeds {checks.Z_LIMIT:g} SE")
    if tracer is not None:
        errors += tracing.bookkeeping_errors(tracer.spans)
    for e in errors:
        print(f"perfbench FAILED CHECK: {e}", file=sys.stderr)

    untraced = rounds.untraced()
    if not untraced or (args.trace and len(untraced) == len(rounds.done)):
        print("perfbench: no round completed in every phase", file=sys.stderr)
        return 1
    if args.trace:
        metrics = _layer_metrics(tracer, rounds, traced_cpu_s, setup)
    else:
        metrics = {
            "replicates_per_s": statistics.median(r["reps"] / r["wall"] for r in untraced),
            "cpu_ms_per_replicate": statistics.median(1e3 * r["cpu"] / r["reps"]
                                                      for r in untraced),
            "peak_rss_mb": peak_kb / 1024.0,
            "setup_s": statistics.median(a + b for a, b in zip(*setup)),
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    result = {
        "correct": not errors,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
