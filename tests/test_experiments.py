"""Experiment engine and CLI: configs, determinism, manifests, exit codes."""

import configparser
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exceedlab import cli
from exceedlab import experiments as ex
from exceedlab import panelgen as pg


def _cfg(kind="cluster", **kw):
    spec = pg.PanelSpec(
        p=kw.pop("p", 300), n=kw.pop("n", 40),
        model=kw.pop("model", pg.DependenceModel.moving_average(3)),
        law=pg.InnovationLaw.normal(), seed=kw.pop("seed", 11),
    )
    return ex.ExperimentConfig(kind=kind, panel=spec, **kw)


def test_config_text_round_trip():
    cfg = _cfg(kind="mtc", reps=77, eta=0.08, bh_q=0.07, fwer_a=0.03,
               pair=(1, 5), s_level=2.5, block_ell=30)
    back = ex.ExperimentConfig.from_text(cfg.to_text())
    assert back.kind == "mtc" and back.reps == 77
    assert back.eta == 0.08 and back.bh_q == 0.07 and back.fwer_a == 0.03
    assert back.pair == (1, 5) and back.s_level == 2.5
    assert back.block_ell == 30
    assert back.panel.model == cfg.panel.model
    assert back.panel.seed == cfg.panel.seed


def test_config_validation_errors():
    cfg = _cfg(kind="nope")
    with pytest.raises(ValueError):
        cfg.validate()
    cfg = _cfg(level_policy="explicit")
    with pytest.raises(ValueError):
        cfg.validate()
    cfg = _cfg(reps=0)
    with pytest.raises(ValueError):
        cfg.validate()
    for pair in ((2, 2), (1, 2, 3), (1, 301)):
        with pytest.raises(ValueError, match="pair"):
            _cfg(kind="tails", pair=pair).validate()
    # a row of one cell has no variance to studentize by
    with pytest.raises(pg.SpecError, match="group size n"):
        _cfg(n=1).validate()
    # the boundaries the range checks still accept
    _cfg(kind="tails", s_level=0.0, eta=0.0, rho_max_override=0.0).validate()
    _cfg(kind="cluster", s_level=0.0, block_ell=5).validate()  # blocks not from s
    _cfg(kind="coupling", block_ell=300, match_draws=1).validate()  # ell = p


def test_config_sizes_rejected_by_every_kind():
    # every kind's references and levels use n, so per-row sizes would
    # read against the wrong reference
    for kind in ex.EXPERIMENT_KINDS:
        cfg = _cfg(kind=kind, p=3)
        cfg.panel = replace(cfg.panel, sizes=(5, 40, 9))
        with pytest.raises(pg.SpecError, match="sizes"):
            cfg.validate()


def test_resolve_level_policies():
    cfg = _cfg(eta=0.05)
    t, s, gamma = ex.resolve_level(cfg)
    rho_max = cfg.panel.model.rho_max
    want_gamma = 1.0 + 0.25 * (1.0 - rho_max)
    assert gamma == pytest.approx(want_gamma, rel=1e-14)
    want_t = 1.05 * math.sqrt(2.0 * math.log(300) / gamma)
    assert t == pytest.approx(want_t, rel=1e-12)
    assert s == pytest.approx(t / math.sqrt(1 + t * t / 40), rel=1e-12)

    cfg = _cfg(level_policy="explicit", level_t=4.0)
    t, s, _ = ex.resolve_level(cfg)
    assert t == 4.0

    cfg = _cfg(level_policy="ma-refined", eta=0.0)
    t, _, gamma = ex.resolve_level(cfg)
    assert t == pytest.approx(
        math.sqrt(2.0 * (math.log(300) + 3.0 * math.log(math.log(300))) / gamma),
        rel=1e-12,
    )

    cfg = _cfg(rho_max_override=0.1)
    _, _, gamma = ex.resolve_level(cfg)
    assert gamma == 1.225


def test_validate_config_diagnostics():
    cfg = _cfg(p=10**6, n=10, model=pg.DependenceModel.iid())
    notes = ex.validate_config(cfg)
    assert any("log(p)/n" in note for note in notes)
    cfg = _cfg(p=10**6, n=200, model=pg.DependenceModel.moving_average(20))
    notes = ex.validate_config(cfg)
    assert any("kappa" in note for note in notes)
    cfg = _cfg(p=1000, n=200)
    assert ex.validate_config(cfg) == []
    cfg = _cfg(reps=0)
    notes = ex.validate_config(cfg)
    assert notes and notes[0].startswith("error:")


def test_cluster_run_outputs_and_determinism(tmp_path):
    cfg = _cfg(reps=60, eta=0.1, jobs=1)
    m1 = ex.run(cfg, out_dir=tmp_path / "a")
    cfg2 = _cfg(reps=60, eta=0.1, jobs=2)
    ex.run(cfg2, out_dir=tmp_path / "b")
    a = (tmp_path / "a" / "cluster.csv").read_bytes()
    b = (tmp_path / "b" / "cluster.csv").read_bytes()
    assert a == b
    sa = (tmp_path / "a" / "cluster_summary.json").read_bytes()
    sb = (tmp_path / "b" / "cluster_summary.json").read_bytes()
    assert sa == sb
    assert {e["path"] for e in m1.outputs} == {"cluster.csv", "cluster_summary.json"}
    lines = a.decode().splitlines()
    assert lines[0] == "# schema: exceedlab.cluster.v2"
    assert lines[1].split(",")[0] == "replicate"
    assert len(lines) == 2 + 60


def test_cluster_summary_fields(tmp_path):
    cfg = _cfg(reps=80, eta=0.1)
    ex.run(cfg, out_dir=tmp_path)
    summary = json.loads((tmp_path / "cluster_summary.json").read_text())
    assert summary["replicates"] == 80
    assert 0.0 <= summary["p_any_empirical"] <= 1.0
    assert summary["q_single_exact_normal"] is not None
    assert summary["count_histogram"]
    assert summary["phi_nominal"] > 0
    assert summary["schema_version"] == "exceedlab.cluster.v2"
    emp, ref = summary["p_any_empirical"], summary["p_any_independent_ref"]
    se = math.sqrt(max(emp * (1.0 - emp), 1.0 / 80) / 80)
    assert summary["p_any_gap_se"] == pytest.approx((emp - ref) / se, rel=1e-12)
    # the cut's total-variation budget: 2^-64 per replicate
    delta = 2.0 ** -64 / cfg.panel.p
    assert summary["level_cut"] == pytest.approx(
        {"delta": delta, "tv_per_replicate": 2.0 ** -64, "tv_bound": 80 * 2.0 ** -64},
        rel=1e-12)
    # drawn from the cells, no row is skipped
    ex.run(_cfg(reps=5, eta=0.1, n=8, model=pg.DependenceModel.gaussian_kdep((0.2, 0.1))),
           out_dir=tmp_path / "cells")
    summary = json.loads((tmp_path / "cells" / "cluster_summary.json").read_text())
    assert summary["sampler"] == "explicit" and summary["level_cut"] is None


def test_mtc_run_csv_schema(tmp_path):
    cfg = _cfg(kind="mtc", reps=40, eta=0.1)
    ex.run(cfg, out_dir=tmp_path)
    lines = (tmp_path / "mtc.csv").read_text().splitlines()
    assert lines[1] == "replicate,procedure,nominal,rejections,false_rejections,fdp"
    assert len(lines) == 2 + 40 * 3
    summary = json.loads((tmp_path / "mtc_summary.json").read_text())
    assert set(summary["procedures"]) == {"bh", "stepdown-fwer", "single-threshold"}
    for proc in summary["procedures"].values():
        assert 0.0 <= proc["fwer"] <= 1.0


def test_tails_and_coupling_runs(tmp_path):
    cfg = _cfg(kind="tails", p=50, n=36, reps=60_000, s_level=1.5, pair=(1, 2),
               seed=3)
    ex.run(cfg, out_dir=tmp_path / "t")
    summary = json.loads((tmp_path / "t" / "tails_summary.json").read_text())
    assert 0.0 < summary["single"]["estimate"] < 1.0
    assert 0.0 < summary["pair"]["estimate"] < summary["single"]["estimate"]

    cfg = _cfg(kind="coupling", p=120, n=36, reps=700, s_level=1.8, seed=5)
    ex.run(cfg, out_dir=tmp_path / "c")
    summary = json.loads((tmp_path / "c" / "coupling_summary.json").read_text())
    assert summary["lower_bound"] <= 1.0
    assert summary["realized_match"] >= summary["lower_bound"] - 0.1

    cfg = _cfg(kind="coupling", p=120, n=36, reps=700, s_level=1.8, seed=5,
               block_ell=25)
    ex.run(cfg, out_dir=tmp_path / "c2")
    summary = json.loads((tmp_path / "c2" / "coupling_summary.json").read_text())
    assert summary["ell"] == 25


def test_coupling_outputs_do_not_depend_on_jobs(tmp_path):
    panel = pg.PanelSpec(p=150, n=30, model=pg.DependenceModel.moving_average(3),
                         law=pg.InnovationLaw.rademacher(), seed=13)
    outputs = set()
    for jobs in (1, 2, 3):
        cfg = ex.ExperimentConfig(kind="coupling", panel=panel, reps=100, jobs=jobs,
                                  se_cap=0.05, s_level=1.8, match_draws=5000)
        out = tmp_path / f"jobs{jobs}"
        ex.run(cfg, out_dir=out)
        outputs.add(tuple((out / name).read_bytes()
                          for name in ("coupling.csv", "coupling_summary.json")))
    assert len(outputs) == 1


def test_paper_table_run(tmp_path):
    cfg = _cfg(kind="paper-table", n=100, model=pg.DependenceModel.iid())
    cfg.p_list = (10**4, 10**5, 10**6)
    ex.run(cfg, out_dir=tmp_path)
    summary = json.loads((tmp_path / "paper_table_summary.json").read_text())
    assert summary["gamma"] == 1.225
    got = [row["p_any_exceedence"] for row in summary["rows"]]
    assert got[0] == pytest.approx(0.00995, abs=5e-4)
    assert got[1] == pytest.approx(0.09516, abs=5e-4)
    assert got[2] == pytest.approx(0.63212, abs=5e-4)


def test_manifest_and_replay(tmp_path):
    cfg = _cfg(reps=30, eta=0.1)
    out = tmp_path / "run"
    ex.run(cfg, out_dir=out)
    manifest = ex.load_manifest(out / "manifest.json")
    assert manifest.kind == "cluster"
    assert manifest.seed == cfg.panel.seed
    assert all("sha256" in e for e in manifest.outputs)
    ok, report = ex.replay(out / "manifest.json", work_dir=tmp_path / "replay")
    assert ok, report
    # tamper with an output and replay again from the same manifest
    target = out / "cluster.csv"
    target.write_bytes(target.read_bytes() + b"tampered\n")
    ok2, _ = ex.replay(out / "manifest.json", work_dir=tmp_path / "replay2")
    assert ok2  # manifest digests are authoritative, not the tampered file
    bad = json.loads((out / "manifest.json").read_text())
    bad["outputs"][0]["sha256"] = "0" * 64
    (out / "manifest.json").write_text(json.dumps(bad))
    ok3, report3 = ex.replay(out / "manifest.json", work_dir=tmp_path / "replay3")
    assert not ok3
    assert any(line.startswith("MISMATCH") for line in report3)


def test_json_table_format(tmp_path):
    cfg = _cfg(reps=15, eta=0.1, fmt="json")
    ex.run(cfg, out_dir=tmp_path)
    payload = json.loads((tmp_path / "cluster.json").read_text())
    assert len(payload["rows"]) == 15
    assert payload["rows"][0]["replicate"] == 0


# One small config of each kind, for the tests of the single writer.
_SMALL = {
    "calibrate": _cfg(kind="calibrate", jobs=1),
    "paper-table": _cfg(kind="paper-table", jobs=1),
    "tails": _cfg(kind="tails", p=50, n=36, reps=6_000, s_level=1.5, pair=(1, 2), jobs=1),
    "coupling": _cfg(kind="coupling", p=120, n=36, reps=100, se_cap=0.05, s_level=1.8,
                     match_draws=2_000, jobs=1),
    "cluster": _cfg(reps=10, eta=0.1, jobs=1),
    "mtc": _cfg(kind="mtc", reps=5, eta=0.1, jobs=1),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("kind", ex.EXPERIMENT_KINDS)
def test_run_writes_one_table_then_its_summary(kind, fmt, tmp_path):
    manifest = ex.run(replace(_SMALL[kind], fmt=fmt), out_dir=tmp_path)
    stem = kind.replace("-", "_")
    table, summary = f"{stem}.{fmt}", f"{stem}_summary.json"
    assert [entry["path"] for entry in manifest.outputs] == [table, summary]
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
        [table, summary, "manifest.json"])
    schema = json.loads((tmp_path / summary).read_text())["schema_version"]
    text = (tmp_path / table).read_text()
    if fmt == "json":
        assert json.loads(text)["schema_version"] == schema
    else:
        assert text.splitlines()[0] == f"# schema: {schema}"


@pytest.mark.parametrize("kind", ex.EXPERIMENT_KINDS)
def test_experiments_return_their_table_and_write_nothing(kind, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    header, rows, summary = ex._EXPERIMENTS[kind](_SMALL[kind])
    assert list(tmp_path.iterdir()) == []
    assert rows and all(len(row) == len(header) for row in rows)
    assert summary["schema_version"].startswith("exceedlab.")


def test_manifest_json_round_trips_and_names_the_keys_it_refuses(tmp_path):
    out = tmp_path / "run"
    ex.run(_SMALL["calibrate"], out_dir=out)
    path = out / "manifest.json"
    raw = json.loads(path.read_text())
    assert ex.load_manifest(path).to_json_dict() == raw
    del raw["seed"]
    raw["seeds"] = 7
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match=r"missing \['seed'\], unexpected \['seeds'\]"):
        ex.load_manifest(path)


def test_cli_replay_of_a_manifest_without_seed_fails_cleanly(tmp_path, capsys):
    out = tmp_path / "run"
    ex.run(_SMALL["calibrate"], out_dir=out)
    raw = json.loads((out / "manifest.json").read_text())
    del raw["seed"]
    (out / "manifest.json").write_text(json.dumps(raw))
    rc = cli.main(["replay", "--manifest", str(out / "manifest.json"),
                   "--work-dir", str(tmp_path / "w")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("replay failed:") and "seed" in err


@pytest.mark.parametrize("key, value", [("outputs", [{"sha256": "x"}]), ("outputs", "abc"),
                                        ("config", 3), ("environment", [])])
def test_cli_replay_of_a_malformed_manifest_value_fails_before_the_rerun(key, value, tmp_path,
                                                                          capsys):
    out = tmp_path / "run"
    ex.run(_SMALL["calibrate"], out_dir=out)
    raw = json.loads((out / "manifest.json").read_text())
    raw[key] = value
    (out / "manifest.json").write_text(json.dumps(raw))
    rc = cli.main(["replay", "--manifest", str(out / "manifest.json"),
                   "--work-dir", str(tmp_path / "w")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("replay failed:") and f"manifest {key} must be" in err
    assert not (tmp_path / "w").exists()


def _run_python(args, tmp_path):
    """Run this interpreter on ``args`` in ``tmp_path`` with the package on its path."""
    import os
    import subprocess
    import sys

    root = Path(ex.__file__).resolve().parents[2]
    env = {**os.environ, "TMPDIR": str(tmp_path), "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True)


# what a host without scipy sees: any import of it fails
_NO_SCIPY = "import sys; sys.modules['scipy'] = None; "


# every demo: the filter weights, student_t_quantile, the tail estimator,
# the block counts, the coupling bound, both marginals and the runner
@pytest.mark.parametrize("demo", ["01_panel_models", "02_threshold_calculus",
                                  "03_tail_probabilities", "04_blocks_and_clusters",
                                  "05_coupling_bound", "06_multiple_testing",
                                  "07_experiment_runner"])
def test_demo_exits_0_under_runtime_warnings_as_errors(demo, tmp_path):
    root = Path(ex.__file__).resolve().parents[2]
    path = str(root / "demos" / f"{demo}.py")
    done = _run_python(["-W", "error::RuntimeWarning", "-c",
                        _NO_SCIPY + f"import runpy; runpy.run_path({path!r}, run_name='__main__')"],
                       tmp_path)
    assert done.returncode == 0, done.stderr
    assert not list(tmp_path.glob("exceedlab_demo_*"))
    if demo == "07_experiment_runner":
        assert "replay verdict: outputs reproduced" in done.stdout


def test_import_loads_no_heavy_scipy_module(tmp_path):
    # numpy is the only runtime dependency, so no scipy module loads at all;
    # numpy.polynomial (~2 MB with its Gauss-Legendre solve) loads only when a
    # bivariate tail is computed
    done = _run_python(["-c", "import sys, exceedlab; print([m for m in sys.modules if "
                              "m.split('.')[0] == 'scipy' or m == 'numpy.polynomial'])"],
                       tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_every_kind_and_replay_run_without_scipy(tmp_path):
    small = ["--p", "200", "--n", "30", "--model", "moving-average", "--kappa", "2",
             "--seed", "9"]
    runs = {
        "calibrate": ["--p", "1e6", "--n", "100", "--rho-max", "0.1"],
        "paper-table": ["--n", "100"],
        "tails": ["--p", "20", "--n", "30", "--s", "1.5", "--pair", "1,2", "--reps", "20000"],
        "coupling": [*small, "--reps", "100", "--se-cap", "0.05", "--match-draws", "20000"],
        "cluster": [*small, "--reps", "20", "--eta", "0.1"],
        "mtc": [*small, "--reps", "5", "--eta", "0.1"],
    }
    code = _NO_SCIPY + "from exceedlab import cli\n"
    for kind, args in runs.items():
        code += f"assert cli.main({[kind, *args, '--out', kind]!r}) == 0, {kind!r}\n"
        code += (f"assert cli.main(['replay', '--manifest', '{kind}/manifest.json', "
                 f"'--work-dir', '{kind}-replay']) == 0, {kind!r}\n")
    done = _run_python(["-W", "error::RuntimeWarning", "-c", code], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("reproduced") == len(runs)
    assert (tmp_path / "tails" / "tails.csv").read_text().count("\npair,") == 1


def test_default_jobs_env(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("EXCEEDLAB_JOBS", "7")
    assert ex.default_jobs() == 7
    monkeypatch.setenv("EXCEEDLAB_JOBS", "two")
    with pytest.raises(pg.SpecError, match="EXCEEDLAB_JOBS"):
        ex.default_jobs()
    assert cli.main(["calibrate", "--out", str(tmp_path / "o")]) == 2
    assert "EXCEEDLAB_JOBS" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    monkeypatch.delenv("EXCEEDLAB_JOBS")
    assert ex.default_jobs() >= 1


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_calibrate(tmp_path, capsys):
    rc = cli.main([
        "calibrate", "--rho-max", "0.1", "--p", "1e6", "--n", "100",
        "--eta", "0.0", "--out", str(tmp_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "alpha = 0.225" in out
    assert "gamma = 1.225" in out
    assert "t_min = 4.74931" in out
    summary = json.loads((tmp_path / "calibrate_summary.json").read_text())
    assert summary["alpha"] == 0.225
    assert summary["gamma"] == 1.225
    assert summary["t_min"] == pytest.approx(4.7493, abs=1e-4)


def test_cli_paper_table_prints_rows(tmp_path, capsys):
    rc = cli.main(["paper-table", "--n", "100", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "P(any exceedence)=0.00995" in out
    assert "P(any exceedence)=0.63212" in out


def test_cli_validate_warns(capsys):
    rc = cli.main(["validate", "--p", "1e6", "--n", "10"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "log(p)/n" in out


def test_cli_validate_clean(capsys):
    rc = cli.main(["validate", "--p", "1000", "--n", "200"])
    assert rc == 0
    assert "satisfies" in capsys.readouterr().out


def test_cli_invalid_config_exit_code(tmp_path, capsys):
    rc = cli.main([
        "cluster", "--model", "gaussian-kdep", "--kappa", "2",
        "--rho-max", "1.5", "--out", str(tmp_path),
    ])
    assert rc == 2
    assert "invalid configuration" in capsys.readouterr().err


def test_cli_kappa_change_needs_rho(tmp_path, capsys):
    cfg = _cfg(kind="cluster", reps=5,
               model=pg.DependenceModel.gaussian_kdep((0.1, 0.05)))
    path = tmp_path / "exp.ini"
    path.write_text(cfg.to_text())
    rc = cli.main([
        "cluster", "--config", str(path), "--kappa", "7",
        "--out", str(tmp_path / "o"),
    ])
    assert rc == 2
    assert "kappa" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["calibrate", "--kappa", "5"], "--kappa"),
    (["calibrate", "--pareto-exponent", "5"], "--pareto-exponent"),
    (["calibrate", "--law", "standardized-rademacher", "--atom", "0.3"], "--atom"),
    (["tails", "--model", "iid", "--kappa", "2"], "--kappa"),
])
def test_cli_flag_the_configuration_cannot_use_exits_2(argv, flag, tmp_path, capsys):
    # the flag sets its [panel] key, which the model or law refuses
    key = flag.removeprefix("--").replace("-", "_")
    assert cli.main([*argv, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"invalid configuration: [panel] {key}: ")
    assert not (tmp_path / "o").exists()


def test_cli_law_flags_apply_to_the_config_law(tmp_path):
    for law, flags, field, want in (
        (pg.InnovationLaw.pareto(4.0), ["--pareto-exponent", "9"], "tail_exponent", 9.0),
        (pg.InnovationLaw.pareto(7.0), ["--law", "standardized-pareto"], "tail_exponent", 7.0),
        (pg.InnovationLaw.two_point(0.5), ["--atom", "0.2"], "atom", 0.2),
    ):
        cfg = _cfg(kind="tails", model=pg.DependenceModel.moving_average(2))
        cfg.panel = replace(cfg.panel, law=law)
        path = tmp_path / "exp.ini"
        path.write_text(cfg.to_text())
        args = cli.build_parser().parse_args(["tails", "--config", str(path), *flags])
        assert getattr(cli._build_config(args).panel.law, field) == want


_KDEP_INI = ("[experiment]\nkind = mtc\n[panel]\np = 2000\nn = 400\n"
             "model = gaussian-kdep\nrho = 0.1, 0.08, 0.06\n")
_PARETO_INI = ("[experiment]\nkind = tails\n[panel]\np = 500\nn = 50\nmodel = moving-average\n"
               "kappa = 3\nlaw = standardized-pareto\npareto_exponent = 5\n")
_RHO5 = "0.1, 0.08, 0.06000000000000001, 0.04, 0.02"


# Each case's config text, as the keys that differ from the CLI's default
# config, recorded when the CLI still built the panel itself.
@pytest.mark.parametrize("argv, want", [
    (["calibrate", "--level", "4.5"],
     {"experiment.out": "runs/calibrate", "level.policy": "explicit", "level.t": "4.5"}),
    (["mtc", "--config", "{kdep}", "--rho-max", "0.15"],
     {"experiment.kind": "mtc", "experiment.out": "runs/mtc", "level.rho_max": "0.15",
      "panel.p": "2000", "panel.n": "400", "panel.model": "gaussian-kdep", "panel.kappa": "3",
      "panel.rho": "0.15, 0.09999999999999999, 0.049999999999999996"}),
    (["mtc", "--config", "{kdep}", "--kappa", "5", "--rho-max", "0.1"],
     {"experiment.kind": "mtc", "experiment.out": "runs/mtc", "level.rho_max": "0.1",
      "panel.p": "2000", "panel.n": "400", "panel.model": "gaussian-kdep", "panel.kappa": "5",
      "panel.rho": _RHO5}),
    (["tails", "--config", "{pareto}", "--law", "two-point-with-atom"],
     {"experiment.kind": "tails", "experiment.out": "runs/tails", "panel.p": "500",
      "panel.n": "50", "panel.model": "moving-average", "panel.law": "two-point-with-atom",
      "panel.kappa": "3", "panel.atom": "0.5"}),
    (["tails", "--config", "{pareto}", "--law", "standardized-pareto"],
     {"experiment.kind": "tails", "experiment.out": "runs/tails", "panel.p": "500",
      "panel.n": "50", "panel.model": "moving-average", "panel.law": "standardized-pareto",
      "panel.kappa": "3", "panel.pareto_exponent": "5.0"}),
    (["tails", "--law", "standardized-pareto"],
     {"experiment.kind": "tails", "experiment.out": "runs/tails",
      "panel.law": "standardized-pareto", "panel.pareto_exponent": "4.0"}),
    (["tails", "--law", "standardized-pareto", "--pareto-exponent", "6"],
     {"experiment.kind": "tails", "experiment.out": "runs/tails",
      "panel.law": "standardized-pareto", "panel.pareto_exponent": "6.0"}),
    (["tails", "--config", "{pareto}", "--model", "iid"],
     {"experiment.kind": "tails", "experiment.out": "runs/tails", "panel.p": "500",
      "panel.n": "50", "panel.law": "standardized-pareto", "panel.pareto_exponent": "5.0"}),
    (["mtc", "--config", "{kdep}", "--model", "moving-average"],
     {"experiment.kind": "mtc", "experiment.out": "runs/mtc", "panel.p": "2000",
      "panel.n": "400", "panel.model": "moving-average", "panel.kappa": "3"}),
    (["validate", "--config", "{kdep}", "--p", "1e4"],
     {"experiment.kind": "mtc", "experiment.out": "runs/mtc", "panel.p": "10000",
      "panel.n": "400", "panel.model": "gaussian-kdep", "panel.kappa": "3",
      "panel.rho": "0.1, 0.08, 0.06"}),
    # the README's examples
    (["calibrate", "--rho-max", "0.1", "--p", "1e6", "--n", "100", "--eta", "0.064",
      "--out", "runs/cal"],
     {"experiment.out": "runs/cal", "level.eta": "0.064", "level.rho_max": "0.1",
      "panel.p": "1000000"}),
    (["cluster", "--p", "10000", "--n", "200", "--model", "gaussian-kdep", "--kappa", "5",
      "--rho-max", "0.1", "--eta", "0.05", "--reps", "10000", "--seed", "1", "--jobs", "4",
      "--out", "runs/c"],
     {"experiment.kind": "cluster", "experiment.reps": "10000", "experiment.jobs": "4",
      "experiment.out": "runs/c", "level.rho_max": "0.1", "panel.p": "10000", "panel.n": "200",
      "panel.model": "gaussian-kdep", "panel.seed": "1", "panel.kappa": "5",
      "panel.rho": _RHO5}),
    (["mtc", "--p", "2000", "--n", "400", "--model", "gaussian-kdep", "--kappa", "5",
      "--rho-max", "0.1", "--q", "0.1", "--a", "0.05", "--reps", "10000", "--out", "runs/m"],
     {"experiment.kind": "mtc", "experiment.reps": "10000", "experiment.out": "runs/m",
      "level.rho_max": "0.1", "panel.p": "2000", "panel.n": "400",
      "panel.model": "gaussian-kdep", "panel.kappa": "5", "panel.rho": _RHO5}),
], ids=lambda v: " ".join(v) if isinstance(v, list) else "")
def test_cli_flag_sugar_builds_the_recorded_config(argv, want, tmp_path):
    def keys(text):
        cp = configparser.ConfigParser(interpolation=None)
        cp.read_string(text)
        return {f"{name}.{key}": value for name in cp.sections() for key, value in cp[name].items()}

    (tmp_path / "kdep.ini").write_text(_KDEP_INI)
    (tmp_path / "pareto.ini").write_text(_PARETO_INI)
    argv = [arg.format(kdep=tmp_path / "kdep.ini", pareto=tmp_path / "pareto.ini")
            for arg in argv]
    cfg = cli._build_config(cli.build_parser().parse_args(argv))
    default = keys(ex.ExperimentConfig.from_text("[panel]\np = 1000\nn = 100\n").to_text())
    assert keys(cfg.to_text()) == {**default, **want}
    assert cfg.out == want["experiment.out"]


def test_cli_entry_point_exits_with_main_status(tmp_path):
    import os
    import subprocess
    import sys

    src = str(Path(ex.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def cli_run(*argv):
        return subprocess.run([sys.executable, "-m", "exceedlab.cli", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True)

    ok = cli_run("validate", "--p", "1000", "--n", "200")
    assert ok.returncode == 0, ok.stderr
    bad = cli_run("calibrate", "--kappa", "5")
    assert bad.returncode == 2
    assert bad.stderr.startswith("invalid configuration: [panel] kappa: ")
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("argv, fields, key", [
    (["coupling", "--se-cap", "0"], {}, "[coupling] se_cap"),
    (["coupling", "--se-cap", "-0.1"], {}, "[coupling] se_cap"),
    (["coupling", "--match-draws", "0"], {}, "[coupling] match_draws"),
    (["cluster", "--eta", "-1"], {}, "[level] eta"),
    (["cluster", "--ell", "1"], {}, "[level] ell"),
    (["coupling", "--ell", "4"], {}, "[level] ell"),  # kappa + 1
    (["coupling", "--p", "200", "--ell", "500"], {}, "[level] ell"),
    (["calibrate", "--rho-max", "1.0"], {}, "[level] rho_max"),
    (["calibrate"], {"rho_max_override": -0.1}, "[level] rho_max"),
    (["tails", "--s", "-0.5"], {}, "[level] s"),
    (["coupling", "--s", "0"], {}, "[level] s"),
    (["cluster"], {"s_level": 0.0}, "[level] s"),
    (["mtc"], {"bh_q": 0.0}, "[mtc] bh_q"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_cli_out_of_range_key_exits_2_before_any_replicate(argv, fields, key, tmp_path, capsys):
    path = tmp_path / "exp.ini"
    path.write_text(_cfg(kind=argv[0], reps=50, **fields).to_text())
    assert cli.main([*argv, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert f"invalid configuration: {key} " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, key", [
    (["calibrate", "--level", "inf"], "[level] t"),
    (["calibrate", "--level", "nan"], "[level] t"),
    (["mtc", "--level", "inf"], "[level] t"),
    (["cluster", "--level", "nan"], "[level] t"),
    (["cluster", "--eta", "inf"], "[level] eta"),
    (["coupling", "--s", "6", "--reps", "700"], "[level] s"),  # sqrt(30) < 6
    (["coupling", "--s", "inf", "--reps", "700"], "[level] s"),
    (["tails", "--s", "6"], "[level] s"),
    (["tails", "--s", "inf"], "[level] s"),
    (["calibrate", "--p", "1"], "[panel] p"),
    (["calibrate", "--p", "1", "--level", "4"], "[panel] p"),
    (["calibrate", "--p", "2", "--model", "moving-average", "--kappa", "1"], "[panel] p"),
    (["cluster", "--p", "1"], "[panel] p"),
    (["mtc", "--p", "1"], "[panel] p"),
    (["tails", "--p", "1"], "[panel] p"),
    (["coupling", "--p", "1", "--reps", "700"], "[panel] p"),
    (["coupling", "--p", "1", "--level", "3", "--reps", "700"], "[panel] p"),
    (["coupling", "--p", "5", "--model", "moving-average", "--kappa", "4", "--level", "3",
      "--reps", "700"], "[panel] p"),  # p < kappa + 2
    (["coupling", "--p", "5", "--model", "moving-average", "--kappa", "3", "--level", "3",
      "--reps", "700"], "[panel] p"),  # the level gives ell = 6
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_cli_level_or_p_that_no_run_can_use_exits_2(argv, key, tmp_path, capsys):
    kind, *flags = argv
    out = tmp_path / "o"
    rc = cli.main([kind, "--p", "300", "--n", "30", "--jobs", "1", *flags, "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"invalid configuration: {key} ")
    assert not out.exists()


def test_validate_reports_a_p_too_small_for_the_run(capsys):
    assert cli.main(["validate", "--p", "1"]) == 0
    assert capsys.readouterr().out.startswith("error: [panel] p must be >= 2 ")


@pytest.mark.parametrize("argv", [
    ["paper-table", "--p", "1"],
    ["cluster", "--p", "1", "--level", "4", "--reps", "5"],
    ["mtc", "--p", "1", "--level", "4", "--reps", "5"],
    ["tails", "--p", "1", "--level", "1", "--reps", "5000"],
    ["cluster", "--p", "2", "--model", "moving-average", "--kappa", "1", "--reps", "5"],
], ids=" ".join)
def test_cli_runs_that_need_no_level_floor_still_run_at_small_p(argv, tmp_path):
    kind, *flags = argv
    assert cli.main([kind, "--n", "30", "--jobs", "1", *flags,
                     "--out", str(tmp_path / "o")]) == 0


def test_gaussian_tails_at_s_0_take_reference_one_half(tmp_path):
    assert cli.main(["tails", "--s", "0", "--p", "10", "--n", "30", "--reps", "5000",
                     "--out", str(tmp_path)]) == 0
    _, header, single = (tmp_path / "tails.csv").read_text().splitlines()
    assert dict(zip(header.split(","), single.split(",")))["reference"] == "0.5"


@pytest.mark.parametrize("kind", ["calibrate", "tails"])
def test_cli_group_size_below_2_exits_2(kind, tmp_path, capsys):
    assert cli.main([kind, "--n", "1", "--out", str(tmp_path / "o")]) == 2
    assert "group size n" in capsys.readouterr().err


def test_cli_guard_exit_code(tmp_path, capsys):
    rc = cli.main([
        "tails", "--p", "100", "--n", "100", "--s", "6.0", "--reps", "1000",
        "--out", str(tmp_path),
    ])
    assert rc == 3
    assert "guard" in capsys.readouterr().err


def test_cli_tails_prints_its_estimates(tmp_path, capsys):
    assert cli.main(["tails", "--p", "20", "--n", "30", "--s", "1.5", "--pair", "1,2",
                     "--reps", "20000", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    summary = json.loads((tmp_path / "tails_summary.json").read_text())
    single, pair = summary["single"], summary["pair"]
    assert (f"  single: estimate={single['estimate']:.6g} se={single['se']:.3g} "
            f"hits={single['hits']}\n") in out
    assert (f"  pair: estimate={pair['estimate']:.6g} se={pair['se']:.3g} "
            f"hits={pair['hits']} lag=1\n") in out
    assert single["hits"] > pair["hits"] > 0


def test_cli_replay_roundtrip(tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli.main([
        "cluster", "--p", "200", "--n", "30", "--model", "moving-average",
        "--kappa", "2", "--reps", "25", "--seed", "9", "--eta", "0.1",
        "--out", str(out),
    ])
    assert rc == 0
    rc = cli.main([
        "replay", "--manifest", str(out / "manifest.json"),
        "--work-dir", str(tmp_path / "w"),
    ])
    assert rc == 0
    assert "reproduced" in capsys.readouterr().out


def test_cli_config_file_with_overrides(tmp_path):
    cfg = _cfg(kind="cluster", reps=20, eta=0.1)
    path = tmp_path / "exp.ini"
    path.write_text(cfg.to_text())
    out = tmp_path / "o"
    rc = cli.main([
        "cluster", "--config", str(path), "--reps", "10", "--out", str(out),
    ])
    assert rc == 0
    lines = (out / "cluster.csv").read_text().splitlines()
    assert len(lines) == 2 + 10


# ---------------------------------------------------------------------------
# Config parsing, samplers, manifest environment
# ---------------------------------------------------------------------------


def test_config_rejects_unknown_keys_and_sections():
    text = _cfg(kind="mtc").to_text()
    cases = [
        (text.replace("bh_q = ", "bhq = "), ["[mtc]", "bhq"]),
        (text.replace("reps = ", "repz = "), ["[experiment]", "repz"]),
        (text + "\n[mtcc]\nbh_q = 0.2\n", ["[mtcc]"]),
    ]
    for bad, words in cases:
        with pytest.raises(pg.SpecError) as err:
            ex.ExperimentConfig.from_text(bad)
        assert all(word in str(err.value) for word in words), err.value


def test_config_naming_weights_file_is_rejected(tmp_path, capsys):
    text = _cfg(kind="cluster", reps=5).to_text().replace(
        "[panel]\n", "[panel]\nweights_file = w.npy\n"
    )
    with pytest.raises(pg.SpecError, match="weights_file"):
        ex.ExperimentConfig.from_text(text)
    path = tmp_path / "exp.ini"
    path.write_text(text)
    rc = cli.main(["cluster", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "weights_file" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_retired_keys_accept_only_their_fixed_value(tmp_path, capsys):
    # every manifest written before the keys were retired carries all four
    text = _cfg(kind="cluster", reps=5).to_text()
    text = text.replace("[experiment]\n", "[experiment]\nsampler = auto\n")
    text = text.replace("[level]\n", "[level]\nloglog_coeff = 3.0\n")
    text = text.replace("[panel]\n", "[panel]\nreplicate = 0\n")
    text += "[validate]\nlogp_n_ratio_max = 0.5\n"
    assert ex.ExperimentConfig.from_text(text) == _cfg(kind="cluster", reps=5)
    for key, old, new in (("sampler", "auto", "explicit"),
                          ("loglog_coeff", "3.0", "4.0"),
                          ("logp_n_ratio_max", "0.5", "0.7"),
                          ("replicate", "0", "7")):
        bad = text.replace(f"{key} = {old}", f"{key} = {new}")
        with pytest.raises(pg.SpecError, match=key):
            ex.ExperimentConfig.from_text(bad)
        path = tmp_path / "exp.ini"
        path.write_text(bad)
        assert cli.main(["cluster", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert key in capsys.readouterr().err


def test_config_values_that_do_not_parse_name_their_key():
    text = _cfg(kind="tails").to_text().replace("row = 1", "row = first")
    with pytest.raises(pg.SpecError, match=r"\[tails\] row"):
        ex.ExperimentConfig.from_text(text)


def test_readme_config_example_round_trips():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme[readme.index("```ini\n[experiment]"):]
    block = block[len("```ini\n"):block.index("```", 3)]
    text = "\n".join(line.split(";")[0].rstrip() for line in block.splitlines())
    cfg = ex.ExperimentConfig.from_text(text)
    cfg.validate()
    assert ex.ExperimentConfig.from_text(cfg.to_text()) == cfg
    # every key the example sets is one a config snapshot writes
    given, written = configparser.ConfigParser(), configparser.ConfigParser()
    given.read_string(text)
    written.read_string(cfg.to_text())
    for section in given.sections():
        assert set(given[section]) <= set(written[section]), section


@pytest.mark.parametrize("kind", ex.EXPERIMENT_KINDS)
def test_config_text_round_trip_every_kind(kind):
    cfg = _cfg(kind=kind, reps=9, pair=(2, 4), s_level=2.0, block_ell=12,
               level_policy="explicit", level_t=3.5, row=3)
    back = ex.ExperimentConfig.from_text(cfg.to_text())
    assert back == cfg
    assert back.to_text() == cfg.to_text()


@st.composite
def _panels(draw):
    model = draw(st.sampled_from(pg.MODEL_KINDS))
    if model == "gaussian-kdep":
        # the lag correlations of a moving average are realizable
        w = draw(st.lists(st.integers(1, 9), min_size=2, max_size=5))
        rho = tuple(sum(a * b for a, b in zip(w, w[m:])) / sum(a * a for a in w)
                    for m in range(1, len(w)))
        dependence, law = pg.DependenceModel.gaussian_kdep(rho), pg.InnovationLaw.normal()
    else:
        dependence = (pg.DependenceModel.iid() if model == "iid"
                      else pg.DependenceModel.moving_average(draw(st.integers(1, 6))))
        law = draw(st.one_of(
            st.just(pg.InnovationLaw.normal()),
            st.builds(pg.InnovationLaw.pareto, st.floats(3.0, 50.0, exclude_min=True)),
            st.just(pg.InnovationLaw.rademacher()),
            st.builds(pg.InnovationLaw.two_point,
                      st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        ))
    p = draw(st.integers(2, 500))
    rows = draw(st.lists(st.integers(1, p), unique=True, max_size=4))
    offsets = tuple((i, draw(st.floats(0.0, 10.0))) for i in rows)
    return pg.PanelSpec(p=p, n=draw(st.integers(2, 300)), model=dependence, law=law,
                        offsets=offsets, seed=draw(st.integers(0, 2 ** 64 - 1)))


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(ex.EXPERIMENT_KINDS), panel=_panels(),
       reps=st.integers(1, 10 ** 6))
def test_config_text_round_trips_and_refuses_keys_its_panel_cannot_use(kind, panel, reps):
    cfg = ex.ExperimentConfig(kind=kind, panel=panel, reps=reps)
    text = cfg.to_text()
    back = ex.ExperimentConfig.from_text(text)
    assert back == cfg
    assert back.to_text() == text
    model, law = panel.model.kind, panel.law.kind
    taken = {"kappa": model != "iid", "rho": model == "gaussian-kdep",
             "pareto_exponent": law == "standardized-pareto",
             "atom": law == "two-point-with-atom"}
    for key, value in (("kappa", "2"), ("rho", "0.5"), ("pareto_exponent", "4.0"),
                       ("atom", "0.5")):
        if not taken[key]:
            bad = text.replace("[panel]\n", f"[panel]\n{key} = {value}\n")
            with pytest.raises(pg.SpecError, match=rf"^\[panel\] {key}: "):
                ex.ExperimentConfig.from_text(bad)
    if model == "gaussian-kdep":
        kappa = panel.model.kappa
        bad = text.replace(f"kappa = {kappa}\n", f"kappa = {kappa + 1}\n")
        with pytest.raises(pg.SpecError, match=r"^\[panel\] kappa: "):
            ex.ExperimentConfig.from_text(bad)


@pytest.mark.parametrize("text, rc", [
    ("p = 40\n[panel]\nn = 30\n", 2),  # a key before any section header
    ("[panel]\np = 40\nn = 30\np = 50\n", 2),  # a key given twice
    ("[experiment]\nout = {tmp}/100%\n[panel]\np = 40\nn = 30\n", 0),  # % is a plain character
], ids=["no-section-header", "duplicate-key", "percent-sign"])
def test_cli_config_text_errors_exit_2_and_percent_is_plain_text(text, rc, tmp_path, capsys):
    path = tmp_path / "exp.ini"
    path.write_text(text.format(tmp=tmp_path))
    assert cli.main(["calibrate", "--config", str(path)]) == rc
    if rc == 2:
        assert capsys.readouterr().err.startswith(
            "invalid configuration: config text does not parse: ")
    else:
        assert (tmp_path / "100%" / "manifest.json").exists()


@pytest.mark.parametrize("fields, key", [
    ({"kind": "nope"}, "[experiment] kind"),
    ({"reps": 0}, "[experiment] reps"),
    ({"jobs": -1}, "[experiment] jobs"),
    ({"fmt": "xml"}, "[experiment] format"),
    ({"level_policy": "nope"}, "[level] policy"),
    ({"level_policy": "ma-refined", "model": pg.DependenceModel.iid()}, "[level] policy"),
    ({"level_policy": "explicit"}, "[level] t"),
    ({"level_policy": "explicit", "level_t": 0.0}, "[level] t"),
    ({"kind": "tails", "row": 0}, "[tails] row"),
    ({"kind": "tails", "pair": (2, 2)}, "[tails] pair"),
    ({"kind": "tails", "pair": (1, 2, 3)}, "[tails] pair"),
    ({"bh_q": 1.0}, "[mtc] bh_q"),
    ({"fwer_a": 0.0}, "[mtc] fwer_a"),
    ({"p_list": (10, 1)}, "[paper-table] p_list"),
    ({"p0": 1}, "[paper-table] p0"),
    ({"kind": "calibrate", "s_level": math.inf}, "[level] s"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_config_errors_name_their_section_and_key(fields, key):
    assert key in {f"[{section}] {name}" for section, name, _, _ in ex._CONFIG_TABLE}
    with pytest.raises(pg.SpecError, match=rf"^{re.escape(key)} "):
        _cfg(**fields).validate()


def test_config_row_range_checked():
    for row in (0, 301):
        with pytest.raises(pg.SpecError, match="row"):
            _cfg(kind="tails", row=row).validate()


def test_sampler_resolution_and_fallback():
    assert ex.resolve_sampler(_cfg()) == "sufficiency-v2-cut"
    assert ex.resolve_sampler(_cfg(kind="mtc")) == "sufficiency-v2"
    kdep = pg.DependenceModel.gaussian_kdep((0.2, 0.1))
    assert ex.resolve_sampler(_cfg(model=kdep, n=9)) == "sufficiency-v2-cut"  # n = L + 6
    explicit = [
        replace(_cfg(), panel=replace(_cfg().panel, law=pg.InnovationLaw.rademacher())),
        _cfg(model=kdep, n=8),  # exact, but slower than the cells
        _cfg(model=kdep, n=4),  # n = 2L - 2
    ]
    for cfg in explicit:
        cfg.validate()
        assert ex.resolve_sampler(cfg) == "explicit"


def test_samplers_tag_their_outputs(tmp_path):
    # the summaries record how the rule drew the panels: n = 8 < L + 6 for
    # the 3 taps of a kappa = 2 gaussian-kdep filter takes the cells
    kdep = pg.DependenceModel.gaussian_kdep((0.2, 0.1))
    cases = (({"model": kdep, "n": 8}, "explicit", "explicit"),
             ({}, "sufficiency-v2-cut", "sufficiency-v2"))
    for spec, *drawn in cases:
        for kind, sampler in zip(("cluster", "mtc"), drawn):
            out = tmp_path / f"{kind}-{sampler}"
            ex.run(_cfg(kind=kind, reps=20, eta=0.1, jobs=1, **spec), out_dir=out)
            summary = json.loads((out / f"{kind}_summary.json").read_text())
            assert summary["sampler"] == sampler


def _studentized_cells(cfg, start, stop, u_min=-math.inf):
    """The cells path that panel_sums replaced: generate, then studentize_panel.

    Every row is drawn, so a cluster worker's level cut ``u_min`` is moot.
    """
    from exceedlab import studentize as stu

    for rep in range(start, stop):
        yield rep, stu.studentize_panel(pg.generate(cfg.panel.with_replicate(rep)))


@pytest.mark.parametrize("model, law, n", [
    (pg.DependenceModel.gaussian_kdep((0.2, 0.1)), pg.InnovationLaw.normal(), 8),
    (pg.DependenceModel.moving_average(3), pg.InnovationLaw.pareto(4.5), 20),
    (pg.DependenceModel.moving_average(2), pg.InnovationLaw.rademacher(), 12),
    (pg.DependenceModel.iid(), pg.InnovationLaw.two_point(0.3), 10),
], ids=["kdep", "ma-pareto", "ma-rademacher", "iid-two-point"])
@pytest.mark.parametrize("kind", ["cluster", "mtc"])
def test_records_from_panel_sums_equal_the_cells(kind, model, law, n, monkeypatch):
    panel = pg.PanelSpec(p=300, n=n, model=model, law=law, seed=17,
                         offsets=((5, 1.5), (100, 2.0), (101, 0.7)))
    cfg = ex.ExperimentConfig(kind=kind, panel=panel, reps=40, eta=0.05, jobs=1)
    assert ex.resolve_sampler(cfg) == "explicit"
    worker = ex._cluster_worker if kind == "cluster" else ex._mtc_worker
    sums = worker(cfg, 0, cfg.reps)
    monkeypatch.setattr(ex, "_studentized_replicates", _studentized_cells)
    cells = worker(cfg, 0, cfg.reps)
    assert sums == cells
    hits = [rec.total for rec in sums] if kind == "cluster" else [rec[3] for rec in sums]
    assert sum(hits) > 0


def _mtc_records_explicit(cfg):
    """The mtc records from p-values of every row, then bh_fdr and stepdown_fwer."""
    from exceedlab import mtc

    t_level, _, _ = ex.resolve_level(cfg)
    marginal = mtc.StudentizedNormalMarginal(cfg.panel.n)
    nonnull = cfg.panel.nonnull_rows()
    records = []
    for rep, rows in ex._studentized_replicates(cfg, 0, cfg.reps):
        pv = mtc.one_sided_p_values(rows, marginal)
        for rpt in (mtc.bh_fdr(pv, cfg.bh_q, nonnull=nonnull),
                    mtc.stepdown_fwer(pv, cfg.fwer_a, nonnull=nonnull),
                    mtc.single_threshold(rows.t, t_level, nonnull=nonnull)):
            records.append((rep, rpt.kind, rpt.nominal, *rpt.outcome))
    return records


@pytest.mark.parametrize("model, law, n, bh_q, fwer_a, p, reps", [
    (pg.DependenceModel.gaussian_kdep((0.3, 0.1)), pg.InnovationLaw.normal(), 12, 0.1, 0.05,
     400, 60),
    # few distinct T on n = 6 cells of +-1: T ties heavily at every level
    (pg.DependenceModel.moving_average(2), pg.InnovationLaw.rademacher(), 6, 0.2, 0.3,
     400, 60),
    # the genomics shape: ~2,200 candidates per replicate, decided in T space
    (pg.DependenceModel.gaussian_kdep((0.1, 0.08, 0.06, 0.04, 0.02)), pg.InnovationLaw.normal(),
     40, 0.1, 0.05, 20_000, 8),
], ids=["gaussian", "rademacher", "genomics"])
def test_mtc_records_equal_the_explicit_decisions(model, law, n, bh_q, fwer_a, p, reps):
    offsets = tuple((i, 1.5) for i in range(1, p, max(37, p // 200)))
    panel = pg.PanelSpec(p=p, n=n, model=model, law=law, seed=23, offsets=offsets)
    cfg = ex.ExperimentConfig(kind="mtc", panel=panel, reps=reps, eta=0.05, jobs=1,
                              bh_q=bh_q, fwer_a=fwer_a)
    fast = ex._mtc_worker(cfg, 0, cfg.reps)
    assert fast == _mtc_records_explicit(cfg)
    rejections = {kind: sum(rec[3] for rec in fast if rec[1] == kind)
                  for kind in ("bh", "stepdown-fwer")}
    assert min(rejections.values()) > 0


def _rademacher_coupling(**kw):
    panel = pg.PanelSpec(p=60, n=20, model=pg.DependenceModel.moving_average(3),
                         law=kw.pop("law", pg.InnovationLaw.rademacher()), seed=13)
    return ex.ExperimentConfig(kind="coupling", panel=panel, reps=100, jobs=1,
                               se_cap=0.05, s_level=1.8, match_draws=1000, **kw)


def test_coupling_tags_how_it_drew_the_panels(tmp_path):
    # Rademacher iid and moving-average panels are studentized from
    # packed-bit row sums, Gaussian ones from row_sums as in mtc, every
    # other law from the cells
    cases = [(pg.InnovationLaw.rademacher(), "packed-sums"),
             (pg.InnovationLaw.normal(), "sufficiency-v2"),
             (pg.InnovationLaw.two_point(0.3), "explicit")]
    for law, drawn in cases:
        cfg = _rademacher_coupling(law=law)
        assert ex.resolve_sampler(cfg) == drawn
        out = tmp_path / law.kind
        ex.run(cfg, out_dir=out)
        summary = json.loads((out / "coupling_summary.json").read_text())
        assert summary["sampler"] == drawn
        assert summary["schema_version"] == "exceedlab.coupling.v3"
        assert (out / "coupling.csv").read_text().startswith("# schema: exceedlab.coupling.v3\n")
    iid = replace(_rademacher_coupling(), panel=replace(
        _rademacher_coupling().panel, model=pg.DependenceModel.iid()))
    assert ex.resolve_sampler(iid) == "packed-sums"
    # below the row-sums crossover a Gaussian panel is drawn from its cells
    short = _rademacher_coupling(law=pg.InnovationLaw.normal())
    short = replace(short, panel=replace(short.panel, n=8))
    assert ex.resolve_sampler(short) == "explicit"


def test_manifest_of_the_unpacked_rademacher_draw_replays_as_a_mismatch(tmp_path, monkeypatch):
    # Rademacher cells drawn one 64-bit integer each, as before the packed draw
    def unpacked(law, rng, shape):
        return rng.integers(0, 2, shape).astype(float) * 2.0 - 1.0

    monkeypatch.setattr(pg.InnovationLaw, "sample", unpacked)
    monkeypatch.setattr(pg, "rademacher_sums_supported", lambda spec: False)
    out = tmp_path / "run"
    ex.run(_rademacher_coupling(), out_dir=out)
    monkeypatch.undo()
    raw = json.loads((out / "manifest.json").read_text())
    del raw["environment"]["rademacher"]  # not recorded before the packed draw
    (out / "manifest.json").write_text(json.dumps(raw))
    ok, report = ex.replay(out / "manifest.json", work_dir=tmp_path / "r")
    assert not ok
    assert report[0] == "ENV changed: rademacher None -> packed-bytes"
    assert any(line.startswith("MISMATCH coupling.csv") for line in report)


def test_manifest_of_the_blocks_of_16_replays_as_a_mismatch(tmp_path, monkeypatch):
    # Gaussian row sums drawn in another order, as the blocks of 16 new
    # drivers before the blocks of L - 1 were: normals and chi-squares of 8
    # blocks at a time, not of all 150
    monkeypatch.setattr(pg, "_SUMS_CHUNK_ROWS", 16)
    out = tmp_path / "run"
    ex.run(_cfg(kind="mtc", reps=10, eta=0.1, jobs=1), out_dir=out)
    monkeypatch.undo()
    raw = json.loads((out / "manifest.json").read_text())
    del raw["environment"]["row_sums"]  # not recorded before the blocks of L - 1
    (out / "manifest.json").write_text(json.dumps(raw))
    ok, report = ex.replay(out / "manifest.json", work_dir=tmp_path / "r")
    assert not ok
    assert report[0] == f"ENV changed: row_sums None -> {ex.environment()['row_sums']}"
    assert any(line.startswith("MISMATCH mtc.csv") for line in report)


@pytest.mark.parametrize("body, key", [
    ("n = 30\n", "p"),
    ("p = 1e3\nn = 30\n", "p"),
    ("p = 40\nn = 30\nmodel = moving-average\n", "kappa"),
], ids=["p-missing", "p-not-an-integer", "kappa-missing"])
def test_panel_keys_that_do_not_parse_name_their_key(body, key, tmp_path, capsys):
    text = "[panel]\n" + body
    with pytest.raises(pg.SpecError, match=rf"^\[panel\] {key}\b"):
        ex.ExperimentConfig.from_text(text)
    path = tmp_path / "exp.ini"
    path.write_text(text)
    assert cli.main(["calibrate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert f"invalid configuration: [panel] {key}" in capsys.readouterr().err


@pytest.mark.parametrize("body, flags, key", [
    ("", ["--p", "0"], "p"),
    ("", ["--n", "0"], "n"),
    ("", ["--n", "1"], "n"),  # a row of one cell has no variance
    ("", ["--seed", "-1"], "seed"),
    ("replicate = -1\n", [], "replicate"),
    ("offsets = 41:0.5\n", [], "offsets"),
    ("offsets = 3:0.5, 3:0.25\n", [], "offsets"),
    ("offsets = 3:-0.5\n", [], "offsets"),
    ("model = banded\n", [], "model"),
    ("model = moving-average\nkappa = 0\n", [], "kappa"),
    ("model = gaussian-kdep\n", [], "rho"),
    ("model = gaussian-kdep\nrho = 0.5, 1.5\n", [], "rho"),
    ("model = gaussian-kdep\nrho = 0.9, 0.9\n", [], "rho"),  # not realizable
    ("law = cauchy\n", [], "law"),
    ("model = gaussian-kdep\nrho = 0.5\nlaw = standardized-rademacher\n", [], "law"),
    ("", ["--law", "standardized-pareto", "--pareto-exponent", "3"], "pareto_exponent"),
    ("", ["--law", "two-point-with-atom", "--atom", "1.5"], "atom"),
    # keys the model or law does not take are refused, not dropped
    ("kappa = 2\n", [], "kappa"),
    ("rho = 0.5\n", [], "rho"),
    ("pareto_exponent = 2\n", [], "pareto_exponent"),
    ("atom = 7\n", [], "atom"),
    ("model = moving-average\nkappa = 2\nrho = 0.9, 0.9\n", [], "rho"),
    ("model = gaussian-kdep\nkappa = 7\nrho = 0.1, 0.05\n", [], "kappa"),
], ids=lambda v: v.strip().replace("\n", "; ") if isinstance(v, str) else " ".join(v))
def test_panel_values_out_of_range_name_their_key(body, flags, key, tmp_path, capsys):
    path = tmp_path / "exp.ini"
    path.write_text("[panel]\np = 40\nn = 30\n" + body)
    argv = ["calibrate", "--config", str(path), *flags, "--out", str(tmp_path / "o")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith(f"invalid configuration: [panel] {key}: ")
    assert not (tmp_path / "o").exists()


def test_mtc_p_values_use_the_exact_studentized_scale(tmp_path):
    from exceedlab import mtc
    from exceedlab import studentize as stu

    n = 40
    marginal = mtc.StudentizedNormalMarginal(n)
    us = np.array([0.3, 1e-3, 5e-5, 5e-6, 1e-6])
    t = marginal.upper_quantile(us)
    # rows with mean t / sqrt(n) and variance 1 have T = t
    rows = stu.studentize_sums(t * math.sqrt(n), n + t * t, n)
    assert np.allclose(rows.t, t, rtol=1e-13)
    assert np.allclose(mtc.one_sided_p_values(rows, marginal), us, rtol=1e-9, atol=0)
    ex.run(_cfg(kind="mtc", reps=5, eta=0.1, jobs=1, n=n), out_dir=tmp_path)
    summary = json.loads((tmp_path / "mtc_summary.json").read_text())
    assert summary["marginal"] == marginal.describe()


def test_manifest_records_environment_and_replay_reports_it(tmp_path, monkeypatch):
    out = tmp_path / "run"
    m = ex.run(_cfg(reps=10, eta=0.1, jobs=1), out_dir=out)
    assert m.environment == ex.environment()
    assert set(m.environment) == {"python", "numpy", "bit_generator", "rademacher", "row_sums"}
    assert m.environment["bit_generator"] == "PCG64"
    assert m.environment["rademacher"] == "packed-bytes"
    assert m.environment["row_sums"] == "blocks-of-L-1; cluster cut at p*delta = 2^-64"
    ok, report = ex.replay(out / "manifest.json", work_dir=tmp_path / "r1")
    assert ok and report[0].startswith("ENV same")

    raw = json.loads((out / "manifest.json").read_text())
    raw["environment"]["numpy"] = "0.0.1"
    (out / "manifest.json").write_text(json.dumps(raw))
    ok, report = ex.replay(out / "manifest.json", work_dir=tmp_path / "r2")
    assert ok, report  # the digests decide; the environment is reported apart
    assert report[0] == f"ENV changed: numpy 0.0.1 -> {np.__version__}"
    assert not any(line.startswith("MISMATCH") for line in report)

    # a v1 manifest: no environment
    raw["schema_version"] = "exceedlab.manifest.v1"
    del raw["environment"]
    (out / "manifest.json").write_text(json.dumps(raw))
    ok, report = ex.replay(out / "manifest.json", work_dir=tmp_path / "r3")
    assert ok and report[0] == "ENV not recorded (manifest v1)"

    # a Gaussian manifest from before the row-sum sampler drew every cell
    monkeypatch.setattr(pg, "row_sums_preferred", lambda spec: False)
    ex.run(_cfg(reps=10, eta=0.1, jobs=1), out_dir=out)
    monkeypatch.undo()
    ok, report = ex.replay(out / "manifest.json", work_dir=tmp_path / "r4")
    assert not ok and any(line.startswith("MISMATCH cluster.csv") for line in report)


def test_manifest_that_records_scipy_still_replays(tmp_path):
    # manifests written while scipy was a dependency carry its version
    out = tmp_path / "run"
    ex.run(_cfg(kind="tails", reps=20_000, s_level=1.5, pair=(1, 2), jobs=1), out_dir=out)
    raw = json.loads((out / "manifest.json").read_text())
    raw["environment"]["scipy"] = "1.17.1"
    (out / "manifest.json").write_text(json.dumps(raw))
    ok, report = ex.replay(out / "manifest.json", work_dir=tmp_path / "r")
    assert ok and report[0].startswith("ENV same") and "scipy" not in report[0]
    assert report[1:] == ["OK tails.csv", "OK tails_summary.json"]


def test_tails_reference_takes_a_lag_correlation_above_0_999(tmp_path):
    # a long moving average: rho at lag 1 is 1999 / 2000 = 0.9995
    cfg = _cfg(kind="tails", p=20, n=30, model=pg.DependenceModel.moving_average(2000),
               reps=5_000, s_level=2.0, pair=(1, 2), jobs=1)
    ex.run(cfg, out_dir=tmp_path)
    _, header, _, pair = (tmp_path / "tails.csv").read_text().splitlines()
    row = dict(zip(header.split(","), pair.split(",")))
    assert float(row["rho_lag"]) == 0.9995
    # the double-integral oracle of the bivariate tail at rho = 0.9995
    assert float(row["reference"]) == pytest.approx(0.0220690852774538, rel=1e-13)
