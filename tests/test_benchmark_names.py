"""The benchmark under perfbench/ still runs on the package.

``perfbench/tracing.py`` patches every function of its ``LAYERS`` table in
the namespace that owns it, and ``perfbench/checks.py`` compares config
snapshots field by field and checks every round's outputs.  Deleting or
renaming one of those names breaks a traced run (``--trace 1``); a change
to the config snapshot or to an output field fails every benchmark round.
Nothing else in this suite would notice.  The files are loaded, never
edited.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

from exceedlab import experiments as ex
from exceedlab import panelgen as pg

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_names_the_benchmark_reads_exist():
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in _load("tracing").LAYERS
               if attr not in owner.__dict__]
    assert not missing, f"traced layers the package lacks: {missing}"
    checks = _load("checks")
    panel_fields = {field.name for field in dataclasses.fields(pg.PanelSpec)}
    assert set(checks.PANEL_FIELDS) <= panel_fields, set(checks.PANEL_FIELDS) - panel_fields
    config_fields = {field.name for field in dataclasses.fields(ex.ExperimentConfig)}
    assert set(checks.SNAPSHOT_FIELDS) <= config_fields, (
        set(checks.SNAPSHOT_FIELDS) - config_fields)


@pytest.mark.parametrize("name", _load("workloads").NAMES)
def test_one_benchmark_round_passes_its_checks(name, tmp_path):
    workloads, checks = _load("workloads"), _load("checks")
    cfg = workloads.config(name, 2024, jobs=1)
    ex.run(cfg, out_dir=tmp_path)
    assert checks.check_round(cfg, checks.read_outputs(tmp_path, cfg.kind)) == []
