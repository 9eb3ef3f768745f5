"""Span bookkeeping of the benchmark's tracer."""

import math

import pytest

import tracing
import workloads
from exceedlab import experiments as ex
from exceedlab import panelgen as pg


def _busy(seconds):
    import time

    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _accounting(spans):
    selfs = tracing.self_times(spans)
    assert min(selfs) >= 0.0
    for i, span in enumerate(spans):
        kids = [j for j, s in enumerate(spans) if s[tracing.PARENT] == i]
        # self + children == duration, for every span
        assert math.isclose(selfs[i] + sum(spans[j][tracing.END] - spans[j][tracing.START]
                                           for j in kids),
                            span[tracing.END] - span[tracing.START], rel_tol=1e-9, abs_tol=1e-12)
    roots = [i for i, s in enumerate(spans) if s[tracing.PARENT] < 0]
    root_time = sum(spans[i][tracing.END] - spans[i][tracing.START] for i in roots)
    assert math.isclose(sum(selfs), root_time, rel_tol=1e-9)
    assert tracing.bookkeeping_errors(spans) == []


def test_nested_spans_account_for_the_root():
    tr = tracing.Tracer()
    leaf = tr.wrap("leaf", lambda: _busy(0.002), count=lambda a, out: 3)
    mid = tr.wrap("mid", lambda: [leaf() for _ in range(2)] and _busy(0.001))
    root = tr.wrap("root", lambda: (mid(), leaf(), _busy(0.001)))
    root()
    names = [s[tracing.NAME] for s in tr.spans]
    assert names == ["root", "mid", "leaf", "leaf", "leaf"]
    assert [s[tracing.PARENT] for s in tr.spans] == [-1, 0, 1, 1, 0]
    _accounting(tr.spans)
    totals = tracing.layer_totals(tr.spans)
    assert totals["leaf"]["calls"] == 3 and totals["leaf"]["count"] == 9
    assert totals["root"]["self_s"] >= 0.001


def test_a_failing_call_still_closes_its_span():
    tr = tracing.Tracer()

    def boom():
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        tr.wrap("boom", boom)()
    assert tr.spans[0][tracing.END] >= tr.spans[0][tracing.START]
    assert tr._open == []


def test_bookkeeping_flags_a_child_outside_its_parent():
    spans = [["root", 0.0, 1.0, -1, None], ["child", 0.5, 2.0, 0, None]]
    errs = tracing.bookkeeping_errors(spans)
    assert any("leaves its parent" in e for e in errs)
    assert any("negative self time" in e for e in errs)


def test_installed_restores_every_layer():
    before = [owner.__dict__[attr] for owner, attr, _, _ in tracing.LAYERS]
    with tracing.Tracer().installed():
        assert pg.generate is not before[1]
    assert [owner.__dict__[attr] for owner, attr, _, _ in tracing.LAYERS] == before


@pytest.mark.parametrize("kind", ["cluster", "mtc", "coupling"])
def test_traced_run_spans_are_sound(kind, tmp_path):
    if kind == "coupling":
        panel = pg.PanelSpec(p=400, n=60, model=pg.DependenceModel.moving_average(3),
                             law=pg.InnovationLaw.rademacher(), seed=3)
        cfg = ex.ExperimentConfig(kind=kind, panel=panel, reps=100, jobs=1, se_cap=0.05,
                                  match_draws=5000)
        expect = {"exceedance.coupling_estimate", "panelgen.law_sample",
                  "studentize.studentize_panel", "exceedance.simulate_count_match"}
    else:
        offsets = ((7, 1.0),) if kind == "mtc" else ()
        panel = pg.PanelSpec(p=400, n=30, model=pg.DependenceModel.gaussian_kdep(workloads.RHO),
                             law=pg.InnovationLaw.normal(), offsets=offsets, seed=3)
        cfg = ex.ExperimentConfig(kind=kind, panel=panel, reps=20, jobs=1)
        expect = ({"panelgen.generate", "exceedance.extract", "exceedance.cluster_stats"}
                  if kind == "cluster" else
                  {"panelgen.generate", "mtc.one_sided_p_values", "numerics.student_t_sf",
                   "mtc.bh_fdr", "mtc.stepdown_fwer", "mtc.single_threshold"})
    tr = tracing.Tracer()
    with tr.installed():
        ex.run(cfg, out_dir=tmp_path)
    names = {s[tracing.NAME] for s in tr.spans}
    assert expect <= names
    assert tr.spans[0][tracing.NAME] == "experiments.run"
    assert sum(s[tracing.PARENT] < 0 for s in tr.spans) == 1
    _accounting(tr.spans)
    if kind == "coupling":  # innovations are drawn inside the coupling loop
        law = [s for s in tr.spans if s[tracing.NAME] == "panelgen.law_sample"]
        assert len(law) == 2 * cfg.reps
        assert {tr.spans[s[tracing.PARENT]][tracing.NAME] for s in law} == {
            "exceedance.coupling_estimate"}
