"""Span tracing around exceedlab's public layer functions.

``Tracer.installed()`` replaces each function in ``LAYERS`` by a wrapper,
in the namespace its callers look it up from, and restores the originals
on exit.  A wrapper records one span (name, start, end, parent, count) per
call; spans stay in memory until ``Tracer.write`` saves them.  Nothing is
patched while the benchmark measures its end-to-end metrics, so those
runs carry no tracing cost.

The traced calls must run in this process: worker processes would record
spans the parent never sees, so a traced run is serial.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from exceedlab import exceedance, experiments, mtc, panelgen, studentize

# (owner, attribute, span name, count of work done by one call or None).
# mtc.student_t_sf is the name mtc's marginals call; numerics' own binding
# is left alone so that only the p-value layer is traced.
LAYERS = (
    (experiments, "run", "experiments.run", None),
    (panelgen, "generate", "panelgen.generate", lambda a, out: out.data.size),
    (panelgen.InnovationLaw, "sample", "panelgen.law_sample", None),
    (studentize, "studentize_panel", "studentize.studentize_panel", None),
    (exceedance, "extract", "exceedance.extract", lambda a, out: len(out)),
    (exceedance, "cluster_stats", "exceedance.cluster_stats", None),
    (exceedance, "coupling_estimate", "exceedance.coupling_estimate", None),
    (exceedance, "simulate_count_match", "exceedance.simulate_count_match", None),
    (mtc, "one_sided_p_values", "mtc.one_sided_p_values", None),
    (mtc, "student_t_sf", "numerics.student_t_sf", lambda a, out: np.size(a[0])),
    (mtc, "bh_fdr", "mtc.bh_fdr", lambda a, out: out.rejected.size),
    (mtc, "stepdown_fwer", "mtc.stepdown_fwer", None),
    (mtc, "single_threshold", "mtc.single_threshold", None),
)

NAME, START, END, PARENT, COUNT = range(5)


class Tracer:
    """Records nested spans; ``spans[i]`` is [name, start, end, parent, count]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, count=None):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                open_.pop()
            if count is not None:
                span[COUNT] = count(args, out)
            return out

        return traced

    @contextmanager
    def installed(self):
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in LAYERS]
        try:
            for owner, attr, name, count in LAYERS:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), count))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, (name, start, end, parent, count) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "count": count}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def bookkeeping_errors(spans: list[list], tol: float = 1e-9) -> list[str]:
    """Span nesting and self-time accounting problems (empty when sound).

    Every span must lie inside its parent, every self time must be
    non-negative, and the self times of a root span's subtree must add up
    to the root's duration.
    """
    errs = []
    selfs = self_times(spans)
    subtree = list(selfs)
    for i in range(len(spans) - 1, -1, -1):  # children always follow their parent
        s = spans[i]
        if s[END] < s[START]:
            errs.append(f"span {i} {s[NAME]} ends before it starts")
        if selfs[i] < -tol:
            errs.append(f"span {i} {s[NAME]} has negative self time {selfs[i]:.3g} s")
        if s[PARENT] >= 0:
            parent = spans[s[PARENT]]
            if s[START] < parent[START] or s[END] > parent[END]:
                errs.append(f"span {i} {s[NAME]} leaves its parent {parent[NAME]}")
            subtree[s[PARENT]] += subtree[i]
        elif abs(subtree[i] - (s[END] - s[START])) > tol * max(1.0, s[END] - s[START]):
            errs.append(f"root span {i} {s[NAME]}: self times sum to {subtree[i]!r} s, "
                        f"the span lasts {s[END] - s[START]!r} s")
    return errs[:10]


def layer_totals(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, summed count."""
    table: dict[str, dict] = {}
    for s, own in zip(spans, self_times(spans)):
        row = table.setdefault(s[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0})
        row["calls"] += 1
        row["total_s"] += s[END] - s[START]
        row["self_s"] += own
        row["count"] += s[COUNT] or 0
    return table
