"""Spans around corrbinom's public functions, recorded from outside the package.

``Tracer.installed()`` replaces each traced function with a wrapper at
every place a corrbinom module holds it (the defining module and every
module that imported it by name), and puts the originals back on exit.
Each call becomes one span (name, start, end, parent span, run id) plus
the counts read from its arguments and result.  Spans stay in memory
until the run ends; ``per_layer`` then derives self times and counts.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
import uuid
from dataclasses import dataclass, field

from corrbinom import em

# Layer (module) -> traced public functions.  cb_pmf and binomial_pmf are
# left out: they run once per observation, and a span there would cost more
# than the call it measures.
TRACED = {
    "model": ("log_likelihood", "sample", "pmf_table"),
    "em": ("e_step", "m_step", "em_fit"),
    "gridsearch": ("grid_mle", "log_likelihood_grid"),
    "simulate": ("run_scenario", "child_seed"),
    "boxpct": ("build_quantile_polygon", "render_svg", "write_polygon_csv"),
    "cli": ("main",),
}

ROOT = "bench"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _path_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "output_path"))}


# Counts read from a call's arguments and result, keyed by span name.
COUNTERS = {
    "model.log_likelihood": lambda a, kw, r: {"obs": _arg(a, kw, 0, "data").k},
    "model.pmf_table": lambda a, kw, r: {"cells": _arg(a, kw, 0, "params").n + 1},
    "em.em_fit": lambda a, kw, r: {"iterations": r.iterations,
                                   "cap_hits": int(not r.converged)},
    "gridsearch.log_likelihood_grid": lambda a, kw, r: {
        "cells": len(_arg(a, kw, 1, "p_values")) * len(_arg(a, kw, 2, "rho_values"))},
    "simulate.run_scenario": lambda a, kw, r: {
        "replications": _arg(a, kw, 0, "scenario").replications},
    "boxpct.render_svg": _path_bytes,
    "boxpct.write_polygon_csv": _path_bytes,
    "cli.main": lambda a, kw, r: {"exit_nonzero": int(r != 0)},
}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records nested spans of one single-threaded run."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, 0.0, 0.0, parent, self.run_id))
        index = len(self.spans) - 1
        self._stack.append(index)
        self.spans[index].start = time.perf_counter()
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(index)
                if isinstance(exc, em.FitDegeneracyError) and name == "em.em_fit":
                    self.spans[index].counts = {"degenerate": 1}
                elif isinstance(exc, SystemExit) and name == "cli.main":
                    self.spans[index].counts = {"exit_nonzero": int(exc.code not in (0, None))}
                raise
            self._close(index)
            if counter is not None:
                self.spans[index].counts = counter(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function wherever a corrbinom module holds it."""
        originals = {}
        for layer, names in TRACED.items():
            module = sys.modules[f"corrbinom.{layer}"]
            for fn_name in names:
                originals[id(getattr(module, fn_name))] = f"{layer}.{fn_name}"
        modules = [m for key, m in sys.modules.items()
                   if key == "corrbinom" or key.startswith("corrbinom.")]
        wrappers = {}
        restore = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                name = originals.get(id(value))
                if name is None:
                    continue
                if name not in wrappers:
                    wrappers[name] = self.wrap(name, value)
                setattr(module, attr, wrappers[name])
                restore.append((module, attr, value))
        try:
            yield
        finally:
            for module, attr, value in restore:
                setattr(module, attr, value)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


# Per-layer metrics as (name, unit, better); BENCHMARK.json lists the same.
PER_LAYER = [
    ("model.log_likelihood.calls", "count", "lower"),
    ("model.log_likelihood.obs", "count", "lower"),
    ("model.log_likelihood.self_s", "s", "lower"),
    ("model.sample.calls", "count", "lower"),
    ("model.sample.self_s", "s", "lower"),
    ("model.pmf_table.calls", "count", "lower"),
    ("model.pmf_table.cells", "count", "lower"),
    ("model.pmf_table.self_s", "s", "lower"),
    ("em.e_step.calls", "count", "lower"),
    ("em.e_step.self_s", "s", "lower"),
    ("em.m_step.calls", "count", "lower"),
    ("em.m_step.self_s", "s", "lower"),
    ("em.em_fit.calls", "count", "lower"),
    ("em.em_fit.self_s", "s", "lower"),
    ("em.iterations", "count", "lower"),
    ("em.cap_hits", "count", "lower"),
    ("em.degenerate", "count", "lower"),
    ("gridsearch.grid_mle.calls", "count", "lower"),
    ("gridsearch.grid_mle.self_s", "s", "lower"),
    ("gridsearch.log_likelihood_grid.calls", "count", "lower"),
    ("gridsearch.log_likelihood_grid.self_s", "s", "lower"),
    ("gridsearch.cells", "count", "lower"),
    ("gridsearch.cells_per_s", "1/s", "higher"),
    ("simulate.run_scenario.calls", "count", "lower"),
    ("simulate.run_scenario.self_s", "s", "lower"),
    ("simulate.child_seed.calls", "count", "lower"),
    ("simulate.child_seed.self_s", "s", "lower"),
    ("simulate.replications", "count", "higher"),
    ("boxpct.build_quantile_polygon.self_s", "s", "lower"),
    ("boxpct.render_svg.self_s", "s", "lower"),
    ("boxpct.write_polygon_csv.self_s", "s", "lower"),
    ("boxpct.bytes_written", "bytes", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.exit_nonzero", "count", "lower"),
    ("bench.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_share", "share", "lower"),
]


def per_layer(tracer: Tracer, untraced_wall_s: float) -> dict[str, float]:
    """Every PER_LAYER value from the spans of one traced round.

    The round runs inside one root span, so the self times of all spans,
    ``bench.self_s`` included, add up to ``trace.wall_s``.
    """
    calls: dict[str, int] = {}
    own: dict[str, float] = {}
    counts: dict[str, float] = {}
    for span, self_s in zip(tracer.spans, self_times(tracer.spans)):
        calls[span.name] = calls.get(span.name, 0) + 1
        own[span.name] = own.get(span.name, 0.0) + self_s
        for key, value in span.counts.items():
            counts[f"{span.name}.{key}"] = counts.get(f"{span.name}.{key}", 0) + value
    wall = sum(s.end - s.start for s in tracer.spans if s.parent is None)
    grid_s = own.get("gridsearch.log_likelihood_grid", 0.0)
    grid_cells = counts.get("gridsearch.log_likelihood_grid.cells", 0)
    derived = {
        "em.iterations": counts.get("em.em_fit.iterations", 0),
        "em.cap_hits": counts.get("em.em_fit.cap_hits", 0),
        "em.degenerate": counts.get("em.em_fit.degenerate", 0),
        "model.log_likelihood.obs": counts.get("model.log_likelihood.obs", 0),
        "model.pmf_table.cells": counts.get("model.pmf_table.cells", 0),
        "gridsearch.cells": grid_cells,
        "gridsearch.cells_per_s": grid_cells / grid_s if grid_s > 0 else 0.0,
        "simulate.replications": counts.get("simulate.run_scenario.replications", 0),
        "boxpct.bytes_written": (counts.get("boxpct.render_svg.bytes", 0)
                                 + counts.get("boxpct.write_polygon_csv.bytes", 0)),
        "cli.exit_nonzero": counts.get("cli.main.exit_nonzero", 0),
        "trace.wall_s": wall,
        "trace.overhead_share": (wall - untraced_wall_s) / untraced_wall_s,
    }
    values = {}
    for name, _, _ in PER_LAYER:
        if name in derived:
            values[name] = derived[name]
        elif name.endswith(".calls"):
            values[name] = calls.get(name[:-len(".calls")], 0)
        else:
            values[name] = own.get(name[:-len(".self_s")], 0.0)
    return values
