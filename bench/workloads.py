"""The three benchmark workloads: study, bigdata and oracle.

A workload draws its inputs once, from the seed, and then hands out the
same round of operations as often as the runner asks.  Each operation is
timed on its own, by the runner, around one call into corrbinom; the
inputs are built before the round starts and every output check runs
after it ends, so neither is part of a timed operation or of a traced
span.  Calls go through the module attributes (``simulate.run_scenario``,
not a name bound at import time) so that the traced run sees every call.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from corrbinom import boxpct, cli, em, gridsearch, model, simulate

import inputs

# bigdata check: EM may not score below the grid-search maximum by more
# than this.  It is the acceptance gate's EM-vs-grid tolerance.
LOGLIK_TOLERANCE = 1e-6
# A cheaper grid than the CLI default; it only has to bound EM from below.
CHECK_GRID = gridsearch.GridSpec(coarse_resolution=401, refine_rounds=4, refine_shrink=0.1)

ENVELOPE_KEYS = {"command", "schema_version", "params", "seed", "results"}


@dataclass
class Op:
    """One timed call: ``units`` count toward the throughput, ``attempted``
    toward the failed share."""

    label: str
    units: int
    attempted: int
    run: Callable[[], Any]


class Study:
    """The paper's six-scenario Monte-Carlo study plus one glyph per scenario."""

    name = "study"
    rate_name, latency_name, base = "reps_per_s", "scenario_s_p50", "replications"
    reference = "python"
    expected_errors = ()

    def __init__(self, seed: int, workdir: Path):
        self.master = inputs.study_master_seed(seed)
        self.workdir = workdir

    def round_ops(self) -> list[Op]:
        ops = []
        for i, (n, p, rho) in enumerate(inputs.STUDY_SCENARIOS):
            scenario = simulate.Scenario(params=model.CBParams(n, p, rho),
                                         sample_size=inputs.STUDY_K,
                                         replications=inputs.STUDY_REPS, seed=self.master)
            stem = self.workdir / f"study_{i}"
            ops.append(Op(f"scenario n={n} p={p} rho={rho}", inputs.STUDY_REPS,
                          inputs.STUDY_REPS, lambda s=scenario, stem=stem: _scenario(s, stem)))
        return ops

    def failed(self, payload) -> int:
        report, _, _ = payload
        return report.degenerate_count

    def check(self, op: Op, payload) -> list[str]:
        report, svg, csv = payload
        scenario = report.scenario
        problems = []
        skipped = 0
        for rep in range(inputs.STUDY_CHECKED_REPS):
            data = model.sample(scenario.params, scenario.sample_size,
                                simulate.child_seed(scenario.seed, rep))
            try:
                fit = em.em_fit(data, scenario.em_config)
            except em.FitDegeneracyError:
                skipped += 1
                continue
            index = rep - skipped
            if (fit.p_hat != report.p.estimates[index]
                    or fit.rho_hat != report.rho.estimates[index]):
                problems.append(f"{op.label}: replication {rep} re-fit differs from the report")
        for name, summary in (("p", report.p), ("rho", report.rho)):
            if not summary.rmse >= abs(summary.bias):
                problems.append(f"{op.label}: {name} rmse {summary.rmse} < |bias| {abs(summary.bias)}")
        for path in (svg, csv):
            if path.stat().st_size == 0:
                problems.append(f"{op.label}: {path.name} is empty")
        return problems


def _scenario(scenario, stem: Path):
    report = simulate.run_scenario(scenario)
    polygons = [
        boxpct.build_quantile_polygon(report.p.estimates, inputs.GLYPH_RESOLUTION, name="p"),
        boxpct.build_quantile_polygon(report.rho.estimates, inputs.GLYPH_RESOLUTION, name="rho"),
    ]
    svg, csv = stem.with_suffix(".svg"), stem.with_suffix(".csv")
    boxpct.render_svg(polygons, svg)
    boxpct.write_polygon_csv(polygons, csv)
    return report, svg, csv


class BigData:
    """em_fit at k = 1e4..1e5 on generated data, and sample at n = 1e5..1e6."""

    name = "bigdata"
    rate_name, latency_name, base = "obs_per_s", "call_s_p50", "calls"
    reference = "python"
    expected_errors = (em.FitDegeneracyError,)

    def __init__(self, seed: int, workdir: Path):
        self.fits = [model.Dataset(n=n, observations=counts)
                     for n, counts in inputs.bigdata_fit_inputs(seed)]
        self.sample_seeds = inputs.bigdata_sample_seeds(seed)

    def round_ops(self) -> list[Op]:
        ops = []
        for data, (_, p, rho, k) in zip(self.fits, inputs.BIGDATA_FITS):
            ops.append(Op(f"em_fit n={data.n} p={p} rho={rho} k={k}", k, 1,
                          lambda data=data: ("fit", data, em.em_fit(data))))
        for (n, p, rho, k), seed in zip(inputs.BIGDATA_SAMPLES, self.sample_seeds):
            params = model.CBParams(n, p, rho)
            ops.append(Op(f"sample n={n} p={p} rho={rho} k={k}", k, 1,
                          lambda params=params, k=k, seed=seed:
                          ("sample", params, model.sample(params, k, seed))))
        return ops

    def failed(self, payload) -> int:
        kind, _, result = payload
        return int(kind == "fit" and not result.converged)

    def check(self, op: Op, payload) -> list[str]:
        kind, given, result = payload
        if kind == "sample":
            obs = result.observations
            if result.n != given.n or obs.size != op.units or obs.min() < 0 or obs.max() > given.n:
                return [f"{op.label}: draws outside [0, n] or wrong count"]
            return []
        grid = gridsearch.grid_mle(given, CHECK_GRID)
        if not result.log_likelihood >= grid.log_likelihood - LOGLIK_TOLERANCE:
            return [f"{op.label}: EM log-likelihood {result.log_likelihood!r} below "
                    f"grid {grid.log_likelihood!r} by more than {LOGLIK_TOLERANCE}"]
        return []


class Oracle:
    """``corrbinom fit --oracle --format json --output`` on a written corpus, in-process."""

    name = "oracle"
    rate_name, latency_name, base = "checks_per_s", "check_s_p50", "checks"
    reference = "numpy"
    expected_errors = ()

    def __init__(self, seed: int, workdir: Path):
        self.datasets = []
        for i, (label, n, counts) in enumerate(inputs.oracle_corpus(seed)):
            path = workdir / f"oracle_{i}.txt"
            path.write_text(f"# {label}\n" + "\n".join(map(str, counts.tolist())) + "\n")
            self.datasets.append((label, n, path, workdir / f"oracle_{i}.json"))

    def round_ops(self) -> list[Op]:
        ops = []
        for label, n, path, report in self.datasets:
            report.unlink(missing_ok=True)
            argv = ["fit", "--input", str(path), "--n", str(n), "--oracle",
                    "--format", "json", "--output", str(report)]
            ops.append(Op(f"fit --oracle {label}", 1, 1,
                          lambda argv=argv, report=report: (_cli(argv), report)))
        return ops

    def failed(self, payload) -> int:
        return 0

    def check(self, op: Op, payload) -> list[str]:
        status, report = payload
        if status != 0:
            return [f"{op.label}: exit status {status}"]
        envelope = json.loads(report.read_text())
        missing = ENVELOPE_KEYS - envelope.keys()
        if missing:
            return [f"{op.label}: report lacks {sorted(missing)}"]
        gap = envelope["results"]["oracle"]["log_likelihood_gap"]
        if not (math.isfinite(gap) and abs(gap) <= LOGLIK_TOLERANCE):
            return [f"{op.label}: oracle log-likelihood gap {gap!r} exceeds {LOGLIK_TOLERANCE}"]
        return []


def _cli(argv: list[str]):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse reports usage errors this way
        return exc.code


WORKLOADS = {load.name: load for load in (Study, BigData, Oracle)}
