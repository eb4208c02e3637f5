"""Monte-Carlo study harness: replicate sampling + fitting, then summarize.

A scenario fixes true parameters, a sample size, a replication count, EM
controls, and a master seed.  Each replication draws its own dataset from
a deterministically derived child seed, fits it by EM, and contributes its
estimates to bias / RMSE / percentile-interval summaries per parameter.
Replications are independent, and the aggregation is keyed by replication
index, so a scenario report is a pure function of the scenario.

The replications are fitted in lockstep, not one after another.  A fit
reads its dataset only through a few counts, so each replication's draws
are reduced to one lane of per-replication arrays: the counts at 0 and at
n, and the success total.  Every EM pass then updates all live lanes
together, and a lane leaves the arrays when its fit stops.  The pass is
the one :func:`~corrbinom.em.em_fit` runs, and each lane's boundary
factors come from :func:`~corrbinom.model.boundary_factors` itself, whose
powers go through ``math``.  So every replication's estimates are bitwise
those of ``em_fit`` on ``sample(params, k, child_seed(seed, r))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from .em import EMConfig, FitDegeneracyError, _em_pass, _nonfinite_loglik
from .model import CBParams, _draws, _finite_loglik, boundary_factors, pmf_table

__all__ = [
    "ParameterSummary",
    "Scenario",
    "ScenarioReport",
    "bias",
    "child_seed",
    "percentile_interval",
    "rmse",
    "run_scenario",
]


@dataclass(frozen=True)
class Scenario:
    """One simulation configuration."""

    params: CBParams
    sample_size: int
    replications: int
    seed: int
    em_config: EMConfig = EMConfig()

    def __post_init__(self):
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not (isinstance(self.sample_size, (int, np.integer)) and self.sample_size >= 1):
            raise ValueError(f"sample_size must be an integer >= 1, got {self.sample_size!r}")
        if not (isinstance(self.replications, (int, np.integer)) and self.replications >= 1):
            raise ValueError(f"replications must be an integer >= 1, got {self.replications!r}")


@dataclass(frozen=True)
class ParameterSummary:
    """Replication summary for a single parameter."""

    truth: float
    bias: float
    rmse: float
    interval_low: float
    interval_high: float
    estimates: np.ndarray

    def __post_init__(self):
        est = np.array(self.estimates, dtype=float)
        est.flags.writeable = False
        object.__setattr__(self, "estimates", est)


@dataclass(frozen=True)
class ScenarioReport:
    """Per-parameter summaries plus ``degenerate_count``: the replications
    whose fit stopped at the iteration cap, whose estimates still enter the
    aggregates, plus those whose fit failed, which are left out of them."""

    scenario: Scenario
    p: ParameterSummary
    rho: ParameterSummary
    degenerate_count: int


def bias(estimates, truth: float) -> float:
    """Mean of the estimates minus the true value."""
    est = _as_nonempty_array(estimates)
    return float(est.mean() - truth)


def rmse(estimates, truth: float) -> float:
    """Root mean squared deviation of the estimates from the true value."""
    est = _as_nonempty_array(estimates)
    return float(np.sqrt(np.mean((est - truth) ** 2)))


def percentile_interval(estimates, level: float) -> tuple[float, float]:
    """Empirical central interval covering ``level`` of the estimates.

    Endpoints are the (1 - level)/2 and 1 - (1 - level)/2 quantiles under
    the inclusive linear-interpolation definition (the quantile at q
    interpolates between order statistics at rank q * (len - 1)); the
    definition is pinned so results reproduce across implementations.
    """
    est = _as_nonempty_array(estimates)
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie strictly inside (0, 1), got {level!r}")
    tail = (1.0 - level) / 2.0
    low = np.quantile(est, tail, method="linear")
    high = np.quantile(est, 1.0 - tail, method="linear")
    return float(low), float(high)


def _as_nonempty_array(estimates) -> np.ndarray:
    est = np.asarray(estimates, dtype=float)
    if est.size == 0:
        raise ValueError("estimates must be non-empty")
    return est


def child_seed(seed: int, replication: int) -> int:
    """Sampling seed for one replication.

    Derived by spawning a numpy ``SeedSequence`` keyed on the replication
    index, so the mapping is a fixed hash of (seed, replication): child
    streams are independent and do not depend on execution order.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(replication,))
    return int(ss.generate_state(1, np.uint64)[0])


# Uniform variates drawn per block when sampling the replications: the
# draws are reduced to lane statistics block by block, so memory stays
# bounded whatever the replication count times the sample size.
_BLOCK_CELLS = 32_768


class _Lanes(NamedTuple):
    """The live replications' sufficient statistics, one entry per lane,
    as :func:`corrbinom.em._em_pass` reads them."""

    n: int
    k: int
    index: np.ndarray       # replication number
    count_0: np.ndarray
    count_n: np.ndarray
    successes: np.ndarray

    def take(self, keep: np.ndarray) -> _Lanes:
        return _Lanes(self.n, self.k, *(field[keep] for field in self[2:]))


def _sample_lanes(scenario: Scenario) -> _Lanes:
    # Replication r's draws are sample(params, k, child_seed(seed, r)):
    # its uniforms in row r, one CDF and one inverse-CDF transform for all.
    n, k, reps = scenario.params.n, scenario.sample_size, scenario.replications
    cdf = np.cumsum(pmf_table(scenario.params))
    rows = max(1, min(reps, _BLOCK_CELLS // k))
    uniforms = np.empty((rows, k))
    stats = np.empty((3, reps), dtype=np.int64)
    for start in range(0, reps, rows):
        block = uniforms[:min(rows, reps - start)]
        for r, row in enumerate(block, start):
            np.random.default_rng(child_seed(scenario.seed, r)).random(out=row)
        draws = _draws(cdf, block)
        stop = start + len(block)
        np.sum(draws == 0, axis=1, out=stats[0, start:stop])
        np.sum(draws == n, axis=1, out=stats[1, start:stop])
        np.sum(draws, axis=1, out=stats[2, start:stop])
    return _Lanes(n, k, np.arange(reps), *stats)


def _lane_factors(n: int, p: np.ndarray, rho: np.ndarray) -> np.ndarray:
    # boundary_factors per lane, as floats: its powers go through math, and
    # numpy's exp and log can differ from math's in the last bit
    factors = chain.from_iterable(map(boundary_factors, repeat(n), p.tolist(), rho.tolist()))
    return np.fromiter(factors, float, 2 * p.size).reshape(-1, 2).T


def run_scenario(scenario: Scenario) -> ScenarioReport:
    """Run every replication of the scenario and aggregate the estimates.

    The replications are sampled and fitted in lockstep (see the module
    docstring), with each replication's estimates bitwise those of
    :func:`~corrbinom.em.em_fit` on its own dataset.  A replication whose
    fit stops at the iteration cap is counted in ``degenerate_count`` but
    its estimates stay in the aggregates.  A replication whose fit fails
    (an iterate with a non-finite log-likelihood) is counted and skipped;
    if every replication fails, a :class:`FitDegeneracyError` is raised,
    chained to the last replication's error.
    """
    config = scenario.em_config
    lanes = _sample_lanes(scenario)
    reps = scenario.replications
    p_hat, rho_hat = np.empty(reps), np.empty(reps)
    failed_at = np.zeros(reps, dtype=int)     # the failing pass, 0 for a kept fit
    degenerate = 0
    p, rho = np.full(reps, config.start_p), np.full(reps, config.start_rho)
    f_0, f_n = _lane_factors(lanes.n, p, rho)
    iteration = 0
    while lanes.index.size:
        iteration += 1
        p_new, rho_new, _, _ = _em_pass(lanes, rho, f_0, f_n)
        f_0, f_n = _lane_factors(lanes.n, p_new, rho_new)
        failed = ~_finite_loglik(lanes, p_new, rho_new, f_0, f_n)
        stopped = failed.copy()
        if iteration > 1:
            stopped |= np.abs(p_new - p) < config.epsilon
            stopped |= np.abs(rho_new - rho) < config.epsilon
        if iteration == config.max_iterations:
            degenerate += int(np.count_nonzero(~stopped))
            stopped[:] = True
        if failed.any():
            degenerate += int(np.count_nonzero(failed))
            failed_at[lanes.index[failed]] = iteration
        if stopped.any():
            p_hat[lanes.index[stopped]] = p_new[stopped]
            rho_hat[lanes.index[stopped]] = rho_new[stopped]
            live = ~stopped
            lanes = lanes.take(live)
            p_new, rho_new, f_0, f_n = p_new[live], rho_new[live], f_0[live], f_n[live]
        p, rho = p_new, rho_new
    kept = failed_at == 0
    if not kept.any():
        error = _nonfinite_loglik(int(failed_at[-1]))    # the last replication's
        raise FitDegeneracyError(f"all {reps} replications failed: {error}") from error
    return ScenarioReport(
        scenario=scenario,
        p=_summarize(p_hat[kept], scenario.params.p),
        rho=_summarize(rho_hat[kept], scenario.params.rho),
        degenerate_count=degenerate,
    )


def _summarize(estimates: np.ndarray, truth: float) -> ParameterSummary:
    low, high = percentile_interval(estimates, 0.95)
    return ParameterSummary(
        truth=truth,
        bias=bias(estimates, truth),
        rmse=rmse(estimates, truth),
        interval_low=low,
        interval_high=high,
        estimates=estimates,
    )
