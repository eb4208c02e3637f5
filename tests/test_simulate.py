import math

import numpy as np
import pytest

import corrbinom.simulate
from corrbinom import (
    CBParams,
    Dataset,
    EMConfig,
    FitDegeneracyError,
    Scenario,
    bias,
    child_seed,
    em_fit,
    loglik,
    percentile_interval,
    rmse,
    run_scenario,
    sample,
)
from corrbinom.model import _finite_loglik, boundary_factors
from conftest import ACCEPTANCE_SEED, STUDY_SCENARIOS


class TestBias:
    def test_exact_estimates(self):
        assert bias([0.5, 0.5, 0.5], 0.5) == 0.0

    def test_symmetric_errors_cancel(self):
        assert bias([0.4, 0.6], 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_hand_arithmetic(self):
        assert bias([0.52, 0.48, 0.56], 0.5) == pytest.approx(0.02, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bias([], 0.5)


class TestRMSE:
    def test_zero_when_exact(self):
        assert rmse([0.5, 0.5], 0.5) == 0.0

    def test_equal_magnitude_deviations(self):
        assert rmse([0.4, 0.6], 0.5) == pytest.approx(0.1, rel=1e-12)

    def test_hand_arithmetic(self):
        assert rmse([0.52, 0.48, 0.56], 0.5) == pytest.approx(math.sqrt(0.0044 / 3), rel=1e-12)

    def test_dominates_bias(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            estimates = rng.random(int(rng.integers(1, 60)))
            truth = float(rng.random())
            assert rmse(estimates, truth) >= abs(bias(estimates, truth)) - 1e-15

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rmse([], 0.5)


class TestPercentileInterval:
    def test_constant_list(self):
        assert percentile_interval([0.3] * 7, 0.95) == (0.3, 0.3)

    def test_five_point_interpolation(self):
        low, high = percentile_interval([0.0, 0.25, 0.5, 0.75, 1.0], 0.5)
        assert (low, high) == (0.25, 0.75)

    def test_matches_numpy_linear(self):
        rng = np.random.default_rng(8)
        values = rng.random(137)
        low, high = percentile_interval(values, 0.9)
        assert low == np.quantile(values, 0.05, method="linear")
        assert high == np.quantile(values, 0.95, method="linear")

    def test_validation(self):
        with pytest.raises(ValueError):
            percentile_interval([], 0.95)
        with pytest.raises(ValueError):
            percentile_interval([0.5], 1.0)


class TestChildSeed:
    def test_deterministic(self):
        assert child_seed(99, 3) == child_seed(99, 3)

    def test_distinct_across_replications(self):
        seeds = {child_seed(99, r) for r in range(1000)}
        assert len(seeds) == 1000


def small_scenario(seed=2024, replications=40):
    return Scenario(
        params=CBParams(10, 0.5, 0.8),
        sample_size=30,
        replications=replications,
        seed=seed,
    )


class TestRunScenario:
    def test_bitwise_determinism(self):
        first = run_scenario(small_scenario())
        second = run_scenario(small_scenario())
        assert first.p.estimates.tobytes() == second.p.estimates.tobytes()
        assert first.rho.estimates.tobytes() == second.rho.estimates.tobytes()
        assert (first.p.bias, first.p.rmse) == (second.p.bias, second.p.rmse)
        assert (first.rho.interval_low, first.rho.interval_high) == \
               (second.rho.interval_low, second.rho.interval_high)
        assert first.degenerate_count == second.degenerate_count

    def test_aggregates_match_estimates(self):
        report = run_scenario(small_scenario())
        assert report.p.bias == bias(report.p.estimates, 0.5)
        assert report.p.rmse == rmse(report.p.estimates, 0.5)
        low, high = percentile_interval(report.rho.estimates, 0.95)
        assert (report.rho.interval_low, report.rho.interval_high) == (low, high)
        assert report.p.estimates.size == 40

    def test_interval_invariants(self):
        report = run_scenario(small_scenario())
        for summary in (report.p, report.rho):
            assert summary.interval_low <= summary.interval_high
            assert 0.0 <= summary.interval_low and summary.interval_high <= 1.0
            assert summary.rmse >= abs(summary.bias)

    def test_replications_use_child_seeds(self):
        scenario = small_scenario(replications=5)
        report = run_scenario(scenario)
        for r in range(5):
            data = sample(scenario.params, 30, child_seed(scenario.seed, r))
            refit = em_fit(data, scenario.em_config)
            assert report.p.estimates[r] == refit.p_hat
            assert report.rho.estimates[r] == refit.rho_hat

    def test_single_replication_bias(self):
        scenario = small_scenario(replications=1)
        report = run_scenario(scenario)
        estimate = report.p.estimates[0]
        assert report.p.bias == estimate - 0.5

    def test_rho_zero_truth_yields_zero_estimates_off_boundary(self):
        # with rho = 0 a fit can only move rho off 0 if a draw lands on {0, n};
        # check the replications whose samples avoided the boundary entirely
        scenario = Scenario(params=CBParams(10, 0.5, 0.0), sample_size=30,
                            replications=50, seed=77)
        report = run_scenario(scenario)
        checked = 0
        for r in range(50):
            data = sample(scenario.params, 30, child_seed(77, r))
            if np.isin(data.observations, [0, 10]).any():
                continue
            assert report.rho.estimates[r] == 0.0
            checked += 1
        assert checked >= 40
        if checked == 50:
            assert report.rho.bias == 0.0

    def test_invalid_scenarios(self):
        with pytest.raises(ValueError):
            Scenario(params=CBParams(10, 0.5, 0.5), sample_size=0, replications=5, seed=1)
        with pytest.raises(ValueError):
            Scenario(params=CBParams(10, 0.5, 0.5), sample_size=30, replications=0, seed=1)

    def test_em_config_defaults_to_half_half(self):
        scenario = small_scenario()
        assert scenario.em_config == EMConfig()


def reference_study(scenario):
    """The study written replication by replication: sample + em_fit each,
    a failed fit counted and skipped, the last error raised if all fail."""
    p_hats, rho_hats = [], []
    degenerate = failures = 0
    last_error = None
    for r in range(scenario.replications):
        data = sample(scenario.params, scenario.sample_size, child_seed(scenario.seed, r))
        try:
            result = em_fit(data, scenario.em_config)
        except FitDegeneracyError as exc:
            degenerate += 1
            failures += 1
            last_error = exc
            continue
        if not result.converged:
            degenerate += 1
        p_hats.append(result.p_hat)
        rho_hats.append(result.rho_hat)
    if failures == scenario.replications:
        raise FitDegeneracyError(
            f"all {scenario.replications} replications failed: {last_error}") from last_error
    return p_hats, rho_hats, degenerate


def assert_matches_reference(scenario):
    p_hats, rho_hats, degenerate = reference_study(scenario)
    report = run_scenario(scenario)
    for summary, estimates in ((report.p, p_hats), (report.rho, rho_hats)):
        assert summary.estimates.tobytes() == np.array(estimates).tobytes()
        assert summary.bias == bias(estimates, summary.truth)
        assert summary.rmse == rmse(estimates, summary.truth)
        assert (summary.interval_low, summary.interval_high) == \
            percentile_interval(estimates, 0.95)
    assert report.degenerate_count == degenerate
    return report


EDGE_SCENARIOS = (
    [Scenario(CBParams(n, 0.3, 0.6), 30, 40, 5) for n in (1, 2, 2000)]
    + [Scenario(CBParams(n, 0.4, rho), 30, 40, 6) for n in (1, 10, 2000) for rho in (0.0, 1.0)]
    + [Scenario(CBParams(n, p, 0.5), 30, 40, 7) for n in (1, 10, 2000)
       for p in (0.0, 0.001, 0.999, 1.0)]
    + [Scenario(CBParams(n, p, rho), 1, 60, 8) for n, p, rho in STUDY_SCENARIOS + [(1, .5, .5)]]
    + [Scenario(CBParams(10, 0.5, 0.8), 30, 40, 9, EMConfig(max_iterations=cap))
       for cap in (1, 2, 3)]
    + [Scenario(CBParams(n, p, rho), 30, 40, 10, EMConfig(start_p=start_p, start_rho=start_rho))
       for n, p, rho in STUDY_SCENARIOS + [(1, .5, .5), (2000, .3, .2)]
       for start_p, start_rho in ((1e-12, 1 - 1e-12), (1 - 1e-12, 1e-12))]
)


class TestLockstepMatchesPerReplicationFits:
    """run_scenario fits every replication at once; each report must be
    bitwise the one a replication-by-replication loop gives."""

    @pytest.mark.parametrize("seed", [ACCEPTANCE_SEED, 4242])
    @pytest.mark.parametrize("n, p, rho", STUDY_SCENARIOS)
    def test_study_scenarios(self, n, p, rho, seed):
        assert_matches_reference(Scenario(CBParams(n, p, rho), 30, 50, seed))

    def test_acceptance_study(self):
        for n, p, rho in STUDY_SCENARIOS:
            assert_matches_reference(Scenario(CBParams(n, p, rho), 30, 1000, ACCEPTANCE_SEED))

    def test_replication_at_the_cap(self):
        # replication 769 of (10, .2, .9) crawls to the 1000-pass cap
        scenario = Scenario(CBParams(10, 0.2, 0.9), 30, 770, ACCEPTANCE_SEED)
        data = sample(scenario.params, 30, child_seed(ACCEPTANCE_SEED, 769))
        assert not em_fit(data).converged
        report = assert_matches_reference(scenario)
        assert report.degenerate_count == 1
        assert report.p.estimates.size == 770

    @pytest.mark.parametrize("scenario", EDGE_SCENARIOS, ids=repr)
    def test_edge_scenarios(self, scenario):
        assert_matches_reference(scenario)

    @pytest.mark.parametrize("cells", [1, 30, 7 * 30, 10_000])
    def test_sampling_blocks(self, monkeypatch, cells):
        # one replication per block, blocks that do not divide the count, one block
        monkeypatch.setattr(corrbinom.simulate, "_BLOCK_CELLS", cells)
        assert_matches_reference(Scenario(CBParams(10, 0.5, 0.8), 30, 45, 11))


def fail_lanes(monkeypatch, fail_pass):
    """Make run_scenario's finiteness check fail replication r at pass
    fail_pass(r) (None: never)."""
    real = corrbinom.simulate._finite_loglik
    passes = []

    def finite(lanes, *args):
        passes.append(None)
        chosen = [fail_pass(r) == len(passes) for r in lanes.index.tolist()]
        return real(lanes, *args) & ~np.array(chosen, dtype=bool)

    monkeypatch.setattr(corrbinom.simulate, "_finite_loglik", finite)


class TestFailedReplications:
    def test_failed_lanes_are_counted_and_skipped(self, monkeypatch):
        scenario = small_scenario(replications=12)
        p_hats, rho_hats, degenerate = reference_study(scenario)
        failing = {3: 1, 7: 2, 8: 1, 11: 2}
        fail_lanes(monkeypatch, failing.get)
        report = run_scenario(scenario)
        kept = [r for r in range(12) if r not in failing]
        assert report.p.estimates.tobytes() == np.array([p_hats[r] for r in kept]).tobytes()
        assert report.rho.estimates.tobytes() == np.array([rho_hats[r] for r in kept]).tobytes()
        assert report.degenerate_count == degenerate + len(failing)
        assert report.p.bias == bias([p_hats[r] for r in kept], 0.5)

    def test_failure_beats_convergence_in_the_same_pass(self, monkeypatch):
        # em_fit tests the log-likelihood before the stop rule
        scenario = small_scenario(replications=6)
        fits = [em_fit(sample(scenario.params, 30, child_seed(scenario.seed, r)))
                for r in range(6)]
        fail_lanes(monkeypatch, lambda r: fits[r].iterations if r == 2 else None)
        report = run_scenario(scenario)
        assert report.p.estimates.tolist() == [fit.p_hat for r, fit in enumerate(fits) if r != 2]
        assert report.degenerate_count == 1

    def test_all_failing_raises_chained_to_the_last_replication(self, monkeypatch):
        # the last replication fails first, so "last" means by replication
        # number, not by the order of failure
        fail_lanes(monkeypatch, lambda r: 1 if r == 4 else 3)
        with pytest.raises(FitDegeneracyError) as info:
            run_scenario(small_scenario(replications=5))
        assert str(info.value) == \
            "all 5 replications failed: iteration 1: non-finite log-likelihood"
        cause = info.value.__cause__
        assert isinstance(cause, FitDegeneracyError)
        assert cause.iteration == 1
        assert str(cause) == "iteration 1: non-finite log-likelihood"

    def test_one_survivor_is_enough(self, monkeypatch):
        fail_lanes(monkeypatch, lambda r: None if r == 2 else 1)
        report = run_scenario(small_scenario(replications=4))
        assert report.p.estimates.size == 1
        assert report.degenerate_count == 3


class TestFiniteCheck:
    """The lockstep's finiteness test is math.isfinite(loglik) per lane."""

    @staticmethod
    def lanes_of(datasets):
        stats = [data.stats for data in datasets]
        return corrbinom.simulate._Lanes(
            stats[0].n, stats[0].k, np.arange(len(stats)),
            *(np.array([getattr(s, name) for s in stats])
              for name in ("count_0", "count_n", "successes")))

    @pytest.mark.parametrize("counts", [
        [0, 0, 0], [4, 4, 4], [0, 4, 4], [1, 2, 3], [0, 2, 4], [0, 1, 1], [3, 4, 4], [0, 0, 4],
    ])
    def test_matches_loglik(self, counts):
        n = 4
        values = [0.0, 1e-300, 1e-12, 0.25, 0.5, 1 - 1e-12, 1.0]
        grid = [(p, rho) for p in values for rho in values]
        datasets = [Dataset(n, counts)] * len(grid)
        p = np.array([pair[0] for pair in grid])
        rho = np.array([pair[1] for pair in grid])
        factors = np.array([boundary_factors(n, *pair) for pair in grid]).T
        finite = _finite_loglik(self.lanes_of(datasets), p, rho, *factors)
        expected = [math.isfinite(loglik(datasets[0].stats, *pair)) for pair in grid]
        assert finite.tolist() == expected

    def test_matches_loglik_on_one_trial_and_huge_n(self):
        for n, counts in ((1, [0, 1, 1]), (1, [1, 1]), (2000, [0, 1000, 2000]), (2000, [7, 9])):
            for p in (0.0, 1e-300, 0.5, 1.0):
                for rho in (0.0, 0.5, 1.0):
                    data = Dataset(n, counts)
                    f_0, f_n = boundary_factors(n, p, rho)
                    finite = _finite_loglik(self.lanes_of([data]), np.array([p]),
                                            np.array([rho]), np.array([f_0]), np.array([f_n]))
                    assert finite.tolist() == [math.isfinite(loglik(data.stats, p, rho))]


class TestSeedValidation:
    @pytest.mark.parametrize("seed", [-1, 1.5, "7", None])
    def test_bad_seed_named(self, seed):
        with pytest.raises(ValueError, match=f"seed must be an integer >= 0, got {seed!r}"):
            Scenario(params=CBParams(10, 0.5, 0.5), sample_size=30, replications=5, seed=seed)

    @pytest.mark.parametrize("seed", [0, np.uint64(2**64 - 1), 2**70])
    def test_large_and_zero_seeds_run(self, seed):
        report = run_scenario(Scenario(CBParams(10, 0.5, 0.5), 30, 3, seed))
        assert report.p.estimates.size == 3
