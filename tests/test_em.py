import math

import numpy as np
import pytest

import corrbinom.em
from corrbinom import (
    CBParams,
    Dataset,
    EMConfig,
    EMResult,
    FitDegeneracyError,
    GridSpec,
    boundary_factors,
    cb_pmf,
    child_seed,
    e_step,
    em_fit,
    grid_mle,
    log_likelihood,
    loglik,
    m_step,
    q_function,
    sample,
)
from conftest import (
    ACCEPTANCE_SEED,
    GOLDEN_ITERATIONS,
    GOLDEN_LOG_LIKELIHOOD,
    GOLDEN_P_HAT,
    GOLDEN_RHO_HAT,
    STUDY_SCENARIOS,
)


def random_study_dataset(index, k=30):
    n, p, rho = STUDY_SCENARIOS[index % len(STUDY_SCENARIOS)]
    rng = np.random.default_rng(1000 + index)
    return sample(CBParams(n, p, rho), k, seed=int(rng.integers(2 ** 63)))


class TestEMConfig:
    def test_defaults(self):
        config = EMConfig()
        assert (config.start_p, config.start_rho) == (0.5, 0.5)
        assert config.max_iterations == 1000
        assert config.epsilon == 1e-15

    @pytest.mark.parametrize("kwargs", [
        {"start_rho": 0.0},   # absorbing fixed point, rejected loudly
        {"start_rho": 1.0},
        {"start_p": 0.0},
        {"start_p": 1.0},
        {"epsilon": 0.0},
        {"max_iterations": 0},
    ])
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            EMConfig(**kwargs)


class TestEStep:
    def test_interior_observation_gets_zero(self):
        data = Dataset(n=6, observations=[3])
        tau = e_step(data, CBParams(6, 0.3, 0.7))
        assert tau[0] == 0.0

    def test_rho_zero_gives_all_zero(self):
        data = Dataset(n=6, observations=[0, 3, 6])
        assert np.all(e_step(data, CBParams(6, 0.4, 0.0)) == 0.0)

    def test_boundary_responsibility_value(self):
        data = Dataset(n=6, observations=[6])
        tau = e_step(data, CBParams(6, 0.5, 0.5))
        assert tau[0] == pytest.approx(0.25 / (0.5 * 0.015625 + 0.25), abs=1e-6)
        assert tau[0] == pytest.approx(0.969697, abs=1e-6)

    def test_matches_pmf_ratio(self):
        data = Dataset(n=10, observations=[0, 4, 10])
        params = CBParams(10, 0.3, 0.6)
        tau = e_step(data, params)
        assert tau[0] == pytest.approx(0.6 * 0.7 / cb_pmf(0, params), rel=1e-14)
        assert tau[1] == 0.0
        assert tau[2] == pytest.approx(0.6 * 0.3 / cb_pmf(10, params), rel=1e-14)
        assert np.all((tau >= 0.0) & (tau <= 1.0))

    def test_zero_probability_names_observation(self):
        # at p = 1 only the y = 0 cell has zero mass (cb_pmf(6) = 1)
        data = Dataset(n=6, observations=[6, 0])
        with pytest.raises(FitDegeneracyError) as info:
            e_step(data, CBParams(6, 1.0, 0.5))
        assert info.value.observation_index == 1

    def test_n_mismatch_rejected(self):
        data = Dataset(n=6, observations=[0])
        with pytest.raises(ValueError):
            e_step(data, CBParams(5, 0.5, 0.5))


class TestMStep:
    def test_all_zero_responsibilities_give_binomial_mle(self):
        data = Dataset(n=6, observations=[2, 4, 3])
        p, rho = m_step(data, np.zeros(3))
        assert rho == 0.0
        assert p == pytest.approx(3.0 / 6.0, rel=1e-15)

    def test_all_one_responsibilities(self):
        data = Dataset(n=6, observations=[0, 6, 6])
        p, rho = m_step(data, np.ones(3))
        assert rho == 1.0
        assert p == pytest.approx((0 + 1 + 1) / 3.0, rel=1e-15)

    def test_hand_worked_mixed_case(self):
        data = Dataset(n=6, observations=[0, 6, 3])
        p, rho = m_step(data, np.array([0.5, 0.5, 0.0]))
        assert rho == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert p == pytest.approx(0.5, rel=1e-15)

    def test_outputs_stay_in_unit_interval(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            k = int(rng.integers(1, 40))
            n = int(rng.integers(1, 25))
            data = Dataset(n=n, observations=rng.integers(0, n + 1, size=k))
            p, rho = m_step(data, rng.random(k))
            assert 0.0 <= p <= 1.0
            assert 0.0 <= rho <= 1.0

    def test_validation(self):
        data = Dataset(n=6, observations=[0, 6])
        with pytest.raises(ValueError):
            m_step(data, np.array([0.5]))
        with pytest.raises(ValueError):
            m_step(data, np.array([0.5, 1.5]))
        with pytest.raises(ValueError, match="must lie in"):
            m_step(Dataset(6, [0, 6, 3]), [math.nan, 0.5, 0.0])


class TestQFunction:
    def test_all_zero_responsibilities(self):
        data = Dataset(n=6, observations=[2, 5])
        params = CBParams(6, 0.4, 0.3)
        tau = np.zeros(2)
        expected = 2 * math.log(1.0 - 0.3)
        expected += sum(math.log(15 if y == 2 else 6) + y * math.log(0.4)
                        + (6 - y) * math.log(0.6) for y in (2, 5))
        assert q_function(data, tau, params) == pytest.approx(expected, rel=1e-12)

    def test_single_boundary_observation(self):
        data = Dataset(n=5, observations=[5])
        value = q_function(data, np.array([1.0]), CBParams(5, 0.7, 0.4))
        assert value == pytest.approx(math.log(0.4) + math.log(0.7), rel=1e-12)
        assert value == pytest.approx(-1.272965676, abs=1e-6)

    def test_zero_times_log_zero_convention(self):
        data = Dataset(n=4, observations=[4])
        # tau = 1 with rho = 1: the log(1 - rho) coefficient is 0, so no -inf
        value = q_function(data, np.array([1.0]), CBParams(4, 0.5, 1.0))
        assert math.isfinite(value)
        # tau interior with rho = 1 does hit log(0) with positive coefficient
        assert q_function(data, np.array([0.5]), CBParams(4, 0.5, 1.0)) == float("-inf")

    def test_m_step_maximizes_q(self):
        for index in range(4):
            data = random_study_dataset(index)
            params0 = CBParams(data.n, 0.5, 0.5)
            tau = e_step(data, params0)
            p_star, rho_star = m_step(data, tau)
            best = q_function(data, tau, CBParams(data.n, p_star, rho_star))
            grid = np.linspace(0.0, 1.0, 101)
            for p in grid:
                for rho in grid:
                    value = q_function(data, tau, CBParams(data.n, float(p), float(rho)))
                    assert value <= best + 1e-12


class TestEMFit:
    def test_golden_soybean_fit(self, soybean):
        result = em_fit(soybean, EMConfig(start_p=0.5, start_rho=0.1))
        assert result.p_hat == pytest.approx(GOLDEN_P_HAT, abs=1e-6)
        assert result.rho_hat == pytest.approx(GOLDEN_RHO_HAT, abs=1e-6)
        assert result.iterations == GOLDEN_ITERATIONS
        assert result.converged
        assert result.log_likelihood == pytest.approx(GOLDEN_LOG_LIKELIHOOD, abs=1e-3)

    def test_rho_hat_is_mean_responsibility(self, soybean):
        result = em_fit(soybean, EMConfig(start_p=0.5, start_rho=0.1))
        sequential = 0.0
        for t in result.responsibilities.tolist():
            sequential += t
        assert result.rho_hat == sequential / soybean.k

    def test_responsibilities_zero_off_boundary(self, soybean):
        result = em_fit(soybean)
        interior = (soybean.observations != 0) & (soybean.observations != soybean.n)
        assert np.all(result.responsibilities[interior] == 0.0)
        assert np.all((result.responsibilities >= 0.0) & (result.responsibilities <= 1.0))

    def test_no_boundary_data_collapses_to_binomial(self):
        data = Dataset(n=6, observations=[2, 3, 3, 4])
        result = em_fit(data)
        assert result.rho_hat == 0.0
        assert result.p_hat == pytest.approx(3.0 / 6.0, rel=1e-15)
        assert result.converged

    def test_start_value_robustness(self, soybean):
        fits = [em_fit(soybean, EMConfig(start_p=sp, start_rho=sr))
                for sp, sr in [(0.5, 0.5), (0.5, 0.1), (0.9, 0.9), (0.1, 0.1)]]
        for fit in fits[1:]:
            assert fit.p_hat == pytest.approx(fits[0].p_hat, abs=1e-6)
            assert fit.rho_hat == pytest.approx(fits[0].rho_hat, abs=1e-6)

    def test_ascent_along_trajectory(self, soybean):
        datasets = [soybean] + [random_study_dataset(i) for i in range(12)]
        for data in datasets:
            result = em_fit(data)
            lls = [ll for _, _, ll in result.trajectory]
            for previous, current in zip(lls, lls[1:]):
                assert current >= previous - 1e-12

    def test_absorbing_rho_zero(self):
        # no boundary observations: rho hits exactly 0 on the first update
        data = Dataset(n=6, observations=[1, 2, 3, 4, 5])
        result = em_fit(data, EMConfig(start_p=0.3, start_rho=0.9))
        rhos = [rho for _, rho, _ in result.trajectory[1:]]
        assert rhos[0] == 0.0
        assert all(rho == 0.0 for rho in rhos)

    def test_fixed_point_residual_when_fully_converged(self, soybean):
        datasets = [soybean] + [random_study_dataset(i) for i in range(30)]
        checked = 0
        for data in datasets:
            result = em_fit(data)
            if not (result.converged_p and result.converged_rho) and data is not soybean:
                continue
            params = CBParams(data.n, result.p_hat, result.rho_hat)
            p_next, rho_next = m_step(data, e_step(data, params))
            assert abs(p_next - result.p_hat) <= 1e-12
            assert abs(rho_next - result.rho_hat) <= 1e-12
            checked += 1
        assert checked >= 15

    def test_iteration_cap(self, soybean):
        result = em_fit(soybean, EMConfig(start_p=0.5, start_rho=0.1, max_iterations=3))
        assert result.iterations == 3
        assert not result.converged

    def test_single_update_when_cap_is_one(self, soybean):
        result = em_fit(soybean, EMConfig(max_iterations=1))
        assert result.iterations == 1
        assert not result.converged_p and not result.converged_rho

    def test_trajectory_starts_at_start_values(self, soybean):
        config = EMConfig(start_p=0.42, start_rho=0.17)
        result = em_fit(soybean, config)
        p0, rho0, ll0 = result.trajectory[0]
        assert (p0, rho0) == (0.42, 0.17)
        assert ll0 == log_likelihood(soybean, CBParams(6, 0.42, 0.17))
        assert len(result.trajectory) == result.iterations + 1

    def test_loglik_matches_estimate(self, soybean):
        result = em_fit(soybean)
        params = CBParams(soybean.n, result.p_hat, result.rho_hat)
        assert result.log_likelihood == log_likelihood(soybean, params)

    def test_matches_grid_maximum_on_200_datasets(self):
        spec = GridSpec(coarse_resolution=201, refine_rounds=4, refine_shrink=0.1)
        for index in range(200):
            data = random_study_dataset(index)
            fit = em_fit(data)
            grid = grid_mle(data, spec)
            assert abs(fit.log_likelihood - grid.log_likelihood) <= 1e-6, index


def reference_em_fit(data, config=EMConfig()):
    """em_fit written as an update before the loop, a zero-mass check on
    every pass and a finite check, on the public boundary_factors and loglik."""
    stats, n, k = data.stats, data.n, data.k
    trajectory = [(config.start_p, config.start_rho,
                   loglik(stats, config.start_p, config.start_rho))]

    def update(p, rho, iteration):
        f_0, f_n = boundary_factors(n, p, rho)
        zero_0 = p == 1.0 or f_0 <= 0.0
        zero_n = p == 0.0 or f_n <= 0.0
        zero_interior = rho == 1.0 or p == 0.0 or p == 1.0
        for i, y in enumerate(data.observations.tolist()):
            if zero_0 if y == 0 else zero_n if y == n else zero_interior:
                raise FitDegeneracyError(f"iteration {iteration}: zero probability",
                                         observation_index=i, iteration=iteration)
        tau_0 = rho / f_0 if stats.count_0 else 0.0
        tau_n = rho / f_n if stats.count_n else 0.0
        share_0, share_n = stats.count_0 * tau_0, stats.count_n * tau_n
        successes = stats.successes - (n - 1) * share_n
        failures = n * k - stats.successes - (n - 1) * share_0
        p_new, rho_new = successes / (successes + failures), (share_0 + share_n) / k
        ll = loglik(stats, p_new, rho_new)
        if not math.isfinite(ll):
            raise FitDegeneracyError(f"iteration {iteration}: non-finite log-likelihood",
                                     iteration=iteration)
        trajectory.append((p_new, rho_new, ll))
        return (tau_0, tau_n), p_new, rho_new, ll

    tau, p, rho, ll = update(config.start_p, config.start_rho, 1)
    iterations = 1
    converged_p = converged_rho = False
    while iterations < config.max_iterations and not converged_p and not converged_rho:
        tau, p_new, rho_new, ll = update(p, rho, iterations + 1)
        converged_p = abs(p_new - p) < config.epsilon
        converged_rho = abs(rho_new - rho) < config.epsilon
        iterations += 1
        p, rho = p_new, rho_new
    obs = data.observations
    responsibilities = np.where(obs == 0, tau[0], np.where(obs == n, tau[1], 0.0))
    return EMResult(p, rho, iterations, converged_p, converged_rho, ll, responsibilities,
                    trajectory)


def assert_same_fit(result, expected):
    for name in ("p_hat", "rho_hat", "iterations", "converged_p", "converged_rho",
                 "log_likelihood", "trajectory"):
        assert getattr(result, name) == getattr(expected, name), name
    assert result.responsibilities.dtype == expected.responsibilities.dtype
    assert np.array_equal(result.responsibilities, expected.responsibilities)


class TestEMFitMatchesReferenceLoop:
    @pytest.mark.parametrize("start", [(0.5, 0.5), (0.5, 0.1), (0.9, 0.03)])
    def test_soybean(self, soybean, start):
        config = EMConfig(start_p=start[0], start_rho=start[1])
        assert_same_fit(em_fit(soybean, config), reference_em_fit(soybean, config))

    @pytest.mark.parametrize("scenario", STUDY_SCENARIOS)
    def test_acceptance_replications(self, scenario):
        for r in range(100):
            data = sample(CBParams(*scenario), 30, child_seed(ACCEPTANCE_SEED, r))
            assert_same_fit(em_fit(data), reference_em_fit(data))

    def test_replication_at_the_cap(self):
        data = sample(CBParams(10, 0.2, 0.9), 30, child_seed(ACCEPTANCE_SEED, 769))
        result = em_fit(data)
        assert result.iterations == 1000 and not result.converged
        assert_same_fit(result, reference_em_fit(data))

    @pytest.mark.parametrize("n, observations", [
        (1, [0, 1, 1, 0, 1]),
        (6, [0, 0, 0]),
        (6, [6, 6, 6, 6]),
        (6, [1, 2, 3, 4, 5]),
    ], ids=["n_one", "all_zero", "all_n", "interior_only"])
    def test_edge_datasets(self, n, observations):
        data = Dataset(n, observations)
        for start in [(0.5, 0.5), (0.2, 0.9)]:
            config = EMConfig(start_p=start[0], start_rho=start[1])
            assert_same_fit(em_fit(data, config), reference_em_fit(data, config))

    @pytest.mark.parametrize("max_iterations", [1, 2, 3])
    def test_short_caps(self, soybean, max_iterations):
        config = EMConfig(start_p=0.5, start_rho=0.1, max_iterations=max_iterations)
        result = em_fit(soybean, config)
        assert result.iterations == max_iterations
        assert_same_fit(result, reference_em_fit(soybean, config))

    def test_non_finite_loglik_raises_with_iteration(self, soybean, monkeypatch):
        calls = []

        def nan_on_third_call(stats, p, rho):
            calls.append((p, rho))
            return math.nan if len(calls) == 3 else loglik(stats, p, rho)

        monkeypatch.setattr(corrbinom.em, "loglik", nan_on_third_call)
        with pytest.raises(FitDegeneracyError) as info:
            em_fit(soybean)
        assert info.value.iteration == 2
        assert info.value.observation_index is None
