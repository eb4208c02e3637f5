"""The sufficient-statistic likelihood kernel against per-observation references.

Each reference below scores one observation at a time, the way the
likelihood, the E-step, the M-step and the Q-function are written down.
The kernel reads the data only through ``Dataset.stats``, so these tests
pin it to the per-observation definitions.
"""

import math

import numpy as np
import pytest

from corrbinom import (
    CBParams,
    Dataset,
    FitDegeneracyError,
    cb_pmf,
    e_step,
    log_binomial_coeff,
    log_likelihood,
    log_likelihood_grid,
    m_step,
    pmf_table,
    q_function,
    sample,
)
from corrbinom.model import PROB_FLOOR, loglik
from conftest import SOYBEAN_COUNTS, STUDY_SCENARIOS

PARAMS = [(0.5, 0.5), (0.3, 0.1), (0.9, 0.7), (0.05, 0.95), (0.5, 0.0), (0.7, 1.0), (0.0, 0.3), (1.0, 0.3)]


def reference_log_likelihood(data, params, clamp=False):
    logs = {}
    for y in set(data.observations.tolist()):
        prob = cb_pmf(y, params)
        if clamp:
            prob = max(prob, PROB_FLOOR)
        logs[y] = math.log(prob) if prob > 0.0 else -math.inf
    return math.fsum(logs[y] for y in data.observations.tolist())


def reference_e_step(data, params):
    n, p, rho = params.n, params.p, params.rho
    tau = []
    for i, y in enumerate(data.observations.tolist()):
        prob = cb_pmf(y, params)
        if prob <= 0.0:
            raise FitDegeneracyError("zero probability", observation_index=i)
        tau.append(rho * {0: 1.0 - p, n: p}.get(y, 0.0) / prob)
    return np.array(tau)


def reference_m_step(data, tau):
    n = data.n
    successes = trials = total = 0.0
    for y, t in zip(data.observations.tolist(), tau.tolist()):
        total += t
        successes += t * y / n + (1.0 - t) * y
        trials += t + (1.0 - t) * n
    return successes / trials, total / data.k


def xlogy(coeff, value):
    if coeff == 0.0:
        return 0.0
    return coeff * math.log(value) if value > 0.0 else -math.inf


def reference_q_function(data, tau, params):
    n, p, rho = params.n, params.p, params.rho
    terms = []
    for y, t in zip(data.observations.tolist(), tau.tolist()):
        terms += [xlogy(t, rho), xlogy(1.0 - t, 1.0 - rho),
                  xlogy(t * y / n + (1.0 - t) * y, p),
                  xlogy(t * (n - y) / n + (1.0 - t) * (n - y), 1.0 - p),
                  (1.0 - t) * log_binomial_coeff(n, y)]
    return math.fsum(terms)


def study_data(index, k=30):
    n, p, rho = STUDY_SCENARIOS[index % len(STUDY_SCENARIOS)]
    return sample(CBParams(n, p, rho), k, seed=500 + index)


DATASETS = {
    "n=1": Dataset(n=1, observations=[0, 1, 1, 0, 1, 1]),
    "all zero": Dataset(n=8, observations=[0] * 40),
    "all n": Dataset(n=8, observations=[8] * 40),
    "interior only": Dataset(n=8, observations=[1, 3, 3, 7, 4, 2, 5]),
    "soybean": Dataset(n=6, observations=SOYBEAN_COUNTS),
    "mixed n=20": study_data(3),
    "k=1e5": sample(CBParams(10, 0.5, 0.8), 100_000, seed=17),
}


def assert_close(value, expected, rel):
    if expected == -math.inf:
        assert value == -math.inf
    else:
        assert value == pytest.approx(expected, rel=rel, abs=rel)


class TestSufficientStats:
    def test_counts_of_a_small_dataset(self):
        stats = Dataset(n=6, observations=[0, 6, 3, 0, 2, 6, 6]).stats
        assert (stats.n, stats.k, stats.count_0, stats.count_n) == (6, 7, 2, 3)
        assert stats.interior_count == 2
        assert stats.successes == 23
        assert stats.log_coeff == pytest.approx(math.log(20) + math.log(15), rel=1e-14)
        assert stats.values.tolist() == [0, 2, 3, 6]
        assert stats.counts.tolist() == [2, 1, 1, 3]

    def test_computed_once(self):
        data = Dataset(n=6, observations=SOYBEAN_COUNTS)
        assert data.stats is data.stats

    def test_huge_n_needs_memory_of_order_k(self):
        n = 10 ** 12
        data = Dataset(n=n, observations=[0, 5, n // 2, n])
        stats = data.stats
        assert stats.values.size == 4
        assert math.isfinite(log_likelihood(data, CBParams(n, 0.5, 0.5)))


class TestLogLikelihood:
    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_matches_fsum_of_log_pmf(self, name):
        data = DATASETS[name]
        for p, rho in PARAMS:
            params = CBParams(data.n, p, rho)
            assert_close(log_likelihood(data, params), reference_log_likelihood(data, params), 1e-9)

    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_clamp_matches_floored_reference(self, name):
        data = DATASETS[name]
        for p, rho in PARAMS:
            params = CBParams(data.n, p, rho)
            expected = reference_log_likelihood(data, params, clamp=True)
            value = log_likelihood(data, params, clamp=True)
            assert math.isfinite(value)
            assert value == pytest.approx(expected, rel=1e-9)

    def test_clamp_without_flooring_equals_plain(self):
        data = DATASETS["soybean"]
        params = CBParams(6, 0.6, 0.1)
        assert log_likelihood(data, params, clamp=True) == log_likelihood(data, params)

    def test_zero_probability_is_minus_inf(self):
        data = Dataset(n=5, observations=[0, 5, 2])
        for p, rho in [(1.0, 0.4), (0.0, 0.4), (0.5, 1.0)]:
            assert log_likelihood(data, CBParams(5, p, rho)) == -math.inf


class TestEMSteps:
    def test_e_step_matches_reference(self):
        for index in range(12):
            data = study_data(index)
            for p, rho in PARAMS[:5]:
                params = CBParams(data.n, p, rho)
                np.testing.assert_allclose(e_step(data, params), reference_e_step(data, params),
                                           rtol=1e-12, atol=1e-12)

    def test_m_step_matches_reference(self):
        rng = np.random.default_rng(11)
        for index in range(12):
            data = study_data(index)
            for tau in (rng.random(data.k), e_step(data, CBParams(data.n, 0.4, 0.6))):
                p, rho = m_step(data, tau)
                p_ref, rho_ref = reference_m_step(data, tau)
                assert p == pytest.approx(p_ref, rel=1e-12, abs=1e-12)
                assert rho == pytest.approx(rho_ref, rel=1e-12, abs=1e-12)

    def test_q_function_matches_reference(self):
        rng = np.random.default_rng(12)
        for index in range(12):
            data = study_data(index)
            tau = rng.random(data.k)
            for p, rho in PARAMS:
                params = CBParams(data.n, p, rho)
                assert_close(q_function(data, tau, params),
                             reference_q_function(data, tau, params), 1e-12)

    @pytest.mark.parametrize("observations, p, rho, first", [
        ([3, 0, 6], 1.0, 0.5, 0),      # interior and y = 0 both impossible at p = 1
        ([6, 6, 0, 3], 1.0, 0.5, 2),
        ([0, 6, 2, 3], 0.4, 1.0, 2),   # rho = 1 leaves no interior mass
        ([0, 0, 6, 1], 0.0, 0.5, 2),   # p = 0 leaves no mass at n
    ])
    def test_observation_index_is_first_offender(self, observations, p, rho, first):
        data = Dataset(n=6, observations=observations)
        params = CBParams(6, p, rho)
        with pytest.raises(FitDegeneracyError) as reference:
            reference_e_step(data, params)
        with pytest.raises(FitDegeneracyError) as info:
            e_step(data, params)
        assert info.value.observation_index == reference.value.observation_index == first


class TestPmfTable:
    @pytest.mark.parametrize("n", [1, 9, 1000, 100_000])
    def test_bitwise_equal_to_cb_pmf(self, n):
        for p, rho in [(0.35, 0.6), (0.5, 0.0), (0.999, 0.2), (0.0, 0.4), (1.0, 0.4)]:
            params = CBParams(n, p, rho)
            table = pmf_table(params)
            ys = range(n + 1) if n <= 1000 else sorted({0, n, *range(0, n + 1, 97),
                                                        *range(n // 2 - 500, n // 2 + 500)})
            for y in ys:
                assert table[y] == cb_pmf(y, params), (n, p, rho, y)

    @pytest.mark.parametrize("n", [1, 9, 1000])
    @pytest.mark.parametrize("p", [0.0, 1.0])
    @pytest.mark.parametrize("rho", [0.0, 0.3, 1.0])
    def test_degenerate_p_bitwise_without_log_factorials(self, monkeypatch, n, p, rho):
        # at p = 0 or 1 the table is a unit mass at 0 or n plus the mixture
        # weight; no binomial coefficient is needed, so none is computed
        params = CBParams(n, p, rho)
        expected = [cb_pmf(y, params) for y in range(n + 1)]

        def no_lgamma(x):
            raise AssertionError("pmf_table computed a log-factorial")

        monkeypatch.setattr(math, "lgamma", no_lgamma)
        assert pmf_table(params).tolist() == expected


class TestGrid:
    @pytest.mark.parametrize("name", ["n=1", "all zero", "all n", "interior only", "soybean",
                                      "mixed n=20"])
    def test_matches_scalar_kernel(self, name):
        data = DATASETS[name]
        rng = np.random.default_rng(99)
        ps = np.concatenate([[0.0, 1.0], rng.random(9)])
        rhos = np.concatenate([[0.0, 1.0], rng.random(7)])
        surface = log_likelihood_grid(data, ps, rhos)
        assert surface.shape == (ps.size, rhos.size)
        for i, p in enumerate(ps.tolist()):
            for j, rho in enumerate(rhos.tolist()):
                assert_close(surface[i, j], loglik(data.stats, p, rho), 1e-12)
