"""EM estimation of the correlated binomial parameters.

The estimator treats the component membership of each observation as a
latent indicator.  The E-step computes the posterior probability (the
responsibility) that an observation came from the two-point component;
only counts sitting on the boundary set {0, n} can carry a nonzero
responsibility, one value ``tau0`` at 0 and one ``taun`` at n.  The M-step
has closed forms: the new mixture weight is the mean responsibility, and
the new success probability is a responsibility-weighted success fraction.
So a fit reads the data only through :attr:`corrbinom.model.Dataset.stats`,
one pass is a few scalar operations plus one call of the likelihood kernel
:func:`corrbinom.model.loglik`, and the per-observation responsibilities
are expanded once, at the end.

The loop semantics are pinned so fits are exactly reproducible: one
unconditional update before the loop, an iteration counter that starts at
1 and increments once per loop pass, and a stop as soon as either
parameter moves less than ``epsilon`` between consecutive passes (or the
iteration cap is reached).  Note the "either" in that rule: on data where
one parameter stalls early the loop can stop while the other is still
drifting at a scale far above ``epsilon``.  The mixture weight update has
an absorbing boundary at zero (once ``rho`` is exactly 0 every later
update keeps it 0), which is why start values must be strictly interior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import (CBParams, Dataset, SufficientStats, _log, _log1p, _xlog, boundary_factors,
                    loglik)

__all__ = ["EMConfig", "EMResult", "FitDegeneracyError", "e_step", "em_fit", "m_step",
           "q_function"]


class FitDegeneracyError(RuntimeError):
    """A fit reached a state assigning zero probability to an observation.

    Attributes
    ----------
    observation_index : int or None
        Position of the offending observation in the dataset.
    iteration : int or None
        EM iteration at which the degeneracy was detected.
    """

    def __init__(self, message: str, *, observation_index: int | None = None,
                 iteration: int | None = None):
        super().__init__(message)
        self.observation_index = observation_index
        self.iteration = iteration


@dataclass(frozen=True)
class EMConfig:
    """Controls for the EM loop.

    Start values must be strictly inside (0, 1): ``start_rho = 0`` is an
    absorbing fixed point that would silently return the plain binomial
    MLE, so it is rejected instead of tolerated.
    """

    start_p: float = 0.5
    start_rho: float = 0.5
    max_iterations: int = 1000
    epsilon: float = 1e-15

    def __post_init__(self):
        if not 0.0 < self.start_p < 1.0:
            raise ValueError(f"start_p must lie strictly inside (0, 1), got {self.start_p!r}")
        if not 0.0 < self.start_rho < 1.0:
            raise ValueError(f"start_rho must lie strictly inside (0, 1), got {self.start_rho!r}")
        if not (isinstance(self.max_iterations, (int, np.integer)) and self.max_iterations >= 1):
            raise ValueError(f"max_iterations must be an integer >= 1, got {self.max_iterations!r}")
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon!r}")


@dataclass
class EMResult:
    """Outcome of one EM fit.

    ``responsibilities`` are the E-step values that produced the final
    parameter update, so ``rho_hat`` is their mean, summed as
    ``count_0 * tau0 + count_n * taun`` (a sequential float sum of the array
    can differ from that in the last bit).
    ``trajectory`` records ``(p, rho, log_likelihood)`` per update,
    starting with the start values.
    """

    p_hat: float
    rho_hat: float
    iterations: int
    converged_p: bool
    converged_rho: bool
    log_likelihood: float
    responsibilities: np.ndarray
    trajectory: list[tuple[float, float, float]] = field(repr=False, default_factory=list)

    @property
    def converged(self) -> bool:
        """True when the loop stopped on the movement test, not the cap."""
        return self.converged_p or self.converged_rho


def _boundary_responsibilities(data: Dataset, p: float, rho: float) -> tuple[float, float]:
    """``(tau0, taun)``, or FitDegeneracyError naming the first impossible observation."""
    stats = data.stats
    f_0, f_n = boundary_factors(data.n, p, rho)
    # cb_pmf(0) = (1 - p) f0 and cb_pmf(n) = p fn; for 0 < y < n the PMF is
    # (1 - rho) * Binomial(y), which vanishes only when rho = 1 or p is 0 or 1.
    zero_0 = p == 1.0 or f_0 <= 0.0
    zero_n = p == 0.0 or f_n <= 0.0
    zero_interior = rho == 1.0 or p == 0.0 or p == 1.0
    if ((stats.count_0 and zero_0) or (stats.count_n and zero_n)
            or (stats.interior_count and zero_interior)):
        obs = data.observations
        zero = np.where(obs == 0, zero_0, np.where(obs == data.n, zero_n, zero_interior))
        i = int(np.argmax(zero))
        raise FitDegeneracyError(f"zero probability for observation {i} (y={obs[i]})",
                                 observation_index=i)
    return (rho / f_0 if stats.count_0 else 0.0), (rho / f_n if stats.count_n else 0.0)


def _expand(data: Dataset, tau_0: float, tau_n: float) -> np.ndarray:
    obs = data.observations
    return np.where(obs == 0, tau_0, np.where(obs == data.n, tau_n, 0.0))


def e_step(data: Dataset, params: CBParams) -> np.ndarray:
    """Posterior two-point-component responsibilities, one per observation.

    For y on the boundary set {0, n} the responsibility is
    ``rho * two_point(y) / cb_pmf(y)``; elsewhere it is exactly 0.

    Raises
    ------
    FitDegeneracyError
        If the model assigns zero probability to any observation.
    """
    if data.n != params.n:
        raise ValueError(f"dataset n={data.n} does not match params n={params.n}")
    return _expand(data, *_boundary_responsibilities(data, params.p, params.rho))


def _binomial_counts(stats: SufficientStats, share_0: float, share_n: float) -> tuple[float, float]:
    """Expected binomial successes and failures, given the sums ``share_0``
    of ``tau (n - y) / n`` and ``share_n`` of ``tau y / n``: a two-point
    count with weight tau counts as one trial instead of n."""
    n = stats.n
    return (stats.successes - (n - 1) * share_n,
            n * stats.k - stats.successes - (n - 1) * share_0)


def _shares(data: Dataset, responsibilities) -> tuple[np.ndarray, float, float]:
    tau = np.asarray(responsibilities, dtype=float)
    if tau.shape != (data.k,):
        raise ValueError(f"expected {data.k} responsibilities, got shape {tau.shape}")
    obs = data.observations
    return tau, float(tau @ (data.n - obs)) / data.n, float(tau @ obs) / data.n


def m_step(data: Dataset, responsibilities: np.ndarray) -> tuple[float, float]:
    """Closed-form parameter update for fixed responsibilities.

    Returns the pair ``(p, rho)`` maximizing the expected complete-data
    log-likelihood: ``rho`` is the mean responsibility and ``p`` is the
    ratio of responsibility-weighted success counts to responsibility-
    weighted trial counts (a boundary observation contributes y/n
    successes out of 1 effective trial, a binomial one y out of n).
    """
    tau, share_0, share_n = _shares(data, responsibilities)
    if tau.size and (tau.min() < 0.0 or tau.max() > 1.0):
        raise ValueError("responsibilities must lie in [0, 1]")
    successes, failures = _binomial_counts(data.stats, share_0, share_n)
    return successes / (successes + failures), float(tau.sum()) / data.k


def q_function(data: Dataset, responsibilities: np.ndarray, params: CBParams) -> float:
    """Expected complete-data log-likelihood under fixed responsibilities.

    This is the objective the M-step maximizes.  Products of the form
    0 * log(0) are taken as 0, so boundary parameter values score the
    terms they make irrelevant as zero rather than NaN.
    """
    if data.n != params.n:
        raise ValueError(f"dataset n={data.n} does not match params n={params.n}")
    tau, share_0, share_n = _shares(data, responsibilities)
    stats = data.stats
    p, rho = params.p, params.rho
    successes, failures = _binomial_counts(stats, share_0, share_n)
    total = float(tau.sum())
    log_coeffs = stats.log_coeffs[np.searchsorted(stats.values, data.observations)]
    return (_xlog(total, _log(rho)) + _xlog(data.k - total, _log1p(-rho))
            + _xlog(successes, _log(p)) + _xlog(failures, _log1p(-p))
            + stats.log_coeff - float(tau @ log_coeffs))


def em_fit(data: Dataset, config: EMConfig | None = None) -> EMResult:
    """Fit CB(n, p, rho) to the data by EM.

    Alternates the E-step and the M-step from the configured start values:
    one update before the loop, then passes that stop once either
    parameter moves less than ``config.epsilon`` or ``config.max_iterations``
    is reached.  The reported iteration count starts at 1 and increments
    once per loop pass.  A pass gives the values of :func:`e_step` plus
    :func:`m_step` up to float summation order.

    Raises
    ------
    FitDegeneracyError
        If any iterate assigns zero probability to an observation or the
        log-likelihood becomes non-finite; the error carries the iteration.
    """
    if config is None:
        config = EMConfig()
    stats = data.stats
    eps = config.epsilon
    p, rho = config.start_p, config.start_rho

    trajectory = [(p, rho, loglik(stats, p, rho))]

    def update(p, rho, iteration):
        try:
            tau = _boundary_responsibilities(data, p, rho)
        except FitDegeneracyError as exc:
            raise FitDegeneracyError(
                f"iteration {iteration}: {exc}",
                observation_index=exc.observation_index, iteration=iteration) from exc
        share_0, share_n = stats.count_0 * tau[0], stats.count_n * tau[1]
        successes, failures = _binomial_counts(stats, share_0, share_n)
        p_new, rho_new = successes / (successes + failures), (share_0 + share_n) / stats.k
        ll = loglik(stats, p_new, rho_new)
        if not math.isfinite(ll):
            raise FitDegeneracyError(
                f"iteration {iteration}: non-finite log-likelihood", iteration=iteration)
        trajectory.append((p_new, rho_new, ll))
        return tau, p_new, rho_new, ll

    tau, p, rho, ll = update(p, rho, 1)
    iterations = 1
    converged_p = converged_rho = False
    while iterations < config.max_iterations and not converged_p and not converged_rho:
        tau, p_new, rho_new, ll = update(p, rho, iterations + 1)
        converged_p = abs(p_new - p) < eps
        converged_rho = abs(rho_new - rho) < eps
        iterations += 1
        p, rho = p_new, rho_new

    return EMResult(
        p_hat=p,
        rho_hat=rho,
        iterations=iterations,
        converged_p=converged_p,
        converged_rho=converged_rho,
        log_likelihood=ll,
        responsibilities=_expand(data, *tau),
        trajectory=trajectory,
    )
