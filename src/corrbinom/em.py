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
are expanded once, at the end.  The pass arithmetic is written once and
takes floats or arrays: :func:`corrbinom.simulate.run_scenario` runs it
on all replications of a study at once.

The loop semantics are pinned so fits are exactly reproducible: one loop
whose pass is an E-step, an M-step and the log-likelihood of the new
iterate; an iteration counter that counts the passes; and, from the second
pass on, a stop as soon as either parameter moves less than ``epsilon``
between consecutive passes (or the iteration cap is reached).  The first
update is never tested against the start values.  Note the "either" in
that rule: on data where one parameter stalls early the loop can stop
while the other is still drifting at a scale far above ``epsilon``.  The
mixture weight update has an absorbing boundary at zero (once ``rho`` is
exactly 0 every later update keeps it 0), which is why start values must
be strictly interior.

A fit has one degeneracy rule: every iterate must have a finite
log-likelihood.  It also rules out zero mass, because an iterate that
gives an observation zero probability has log-likelihood -inf, so no pass
starts from one.  :func:`e_step`, which takes any parameters, checks for
zero mass itself and names the first impossible observation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import (CBParams, Dataset, _binomial_counts, _log, _log1p, _xlog, boundary_factors,
                    loglik)

__all__ = ["EMConfig", "EMResult", "FitDegeneracyError", "e_step", "em_fit", "m_step",
           "q_function"]


class FitDegeneracyError(RuntimeError):
    """Parameters give an observation zero probability or a fit a
    non-finite log-likelihood.

    Attributes
    ----------
    observation_index : int or None
        Position of the first offending observation in the dataset; set
        only by :func:`e_step`.
    iteration : int or None
        EM iteration at which the degeneracy was detected; set only by
        :func:`em_fit`.
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
        If the model assigns zero probability to an observation; it names
        the first such observation.
    """
    if data.n != params.n:
        raise ValueError(f"dataset n={data.n} does not match params n={params.n}")
    stats, p, rho = data.stats, params.p, params.rho
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
    return _expand(data, rho / f_0 if stats.count_0 else 0.0, rho / f_n if stats.count_n else 0.0)


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
    if not (0.0 <= tau.min() and tau.max() <= 1.0):
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


def _em_pass(stats, rho, f_0, f_n):
    """One EM pass from an iterate with mixture weight ``rho`` and boundary
    factors ``(f_0, f_n)``: returns ``(p, rho, tau0, taun)``, the closed-form
    update and the boundary responsibilities that produced it.

    ``stats`` is a :class:`~corrbinom.model.SufficientStats` with floats
    for the rest, or carries one array entry per fit in ``count_0``,
    ``count_n`` and ``successes`` with arrays for the rest.  The arithmetic
    is the same ``+ - * /`` either way, and numpy rounds it as Python does,
    so each fit gets bitwise the float pass.
    """
    count_0, count_n = stats.count_0, stats.count_n
    # a responsibility is 0 where the data has no such count (f may be 0 there)
    if isinstance(rho, np.ndarray):
        tau_0 = np.divide(rho, f_0, out=np.zeros_like(f_0), where=count_0 > 0)
        tau_n = np.divide(rho, f_n, out=np.zeros_like(f_n), where=count_n > 0)
    else:
        tau_0 = rho / f_0 if count_0 else 0.0
        tau_n = rho / f_n if count_n else 0.0
    share_0, share_n = count_0 * tau_0, count_n * tau_n
    successes, failures = _binomial_counts(stats, share_0, share_n)
    return successes / (successes + failures), (share_0 + share_n) / stats.k, tau_0, tau_n


def _nonfinite_loglik(iteration: int) -> FitDegeneracyError:
    return FitDegeneracyError(f"iteration {iteration}: non-finite log-likelihood",
                              iteration=iteration)


def em_fit(data: Dataset, config: EMConfig | None = None) -> EMResult:
    """Fit CB(n, p, rho) to the data by EM.

    One loop alternates the E-step and the M-step from the configured start
    values.  Each pass computes the boundary responsibilities, the
    closed-form update and the new iterate's log-likelihood; from the
    second pass on it stops once either parameter moves less than
    ``config.epsilon``, and it always stops after ``config.max_iterations``
    passes.  The first pass is never tested.  The reported iteration count
    is the number of passes.  A pass gives the values of :func:`e_step`
    plus :func:`m_step` up to float summation order.

    An iterate is accepted only if its log-likelihood is finite.  That one
    rule also covers zero mass: an iterate that gives an observation zero
    probability has log-likelihood -inf (no term can be +inf), and the
    start values are strictly interior, so every pass starts from
    parameters that give every observation positive probability.

    Raises
    ------
    FitDegeneracyError
        If an iterate's log-likelihood is not finite; the error carries the
        iteration.
    """
    if config is None:
        config = EMConfig()
    stats = data.stats
    p, rho = config.start_p, config.start_rho
    trajectory = [(p, rho, loglik(stats, p, rho))]
    iterations = 0
    converged_p = converged_rho = False
    while iterations < config.max_iterations and not converged_p and not converged_rho:
        iterations += 1
        f_0, f_n = boundary_factors(stats.n, p, rho)
        p_new, rho_new, tau_0, tau_n = _em_pass(stats, rho, f_0, f_n)
        ll = loglik(stats, p_new, rho_new)
        if not math.isfinite(ll):
            raise _nonfinite_loglik(iterations)
        trajectory.append((p_new, rho_new, ll))
        if iterations > 1:
            converged_p = abs(p_new - p) < config.epsilon
            converged_rho = abs(rho_new - rho) < config.epsilon
        p, rho = p_new, rho_new

    return EMResult(
        p_hat=p,
        rho_hat=rho,
        iterations=iterations,
        converged_p=converged_p,
        converged_rho=converged_rho,
        log_likelihood=ll,
        responsibilities=_expand(data, tau_0, tau_n),
        trajectory=trajectory,
    )
