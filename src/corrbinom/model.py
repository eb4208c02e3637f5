"""The correlated binomial distribution CB(n, p, rho).

CB(n, p, rho) is a two-component mixture over {0, 1, ..., n}: with weight
``1 - rho`` a count is an ordinary Binomial(n, p) draw, and with weight
``rho`` it comes from a two-point distribution that puts mass ``1 - p`` at
0 and mass ``p`` at n.  The mixture weight ``rho`` is the conventional
proxy for positive correlation among the n underlying trials: at ``rho = 0``
the model is plain binomial, at ``rho = 1`` every trial in a draw agrees.

This module holds the parameter and data containers, the PMF, the
observed-data log-likelihood, and a seeded sampler.  Everything here is a
pure function of its inputs (the sampler is pure given its seed), so values
can be shared freely across threads or processes.

Only a count of 0 or n can come from the two-point component, so the
likelihood reads a dataset only through its sufficient statistics
(:attr:`Dataset.stats`).  :func:`loglik`, the one likelihood kernel, runs
on them for EM, the grid search and :func:`log_likelihood` alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = ["CBParams", "Dataset", "SufficientStats", "binomial_pmf", "boundary_factors", "cb_pmf",
           "log_binomial_coeff", "log_likelihood", "loglik", "pmf_table", "sample"]

# Per-observation probability floor applied by log_likelihood(clamp=True).
PROB_FLOOR = 1e-300


@dataclass(frozen=True)
class CBParams:
    """Parameter triple of the correlated binomial distribution.

    Attributes
    ----------
    n : int
        Number of trials per count, at least 1.
    p : float
        Success probability, in [0, 1].
    rho : float
        Mixture weight of the two-point component, in [0, 1].
    """

    n: int
    p: float
    rho: float

    def __post_init__(self):
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise ValueError(f"n must be an integer >= 1, got {self.n!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p!r}")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must lie in [0, 1], got {self.rho!r}")


@dataclass(frozen=True)
class SufficientStats:
    """All that the CB likelihood reads from a dataset of k counts."""

    n: int
    k: int
    count_0: int            # observations at 0 ...
    count_n: int            # ... and at n, all the two-point part can make
    interior_count: int     # observations strictly between 0 and n
    successes: int          # sum of the observations
    log_coeff: float        # sum of log C(n, y) (0 at y = 0 and y = n)
    # distinct counts, ascending, with multiplicities and log C(n, y)
    values: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)
    log_coeffs: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class Dataset:
    """Observed counts y_1..y_k sharing a single trial count n.

    The observations are normalized to a read-only int64 array; each y_i
    must satisfy 0 <= y_i <= n and there must be at least one observation.
    """

    n: int
    observations: np.ndarray

    def __post_init__(self):
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise ValueError(f"n must be an integer >= 1, got {self.n!r}")
        obs = np.asarray(self.observations)
        if obs.ndim != 1 or obs.size == 0:
            raise ValueError("observations must be a non-empty 1-d sequence")
        # Range before the cast, naming the value as given: integers beyond
        # int64 come in as an object or float array, and are outside [0, n].
        if obs.dtype.kind in "biufO" and (obs.min() < 0 or obs.max() > self.n):
            bad = list(self.observations)[int(np.argmax((obs < 0) | (obs > self.n)))]
            raise ValueError(f"observation {bad} outside [0, {self.n}]")
        if not np.issubdtype(obs.dtype, np.integer):
            as_int = obs.astype(np.int64)
            if not np.array_equal(as_int, obs):
                raise ValueError("observations must be integers")
            obs = as_int
        else:
            obs = obs.astype(np.int64)
        obs.flags.writeable = False
        object.__setattr__(self, "observations", obs)

    @property
    def k(self) -> int:
        """Number of observations."""
        return int(self.observations.size)

    @cached_property
    def stats(self) -> SufficientStats:
        """The observations reduced to their sufficient statistics, once."""
        values, counts = np.unique(self.observations, return_counts=True)
        log_coeffs = np.array([log_binomial_coeff(self.n, y) for y in values.tolist()])
        count_0 = int(counts[0]) if values[0] == 0 else 0
        count_n = int(counts[-1]) if values[-1] == self.n else 0
        return SufficientStats(self.n, self.k, count_0, count_n, self.k - count_0 - count_n,
                               int(values @ counts), float(counts @ log_coeffs),
                               values, counts, log_coeffs)


def log_binomial_coeff(n: int, y: int) -> float:
    """log C(n, y) via the log-gamma function; exact enough for n >> 1000."""
    return math.lgamma(n + 1) - math.lgamma(y + 1) - math.lgamma(n - y + 1)


def _pmf_at(params: CBParams, y: np.ndarray, log_coeff: np.ndarray) -> np.ndarray:
    """CB probabilities at the counts ``y`` (floats), written over ``log_coeff``.

    Every probability is computed here, so cb_pmf and pmf_table agree
    bitwise.  p = 0 and p = 1 follow 0**0 = 1: a unit binomial mass at 0 or n.
    """
    n, p, rho = params.n, params.p, params.rho
    prob = log_coeff
    if p == 0.0 or p == 1.0:
        prob[...] = y == (0 if p == 0.0 else n)
    else:
        buf = y * math.log(p)
        prob += buf
        np.subtract(n, y, out=buf)
        buf *= math.log1p(-p)
        prob += buf
        # math.exp, not np.exp, which can differ in the last bit: probabilities
        # and seeded samples stay as they were.  Both give 0 below -746.
        live = prob > -746.0
        prob[live] = list(map(math.exp, prob[live].tolist()))
        prob[~live] = 0.0
    prob *= 1.0 - rho
    prob[y == 0] += rho * (1.0 - p)
    prob[y == n] += rho * p
    return prob


def binomial_pmf(y: int, n: int, p: float) -> float:
    """Binomial(n, p) probability of exactly y successes, via log space."""
    return cb_pmf(y, CBParams(n, p, 0.0))


def cb_pmf(y: int, params: CBParams) -> float:
    """Correlated binomial probability of the count y.

    Equals ``(1 - rho) * Binomial(n, p) + rho * two_point(y)`` where the
    two-point component has mass ``1 - p`` at 0 and ``p`` at n (those are
    the y = 0 and y = n values of ``p**(y/n) * (1-p)**((n-y)/n)``).
    """
    if not (isinstance(y, (int, np.integer)) and 0 <= y <= params.n):
        raise ValueError(f"count y={y!r} outside [0, {params.n}]")
    prob = _pmf_at(params, np.array([float(y)]), np.array([log_binomial_coeff(params.n, y)]))
    return float(prob[0])


def pmf_table(params: CBParams) -> np.ndarray:
    """All CB probabilities for y = 0..n, in order; equal to cb_pmf bitwise."""
    n = params.n
    y = np.arange(n + 1, dtype=float)
    if params.p == 0.0 or params.p == 1.0:
        # _pmf_at writes over the coefficients unread; skip the n + 1 lgammas
        return _pmf_at(params, y, np.empty(n + 1))
    log_factorial = np.fromiter(map(math.lgamma, range(1, n + 2)), float, n + 1)
    log_coeff = log_factorial[n] - log_factorial
    log_coeff -= log_factorial[::-1]
    return _pmf_at(params, y, log_coeff)


def _xlog(coeff, log_value):
    # coeff * log(value), with 0 * log(0) taken as 0
    return coeff * log_value if coeff else 0.0


def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


def _log1p(x: float) -> float:
    return math.log1p(x) if x > -1.0 else -math.inf


def boundary_factors(n: int, p: float, rho: float) -> tuple[float, float]:
    """``(f0, fn) = ((1-rho) (1-p)^(n-1) + rho, (1-rho) p^(n-1) + rho)``.

    So ``cb_pmf(0) = (1 - p) f0`` and ``cb_pmf(n) = p fn``, and the E-step
    responsibilities are ``rho / f0`` and ``rho / fn``.
    """
    return ((1.0 - rho) * math.exp(_xlog(n - 1, _log1p(-p))) + rho,
            (1.0 - rho) * math.exp(_xlog(n - 1, _log(p))) + rho)


def _binomial_counts(stats: SufficientStats, share_0, share_n):
    """Binomial successes and failures, given the sums ``share_0`` of
    ``tau (n - y) / n`` and ``share_n`` of ``tau y / n`` over the counts at
    0 and at n: a count from the two-point part, with weight tau, counts as
    one trial instead of n.  With every tau = 1 these are the exponents of
    ``p`` and ``1 - p`` in :func:`loglik`."""
    n = stats.n
    return (stats.successes - (n - 1) * share_n,
            n * stats.k - stats.successes - (n - 1) * share_0)


def loglik(stats: SufficientStats, p, rho):
    """Observed-data CB log-likelihood; -inf if an observation is impossible.

    ``p`` and ``rho`` are floats, or numpy arrays that broadcast to a grid.
    A count 0 < y < n adds ``log(1-rho) + log C(n, y) + y log p + (n-y)
    log(1-p)``, a count 0 adds ``log(1-p) + log f0`` and a count n ``log p +
    log fn`` (:func:`boundary_factors`): only the last terms need the full
    grid, and they are built in place in one scratch buffer.
    """
    n, count_0, count_n = stats.n, stats.count_0, stats.count_n
    exponent_p, exponent_q = _binomial_counts(stats, count_0, count_n)
    if not (isinstance(p, np.ndarray) or isinstance(rho, np.ndarray)):
        f_0, f_n = boundary_factors(n, p, rho)
        return (stats.log_coeff + _xlog(exponent_p, _log(p)) + _xlog(exponent_q, _log1p(-p))
                + _xlog(stats.interior_count, _log1p(-rho))
                + _xlog(count_0, _log(f_0)) + _xlog(count_n, _log(f_n)))
    with np.errstate(divide="ignore"):
        log_p, log_q = np.log(p), np.log1p(-p)
        m = stats.interior_count
        # a zero row without interior counts still gives out the full shape
        out = np.add(stats.log_coeff + _xlog(exponent_p, log_p) + _xlog(exponent_q, log_q),
                     m * np.log1p(-rho) if m else np.zeros_like(rho))
        buf = np.empty_like(out)
        for count, log_edge in ((count_0, log_q), (count_n, log_p)):
            if count:
                np.multiply(1.0 - rho, np.exp(_xlog(n - 1, log_edge)), out=buf)
                buf += rho
                np.log(buf, out=buf)
                buf *= count
                out += buf
    return out


def _finite_loglik(stats, p: np.ndarray, rho: np.ndarray, f_0: np.ndarray,
                   f_n: np.ndarray) -> np.ndarray:
    """Per fit, ``math.isfinite(loglik(stats_i, p_i, rho_i))``, where the
    fields of ``stats`` and the other arguments are arrays with one entry
    per fit and (f_0, f_n) are the boundary factors.  loglik sums
    non-negative counts times logs plus a finite constant, and no term is
    +inf, so it is finite exactly where every log with a positive count
    has its argument in that log's domain (its sum is far too small to
    overflow)."""
    count_0, count_n = stats.count_0, stats.count_n
    exponent_p, exponent_q = _binomial_counts(stats, count_0, count_n)
    interior = stats.k - count_0 - count_n
    return (((exponent_p == 0) | (p > 0.0)) & ((exponent_q == 0) | (p < 1.0))
            & ((interior == 0) | (rho < 1.0))
            & ((count_0 == 0) | (f_0 > 0.0)) & ((count_n == 0) | (f_n > 0.0)))


def log_likelihood(data: Dataset, params: CBParams, clamp: bool = False) -> float:
    """Observed-data log-likelihood of the CB parameters.

    Parameters
    ----------
    data : Dataset
        Counts to score; ``data.n`` must match ``params.n``.
    params : CBParams
        Parameter triple to evaluate.
    clamp : bool
        When False (default) a zero-probability observation makes the
        result -inf, honestly.  When True, per-observation probabilities
        are floored at ``PROB_FLOOR`` so the result stays finite.

    Returns
    -------
    float
        Sum of log CB probabilities over the observations, from
        :func:`loglik`.  Interior terms are summed in log space, so a
        probability too small for a float still scores finitely.
    """
    if data.n != params.n:
        raise ValueError(f"dataset n={data.n} does not match params n={params.n}")
    stats = data.stats
    if clamp:
        probs = _pmf_at(params, stats.values.astype(float), stats.log_coeffs.copy())
        if probs.min() < PROB_FLOOR:
            return float(stats.counts @ np.log(np.maximum(probs, PROB_FLOOR)))
    return loglik(stats, params.p, params.rho)


def sample(params: CBParams, k: int, seed: int) -> Dataset:
    """Draw k independent CB counts, reproducibly.

    Each draw is the inverse-CDF transform of one uniform variate from a
    PCG64 generator seeded with ``seed``, applied to the exact CB
    probability table.  The generator and the transform are both fixed, so
    a given (params, k, seed) always produces the identical dataset.
    """
    if not (isinstance(k, (int, np.integer)) and k >= 1):
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    rng = np.random.default_rng(seed)
    return Dataset(n=params.n, observations=_draws(np.cumsum(pmf_table(params)), rng.random(k)))


def _draws(cdf: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Inverse-CDF transform of uniform variates (any shape) into counts
    0..n, given the cumulative table of the n + 1 probabilities."""
    draws = np.searchsorted(cdf, uniforms, side="right")
    # cumsum can round the final CDF value a hair below 1.0
    np.minimum(draws, cdf.size - 1, out=draws)
    return draws
