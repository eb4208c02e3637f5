"""Brute-force grid maximization of the CB log-likelihood.

This is the slow route to the maximum-likelihood estimate that does not
iterate: score the whole (p, rho) unit square on a regular grid, then
repeatedly shrink the window around the incumbent and rescan.  It exists
to cross-check the EM updates, which should land on the same maximum.

Each round runs the package's one likelihood kernel over its grid in
blocks of whole p-rows, a few tens of thousands of cells each, so that the
kernel's output and scratch arrays stay in cache and no full surface is
built.  The data enter through their sufficient statistics, so a scan costs
a few passes over the grid whatever the data.  Every cell is scored, with
the same arithmetic as a full-surface scan, and exact ties are broken
toward the smallest p, then the smallest rho.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import Dataset, loglik

__all__ = ["GridResult", "GridSpec", "grid_mle", "log_likelihood_grid"]


@dataclass(frozen=True)
class GridSpec:
    """Resolution and refinement schedule for the grid search.

    The defaults (2001 points per axis, 3 refinement rounds shrinking the
    window to 5% each time) resolve the maximizer to well below 1e-5 per
    coordinate at desk-scale cost.
    """

    coarse_resolution: int = 2001
    refine_rounds: int = 3
    refine_shrink: float = 0.05

    def __post_init__(self):
        if not (isinstance(self.coarse_resolution, (int, np.integer)) and self.coarse_resolution >= 11):
            raise ValueError(f"coarse_resolution must be an integer >= 11, got {self.coarse_resolution!r}")
        if not (isinstance(self.refine_rounds, (int, np.integer)) and self.refine_rounds >= 0):
            raise ValueError(f"refine_rounds must be a non-negative integer, got {self.refine_rounds!r}")
        if not 0.0 < self.refine_shrink < 1.0:
            raise ValueError(f"refine_shrink must lie strictly inside (0, 1), got {self.refine_shrink!r}")


class GridResult(NamedTuple):
    p: float
    rho: float
    log_likelihood: float


def log_likelihood_grid(data: Dataset, p_values: np.ndarray, rho_values: np.ndarray) -> np.ndarray:
    """CB log-likelihood on the outer product of two parameter grids.

    Returns an array of shape ``(len(p_values), len(rho_values))``: the
    kernel :func:`corrbinom.model.loglik` on a column of p values and a row
    of rho values.  Each cell matches ``log_likelihood(data, CBParams(n, p,
    rho))`` to the last bits, where numpy's log and exp round differently
    from math's.  Impossible parameter/data combinations come back as -inf.
    """
    p = np.asarray(p_values, dtype=float)[:, None]
    rho = np.asarray(rho_values, dtype=float)[None, :]
    return loglik(data.stats, p, rho)


# Cells scored per block: about 256 KB per float64 array, so the kernel's
# output and scratch buffer stay in a core's L2 cache.
_BLOCK_CELLS = 32_768


def _round_best(data: Dataset, ps: np.ndarray, rs: np.ndarray) -> GridResult:
    """First maximum of the (ps, rs) surface in row-major order, scanned in
    blocks of whole rows."""
    rows_per_block = max(1, _BLOCK_CELLS // len(rs))
    top, top_row, top_col = -np.inf, 0, 0
    for start in range(0, len(ps), rows_per_block):
        block = log_likelihood_grid(data, ps[start:start + rows_per_block], rs)
        block_top = block.max()
        # Strictly greater: a tie with an earlier block keeps the earlier
        # cell, and an all -inf surface keeps its first cell.  np.nonzero
        # lists hits in row-major order, so with ascending grids the first
        # is the smallest p, then the smallest rho.
        if block_top > top:
            rows, cols = np.nonzero(block == block_top)
            top, top_row, top_col = block_top, start + rows[0], cols[0]
    return GridResult(float(ps[top_row]), float(rs[top_col]), float(top))


def _best_of(a: GridResult, b: GridResult) -> GridResult:
    if a.log_likelihood != b.log_likelihood:
        return a if a.log_likelihood > b.log_likelihood else b
    return a if (a.p, a.rho) <= (b.p, b.rho) else b


def grid_mle(data: Dataset, spec: GridSpec | None = None) -> GridResult:
    """Locate the CB maximum-likelihood estimate by grid refinement.

    Scans ``[0, 1]^2`` at ``spec.coarse_resolution`` points per axis
    (endpoints included), then for each refinement round shrinks the
    window by ``spec.refine_shrink`` around the best point so far, clipped
    to the unit square, and rescans.  The best point carries across
    rounds, so refinement never loses ground.  Each round is scored in
    blocks of whole p-rows through :func:`log_likelihood_grid`; the result
    is the first maximum in row-major order, as a full-surface scan gives.
    """
    if spec is None:
        spec = GridSpec()
    lo_p, hi_p = 0.0, 1.0
    lo_r, hi_r = 0.0, 1.0
    best: GridResult | None = None
    for _ in range(spec.refine_rounds + 1):
        ps = np.linspace(lo_p, hi_p, spec.coarse_resolution)
        rs = np.linspace(lo_r, hi_r, spec.coarse_resolution)
        cand = _round_best(data, ps, rs)
        best = cand if best is None else _best_of(best, cand)
        half_p = (hi_p - lo_p) * spec.refine_shrink / 2.0
        half_r = (hi_r - lo_r) * spec.refine_shrink / 2.0
        lo_p, hi_p = max(0.0, best.p - half_p), min(1.0, best.p + half_p)
        lo_r, hi_r = max(0.0, best.rho - half_r), min(1.0, best.rho + half_r)
    return best
