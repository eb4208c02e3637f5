"""grid_mle scans each round in blocks of p-rows; it must give exactly what
one full-surface scan per round gives, wherever the block edges fall."""

import numpy as np
import pytest

from corrbinom import CBParams, Dataset, GridResult, GridSpec, gridsearch, sample
from corrbinom.gridsearch import grid_mle, log_likelihood_grid
from conftest import SOYBEAN_COUNTS, SOYBEAN_N, STUDY_SCENARIOS


def full_scan_mle(data: Dataset, spec: GridSpec) -> GridResult:
    """Reference: the whole grid of each round in one kernel call, then the
    first maximum in row-major order, refined as grid_mle refines."""
    lo_p, hi_p = 0.0, 1.0
    lo_r, hi_r = 0.0, 1.0
    best = None
    for _ in range(spec.refine_rounds + 1):
        ps = np.linspace(lo_p, hi_p, spec.coarse_resolution)
        rs = np.linspace(lo_r, hi_r, spec.coarse_resolution)
        surface = log_likelihood_grid(data, ps, rs)
        rows, cols = np.nonzero(surface == surface.max())
        cand = GridResult(float(ps[rows[0]]), float(rs[cols[0]]), float(surface[rows[0], cols[0]]))
        if best is None or cand.log_likelihood > best.log_likelihood or (
                cand.log_likelihood == best.log_likelihood and (cand.p, cand.rho) < (best.p, best.rho)):
            best = cand
        half_p = (hi_p - lo_p) * spec.refine_shrink / 2.0
        half_r = (hi_r - lo_r) * spec.refine_shrink / 2.0
        lo_p, hi_p = max(0.0, best.p - half_p), min(1.0, best.p + half_p)
        lo_r, hi_r = max(0.0, best.rho - half_r), min(1.0, best.rho + half_r)
    return best


SOYBEAN = Dataset(n=SOYBEAN_N, observations=SOYBEAN_COUNTS)
EDGE_DATA = {
    "n_one": Dataset(n=1, observations=[0, 1, 1, 0, 1]),
    "all_zero": Dataset(n=5, observations=[0, 0, 0, 0]),
    "all_n": Dataset(n=5, observations=[5, 5, 5]),
}
# 20 seeded draws, cycling through the six study scenarios
SAMPLED = [sample(CBParams(*STUDY_SCENARIOS[i % len(STUDY_SCENARIOS)]), 30, 4040 + i)
           for i in range(20)]
ALL_DATA = [SOYBEAN, *EDGE_DATA.values(), *SAMPLED]
DATA_IDS = ["soybean", *EDGE_DATA, *(f"sample{i}" for i in range(len(SAMPLED)))]


@pytest.mark.parametrize("resolution", [11, 17])
@pytest.mark.parametrize("data", ALL_DATA, ids=DATA_IDS)
def test_matches_full_scan_small_grids(data, resolution):
    spec = GridSpec(coarse_resolution=resolution, refine_rounds=3, refine_shrink=0.2)
    assert grid_mle(data, spec) == full_scan_mle(data, spec)


@pytest.mark.parametrize("data", [SOYBEAN, *EDGE_DATA.values(), SAMPLED[0]],
                         ids=["soybean", *EDGE_DATA, "sample0"])
def test_matches_full_scan_default_grid(data):
    # 2001 points per axis: many blocks per round, the last one partial
    spec = GridSpec()
    assert grid_mle(data, spec) == full_scan_mle(data, spec)


@pytest.mark.parametrize("block_rows", [1, 3])
@pytest.mark.parametrize("resolution", [11, 12, 17, 18])
@pytest.mark.parametrize("data", ALL_DATA[:8], ids=DATA_IDS[:8])
def test_matches_full_scan_with_tiny_blocks(monkeypatch, data, resolution, block_rows):
    monkeypatch.setattr(gridsearch, "_BLOCK_CELLS", block_rows * resolution)
    spec = GridSpec(coarse_resolution=resolution, refine_rounds=2, refine_shrink=0.3)
    assert grid_mle(data, spec) == full_scan_mle(data, spec)


class TestBlockEdges:
    @pytest.mark.parametrize("block_rows", [1, 3])
    @pytest.mark.parametrize("resolution", [12, 18])
    def test_tie_split_across_blocks_keeps_smaller_p(self, monkeypatch, resolution, block_rows):
        # symmetric counts on an even grid: rows res/2 - 1 and res/2 mirror
        # p around 1/2 and tie exactly, and with these block sizes the two
        # rows land in different blocks
        data = Dataset(n=2, observations=[0, 2])
        spec = GridSpec(coarse_resolution=resolution, refine_rounds=0, refine_shrink=0.5)
        ps = np.linspace(0.0, 1.0, resolution)
        surface = log_likelihood_grid(data, ps, ps)
        rows = np.nonzero(surface == surface.max())[0]
        lower = resolution // 2 - 1
        assert set(rows.tolist()) == {lower, lower + 1}
        assert lower // block_rows != (lower + 1) // block_rows
        monkeypatch.setattr(gridsearch, "_BLOCK_CELLS", block_rows * resolution)
        result = grid_mle(data, spec)
        assert result == full_scan_mle(data, spec)
        assert result.p == ps[lower]

    def test_first_block_all_minus_inf(self, monkeypatch):
        # a count at n makes the p = 0 row impossible; with one row per block
        # the whole first block is -inf
        spec = GridSpec(coarse_resolution=11, refine_rounds=1, refine_shrink=0.2)
        ps = np.linspace(0.0, 1.0, 11)
        assert np.isneginf(log_likelihood_grid(SOYBEAN, ps[:1], ps)).all()
        monkeypatch.setattr(gridsearch, "_BLOCK_CELLS", 11)
        result = grid_mle(SOYBEAN, spec)
        assert result == full_scan_mle(SOYBEAN, spec)
        assert np.isfinite(result.log_likelihood)

    @pytest.mark.parametrize("block_rows", [1, 3])
    def test_maximum_in_last_partial_block(self, monkeypatch, block_rows):
        # all counts at n: the likelihood rises with p, so the maximum sits in
        # the p = 1 row, the last block, which 11 rows in threes leave partial
        data = EDGE_DATA["all_n"]
        spec = GridSpec(coarse_resolution=11, refine_rounds=0, refine_shrink=0.5)
        monkeypatch.setattr(gridsearch, "_BLOCK_CELLS", block_rows * 11)
        result = grid_mle(data, spec)
        assert result == full_scan_mle(data, spec)
        assert result.p == 1.0

    def test_every_cell_is_scored_once(self, monkeypatch):
        # the blocks tile each round's grid: no row skipped or scored twice
        seen = []

        def recording(data, p_values, rho_values):
            seen.append((np.array(p_values), len(rho_values)))
            return log_likelihood_grid(data, p_values, rho_values)

        monkeypatch.setattr(gridsearch, "_BLOCK_CELLS", 3 * 17)
        monkeypatch.setattr(gridsearch, "log_likelihood_grid", recording)
        spec = GridSpec(coarse_resolution=17, refine_rounds=0, refine_shrink=0.5)
        grid_mle(SOYBEAN, spec)
        assert [len(p) for p, _ in seen] == [3, 3, 3, 3, 3, 2]
        assert all(width == 17 for _, width in seen)
        assert np.array_equal(np.concatenate([p for p, _ in seen]), np.linspace(0.0, 1.0, 17))
