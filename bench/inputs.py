"""Seeded inputs and fixed sizes for the benchmark workloads.

Every random input is drawn from a numpy PCG64 stream keyed on the
workload seed plus a fixed key (workload, item), so the same seed always
gives the same inputs and no two items share a stream.  The
datasets fitted by the ``bigdata`` and ``oracle`` workloads come from the
benchmark's own CB mixture draw, not from ``corrbinom.sample``, so a change
to the program's sampler cannot change what the fitter is given.
"""

from __future__ import annotations

import numpy as np

# IAC23 soybean selection study: plants selected per plot of 6 after 15 days.
SOYBEAN_N = 6
SOYBEAN_COUNTS = (4, 4, 6, 2, 3, 3, 3, 5, 5, 6, 6, 3, 3, 4, 1, 1, 5, 4, 4, 2)

# Stream keys of the workloads that draw their own data.
BIGDATA, ORACLE = 1, 2

# study: the paper's six reference scenarios (n, p, rho) at k = 30.  One
# round runs each scenario for STUDY_REPS replications and draws its glyph.
STUDY_SCENARIOS = ((10, 0.5, 0.8), (20, 0.5, 0.8), (10, 0.2, 0.9),
                   (20, 0.2, 0.9), (10, 0.5, 0.5), (20, 0.5, 0.5))
STUDY_K = 30
STUDY_REPS = 300
# Replications 0..STUDY_CHECKED_REPS-1 of every scenario are re-fitted alone
# and must match the report bitwise.
STUDY_CHECKED_REPS = 10
GLYPH_RESOLUTION = 201

# bigdata: em_fit at large k, at a point EM leaves in about 7 passes
# (10, .5, .8) and one that takes about 18 (10, .3, .3); sample at large n,
# checked but not fitted.  Slower points such as (6, .6, .1) or (6, .6, .2)
# reach the 1000-pass cap on about one dataset in ten or twenty at these k,
# at 30-55 s a fit, which no run of this length can absorb.
BIGDATA_FITS = ((10, 0.5, 0.8, 20_000), (10, 0.3, 0.3, 10_000), (10, 0.5, 0.8, 100_000))
BIGDATA_SAMPLES = ((100_000, 0.5, 0.5, 100_000), (1_000_000, 0.3, 0.6, 100_000))

# oracle: the soybean counts plus generated sets (n, p, rho, k).  A grid
# check costs about one full-grid scan per distinct interior count, so the
# sets span roughly 3 to 80 distinct interior counts.
ORACLE_GENERATED = ((20, 0.2, 0.9, 100), (100, 0.4, 0.5, 200), (1000, 0.5, 0.5, 1000))


def stream(seed: int, *key: int) -> np.random.Generator:
    """PCG64 generator for one (seed, key) pair; any integer seed is accepted."""
    sequence = np.random.SeedSequence(seed % 2 ** 64, spawn_key=key)
    return np.random.Generator(np.random.PCG64(sequence))


def derived_seed(seed: int, *key: int) -> int:
    """A 63-bit seed derived from (seed, key), for seeds passed to the program."""
    sequence = np.random.SeedSequence(seed % 2 ** 64, spawn_key=key)
    return int(sequence.generate_state(1, np.uint64)[0] >> np.uint64(1))


def cb_mixture(rng: np.random.Generator, n: int, p: float, rho: float, k: int) -> np.ndarray:
    """k CB(n, p, rho) counts: pick the component, then a Binomial draw or an endpoint."""
    two_point = rng.random(k) < rho
    endpoint = np.where(rng.random(k) < p, n, 0)
    binomial = rng.binomial(n, p, k)
    return np.where(two_point, endpoint, binomial).astype(np.int64)


def study_master_seed(seed: int) -> int:
    """The workload seed, as the master seed handed to run_scenario."""
    return seed % 2 ** 64


def bigdata_fit_inputs(seed: int) -> list[tuple[int, np.ndarray]]:
    """(n, counts) for every bigdata fit."""
    return [(n, cb_mixture(stream(seed, BIGDATA, i), n, p, rho, k))
            for i, (n, p, rho, k) in enumerate(BIGDATA_FITS)]


def bigdata_sample_seeds(seed: int) -> list[int]:
    """Seeds handed to corrbinom.sample."""
    return [derived_seed(seed, BIGDATA, len(BIGDATA_FITS) + i)
            for i in range(len(BIGDATA_SAMPLES))]


def oracle_corpus(seed: int) -> list[tuple[str, int, np.ndarray]]:
    """(label, n, counts) for the oracle corpus: soybean first, then generated sets."""
    corpus = [("soybean", SOYBEAN_N, np.array(SOYBEAN_COUNTS, dtype=np.int64))]
    for i, (n, p, rho, k) in enumerate(ORACLE_GENERATED):
        counts = cb_mixture(stream(seed, ORACLE, i), n, p, rho, k)
        corpus.append((f"cb_{n}_{p}_{rho}_k{k}", n, counts))
    return corpus


def sizes() -> dict:
    """The exact sizes of every workload, for the run record."""
    return {
        "study": {"scenarios": [list(s) for s in STUDY_SCENARIOS], "k": STUDY_K,
                  "replications_per_round": STUDY_REPS,
                  "checked_replications": STUDY_CHECKED_REPS,
                  "glyph_resolution": GLYPH_RESOLUTION},
        "bigdata": {"fits_n_p_rho_k": [list(f) for f in BIGDATA_FITS],
                    "samples_n_p_rho_k": [list(s) for s in BIGDATA_SAMPLES]},
        "oracle": {"soybean_n_k": [SOYBEAN_N, len(SOYBEAN_COUNTS)],
                   "generated_n_p_rho_k": [list(g) for g in ORACLE_GENERATED]},
    }
