"""Calibration smoke: null p-values of the engine are uniform.

Every other test holds the engine to the local oracle; this one holds both
to the null distribution.  ``R`` seeded null datasets (survival independent
of the genotypes, times rounded to whole months so that they tie, 30% of
patients censored), each analysed by the vectorized engine on the serial
backend with ``B`` replicates.  A resampled p-value is discrete, so each is
randomised: with ``c`` the replicates at or above the observed statistic,
``(c + U) / (B + 1)``, ``U ~ Uniform(0, 1)``, is uniform on (0, 1) when the
observed statistic is exchangeable with its replicates.  Pooled over
datasets and sets, the p-values must pass a KS test at 0.001 and the
empirical size at alpha = 0.05 must lie inside a 99.9% binomial interval.
The seeds are fixed; a failure is a calibration change, not noise.
"""

import dataclasses

import numpy as np
import pytest

from repro.config import EngineConfig
from repro.core.algorithms import DistributedSparkScore
from repro.engine.context import Context
from repro.genomics.synthetic import SyntheticConfig, generate_dataset
from repro.stats.score.base import SurvivalPhenotype

R, N_PATIENTS, N_SNPS, N_SETS, B = 40, 200, 40, 8, 199
DATA_SEED, RESAMPLING_SEED, RANDOMISATION_SEED = 4_000, 41, 42
ALPHA, LEVEL = 0.05, 0.001


def _null_dataset(seed):
    dataset = generate_dataset(SyntheticConfig(
        n_patients=N_PATIENTS, n_snps=N_SNPS, n_snpsets=N_SETS, event_rate=0.7, seed=seed,
    ))
    phenotype = dataset.phenotype
    months = np.ceil(phenotype.time)  # ties within and across event status
    return dataclasses.replace(dataset, phenotype=SurvivalPhenotype(months, phenotype.event))


@pytest.fixture(scope="module")
def counts():
    """``{method: (R * K,) exceedance counts}`` over the null datasets."""
    out = {"monte_carlo": [], "permutation": []}
    config = EngineConfig(backend="serial", num_executors=2, default_parallelism=2)
    with Context(config) as ctx:
        for r in range(R):
            scorer = DistributedSparkScore(ctx, _null_dataset(DATA_SEED + r))
            for method, found in out.items():
                result = getattr(scorer, method)(B, seed=RESAMPLING_SEED + r)
                assert result.n_resamples == B
                found.append(result.exceed_counts)
    return {method: np.concatenate(found) for method, found in out.items()}


def _binomial_interval(n, p, level):
    """The central ``1 - level`` interval of Binomial(n, p)."""
    from scipy import stats

    return stats.binom.ppf(level / 2, n, p), stats.binom.isf(level / 2, n, p)


@pytest.mark.parametrize("method", ["monte_carlo", "permutation"])
def test_null_pvalues_are_uniform_and_sized(counts, method):
    from scipy import stats

    found = counts[method]
    assert found.shape == (R * N_SETS,)
    uniform = np.random.default_rng(RANDOMISATION_SEED).random(found.size)
    pvalues = (found + uniform) / (B + 1)
    assert stats.kstest(pvalues, "uniform").pvalue > LEVEL
    low, high = _binomial_interval(found.size, ALPHA, LEVEL)
    assert low <= np.count_nonzero(pvalues < ALPHA) <= high
