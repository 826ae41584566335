"""Benchmark harness plumbing: the live datasets the ``bench_*.py``
modules share, and Algorithm 2 as written on one node.

Every ``bench_*`` module measures the real engine or the local oracle at
reduced scale, so relative claims (MC vs permutation, cached vs uncached,
flavor ablations) are measured on real hardware; pytest-benchmark times
them (``--benchmark-disable`` runs them as plain tests).  The one- and
two-slot rows of Tables III and V and Fig. 6 at gate size are
``live_tables.py``'s, a script, not a pytest module.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.genomics.synthetic import SyntheticConfig, generate_dataset
from repro.stats.resampling.streams import permutation_stream
from repro.stats.score.cox import CoxScoreModel
from repro.stats.skat import skat_statistics


@pytest.fixture(scope="session")
def live_dataset():
    """Live benchmark workload: Experiment A's shape at 1/50 scale."""
    return generate_dataset(
        SyntheticConfig(n_patients=200, n_snps=2000, n_snpsets=50, seed=42)
    )


@pytest.fixture(scope="session")
def live_dataset_small():
    return generate_dataset(
        SyntheticConfig(n_patients=100, n_snps=500, n_snpsets=20, seed=43)
    )


def _permutation_as_written(dataset, iterations, seed, model=None):
    """Algorithm 2 as the paper wrote it, on one node: every replicate refits
    the model on the shuffled phenotype pairs and recomputes the whole ``U``
    matrix before summing it.  ``LocalSparkScore.permutation`` does neither
    (a replicate there is the permuted score weights times ``G``), so the
    paper's permutation-vs-Monte-Carlo shape claims are measured on this
    loop, over the same permutation stream.  Returns the exceedance counts.
    """
    model = model or CoxScoreModel(dataset.phenotype)
    G = dataset.genotypes.matrix.astype(np.float64)
    weights, set_ids, K = dataset.weights, dataset.snpsets.set_ids, dataset.n_sets
    observed = skat_statistics(model.contributions(G).sum(axis=1), weights, set_ids, K)
    counts = np.zeros(K, dtype=np.int64)
    for perm in permutation_stream(dataset.n_patients, iterations, seed):
        scores = model.permuted(perm).contributions(G).sum(axis=1)
        counts += skat_statistics(scores, weights, set_ids, K) >= observed
    return counts


@pytest.fixture(scope="session")
def permutation_as_written():
    return _permutation_as_written


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(7)
