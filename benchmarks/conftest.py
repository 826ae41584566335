"""Benchmark harness plumbing.

Every benchmark here does two things:

1. **live measurement** -- pytest-benchmark times real engine/local runs at
   reduced scale, so relative claims (MC vs permutation, cached vs
   uncached, flavor ablations) are measured on real hardware;
2. **paper-scale replay** -- the calibrated simulator predicts the exact
   workloads of Tables II/IV/VI/VII-VIII, and the resulting rows are
   rendered next to the paper's published numbers.

Rendered tables are collected via the ``paper_tables`` fixture and printed
in the terminal summary, so ``pytest benchmarks/ --benchmark-only | tee
bench_output.txt`` captures both the timing stats and the reproduction
tables.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.genomics.synthetic import SyntheticConfig, generate_dataset
from repro.stats.resampling.streams import permutation_stream
from repro.stats.score.cox import CoxScoreModel
from repro.stats.skat import skat_statistics

_TABLES: list[str] = []


@pytest.fixture
def paper_tables():
    """Append rendered table strings; they print in the terminal summary."""
    return _TABLES


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _TABLES:
        return
    terminalreporter.write_sep("=", "paper reproduction tables")
    for table in _TABLES:
        terminalreporter.write_line("")
        for line in table.splitlines():
            terminalreporter.write_line(line)
    terminalreporter.write_line("")


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
