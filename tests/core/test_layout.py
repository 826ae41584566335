"""One answer per (inputs, seed, B), whatever the layout.

A layout is how the engine cuts the work: ``default_parallelism`` (the
partition count, which defaults to the host's cores), ``block_size`` (SNPs
per resident block), the batch size and the backend.  Exceedance counts
must not depend on it.  ``observed`` may move in its last bits: a set's
per-block partials and straddling columns are added in partition order,
so the rounding follows the cuts (ROADMAP item 22(b) makes it exact).
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.stats.resampling.streams as streams
from repro.config import EngineConfig
from repro.core.algorithms import DistributedSparkScore
from repro.engine.context import Context
from repro.genomics.synthetic import SyntheticConfig, generate_dataset

#: largest move of ``observed`` across layouts, in units in the last place
#: of the one-partition, one-block value (6 seen over 88 layouts of this
#: dataset, 1-8 partitions x 1-500 SNPs a block)
OBSERVED_ULPS = 16
ITERATIONS = 192
SEED = 5

DATA = generate_dataset(SyntheticConfig(n_patients=200, n_snps=400, n_snpsets=12, seed=3))


def run(method, *, parallelism=1, block_size=DATA.n_snps, batch_size=16,
        early_stop=False, backend="serial"):
    config = EngineConfig(
        backend=backend, num_executors=2, executor_cores=1,
        default_parallelism=parallelism, inference_early_stop=early_stop,
    )
    with Context(config) as ctx:
        scorer = DistributedSparkScore(ctx, DATA, block_size=block_size)
        result = getattr(scorer, method)(ITERATIONS, seed=SEED, batch_size=batch_size)
    return result.observed, result.exceed_counts


@functools.lru_cache(maxsize=None)
def reference(method, batch_size, early_stop):
    """One partition, one block.  Early stop decides at batch boundaries,
    so its counts are per batch size; without it, one answer for all."""
    return run(method, batch_size=batch_size if early_stop else 16, early_stop=early_stop)


def assert_same_answer(result, expected):
    observed, counts = result
    assert np.array_equal(counts, expected[1])
    moved = np.abs(observed - expected[0]) / np.spacing(expected[0])
    assert moved.max() <= OBSERVED_ULPS, f"observed moved {moved.max():.0f} ulps"


@settings(max_examples=25, deadline=None, database=None)
@given(
    method=st.sampled_from(["monte_carlo", "permutation"]),
    parallelism=st.integers(1, 8),
    block_size=st.integers(1, 500),
    batch_size=st.integers(1, 64),
    early_stop=st.booleans(),
)
def test_serial_layouts_give_one_answer(method, parallelism, block_size, batch_size, early_stop):
    result = run(method, parallelism=parallelism, block_size=block_size,
                 batch_size=batch_size, early_stop=early_stop)
    assert_same_answer(result, reference(method, batch_size, early_stop))


@pytest.mark.slow
@pytest.mark.parametrize("parallelism, block_size", [(3, 16), (5, 100)])
@pytest.mark.parametrize("method", ["monte_carlo", "permutation"])
def test_cluster_layouts_give_the_serial_answer(method, parallelism, block_size):
    layout = dict(parallelism=parallelism, block_size=block_size, batch_size=16)
    on_cluster = run(method, backend="cluster", **layout)
    on_serial = run(method, **layout)
    # same layout: bit for bit; across layouts: the one answer
    assert np.array_equal(on_cluster[0], on_serial[0])
    assert np.array_equal(on_cluster[1], on_serial[1])
    assert_same_answer(on_cluster, reference(method, 16, False))


def test_a_planted_tie_moves_counts_by_itself_at_most(monkeypatch):
    """The identity permutation as the first replicate: its statistic is
    ``S0`` itself, computed along the wave's GEMM path, so it ties ``S0``
    to within ``OBSERVED_ULPS``.  Whether ``S~ >= S0`` holds for it follows
    the layout's rounding (a defect, ROADMAP item 22(b)); every other
    replicate must count the same, so no set's count moves by more than 1."""
    draw = streams.permutation_batches

    def planted(n_patients, n_resamples, seed, batch_size):
        batches = draw(n_patients, n_resamples, seed, batch_size)
        first = next(batches)
        first[0] = np.arange(n_patients)
        yield first
        yield from batches

    monkeypatch.setattr(streams, "permutation_batches", planted)
    _, expected = run("permutation")
    for parallelism, block_size in [(1, 16), (3, 16), (3, 64), (5, 256), (7, 16)]:
        _, counts = run("permutation", parallelism=parallelism, block_size=block_size)
        assert np.abs(counts - expected).max() <= 1
