"""The one resampling driver and the callers routed through it.

Unit cases of :func:`resample` itself, then what routing every resampling
method through it must guarantee: one early-stop policy stops every engine
and flavor at the same replicate with the same counts, maxT stops
the whole run without masking (and without touching the caller's policy),
and every engine folds each batch into its monitor once.
"""

import dataclasses

import numpy as np
import pytest

from repro.config import EngineConfig
from repro.core.local import LocalSparkScore
from repro.core.sparkscore import SparkScoreAnalysis
from repro.genomics.synthetic import SyntheticConfig, generate_dataset
from repro.obs.inference import ConvergenceMonitor, EarlyStopPolicy
from repro.stats.resampling.driver import exceedances, per_batch, resample
from repro.stats.resampling.multipletesting import westfall_young_maxt


class SpyMonitor:
    """Duck-typed monitor: records folds and finishes, done after ``stop_after`` folds."""

    def __init__(self, stop_after=None):
        self.stop_after = stop_after
        self.folds = []
        self.finishes = 0

    def fold(self, batch_counts, width):
        self.folds.append((batch_counts.copy(), width))
        return batch_counts

    @property
    def done(self):
        return self.stop_after is not None and len(self.folds) >= self.stop_after

    def finish(self):
        self.finishes += 1


def _batches(widths, n_sets=3):
    """Batches whose count_batch is ``[width, 1, 0, ...]``: easy to sum by hand."""
    return [np.zeros((w, n_sets)) for w in widths]


def _count(batch):
    counts = np.zeros(batch.shape[1], dtype=np.int64)
    counts[0], counts[1] = batch.shape[0], 1
    return counts


class TestResample:
    def test_empty_stream(self):
        monitor = SpyMonitor()
        counts, used = resample([], per_batch(_count), monitor, n_sets=3)
        assert used == 0
        assert counts.dtype == np.int64 and np.array_equal(counts, [0, 0, 0])
        assert monitor.folds == [] and monitor.finishes == 1

    def test_no_monitor_adds_plainly(self):
        counts, used = resample(_batches([4, 4, 2]), per_batch(_count), n_sets=3)
        assert used == 10
        assert np.array_equal(counts, [10, 3, 0])

    def test_stops_when_done_after_the_first_batch(self):
        monitor = SpyMonitor(stop_after=1)
        calls = []

        def count(batch):
            calls.append(batch.shape[0])
            return _count(batch)

        counts, used = resample(_batches([4, 4, 2]), per_batch(count), monitor, n_sets=3)
        assert calls == [4] and used == 4
        assert np.array_equal(counts, [4, 1, 0])
        assert monitor.finishes == 1

    def test_a_wave_is_counted_whole_and_folded_batch_by_batch(self):
        waves = []

        def count_wave(wave):
            waves.append([len(batch) for batch in wave])
            return [_count(batch) for batch in wave]

        monitor = SpyMonitor()
        counts, used = resample(
            _batches([4, 4, 2, 3, 1]), count_wave, monitor, n_sets=3, wave=2,
        )
        assert waves == [[4, 4], [2, 3], [1]]
        assert [w for _, w in monitor.folds] == [4, 4, 2, 3, 1]
        assert used == 14 and np.array_equal(counts, [14, 5, 0])

    @pytest.mark.parametrize("wave", [1, 2, 4])
    def test_done_mid_wave_discards_the_rest_of_the_wave(self, wave):
        monitor = SpyMonitor(stop_after=3)
        counts, used = resample(
            _batches([4] * 6), per_batch(_count), monitor, n_sets=3, wave=wave,
        )
        assert used == 12 and np.array_equal(counts, [12, 3, 0])
        assert len(monitor.folds) == 3 and monitor.finishes == 1

    def test_finish_exactly_once_when_the_stream_ends(self):
        monitor = SpyMonitor()
        resample(_batches([4, 4, 2]), per_batch(_count), monitor, n_sets=3)
        assert [w for _, w in monitor.folds] == [4, 4, 2]
        assert monitor.finishes == 1

    def test_counts_are_what_fold_returns(self):
        monitor = ConvergenceMonitor(2, policy=EarlyStopPolicy(min_replicates=16))
        stream = [np.zeros((256, 2))] * 3
        # set 0 is decided significant by the first batch, set 1 never
        counts, used = resample(
            stream, per_batch(lambda batch: np.array([0, 13])), monitor, n_sets=2
        )
        assert used == 768
        assert np.array_equal(counts, [0, 39])
        assert np.array_equal(monitor.denominators, [256, 768])

    def test_per_set_masking_off_never_zeroes_an_increment(self):
        policy = EarlyStopPolicy(min_replicates=16)
        monitor = ConvergenceMonitor(2, policy=policy)
        increments = []
        original_fold = monitor.fold

        def fold(batch_counts, width):
            increment = original_fold(batch_counts, width)
            increments.append((batch_counts, increment))
            return increment

        monitor.fold = fold
        stream = [np.zeros((256, 2))] * 3
        counts, used = resample(
            stream, per_batch(lambda batch: np.array([5, 13])), monitor, n_sets=2,
            per_set_masking=False,
        )
        assert monitor.status[0] != "undecided"  # decided, yet never frozen
        assert all(np.array_equal(b, i) for b, i in increments)
        assert np.array_equal(counts, [15, 39]) and used == 768
        assert np.array_equal(monitor.denominators, [768, 768])
        assert policy == EarlyStopPolicy(min_replicates=16)

    def test_exceedances(self):
        stats = np.array([[1.0, 5.0], [3.0, 2.0], [2.0, 2.0]])
        counts = exceedances(stats, np.array([2.0, 4.0]))
        assert counts.dtype == np.int64
        assert np.array_equal(counts, [2, 1])


# -- one policy, every engine --------------------------------------------------

#: at alpha 0.1 this data's sets are decided at 64, 96 and 128 replicates
#: (at 0.05 every set is decided at the policy's floor of 64, all at once)
POLICY_CONFIG = dict(inference_early_stop=True, inference_alpha=0.1)


@pytest.fixture(scope="module")
def stopping_dataset():
    """Every set decided within a few batches, at different replicates."""
    return generate_dataset(SyntheticConfig(n_patients=60, n_snps=120, n_snpsets=6, seed=3))


def _config(backend):
    return EngineConfig(
        backend=backend, num_executors=2, executor_cores=2, default_parallelism=4,
        **POLICY_CONFIG,
    )


def _local(dataset, method, iterations, batch_size, **kwargs):
    config = _config("serial")
    monitor = ConvergenceMonitor(
        dataset.n_sets, method, iterations, policy=EarlyStopPolicy.from_config(config)
    )
    run = getattr(SparkScoreAnalysis(dataset), method)
    return run(iterations, seed=4, batch_size=batch_size, monitor=monitor, **kwargs)


def _distributed(dataset, method, iterations, batch_size, backend="serial",
                 flavor="vectorized", **kwargs):
    with SparkScoreAnalysis(
        dataset, engine="distributed", config=_config(backend), flavor=flavor
    ) as analysis:
        run = getattr(analysis, method)
        return run(iterations, seed=4, batch_size=batch_size, **kwargs)


def _assert_same_stop(result, reference):
    assert result.n_resamples == reference.n_resamples
    assert np.array_equal(result.exceed_counts, reference.exceed_counts)
    assert result.info["replicates_saved"] == reference.info["replicates_saved"]
    assert np.array_equal(result.explicit_pvalues, reference.explicit_pvalues)


class TestOnePolicyStopsEveryEngineAlike:
    MC = (1024, 32)
    PERM = (400, 16)

    @pytest.fixture(scope="class")
    def mc_reference(self, stopping_dataset):
        result = _local(stopping_dataset, "monte_carlo", *self.MC)
        assert result.n_resamples < self.MC[0]  # the policy did stop the run
        assert result.explicit_pvalues is not None  # and froze sets apart
        return result

    @pytest.fixture(scope="class")
    def perm_reference(self, stopping_dataset):
        result = _local(stopping_dataset, "permutation", *self.PERM)
        assert result.n_resamples < self.PERM[0]
        assert result.explicit_pvalues is not None
        return result

    def test_local_monte_carlo_uncached(self, stopping_dataset, mc_reference):
        result = _local(stopping_dataset, "monte_carlo", *self.MC, cache_contributions=False)
        _assert_same_stop(result, mc_reference)

    @pytest.mark.parametrize("cached", [True, False], ids=["cached", "uncached"])
    @pytest.mark.parametrize("flavor", ["vectorized", "paper"])
    def test_distributed_monte_carlo(self, stopping_dataset, mc_reference, flavor, cached):
        result = _distributed(
            stopping_dataset, "monte_carlo", *self.MC, flavor=flavor,
            cache_contributions=cached,
        )
        _assert_same_stop(result, mc_reference)

    @pytest.mark.parametrize("backend", ["cluster"])
    def test_distributed_monte_carlo_on_parallel_backends(
        self, stopping_dataset, mc_reference, backend
    ):
        result = _distributed(stopping_dataset, "monte_carlo", *self.MC, backend=backend)
        _assert_same_stop(result, mc_reference)

    @pytest.mark.parametrize("flavor", ["vectorized", "paper"])
    def test_distributed_permutation(self, stopping_dataset, perm_reference, flavor):
        result = _distributed(stopping_dataset, "permutation", *self.PERM, flavor=flavor)
        _assert_same_stop(result, perm_reference)


# -- runs that need one common denominator -------------------------------------


@pytest.fixture(scope="module")
def contributions(tiny_dataset):
    return LocalSparkScore(tiny_dataset).contributions()


class TestCommonDenominatorRuns:
    def test_maxt_stops_globally_and_equals_the_truncated_run(self, contributions):
        monitor = ConvergenceMonitor(
            contributions.shape[0], planned_replicates=2048,
            policy=EarlyStopPolicy(min_replicates=64),
        )
        stopped = westfall_young_maxt(contributions, 2048, seed=3, monitor=monitor)
        assert stopped.n_resamples < 2048
        assert monitor.replicates_saved == 2048 - stopped.n_resamples
        assert np.all(monitor.denominators == stopped.n_resamples)  # nothing froze
        truncated = westfall_young_maxt(contributions, stopped.n_resamples, seed=3)
        assert np.array_equal(stopped.raw_pvalues, truncated.raw_pvalues)
        assert np.array_equal(stopped.adjusted_pvalues, truncated.adjusted_pvalues)

    def test_caller_policy_is_left_as_it_was(self, tiny_dataset, contributions):
        """Turning masking off is the run's business: a policy shared with a
        later run must stop that run where a fresh policy stops it."""
        policy = EarlyStopPolicy(min_replicates=64)
        monitor = ConvergenceMonitor(contributions.shape[0], policy=policy)
        westfall_young_maxt(contributions, 64, monitor=monitor)
        assert dataclasses.asdict(policy) == dataclasses.asdict(
            EarlyStopPolicy(min_replicates=64)
        )

        def later_run(p):
            monitor = ConvergenceMonitor(tiny_dataset.n_sets, planned_replicates=2048, policy=p)
            return LocalSparkScore(tiny_dataset).monte_carlo(2048, seed=5, monitor=monitor)

        shared, fresh = later_run(policy), later_run(EarlyStopPolicy(min_replicates=64))
        assert fresh.n_resamples < 2048
        _assert_same_stop(shared, fresh)


# -- one fold per batch --------------------------------------------------------


class TestReplicateInstruments:
    """One monitor fold per batch, on every engine."""

    @pytest.mark.parametrize("cached", [True, False], ids=["cached", "uncached"])
    def test_local(self, tiny_dataset, cached):
        monitor = ConvergenceMonitor(tiny_dataset.n_sets, planned_replicates=128)
        LocalSparkScore(tiny_dataset).monte_carlo(
            128, seed=1, batch_size=32, cache_contributions=cached, monitor=monitor
        )
        assert (monitor.batches_folded, monitor.replicates_total) == (4, 128)

    def test_distributed(self, tiny_dataset):
        config = EngineConfig(
            backend="serial", num_executors=2, executor_cores=2, default_parallelism=4
        )
        with SparkScoreAnalysis(tiny_dataset, engine="distributed", config=config) as a:
            a.monte_carlo(128, seed=1, batch_size=32)
            monitor = a.ctx.inference.monitors[-1]
        assert (monitor.batches_folded, monitor.replicates_total) == (4, 128)
