"""Resampling waves: one single-stage job counts ``WAVE_BATCHES`` batches.

A task folds its blocks' partials and compares the sets it holds whole; a
set that straddles partitions comes back as per-block columns the driver
folds in partition -> block order.  Either way a replicate statistic is the
one a single fold of every block's partial gives, so counts must not move
with the wave size, the partitioning, the block size or the file's row
order -- and must equal ``LocalSparkScore``'s.  The first wave scores the
observed statistics as well: to the bit what the ``tree_aggregate`` pass it
replaced gave (a per-partition fold, then a fold over partitions), for every
set at most two partitions hold.
"""

import dataclasses
import functools
import os

import numpy as np
import pytest

from repro.config import EngineConfig
from repro.core import algorithms
from repro.core.algorithms import DistributedSparkScore
from repro.core.local import LocalSparkScore
from repro.core.sparkscore import SparkScoreAnalysis
from repro.engine.context import Context
from repro.engine.scheduler import JobFailedError
from repro.genomics.io.dataset_io import read_dataset, write_dataset
from repro.genomics.io.formats import FormatError
from repro.genomics.snpsets import SnpSetCollection
from repro.genomics.synthetic import SyntheticConfig, generate_dataset
from repro.stats.score.cox import CoxScoreModel

#: five batches: a full wave and a wave of one
MC = dict(iterations=160, seed=7, batch_size=32)
PERM = dict(iterations=40, seed=7, batch_size=8)


def _config(backend="serial", partitions=4, **overrides):
    return EngineConfig(
        backend=backend, num_executors=2, executor_cores=2,
        default_parallelism=partitions, **overrides,
    )


def _runs(analysis):
    """Cached MC, uncached MC and permutation results of one analysis."""
    return [
        analysis.monte_carlo(**MC),
        analysis.monte_carlo(**MC, cache_contributions=False),
        analysis.permutation(**PERM),
    ]


def _local(dataset):
    local = LocalSparkScore(dataset)
    return [local.monte_carlo(**MC), local.monte_carlo(**MC), local.permutation(**PERM)]


def _by_wave(monkeypatch, analyse):
    """``analyse()`` at ``WAVE_BATCHES`` and again at one batch per job."""
    waves = analyse()
    monkeypatch.setattr(algorithms, "WAVE_BATCHES", 1)
    return waves, analyse()


def _assert_same_counts(waves, single, local):
    for wave, one, reference in zip(waves, single, local):
        assert np.array_equal(wave.observed, one.observed)
        assert np.array_equal(wave.exceed_counts, one.exceed_counts)
        assert np.array_equal(wave.exceed_counts, reference.exceed_counts)


def _shuffle_genotype_lines(base):
    """Rewrite ``genotypes.txt`` in a random row order: every set of two or
    more SNPs straddles partitions."""
    path = os.path.join(base, "genotypes.txt")
    with open(path) as fh:
        lines = fh.read().splitlines()
    order = np.random.default_rng(30).permutation(len(lines))
    with open(path, "w") as fh:
        fh.write("\n".join(lines[i] for i in order) + "\n")


@pytest.fixture(scope="module")
def local(small_dataset):
    return _local(small_dataset)


class TestCountsDoNotDependOnTheWave:
    @pytest.mark.parametrize("block_size", [7, 64, 256])
    @pytest.mark.parametrize("partitions", [1, 3, 4, 7])
    def test_partitions_and_block_sizes(
        self, small_dataset, local, monkeypatch, partitions, block_size
    ):
        def analyse():
            with Context(_config(partitions=partitions)) as ctx:
                scorer = DistributedSparkScore(ctx, small_dataset, block_size=block_size)
                return _runs(scorer)

        _assert_same_counts(*_by_wave(monkeypatch, analyse), local)

    def test_shuffled_rows_straddle_every_set_but_singletons(
        self, small_dataset, monkeypatch, tmp_path
    ):
        base = str(tmp_path)
        write_dataset(small_dataset, base)
        _shuffle_genotype_lines(base)
        records = []
        fold = DistributedSparkScore._fold_wave

        def spy(self, parts, widths, observed):
            records.extend(parts)
            return fold(self, parts, widths, observed)

        monkeypatch.setattr(DistributedSparkScore, "_fold_wave", spy)

        def analyse():
            with SparkScoreAnalysis.from_files(
                base, engine="distributed", config=_config(), block_size=64
            ) as analysis:
                return _runs(analysis)

        waves, single = _by_wave(monkeypatch, analyse)
        # no task held a set of more than one SNP whole: those counts were
        # all made in the driver
        held_whole = {int(k) for complete, *_ in records for k in complete}
        assert records and held_whole <= set(np.flatnonzero(small_dataset.snpsets.sizes() == 1))
        _assert_same_counts(waves, single, _local(read_dataset(base)))

    def test_a_set_with_no_snps(self, small_dataset, monkeypatch):
        ids = small_dataset.snpsets.set_ids
        sets = SnpSetCollection(np.where(ids >= 3, ids + 1, ids))
        sets.names.append("set-empty")  # 11 names, index 3 unused
        dataset = dataclasses.replace(small_dataset, snpsets=sets)
        assert dataset.snpsets.sizes()[3] == 0

        def analyse():
            with Context(_config()) as ctx:
                return _runs(DistributedSparkScore(ctx, dataset, block_size=64))

        waves, single = _by_wave(monkeypatch, analyse)
        _assert_same_counts(waves, single, _local(dataset))
        # 0.0 >= 0.0: every replicate of an empty set exceeds
        assert [r.exceed_counts[3] for r in waves] == [160, 160, 40]


# -- the observed statistics, scored by the first wave ------------------------


def _fold_partition(model, n_sets, blocks):
    """One partition's blocks' partials, folded left from zero."""
    acc = np.zeros(n_sets)
    for block in blocks:
        acc = acc + block.skat_partial(model.scores(block.genotypes.astype(np.float64)))
    return [acc]


def _tree_aggregate_observed(scorer):
    """The observed pass the first wave replaced, ``tree_aggregate``'s fold:
    every partition folds its blocks' partials left from zero, and the
    driver folds the partition partials left in partition order.  For a set
    at most two partitions hold this is ``tree_aggregate(depth=2)`` to the
    bit (``x + 0.0 == x``, and ``+`` commutes)."""
    fold = functools.partial(_fold_partition, scorer.model, scorer.dataset.n_sets)
    partials = scorer._gm_rdd.map_partitions(fold).collect()
    return functools.reduce(np.add, partials, np.zeros(scorer.dataset.n_sets))


def _set_ids_by_partition(blocks):
    return [np.unique([k for block in blocks for k in block.set_ids])]


def _held_by_at_most_two(scorer):
    """Sets whose rows at most two partitions hold."""
    held = np.zeros(scorer.dataset.n_sets, np.int64)
    for set_ids in scorer._gm_rdd.map_partitions(_set_ids_by_partition).collect():
        held[set_ids] += 1
    return held <= 2


def _assert_observed_matches_the_tree_fold(scorer):
    fused = {
        "observed": scorer.observed().observed,
        "monte_carlo": scorer.monte_carlo(**MC).observed,
        "no_cache": scorer.monte_carlo(**MC, cache_contributions=False).observed,
        "permutation": scorer.permutation(**PERM).observed,
    }
    reference = _tree_aggregate_observed(scorer)
    exact = _held_by_at_most_two(scorer)
    assert exact.any()
    for observed in fused.values():
        assert np.array_equal(observed[exact], reference[exact])
        # three or more partitions: the partials associate differently
        assert np.allclose(observed, reference, rtol=1e-12, atol=0.0)
    # one route for every method, to the bit
    assert all(np.array_equal(fused["observed"], observed) for observed in fused.values())


class TestObservedRidesTheFirstWave:
    @pytest.mark.parametrize("block_size", [7, 64, 256])
    @pytest.mark.parametrize("partitions", [1, 3, 4, 7])
    def test_equals_the_tree_aggregate_fold(self, small_dataset, partitions, block_size):
        with Context(_config(partitions=partitions)) as ctx:
            scorer = DistributedSparkScore(ctx, small_dataset, block_size=block_size)
            _assert_observed_matches_the_tree_fold(scorer)

    def test_shuffled_file(self, small_dataset, tmp_path):
        base = str(tmp_path)
        write_dataset(small_dataset, base)
        _shuffle_genotype_lines(base)
        with SparkScoreAnalysis.from_files(
            base, engine="distributed", config=_config(), block_size=64
        ) as analysis:
            _assert_observed_matches_the_tree_fold(analysis._impl)

    def test_observed_is_one_single_stage_job(self, small_dataset):
        with Context(_config()) as ctx:
            result = DistributedSparkScore(ctx, small_dataset, block_size=64).observed()
            (job,) = ctx.metrics.jobs_snapshot()
        assert result.info["jobs_run"] == 1 and len(job.stages) == 1
        assert job.totals().shuffle_bytes_written == 0
        assert np.allclose(
            result.observed, LocalSparkScore(small_dataset).observed_statistics(), rtol=1e-9
        )

    @pytest.mark.parametrize("method", ["observed", "monte_carlo", "permutation"])
    def test_a_repeated_snp_id_across_splits_is_refused_on_a_warm_fleet(
        self, fresh_cluster, tiny_dataset, tmp_path, method
    ):
        config, _ = fresh_cluster()
        base = str(tmp_path)
        write_dataset(tiny_dataset, base)
        path = os.path.join(base, "genotypes.txt")
        with open(path) as fh:
            lines = fh.read().splitlines()
        # line 31 becomes a second SNP 0, in another split than line 1
        lines[30] = "0" + lines[30][lines[30].index("\t"):]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        args = {"monte_carlo": (16,), "permutation": (8,), "observed": ()}[method]
        for _ in range(2):  # the second run finds the blocks resident
            with SparkScoreAnalysis.from_files(base, engine="distributed", config=config) as a:
                with pytest.raises(FormatError, match=r"^genotypes\.txt:31: SNP id 0 repeats line 1$"):
                    getattr(a, method)(*args)


# -- early stop inside a wave --------------------------------------------------


@pytest.fixture(scope="module")
def stopping_dataset():
    """Every set decided within a few batches (the resample-driver tests' data)."""
    return generate_dataset(SyntheticConfig(n_patients=60, n_snps=120, n_snpsets=6, seed=3))


@pytest.mark.parametrize("backend", ["serial", "cluster"])
@pytest.mark.parametrize(
    "method, iterations, batch_size",
    [("monte_carlo", 1024, 32), ("permutation", 400, 16)],
    ids=["monte_carlo", "permutation"],
)
def test_early_stop_mid_wave_matches_one_batch_per_job(
    stopping_dataset, monkeypatch, backend, method, iterations, batch_size
):
    config = _config(backend, inference_early_stop=True, inference_min_replicates=16)

    def analyse():
        with SparkScoreAnalysis(stopping_dataset, engine="distributed", config=config) as a:
            result = getattr(a, method)(iterations, seed=4, batch_size=batch_size)
            folds = a.ctx.inference.monitors[-1].batches_folded
        return result, folds

    wave = algorithms.WAVE_BATCHES
    (waves, wave_calls), (one, one_calls) = _by_wave(monkeypatch, analyse)
    batches = one.n_resamples // batch_size
    # the stop lands inside the first wave, the one that scores observed
    assert one.n_resamples < iterations and batches < wave
    assert wave_calls == one_calls == batches
    assert waves.n_resamples == one.n_resamples
    assert np.array_equal(waves.observed, one.observed)
    assert np.array_equal(waves.exceed_counts, one.exceed_counts)
    assert np.array_equal(waves.explicit_pvalues, one.explicit_pvalues)
    assert np.array_equal(waves.pvalues(), one.pvalues())
    assert waves.info["replicates_saved"] == one.info["replicates_saved"]


# -- what a wave computes and ships --------------------------------------------


@pytest.mark.parametrize("backend", ["serial", "cluster"])
@pytest.mark.parametrize("route", ["memory", "files"])
def test_vectorized_route_never_calls_contributions(
    small_dataset, local, monkeypatch, fresh_cluster, tmp_path, backend, route
):
    """No ``U`` anywhere: every method of a vectorized analysis, on either
    input route and backend, with ``contributions`` refusing to be called.
    Cluster workers forked after the patch refuse too, so a call there
    would fail its task and the job."""

    def refusing(self, genotypes):
        raise AssertionError("contributions called on the vectorized route")

    monkeypatch.setattr(CoxScoreModel, "contributions", refusing)
    config = _config()
    if backend == "cluster":
        _, manager = fresh_cluster()
        manager.stop()  # this shape's next fleet forks with the patch
        config, _ = fresh_cluster()
    if route == "files":
        write_dataset(small_dataset, str(tmp_path))
        analysis = SparkScoreAnalysis.from_files(str(tmp_path), engine="distributed", config=config)
    else:
        analysis = SparkScoreAnalysis(small_dataset, engine="distributed", config=config)
    with analysis:
        observed = analysis.observed().observed
        results = _runs(analysis)
    for result, reference in zip(results, local):
        assert np.array_equal(result.exceed_counts, reference.exceed_counts)
        assert np.array_equal(result.observed, observed)


def _blocks(dataset, block_size=64, partitions=4):
    """Blocks of ``block_size`` rows the in-memory route cuts."""
    J = dataset.n_snps
    bounds = [(i * J) // partitions for i in range(partitions + 1)]
    return sum(-(-(hi - lo) // block_size) for lo, hi in zip(bounds, bounds[1:]))


def test_cached_mc_wave_is_one_gemm_per_block(small_dataset, monkeypatch):
    rows = []
    partial = algorithms._McWaveFn.partial

    def spy(self, block, genotypes, multipliers):
        rows.append(multipliers.shape[0])
        return partial(self, block, genotypes, multipliers)

    monkeypatch.setattr(algorithms._McWaveFn, "partial", spy)
    with Context(_config()) as ctx:
        DistributedSparkScore(ctx, small_dataset, block_size=64).monte_carlo(**MC)
    # a wave of four batches of 32, then a wave of one: one call per block
    # each, on every replicate row of the wave
    blocks = _blocks(small_dataset)
    assert sorted(rows, reverse=True) == [4 * 32] * blocks + [32] * blocks


def test_dosage_route_first_wave_scores_observed_without_u(small_dataset, monkeypatch):
    calls = {"contributions": 0, "scores": 0}

    def counting(name):
        method = getattr(CoxScoreModel, name)

        def wrapper(self, genotypes):
            calls[name] += 1
            return method(self, genotypes)

        monkeypatch.setattr(CoxScoreModel, name, wrapper)

    counting("contributions")
    counting("scores")
    with Context(_config()) as ctx:
        scorer = DistributedSparkScore(ctx, small_dataset, block_size=64)
        scorer.observed_statistics(cache_contributions=False)
        scorer.permutation(**PERM)
    # one G . c per block in each first wave, and no U anywhere
    assert calls == {"contributions": 0, "scores": 2 * _blocks(small_dataset)}


def test_warm_repeat_is_one_job_one_stage_and_no_shuffle(fresh_cluster, tmp_path):
    config, _ = fresh_cluster()
    dataset = generate_dataset(
        SyntheticConfig(n_patients=40, n_snps=1200, n_snpsets=40, seed=31)
    )
    base = str(tmp_path)
    write_dataset(dataset, base)
    reference = LocalSparkScore(dataset).monte_carlo(256, seed=2, batch_size=64)

    def analyse():
        with SparkScoreAnalysis.from_files(base, engine="distributed", config=config) as a:
            return a.monte_carlo(256, seed=2, batch_size=64), a.ctx.metrics.jobs_snapshot()

    analyse()  # cold: parses the splits into resident blocks
    result, jobs = analyse()
    (wave,) = jobs
    assert result.info["jobs_run"] == 1 and len(wave.stages) == 1
    assert result.info["cache_misses"] == 0
    totals = wave.totals()
    assert totals.shuffle_bytes_written == 0 and totals.shuffle_records_written == 0
    # counts and straddling columns, under one (b, K) float matrix for all
    # four batches, plus each partition's (K,) observed partials and the
    # SNP ids scored
    K, J, P = dataset.n_sets, dataset.n_snps, 4
    assert totals.driver_bytes_collected < 64 * K * 8 + (P * K + J) * 8
    assert np.allclose(result.observed, reference.observed, rtol=1e-9, atol=0.0)
    assert np.array_equal(result.exceed_counts, reference.exceed_counts)


class TestBroadcastsGoWhenAWaveRaises:
    @pytest.mark.parametrize(
        "error, raised",
        [(FormatError("genotypes.txt:1: bad"), FormatError), (RuntimeError("lost"), JobFailedError)],
        ids=["format-error", "retries-exhausted"],
    )
    def test_payload_and_observed_broadcasts_are_destroyed(
        self, small_dataset, monkeypatch, error, raised
    ):
        handles = []
        broadcast = Context.broadcast

        def spy(ctx, value):
            handles.append(broadcast(ctx, value))
            return handles[-1]

        def failing(self, block, rows, z):
            raise error

        with Context(_config()) as ctx:
            scorer = DistributedSparkScore(ctx, small_dataset, block_size=64)
            monkeypatch.setattr(Context, "broadcast", spy)
            monkeypatch.setattr(algorithms._McWaveFn, "partial", failing)
            with pytest.raises(raised):
                scorer.monte_carlo(**MC)
            # the first wave's multipliers (its observed is scored in the
            # tasks, and has no broadcast), released before the Context stops
            assert len(handles) == 1
            assert all("destroyed" in repr(handle) for handle in handles)
