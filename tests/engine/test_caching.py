"""Block-manager caching: hits, eviction, residency, recompute on a miss."""

import dataclasses
import gc
import hashlib
import weakref

import numpy as np
import pytest

from repro.config import EngineConfig
from repro.core.local import LocalSparkScore
from repro.core.sparkscore import SparkScoreAnalysis
from repro.engine.blockmanager import BlockManager, BlockManagerMaster, estimate_size
from repro.engine.closure import dumps as closure_dumps
from repro.engine.context import Context
from repro.engine.faults import FaultInjector, FaultPlan
from repro.engine.metrics import TaskMetrics
from repro.genomics.genotypes import GenotypeMatrix
from repro.genomics.io import write_dataset


class _OpaquePayload:
    """Module-level (picklable) slotted record with wildly varying payload
    sizes -- the shape that used to be mis-sized by the per-type memo."""

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = data

    def __reduce__(self):
        return (type(self), (self.data,))


class TestCachedRdd:
    def test_second_action_hits_cache(self, ctx):
        rdd = ctx.parallelize(range(100), 4).map(lambda x: x * 2).cache()
        assert rdd.sum() == 9900
        assert rdd.sum() == 9900
        job = ctx.metrics.jobs[-1]
        assert job.totals().cache_hits == 4
        assert job.totals().cache_misses == 0

    def test_first_action_misses(self, ctx):
        rdd = ctx.parallelize(range(10), 2).cache()
        rdd.count()
        assert ctx.metrics.jobs[-1].totals().cache_misses == 2

    @pytest.mark.shared_driver_state
    def test_cached_computation_runs_once(self, ctx):
        calls = []
        rdd = ctx.parallelize(range(4), 2).map(lambda x: calls.append(x) or x).cache()
        rdd.count()
        rdd.count()
        assert len(calls) == 4

    @pytest.mark.shared_driver_state
    def test_unpersist_recomputes(self, ctx):
        calls = []
        rdd = ctx.parallelize(range(4), 2).map(lambda x: calls.append(x) or x).cache()
        rdd.count()
        rdd.unpersist()
        assert not rdd.is_cached
        rdd.count()
        assert len(calls) == 8

    def test_cached_partition_count(self, ctx):
        rdd = ctx.parallelize(range(10), 5).cache()
        assert ctx.cached_partition_count(rdd) == 0
        rdd.count()
        assert ctx.cached_partition_count(rdd) == 5

    @pytest.mark.shared_driver_state
    def test_downstream_of_cache_uses_cached_parent(self, ctx):
        calls = []
        base = ctx.parallelize(range(6), 3).map(lambda x: calls.append(x) or x).cache()
        base.count()
        assert base.map(lambda x: x + 1).sum() == 21
        assert len(calls) == 6


class TestBlockManager:
    def test_put_get(self):
        bm = BlockManager("e0", memory_budget=1 << 20)
        data = bm.put((1, 0), iter([1, 2, 3]))
        assert data == [1, 2, 3]
        assert bm.get((1, 0)) == [1, 2, 3]

    def test_get_missing_returns_none(self):
        bm = BlockManager("e0", memory_budget=1 << 20)
        assert bm.get((9, 9)) is None

    def test_lru_eviction(self):
        payload = [np.zeros(1000)] # ~8KB
        bm = BlockManager("e0", memory_budget=20_000)
        bm.put((1, 0), list(payload))
        bm.put((1, 1), list(payload))
        # touch block 0 so block 1 is the LRU victim
        bm.get((1, 0))
        bm.put((1, 2), list(payload))
        assert bm.get((1, 1)) is None
        assert bm.get((1, 0)) is not None
        assert bm.evictions >= 1

    def test_put_charges_its_evictions_to_the_task(self):
        payload = [np.zeros(1000)]  # ~8KB
        bm = BlockManager("e0", memory_budget=20_000)
        metrics = TaskMetrics()
        evicted = []
        bm.put((1, 0), list(payload), metrics=metrics)
        bm.put((1, 1), list(payload), metrics=metrics)
        assert metrics.blocks_evicted == 0
        bm.put((1, 2), list(payload), metrics=metrics, evicted=evicted)  # drops (1, 0)
        bm.put((1, 3), list(payload), metrics=metrics, evicted=evicted)  # drops (1, 1)
        assert metrics.blocks_evicted == 2
        assert evicted == [(1, 0), (1, 1)]
        assert bm.evictions == 2

    def test_oversized_block_not_cached(self):
        bm = BlockManager("e0", memory_budget=100)
        data = bm.put((1, 0), [np.zeros(10_000)])
        assert len(data) == 1  # still returned
        assert bm.get((1, 0)) is None

    def test_remove_frees_memory(self):
        bm = BlockManager("e0", memory_budget=1 << 20)
        bm.put((1, 0), [1])
        used = bm.memory_used
        assert used > 0
        bm.remove((1, 0))
        assert bm.memory_used == 0
        assert not bm.contains((1, 0))

    def test_estimate_size_numpy_exact_ish(self):
        arr = np.zeros(1000)
        assert estimate_size(arr) >= arr.nbytes

    def test_estimate_size_nested(self):
        assert estimate_size([1, "ab", (2.0,)]) > 0

    def test_estimate_size_slotted_records_sized_structurally(self):
        """Regression: ``__slots__``-only records used to fall through to
        the per-type pickled-size memo, so after the sample window a
        100x-larger payload was sized like a tiny one.  Slot values are now
        walked like ``__dict__`` attributes, so each instance is sized from
        its own payload."""
        for _ in range(20):  # would have primed the old memo with tiny sizes
            estimate_size(_OpaquePayload(b"x" * 10))
        assert estimate_size(_OpaquePayload(b"y" * 100_000)) >= 100_000
        assert estimate_size(_OpaquePayload(b"x" * 10)) < 1_000

    def test_estimate_size_opaque_drift_disables_memo(self):
        """Regression for truly opaque types (no __dict__, no slots): a size
        drift must be detected within the bounded refresh window and, once
        seen, permanently disable the stale average for that type."""
        import array
        import pickle as _pickle

        for _ in range(20):
            estimate_size(array.array("b", b"x" * 10))
        big = array.array("b", b"y" * 100_000)
        true_size = len(_pickle.dumps(big, protocol=_pickle.HIGHEST_PROTOCOL))
        estimates = [estimate_size(big) for _ in range(10)]
        # a periodic re-measure fires within the window, blows the spread
        # guard, and every estimate after that is exact
        assert estimates[-1] >= true_size
        assert estimate_size(big) >= true_size

    def test_estimate_size_homogeneous_opaque_uses_memo(self):
        """Same-sized instances of an opaque type amortize to O(1) sizing
        without drifting far from the true pickled size."""
        import array

        sizes = {estimate_size(array.array("b", b"z" * 1000)) for _ in range(20)}
        assert all(900 < s < 1300 for s in sizes)

class TestBlockMaster:
    def test_register_and_locations(self):
        master = BlockManagerMaster()
        master.register_block((1, 0), "e0")
        master.register_block((1, 0), "e1")
        assert master.locations((1, 0)) == ["e0", "e1"]

    def test_remove_executor_reports_lost(self):
        master = BlockManagerMaster()
        master.register_block((1, 0), "e0")
        master.register_block((1, 1), "e0")
        master.register_block((1, 1), "e1")
        lost = master.remove_executor("e0")
        assert lost == [(1, 0)]
        assert master.locations((1, 1)) == ["e1"]

    def test_eviction_pressure_metrics(self):
        config = EngineConfig(
            backend="serial",
            num_executors=1,
            executor_cores=1,
            executor_memory=64 * 1024,  # tiny cache
            default_parallelism=4,
        )
        with Context(config) as ctx:
            rdd = ctx.parallelize([np.zeros(4000) for _ in range(8)], 8).cache()
            rdd.count()
            rdd.count()
            totals = ctx.metrics.jobs[-1].totals()
            # most blocks were evicted, so second pass recomputes
            assert totals.cache_misses > 0


def _triple(x):
    return 3 * x


class TestMissRecomputes:
    """Both backends have one cache model: a task reads its own executor's
    cache, and a miss recomputes from lineage -- nothing is fetched from the
    executor that holds the block."""

    @pytest.mark.parametrize("backend", ["serial", "cluster"])
    def test_a_retry_off_the_holder_recomputes(self, backend):
        config = EngineConfig(
            backend=backend, num_executors=2, executor_cores=1, default_parallelism=4
        )
        expected = sum(3 * x for x in range(40))
        with Context(config) as ctx:
            rdd = ctx.parallelize(range(40), 4).map(_triple).cache()
            rdd.sum()
            assert rdd.sum() == expected
            clean = ctx.metrics.last_job.totals()
            (holder,) = ctx.block_master.locations((rdd.id, 2))
            ctx.set_fault_injector(FaultInjector(FaultPlan(fail_partition_attempts={2: 1})))
            assert rdd.sum() == expected
            job = ctx.metrics.last_job
            attempts = [t for s in job.stages for t in s.tasks if t.partition == 2]
            failed, retry = sorted(attempts, key=lambda t: t.attempt)
            assert (failed.succeeded, failed.executor_id) == (False, holder)
            assert retry.succeeded and retry.executor_id != holder
            assert job.totals().cache_misses == clean.cache_misses + 1


def _32_kilobytes(i):
    return np.full(4096, float(i))


class _HeldSplits:
    """Probe task: the splits of one lineage the worker running it holds."""

    def __init__(self, key: str) -> None:
        self.key = key

    def __call__(self, _):
        from repro.engine import backends

        manager = backends._RESIDENT_BLOCKS
        return [split for key, split in manager.block_ids() if key == self.key]


def _held_splits(ctx, rdd) -> set[int]:
    """The splits of ``rdd`` its executors' block managers hold."""
    if ctx.backend.name == "serial":
        return {
            split for executor in ctx.executors
            for rdd_id, split in executor.block_manager.block_ids() if rdd_id == rdd.id
        }
    # the worker files the blocks under the RDD's lineage fingerprint
    probe = _HeldSplits(hashlib.sha256(closure_dumps(rdd)).hexdigest())
    return set(ctx.parallelize(range(1), 1).map_partitions(probe).collect())


class TestEvictionLeavesTheRegistry:
    @pytest.mark.parametrize("backend", ["serial", "cluster"])
    def test_registry_and_debug_string_follow_the_lru(self, backend, fresh_cluster):
        """Eight 32 KB partitions through one executor whose cache holds one:
        what the driver says is cached is what the manager holds."""
        shape = dict(
            num_executors=1, executor_cores=1, default_parallelism=8,
            executor_memory=64 * 1024,
        )
        if backend == "cluster":
            config, _ = fresh_cluster(**shape)
        else:
            config = EngineConfig(backend="serial", **shape)
        with Context(config) as ctx:
            rdd = ctx.parallelize(range(8), 8).map(_32_kilobytes).cache()
            assert rdd.count() == 8
            held = _held_splits(ctx, rdd)
            assert 0 < len(held) < 8
            assert ctx.block_master.cached_partitions(rdd.id) == held
            assert ctx.cached_partition_count(rdd) == len(held)
            assert f"<{len(held)}/8 cached>" in rdd.to_debug_string()

    @pytest.mark.parametrize("backend", ["serial", "cluster"])
    def test_another_rdds_stage_evicting_a_block_unregisters_it(
        self, backend, fresh_cluster
    ):
        """One 32 KB block each of two cached RDDs through one executor
        whose cache holds one: B's job evicts A's block, which A's stage
        never ran in, and the driver stops counting it as cached."""
        shape = dict(
            num_executors=1, executor_cores=1, default_parallelism=1,
            executor_memory=80 * 1024,
        )
        if backend == "cluster":
            config, _ = fresh_cluster(**shape)
        else:
            config = EngineConfig(backend="serial", **shape)
        with Context(config) as ctx:
            a = ctx.parallelize(range(1), 1).map(_32_kilobytes).cache()
            b = ctx.parallelize(range(1, 2), 1).map(_32_kilobytes).cache()
            assert a.count() == 1
            assert ctx.cached_partition_count(a) == 1
            assert b.count() == 1
            assert _held_splits(ctx, a) == set()
            assert ctx.cached_partition_count(a) == 0
            assert "<0/1 cached>" in a.to_debug_string()
            assert ctx.cached_partition_count(b) == 1


def _two_scans(config) -> tuple[int, int, int]:
    """Two counts of four cached 32 KB partitions in one Context: ``(cache
    hits, cache misses, partitions the driver counts as cached)``."""
    with Context(config) as ctx:
        rdd = ctx.parallelize(range(4), 4).map(_32_kilobytes).cache()
        assert rdd.count() == 4 and rdd.count() == 4
        totals = [job.totals() for job in ctx.metrics.jobs_snapshot()]
        return (
            sum(t.cache_hits for t in totals),
            sum(t.cache_misses for t in totals),
            ctx.cached_partition_count(rdd),
        )


class TestASmallerBudget:
    @pytest.mark.parametrize("backend", ["serial", "cluster"])
    def test_a_warm_fleet_evicts_down_to_the_new_budget(self, backend, fresh_cluster):
        """A fleet outlives its Contexts' memory settings.  Warm at the
        default memory, then scan under a budget that holds two of the four
        blocks: the scan thrashes, as on a fresh fleet and on serial, rather
        than hitting the four blocks the larger budget left resident."""
        shape = dict(num_executors=1, executor_cores=1, default_parallelism=4)
        small = 140 * 1024  # storage holds two 32 KB blocks, not three
        if backend == "cluster":
            warm, _ = fresh_cluster(**shape)
        else:
            warm = EngineConfig(backend="serial", **shape)
        _two_scans(warm)
        after_warm = _two_scans(warm.copy(executor_memory=small))
        if backend == "cluster":
            fresh, _ = fresh_cluster(**shape)  # stops the warm fleet first
            assert _two_scans(fresh.copy(executor_memory=small)) == after_warm
        serial = EngineConfig(backend="serial", executor_memory=small, **shape)
        assert _two_scans(serial) == after_warm == (0, 8, 2)


class TestStopReleases:
    def test_cached_blocks_die_with_close_not_with_the_next_gc(self, small_dataset):
        """``Context.stop()`` clears what it owns: the context sits in
        reference cycles, so without that every cached genotype block of an
        analysis stays pinned until a gen-2 collection happens to run."""
        gc.collect()
        gc.disable()
        try:
            analysis = SparkScoreAnalysis(
                small_dataset, engine="distributed",
                config=EngineConfig(backend="serial", default_parallelism=2),
            )
            analysis.monte_carlo(32, seed=1, batch_size=32)
            cached = [
                block
                for executor in analysis.ctx.executors
                for block_id in executor.block_manager.block_ids()
                for block in executor.block_manager.get(block_id)
            ]
            assert cached  # the blocks were cached
            array = weakref.ref(cached[0].genotypes)
            # the parallelized dataset, under the block builder
            rows = weakref.ref(analysis._impl._gm_rdd.dependencies[0].rdd)
            del cached
            analysis.close()
            assert array() is None
            # nor does a finished job's stage graph keep the lineage, and
            # with it the parallelized dataset, once its owner lets go
            del analysis
            assert rows() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("backend", ["serial", "cluster"])
    def test_a_finished_job_does_not_pin_its_lineage(self, backend):
        gc.collect()
        gc.disable()
        try:
            with Context(EngineConfig(backend=backend, default_parallelism=4)) as ctx:
                rdd = ctx.parallelize([(i % 3, i) for i in range(3000)], 4)
                assert rdd.reduce_by_key(lambda a, b: a + b).count() == 3
                lineage = weakref.ref(rdd)
                del rdd
                assert lineage() is None
        finally:
            gc.enable()

    def test_stop_empties_block_managers_and_shuffle_outputs(self, ctx):
        rdd = ctx.parallelize([(i % 3, i) for i in range(30)], 4).cache()
        rdd.reduce_by_key(lambda a, b: a + b).collect()
        ctx.stop()
        assert all(not e.block_manager.block_ids() for e in ctx.executors)
        assert not ctx.shuffle_manager._outputs


def _mc(config, dataset, **kwargs):
    """One benchmark-shaped analysis (one wave job of four batches, which
    scores the observed statistics too) in its own Context: ``(result,
    cache_hits, cache_misses)``."""
    with SparkScoreAnalysis(dataset, engine="distributed", config=config, **kwargs) as a:
        result = a.monte_carlo(128, seed=9, batch_size=32)
    return result, result.info["cache_hits"], result.info["cache_misses"]


class TestResidentBlocks:
    """Cluster workers keep cached blocks for the life of the process, keyed
    ``(lineage fingerprint, split)``; the driver holds locations only."""

    @pytest.fixture(params=[1, 2], ids=["cores=1", "cores=2"])
    def fleet_config(self, request, fresh_cluster):
        return fresh_cluster(executor_cores=request.param)[0]

    def test_identical_analysis_in_a_second_context_finds_the_blocks_resident(
        self, fleet_config, small_dataset
    ):
        reference = LocalSparkScore(small_dataset).monte_carlo(128, seed=9, batch_size=32)
        first, hits, misses = _mc(fleet_config, small_dataset)
        assert (hits, misses) == (0, 4)  # the one job builds the blocks
        second, hits, misses = _mc(fleet_config, small_dataset)
        assert (hits, misses) == (4, 0)  # rdd ids restarted at 0; the key did not move
        for result in (first, second):
            assert np.array_equal(result.exceed_counts, reference.exceed_counts)
            assert np.array_equal(result.observed, first.observed)

    def test_different_dataset_in_a_second_context_cannot_collide(
        self, fleet_config, small_dataset
    ):
        """Both contexts number their RDDs from 0: a key made of rdd ids
        would serve the first dataset's blocks to the second analysis."""
        other = dataclasses.replace(
            small_dataset,
            genotypes=GenotypeMatrix(
                small_dataset.genotypes.snp_ids,
                np.roll(small_dataset.genotypes.matrix, 1, axis=1),
            ),
        )
        _mc(fleet_config, small_dataset)
        result, hits, misses = _mc(fleet_config, other)
        assert (hits, misses) == (0, 4)
        reference = LocalSparkScore(other).monte_carlo(128, seed=9, batch_size=32)
        assert np.array_equal(result.exceed_counts, reference.exceed_counts)
        assert np.allclose(result.observed, reference.observed, rtol=1e-9, atol=0.0)

    def test_rewritten_genotype_file_misses(self, fleet_config, small_dataset, tmp_path):
        """File-backed lineages fold size and mtime into their pickle: the
        same path with new content is a new fingerprint.  Rolling the
        patient axis keeps every other file, and the genotype file's size,
        byte-for-byte what it was."""
        base = str(tmp_path / "data")

        def from_files():
            with SparkScoreAnalysis.from_files(
                base, engine="distributed", config=fleet_config, parse_with_engine=True
            ) as a:
                return a.monte_carlo(128, seed=9, batch_size=32)

        write_dataset(small_dataset, base)
        first = from_files()
        assert from_files().info["cache_misses"] == 0  # untouched file: resident
        rolled = dataclasses.replace(
            small_dataset,
            genotypes=GenotypeMatrix(
                small_dataset.genotypes.snp_ids,
                np.roll(small_dataset.genotypes.matrix, 1, axis=1),
            ),
        )
        write_dataset(rolled, base)
        second = from_files()
        assert second.info["cache_misses"] == 4  # 4 splits re-parsed into blocks
        reference = LocalSparkScore(rolled).monte_carlo(128, seed=9, batch_size=32)
        assert np.array_equal(second.exceed_counts, reference.exceed_counts)
        assert not np.array_equal(second.observed, first.observed)
