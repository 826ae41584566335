"""Block-manager caching: hits, eviction, spill, remote fetch, residency."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from repro.config import EngineConfig
from repro.core.local import LocalSparkScore
from repro.core.sparkscore import SparkScoreAnalysis
from repro.engine.blockmanager import BlockManager, BlockManagerMaster, estimate_size
from repro.engine.context import Context
from repro.engine.metrics import TaskMetrics
from repro.engine.storage import StorageLevel
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

    def test_persist_levels_rejected_type(self, ctx):
        with pytest.raises(TypeError):
            ctx.parallelize([1], 1).persist("memory")

    def test_memory_ser_roundtrip(self, ctx):
        rdd = ctx.parallelize([np.arange(5), np.arange(3)], 2).persist(StorageLevel.MEMORY_SER)
        first = rdd.collect()
        second = rdd.collect()
        assert all(np.array_equal(a, b) for a, b in zip(first, second))
        assert ctx.metrics.jobs[-1].totals().cache_hits == 2

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
        data = bm.put((1, 0), iter([1, 2, 3]), StorageLevel.MEMORY)
        assert data == [1, 2, 3]
        assert bm.get((1, 0)) == [1, 2, 3]

    def test_get_missing_returns_none(self):
        bm = BlockManager("e0", memory_budget=1 << 20)
        assert bm.get((9, 9)) is None

    def test_lru_eviction(self):
        payload = [np.zeros(1000)] # ~8KB
        bm = BlockManager("e0", memory_budget=20_000)
        bm.put((1, 0), list(payload), StorageLevel.MEMORY)
        bm.put((1, 1), list(payload), StorageLevel.MEMORY)
        # touch block 0 so block 1 is the LRU victim
        bm.get((1, 0))
        bm.put((1, 2), list(payload), StorageLevel.MEMORY)
        assert bm.get((1, 1)) is None
        assert bm.get((1, 0)) is not None
        assert bm.evictions >= 1

    def test_put_charges_its_evictions_to_the_task(self, tmp_path):
        payload = [np.zeros(1000)]  # ~8KB
        bm = BlockManager("e0", memory_budget=20_000, spill_dir=str(tmp_path))
        metrics = TaskMetrics()
        bm.put((1, 0), list(payload), StorageLevel.MEMORY, metrics=metrics)
        bm.put((1, 1), list(payload), StorageLevel.MEMORY_AND_DISK, metrics=metrics)
        assert (metrics.blocks_evicted, metrics.blocks_spilled) == (0, 0)
        bm.put((1, 2), list(payload), StorageLevel.MEMORY, metrics=metrics)  # drops (1, 0)
        bm.put((1, 3), list(payload), StorageLevel.MEMORY, metrics=metrics)  # spills (1, 1)
        assert (metrics.blocks_evicted, metrics.blocks_spilled) == (2, 1)
        assert bm.evictions == 2

    def test_oversized_block_not_cached(self):
        bm = BlockManager("e0", memory_budget=100)
        data = bm.put((1, 0), [np.zeros(10_000)], StorageLevel.MEMORY)
        assert len(data) == 1  # still returned
        assert bm.get((1, 0)) is None

    def test_spill_to_disk_and_reload(self, tmp_path):
        payload = [np.arange(1000)]
        bm = BlockManager("e0", memory_budget=10_000, spill_dir=str(tmp_path))
        bm.put((1, 0), list(payload), StorageLevel.MEMORY_AND_DISK)
        bm.put((1, 1), list(payload), StorageLevel.MEMORY_AND_DISK)
        # (1, 0) evicted -> spilled, still readable
        assert bm.spills >= 1
        reloaded = bm.get((1, 0))
        assert reloaded is not None
        assert np.array_equal(reloaded[0], payload[0])

    def test_clear_removes_the_spill_directory_it_made(self):
        # cluster workers hold one manager for life and clear it on exit
        import os

        bm = BlockManager("e0", memory_budget=256)
        bm.put((3, 0), [np.arange(100, dtype=np.float64)], StorageLevel.MEMORY_AND_DISK)
        spill_dir = bm._spill_dir
        assert bm.was_spilled((3, 0)) and os.listdir(spill_dir)
        bm.clear()
        assert not os.path.exists(spill_dir)

    def test_remove_frees_memory(self):
        bm = BlockManager("e0", memory_budget=1 << 20)
        bm.put((1, 0), [1], StorageLevel.MEMORY)
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

    def test_serialized_level_stores_the_frame_alone(self):
        """Regression: a MEMORY_SER block used to pin the live list next to
        its frame while accounting for the frame only."""
        from repro.engine.serializer import dumps

        bm = BlockManager("e0", memory_budget=1 << 20)
        data = [np.arange(512, dtype=np.float64) for _ in range(4)]
        bm.put((7, 0), data, StorageLevel.MEMORY_SER)
        frame = dumps(data)
        stored = bm._blocks[(7, 0)].data
        assert isinstance(stored, bytes) and stored == frame  # no live list held
        assert bm.memory_used == len(frame) + 64
        out = bm.get((7, 0))
        assert len(out) == 4 and all(np.array_equal(a, b) for a, b in zip(out, data))
        # every read decodes a fresh copy: mutating one cannot reach the cache
        assert out is not data and out[0] is not data[0]
        out[0][:] = -1.0
        assert np.array_equal(bm.get((7, 0))[0], data[0])

    def test_spill_roundtrip_with_serializer(self, tmp_path):
        bm = BlockManager("e0", memory_budget=256, spill_dir=str(tmp_path))
        data = [np.arange(100, dtype=np.float64)]
        bm.put((3, 0), data, StorageLevel.MEMORY_AND_DISK)
        assert bm.was_spilled((3, 0))
        out = bm.get((3, 0))
        assert np.array_equal(out[0], data[0])


class TestBlockMaster:
    def test_register_and_locations(self):
        master = BlockManagerMaster()
        master.register_block((1, 0), "e0")
        master.register_block((1, 0), "e1")
        assert master.locations((1, 0)) == ["e0", "e1"]

    def test_remove_executor_reports_lost(self):
        master = BlockManagerMaster()
        bm = BlockManager("e0", 1 << 20)
        master.register_manager(bm)
        master.register_block((1, 0), "e0")
        master.register_block((1, 1), "e0")
        master.register_block((1, 1), "e1")
        lost = master.remove_executor("e0")
        assert lost == [(1, 0)]
        assert master.locations((1, 1)) == ["e1"]

    def test_get_remote_repairs_stale_registry(self):
        master = BlockManagerMaster()
        bm = BlockManager("e0", 1 << 20)
        master.register_manager(bm)
        master.register_block((1, 0), "e0")  # registered but never stored
        assert master.get_remote((1, 0), excluding="e9") is None
        assert master.locations((1, 0)) == []

    def test_remote_fetch_across_executors(self):
        config = EngineConfig(backend="serial", num_executors=2, executor_cores=1, default_parallelism=2)
        with Context(config) as ctx:
            rdd = ctx.parallelize(range(8), 2).cache()
            rdd.count()  # populates both executors
            # force all tasks onto one executor by killing the other
            holders = {
                e.executor_id: e.block_manager.block_ids() for e in ctx.executors
            }
            assert sum(len(v) for v in holders.values()) == 2
            total = rdd.sum()
            assert total == 28

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
