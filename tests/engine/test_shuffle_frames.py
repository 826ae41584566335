"""Shuffle blocks as frames, and fault recovery through them.

The shuffle store holds frames, not live lists; these tests pin the frame
lifecycle (map-side encode, adopt-without-re-encode, lazy reduce-side
decode), driver-side byte pricing, and the FetchFailed ->
stage-resubmission recovery path running entirely over frames on both
backends (``register_map_output`` is the one writer of map outputs).
"""

import operator

import numpy as np
import pytest

from repro.config import EngineConfig
from repro.engine.context import Context
from repro.engine.dependencies import Aggregator, ShuffleDependency
from repro.engine.faults import FaultInjector, FaultPlan
from repro.engine.metrics import TaskMetrics
from repro.engine.partitioner import HashPartitioner
from repro.engine.serializer import FrameBatch
from repro.engine.shuffle import (
    FetchFailedError,
    ShuffleBlock,
    ShuffleManager,
    bucket_map_output,
)
from repro.engine.task import TaskContext


class _FakeRdd:
    pass


def make_dep(shuffle_id=0, partitions=2, aggregator=None):
    return ShuffleDependency(_FakeRdd(), HashPartitioner(partitions), shuffle_id, aggregator)


def write(mgr, dep, map_partition, records, executor_id, metrics=None):
    """A map task's bucketing, then the driver's registration of its buckets."""
    metrics = metrics if metrics is not None else TaskMetrics()
    buckets = bucket_map_output(dep, records, metrics)
    return mgr.register_map_output(dep, map_partition, buckets, executor_id, metrics)


def read(mgr, shuffle_id, split):
    """A reduce task's read of its prefetched frames: (records, task metrics)."""
    frames = FrameBatch([b.payload for b in mgr.fetch_blocks(shuffle_id, split)])
    tc = TaskContext(0, split, 0, "e0", prefetched_shuffle={(shuffle_id, split): frames})
    return list(tc.shuffle_input(shuffle_id, split)), tc.metrics


class TestFrameStorage:
    def test_outputs_stored_as_frames(self):
        mgr = ShuffleManager()
        dep = make_dep(partitions=2)
        mgr.register_shuffle(0, 1)
        write(mgr, dep, 0, [(i, np.full(4, float(i))) for i in range(6)], "e0")
        blocks = mgr.fetch_blocks(0, 0)
        assert blocks and all(isinstance(b, ShuffleBlock) for b in blocks)
        assert all(isinstance(b.payload, bytes) for b in blocks)

    def test_fetch_decodes_bit_identical(self):
        mgr = ShuffleManager()
        dep = make_dep(partitions=2)
        mgr.register_shuffle(0, 1)
        records = [(i % 2, np.arange(5, dtype=np.float64) * i) for i in range(8)]
        write(mgr, dep, 0, records, "e0")
        got = read(mgr, 0, 0)[0] + read(mgr, 0, 1)[0]
        assert len(got) == 8
        by_key = sorted(got, key=lambda kv: kv[1].sum())
        expect = sorted(records, key=lambda kv: kv[1].sum())
        for (gk, gv), (ek, ev) in zip(by_key, expect):
            assert gk == ek and np.array_equal(gv, ev)

    def test_serializer_seconds_metric(self):
        mgr = ShuffleManager()
        dep = make_dep(partitions=1)
        mgr.register_shuffle(0, 1)
        metrics = TaskMetrics()
        write(mgr, dep, 0, [(1, "x")] * 50, "e0", metrics)
        assert metrics.serializer_seconds > 0
        _, read_metrics = read(mgr, 0, 0)
        assert read_metrics.serializer_seconds > 0

    def test_register_map_output_adopts_frames_without_reencode(self):
        dep = make_dep(partitions=2)
        buckets = bucket_map_output(dep, [(0, "a"), (1, "b"), (2, "c")], TaskMetrics())

        driver = ShuffleManager()
        driver.register_shuffle(0, 1)
        metrics = TaskMetrics()
        status = driver.register_map_output(dep, 0, buckets, "e0", metrics)
        # adopted payloads are the very same frame objects
        assert driver._outputs[(0, 0)][0].payload is buckets[0].payload
        # driver prices bytes; the map task already counted records
        assert metrics.shuffle_bytes_written == sum(status.bytes_by_reducer) > 0
        assert metrics.shuffle_records_written == 0
        assert sorted(read(driver, 0, 0)[0]) == [(0, "a"), (2, "c")]

    def test_worker_manager_skips_byte_pricing(self):
        """The map task counts records and encode time, never bytes: those
        are priced once, where the driver registers the frames."""
        metrics = TaskMetrics()
        bucket_map_output(make_dep(partitions=1), [(0, 1)] * 20, metrics)
        assert metrics.shuffle_bytes_written == 0
        assert metrics.shuffle_records_written > 0  # records still counted


class TestFetchFailureOverFrames:
    def test_lost_executor_invalidates_frames(self):
        mgr = ShuffleManager()
        dep = make_dep(partitions=1)
        mgr.register_shuffle(0, 2)
        write(mgr, dep, 0, [(1, "x")], "e0")
        write(mgr, dep, 1, [(1, "y")], "e1")
        mgr.remove_outputs_on_executor("e0")
        with pytest.raises(FetchFailedError) as exc:
            mgr.fetch_blocks(0, 0)
        assert exc.value.map_partition == 0

    def test_map_side_combine_through_frames(self):
        mgr = ShuffleManager()
        agg = Aggregator(lambda v: v, operator.add, operator.add)
        dep = make_dep(partitions=1, aggregator=agg)
        mgr.register_shuffle(0, 1)
        metrics = TaskMetrics()
        write(mgr, dep, 0, [(1, 1)] * 100, "e0", metrics)
        assert metrics.shuffle_records_written == 1
        assert read(mgr, 0, 0)[0] == [(1, 100)]


def _make_ctx(backend, plan=None):
    injector = FaultInjector(plan) if plan is not None else None
    return Context(
        EngineConfig(
            backend=backend,
            num_executors=3,
            executor_cores=1,
            default_parallelism=6,
        ),
        fault_injector=injector,
    )


class TestEngineRecoveryOverFrames:
    """FetchFailed -> parent-stage resubmission with the frame store."""

    def test_shuffle_output_lost_triggers_stage_resubmit(self):
        with _make_ctx("serial") as ctx:
            rdd = (
                ctx.parallelize([(i % 3, 1) for i in range(30)], 6)
                .reduce_by_key(operator.add)
            )
            first = dict(rdd.collect())
            victim = sorted({
                executor_id for _key, executor_id in ctx.shuffle_manager._writers.items()
            })[0]
            ctx.kill_executor(victim)
            missing = ctx.shuffle_manager.missing_maps(rdd.shuffle_dep.shuffle_id)
            assert missing  # frames actually vanished
            second = dict(rdd.collect())
            assert first == second == {0: 10, 1: 10, 2: 10}
            map_stages = [s for s in ctx.metrics.jobs[-1].stages if s.is_shuffle_map]
            assert map_stages and map_stages[0].num_tasks == len(missing)

    def test_injected_executor_loss_mid_shuffle(self):
        plan = FaultPlan(kill_executor_after_tasks={"exec-1": 2})
        with _make_ctx("serial", plan) as ctx:
            got = dict(
                ctx.parallelize([(i % 5, i) for i in range(50)], 10)
                .reduce_by_key(operator.add)
                .collect()
            )
            expected = {}
            for i in range(50):
                expected[i % 5] = expected.get(i % 5, 0) + i
            assert got == expected

    @pytest.mark.slow
    def test_recovery_through_worker_combined_route(self):
        """Cluster backend: map output flows through register_map_output
        (worker-encoded frames adopted by the driver) as on serial, then an
        executor dies and the reduce recovers via resubmission of the lost
        maps."""
        with _make_ctx("cluster") as ctx:
            rdd = (
                ctx.parallelize([(i % 4, i) for i in range(40)], 4)
                .reduce_by_key(operator.add)
            )
            first = dict(rdd.collect())
            victim = sorted({
                executor_id for _key, executor_id in ctx.shuffle_manager._writers.items()
            })[0]
            ctx.kill_executor(victim)
            assert ctx.shuffle_manager.missing_maps(rdd.shuffle_dep.shuffle_id)
            second = dict(rdd.collect())
        expected = {}
        for i in range(40):
            expected[i % 4] = expected.get(i % 4, 0) + i
        assert first == second == expected
