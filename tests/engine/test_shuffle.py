"""Shuffle: map-side bucketing, the map-output registry, prefetch, loss."""

import operator

import pytest

from repro.engine.dependencies import Aggregator, ShuffleDependency
from repro.engine.metrics import TaskMetrics
from repro.engine.partitioner import HashPartitioner
from repro.engine.serializer import FrameBatch
from repro.engine.shuffle import FetchFailedError, ShuffleManager, bucket_map_output


class _FakeRdd:
    pass


def make_dep(shuffle_id=0, partitions=2, aggregator=None):
    return ShuffleDependency(_FakeRdd(), HashPartitioner(partitions), shuffle_id, aggregator)


def write(mgr, dep, map_partition, records, executor_id, metrics=None):
    """A map task's bucketing, then the driver's registration of its buckets."""
    metrics = metrics if metrics is not None else TaskMetrics()
    buckets = bucket_map_output(dep, records, metrics)
    return mgr.register_map_output(dep, map_partition, buckets, executor_id, metrics)


def fetch(mgr, shuffle_id, reduce_partition):
    """What a reduce task reads: the prefetched frames, decoded in order."""
    return list(FrameBatch([b.payload for b in mgr.fetch_blocks(shuffle_id, reduce_partition)]))


class TestWriteFetch:
    def test_roundtrip(self):
        mgr = ShuffleManager()
        dep = make_dep(partitions=2)
        mgr.register_shuffle(0, 1)
        write(mgr, dep, 0, [(0, "a"), (1, "b"), (2, "c")], "e0")
        part0 = fetch(mgr, 0, 0)
        part1 = fetch(mgr, 0, 1)
        assert sorted(part0) == [(0, "a"), (2, "c")]
        assert part1 == [(1, "b")]

    def test_fetch_merges_all_maps(self):
        mgr = ShuffleManager()
        dep = make_dep(partitions=1)
        mgr.register_shuffle(0, 2)
        write(mgr, dep, 0, [(1, "x")], "e0")
        write(mgr, dep, 1, [(1, "y")], "e1")
        assert sorted(fetch(mgr, 0, 0)) == [(1, "x"), (1, "y")]

    def test_fetch_unregistered_raises_keyerror(self):
        with pytest.raises(KeyError):
            fetch(ShuffleManager(), 5, 0)

    def test_fetch_missing_map_raises(self):
        mgr = ShuffleManager()
        dep = make_dep(partitions=1)
        mgr.register_shuffle(0, 2)
        write(mgr, dep, 0, [(1, "x")], "e0")
        with pytest.raises(FetchFailedError) as exc:
            fetch(mgr, 0, 0)
        assert exc.value.map_partition == 1

    def test_missing_maps_tracking(self):
        mgr = ShuffleManager()
        dep = make_dep(partitions=1)
        mgr.register_shuffle(0, 3)
        assert mgr.missing_maps(0) == {0, 1, 2}
        write(mgr, dep, 1, [], "e0")
        assert mgr.missing_maps(0) == {0, 2}

    def test_map_side_combine_reduces_records(self):
        mgr = ShuffleManager()
        agg = Aggregator(lambda v: v, operator.add, operator.add)
        dep = make_dep(partitions=1, aggregator=agg)
        mgr.register_shuffle(0, 1)
        metrics = TaskMetrics()
        write(mgr, dep, 0, [(1, 1)] * 100, "e0", metrics)
        assert metrics.shuffle_records_written == 1
        assert fetch(mgr, 0, 0) == [(1, 100)]

    def test_no_combine_keeps_records(self):
        mgr = ShuffleManager()
        agg = Aggregator(lambda v: [v], lambda a, v: a + [v], operator.add, map_side_combine=False)
        dep = make_dep(partitions=1, aggregator=agg)
        mgr.register_shuffle(0, 1)
        metrics = TaskMetrics()
        write(mgr, dep, 0, [(1, 1)] * 10, "e0", metrics)
        assert metrics.shuffle_records_written == 10

    def test_bytes_metrics_tracked(self):
        mgr = ShuffleManager()
        dep = make_dep(partitions=2)
        mgr.register_shuffle(0, 1)
        metrics = TaskMetrics()
        status = write(mgr, dep, 0, [(i, i) for i in range(10)], "e0", metrics)
        assert metrics.shuffle_bytes_written > 0
        assert len(status.bytes_by_reducer) == 2


class TestFailureHandling:
    def test_remove_outputs_on_executor(self):
        mgr = ShuffleManager()
        dep = make_dep(partitions=1)
        mgr.register_shuffle(0, 2)
        write(mgr, dep, 0, [(1, "x")], "e0")
        write(mgr, dep, 1, [(1, "y")], "e1")
        lost = mgr.remove_outputs_on_executor("e0")
        assert lost == {0: {0}}
        assert mgr.missing_maps(0) == {0}
        with pytest.raises(FetchFailedError):
            fetch(mgr, 0, 0)

    def test_unregister_shuffle(self):
        mgr = ShuffleManager()
        dep = make_dep(partitions=1)
        mgr.register_shuffle(0, 1)
        write(mgr, dep, 0, [(1, "x")], "e0")
        mgr.unregister_shuffle(0)
        with pytest.raises(KeyError):
            mgr.missing_maps(0)


class TestShuffleReuseAcrossJobs:
    def test_second_action_skips_map_stage(self, ctx):
        rdd = ctx.parallelize([(i % 3, 1) for i in range(30)], 4).reduce_by_key(operator.add)
        first = dict(rdd.collect())
        jobs_before = len(ctx.metrics.jobs)
        second = dict(rdd.collect())
        assert first == second == {0: 10, 1: 10, 2: 10}
        job = ctx.metrics.jobs[-1]
        assert len(ctx.metrics.jobs) == jobs_before + 1
        # map outputs were still registered: no shuffle-map stage re-ran
        assert all(not s.is_shuffle_map or s.num_tasks == 0 for s in job.stages) or not any(
            s.is_shuffle_map for s in job.stages
        )
