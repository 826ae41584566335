"""DAG construction and scheduling behavior."""

import itertools
import operator
import time

import pytest

from repro.engine.dag import StageGraph, upstream_shuffle_deps
from repro.engine.scheduler import stage_cached_rdds, stage_shuffle_inputs


class TestStageGraph:
    def test_no_shuffle_single_stage(self, ctx):
        rdd = ctx.parallelize(range(4), 2).map(str).filter(bool)
        graph = StageGraph(rdd, itertools.count())
        assert len(graph) == 1
        assert not graph.result_stage.is_shuffle_map

    def test_one_shuffle_two_stages(self, ctx):
        rdd = ctx.parallelize([(1, 1)], 2).reduce_by_key(operator.add)
        graph = StageGraph(rdd, itertools.count())
        assert len(graph) == 2
        assert len(graph.result_stage.parents) == 1
        assert graph.result_stage.parents[0].is_shuffle_map

    def test_join_three_stages(self, ctx):
        a = ctx.parallelize([(1, 1)], 2)
        b = ctx.parallelize([(1, 2)], 2)
        graph = StageGraph(a.join(b), itertools.count())
        # two shuffle-map stages (one per join side) + result
        assert len(graph) == 3

    def test_chained_shuffles(self, ctx):
        rdd = (
            ctx.parallelize([(i % 4, 1) for i in range(16)], 4)
            .reduce_by_key(operator.add)
            .map(lambda kv: (kv[0] % 2, kv[1]))
            .reduce_by_key(operator.add)
        )
        graph = StageGraph(rdd, itertools.count())
        assert len(graph) == 3
        order = [s.id for s in graph.all_stages()]
        assert order == sorted(order)

    def test_shared_shuffle_memoized(self, ctx):
        base = ctx.parallelize([(1, 1), (2, 2)], 2).reduce_by_key(operator.add)
        merged = base.map_values(lambda v: v + 1).join(base.map_values(lambda v: v + 2))
        graph = StageGraph(merged, itertools.count())
        # both join sides reach the shared parent shuffle through narrow
        # dependencies: it appears once, not twice
        assert len(graph.shuffle_stages) == 1

    def test_upstream_deps_stop_at_shuffle(self, ctx):
        rdd = ctx.parallelize([(1, 1)], 2).reduce_by_key(operator.add).map_values(str)
        deps = upstream_shuffle_deps(rdd)
        assert len(deps) == 1

    def test_stage_names(self, ctx):
        rdd = ctx.parallelize([(1, 1)], 2).reduce_by_key(operator.add)
        graph = StageGraph(rdd, itertools.count())
        names = [s.name for s in graph.all_stages()]
        assert any("shuffle_map" in n for n in names)
        assert any("result" in n for n in names)


class TestProcessBackendHelpers:
    def test_stage_shuffle_inputs(self, ctx):
        rdd = ctx.parallelize([(1, 1)], 2).reduce_by_key(operator.add, 3).map_values(str)
        shuffle_id = rdd.lineage()[-2].shuffle_dep.shuffle_id  # type: ignore[attr-defined]
        assert stage_shuffle_inputs(rdd, 1) == {(shuffle_id, 1)}

    def test_stage_shuffle_inputs_empty_for_narrow(self, ctx):
        rdd = ctx.parallelize(range(4), 2).map(str)
        assert stage_shuffle_inputs(rdd, 0) == set()

    def test_stage_cached_blocks(self, ctx):
        base = ctx.parallelize(range(4), 2).cache()
        rdd = base.map(str)
        assert stage_cached_rdds(rdd) == [base]

    def test_cached_blocks_not_traversed_past_shuffle(self, ctx):
        base = ctx.parallelize([(1, 1)], 2).cache()
        rdd = base.reduce_by_key(operator.add)
        assert stage_cached_rdds(rdd) == []


class TestExecutionDeterminism:
    def test_metrics_recorded_per_job(self, ctx):
        ctx.parallelize(range(10), 2).count()
        ctx.parallelize(range(10), 2).count()
        assert len(ctx.metrics.jobs) == 2
        job = ctx.metrics.last_job
        assert job.wall_seconds > 0
        assert job.stages[0].num_tasks == 2
        assert all(rec.succeeded for rec in job.stages[0].tasks)

    def test_stopped_context_rejects_work(self, serial_config):
        from repro.engine.context import Context

        context = Context(serial_config)
        context.stop()
        with pytest.raises(RuntimeError):
            context.parallelize([1], 1)

    def test_executor_task_counts(self, ctx):
        ctx.parallelize(range(16), 8).count()
        ran = sum(e.tasks_run for e in ctx.executors)
        assert ran == 8


def _sleep_then_key(x):
    time.sleep(0.3)
    return (x % 2, x)


class TestClusterTaskSet:
    def test_map_stage_launches_its_first_wave_in_parallel(self):
        """A shuffle-map stage is not held to one task until it ends: on
        2x2 slots the four sleeping maps all launch before any finishes,
        and the stage takes about one sleep, not four."""
        from repro.config import EngineConfig
        from repro.engine.context import Context
        from repro.engine.listener import CollectingListener, TaskEnd, TaskStart

        config = EngineConfig(
            backend="cluster", num_executors=2, executor_cores=2,
            default_parallelism=4,
        )
        with Context(config) as ctx:
            sink = ctx.listener_bus.add_listener(CollectingListener(TaskStart, TaskEnd))
            result = ctx.parallelize(range(4), 4).map(_sleep_then_key).reduce_by_key(
                lambda a, b: a + b
            ).collect()
            map_stage = ctx.metrics.last_job.stages[0]
        assert map_stage.is_shuffle_map
        assert sorted(result) == [(0, 2), (1, 4)]
        names = sink.names()
        assert names[: names.index("TaskEnd")].count("TaskStart") == 4
        assert map_stage.wall_seconds < 2 * 0.3
