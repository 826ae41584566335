"""The engine's public surface is the operators something calls.

An operator stays when SparkScore's Algorithms 1-3, an example, a README
quickstart or a committed benchmark script calls it (DESIGN.md, "The
operator surface, decided").  These pins fail when an operator comes back
without such a caller, or when a kept one goes.
"""

import dataclasses
import importlib
import inspect

import pytest

from repro.engine.rdd import RDD

KEPT = {
    # the core interface the scheduler and tasks drive
    "num_partitions", "compute", "iterator",
    # caching (one level: cached or not)
    "cache", "unpersist", "is_cached",
    # transformations
    "map", "filter", "flat_map", "map_partitions", "repartition",
    "map_values", "reduce_by_key", "join",
    # actions
    "collect", "count", "sum",
    # plan introspection (`doctor` points at `explain`)
    "lineage", "to_debug_string", "explain",
}

REMOVED = [
    # storage levels (engine/storage.py)
    "persist", "storage_level",
    # engine/ops.py
    "tree_aggregate", "tree_reduce", "checkpoint", "stats_summary", "top", "histogram",
    # pair operators
    "keys", "values", "flat_map_values", "combine_by_key", "fold_by_key",
    "aggregate_by_key", "group_by_key", "group_by", "partition_by", "cogroup",
    "left_outer_join", "right_outer_join", "full_outer_join", "count_by_key",
    "collect_as_map", "lookup", "sort_by_key", "sort_by",
    # narrow transformations and actions
    "map_partitions_with_index", "glom", "key_by", "union", "coalesce", "sample",
    "distinct", "zip_with_index", "collect_partitions", "first", "take",
    "take_ordered", "reduce", "fold", "aggregate", "min", "max", "mean",
    "count_by_value", "foreach", "foreach_partition", "save_as_text_file",
    # Spark camelCase aliases
    "flatMap", "mapPartitions", "mapPartitionsWithIndex", "reduceByKey",
    "groupByKey", "combineByKey", "aggregateByKey", "countByKey", "countByValue",
    "mapValues", "flatMapValues", "sortByKey", "partitionBy", "collectAsMap",
    "zipWithIndex", "keyBy", "takeOrdered", "saveAsTextFile",
]


def test_public_rdd_attributes_are_the_kept_set():
    assert {name for name in dir(RDD) if not name.startswith("_")} == KEPT


def test_removed_operators_raise_attribute_error(ctx):
    rdd = ctx.parallelize([(1, 2)], 1)
    for name in REMOVED:
        with pytest.raises(AttributeError):
            getattr(rdd, name)
    for name in ["union", "empty_rdd"]:
        with pytest.raises(AttributeError):
            getattr(ctx, name)


@pytest.mark.parametrize("module", [
    "repro.engine.ops", "repro.engine.pair_rdd", "repro.genomics.qc",
    "repro.engine.profiler", "repro.engine.storage",
])
def test_removed_module_is_not_importable(module):
    with pytest.raises(ImportError):
        importlib.import_module(module)


def test_one_event_log_reader_and_writer():
    from repro.engine import eventlog
    from repro.engine.metrics import TaskRecord
    from repro.obs import history

    for name in ("write_event_log", "SUPPORTED_VERSIONS", "_RETIRED"):
        assert not hasattr(eventlog, name), name
    assert not hasattr(history, "render_hotspot_table")
    assert "profile" not in {f.name for f in dataclasses.fields(TaskRecord)}


def test_removed_classes_are_gone():
    from repro.engine import dependencies, partitioner, rdd

    for module, name in [
        (rdd, "UnionRDD"), (rdd, "CoalescedRDD"),
        (dependencies, "RangeDependency"), (dependencies, "ManyToOneDependency"),
        (partitioner, "RangePartitioner"),
    ]:
        assert not hasattr(module, name), name


def test_one_storage_level_and_one_cache_model():
    """Cached blocks are live lists in one executor's memory LRU, and a miss
    recomputes from lineage on every backend (DESIGN.md, "One storage
    level, one cache model")."""
    import repro.engine
    from repro.engine.blockmanager import BlockManager, BlockManagerMaster
    from repro.engine.executor import Executor
    from repro.engine.metrics import TaskMetrics
    from repro.obs.diagnostics import CachePressureReport

    assert not hasattr(repro.engine, "StorageLevel")
    assert "StorageLevel" not in repro.engine.__all__
    for cls, name in [
        (BlockManager, "was_spilled"), (BlockManagerMaster, "get_remote"),
        (BlockManagerMaster, "register_manager"),
    ]:
        assert not hasattr(cls, name), name
    for cls in (BlockManager, Executor):
        assert "spill_dir" not in inspect.signature(cls).parameters, cls
    retired = {"remote_cache_hits", "disk_blocks_read", "blocks_spilled"}
    assert retired.isdisjoint(f.name for f in dataclasses.fields(TaskMetrics))
    assert "blocks_spilled" not in {f.name for f in dataclasses.fields(CachePressureReport)}


# -- one channel from task to driver ------------------------------------------
#
# An event type stays when a listener outside the tests subscribes to it
# (DESIGN.md, "One channel from task to driver"); cache, shuffle and
# executor-membership facts are counted on TaskMetrics and the job record.

KEPT_EVENTS = {
    "JobStart", "JobEnd", "StageSubmitted", "StageCompleted", "TaskStart",
    "TaskEnd", "ExecutorHeartbeat", "ExecutorTimedOut",
    "InferenceBatchCompleted", "SnpSetConverged",
}

REMOVED_EVENTS = [
    "BlockCached", "BlockEvicted", "BlockFetchedRemote", "ShuffleWrite",
    "ShuffleFetch", "ExecutorLost", "ExecutorRegistered",
    "ExecutorDecommissioned",
]


def test_listener_exports_are_the_kept_events():
    from repro.engine import listener

    assert set(listener.__all__) == KEPT_EVENTS | {
        "EngineEvent", "Listener", "ListenerBus", "CollectingListener",
    }


def test_removed_side_channels_raise_attribute_error(ctx):
    from repro.engine import listener
    from repro.obs import spans

    for name in REMOVED_EVENTS:
        with pytest.raises(AttributeError):
            getattr(listener, name)
    for name in ["accumulator", "trace_id", "spans"]:
        with pytest.raises(AttributeError):
            getattr(ctx, name)
    with pytest.raises(AttributeError):
        spans.TracingListener


def test_accumulator_module_is_not_importable():
    with pytest.raises(ImportError):
        importlib.import_module("repro.engine.accumulator")


def test_cogroup_takes_the_two_sides_join_passes(ctx):
    from repro.engine.rdd import CoGroupedRDD

    left = ctx.parallelize([(1, "a"), (2, "b")], 2)
    right = ctx.parallelize([(1, "x")], 1)
    joined = left.join(right)
    (cogrouped,) = [dep.rdd for dep in joined.dependencies]
    assert isinstance(cogrouped, CoGroupedRDD)
    params = list(inspect.signature(CoGroupedRDD.__init__).parameters)[1:]
    assert params == ["ctx", "left", "right", "partitioner"]
    assert not hasattr(cogrouped, "_num_parents")
    assert joined.collect() == [(1, ("a", "x"))]
