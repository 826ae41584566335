"""The engine's public surface is the operators something calls.

An operator stays when SparkScore's Algorithms 1-3, an example, a README
quickstart or a committed benchmark script calls it (DESIGN.md, "The
operator surface, decided").  These pins fail when an operator comes back
without such a caller, or when a kept one goes.
"""

import importlib

import pytest

from repro.engine.rdd import RDD

KEPT = {
    # the core interface the scheduler and tasks drive
    "num_partitions", "compute", "iterator",
    # persistence
    "persist", "cache", "unpersist", "is_cached",
    # transformations
    "map", "filter", "flat_map", "map_partitions", "repartition",
    "map_values", "reduce_by_key", "join",
    # actions
    "collect", "count", "sum",
    # plan introspection (`doctor` points at `explain`)
    "lineage", "to_debug_string", "explain",
}

REMOVED = [
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
])
def test_removed_module_is_not_importable(module):
    with pytest.raises(ImportError):
        importlib.import_module(module)


def test_removed_classes_are_gone():
    from repro.engine import dependencies, partitioner, rdd

    for module, name in [
        (rdd, "UnionRDD"), (rdd, "CoalescedRDD"),
        (dependencies, "RangeDependency"), (dependencies, "ManyToOneDependency"),
        (partitioner, "RangePartitioner"),
    ]:
        assert not hasattr(module, name), name
