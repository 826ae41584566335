"""Narrow transformations and actions of the base RDD."""

import operator

import pytest

from repro.engine.rdd import _slice_collection


def _size(it):
    return [sum(1 for _ in it)]


class TestParallelize:
    def test_collect_roundtrip(self, ctx):
        data = list(range(37))
        assert ctx.parallelize(data, 5).collect() == data

    def test_partition_count(self, ctx):
        assert ctx.parallelize(range(10), 3).num_partitions() == 3

    def test_default_parallelism_used(self, ctx):
        assert ctx.parallelize(range(10)).num_partitions() == 4

    def test_more_partitions_than_elements(self, ctx):
        rdd = ctx.parallelize([1, 2], 8)
        assert rdd.num_partitions() == 8
        assert rdd.collect() == [1, 2]

    def test_empty_collection(self, ctx):
        assert ctx.parallelize([], 3).collect() == []

    def test_zero_partitions_rejected(self, ctx):
        with pytest.raises(ValueError):
            ctx.parallelize([1], 0)

    def test_slice_collection_preserves_order_and_coverage(self):
        slices = _slice_collection(list(range(11)), 4)
        assert [x for part in slices for x in part] == list(range(11))
        assert len(slices) == 4

    def test_range_helper(self, ctx):
        assert ctx.range(5).collect() == [0, 1, 2, 3, 4]
        assert ctx.range(2, 10, 3).collect() == [2, 5, 8]


class TestTransformations:
    def test_map(self, ctx):
        assert ctx.parallelize(range(5), 2).map(lambda x: x * 10).collect() == [0, 10, 20, 30, 40]

    def test_filter(self, ctx):
        assert ctx.parallelize(range(10), 3).filter(lambda x: x % 3 == 0).collect() == [0, 3, 6, 9]

    def test_flat_map(self, ctx):
        out = ctx.parallelize([1, 2, 3], 2).flat_map(lambda x: [x] * x).collect()
        assert out == [1, 2, 2, 3, 3, 3]

    def test_chained_lazy_transforms(self, ctx):
        rdd = ctx.parallelize(range(100), 4).map(lambda x: x + 1).filter(lambda x: x % 2 == 0)
        assert rdd.count() == 50

    def test_map_partitions(self, ctx):
        out = ctx.parallelize(range(8), 4).map_partitions(lambda it: [sum(it)]).collect()
        assert out == [1, 5, 9, 13]

    def test_repartition_can_increase_partitions(self, ctx):
        rdd = ctx.parallelize(range(12), 2).repartition(6)
        assert rdd.num_partitions() == 6
        assert sorted(rdd.collect()) == list(range(12))

    def test_repartition_balances_a_skewed_partition(self, ctx):
        sizes = ctx.parallelize(range(64), 1).repartition(4).map_partitions(_size).collect()
        assert sizes == [16, 16, 16, 16]

    def test_repartition_rejects_nonpositive(self, ctx):
        with pytest.raises(ValueError):
            ctx.parallelize([1], 1).repartition(0)


class TestActions:
    def test_count(self, ctx):
        assert ctx.parallelize(range(17), 4).count() == 17

    def test_sum(self, ctx):
        assert ctx.parallelize([4, 1, 7, 2], 2).sum() == 14
        assert ctx.parallelize([], 3).sum() == 0
        # a left fold from 0: per partition, then over the partials in order
        assert ctx.parallelize([0.1, 0.2, 0.3], 2).sum() == (0 + 0.1) + ((0 + 0.2) + 0.3)

    def test_run_job_partition_subset(self, ctx):
        rdd = ctx.parallelize(range(8), 4)
        out = ctx.run_job(rdd, list, partitions=[1, 3])
        assert out == [[2, 3], [6, 7]]


class TestIntrospection:
    def test_lineage_lists_ancestors(self, ctx):
        rdd = ctx.parallelize(range(4), 2).map(str).filter(bool)
        names = [r.name for r in rdd.lineage()]
        assert names == ["parallelize", "map", "filter"]

    def test_debug_string_mentions_shuffle(self, ctx):
        rdd = ctx.parallelize([(1, 1)], 2).reduce_by_key(operator.add)
        assert "shuffle" in rdd.to_debug_string()

    def test_repr(self, ctx):
        assert "partitions=2" in repr(ctx.parallelize([1], 2))

    def test_debug_string_shows_storage_level(self, ctx):
        rdd = ctx.parallelize(range(8), 4).map(str).cache()
        assert "<0/4 cached>" in rdd.to_debug_string()
        rdd.collect()
        assert "<4/4 cached>" in rdd.to_debug_string()
        assert "cached" not in rdd.lineage()[0].to_debug_string()  # uncached parent

    def test_explain_summarizes_shuffles(self, ctx):
        rdd = (
            ctx.parallelize(range(12), 3)
            .map(lambda x: (x % 4, x))
            .reduce_by_key(operator.add, num_partitions=2)
        )
        plan = rdd.explain()
        assert "shuffle 0: 3 map partition(s) -> 2 reduce partition(s)" in plan
        assert "HashPartitioner" in plan

    def test_explain_flat_lineage(self, ctx):
        plan = ctx.parallelize(range(4), 2).map(str).explain()
        assert "single stage" in plan
