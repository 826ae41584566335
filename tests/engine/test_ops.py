"""Extended RDD operations: tree aggregation, checkpoint, stats, histogram."""

import math
import operator

import numpy as np
import pytest

from repro.engine.ops import StatCounter


class TestTreeAggregate:
    def test_matches_flat_aggregate(self, ctx):
        rdd = ctx.parallelize(range(100), 10)
        flat = rdd.aggregate((0, 0), lambda a, x: (a[0] + x, a[1] + 1), lambda a, b: (a[0] + b[0], a[1] + b[1]))
        tree = rdd.tree_aggregate(
            lambda: (0, 0),
            lambda a, x: (a[0] + x, a[1] + 1),
            lambda a, b: (a[0] + b[0], a[1] + b[1]),
            depth=2,
        )
        assert flat == tree

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_depth_invariant(self, ctx, depth):
        rdd = ctx.parallelize(range(64), 16)
        total = rdd.tree_aggregate(lambda: 0, operator.add, operator.add, depth=depth)
        assert total == sum(range(64))

    def test_intermediate_combine_stage_exists(self, ctx):
        rdd = ctx.parallelize(range(64), 16)
        rdd.tree_aggregate(lambda: 0, operator.add, operator.add, depth=2)
        # at depth 2 with 16 partitions a shuffle combine level must run
        assert any(s.is_shuffle_map for s in ctx.metrics.jobs[-1].stages)

    def test_empty_rdd_returns_zero(self, ctx):
        rdd = ctx.parallelize([], 4)
        for depth in (1, 2):
            # every empty partition folds to one zero and the driver adds
            # none: four sevens, combined in the driver or a level below it
            assert rdd.tree_aggregate(lambda: 7, operator.add, operator.add, depth=depth) == 28
            # for an additive monoid's zero that is the zero again
            assert rdd.tree_aggregate(lambda: 0, operator.add, operator.add, depth=depth) == 0

    def test_invalid_depth(self, ctx):
        with pytest.raises(ValueError):
            ctx.parallelize([1], 1).tree_aggregate(lambda: 0, operator.add, operator.add, depth=0)

    def test_mutable_zero_not_shared(self, ctx):
        rdd = ctx.parallelize(range(20), 5)
        out = rdd.tree_aggregate(list, lambda acc, x: acc + [x], operator.add)
        assert sorted(out) == list(range(20))


class TestTreeReduce:
    def test_matches_reduce(self, ctx):
        rdd = ctx.parallelize(range(1, 50), 7)
        assert rdd.tree_reduce(operator.add) == rdd.reduce(operator.add)

    def test_with_empty_partitions(self, ctx):
        rdd = ctx.parallelize([5, 6], 8)
        assert rdd.tree_reduce(operator.add) == 11

    def test_empty_raises(self, ctx):
        with pytest.raises(ValueError):
            ctx.parallelize([], 4).tree_reduce(operator.add)


class TestCheckpoint:
    def test_same_data_no_lineage(self, ctx):
        rdd = ctx.parallelize(range(20), 4).map(lambda x: x * 2).filter(lambda x: x > 4)
        cp = rdd.checkpoint()
        assert cp.collect() == rdd.collect()
        assert cp.dependencies == []
        assert cp.num_partitions() == rdd.num_partitions()

    def test_parent_not_recomputed_after_checkpoint(self, ctx):
        calls = []
        rdd = ctx.parallelize(range(8), 2).map(lambda x: calls.append(x) or x)
        cp = rdd.checkpoint()
        before = len(calls)
        cp.count()
        cp.sum()
        assert len(calls) == before

    def test_preserves_partitioner(self, ctx):
        rdd = ctx.parallelize([(i, i) for i in range(10)], 2).partition_by(3)
        cp = rdd.checkpoint()
        assert cp.partitioner == rdd.partitioner
        # co-partitioned combine after checkpoint still skips the shuffle
        out = dict(cp.reduce_by_key(operator.add, 3).collect())
        assert out == {i: i for i in range(10)}

    def test_iterative_lineage_stays_flat(self, ctx):
        rdd = ctx.parallelize(range(10), 2)
        for _ in range(5):
            rdd = rdd.map(lambda x: x + 1).checkpoint()
        assert rdd.collect() == [x + 5 for x in range(10)]
        assert len(rdd.lineage()) == 1


class TestStatsSummary:
    def test_against_numpy(self, ctx, rng):
        values = rng.normal(3.0, 2.0, 500).tolist()
        stats = ctx.parallelize(values, 8).stats_summary()
        assert stats.count == 500
        assert stats.mean == pytest.approx(np.mean(values))
        assert stats.variance == pytest.approx(np.var(values))
        assert stats.sample_variance == pytest.approx(np.var(values, ddof=1))
        assert stats.stdev == pytest.approx(np.std(values))
        assert stats.min_value == min(values)
        assert stats.max_value == max(values)
        assert stats.sum == pytest.approx(sum(values))

    def test_merge_order_independent(self):
        a, b = StatCounter(), StatCounter()
        for v in (1.0, 2.0, 3.0):
            a.add(v)
        for v in (10.0, 20.0):
            b.add(v)
        merged1 = StatCounter().merge(a).merge(b)
        values = [1.0, 2.0, 3.0, 10.0, 20.0]
        direct = StatCounter()
        for v in values:
            direct.add(v)
        assert merged1.mean == pytest.approx(direct.mean)
        assert merged1.m2 == pytest.approx(direct.m2)

    def test_empty(self, ctx):
        stats = ctx.parallelize([], 3).stats_summary()
        assert stats.count == 0
        assert math.isnan(stats.variance)


class TestTopAndHistogram:
    def test_top(self, ctx, rng):
        values = rng.integers(0, 10_000, 200).tolist()
        assert ctx.parallelize(values, 8).top(5) == sorted(values, reverse=True)[:5]

    def test_top_with_key(self, ctx):
        assert ctx.parallelize([-9, 3, -1], 2).top(1, key=abs) == [-9]

    def test_top_zero(self, ctx):
        assert ctx.parallelize([1], 1).top(0) == []

    def test_histogram_even_buckets(self, ctx):
        edges, counts = ctx.parallelize([0.0, 1.0, 2.0, 3.0, 4.0], 2).histogram(2)
        assert edges == [0.0, 2.0, 4.0]
        assert counts == [2, 3]  # right edge closed

    def test_histogram_explicit_edges(self, ctx):
        edges, counts = ctx.parallelize([1, 5, 9, 100], 2).histogram([0, 10, 20])
        assert counts == [3, 0]  # 100 is out of range and dropped

    def test_histogram_constant_values(self, ctx):
        edges, counts = ctx.parallelize([2.0, 2.0], 1).histogram(4)
        assert sum(counts) == 2

    def test_histogram_validation(self, ctx):
        with pytest.raises(ValueError):
            ctx.parallelize([1.0], 1).histogram(0)
        with pytest.raises(ValueError):
            ctx.parallelize([1.0], 1).histogram([3, 1])
        with pytest.raises(ValueError):
            ctx.parallelize([], 1).histogram(3)
