"""Key-value operations: shuffles, joins, aggregation by key."""

import operator
from collections import defaultdict

import pytest

from repro.engine.dependencies import Aggregator
from repro.engine.partitioner import HashPartitioner
from repro.engine.rdd import ShuffledRDD


def _identity(value):
    return value


@pytest.fixture
def kv(ctx):
    return ctx.parallelize([(i % 5, i) for i in range(50)], 4)


class TestAggregations:
    def test_reduce_by_key(self, ctx, kv):
        expected = defaultdict(int)
        for i in range(50):
            expected[i % 5] += i
        assert dict(kv.reduce_by_key(operator.add).collect()) == dict(expected)

    def test_reduce_by_key_explicit_partitions(self, kv):
        out = kv.reduce_by_key(operator.add, num_partitions=7)
        assert out.num_partitions() == 7
        assert len(out.collect()) == 5

    def test_map_side_combine_matches_no_combine(self, ctx):
        data = [(i % 3, float(i)) for i in range(30)]

        def combined(map_side_combine):
            agg = Aggregator(_identity, operator.add, operator.add, map_side_combine)
            parent = ctx.parallelize(data, 5)
            return ShuffledRDD(ctx, parent, HashPartitioner(4), agg, "combine").collect()

        assert dict(combined(True)) == pytest.approx(dict(combined(False)))


class TestPartitioning:
    def test_map_values_preserves_partitioner(self, ctx):
        rdd = ctx.parallelize([(i, i) for i in range(10)], 2).reduce_by_key(operator.add, 3)
        assert rdd.map_values(str).partitioner == rdd.partitioner

    def test_plain_map_drops_partitioner(self, ctx):
        rdd = ctx.parallelize([(i, i) for i in range(10)], 2).reduce_by_key(operator.add, 3)
        assert rdd.map(lambda kv: (kv[0] + 1, kv[1])).partitioner is None

    def test_filter_preserves_partitioner(self, ctx):
        rdd = ctx.parallelize([(i, i) for i in range(10)], 2).reduce_by_key(operator.add, 3)
        assert rdd.filter(lambda kv: kv[0] > 2).partitioner == rdd.partitioner

    def test_key_changing_map_after_join_still_shuffles(self, ctx):
        """Regression: reduce_by_key after a key-changing map over a join
        must not reuse the join's partitioner (would yield partial sums)."""
        left = ctx.parallelize([(i, float(i)) for i in range(40)], 4)
        right = ctx.parallelize([(i, 1.0) for i in range(40)], 4)
        joined = left.join(right, num_partitions=4)
        regrouped = joined.map(lambda kv: (kv[0] % 4, kv[1][0])).reduce_by_key(operator.add, 4)
        got = dict(regrouped.collect())
        expected = defaultdict(float)
        for i in range(40):
            expected[i % 4] += float(i)
        assert got == pytest.approx(dict(expected))

    def test_co_partitioned_combine_skips_shuffle(self, ctx):
        rdd = ctx.parallelize([(i % 4, 1) for i in range(16)], 4).reduce_by_key(operator.add, 4)
        before = len(ctx.metrics.jobs)
        out = rdd.map_values(lambda v: 1).reduce_by_key(operator.add, 4)
        assert dict(out.collect()) == {k: 1 for k in range(4)}
        job = ctx.metrics.jobs[-1]
        assert len(ctx.metrics.jobs) == before + 1
        # only the first reduce_by_key's shuffle exists in the lineage; the
        # second, over the same partitioning, added no shuffle-map stage
        shuffle_stages = [s for s in job.stages if s.is_shuffle_map]
        assert len(shuffle_stages) == 1


class TestJoins:
    def test_inner_join(self, ctx):
        a = ctx.parallelize([(1, "a"), (2, "b"), (3, "c")], 2)
        b = ctx.parallelize([(1, "x"), (3, "y"), (4, "z")], 2)
        assert sorted(a.join(b).collect()) == [(1, ("a", "x")), (3, ("c", "y"))]

    def test_join_duplicate_keys_cross_product(self, ctx):
        a = ctx.parallelize([(1, "a1"), (1, "a2")], 2)
        b = ctx.parallelize([(1, "b1"), (1, "b2")], 2)
        assert len(a.join(b).collect()) == 4

    def test_join_reuses_a_partitioned_side(self, ctx):
        """A ``reduce_by_key`` output joins through a narrow dependency:
        only the other side is shuffled to its partitioner."""
        left = ctx.parallelize([(i % 4, i) for i in range(16)], 4).reduce_by_key(operator.add, 3)
        right = ctx.parallelize([(k, str(k)) for k in range(4)], 2)
        joined = left.join(right)
        assert joined.partitioner is None  # flat_map may change keys
        assert sorted(joined.collect()) == [(k, (24 + 4 * k, str(k))) for k in range(4)]
        job = ctx.metrics.jobs[-1]
        # left's reduce shuffle and right's join shuffle; no third for left
        assert len([s for s in job.stages if s.is_shuffle_map]) == 2
        assert job.stages[-1].num_tasks == 3
