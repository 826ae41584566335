"""Broadcast variables and accumulators."""

import operator
import pickle

import pytest

from repro.engine.accumulator import Accumulator, AccumulatorBuffer
from repro.engine.broadcast import Broadcast, BroadcastDestroyedError


class TestBroadcast:
    def test_value_visible_in_tasks(self, ctx):
        table = ctx.broadcast({1: "one", 2: "two"})
        out = ctx.parallelize([1, 2, 1], 2).map(lambda x: table.value[x]).collect()
        assert out == ["one", "two", "one"]

    def test_size_bytes(self, ctx):
        b = ctx.broadcast(list(range(1000)))
        assert b.size_bytes > 1000

    def test_destroy_blocks_access(self, ctx):
        b = ctx.broadcast("payload")
        b.destroy()
        with pytest.raises(BroadcastDestroyedError):
            _ = b.value
        with pytest.raises(BroadcastDestroyedError):
            _ = b.size_bytes

    def test_unique_ids(self, ctx):
        assert ctx.broadcast(1).id != ctx.broadcast(2).id

    def test_repr(self):
        b = Broadcast(7, "x")
        assert "7" in repr(b)
        b.destroy()
        assert "destroyed" in repr(b)

    def test_worker_memo_is_lru_capped(self, monkeypatch):
        # persistent executors hold the memo for the life of the fleet, so
        # it must evict rather than accumulate every broadcast ever seen --
        # by bytes: one entry may be a whole dataset slice
        from repro.engine import transport as tp
        from repro.engine.blockmanager import estimate_size

        t = tp.Transport.create()
        one = estimate_size(list(range(2000)))
        memo = tp._ValueMemo(budget=2 * one + one // 2)
        monkeypatch.setattr(tp, "_WORKER_VALUES", memo)
        monkeypatch.setattr(tp, "_WORKER", {"spec": t.spec(), "transport": t})
        try:
            live, clones = [], []
            for i in range(4):
                live.append(Broadcast(i, list(range(i, i + 2000)), transport=t,
                                      transport_min=0))
                clones.append(pickle.loads(pickle.dumps(live[-1])))
                assert clones[-1].value[0] == i  # fetched by ref through the memo
            assert len(memo) == 2 and memo.bytes_used <= memo.budget
            # an unpickled holder never pins what it resolved: an evicted
            # value is fetched again, not served from the holder
            assert clones[0].value[0] == 0
            assert len(memo) == 2
        finally:
            t.close()

    def test_value_over_the_memo_budget_is_served_but_not_kept(self, monkeypatch):
        from repro.engine import transport as tp

        t = tp.Transport.create()
        memo = tp._ValueMemo(budget=1024)
        monkeypatch.setattr(tp, "_WORKER_VALUES", memo)
        monkeypatch.setattr(tp, "_WORKER", {"spec": t.spec(), "transport": t})
        try:
            b = Broadcast(0, list(range(5000)), transport=t, transport_min=0)
            assert pickle.loads(pickle.dumps(b)).value[-1] == 4999
            assert len(memo) == 0 and memo.bytes_used == 0
        finally:
            t.close()


class TestAccumulator:
    def test_task_side_adds_merge_at_driver(self, ctx):
        acc = ctx.accumulator(0)
        ctx.parallelize(range(20), 4).map(lambda x: acc.add(x)).count()
        assert acc.value == sum(range(20))

    def test_driver_side_add_is_direct(self, ctx):
        acc = ctx.accumulator(5)
        acc.add(3)
        assert acc.value == 8

    def test_adds_inside_shuffle_map_tasks(self, ctx):
        import operator as op

        acc = ctx.accumulator(0)
        rdd = ctx.parallelize([(i % 2, i) for i in range(10)], 2).map(
            lambda kv: (acc.add(1) or kv[0], kv[1])
        )
        rdd.reduce_by_key(op.add).collect()
        assert acc.value == 10

    def test_manual_merge_dedup(self):
        acc = Accumulator(0, 0)
        acc._merge(1, 0, 5)
        acc._merge(1, 0, 5)  # same stage/partition: retried task
        acc._merge(1, 1, 2)
        assert acc.value == 7

    def test_custom_op(self):
        acc = Accumulator(0, 1.0, op=operator.mul, zero=1.0)
        acc._merge(0, 0, 3.0)
        acc._merge(0, 1, 4.0)
        assert acc.value == 12.0

    def test_list_accumulator(self):
        acc = Accumulator(0, [])
        acc._merge(0, 0, [1, 2])
        acc._merge(0, 1, [3])
        assert sorted(acc.value) == [1, 2, 3]

    def test_non_numeric_without_zero_rejected(self):
        with pytest.raises(ValueError):
            Accumulator(0, {"a": 1})

    def test_reset(self):
        acc = Accumulator(0, 0)
        acc._merge(0, 0, 5)
        acc.reset(0)
        acc._merge(0, 0, 3)  # dedup record cleared
        assert acc.value == 3

    def test_picklable_without_lock(self):
        acc = Accumulator(3, 10)
        clone = pickle.loads(pickle.dumps(acc))
        assert clone.value == 10
        clone._merge(0, 0, 1)
        assert clone.value == 11

    def test_buffer_strict_registration(self):
        acc = Accumulator(0, 0)
        buffer = AccumulatorBuffer({})
        with pytest.raises(KeyError):
            buffer.add(acc, 1)

    def test_buffer_merge_path(self):
        acc = Accumulator(0, 0)
        buffer = AccumulatorBuffer({0: acc})
        buffer.add(acc, 2)
        buffer.add(acc, 3)
        buffer.merge_into_driver(stage_id=1, partition=0)
        assert acc.value == 5

    def test_tasks_update_accumulator_via_buffer(self, ctx):
        # end-to-end: accumulator updates flow through task contexts; the
        # engine merges once per successful partition
        acc = ctx.accumulator(0)
        rdd = ctx.parallelize(range(10), 5)
        # run a job whose func records partition sizes through the shared
        # accumulator object captured in the action closure executed inside
        # the task (shared-state backends share driver objects directly)
        sizes = ctx.run_job(rdd, lambda it: sum(1 for _ in it))
        assert sum(sizes) == 10
