"""Broadcast variables (the engine's one shared-variable kind: it has no
accumulators, see tests/engine/test_surface.py)."""

import pickle

import pytest

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
