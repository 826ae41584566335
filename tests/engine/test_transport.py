"""Shared-memory / temp-file transport: refs, dedup, lifecycle."""

import os
import pickle

import pytest

from repro.engine import task as engine_task
from repro.engine import transport as tp
from repro.engine.task import TaskContext
from repro.engine.transport import ByRef, Transport, TransportRef, from_spec


@pytest.fixture(params=["auto", "file"])
def transport(request, tmp_path):
    if request.param == "file":
        t = Transport("file", str(tmp_path))
    else:
        t = Transport.create()
    yield t
    t.close()


class TestPutGet:
    def test_roundtrip(self, transport):
        blob = b"\x00\x01" * 5000
        assert transport.get(transport.put(blob)) == blob

    def test_ref_is_small_and_picklable(self, transport):
        ref = transport.put(b"x" * (1 << 20))
        assert ref.size == 1 << 20
        wire = pickle.dumps(ref, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(wire) < 512
        assert pickle.loads(wire) == ref

    def test_empty_blob(self, transport):
        ref = transport.put(b"")
        assert transport.get(ref) == b""

    def test_distinct_puts_get_distinct_refs(self, transport):
        r1 = transport.put(b"one")
        r2 = transport.put(b"two")
        assert r1.key != r2.key
        assert transport.get(r1) == b"one"
        assert transport.get(r2) == b"two"


class TestDedup:
    def test_same_content_shares_segment(self, transport):
        blob = b"payload" * 1000
        r1 = transport.put(blob, dedup=True)
        r2 = transport.put(blob, dedup=True)
        assert r1 == r2
        assert transport.dedup_hits == 1
        assert transport.bytes_published == len(blob)  # stored once

    def test_different_content_not_deduped(self, transport):
        r1 = transport.put(b"a" * 100, dedup=True)
        r2 = transport.put(b"b" * 100, dedup=True)
        assert r1.key != r2.key
        assert transport.dedup_hits == 0

    def test_non_dedup_put_always_writes(self, transport):
        blob = b"same"
        r1 = transport.put(blob)
        r2 = transport.put(blob)
        assert r1.key != r2.key


class TestLifecycle:
    def test_delete_removes_payload(self, transport):
        ref = transport.put(b"gone soon")
        transport.delete(ref)
        if ref.scheme == "file":
            assert not os.path.exists(ref.key)
        else:
            with pytest.raises(Exception):
                transport.get(ref)

    def test_delete_is_idempotent(self, transport):
        ref = transport.put(b"x")
        transport.delete(ref)
        transport.delete(ref)  # no raise

    def test_delete_clears_dedup_entry(self, transport):
        blob = b"dedup me" * 100
        r1 = transport.put(blob, dedup=True)
        transport.delete(r1)
        published = transport.bytes_published
        r2 = transport.put(blob, dedup=True)
        # re-materialized for real (not a stale ref to deleted storage)...
        assert transport.bytes_published == published + len(blob)
        assert transport.get(r2) == blob
        # ...under the *same* content-addressed key, so refs embedded in
        # task closures stay byte-identical across republications
        assert r2.key == r1.key

    def test_close_unlinks_created_refs(self, tmp_path):
        t = Transport("file", str(tmp_path))
        refs = [t.put(f"blob {i}".encode()) for i in range(3)]
        t.close()
        assert all(not os.path.exists(r.key) for r in refs)


class TestByRef:
    """The one publish-once / fetch-lazily / memoize-per-worker path."""

    @pytest.fixture
    def as_worker(self, transport, monkeypatch):
        """Make this process look like a worker attached to ``transport``."""
        memo = tp._ValueMemo(budget=1 << 20)
        monkeypatch.setattr(tp, "_WORKER_VALUES", memo)
        monkeypatch.setattr(tp, "_WORKER", {"spec": transport.spec(), "transport": transport})
        return memo

    def test_small_values_ride_inline(self, transport):
        wire = pickle.dumps(ByRef([1, 2, 3], transport))
        assert transport.bytes_published == 0
        assert pickle.loads(wire).value == [1, 2, 3]

    def test_large_value_is_published_once_however_often_it_is_pickled(
        self, transport, as_worker
    ):
        value = list(range(5000))
        holder = ByRef(value, transport)
        wires = [pickle.dumps(holder) for _ in range(3)]
        assert len(set(wires)) == 1 and len(wires[0]) < 512  # a ref, the same ref
        assert transport.bytes_published == holder.size_bytes
        assert transport.dedup_hits == 0  # memoized on the holder, not re-offered
        clone = pickle.loads(wires[0])
        assert clone.value == value and len(as_worker) == 1
        assert clone.value is pickle.loads(wires[1]).value  # one copy per worker

    def test_unpublish_then_pickle_republishes_under_the_same_ref(self, transport):
        holder = ByRef(b"x" * 10_000, transport)
        wire = pickle.dumps(holder)
        holder.unpublish()
        assert holder.value == b"x" * 10_000  # the live value stays
        assert pickle.dumps(holder) == wire  # content-addressed: same bytes
        assert transport.bytes_published == 2 * holder.size_bytes

    def test_segment_goes_with_its_holder(self, transport):
        holder = ByRef(b"y" * 10_000, transport)
        pickle.dumps(holder)
        ref = holder._ref
        assert transport.get(ref) == pickle.dumps(b"y" * 10_000, protocol=pickle.HIGHEST_PROTOCOL)
        del holder  # e.g. an RDD dropped mid-context
        with pytest.raises(OSError):
            transport.get(ref)

    def test_memo_miss_is_charged_to_deserialize_not_compute(
        self, transport, as_worker, monkeypatch
    ):
        holder = ByRef(list(range(10_000)), transport)  # the segment lives with it
        clone = pickle.loads(pickle.dumps(holder))
        tc = TaskContext(0, 0, 0, "exec-0")
        monkeypatch.setattr(engine_task._LOCAL, "tc", tc, raising=False)
        clone.value  # miss: fetch + unpickle
        fetched = tc.metrics.deserialize_seconds
        assert fetched > 0
        # Task.run adds the enclosing wall to compute_seconds afterwards, so
        # taking the fetch out here leaves compute = wall - fetch
        assert tc.metrics.compute_seconds == -fetched
        clone.value  # hit: nothing to charge
        assert tc.metrics.deserialize_seconds == fetched


class TestSpec:
    def test_spec_roundtrip(self, transport):
        blob = b"cross-process payload" * 200
        ref = transport.put(blob)
        remote = Transport(*transport.spec())
        assert remote.get(ref) == blob

    def test_from_spec_memoizes(self, transport):
        spec = transport.spec()
        assert from_spec(spec) is from_spec(spec)

    def test_from_spec_tracks_spec_changes(self, tmp_path):
        t1 = Transport("file", str(tmp_path / "a"))
        t2 = Transport("file", str(tmp_path / "b"))
        os.makedirs(t1.root)
        os.makedirs(t2.root)
        h1 = from_spec(t1.spec())
        h2 = from_spec(t2.spec())
        assert h1.root != h2.root

    def test_bad_scheme_rejected(self):
        with pytest.raises(ValueError, match="scheme"):
            Transport("rdma", "")


class TestRefEquality:
    def test_frozen_dataclass(self):
        ref = TransportRef("file", "/tmp/x", 3, "aa")
        with pytest.raises(Exception):
            ref.size = 4
        assert ref == TransportRef("file", "/tmp/x", 3, "aa")


class TestShmNamespace:
    """Dedup'd segment names are namespaced per transport handle."""

    def test_two_handles_never_share_segments(self):
        t1 = Transport.create()
        t2 = Transport.create()
        try:
            blob = b"shared content" * 500
            r1 = t1.put(blob, dedup=True)
            r2 = t2.put(blob, dedup=True)
            assert r1.key != r2.key  # no cross-handle unlink hazard
            # closing one handle must not strand the other's ref
            t1.close()
            assert t2.get(r2) == blob
        finally:
            t2.close()

    def test_namespace_stable_within_handle(self, transport):
        blob = b"stable" * 400
        r1 = transport.put(blob, dedup=True)
        transport.delete(r1)
        r2 = transport.put(blob, dedup=True)
        assert r1.key == r2.key  # refs in task closures stay byte-identical
