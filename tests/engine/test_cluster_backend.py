"""Persistent cluster backend: warm caches, lifecycle events, socket dispatch.

The tentpole property under test: a second job over an *identical* stage --
even from a brand-new :class:`Context` -- republishes nothing.  Task-binary
identity is the SHA-256 of the compressed closure blob, so the workload
functions here are module-level (lambdas on different source lines pickle
differently and would defeat the content-hash on purpose-built tests).
"""

import time

import numpy as np
import pytest

from repro.config import EngineConfig
from repro.engine.cluster_backend import (
    ClusterHead,
    ClusterManager,
    cluster_shutdown,
    cluster_status,
    get_cluster,
)
from repro.engine.context import Context
from repro.engine.listener import (
    CollectingListener,
    ExecutorDecommissioned,
    ExecutorRegistered,
    ListenerBus,
)
from repro.obs.registry import REGISTRY


def _cluster_config(**overrides) -> EngineConfig:
    base = dict(
        backend="cluster",
        num_executors=2,
        executor_cores=2,
        default_parallelism=4,
    )
    base.update(overrides)
    return EngineConfig(**base)


def _square(x):
    return x * x


def _warm_workload_shm(ctx: Context):
    return ctx.parallelize(range(64), 4).map(_square).sum()


def _warm_workload_tcp(ctx: Context):
    return ctx.parallelize(range(64), 4).map(_square).reduce(lambda a, b: a + b)


def _counter_total(name: str) -> float:
    inst = REGISTRY.get(name)
    if inst is None:
        return 0.0
    return sum(child.value for child in inst.children().values())


class _BusOnly:
    """The slice of Context that ClusterManager.attach/decommission touch."""

    def __init__(self):
        self.listener_bus = ListenerBus()
        self.sink = self.listener_bus.add_listener(CollectingListener())


class TestCorrectness:
    def test_matches_serial(self, serial_config):
        with Context(serial_config) as sctx:
            expected = sctx.parallelize(range(100), 4).map(_square).collect()
        with Context(_cluster_config()) as cctx:
            assert cctx.parallelize(range(100), 4).map(_square).collect() == expected

    def test_shuffle_over_cluster(self):
        with Context(_cluster_config()) as ctx:
            pairs = ctx.parallelize([(i % 3, i) for i in range(30)], 4)
            got = dict(pairs.reduce_by_key(lambda a, b: a + b).collect())
        assert got == {k: sum(i for i in range(30) if i % 3 == k) for k in range(3)}

    def test_broadcast_over_cluster(self):
        with Context(_cluster_config()) as ctx:
            table = ctx.broadcast({i: i * 10 for i in range(8)})
            got = ctx.parallelize(range(8), 4).map(lambda x: table.value[x]).collect()
        assert got == [i * 10 for i in range(8)]

    def test_task_errors_surface(self):
        with Context(_cluster_config()) as ctx:
            with pytest.raises(Exception, match="boom"):
                ctx.parallelize(range(4), 4).map(_raise_boom).collect()


def _raise_boom(x):
    raise ValueError("boom")


class TestTwoJobWarmth:
    """The issue's drill: job 2 on a warm fleet republishes nothing.

    Parameterized over both persistence paths: the default local transport
    (shm/file) and the socket transport (length-prefixed TCP frames with
    SHA-256 dedup offers).
    """

    @pytest.mark.parametrize("scheme,workload", [
        ("auto", _warm_workload_shm),
        ("tcp", _warm_workload_tcp),
    ])
    def test_warm_job_republishes_nothing(self, scheme, workload):
        config = _cluster_config(transport_scheme=scheme)
        expected = sum(x * x for x in range(64))

        with Context(config) as ctx1:
            assert workload(ctx1) == expected
            manager = ctx1.backend._manager
            cold_binary_bytes = ctx1.metrics.last_job.totals().task_binary_bytes
        # context torn down; the fleet and its transport live on
        published_after_cold = manager.transport.bytes_published
        dedup_after_cold = manager.transport.dedup_hits
        cache_hits_before = _counter_total("task_binary_cache_hits_total")

        with Context(config) as ctx2:
            assert ctx2.backend._manager is manager  # same persistent fleet
            assert workload(ctx2) == expected
            warm_binary_bytes = ctx2.metrics.last_job.totals().task_binary_bytes

        # zero task-binary republication: the driver's dedup'd put was
        # answered from the content-hash index, no payload moved
        assert manager.transport.bytes_published == published_after_cold
        assert manager.transport.dedup_hits > dedup_after_cold
        # the warm job charges only pickled refs, not the compressed blob
        assert 0 < warm_binary_bytes < cold_binary_bytes
        assert warm_binary_bytes <= 4 * 512  # ~ref cost per task
        # worker-side task-binary LRU hits flowed home through the registry
        assert _counter_total("task_binary_cache_hits_total") > cache_hits_before

    def test_analysis_binaries_are_published_once_and_shipped_by_ref(self, tiny_dataset):
        """A whole Monte Carlo analysis on a fresh fleet: every task's
        accounted binary bytes cover what the transport actually published
        (blob once per executor, refs after), so nothing is re-published
        per task."""
        from repro.core.algorithms import DistributedSparkScore

        # a fleet shape no other test uses, so its transport starts from zero
        config = _cluster_config(num_executors=1, executor_cores=3, default_parallelism=3)
        manager = get_cluster(config)
        try:
            assert manager.transport.bytes_published == 0
            with Context(config) as ctx:
                scorer = DistributedSparkScore(ctx, tiny_dataset, flavor="vectorized")
                scorer.monte_carlo(40, seed=17, batch_size=20)
                accounted = sum(
                    job.totals().task_binary_bytes for job in ctx.metrics.jobs
                )
            assert 0 < manager.transport.bytes_published <= accounted
        finally:
            manager.stop()

    def test_broadcast_memo_hits_on_second_job(self):
        memo_before = _counter_total("broadcast_memo_hits_total")
        with Context(_cluster_config()) as ctx:
            # incompressible and > _BROADCAST_TRANSPORT_MIN, so the value
            # travels by transport ref and workers go through the memo
            payload = np.random.default_rng(0).integers(
                0, 255, 100_000, dtype=np.uint8
            ).tobytes()
            table = ctx.broadcast(payload)
            job = ctx.parallelize(range(8), 4).map(lambda x: table.value[x])
            first = job.collect()
            second = job.collect()  # same partitions land on the same slots
        assert first == second == [payload[i] for i in range(8)]
        assert _counter_total("broadcast_memo_hits_total") > memo_before

    def test_stable_placement_routes_by_partition(self):
        config = _cluster_config()
        with Context(config) as ctx:
            ctx.parallelize(range(8), 4).map(_square).collect()
            execs = {
                rec.partition: rec.executor_id
                for rec in ctx.metrics.last_job.stages[0].tasks
            }
            ctx.parallelize(range(8), 4).map(_square).collect()
            execs2 = {
                rec.partition: rec.executor_id
                for rec in ctx.metrics.last_job.stages[0].tasks
            }
        assert execs == execs2  # partition -> executor mapping is sticky


class TestLifecycle:
    def test_attach_announces_cold_then_warm(self):
        manager = ClusterManager(num_executors=1, executor_cores=1)
        try:
            first = _BusOnly()
            manager.attach(first)
            cold = [e for e in first.sink.events if isinstance(e, ExecutorRegistered)]
            assert [e.executor_id for e in cold] == ["exec-0"]
            assert not cold[0].warm
            assert cold[0].pid > 0 and cold[0].slots == 1
            manager.detach(first)

            second = _BusOnly()
            manager.attach(second)
            warm = [e for e in second.sink.events if isinstance(e, ExecutorRegistered)]
            assert warm and all(e.warm for e in warm)
        finally:
            manager.stop()

    def test_decommission_drains_and_announces(self):
        # a dedicated 2x1 shape so draining exec-1 cannot degrade the
        # session-shared 2x2 fleet other tests warm up
        config = _cluster_config(num_executors=2, executor_cores=1,
                                 default_parallelism=2)
        manager = get_cluster(config)
        try:
            with Context(config) as ctx:
                sink = ctx.add_listener(CollectingListener())
                ctx.parallelize(range(4), 2).map(_square).collect()
                ctx.backend.decommission("exec-1")
                deadline = time.monotonic() + 5.0
                gone = []
                while time.monotonic() < deadline and not gone:
                    gone = [
                        e for e in sink.events
                        if isinstance(e, ExecutorDecommissioned)
                    ]
                    time.sleep(0.02)
                assert gone and gone[0].executor_id == "exec-1"
                assert gone[0].reason == "drained"
                states = {
                    i["executor_id"]: i["state"] for i in manager.executor_info()
                }
                assert states["exec-1"] == "decommissioned"
                # tasks placed on the retired executor fall back to survivors
                got = ctx.parallelize(range(4), 2).map(_square).collect()
                assert got == [x * x for x in range(4)]
        finally:
            manager.stop()

    def test_executor_info_shape(self):
        config = _cluster_config()
        with Context(config) as ctx:
            ctx.parallelize(range(4), 4).map(_square).collect()
            infos = ctx.backend.executor_info()
        assert [i["executor_id"] for i in infos] == ["exec-0", "exec-1"]
        for info in infos:
            assert info["state"] == "registered"
            assert info["slots"] == 2
            assert info["pid"] > 0
            assert info["tasks_done"] >= 1
            assert info["warm"] is True
            assert info["binaries_cached"] >= 1

    def test_heartbeats_flow_over_sockets(self):
        config = _cluster_config(heartbeat_interval=0.05)
        with Context(config) as ctx:
            ctx.parallelize(range(4), 4).map(_sleep_a_beat).collect()
            hub = ctx.heartbeats
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and hub.records_received == 0:
                time.sleep(0.02)
            # cluster workers heartbeat over their REGISTER socket; the
            # manager hands the records to the subscribed hub
            assert hub.records_received > 0

    def test_detached_backend_refuses_submits(self):
        ctx = Context(_cluster_config())
        backend = ctx.backend
        ctx.stop()
        with pytest.raises(RuntimeError, match="shut down"):
            backend.submit_pickled(b"")


def _sleep_a_beat(x):
    time.sleep(0.15)
    return x


class TestBitEquivalence:
    """Socket transport must not perturb numerics: identical bytes out."""

    def test_mc_workload_bitwise_equal(self):
        def draw(seed):
            rng = np.random.default_rng(seed)
            return rng.standard_normal(256).sum()

        with Context(EngineConfig(backend="serial", default_parallelism=4)) as sctx:
            reference = sctx.parallelize(range(16), 4).map(draw).collect()
        with Context(_cluster_config(transport_scheme="tcp")) as cctx:
            over_sockets = cctx.parallelize(range(16), 4).map(draw).collect()
        assert all(
            np.asarray(a).tobytes() == np.asarray(b).tobytes()
            for a, b in zip(reference, over_sockets)
        )


class TestListenerAuth:
    """The manager's worker listener drops peers that fail the handshake."""

    def test_unauthenticated_peer_dropped(self):
        import socket as socketlib

        from repro.engine import frames as fr

        manager = ClusterManager(num_executors=1, executor_cores=1)
        try:
            host, _, port = manager.address.rpartition(":")
            with socketlib.create_connection((host, int(port)), timeout=5.0) as conn:
                challenge = fr.recv_frame(conn)
                assert challenge is not None and challenge[0] == fr.CHALLENGE
                # wrong digest, then a REGISTER that must never be unpickled
                fr.send_frame(conn, fr.AUTH, b"\x00" * 32)
                fr.send_frame(conn, fr.REGISTER, b"crafted pickle payload")
                conn.settimeout(5.0)
                try:
                    data = conn.recv(1)
                except OSError:
                    data = b""
                assert data == b""  # dropped without a reply
            # the real (authenticated) fleet is untouched
            assert all(h.alive for h in manager.workers)
        finally:
            manager.stop()


class TestExternalHead:
    def test_attach_run_status_stop(self):
        head = ClusterHead(num_executors=1, executor_cores=2, port=0)
        try:
            config = _cluster_config(
                num_executors=1, cluster_address=head.address,
                cluster_secret=head.secret,
            )
            with Context(config) as ctx:
                got = ctx.parallelize(range(20), 4).map(_square).collect()
            assert got == [x * x for x in range(20)]

            rows = cluster_status(head.address, head.secret)
            assert [r["executor_id"] for r in rows] == ["exec-0"]
            assert rows[0]["tasks_done"] >= 4

            cluster_shutdown(head.address, head.secret)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and not head.manager.stopped:
                time.sleep(0.05)
            assert head.manager.stopped
        finally:
            head.stop()

    def test_head_requires_secret(self, monkeypatch):
        monkeypatch.delenv("REPRO_CLUSTER_SECRET", raising=False)
        head = ClusterHead(num_executors=1, executor_cores=1, port=0)
        try:
            # wrong secret: the head drops the connection at the handshake,
            # before any frame of ours is deserialized
            with pytest.raises((ConnectionError, OSError)):
                cluster_status(head.address, "wrong-" + head.secret)
            # missing secret (no env fallback): refused client-side
            with pytest.raises(ConnectionError, match="secret"):
                cluster_status(head.address, None)
            # the right secret still works after the failed attempts
            rows = cluster_status(head.address, head.secret)
            assert [r["executor_id"] for r in rows] == ["exec-0"]
        finally:
            head.stop()
