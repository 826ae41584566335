"""Persistent cluster backend: warm caches, lifecycle events, socket dispatch.

The tentpole property under test: a second job over an *identical* stage --
even from a brand-new :class:`Context` -- republishes nothing.  Task-binary
identity is the SHA-256 of the closure pickle, so the workload functions
here are module-level (lambdas on different source lines pickle differently
and would defeat the content-hash on purpose-built tests).  A binary is
*thin* -- lineage, closures and refs, never partition or cache data -- and
the structural tests below pin that with byte counts.
"""

import gc
import glob
import os
import pickle
import signal
import time

import numpy as np
import pytest

from repro.config import EngineConfig
from repro.engine import transport
from repro.engine.cluster_backend import (
    ClusterManager,
    _claim_cpu_share,
    _openblas,
    _WorkerHandle,
    get_cluster,
)
from repro.core.algorithms import DistributedSparkScore
from repro.core.local import LocalSparkScore
from repro.engine.backends import unframe_result
from repro.engine.context import Context
from repro.engine.listener import JobEnd, Listener
from repro.engine.scheduler import TaskScheduler
from repro.engine.transport import BY_REF_MIN_BYTES
from repro.genomics.synthetic import SyntheticConfig, generate_dataset
from repro.obs.logging import capture_logs


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


def _head(it):
    return next(iter(it))


def _frozen_object_count(_):
    return gc.get_freeze_count()


def _warm_workload_shm(ctx: Context):
    return ctx.parallelize(range(64), 4).map(_square).sum()


def _warm_workload_file(ctx: Context):
    return ctx.parallelize(range(64), 4).map(lambda x: x * x).sum()


def _openblas_threads(_):
    return _openblas()[0]()


@pytest.fixture
def file_fleet(fresh_cluster, monkeypatch):
    """A fresh 2x1 fleet on a host where shared memory is unusable: its
    transport falls back to temp files, the only path such a host has."""
    monkeypatch.setattr(transport, "_shm_usable", lambda: False)
    config, manager = fresh_cluster()
    if manager.transport.scheme != "file":  # spawned earlier, over shm
        manager.stop()
        config, manager = fresh_cluster()
    assert manager.transport.scheme == "file"
    return config, manager


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
    """Job 2 on a warm fleet republishes nothing.

    Parameterized over both transport schemes: the probe's pick on this host
    (shared memory where it works) and the temp-file fallback a host without
    usable shared memory gets.
    """

    @pytest.mark.parametrize("scheme,workload", [
        ("auto", _warm_workload_shm),
        ("file", _warm_workload_file),
    ])
    def test_warm_job_republishes_nothing(self, scheme, workload, request):
        if scheme == "file":
            config, _ = request.getfixturevalue("file_fleet")
        else:
            config = _cluster_config()
        expected = sum(x * x for x in range(64))

        with Context(config) as ctx1:
            assert workload(ctx1) == expected
            manager = ctx1.backend._manager
            cold_binary_bytes = ctx1.metrics.last_job.totals().task_binary_bytes
        # context torn down; the fleet and its transport live on
        published_after_cold = manager.transport.bytes_published
        dedup_after_cold = manager.transport.dedup_hits

        with Context(config) as ctx2:
            assert ctx2.backend._manager is manager  # same persistent fleet
            assert workload(ctx2) == expected
            warm_totals = ctx2.metrics.last_job.totals()
            warm_binary_bytes = warm_totals.task_binary_bytes

        # zero task-binary republication: the driver's dedup'd put was
        # answered from the content-hash index, no payload moved
        assert manager.transport.bytes_published == published_after_cold
        assert manager.transport.dedup_hits > dedup_after_cold
        # the warm job charges only pickled refs, not the compressed blob
        assert 0 < warm_binary_bytes < cold_binary_bytes
        assert warm_binary_bytes <= 4 * 512  # ~ref cost per task
        # worker-side task-binary LRU hits flowed home on the task metrics
        assert warm_totals.task_binary_cache_hits > 0
        assert (warm_totals.task_binary_cache_hits
                + warm_totals.task_binary_cache_misses) == 4

    def test_analysis_binaries_are_published_once_and_shipped_by_ref(
        self, small_dataset, monkeypatch
    ):
        """A whole Monte Carlo analysis on a fresh fleet, split two ways.
        *Binary bytes*: every stage's pickle is put once and the tasks'
        accounted bytes cover it (pickle once per executor, refs after).
        *Partition-data bytes*: six binaries embed the dataset's slices, and
        the slices are put exactly once, outside all of them."""
        binaries: dict[str, int] = {}
        build = TaskScheduler._build_task_binary

        def spy(self, stage, probe):
            tb = build(self, stage, probe)
            binaries[tb.binary_id] = tb.size
            return tb

        monkeypatch.setattr(TaskScheduler, "_build_task_binary", spy)
        # a fleet shape no other test uses, so its transport starts from zero
        config = _cluster_config(num_executors=1, executor_cores=3, default_parallelism=3)
        manager = get_cluster(config)
        try:
            assert manager.transport.bytes_published == 0
            with Context(config) as ctx:
                scorer = DistributedSparkScore(ctx, small_dataset, flavor="vectorized")
                scorer.monte_carlo(40, seed=17, batch_size=20)
                totals = [job.totals() for job in ctx.metrics.jobs]
                tasks = sum(len(s.tasks) for job in ctx.metrics.jobs for s in job.stages)
                rows = scorer._gm_rdd.lineage()[0]
            accounted = sum(t.task_binary_bytes for t in totals)
            slice_bytes = [
                len(pickle.dumps(part, protocol=pickle.HIGHEST_PROTOCOL))
                for part in rows._slices
            ]
        finally:
            manager.stop()
        # one wave job of one stage, which scores the observed statistics too
        assert len(binaries) == 1
        binary_bytes = sum(binaries.values())
        assert binary_bytes <= accounted <= binary_bytes + tasks * 512
        assert min(slice_bytes) >= BY_REF_MIN_BYTES  # the case under test
        data_bytes = manager.transport.bytes_published - binary_bytes
        assert data_bytes >= sum(slice_bytes)
        # nothing was offered twice: a re-put of a slice by a later stage's
        # pickle would show here
        assert manager.transport.dedup_hits == 0

    def test_broadcast_memo_hits_on_second_job(self):
        with Context(_cluster_config()) as ctx:
            # > BY_REF_MIN_BYTES, so the value travels by transport ref and
            # workers go through the memo
            payload = np.random.default_rng(0).integers(
                0, 255, 100_000, dtype=np.uint8
            ).tobytes()
            table = ctx.broadcast(payload)
            job = ctx.parallelize(range(8), 4).map(lambda x: table.value[x])
            first = job.collect()
            second = job.collect()  # same partitions land on the same slots
            first_job, second_job = ctx.metrics.jobs
        assert first == second == [payload[i] for i in range(8)]
        # each task's memo hits ride home on its metrics, so the job record
        # says the second job found the value its workers already held
        assert second_job.totals().broadcast_memo_hits > 0

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


@pytest.fixture
def fresh_fleet(fresh_cluster):
    """A 2x1 fleet nothing has run on: ``(config, manager)``."""
    return fresh_cluster()


def _snp_dataset(n_snps: int):
    # few patients, many SNPs: everything that grows with the SNP count
    # (slices, SNP->set and SNP->weight maps) is past BY_REF_MIN_BYTES
    return generate_dataset(
        SyntheticConfig(n_patients=16, n_snps=n_snps, n_snpsets=8, seed=5)
    )


class TestThinBinaries:
    def test_binary_bytes_do_not_scale_with_the_dataset(self, fresh_fleet):
        config, _ = fresh_fleet

        def binary_bytes(n_snps):
            with Context(config) as ctx:
                DistributedSparkScore(ctx, _snp_dataset(n_snps)).monte_carlo(
                    64, seed=2, batch_size=32
                )
                jobs = ctx.metrics.jobs_snapshot()
            stages = sum(len(job.stages) for job in jobs)
            return sum(job.totals().task_binary_bytes for job in jobs), stages

        small, stages = binary_bytes(2000)
        large, _ = binary_bytes(8000)
        assert stages == 1  # the one wave, which scores observed too
        assert small < 64 * 1024 * stages and large < 64 * 1024 * stages
        assert abs(large - small) <= 0.05 * small

    def test_envelopes_and_result_frames_carry_no_block_data(
        self, fresh_fleet, small_dataset
    ):
        config, manager = fresh_fleet
        with Context(config) as ctx:
            sent: list[tuple[int, object]] = []  # (envelope bytes, result future)
            submit = ctx.backend.submit_pickled

            def spy(payload, executor_id=None, partition=0):
                future = submit(payload, executor_id, partition)
                sent.append((len(payload), future))
                return future

            ctx.backend.submit_pickled = spy
            scorer = DistributedSparkScore(ctx, small_dataset)
            # five batches: the first wave job builds the blocks, the second
            # reads them
            scorer.monte_carlo(160, seed=4, batch_size=32)
            resident = scorer._gm_rdd
            first_batch = sum(len(s.tasks) for s in ctx.metrics.jobs[0].stages)
            blocks = []
            for nbytes, future in sent[first_batch:]:
                assert nbytes < 16 * 1024
                frame = future.result()
                assert len(frame) < 16 * 1024
                out, _, _ = unframe_result(frame, manager.transport)
                assert "new_blocks" not in out
                blocks += out["resident_blocks"]
            # what does come back: where the blocks' four partitions are
            assert set(blocks) == {(resident.id, p) for p in range(4)}
            assert ctx.cached_partition_count(resident) == 4


    def test_stopping_one_context_leaves_a_shared_slice_to_the_other(self, fresh_fleet):
        """Two live contexts that parallelize the same data share its
        segments (content-hash dedup); they go with the last holder."""
        config, manager = fresh_fleet
        data = list(range(20_000))
        first, second = Context(config), Context(config)
        try:
            # partition 0 only: no worker has fetched slices 1-3 yet
            assert first.run_job(first.parallelize(data, 4), _head, [0]) == [0]
            rdd = second.parallelize(data, 4)
            assert second.run_job(rdd, _head, [0]) == [0]
            refs = [part._ref for part in rdd._published.parts]
            first.stop()
            assert all(manager.transport.get(ref) for ref in refs)
            assert rdd.sum() == sum(data)
        finally:
            first.stop()
            second.stop()
        for ref in refs:
            with pytest.raises(OSError):
                manager.transport.get(ref)


class _KillHolderAfter(Listener):
    """SIGKILLs exec-0's worker process once ``jobs`` jobs have ended."""

    def __init__(self, manager, jobs: int) -> None:
        self.manager, self.remaining = manager, jobs

    def on_event(self, event) -> None:
        if not isinstance(event, JobEnd):
            return
        self.remaining -= 1
        if self.remaining == 0:
            handle = next(h for h in self.manager.workers if h.executor_id == "exec-0")
            os.kill(handle.pid, signal.SIGKILL)
            deadline = time.monotonic() + 5.0
            while handle.alive and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not handle.alive  # the dispatch loop saw the socket close


class TestResidentBlockFailures:
    def test_sigkill_of_a_block_holder_between_batches(self, fresh_fleet, small_dataset):
        config, manager = fresh_fleet
        reference = LocalSparkScore(small_dataset).monte_carlo(160, seed=3, batch_size=32)
        with Context(config) as ctx:
            # job 0 is the first wave (four batches), which builds the
            # blocks, job 1 the second (one batch): kill between waves
            ctx.add_listener(_KillHolderAfter(manager, jobs=1))
            scorer = DistributedSparkScore(ctx, small_dataset)
            result = scorer.monte_carlo(160, seed=3, batch_size=32)
            resident = scorer._gm_rdd
            holders = {p: ctx.block_master.locations((resident.id, p)) for p in range(4)}
            jobs = ctx.metrics.jobs_snapshot()
        # finished on the survivor, by lineage recompute, bit for bit
        assert np.array_equal(result.exceed_counts, reference.exceed_counts)
        assert holders == {p: ["exec-1"] for p in range(4)}
        assert result.info["cache_misses"] == 4 + 2  # blocks once, then exec-0's half again
        # partitions 0 and 2 were both placed on exec-0 before the driver knew
        assert sum(job.num_task_failures for job in jobs) == 2
        manager.stop()
        assert not glob.glob(f"/dev/shm/repro-{manager.transport.namespace}-*")


class TestDispatchLoopErrors:
    """What the dispatch loop swallows it logs, and the run goes on."""

    @staticmethod
    def _warnings(records):
        return [r for r in records if r.logger == "repro.cluster" and r.level == "warning"]

    def test_a_connection_that_fails_to_service_is_logged_and_dropped(
        self, fresh_cluster, monkeypatch
    ):
        config, manager = fresh_cluster()
        service = manager._service_conn
        failed = []

        def failing_once(sock, tag, mask):
            if not failed and isinstance(tag, _WorkerHandle):
                failed.append(tag.executor_id)
                raise RuntimeError("injected dispatch fault")
            service(sock, tag, mask)

        with Context(config) as ctx, capture_logs() as records:
            # this fleet's only: other fleets of the process run on
            monkeypatch.setattr(manager, "_service_conn", failing_once)
            # the dropped worker's task, if it had one, is retried on its peer
            assert _warm_workload_shm(ctx) == sum(x * x for x in range(64))
        assert failed
        (warning,) = self._warnings(records)
        assert warning.executor_id == failed[0]
        assert warning.fields == {"error": "RuntimeError: injected dispatch fault"}


needs_affinity = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="CPU affinity is a Linux call"
)


class TestLifecycle:
    def test_second_context_finds_the_fleet_warm(self, fresh_cluster):
        """Warmth reads from the tasks: the first Context's attempts load
        the task binary (a miss), the second's find it in the worker's
        cache; membership reads from ``executor_info()``."""
        config, manager = fresh_cluster(
            num_executors=1, executor_cores=1, default_parallelism=2
        )
        hits = []
        for _ in range(2):
            with Context(config) as ctx:
                ctx.parallelize(range(4), 2).map(_square).collect()
                (stage,) = ctx.metrics.last_job.stages
                hits.append([t.metrics.task_binary_cache_hits for t in stage.tasks])
        assert sorted(hits[0]) == [0, 1]  # a cold fleet's one worker loads it once
        assert hits[1] == [1, 1]
        (info,) = manager.executor_info()
        assert info["executor_id"] == "exec-0" and info["state"] == "registered"
        assert info["pid"] > 0 and info["slots"] == 1

    @needs_affinity
    def test_each_slot_claims_its_share_of_the_cpus(self):
        # one mode of placement whatever ran before: without it a warm job
        # was 30% slower after an idle gap than in a dense loop
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) < 2:
            pytest.skip("needs two CPUs")
        manager = ClusterManager(num_executors=2, executor_cores=1)
        try:
            shares = [os.sched_getaffinity(h.process.pid) for h in manager.workers]
        finally:
            manager.stop()
        assert shares == [set(cpus[0::2]), set(cpus[1::2])]
        assert os.sched_getaffinity(0) == set(cpus)  # the driver keeps them all

    @needs_affinity
    def test_cpu_shares_partition_what_the_driver_may_use(self, monkeypatch):
        claimed = []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {2, 5, 7, 9, 11})
        monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: claimed.append(list(cpus)))
        for slot in range(2):
            _claim_cpu_share(slot, 2)
        assert claimed == [[2, 7, 11], [5, 9]]
        # more slots than CPUs: the kernel's scheduler places them, as before
        claimed.clear()
        _claim_cpu_share(3, 6)
        assert claimed == []

    @needs_affinity
    def test_workers_fit_their_blas_pool_to_their_cpu_share(self, fresh_cluster):
        # forked after NumPy sized OpenBLAS's pool to the host, a worker
        # pinned to one CPU ran that whole pool on it: 17x slower Monte Carlo
        calls = _openblas()
        if calls is None:
            pytest.skip("NumPy without OpenBLAS")
        driver_threads = calls[0]()
        config, manager = fresh_cluster()
        with Context(config) as ctx:
            counts = ctx.parallelize(range(4), 4).map(_openblas_threads).collect()
        budget = max(1, len(os.sched_getaffinity(0)) // len(manager.workers))
        assert all(1 <= count <= budget for count in counts), counts
        assert calls[0]() == driver_threads  # the driver keeps its pool

    def test_workers_freeze_the_heap_they_were_forked_with(self, fresh_cluster):
        # a worker that traversed the driver's heap paid the driver's overdue
        # full collection in its first task, page-copying as it went
        config, _ = fresh_cluster()
        with Context(config) as ctx:
            frozen = ctx.parallelize(range(2), 2).map(_frozen_object_count).collect()
        assert min(frozen) > 10_000  # the interpreter and the program, at the least
        assert gc.get_freeze_count() == 0  # the driver's own collector is untouched

    def test_decommission_drains_and_announces(self):
        # the drained executor announces itself through executor_info().
        # A dedicated 2x1 shape so draining exec-1 cannot degrade the
        # session-shared 2x2 fleet other tests warm up
        config = _cluster_config(num_executors=2, executor_cores=1,
                                 default_parallelism=2)
        manager = get_cluster(config)
        try:
            with Context(config) as ctx:
                ctx.parallelize(range(4), 2).map(_square).collect()
                ctx.backend.decommission("exec-1")
                deadline = time.monotonic() + 5.0
                states: dict = {}
                while (
                    time.monotonic() < deadline
                    and states.get("exec-1") != "decommissioned"
                ):
                    states = {
                        i["executor_id"]: i["state"] for i in manager.executor_info()
                    }
                    time.sleep(0.02)
                assert states == {"exec-0": "registered", "exec-1": "decommissioned"}
                (drained,) = [
                    i for i in manager.executor_info() if i["executor_id"] == "exec-1"
                ]
                assert drained["tasks_done"] >= 1
                # tasks placed on the retired executor fall back to survivors
                got = ctx.parallelize(range(4), 2).map(_square).collect()
                assert got == [x * x for x in range(4)]
        finally:
            manager.stop()

    def test_executor_info_shape(self):
        config = _cluster_config()
        with Context(config) as ctx:
            ctx.parallelize(range(4), 4).map(_square).collect()
            infos = ctx.backend._manager.executor_info()
        assert [i["executor_id"] for i in infos] == ["exec-0", "exec-1"]
        for info in infos:
            assert info["state"] == "registered"
            assert info["slots"] == 2
            assert info["pid"] > 0
            assert info["tasks_done"] >= 1

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
    """The temp-file fallback must not perturb numerics: identical bytes out."""

    def test_mc_workload_bitwise_equal(self, file_fleet):
        def draw(seed):
            rng = np.random.default_rng(seed)
            return rng.standard_normal(256).sum()

        with Context(EngineConfig(backend="serial", default_parallelism=4)) as sctx:
            reference = sctx.parallelize(range(16), 4).map(draw).collect()
        with Context(file_fleet[0]) as cctx:
            over_files = cctx.parallelize(range(16), 4).map(draw).collect()
        assert all(
            np.asarray(a).tobytes() == np.asarray(b).tobytes()
            for a, b in zip(reference, over_files)
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
