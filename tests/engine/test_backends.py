"""Execution backends: serial, cluster."""

import hashlib
import operator
import time

import pytest

from repro.config import EngineConfig
from repro.engine.backends import SerialBackend, make_backend
from repro.engine.closure import dumps as closure_dumps
from repro.engine.context import Context


def _square(x):
    return x * x


def _key_mod3(x):
    return (x % 3, x)


def _sleep_window(x):
    """Busy-sleep marker: returns this task's (start, end) wall-clock span."""
    start = time.monotonic()
    time.sleep(0.4)
    return (start, time.monotonic())


class _ResidentSplits:
    """Probe task: ``(split, size > 0)`` of every block of one lineage the
    worker process running it holds."""

    def __init__(self, key: str) -> None:
        self.key = key

    def __call__(self, _):
        from repro.engine import backends

        manager = backends._RESIDENT_BLOCKS
        if manager is None:
            return []
        with manager._lock:
            return [
                (split, block.size > 0)
                for (key, split), block in manager._blocks.items()
                if key == self.key
            ]


class TestBackendFactory:
    def test_make_each(self):
        assert isinstance(make_backend(EngineConfig(backend="serial")), SerialBackend)
        # "threads" is only a spelling of serial, for benchmarks/e2e
        backend = make_backend(EngineConfig(backend="threads", num_executors=3, executor_cores=4))
        assert isinstance(backend, SerialBackend)
        assert backend.parallelism == 1

    def test_unknown_rejected_at_config(self):
        with pytest.raises(ValueError):
            EngineConfig(backend="gpu")


@pytest.mark.slow
class TestProcessBackend:
    """The process-isolated (cluster) backend ships closures to workers."""

    @pytest.fixture
    def pctx(self):
        config = EngineConfig(
            backend="cluster", num_executors=2, executor_cores=1, default_parallelism=4
        )
        with Context(config) as context:
            yield context

    def test_map_collect(self, pctx):
        assert pctx.parallelize(range(50), 4).map(_square).collect() == [
            x * x for x in range(50)
        ]

    def test_shuffle_job(self, pctx):
        out = dict(
            pctx.parallelize(range(30), 4).map(_key_mod3).reduce_by_key(operator.add).collect()
        )
        expected = {}
        for x in range(30):
            expected[x % 3] = expected.get(x % 3, 0) + x
        assert out == expected

    def test_cache_stays_resident_in_workers(self, pctx):
        rdd = pctx.parallelize(range(20), 4).map(_square).cache()
        assert rdd.sum() == rdd.sum()
        assert pctx.metrics.last_job.totals().cache_hits == 4
        # the driver knows where the four blocks are and holds none of them
        assert pctx.cached_partition_count(rdd) == 4
        assert all(not e.block_manager.block_ids() for e in pctx.executors)

    def test_tasks_overlap_in_time(self, pctx):
        """Regression: dispatch must not serialize the workers.

        The old ``_ImmediateFuture`` wrapper blocked the driver inside each
        ``submit``, so task N+1 could not start until task N finished.  With
        backend-future chaining both sleepers must be asleep simultaneously
        -- this holds even on a single-core host.
        """
        windows = pctx.parallelize([0, 1], 2).map(_sleep_window).collect()
        starts = [w[0] for w in windows]
        ends = [w[1] for w in windows]
        assert max(starts) < min(ends), f"tasks ran sequentially: {windows}"

    def test_task_binary_bytes_recorded_once_per_attempt(self, pctx):
        pctx.parallelize(range(40), 4).map(_square).collect()
        totals = pctx.metrics.last_job.totals()
        assert totals.task_binary_bytes > 0
        # every attempt is charged: the first one an executor runs pays the
        # stage's blob, its later ones only the transport ref
        charges: dict[str, list[int]] = {}
        for rec in pctx.metrics.last_job.stages[0].tasks:
            if rec.succeeded:
                charges.setdefault(rec.executor_id, []).append(
                    rec.metrics.task_binary_bytes
                )
        for sizes in charges.values():
            assert min(sizes) > 0
            assert sorted(sizes)[:-1] == [min(sizes)] * (len(sizes) - 1)

    def test_driver_bytes_collected_recorded(self, pctx):
        pctx.parallelize(range(40), 4).map(_square).collect()
        totals = pctx.metrics.last_job.totals()
        assert totals.driver_bytes_collected > 0

    def test_each_worker_holds_its_split_resident(self, pctx):
        """Blocks computed in workers stay there: a probe task reads each
        worker's resident block manager, and every split is held, sized."""
        rdd = pctx.parallelize(range(20), 4).map(_square).cache()
        rdd.sum()
        # the key the worker files the RDD's blocks under (its lineage
        # fingerprint, as the scheduler's task binary carries it)
        key = hashlib.sha256(closure_dumps(rdd)).hexdigest()
        probe = _ResidentSplits(key)
        held = set(pctx.parallelize(range(4), 4).map_partitions(probe).collect())
        assert held == {(split, True) for split in range(4)}
