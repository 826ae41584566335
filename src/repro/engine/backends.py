"""Execution backends: where task attempts actually run.

- :class:`SerialBackend` -- deterministic in-line execution on the driver
  thread (default; the reference for correctness tests).
- :class:`~repro.engine.cluster_backend.ClusterBackend` -- the parallel,
  process-isolated backend: a persistent fleet of worker processes.  A task
  envelope carries refs and its pre-fetched shuffle input, never partition
  or cache data; results, task metrics and the *ids* of the blocks the
  task left resident or evicted ship back to the driver.  Its workers run
  :func:`_run_pickled_task`, which lives here with the rest of the
  worker-side task runner.

The serial backend exposes ``submit(fn, *args) -> Future``; the cluster
backend exposes ``submit_pickled(payload, executor_id, partition) -> Future``
instead.

Stage closures ship as *task binaries* (see
:class:`~repro.engine.task.TaskBinary`): the scheduler pickles each stage's
lineage+closure once -- kilobytes: partitions and large broadcasts are
content-hash refs (:class:`~repro.engine.transport.ByRef`) -- and workers
memoize the deserialized binary by content hash so repeated tasks of the
same stage skip the unpickling entirely.

Cached RDD blocks are *resident*: each worker process keeps one
:class:`~repro.engine.blockmanager.BlockManager` for its whole life, keyed
``(lineage fingerprint, split)`` so that contexts whose RDD ids all restart
at 0 cannot collide and an identical analysis on a warm fleet finds its
blocks already there.  Block data never leaves the worker; a miss anywhere
recomputes from the (cheap to ship) lineage.
"""

from __future__ import annotations

import concurrent.futures
import os
import pickle
import struct
import threading
import time
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.config import EngineConfig


class _ImmediateFuture(concurrent.futures.Future):
    """A future that is resolved at construction (serial backend)."""

    def __init__(self, fn: Callable, args: tuple) -> None:
        super().__init__()
        try:
            self.set_result(fn(*args))
        except BaseException as exc:  # noqa: BLE001 - mirrors Future semantics
            self.set_exception(exc)


class SerialBackend:
    """Runs every task inline on submit; fully deterministic ordering."""

    name = "serial"
    supports_shared_state = True

    def __init__(self, config: "EngineConfig") -> None:
        self.parallelism = 1

    def submit(self, fn: Callable, *args: Any) -> concurrent.futures.Future:
        return _ImmediateFuture(fn, args)

    def shutdown(self) -> None:
        pass


#: worker-side memo of deserialized task binaries, keyed by the binary's
#: SHA-256 content hash.  Content keys (rather than per-context sequence
#: ids) are what make *persistent* executors warm: a rerun of the same
#: workload in a fresh Context produces byte-identical binaries, so the
#: second job's tasks hit this cache without fetching or unpickling.
#: Capped by count: a binary holds refs, not data, so each is kilobytes.
_TASK_BINARY_CACHE: "OrderedDict[str, Any]" = OrderedDict()
_TASK_BINARY_CACHE_MAX = 64


def _load_task_binary(ref: Any, transport: Any) -> "tuple[Any, bool]":
    """Materialize a stage's task binary at most once per worker process.

    The binary always travels out-of-band: ``ref`` is the
    :class:`~repro.engine.transport.TransportRef` to fetch its pickle by on
    a cache miss (and its content hash is the binary's id), so a task frame
    carries the ref whatever the lineage.  Returns the binary and whether
    the warm cache already held it.
    """
    binary_id = ref.content_hash
    binary = _TASK_BINARY_CACHE.get(binary_id)
    if binary is not None:
        _TASK_BINARY_CACHE.move_to_end(binary_id)
        return binary, True
    binary = pickle.loads(transport.get(ref))
    _TASK_BINARY_CACHE[binary_id] = binary
    while len(_TASK_BINARY_CACHE) > _TASK_BINARY_CACHE_MAX:
        _TASK_BINARY_CACHE.popitem(last=False)
    return binary, False


# -- worker-side resident blocks -----------------------------------------------

#: this worker process's cache.  It lives as long as the process -- across
#: tasks, jobs and driver contexts -- and its blocks never leave it
_RESIDENT_BLOCKS: Any = None


def _resident_blocks(memory_budget: int) -> Any:
    """The process-lifetime block manager, under the calling driver's budget."""
    global _RESIDENT_BLOCKS
    if _RESIDENT_BLOCKS is None:
        from repro.engine.blockmanager import BlockManager

        _RESIDENT_BLOCKS = BlockManager(f"worker-{os.getpid()}", memory_budget)
    _RESIDENT_BLOCKS.memory_budget = memory_budget
    return _RESIDENT_BLOCKS


def release_resident_blocks() -> None:
    """Worker exit: drop every block (and with them any spilled file)."""
    global _RESIDENT_BLOCKS
    if _RESIDENT_BLOCKS is not None:
        _RESIDENT_BLOCKS.clear()
        _RESIDENT_BLOCKS = None


class _TaskBlocks:
    """One task's window onto the worker's resident block manager.

    ``RDD.iterator`` asks for ``(rdd_id, split)``, but rdd ids restart at 0
    in every context while the resident store outlives them all, so each
    access is re-keyed to ``(lineage fingerprint, split)`` with the
    fingerprints the task binary carries.  The window also notes which
    blocks the task touched and which it pushed out, so the result can tell
    the driver *where* blocks are without carrying any of them.
    """

    def __init__(self, manager: Any, keys: "dict[int, str]") -> None:
        self._manager = manager
        self._keys = keys
        self._rdd_of = {key: rdd_id for rdd_id, key in keys.items()}
        self._touched: set[tuple[int, int]] = set()
        self.evicted: list[tuple[int, int]] = []

    def _key(self, block_id: "tuple[int, int]") -> "tuple[str, int]":
        self._touched.add(block_id)
        return (self._keys[block_id[0]], block_id[1])

    def was_spilled(self, block_id: "tuple[int, int]") -> bool:
        return self._manager.was_spilled(self._key(block_id))

    def get(self, block_id: "tuple[int, int]") -> "list | None":
        return self._manager.get(self._key(block_id))

    def put(self, block_id: "tuple[int, int]", data: Any, level: Any, metrics: Any = None) -> list:
        """Cache through the resident manager, noting what the put evicted:
        this stage's RDDs are reported, another context's blocks leave
        silently (its driver finds out by missing)."""
        victims: list = []
        stored = self._manager.put(
            self._key(block_id), data, level, metrics=metrics, evicted=victims
        )
        for key, split in victims:
            rdd_id = self._rdd_of.get(key)
            if rdd_id is not None:
                self.evicted.append((rdd_id, split))
        return stored

    def contains(self, block_id: "tuple[int, int]") -> bool:
        return self._manager.contains(self._key(block_id))

    def resident(self) -> "list[tuple[int, int]]":
        """Every touched block this worker still holds."""
        return [
            block_id for block_id in sorted(self._touched)
            if self._manager.contains(self._key(block_id))
        ]


# -- worker-side heartbeats ---------------------------------------------------
#
# A cluster worker installs ``send`` (a callable framing one record over its
# driver socket) at startup; every task envelope carries the heartbeat
# interval of the driver that submitted it, so the cadence follows whoever
# is waiting on the task rather than whoever spawned the fleet.  The first
# task that asks for heartbeats starts one daemon thread per worker process
# that reports the worker's in-flight tasks.

_WORKER_HB: dict[str, Any] = {"send": None, "interval": 0.0}
_WORKER_INFLIGHT: "dict[tuple, Any]" = {}  # (stage, partition, attempt) -> TaskContext
_WORKER_INFLIGHT_LOCK = threading.Lock()
_WORKER_HB_THREAD: threading.Thread | None = None
#: set when a task changes the cadence, so a loop asleep on the old one
#: (or idle, after a driver that disabled heartbeats) beats on the new one
_WORKER_HB_WAKE = threading.Event()


def _ensure_worker_heartbeat_thread() -> None:
    global _WORKER_HB_THREAD
    if _WORKER_HB["send"] is None or _WORKER_HB["interval"] <= 0:
        return
    if _WORKER_HB_THREAD is not None and _WORKER_HB_THREAD.is_alive():
        return
    _WORKER_HB_THREAD = threading.Thread(
        target=_worker_heartbeat_loop, name="repro-worker-heartbeat", daemon=True
    )
    _WORKER_HB_THREAD.start()


def _worker_heartbeat_loop() -> None:
    while True:
        # 0 = the current task's driver disabled heartbeats: idle until a
        # task asks for them again
        _WORKER_HB_WAKE.wait(_WORKER_HB["interval"] or None)
        _WORKER_HB_WAKE.clear()
        _send_worker_heartbeats()


def _send_worker_heartbeats() -> None:
    """Ship one HeartbeatRecord per executor with tasks in this worker."""
    send = _WORKER_HB["send"]
    if send is None or _WORKER_HB["interval"] <= 0:
        return
    from repro.engine.heartbeat import HeartbeatRecord
    from repro.engine.task import current_rss_bytes

    with _WORKER_INFLIGHT_LOCK:
        by_executor: dict[str, dict[tuple, Any]] = {}
        for key, tc in _WORKER_INFLIGHT.items():
            by_executor.setdefault(tc.executor_id, {})[key] = tc
    rss = current_rss_bytes() if by_executor else 0
    for executor_id, tasks in by_executor.items():
        record = HeartbeatRecord(
            executor_id=executor_id,
            inflight=tuple(tasks),
            records_read=sum(tc.metrics.records_read for tc in tasks.values()),
            rss_bytes=rss,
            worker_pid=os.getpid(),
        )
        try:
            send(record)
        except (OSError, ConnectionError):  # driver gone; go quiet
            _WORKER_HB["send"] = None
            return


def _run_pickled_task(payload: bytes) -> bytes:
    """Worker-side entry point: run one self-contained task attempt.

    Receives a pickled dict with a transport ref to the stage's task binary
    (lineage + closure, memoized per worker and fetched on a cache miss),
    the partition/attempt to run and pre-fetched shuffle frames; computes a
    result dict with the result, any shuffle output written (as
    :class:`~repro.engine.shuffle.ShuffleBlock` frames), the ids of the
    cache blocks it left resident or evicted (never their data), task
    metrics + resource telemetry, captured log records (only when there
    are some) and worker-local span fragments (task-relative offsets,
    which the driver stitches under this attempt's ``TaskRecord``).  The
    worker's warm-cache facts (task binary and by-ref memo hits) travel on
    the task metrics.

    The return value is an offset-prefixed frame (see
    :func:`_frame_result`): a fixed-size header carrying the serialization
    timings followed by the pickled body -- the body is *not* pickled a
    second time inside a wrapper, and large bodies travel by transport ref
    instead of through the worker's socket.
    """
    from repro.engine.shuffle import ShuffleManager
    from repro.engine.task import ShuffleMapTask, TaskContext, TaskTelemetry
    from repro.engine.transport import from_spec
    from repro.obs.logging import capture_logs, log_context

    task_start = time.perf_counter()
    spec = pickle.loads(payload)
    transport = from_spec(spec["transport"])
    binary, binary_cached = _load_task_binary(spec["binary_ref"], transport)
    task = binary.make_task(spec["partition"])
    blocks = _TaskBlocks(_resident_blocks(spec["storage_memory"]), binary.block_keys)
    worker_shuffle = ShuffleManager(track_bytes=False)
    tc = TaskContext(
        stage_id=task.stage_id,
        partition=task.partition,
        attempt=spec["attempt"],
        executor_id=spec["executor_id"],
        shuffle_manager=worker_shuffle,
        block_manager=blocks,
        block_master=None,
    )
    tc.prefetched_shuffle = spec["prefetched_shuffle"]
    deserialize_seconds = time.perf_counter() - task_start
    tc.metrics.deserialize_seconds = deserialize_seconds
    tc.metrics.task_binary_cache_hits = int(binary_cached)
    tc.metrics.task_binary_cache_misses = int(not binary_cached)

    key = (task.stage_id, task.partition, spec["attempt"])
    telemetry = TaskTelemetry()
    with _WORKER_INFLIGHT_LOCK:
        _WORKER_INFLIGHT[key] = tc
    hb_interval = spec["heartbeat_interval"]
    interval = max(hb_interval, 0.05) if hb_interval > 0 else 0.0
    if interval != _WORKER_HB["interval"]:
        _WORKER_HB["interval"] = interval
        _WORKER_HB_WAKE.set()
    _ensure_worker_heartbeat_thread()
    _send_worker_heartbeats()  # immediate "task picked up" liveness signal
    compute_start = time.perf_counter()
    # capture worker-side structured logs at the driver's configured level;
    # they ship home in the result dict and the driver replays them into
    # its own bus with these correlation ids intact
    try:
        with capture_logs(level=spec.get("log_level")) as log_records, log_context(
            job_id=spec.get("job_id"),
            stage_id=task.stage_id,
            partition=task.partition,
            attempt=spec["attempt"],
            executor_id=spec["executor_id"],
        ):
            result = task.run(tc)
    finally:
        with _WORKER_INFLIGHT_LOCK:
            _WORKER_INFLIGHT.pop(key, None)
    compute_end = time.perf_counter()
    telemetry.record(tc.metrics)

    shuffle_output = None
    if isinstance(task, ShuffleMapTask):
        sid = task.shuffle_dep.shuffle_id
        shuffle_output = {
            key: buckets
            for key, buckets in tc.shuffle_manager._outputs.items()  # noqa: SLF001
            if key[0] == sid
        }
        result = None  # MapStatus rebuilt by the driver
    out = {
        "result": result,
        "shuffle_output": shuffle_output,
        "resident_blocks": blocks.resident(),
        "evicted_blocks": blocks.evicted,
        "metrics": tc.metrics,
        "span_fragments": [
            {"name": "deserialize", "start": 0.0, "end": deserialize_seconds},
            {"name": "compute", "start": compute_start - task_start,
             "end": compute_end - task_start},
        ],
    }
    if log_records:
        out["log_records"] = [r.to_dict() for r in log_records]
    serialize_start = time.perf_counter()
    body = pickle.dumps(out, protocol=pickle.HIGHEST_PROTOCOL)
    serialize_seconds = time.perf_counter() - serialize_start
    return _frame_result(
        body, serialize_seconds, serialize_start - task_start, transport
    )


# -- result framing -----------------------------------------------------------
#
# The result body must be pickled *before* its own serialization time can
# be known, so the measurement rides in a fixed-size binary header ahead of
# the body instead of a second pickle layer wrapping it:
#
#   magic "RF" | version u8 | flags u8 | serialize_seconds f64 |
#   serialize_offset f64 | payload
#
# flags bit 0: payload is a pickled TransportRef to the real body (large
# results travel out-of-band instead of through the worker's socket).

_RESULT_MAGIC = b"RF"
_RESULT_HEADER = struct.Struct("<2sBBdd")
_RESULT_FLAG_REF = 0x01
#: result bodies at least this large travel by transport ref
_RESULT_TRANSPORT_MIN = 256 * 1024


def _frame_result(
    body: bytes,
    serialize_seconds: float,
    serialize_offset: float,
    transport: Any,
) -> bytes:
    flags = 0
    payload = body
    if len(body) >= _RESULT_TRANSPORT_MIN:
        ref = transport.put(body)
        payload = pickle.dumps(ref, protocol=pickle.HIGHEST_PROTOCOL)
        flags |= _RESULT_FLAG_REF
    header = _RESULT_HEADER.pack(
        _RESULT_MAGIC, 1, flags, serialize_seconds, serialize_offset
    )
    return header + payload


def unframe_result(frame: bytes, transport: Any) -> tuple[dict, float, float]:
    """Driver-side inverse of :func:`_frame_result`.

    Returns ``(out_dict, serialize_seconds, serialize_offset)``; transport
    payloads are fetched and deleted (the ref is single-use).
    """
    magic, version, flags, serialize_seconds, serialize_offset = (
        _RESULT_HEADER.unpack_from(frame)
    )
    if magic != _RESULT_MAGIC or version != 1:
        raise ValueError(f"bad result frame (magic={magic!r}, version={version})")
    payload: Any = memoryview(frame)[_RESULT_HEADER.size:]
    if flags & _RESULT_FLAG_REF:
        ref = pickle.loads(payload)
        payload = transport.get(ref)
        transport.delete(ref)
    return pickle.loads(payload), serialize_seconds, serialize_offset


def shutdown_shared_pool() -> None:
    # frozen importer: benchmarks/e2e/workloads.py (a BENCHMARK.json path this
    # repo may not edit) calls this next to stop_all_clusters()
    from repro.engine.cluster_backend import stop_all_clusters

    stop_all_clusters()


def make_backend(config: "EngineConfig"):
    """Instantiate the backend named in ``config.backend``."""
    # "threads" is a spelling of "serial", kept only for benchmarks/e2e
    # (``paper_uncached_threads`` in workloads.py, a BENCHMARK.json path this
    # repo may not edit); drop it in the next ``[benchmark]`` PR
    if config.backend in ("serial", "threads"):
        return SerialBackend(config)
    if config.backend == "cluster":
        from repro.engine.cluster_backend import ClusterBackend

        return ClusterBackend(config)
    raise ValueError(f"unknown backend {config.backend!r}")
