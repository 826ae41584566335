"""Execution backends: where task attempts run, and the one body they run.

Every attempt, on either backend, runs :func:`run_task`: it builds the
:class:`~repro.engine.task.TaskContext` from a block window
(:class:`_TaskBlocks`) and the attempt's prefetched shuffle input, runs the
task and returns one ``out`` dict -- the result (a map task's is its
encoded buckets), the ids of the cache blocks the attempt left resident or
evicted, and its metrics -- which the scheduler folds into driver state
through one merge.  What differs is how the task reaches the runner:

- :class:`SerialBackend` -- calls :func:`run_task` inline on the driver
  thread with the live task (default; the reference for correctness
  tests).  Its window sits over the executor's own block manager, keyed
  by rdd id: that store dies with its Context.
- :class:`~repro.engine.cluster_backend.ClusterBackend` -- a persistent
  fleet of worker processes.  A task envelope carries refs and its
  pre-fetched shuffle input, never partition or cache data; the worker
  wrapper :func:`_run_pickled_task` unpickles it, runs :func:`run_task`
  and frames the ``out`` dict home with what only a worker has to report
  (deserialize/serialize timings, span fragments, captured logs).

Both expose ``submit_task(...) -> Future`` and ``open_result``, which turns
what the future resolved to into the ``out`` dict.  The cluster queues
tasks until ``flush()`` (the scheduler flushes once per pass of launches).

Stage closures ship to the cluster as *task binaries* (see
:class:`~repro.engine.task.TaskBinary`): the scheduler pickles each stage's
lineage+closure once -- kilobytes: partitions and large broadcasts are
content-hash refs (:class:`~repro.engine.transport.ByRef`) -- and workers
memoize the deserialized binary by content hash so repeated tasks of the
same stage skip the unpickling entirely.

Cached RDD blocks on the cluster are *resident*: each worker process keeps
one :class:`~repro.engine.blockmanager.BlockManager` for its whole life,
keyed ``(lineage fingerprint, split)`` so that contexts whose RDD ids all
restart at 0 cannot collide and an identical analysis on a warm fleet
finds its blocks already there.  Block data never leaves the worker; a
miss anywhere recomputes from the (cheap to ship) lineage.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import os
import pickle
import struct
import threading
import time
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Callable

from repro.engine.task import TaskContext, TaskTelemetry
from repro.obs.logging import log_context

if TYPE_CHECKING:  # pragma: no cover
    from repro.config import EngineConfig
    from repro.engine.executor import Executor
    from repro.engine.rdd import RDD
    from repro.engine.task import Task


class _TaskBlocks:
    """One task's window onto a block store.

    ``RDD.iterator`` asks for ``(rdd_id, split)``; the window files each
    block under ``(keys[rdd_id], split)``, the store's own key: the rdd id
    itself in a serial executor's manager, the lineage fingerprint in a
    worker's resident one (rdd ids restart at 0 in every context while
    that store outlives them all).  The window also notes which blocks the
    task touched and the store key of every block its puts pushed out, so
    the result tells the driver *where* blocks are without carrying any.
    """

    def __init__(self, manager: Any, keys: "dict[int, Any]") -> None:
        self._manager = manager
        self._keys = keys
        self._touched: set[tuple[int, int]] = set()
        #: ``(store key, split)`` of each block this task's puts evicted,
        #: whatever RDD (or Context) cached it
        self.evicted: list[tuple[Any, int]] = []

    def _key(self, block_id: "tuple[int, int]") -> "tuple[Any, int]":
        self._touched.add(block_id)
        return (self._keys[block_id[0]], block_id[1])

    def get(self, block_id: "tuple[int, int]") -> "list | None":
        return self._manager.get(self._key(block_id))

    def put(self, block_id: "tuple[int, int]", data: Any, metrics: Any = None) -> list:
        return self._manager.put(
            self._key(block_id), data, metrics=metrics, evicted=self.evicted
        )

    def resident(self) -> "list[tuple[int, int]]":
        """Every touched block the store still holds."""
        return [
            block_id for block_id in sorted(self._touched)
            if self._manager.contains(self._key(block_id))
        ]


def run_task(
    task: "Task",
    attempt: int,
    executor_id: str,
    blocks: _TaskBlocks,
    prefetched: dict,
    job_id: Any,
    running: Callable[[TaskContext], Any] = contextlib.nullcontext,
) -> dict:
    """The one task body, on either backend: run one attempt, return ``out``.

    ``running(tc)`` is a context manager around the task's run (a worker
    registers the attempt for its heartbeats there).  Anything logged
    inside the task carries the attempt's full correlation id set.
    """
    tc = TaskContext(task.stage_id, task.partition, attempt, executor_id, blocks, prefetched)
    telemetry = TaskTelemetry()
    with running(tc), log_context(
        job_id=job_id, stage_id=task.stage_id, partition=task.partition,
        attempt=attempt, executor_id=executor_id,
    ):
        result = task.run(tc)
    telemetry.record(tc.metrics)
    return {
        "result": result,
        "resident_blocks": blocks.resident(),
        "evicted_blocks": blocks.evicted,
        "metrics": tc.metrics,
    }


class SerialBackend:
    """Runs every task inline on submit; fully deterministic ordering.

    Nothing crosses an address space, so there is no transport, no task
    binary and no heartbeat plane (a task that runs inline on the driver
    thread returns before anything could act on its timeout).
    """

    name = "serial"
    transport = None
    heartbeats = None

    def __init__(self, config: "EngineConfig") -> None:
        self.parallelism = 1

    @staticmethod
    def block_key(rdd: "RDD") -> int:
        """An executor's store dies with its Context: the rdd id is unique."""
        return rdd.id

    def submit_task(
        self, task: "Task", attempt: int, executor: "Executor", prefetched: dict,
        job_id: int, keys: "dict[int, Any]", binary: Any,
    ) -> concurrent.futures.Future:
        """Run the attempt now; the future is already resolved."""
        future: concurrent.futures.Future = concurrent.futures.Future()
        blocks = _TaskBlocks(executor.block_manager, keys)
        try:
            future.set_result(run_task(
                task, attempt, executor.executor_id, blocks, prefetched, job_id
            ))
        except BaseException as exc:  # noqa: BLE001 - surfaced through the future
            future.set_exception(exc)
        return future

    @staticmethod
    def open_result(out: dict) -> dict:
        return out

    def flush(self) -> None:
        pass

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
    """Worker exit: drop every block."""
    global _RESIDENT_BLOCKS
    if _RESIDENT_BLOCKS is not None:
        _RESIDENT_BLOCKS.clear()
        _RESIDENT_BLOCKS = None


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
    """Ship one ExecutorHeartbeat per executor with tasks in this worker."""
    send = _WORKER_HB["send"]
    if send is None or _WORKER_HB["interval"] <= 0:
        return
    from repro.engine.listener import ExecutorHeartbeat
    from repro.engine.task import current_rss_bytes

    with _WORKER_INFLIGHT_LOCK:
        by_executor: dict[str, dict[tuple, Any]] = {}
        for key, tc in _WORKER_INFLIGHT.items():
            by_executor.setdefault(tc.executor_id, {})[key] = tc
    rss = current_rss_bytes() if by_executor else 0
    for executor_id, tasks in by_executor.items():
        record = ExecutorHeartbeat(
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


@contextlib.contextmanager
def _in_flight(tc: TaskContext):
    """Report the attempt in this worker's heartbeats while it runs."""
    key = (tc.stage_id, tc.partition, tc.attempt)
    with _WORKER_INFLIGHT_LOCK:
        _WORKER_INFLIGHT[key] = tc
    _send_worker_heartbeats()  # immediate "task picked up" liveness signal
    try:
        yield tc
    finally:
        with _WORKER_INFLIGHT_LOCK:
            _WORKER_INFLIGHT.pop(key, None)


def _run_pickled_task(payload: bytes) -> bytes:
    """Worker-side entry point: run one self-contained task attempt.

    Receives a pickled dict with a transport ref to the stage's task binary
    (lineage + closure, memoized per worker and fetched on a cache miss),
    the partition/attempt to run and pre-fetched shuffle frames, and runs
    :func:`run_task` against this process's resident blocks.  On top of
    its ``out`` dict the worker reports what only it can: captured log
    records (only when there are some), worker-local span fragments
    (task-relative offsets, which the driver stitches under this attempt's
    ``TaskRecord``) and, on the task metrics, its deserialize time and
    warm-cache facts (task binary and by-ref memo hits).

    The return value is an offset-prefixed frame (see
    :func:`_frame_result`): a fixed-size header carrying the serialization
    timings followed by the pickled body -- the body is *not* pickled a
    second time inside a wrapper, and large bodies travel by transport ref
    instead of through the worker's socket.
    """
    from repro.engine.transport import from_spec
    from repro.obs.logging import capture_logs

    task_start = time.perf_counter()
    spec = pickle.loads(payload)
    transport = from_spec(spec["transport"])
    binary, binary_cached = _load_task_binary(spec["binary_ref"], transport)
    task = binary.make_task(spec["partition"])
    blocks = _TaskBlocks(_resident_blocks(spec["storage_memory"]), binary.block_keys)
    deserialize_seconds = time.perf_counter() - task_start
    hb_interval = spec["heartbeat_interval"]
    interval = max(hb_interval, 0.05) if hb_interval > 0 else 0.0
    if interval != _WORKER_HB["interval"]:
        _WORKER_HB["interval"] = interval
        _WORKER_HB_WAKE.set()
    _ensure_worker_heartbeat_thread()
    compute_start = time.perf_counter()
    # capture worker-side structured logs at the driver's configured level;
    # they ship home in the result dict and the driver replays them into
    # its own bus with their correlation ids intact
    with capture_logs(level=spec["log_level"]) as log_records:
        out = run_task(
            task, spec["attempt"], spec["executor_id"], blocks,
            spec["prefetched_shuffle"], spec["job_id"], running=_in_flight,
        )
    compute_end = time.perf_counter()
    metrics = out["metrics"]
    metrics.deserialize_seconds += deserialize_seconds
    metrics.task_binary_cache_hits = int(binary_cached)
    metrics.task_binary_cache_misses = int(not binary_cached)
    out["span_fragments"] = [
        {"name": "deserialize", "start": 0.0, "end": deserialize_seconds},
        {"name": "compute", "start": compute_start - task_start,
         "end": compute_end - task_start},
    ]
    if log_records:
        out["log_records"] = log_records
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
