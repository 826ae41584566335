"""Execution backends: where task attempts actually run.

- :class:`SerialBackend` -- deterministic in-line execution (default; the
  reference for correctness tests).
- :class:`ThreadBackend` -- a thread pool sized to the configured total
  cores.  NumPy kernels release the GIL, so the score-statistic workload
  gets real parallelism.
- :class:`~repro.engine.cluster_backend.ClusterBackend` -- the one
  process-isolated backend: a persistent fleet of worker processes.  Tasks
  are made self-contained before dispatch (shuffle input pre-fetched,
  relevant cached blocks attached); results, new cache blocks, and
  accumulator updates ship back to the driver.  Its workers run
  :func:`_run_pickled_task`, which lives here with the rest of the
  worker-side task runner.

Shared-state backends expose ``submit(fn, *args) -> Future``; the cluster
backend exposes ``submit_pickled(payload, executor_id) -> Future`` instead.

Stage closures ship as *task binaries* (see
:class:`~repro.engine.task.TaskBinary`): the scheduler pickles each stage's
lineage+closure once, and workers memoize the deserialized binary by id so
repeated tasks of the same stage skip the unpickling entirely.
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


class ThreadBackend:
    """Thread pool; shares the driver-side managers directly."""

    name = "threads"
    supports_shared_state = True

    def __init__(self, config: "EngineConfig") -> None:
        self.parallelism = max(1, config.total_cores)
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.parallelism, thread_name_prefix="repro-task"
        )

    def submit(self, fn: Callable, *args: Any) -> concurrent.futures.Future:
        return self._pool.submit(fn, *args)

    def shutdown(self) -> None:
        self._pool.shutdown(wait=True)


#: worker-side memo of deserialized task binaries, keyed by the binary's
#: SHA-256 content hash.  Content keys (rather than per-context sequence
#: ids) are what make *persistent* executors warm: a rerun of the same
#: workload in a fresh Context produces byte-identical binaries, so the
#: second job's tasks hit this cache without fetching or unpickling.
_TASK_BINARY_CACHE: "OrderedDict[str, Any]" = OrderedDict()
_TASK_BINARY_CACHE_MAX = 64

#: executor id of the task currently running on this thread; labels the
#: warm-cache counters so the dashboard can tell warm executors from cold
_CURRENT_EXECUTOR = threading.local()


def current_task_executor() -> str:
    return getattr(_CURRENT_EXECUTOR, "executor_id", "driver")


def _load_task_binary(binary_id: str, ref: Any, transport: Any) -> Any:
    """Materialize a stage's task binary at most once per worker process.

    The binary (compressed, framed by
    :func:`repro.engine.serializer.compress_blob`) always travels
    out-of-band: ``ref`` is the :class:`~repro.engine.transport.TransportRef`
    to fetch it by on a cache miss, which keeps megabyte lineages out of
    the task frames.
    """
    from repro.obs.registry import REGISTRY

    binary = _TASK_BINARY_CACHE.get(binary_id)
    if binary is not None:
        _TASK_BINARY_CACHE.move_to_end(binary_id)
        REGISTRY.counter(
            "task_binary_cache_hits_total",
            "task binaries served from the worker-side warm cache",
            labelnames=("executor",),
        ).labels(executor=current_task_executor()).inc()
        return binary
    REGISTRY.counter(
        "task_binary_cache_misses_total",
        "task binaries fetched and deserialized (cold path)",
        labelnames=("executor",),
    ).labels(executor=current_task_executor()).inc()
    from repro.engine.serializer import decompress_blob

    binary = pickle.loads(decompress_blob(transport.get(ref)))
    _TASK_BINARY_CACHE[binary_id] = binary
    while len(_TASK_BINARY_CACHE) > _TASK_BINARY_CACHE_MAX:
        _TASK_BINARY_CACHE.popitem(last=False)
    return binary


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
        time.sleep(_WORKER_HB["interval"] or 0.5)
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
    the partition/attempt to run, pre-fetched shuffle
    frames, and pre-attached cache blocks (frames); computes a
    result dict with the result, any shuffle output written (as
    :class:`~repro.engine.shuffle.ShuffleBlock` frames), newly cached
    blocks, accumulator updates, task metrics + resource telemetry,
    optional cProfile hotspot rows, worker-local span fragments
    (task-relative offsets), and a delta of every metrics-registry
    increment made while the task ran -- the driver merges the delta so
    worker-side instrumentation is never lost.

    The return value is an offset-prefixed frame (see
    :func:`_frame_result`): a fixed-size header carrying the serialization
    timings followed by the pickled body -- the body is *not* pickled a
    second time inside a wrapper, and large bodies travel by transport ref
    instead of through the worker's socket.
    """
    from repro.engine.accumulator import AccumulatorBuffer
    from repro.engine.blockmanager import BlockManager
    from repro.engine.profiler import profile_call
    from repro.engine.serializer import loads
    from repro.engine.shuffle import ShuffleManager
    from repro.engine.storage import StorageLevel
    from repro.engine.task import ShuffleMapTask, TaskContext, TaskTelemetry
    from repro.engine.transport import from_spec
    from repro.obs.logging import capture_logs, log_context
    from repro.obs.registry import REGISTRY

    task_start = time.perf_counter()
    registry_baseline = REGISTRY.state_snapshot()
    spec = pickle.loads(payload)
    _CURRENT_EXECUTOR.executor_id = spec["executor_id"]
    transport = from_spec(spec["transport"])
    binary = _load_task_binary(spec["binary_id"], spec["binary_ref"], transport)
    task = binary.make_task(spec["partition"])
    block_manager = BlockManager(spec["executor_id"], memory_budget=1 << 62)
    worker_shuffle = ShuffleManager(track_bytes=False)
    tc = TaskContext(
        stage_id=task.stage_id,
        partition=task.partition,
        attempt=spec["attempt"],
        executor_id=spec["executor_id"],
        shuffle_manager=worker_shuffle,
        block_manager=block_manager,
        block_master=None,
        accumulators=AccumulatorBuffer(binary.accumulators),
        trace_id=spec.get("trace_id"),
        parent_span_id=spec.get("parent_span_id"),
        speculative=spec.get("speculative", False),
    )
    tc.prefetched_shuffle = spec["prefetched_shuffle"]
    for block_id, frame in spec["cached_blocks"].items():
        level = binary.storage_levels.get(block_id[0], StorageLevel.MEMORY)
        tc.block_manager.put(block_id, loads(frame), level)
    deserialize_seconds = time.perf_counter() - task_start
    tc.metrics.deserialize_seconds = deserialize_seconds

    key = (task.stage_id, task.partition, spec["attempt"])
    telemetry = TaskTelemetry()
    with _WORKER_INFLIGHT_LOCK:
        _WORKER_INFLIGHT[key] = tc
    hb_interval = spec["heartbeat_interval"]
    _WORKER_HB["interval"] = max(hb_interval, 0.05) if hb_interval > 0 else 0.0
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
            if spec.get("profile"):
                result, hotspots = profile_call(
                    lambda: task.run(tc), spec.get("profile_top_n", 20)
                )
            else:
                result, hotspots = task.run(tc), None
    finally:
        with _WORKER_INFLIGHT_LOCK:
            _WORKER_INFLIGHT.pop(key, None)
    compute_end = time.perf_counter()
    telemetry.record(tc.metrics)

    from repro.core.instrumentation import observe_worker_task

    observe_worker_task(binary.kind, compute_end - compute_start, tc.metrics.gc_pause_seconds)

    shuffle_output = None
    if isinstance(task, ShuffleMapTask):
        sid = task.shuffle_dep.shuffle_id
        shuffle_output = {
            key: buckets
            for key, buckets in tc.shuffle_manager._outputs.items()  # noqa: SLF001
            if key[0] == sid
        }
        result = None  # MapStatus rebuilt by the driver
    new_blocks = {}
    for block_id in tc.block_manager.block_ids():
        if block_id not in spec["cached_blocks"]:
            new_blocks[block_id] = tc.block_manager.get(block_id)
    out = {
        "result": result,
        "shuffle_output": shuffle_output,
        "new_blocks": new_blocks,
        "accumulator_updates": tc.accumulators.snapshot(),
        "metrics": tc.metrics,
        "profile": hotspots,
        "span_fragments": [
            {"name": "deserialize", "start": 0.0, "end": deserialize_seconds},
            {"name": "compute", "start": compute_start - task_start,
             "end": compute_end - task_start},
        ],
        "registry_delta": REGISTRY.collect_delta(registry_baseline),
        "log_records": [r.to_dict() for r in log_records],
        "worker_pid": os.getpid(),
        # echo the trace context so the driver can verify the worker ran
        # under the expected trace (multi-driver fleets) and stamp it on
        # the fragments' spans
        "trace": {
            "trace_id": spec.get("trace_id"),
            "parent_span_id": spec.get("parent_span_id"),
        },
    }
    serialize_start = time.perf_counter()
    body = pickle.dumps(out, protocol=pickle.HIGHEST_PROTOCOL)
    serialize_seconds = time.perf_counter() - serialize_start
    return _frame_result(
        body,
        serialize_seconds,
        serialize_start - task_start,
        transport,
        spec.get("result_transport_min", _RESULT_TRANSPORT_MIN_DEFAULT),
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
_RESULT_TRANSPORT_MIN_DEFAULT = 256 * 1024


def _frame_result(
    body: bytes,
    serialize_seconds: float,
    serialize_offset: float,
    transport: Any,
    transport_min: int,
) -> bytes:
    flags = 0
    payload = body
    if len(body) >= transport_min:
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
    if config.backend == "serial":
        return SerialBackend(config)
    if config.backend == "threads":
        return ThreadBackend(config)
    if config.backend == "cluster":
        from repro.engine.cluster_backend import ClusterBackend

        return ClusterBackend(config)
    raise ValueError(f"unknown backend {config.backend!r}")
