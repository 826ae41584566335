"""Task descriptors and the task-side execution context.

Two task kinds, exactly as in Spark:

- :class:`ShuffleMapTask` computes one partition of the stage's final RDD
  and buckets its key-value output by the shuffle dependency's partitioner,
  writing the buckets to the shuffle manager.
- :class:`ResultTask` computes one partition and applies the action's
  per-partition function, returning its value to the driver.
"""

from __future__ import annotations

import gc
import os
import resource
import sys
import time
import tracemalloc
from typing import TYPE_CHECKING, Any, Callable, Iterator

import threading

from repro.engine.accumulator import AccumulatorBuffer
from repro.engine.metrics import TaskMetrics

_LOCAL = threading.local()

#: ru_maxrss is kilobytes on Linux, bytes on macOS
_RU_MAXRSS_UNIT = 1 if sys.platform == "darwin" else 1024


def peak_rss_bytes() -> int:
    """High-water resident set size of this process, in bytes."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * _RU_MAXRSS_UNIT


def current_rss_bytes() -> int:
    """Current resident set size, bytes (falls back to the peak off-Linux)."""
    try:
        with open(f"/proc/{os.getpid()}/statm") as fh:
            return int(fh.read().split()[1]) * resource.getpagesize()
    except (OSError, IndexError, ValueError):
        return peak_rss_bytes()


class _GcPauseMeter:
    """Process-wide accumulator of garbage-collection pause time.

    One :data:`gc.callbacks` hook feeds a monotone total; tasks sample the
    total at start/end and attribute the delta to themselves.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._start: float | None = None
        self._total = 0.0
        self._installed = False

    def _on_gc(self, phase: str, info: dict) -> None:
        with self._lock:
            if phase == "start":
                self._start = time.perf_counter()
            elif phase == "stop" and self._start is not None:
                self._total += time.perf_counter() - self._start
                self._start = None

    def install(self) -> None:
        if not self._installed:
            gc.callbacks.append(self._on_gc)
            self._installed = True

    @property
    def total(self) -> float:
        with self._lock:
            return self._total


GC_PAUSE_METER = _GcPauseMeter()


class TaskTelemetry:
    """Samples resource telemetry around one task attempt.

    Usage::

        telemetry = TaskTelemetry()          # samples baselines
        ... run the task ...
        telemetry.record(tc.metrics)         # fills the telemetry fields
    """

    def __init__(self) -> None:
        GC_PAUSE_METER.install()
        self._gc_base = GC_PAUSE_METER.total
        self._tracing = tracemalloc.is_tracing()

    def record(self, metrics: TaskMetrics) -> None:
        metrics.gc_pause_seconds += GC_PAUSE_METER.total - self._gc_base
        metrics.peak_rss_bytes = max(metrics.peak_rss_bytes, peak_rss_bytes())
        if self._tracing and tracemalloc.is_tracing():
            metrics.tracemalloc_peak_bytes = max(
                metrics.tracemalloc_peak_bytes, tracemalloc.get_traced_memory()[1]
            )


def current_task_context() -> "TaskContext | None":
    """The TaskContext of the task running on this thread, if any.

    Lets user closures call ``Accumulator.add`` from inside tasks without
    plumbing the context through, matching Spark's thread-local
    ``TaskContext.get()``.
    """
    return getattr(_LOCAL, "tc", None)

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.blockmanager import BlockManager, BlockManagerMaster
    from repro.engine.rdd import RDD
    from repro.engine.shuffle import ShuffleManager


class TaskContext:
    """Per-task runtime context threaded through ``RDD.iterator``.

    Carries the executing executor's identity, handles to the shuffle
    manager and block managers, the fault-injection hook, metrics, and the
    accumulator buffer.
    """

    def __init__(
        self,
        stage_id: int,
        partition: int,
        attempt: int,
        executor_id: str,
        shuffle_manager: "ShuffleManager | None" = None,
        block_manager: "BlockManager | None" = None,
        block_master: "BlockManagerMaster | None" = None,
        accumulators: AccumulatorBuffer | None = None,
        fault_hook: Callable[["TaskContext"], None] | None = None,
        trace_id: str | None = None,
        parent_span_id: int | None = None,
    ) -> None:
        self.stage_id = stage_id
        self.partition = partition
        self.attempt = attempt
        self.executor_id = executor_id
        self.shuffle_manager = shuffle_manager
        self.block_manager = block_manager
        self.block_master = block_master
        self.accumulators = accumulators or AccumulatorBuffer({})
        self.metrics = TaskMetrics()
        self._fault_hook = fault_hook
        #: W3C-traceparent-style trace context carried in the task envelope:
        #: the submitting driver's trace id and the stage span this attempt
        #: stitches under.  ``current_task_context().trace_id`` gives user
        #: code and worker-side instrumentation the driver identity without
        #: plumbing -- the executor may be serving several drivers
        self.trace_id = trace_id
        self.parent_span_id = parent_span_id
        #: pre-fetched shuffle input for the process backend, keyed by
        #: (shuffle_id, reduce_partition)
        self.prefetched_shuffle: dict[tuple[int, int], list] = {}

    def check_faults(self) -> None:
        """Invoke the fault-injection hook (may raise to simulate failure)."""
        if self._fault_hook is not None:
            self._fault_hook(self)


class Task:
    """Base task: compute one partition of ``rdd`` within a stage."""

    def __init__(self, stage_id: int, rdd: "RDD", partition: int) -> None:
        self.stage_id = stage_id
        self.rdd = rdd
        self.partition = partition
        self.attempt = 0

    def run(self, tc: TaskContext) -> Any:
        raise NotImplementedError


class ResultTask(Task):
    """Computes ``func(iterator)`` over one partition; result goes to driver."""

    def __init__(self, stage_id: int, rdd: "RDD", partition: int, func: Callable[[Iterator], Any]) -> None:
        super().__init__(stage_id, rdd, partition)
        self.func = func

    def run(self, tc: TaskContext) -> Any:
        tc.check_faults()
        start = time.perf_counter()
        previous = getattr(_LOCAL, "tc", None)
        _LOCAL.tc = tc
        try:
            result = self.func(self.rdd.iterator(self.partition, tc))
        finally:
            _LOCAL.tc = previous
        tc.metrics.compute_seconds += time.perf_counter() - start
        return result


class TaskBinary:
    """The per-stage payload shipped once to executors (Spark's task binary).

    Every task in a stage shares the same RDD lineage and closure; only the
    partition index differs.  The driver pickles one :class:`TaskBinary`
    per stage and ships tasks as ``(binary_id, partition, attempt, inputs)``
    so the lineage is serialized once per stage instead of once per task,
    and worker processes deserialize it once per stage (keyed by
    ``binary_id``) instead of once per task.  The pickle holds lineage,
    closures and content-hash refs -- no partition data, no broadcast
    payload over 4 KB -- so it is kilobytes whatever the dataset's size.
    """

    def __init__(
        self,
        stage_id: int,
        kind: str,
        rdd: "RDD",
        func: Callable[[Iterator], Any] | None,
        shuffle_dep: Any | None,
        accumulators: dict,
        block_keys: dict[int, str],
    ) -> None:
        if kind not in ("result", "shuffle_map"):
            raise ValueError(f"unknown task kind {kind!r}")
        self.stage_id = stage_id
        self.kind = kind
        self.rdd = rdd
        self.func = func
        self.shuffle_dep = shuffle_dep
        #: accumulator *definitions* (id -> Accumulator); driver-side state
        #: is stripped by Accumulator.__getstate__ on pickling
        self.accumulators = accumulators
        #: lineage fingerprint per persisted rdd id computed in this stage:
        #: what a worker keys the RDD's resident blocks by (rdd ids restart
        #: at 0 in every context; the SHA-256 of the RDD's pickle does not)
        self.block_keys = block_keys

    def make_task(self, partition: int) -> "Task":
        """Rebuild the concrete task for one partition of this stage."""
        if self.kind == "result":
            return ResultTask(self.stage_id, self.rdd, partition, self.func)
        return ShuffleMapTask(self.stage_id, self.rdd, partition, self.shuffle_dep)


class ShuffleMapTask(Task):
    """Computes one map partition and writes bucketed output to the shuffle.

    Returns the map status (output sizes per reduce partition) so the driver
    can track shuffle output availability.
    """

    def __init__(self, stage_id: int, rdd: "RDD", partition: int, shuffle_dep) -> None:
        super().__init__(stage_id, rdd, partition)
        self.shuffle_dep = shuffle_dep

    def run(self, tc: TaskContext) -> Any:
        tc.check_faults()
        if tc.shuffle_manager is None:
            raise RuntimeError("ShuffleMapTask requires a shuffle manager")
        start = time.perf_counter()
        previous = getattr(_LOCAL, "tc", None)
        _LOCAL.tc = tc
        try:
            status = tc.shuffle_manager.write_map_output(
                self.shuffle_dep,
                map_partition=self.partition,
                records=self.rdd.iterator(self.partition, tc),
                executor_id=tc.executor_id,
                metrics=tc.metrics,
            )
        finally:
            _LOCAL.tc = previous
        tc.metrics.compute_seconds += time.perf_counter() - start
        return status
