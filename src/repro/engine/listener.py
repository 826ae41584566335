"""Engine listener bus: typed events, the analogue of Spark's ``LiveListenerBus``.

The bus carries the job lifecycle (job start/end, stage submitted/completed,
task start/end -- a ``TaskEnd`` holds the attempt's whole
:class:`~repro.engine.metrics.TaskRecord`), executor liveness (heartbeats
and heartbeat timeouts) and the resampling monitor's progress (batches
folded, SNP-sets decided).  Cache, shuffle and executor-membership facts
are not events: they are counted on each attempt's
:class:`~repro.engine.metrics.TaskMetrics` and the job record built from
it, or read from the cluster's ``executor_info()``.  Consumers subscribe by
registering a :class:`Listener`; the event log
(:mod:`repro.engine.eventlog`), the heartbeat hub
(:mod:`repro.engine.heartbeat`) and the console progress bars
(:mod:`repro.obs.progress`) are all just listeners.

Delivery is synchronous and in posting order per thread.  A listener that
raises is isolated: the exception is recorded on the bus
(:attr:`ListenerBus.listener_errors`) and the remaining listeners still
receive the event -- one misbehaving consumer can never fail a job.
"""

from __future__ import annotations

import re
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.obs.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.metrics import JobMetrics, StageMetrics, TaskRecord


# -- event taxonomy ----------------------------------------------------------


@dataclass
class EngineEvent:
    """Base class for all bus events.

    ``time`` is a monotonic (:func:`time.perf_counter`) timestamp stamped by
    the bus at post time, so listeners can order and measure events without
    trusting the producer.
    """

    time: float = field(default=0.0, init=False, repr=False)


@dataclass
class JobStart(EngineEvent):
    job_id: int
    description: str = ""


@dataclass
class JobEnd(EngineEvent):
    job_id: int
    job: "JobMetrics"
    succeeded: bool = True


@dataclass
class StageSubmitted(EngineEvent):
    stage_id: int
    attempt: int
    name: str
    num_tasks: int
    job_id: int


@dataclass
class StageCompleted(EngineEvent):
    stage: "StageMetrics"
    job_id: int
    failed: bool = False


@dataclass
class TaskStart(EngineEvent):
    stage_id: int
    partition: int
    attempt: int
    executor_id: str


@dataclass
class TaskEnd(EngineEvent):
    record: "TaskRecord"


@dataclass
class ExecutorHeartbeat(EngineEvent):
    """Periodic liveness/progress report from one executor.

    Sent by cluster worker processes over their socket and posted by the
    driver-side heartbeat hub; the serial backend has no heartbeats.
    """

    executor_id: str
    #: (stage_id, partition, attempt) triples currently running
    inflight: tuple[tuple[int, ...], ...] = ()
    #: rows pulled through in-flight task iterators so far
    records_read: int = 0
    #: resident set size of the reporting process, bytes
    rss_bytes: int = 0
    #: OS pid of the reporting worker process
    worker_pid: int = 0


@dataclass
class ExecutorTimedOut(EngineEvent):
    """A busy executor stopped heartbeating; the scheduler will retry its
    in-flight tasks elsewhere."""

    executor_id: str
    seconds_since_heartbeat: float = 0.0


@dataclass
class InferenceBatchCompleted(EngineEvent):
    """One replicate batch folded into the convergence monitor.

    Posted by :class:`repro.obs.inference.ConvergenceMonitor` after each
    batch of resampling replicates is folded into the running p-value
    estimates.  ``batch_width`` is zero for the final accounting event a
    finished run posts (the only one with a nonzero ``replicates_saved``)."""

    method: str
    batch_width: int
    replicates_total: int
    planned_replicates: int
    sets_total: int
    sets_converged: int
    replicates_saved: int = 0
    #: smallest running p-value estimate across all sets (drives the
    #: required_resamples advisor rule)
    min_pvalue: float = 1.0
    early_stop: bool = False


@dataclass
class SnpSetConverged(EngineEvent):
    """A SNP-set's p-value confidence interval became decisive.

    ``status`` is ``"decided_significant"`` (CI entirely below alpha) or
    ``"decided_null"`` (CI entirely above alpha); the CI bounds are those
    at decision time, so readers can audit the call."""

    method: str
    set_index: int
    set_name: str
    status: str
    pvalue: float
    ci_low: float
    ci_high: float
    replicates: int
    alpha: float = 0.05


# -- listener + bus ----------------------------------------------------------

_CAMEL = re.compile(r"(?<!^)(?=[A-Z])")


def _handler_name(event_type: type) -> str:
    """``StageSubmitted`` -> ``on_stage_submitted``."""
    return "on_" + _CAMEL.sub("_", event_type.__name__).lower()


class Listener:
    """Base listener: override ``on_event`` or any typed ``on_*`` hook.

    For each posted event the bus calls ``on_event(event)`` first, then the
    type-specific hook (``on_job_start``, ``on_task_end``, ...) when the
    subclass defines one.
    """

    def on_event(self, event: EngineEvent) -> None:  # noqa: B027 - optional hook
        pass

    def close(self) -> None:  # noqa: B027 - optional hook
        """Called when the owning context stops."""


class ListenerBus:
    """Synchronous, thread-safe event dispatcher with listener isolation."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._listeners: list[Listener] = []
        self.events_posted = 0
        #: (listener, event, exception) triples for raised handlers
        self.listener_errors: list[tuple[Listener, EngineEvent, Exception]] = []

    def add_listener(self, listener: Listener) -> Listener:
        with self._lock:
            self._listeners.append(listener)
        return listener

    def remove_listener(self, listener: Listener) -> None:
        with self._lock:
            try:
                self._listeners.remove(listener)
            except ValueError:
                pass

    @property
    def listeners(self) -> list[Listener]:
        with self._lock:
            return list(self._listeners)

    def post(self, event: EngineEvent) -> None:
        event.time = time.perf_counter()
        with self._lock:
            listeners = list(self._listeners)
            self.events_posted += 1
        hook = _handler_name(type(event))
        for listener in listeners:
            try:
                listener.on_event(event)
                typed = getattr(listener, hook, None)
                if typed is not None:
                    typed(event)
            except Exception as exc:  # isolation: never fail the engine
                with self._lock:
                    self.listener_errors.append((listener, event, exc))
                get_logger("repro.listener").warning(
                    "listener raised; event delivery continued",
                    listener=type(listener).__name__,
                    event=type(event).__name__,
                    error=f"{type(exc).__name__}: {exc}",
                )

    def stop(self) -> None:
        """Close every listener (errors isolated) and drop registrations."""
        for listener in self.listeners:
            try:
                listener.close()
            except Exception as exc:
                with self._lock:
                    self.listener_errors.append((listener, EngineEvent(), exc))
        with self._lock:
            self._listeners.clear()


class CollectingListener(Listener):
    """Test/debug helper: remembers every event it sees, optionally filtered."""

    def __init__(self, *event_types: type) -> None:
        self.event_types = event_types or None
        self.events: list[EngineEvent] = []
        self._lock = threading.Lock()

    def on_event(self, event: EngineEvent) -> None:
        if self.event_types is None or isinstance(event, tuple(self.event_types)):
            with self._lock:
                self.events.append(event)

    def of(self, event_type: type) -> list[EngineEvent]:
        with self._lock:
            return [e for e in self.events if isinstance(e, event_type)]

    def names(self) -> list[str]:
        with self._lock:
            return [type(e).__name__ for e in self.events]


__all__ = [
    "EngineEvent",
    "JobStart",
    "JobEnd",
    "StageSubmitted",
    "StageCompleted",
    "TaskStart",
    "TaskEnd",
    "ExecutorHeartbeat",
    "ExecutorTimedOut",
    "InferenceBatchCompleted",
    "SnpSetConverged",
    "Listener",
    "ListenerBus",
    "CollectingListener",
]
