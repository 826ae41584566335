"""Executor heartbeats: liveness reporting and lost-executor detection.

The analogue of Spark's driver<->executor heartbeat RPC, on the cluster
backend.  While tasks are in flight each worker process runs a small daemon
thread that ships :class:`~repro.engine.listener.ExecutorHeartbeat`
records (in-flight task ids, rows pulled through task iterators so far,
RSS) as frames over its driver socket, at the interval carried in the
running task's envelope -- genuine cross-process liveness that does not
depend on which Context spawned the fleet.  A serial task runs inline on
the driver thread, so the scheduler could not act on a timeout before
that task returned: the serial backend has no heartbeat plane.

The hub posts every record it receives, as it arrived, on the listener
bus (so the event log's ``telemetry`` channel records them) and watches for
silence: a *busy* executor that has not heartbeated within
``EngineConfig.heartbeat_timeout`` seconds is declared lost -- the hub
posts :class:`~repro.engine.listener.ExecutorTimedOut` and the task
scheduler folds it into the existing executor-loss machinery (blocks and
shuffle outputs invalidated, in-flight attempts retried on healthy
executors) instead of hanging the job.  Records from an executor whose
heartbeats are suspended
(:meth:`~repro.engine.executor.Executor.suspend_heartbeats`) are dropped on
arrival, which is how tests and fault drills freeze a live worker from the
driver.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import TYPE_CHECKING

from repro.engine.listener import (
    ExecutorHeartbeat,
    ExecutorTimedOut,
    Listener,
    TaskEnd,
    TaskStart,
)
from repro.obs.logging import get_logger

log = get_logger("repro.heartbeat")

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.context import Context


class HeartbeatHub(Listener):
    """Driver-side heartbeat plane: receiver and timeout monitor.

    Registered on the context's listener bus (it tracks in-flight tasks via
    ``TaskStart``/``TaskEnd``) and runs one daemon thread that, every
    ``interval`` seconds, drains the worker-process heartbeats the cluster
    backend delivered to its queue and flags busy executors silent for
    longer than ``timeout`` seconds.

    The scheduler consumes flagged executors via :meth:`take_timed_out`.
    """

    def __init__(self, ctx: "Context") -> None:
        self.ctx = ctx
        self.interval = ctx.config.heartbeat_interval
        self.timeout = ctx.config.heartbeat_timeout
        self._lock = threading.Lock()
        #: executor_id -> in-flight (stage, partition, attempt) triples
        self._inflight: dict[str, set[tuple]] = {}
        self._last_seen: dict[str, float] = {}
        #: flagged but not yet consumed by the scheduler
        self._pending_timeouts: set[str] = set()
        #: already announced (avoid re-posting ExecutorTimedOut every tick)
        self._announced: set[str] = set()
        self.records_received = 0
        #: worker-process records land here while the hub is subscribed to
        #: the backend; the queue is the hub's own, so it dies with the hub
        self._worker_queue: "queue.Queue[ExecutorHeartbeat]" = queue.Queue()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        self.ctx.backend.heartbeats.subscribe(self._worker_queue.put)
        self._thread = threading.Thread(
            target=self._run, name="repro-heartbeat-hub", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self.ctx.backend.heartbeats.unsubscribe(self._worker_queue.put)
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def close(self) -> None:  # bus stop() hook
        self.stop()

    # -- bus-driven in-flight tracking ------------------------------------

    def on_task_start(self, event: TaskStart) -> None:
        key = (event.stage_id, event.partition, event.attempt)
        with self._lock:
            tasks = self._inflight.setdefault(event.executor_id, set())
            if not tasks:  # idle -> busy: liveness clock starts now
                self._last_seen[event.executor_id] = time.perf_counter()
                self._announced.discard(event.executor_id)
            tasks.add(key)

    def on_task_end(self, event: TaskEnd) -> None:
        rec = event.record
        key = (rec.stage_id, rec.partition, rec.attempt)
        with self._lock:
            tasks = self._inflight.get(rec.executor_id)
            if tasks is not None:
                tasks.discard(key)
                if not tasks:
                    del self._inflight[rec.executor_id]

    # -- scheduler interface ----------------------------------------------

    def take_timed_out(self) -> set[str]:
        """Executors flagged lost since the last call (consumed once)."""
        with self._lock:
            out, self._pending_timeouts = self._pending_timeouts, set()
            return out

    def last_heartbeat_age(self, executor_id: str) -> float | None:
        with self._lock:
            seen = self._last_seen.get(executor_id)
        return None if seen is None else time.perf_counter() - seen

    # -- hub thread --------------------------------------------------------

    def _run(self) -> None:
        period = self.interval
        if self.timeout > 0:
            period = min(period, max(self.timeout / 4.0, 0.01))
        while not self._stop.wait(period):
            # never kill the hub on a transient error, but never hide one
            self._guarded(self._tick)
        # final drain so late worker records still reach the bus
        self._guarded(self._drain_worker_queue)

    def _guarded(self, step) -> None:
        try:
            step()
        except Exception as exc:  # noqa: BLE001 - logged, the hub keeps ticking
            log.warning(
                "heartbeat hub step failed",
                step=step.__name__,
                error=f"{type(exc).__name__}: {exc}",
            )

    def _tick(self) -> None:
        self._drain_worker_queue()
        if self.timeout > 0:
            self._check_timeouts()

    def _drain_worker_queue(self) -> None:
        while True:
            try:
                record = self._worker_queue.get_nowait()
            except queue.Empty:
                return
            self._receive(record)

    def _receive(self, record: ExecutorHeartbeat) -> None:
        if any(
            e.executor_id == record.executor_id and e.heartbeats_suspended
            for e in self.ctx.executors
        ):
            return  # a frozen executor: its beats never reach the driver
        with self._lock:
            self._last_seen[record.executor_id] = time.perf_counter()
            self.records_received += 1
        self.ctx.listener_bus.post(record)

    def _check_timeouts(self) -> None:
        now = time.perf_counter()
        stale: list[tuple[str, float]] = []
        with self._lock:
            for executor_id, tasks in self._inflight.items():
                if not tasks or executor_id in self._announced:
                    continue
                seen = self._last_seen.get(executor_id)
                if seen is not None and now - seen > self.timeout:
                    self._announced.add(executor_id)
                    self._pending_timeouts.add(executor_id)
                    stale.append((executor_id, now - seen))
        for executor_id, age in stale:
            log.warning(
                "busy executor stopped heartbeating; declaring it lost",
                executor_id=executor_id,
                seconds_since_heartbeat=round(age, 3),
            )
            self.ctx.listener_bus.post(ExecutorTimedOut(executor_id, age))


__all__ = ["HeartbeatHub"]
