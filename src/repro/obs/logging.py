"""Structured JSONL logging with automatic task correlation.

The engine's logging layer.  Three pieces:

- :class:`StructuredLogger` (via :func:`get_logger`) -- emits
  :class:`LogRecord` instances carrying a level, a message, free-form
  structured fields, and *correlation ids* (app/job/stage/partition/
  attempt/executor) injected automatically from the ambient
  :func:`log_context` that the scheduler and executors push around task
  execution.  A log call inside a task needs no plumbing to know which
  task it belongs to -- exactly like Spark's MDC-enriched log4j layout.
- :class:`LogBus` -- the per-process fan-out point.  Every record lands in
  a bounded ring buffer (``LOG_BUS.records()``, the recent tail) and is
  offered to registered sinks: a JSONL file (``--log-file``) and the
  event log (``log`` record lines interleaved with job/telemetry records).
  Sinks are isolated -- a raising sink can never fail the engine.
- worker capture (:func:`capture_logs`) -- the cluster backend wraps
  each task attempt in a capture; the records emitted worker-side ship
  home, as they are, in the pickled task result (the same channel as span
  fragments) and are replayed into the driver's bus with their correlation ids intact, so
  ``serial`` and ``cluster`` runs expose identical log streams.

Levels are the classic four (``debug`` < ``info`` < ``warning`` <
``error``); the bus level gates emission up front so disabled records
cost one dict lookup and one comparison.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import IO, Any, Callable, Iterator

LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}

#: correlation fields recognized on records (order used by renderers)
CORRELATION_FIELDS = (
    "app", "job_id", "stage_id", "partition", "attempt", "executor_id",
)


def _level_value(level: str) -> int:
    try:
        return LEVELS[level]
    except KeyError:
        raise ValueError(
            f"unknown log level {level!r}; choose from {', '.join(LEVELS)}"
        ) from None


@dataclass
class LogRecord:
    """One structured log line.

    ``time`` is monotonic (:func:`time.perf_counter`), consistent with
    every other engine timestamp, so log records interleave correctly
    with spans and telemetry from the same run.
    """

    time: float
    level: str
    logger: str
    message: str
    #: correlation ids; None when the record was emitted outside that scope
    app: str | None = None
    job_id: int | None = None
    stage_id: int | None = None
    partition: int | None = None
    attempt: int | None = None
    executor_id: str | None = None
    #: free-form structured payload (must be JSON-serializable)
    fields: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Compact JSON-ready dict; unset correlation ids are omitted."""
        out: dict[str, Any] = {
            "time": self.time,
            "level": self.level,
            "logger": self.logger,
            "message": self.message,
        }
        for name in CORRELATION_FIELDS:
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        if self.fields:
            out["fields"] = self.fields
        return out

    def correlation(self) -> tuple:
        """(job_id, stage_id, partition, attempt, executor_id) key."""
        return (self.job_id, self.stage_id, self.partition, self.attempt,
                self.executor_id)


# -- ambient correlation context ----------------------------------------------

_CONTEXT = threading.local()


def _context_stack() -> list[dict]:
    stack = getattr(_CONTEXT, "stack", None)
    if stack is None:
        stack = _CONTEXT.stack = []
    return stack


def current_log_context() -> dict:
    """Merged view of every pushed context frame on this thread."""
    merged: dict = {}
    for frame in _context_stack():
        merged.update(frame)
    return merged


@contextmanager
def log_context(**ids: Any) -> Iterator[None]:
    """Push correlation ids for the duration of the block.

    Frames nest: a task frame pushed inside a job frame sees both sets of
    ids.  Unknown keys land in ``LogRecord.fields``.
    """
    stack = _context_stack()
    stack.append(ids)
    try:
        yield
    finally:
        stack.pop()


# -- the bus ------------------------------------------------------------------


class LogBus:
    """Bounded ring buffer plus sink fan-out for one process.

    Thread-safe.  ``level`` gates emission: records below it are counted
    (``records_suppressed``) and dropped before any formatting cost.
    """

    def __init__(self, capacity: int = 2048, level: str = "info") -> None:
        self._lock = threading.Lock()
        self._ring: deque[LogRecord] = deque(maxlen=capacity)
        self._sinks: list[Callable[[LogRecord], None]] = []
        self._level_value = _level_value(level)
        self.level = level
        self.records_emitted = 0
        self.records_suppressed = 0
        #: (sink, record, exception) triples from raising sinks
        self.sink_errors: list[tuple] = []

    def set_level(self, level: str) -> None:
        value = _level_value(level)
        with self._lock:
            self.level = level
            self._level_value = value

    def is_enabled_for(self, level: str) -> bool:
        return _level_value(level) >= self._level_value

    def emit(self, record: LogRecord) -> None:
        if _level_value(record.level) < self._level_value:
            with self._lock:
                self.records_suppressed += 1
            return
        with self._lock:
            self._ring.append(record)
            self.records_emitted += 1
            sinks = list(self._sinks)
        for sink in sinks:
            try:
                sink(record)
            except Exception as exc:  # isolation: logging never fails a job
                with self._lock:
                    self.sink_errors.append((sink, record, exc))

    def replay(self, record: LogRecord) -> None:
        """Re-emit an already-filtered record (worker shipping, log replay).

        Bypasses the level gate: the producing process filtered at its own
        configured level, and re-filtering here would silently drop records
        when the driver runs at a stricter level than it asked workers for.
        """
        with self._lock:
            self._ring.append(record)
            self.records_emitted += 1
            sinks = list(self._sinks)
        for sink in sinks:
            try:
                sink(record)
            except Exception as exc:
                with self._lock:
                    self.sink_errors.append((sink, record, exc))

    def records(self, level: str | None = None, limit: int | None = None) -> list[LogRecord]:
        """Snapshot of the ring buffer, optionally filtered / truncated."""
        with self._lock:
            out = list(self._ring)
        if level is not None:
            floor = _level_value(level)
            out = [r for r in out if _level_value(r.level) >= floor]
        if limit is not None and limit >= 0:
            out = out[-limit:]
        return out

    def add_sink(self, sink: Callable[[LogRecord], None]) -> Callable[[LogRecord], None]:
        with self._lock:
            self._sinks.append(sink)
        return sink

    def remove_sink(self, sink: Callable[[LogRecord], None]) -> None:
        with self._lock:
            try:
                self._sinks.remove(sink)
            except ValueError:
                pass

    def clear(self) -> None:
        """Drop buffered records and counters (sinks stay registered)."""
        with self._lock:
            self._ring.clear()
            self.records_emitted = 0
            self.records_suppressed = 0


#: default process-wide bus (the analogue of the root log4j logger)
LOG_BUS = LogBus()


# -- loggers ------------------------------------------------------------------


class StructuredLogger:
    """Named logger; every call folds in the ambient correlation context."""

    def __init__(self, name: str, bus: LogBus | None = None) -> None:
        self.name = name
        self._bus = bus

    @property
    def bus(self) -> LogBus:
        return self._bus if self._bus is not None else LOG_BUS

    def is_enabled_for(self, level: str) -> bool:
        return self.bus.is_enabled_for(level)

    def log(self, level: str, message: str, **fields: Any) -> None:
        bus = self.bus
        if not bus.is_enabled_for(level):
            bus.records_suppressed += 1
            return
        merged = current_log_context()
        record = LogRecord(
            time=time.perf_counter(),
            level=level,
            logger=self.name,
            message=message,
        )
        extra: dict = {}
        for key, value in merged.items():
            if key in CORRELATION_FIELDS:
                setattr(record, key, value)
            else:
                extra[key] = value
        for key, value in fields.items():
            if key in CORRELATION_FIELDS:
                setattr(record, key, value)
            else:
                extra[key] = value
        if extra:
            record.fields = extra
        bus.emit(record)

    def debug(self, message: str, **fields: Any) -> None:
        self.log("debug", message, **fields)

    def info(self, message: str, **fields: Any) -> None:
        self.log("info", message, **fields)

    def warning(self, message: str, **fields: Any) -> None:
        self.log("warning", message, **fields)

    def error(self, message: str, **fields: Any) -> None:
        self.log("error", message, **fields)


_LOGGERS: dict[str, StructuredLogger] = {}
_LOGGERS_LOCK = threading.Lock()


def get_logger(name: str) -> StructuredLogger:
    """Process-wide named logger bound to the default bus."""
    with _LOGGERS_LOCK:
        logger = _LOGGERS.get(name)
        if logger is None:
            logger = _LOGGERS[name] = StructuredLogger(name)
        return logger


# -- sinks --------------------------------------------------------------------


class JsonlLogSink:
    """Appends each record as one JSON line (the ``--log-file`` sink)."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._fh: IO[str] | None = None
        self.records_written = 0

    def __call__(self, record: LogRecord) -> None:
        with self._lock:
            if self._fh is None:
                self._fh = open(self.path, "a")
            self._fh.write(json.dumps(record.to_dict(), separators=(",", ":")) + "\n")
            self.records_written += 1

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.flush()
                self._fh.close()
                self._fh = None


# -- worker capture -----------------------------------------------------------


@contextmanager
def capture_logs(
    bus: LogBus | None = None, level: str | None = None
) -> Iterator[list[LogRecord]]:
    """Collect records emitted on ``bus`` during the block.

    The cluster backend wraps each worker task attempt in this; the
    captured records ship home with the task result and are replayed into
    the driver's bus.  ``level`` temporarily widens/narrows the bus gate so
    the driver's requested verbosity applies inside worker processes too.
    """
    bus = bus if bus is not None else LOG_BUS
    captured: list[LogRecord] = []
    sink = captured.append
    previous_level = bus.level
    if level is not None:
        bus.set_level(level)
    bus.add_sink(sink)
    try:
        yield captured
    finally:
        bus.remove_sink(sink)
        if level is not None:
            bus.set_level(previous_level)


__all__ = [
    "LEVELS",
    "LogRecord",
    "LogBus",
    "LOG_BUS",
    "StructuredLogger",
    "get_logger",
    "log_context",
    "current_log_context",
    "JsonlLogSink",
    "capture_logs",
]
