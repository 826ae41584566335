"""Event log: persist job/stage/task metrics as JSON lines.

The analogue of Spark's event log + history server: every completed job's
stage DAG and per-task measurements are written to a ``.jsonl`` file and
reloaded later -- including in a different process -- for offline
inspection (``sparkscore history`` / ``doctor``) and trace export.

Format v8: one JSON object per line, each with an ``event`` kind,
``"version": 8`` and the fields of the dataclass :data:`RECORDS` declares
for that kind.  ``job`` lines hold a job's stage/task tree with every
task's metrics and monotonic timestamps
(:class:`~repro.engine.metrics.JobMetrics`); ``heartbeat`` and
``executor_timed_out`` lines are the cluster's liveness telemetry; ``log``
lines are structured log records (:class:`repro.obs.logging.LogRecord`)
with their correlation ids; ``inference`` lines trace the resampling
convergence monitor (one ``batch`` line per folded replicate batch, one
``converged`` line per SNP-set decision).  There is one writer,
:class:`EventLogListener`, which a context attaches to its bus
(``Context(event_log_path=)``): each job is flushed as it ends, so a
crashed driver still leaves every completed job on disk.  There is one
reader, :func:`read_channels`: one pass, every channel, each record
type-checked against its dataclass, and a located :class:`ValueError` for
any line it cannot read, a line of another format version included.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, fields, is_dataclass
from functools import cache
from types import UnionType
from typing import IO, get_args, get_origin, get_type_hints

from repro.engine.listener import (
    ExecutorHeartbeat,
    ExecutorTimedOut,
    InferenceBatchCompleted,
    JobEnd,
    Listener,
    SnpSetConverged,
)
from repro.engine.metrics import JobMetrics, TaskMetrics, TaskRecord
from repro.obs.logging import CORRELATION_FIELDS, LogRecord

FORMAT_VERSION = 8

#: every record a line can hold: ``(event, kind)`` on disk -> (channel
#: :func:`read_channels` files it under, the dataclass it is).  ``kind``
#: tells the two ``inference`` records apart and is absent elsewhere.
#: The dataclass is the schema: :class:`EventLogListener` writes its
#: fields, :func:`read_channels` reads and type-checks them back.
RECORDS = {
    ("job", None): ("job", JobMetrics),
    ("heartbeat", None): ("telemetry", ExecutorHeartbeat),
    ("executor_timed_out", None): ("telemetry", ExecutorTimedOut),
    ("inference", "batch"): ("inference", InferenceBatchCompleted),
    ("inference", "converged"): ("inference", SnpSetConverged),
    ("log", None): ("log", LogRecord),
}
_KEY_OF = {cls: key for key, (_, cls) in RECORDS.items()}
_EVENTS = frozenset(event for event, _ in RECORDS)

#: keys a line may omit, the field then taking its default: task counters
#: added since the line was written, the worker phases older writers left
#: out when empty, a log record's unset correlation ids and payload.  Every
#: other key is required.
_MAY_OMIT = {
    TaskMetrics: frozenset(f.name for f in fields(TaskMetrics)),
    TaskRecord: frozenset({"span_fragments"}),
    LogRecord: frozenset(CORRELATION_FIELDS + ("fields",)),
}

#: JSON's name for each Python type a decoded value can have
_JSON_NAMES = {dict: "object", list: "list", tuple: "list", type(None): "null"}


def _encode(record) -> str:
    """One event-log line: the record's fields under its ``event`` kind."""
    event, kind = _KEY_OF[type(record)]
    head = {"event": event, "version": FORMAT_VERSION}
    if kind is not None:
        head["kind"] = kind
    return json.dumps({**head, **asdict(record)}, separators=(",", ":"))


@cache
def _schema(cls) -> tuple:
    """``(name, type, passed to __init__, may be omitted)`` per field."""
    hints = get_type_hints(cls)
    omit = _MAY_OMIT.get(cls, frozenset())
    return tuple((f.name, hints[f.name], f.init, f.name in omit) for f in fields(cls))


def _type_name(tp) -> str:
    if is_dataclass(tp):
        return "object"
    if get_origin(tp) is UnionType:
        return " or ".join(_type_name(arg) for arg in get_args(tp))
    tp = get_origin(tp) or tp
    return _JSON_NAMES.get(tp, tp.__name__)


def _wrong(path: str, value, tp) -> ValueError:
    return ValueError(
        f"{path} is {_JSON_NAMES.get(type(value), type(value).__name__)}, "
        f"not {_type_name(tp)}"
    )


def _build(cls, data, path: str):
    """An instance of dataclass ``cls`` from its decoded JSON object."""
    if not isinstance(data, dict):
        raise _wrong(path, data, cls)
    kwargs, later = {}, {}
    for name, tp, init, may_omit in _schema(cls):
        where = f"{path}.{name}" if path else name
        if name not in data:
            if may_omit:
                continue
            raise ValueError(f"{where} is missing")
        (kwargs if init else later)[name] = _value(tp, data[name], where)
    record = cls(**kwargs)
    for name, value in later.items():  # the bus stamps ``time`` after init
        setattr(record, name, value)
    return record


def _value(tp, value, path: str):
    """``value`` checked against the field type ``tp`` (a scalar, ``X |
    None``, ``list[X]``, ``tuple[X, ...]`` or a dataclass); a JSON list
    becomes the declared tuple, an object the declared dataclass."""
    if is_dataclass(tp):
        return _build(tp, value, path)
    origin, args = get_origin(tp), get_args(tp)
    if origin is UnionType:  # ``X | None``
        if value is None and type(None) in args:
            return None
        (inner,) = [arg for arg in args if arg is not type(None)]
        try:
            return _value(inner, value, path)
        except ValueError:
            raise _wrong(path, value, tp) from None
    if origin in (list, tuple):
        if not isinstance(value, list):
            raise _wrong(path, value, tp)
        items = [_value(args[0], v, f"{path}[{i}]") for i, v in enumerate(value)]
        return items if origin is list else tuple(items)
    accepted = (int, float) if tp is float else tp
    if not isinstance(value, accepted) or (isinstance(value, bool) and tp is not bool):
        raise _wrong(path, value, tp)
    return value


def _decode(data) -> tuple[str, object]:
    """``(channel, record)`` of one parsed line; raises on anything that
    is not a v8 record of a known kind whose fields have their types."""
    if not isinstance(data, dict):
        raise ValueError(f"not an event object: {type(data).__name__}")
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported event-log version {version!r} "
            f"(this reader reads v{FORMAT_VERSION})"
        )
    event = data.get("event")
    if not isinstance(event, str) or event not in _EVENTS:
        raise ValueError(f"unknown event kind {event!r}")
    kind = data.get("kind") if event == "inference" else None
    if not isinstance(kind, (str, type(None))) or (event, kind) not in RECORDS:
        raise ValueError(f"unknown {event} kind {kind!r}")
    channel, cls = RECORDS[event, kind]
    try:
        return channel, _build(cls, data, "")
    except ValueError as exc:
        raise ValueError(f"{event} field {exc}") from None


def read_channels(path_or_file: str | IO[str]) -> dict[str, list]:
    """Load a v8 event log in one pass.

    Returns ``{channel: [records in file order]}`` with every channel
    present (empty when the log has no such lines):

    - ``"job"`` -- :class:`~repro.engine.metrics.JobMetrics` trees;
    - ``"telemetry"`` -- :class:`~repro.engine.listener.ExecutorHeartbeat`
      and :class:`~repro.engine.listener.ExecutorTimedOut` events;
    - ``"log"`` -- :class:`~repro.obs.logging.LogRecord` objects;
    - ``"inference"`` -- :class:`~repro.engine.listener.InferenceBatchCompleted`
      and :class:`~repro.engine.listener.SnpSetConverged` events.

    Crash-safe: a final line that is not valid JSON is the signature of a
    writer killed mid-write, so it produces a :class:`UserWarning` and the
    records loaded so far instead of raising.  Unparseable lines *before*
    the end of the file -- and parseable-but-invalid records anywhere, a
    line of another format version included -- are real corruption and
    raise a :class:`ValueError` that names the line -- and, for a missing
    or wrong-typed field, the field's path in the record.
    """
    own = isinstance(path_or_file, str)
    fh: IO[str] = open(path_or_file) if own else path_or_file  # type: ignore[assignment]
    try:
        lines = fh.read().splitlines()
    finally:
        if own:
            fh.close()
    out: dict[str, list] = {channel: [] for channel, _ in RECORDS.values()}
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except ValueError as exc:
            if lineno == len(lines) and isinstance(exc, json.JSONDecodeError):
                warnings.warn(
                    f"event log ends with a truncated line {lineno} "
                    f"(writer killed mid-write?); loaded {len(out['job'])} "
                    f"complete job(s)",
                    stacklevel=2,
                )
                break
            raise ValueError(f"event log line {lineno} is corrupt: {exc}") from exc
        try:
            channel, record = _decode(data)
        except ValueError as exc:
            raise ValueError(f"event log line {lineno}: {exc}") from exc
        out[channel].append(record)
    return out


def read_event_log(path_or_file: str | IO[str]) -> list[JobMetrics]:
    """The job records of an event log: ``read_channels(...)["job"]``."""
    return read_channels(path_or_file)["job"]


class EventLogListener(Listener):
    """Bus listener that streams every record :data:`RECORDS` declares to a
    JSONL event log.

    Opens the file lazily on the first record and closes on context stop.
    Each :class:`~repro.engine.listener.JobEnd` appends its job line, failed
    jobs included: their partial stage records hold every failed attempt --
    a raising task, a lost executor, a heartbeat timeout -- with its
    executor and error, which is what ``sparkscore doctor`` names a failed
    run by.  Heartbeat and executor-timeout events, the resampling
    monitor's events, and -- through :meth:`write_log`, which the context
    registers as a sink on the process log bus -- every emitted
    :class:`~repro.obs.logging.LogRecord` land as their own lines,
    interleaved with the jobs they describe.

    Job and inference lines are flushed as written, so a crashed driver
    leaves every completed job and the decisions that explain its counts on
    disk; heartbeats and log lines are not (they are periodic or chatty,
    and a lost tail of them is harmless).
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh: IO[str] | None = None
        #: lines written per channel
        self.written = dict.fromkeys((channel for channel, _ in RECORDS.values()), 0)

    def _write(self, record) -> None:
        if self._fh is None:
            self._fh = open(self.path, "a")
        self._fh.write(_encode(record) + "\n")
        channel = RECORDS[_KEY_OF[type(record)]][0]
        if channel in ("job", "inference"):
            self._fh.flush()
        self.written[channel] += 1

    def on_event(self, event) -> None:
        if type(event) in _KEY_OF:  # the executor and inference events
            self._write(event)

    def on_job_end(self, event: JobEnd) -> None:
        self._write(event.job)

    def write_log(self, record: LogRecord) -> None:
        """Log-bus sink: append one ``log`` line."""
        self._write(record)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
