"""Event log: persist job/stage/task metrics as JSON lines.

The analogue of Spark's event log + history server: every completed job's
stage DAG and per-task measurements are written to a ``.jsonl`` file and
reloaded later -- including in a different process -- for offline
inspection (``sparkscore history`` / ``doctor``), trace export, or what-if
replay through :mod:`repro.core.replay`.

Format v8: one JSON object per line, each with an ``event`` kind and
``"version": 8``.  ``job`` lines hold a job's stage/task tree with every
task's metrics and monotonic timestamps; ``heartbeat`` and
``executor_timed_out`` lines are the cluster's liveness telemetry; ``log``
lines are structured log records (:class:`repro.obs.logging.LogRecord`)
with their correlation ids; ``inference`` lines trace the resampling
convergence monitor (one ``batch`` line per folded replicate batch, one
``converged`` line per SNP-set decision).  There is one writer, :class:`EventLogListener`, which
a context attaches to its bus (``Context(event_log_path=)``): each job is
flushed as it ends, so a crashed driver still leaves every completed job
on disk.  There is one reader, :func:`read_channels`: one pass, every
channel, and a located :class:`ValueError` for any line it cannot read,
a line of another format version included.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, fields
from typing import IO

from repro.engine.listener import (
    ExecutorHeartbeat,
    ExecutorTimedOut,
    InferenceBatchCompleted,
    JobEnd,
    Listener,
    SnpSetConverged,
)
from repro.engine.metrics import JobMetrics, StageMetrics, TaskMetrics, TaskRecord
from repro.obs.logging import LogRecord

FORMAT_VERSION = 8

def _job_to_dict(job: JobMetrics) -> dict:
    return {
        "event": "job",
        "version": FORMAT_VERSION,
        "job_id": job.job_id,
        "description": job.description,
        "wall_seconds": job.wall_seconds,
        "submit_time": job.submit_time,
        "num_task_failures": job.num_task_failures,
        "num_stage_resubmissions": job.num_stage_resubmissions,
        "num_executor_failures_observed": job.num_executor_failures_observed,
        "stages": [
            {
                "stage_id": stage.stage_id,
                "name": stage.name,
                "num_tasks": stage.num_tasks,
                "attempt": stage.attempt,
                "parent_stage_ids": list(stage.parent_stage_ids),
                "is_shuffle_map": stage.is_shuffle_map,
                "wall_seconds": stage.wall_seconds,
                "submit_time": stage.submit_time,
                "tasks": [_task_to_dict(rec) for rec in stage.tasks],
            }
            for stage in job.stages
        ],
    }


def _task_to_dict(rec: TaskRecord) -> dict:
    out = {
        "stage_id": rec.stage_id,
        "partition": rec.partition,
        "attempt": rec.attempt,
        "executor_id": rec.executor_id,
        "duration_seconds": rec.duration_seconds,
        "start_time": rec.start_time,
        "succeeded": rec.succeeded,
        "error": rec.error,
        "metrics": asdict(rec.metrics),
    }
    # worker phases are omitted when absent to keep lines compact
    if rec.span_fragments:
        out["span_fragments"] = rec.span_fragments
    return out


_TASK_METRIC_FIELDS = frozenset(f.name for f in fields(TaskMetrics))


def _task_metrics(data: dict) -> TaskMetrics:
    """Task metrics as a v8 line holds them: fields added since the line
    was written take their defaults, keys since retired from
    ``TaskMetrics`` are dropped."""
    return TaskMetrics(**{k: v for k, v in data.items() if k in _TASK_METRIC_FIELDS})


def _job_from_dict(data: dict) -> JobMetrics:
    job = JobMetrics(
        job_id=data["job_id"],
        description=data["description"],
        wall_seconds=data["wall_seconds"],
        submit_time=data["submit_time"],
        num_task_failures=data["num_task_failures"],
        num_stage_resubmissions=data["num_stage_resubmissions"],
        num_executor_failures_observed=data["num_executor_failures_observed"],
    )
    for stage_data in data["stages"]:
        stage = StageMetrics(
            stage_id=stage_data["stage_id"],
            name=stage_data["name"],
            num_tasks=stage_data["num_tasks"],
            attempt=stage_data["attempt"],
            parent_stage_ids=tuple(stage_data["parent_stage_ids"]),
            is_shuffle_map=stage_data["is_shuffle_map"],
            wall_seconds=stage_data["wall_seconds"],
            submit_time=stage_data["submit_time"],
        )
        for rec in stage_data["tasks"]:
            stage.tasks.append(
                TaskRecord(
                    stage_id=rec["stage_id"],
                    partition=rec["partition"],
                    attempt=rec["attempt"],
                    executor_id=rec["executor_id"],
                    duration_seconds=rec["duration_seconds"],
                    start_time=rec["start_time"],
                    metrics=_task_metrics(rec["metrics"]),
                    succeeded=rec["succeeded"],
                    error=rec["error"],
                    span_fragments=list(rec.get("span_fragments") or ()),
                )
            )
        job.stages.append(stage)
    return job


def _identity(data: dict) -> dict:
    return data


#: event kind -> (channel :func:`read_channels` files it under, decoder
#: from the raw line to the record readers get)
_DECODERS = {
    "job": ("job", _job_from_dict),
    "heartbeat": ("telemetry", _identity),
    "executor_timed_out": ("telemetry", _identity),
    "log": ("log", LogRecord.from_dict),
    "inference": ("inference", _identity),
}


def _decode(data) -> tuple[str, object]:
    """``(channel, record)`` of one parsed line; raises on anything that
    is not a v8 event of a known kind with the fields its kind needs."""
    if not isinstance(data, dict):
        raise ValueError(f"not an event object: {type(data).__name__}")
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported event-log version {version!r} "
            f"(this reader reads v{FORMAT_VERSION})"
        )
    kind = data.get("event")
    if not isinstance(kind, str) or kind not in _DECODERS:
        raise ValueError(f"unknown event kind {kind!r}")
    channel, decode = _DECODERS[kind]
    try:
        return channel, decode(data)
    except KeyError as exc:
        raise ValueError(f"{kind} event has no field {exc}") from exc
    except (TypeError, AttributeError, ValueError) as exc:
        raise ValueError(f"{kind} event has a field of the wrong type: {exc}") from exc


def read_channels(path_or_file: str | IO[str]) -> dict[str, list]:
    """Load a v8 event log in one pass.

    Returns ``{channel: [records in file order]}`` with every channel
    present (empty when the log has no such lines):

    - ``"job"`` -- :class:`~repro.engine.metrics.JobMetrics` trees;
    - ``"telemetry"`` -- raw ``heartbeat`` / ``executor_timed_out`` dicts;
    - ``"log"`` -- :class:`~repro.obs.logging.LogRecord` objects;
    - ``"inference"`` -- raw convergence dicts (``kind`` is ``"batch"`` or
      ``"converged"``).

    Crash-safe: a final line that is not valid JSON is the signature of a
    writer killed mid-write, so it produces a :class:`UserWarning` and the
    records loaded so far instead of raising.  Unparseable lines *before*
    the end of the file -- and parseable-but-invalid records anywhere, a
    line of another format version included -- are real corruption and
    raise a :class:`ValueError` that names the line.
    """
    own = isinstance(path_or_file, str)
    fh: IO[str] = open(path_or_file) if own else path_or_file  # type: ignore[assignment]
    try:
        lines = fh.read().splitlines()
    finally:
        if own:
            fh.close()
    out: dict[str, list] = {channel: [] for channel, _ in _DECODERS.values()}
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
    """Bus listener that streams each completed job to a JSONL event log.

    Opens the file lazily on the first job, appends one line per
    :class:`~repro.engine.listener.JobEnd`, flushes after every write, and
    closes on context stop.  Failed jobs are logged too: their partial
    stage records hold every failed attempt -- a raising task, a lost
    executor, a heartbeat timeout -- with its executor and error, which is
    what ``sparkscore doctor`` names a failed run by.

    The telemetry side channel rides in the same file: heartbeat and
    executor-timeout events are appended as their own compact record lines
    (these are not flushed per line -- heartbeats are periodic, and a lost
    tail of liveness records is harmless).

    The structured-log side channel rides there too: the context
    registers :meth:`write_log` as a sink on the process log bus, so every
    emitted :class:`~repro.obs.logging.LogRecord` lands as a ``log`` line
    interleaved with the jobs it describes.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh: IO[str] | None = None
        self.jobs_written = 0
        self.telemetry_written = 0
        self.logs_written = 0
        self.inference_written = 0

    def _file(self) -> IO[str]:
        if self._fh is None:
            self._fh = open(self.path, "a")
        return self._fh

    def on_job_end(self, event: JobEnd) -> None:
        fh = self._file()
        fh.write(json.dumps(_job_to_dict(event.job), separators=(",", ":")) + "\n")
        fh.flush()
        self.jobs_written += 1

    def on_executor_heartbeat(self, event: ExecutorHeartbeat) -> None:
        self._write_telemetry({
            "event": "heartbeat",
            "version": FORMAT_VERSION,
            "time": event.time,
            "executor_id": event.executor_id,
            "inflight": [list(t) for t in event.inflight],
            "records_read": event.records_read,
            "rss_bytes": event.rss_bytes,
            "worker_pid": event.worker_pid,
        })

    def on_executor_timed_out(self, event: ExecutorTimedOut) -> None:
        self._write_telemetry({
            "event": "executor_timed_out",
            "version": FORMAT_VERSION,
            "time": event.time,
            "executor_id": event.executor_id,
            "seconds_since_heartbeat": event.seconds_since_heartbeat,
        })

    def _write_telemetry(self, data: dict) -> None:
        self._file().write(json.dumps(data, separators=(",", ":")) + "\n")
        self.telemetry_written += 1

    def on_inference_batch_completed(self, event: InferenceBatchCompleted) -> None:
        """``inference`` line for one folded replicate batch."""
        self._write_inference({
            "event": "inference",
            "version": FORMAT_VERSION,
            "time": event.time,
            "kind": "batch",
            "method": event.method,
            "batch_width": event.batch_width,
            "replicates_total": event.replicates_total,
            "planned_replicates": event.planned_replicates,
            "sets_total": event.sets_total,
            "sets_converged": event.sets_converged,
            "replicates_saved": event.replicates_saved,
            "min_pvalue": event.min_pvalue,
            "early_stop": event.early_stop,
        })

    def on_snp_set_converged(self, event: SnpSetConverged) -> None:
        """``inference`` line for one SNP-set decision."""
        self._write_inference({
            "event": "inference",
            "version": FORMAT_VERSION,
            "time": event.time,
            "kind": "converged",
            "method": event.method,
            "set_index": event.set_index,
            "set_name": event.set_name,
            "status": event.status,
            "pvalue": event.pvalue,
            "ci_low": event.ci_low,
            "ci_high": event.ci_high,
            "replicates": event.replicates,
            "alpha": event.alpha,
        })

    def _write_inference(self, data: dict) -> None:
        """Flushed: decisions and batch milestones explain the final
        counts, so losing the tail is not acceptable."""
        fh = self._file()
        fh.write(json.dumps(data, separators=(",", ":")) + "\n")
        fh.flush()
        self.inference_written += 1

    def write_log(self, record: LogRecord) -> None:
        """Log-bus sink: append one ``log`` record line (unflushed)."""
        data = {"event": "log", "version": FORMAT_VERSION}
        data.update(record.to_dict())
        self._file().write(json.dumps(data, separators=(",", ":")) + "\n")
        self.logs_written += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
