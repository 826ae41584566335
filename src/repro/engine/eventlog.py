"""Event log: persist job/stage/task metrics as JSON lines.

The analogue of Spark's event log + history server: every completed job's
stage DAG and per-task measurements can be written to a ``.jsonl`` file
and reloaded later -- including in a different process -- for offline
inspection (``sparkscore history``), trace export, or what-if replay
through :mod:`repro.core.replay`.

Format: one JSON object per line, ``{"event": "job", ...}``, versioned so
future fields can be added compatibly.  Version history:

- **v1** -- original format: job/stage/task tree with metrics.
- **v2** -- adds monotonic timestamps (job/stage ``submit_time``, task
  ``start_time``) and the ``size_estimation_seconds`` task metric, feeding
  critical-path analysis and Chrome trace export.  v1 logs still load:
  the new fields default to zero.
- **v3** -- executor telemetry plane.  Task records carry the resource
  telemetry metrics (GC pause, peak RSS, deserialize/serialize split),
  sampled-profiler hotspot rows, and worker span fragments; the log also
  interleaves ``heartbeat`` and ``executor_timed_out`` record lines.
  Loading is zero-default in both directions: v1/v2 logs load with the new
  fields defaulted, and v3 telemetry lines are skipped by job readers.
- **v4** -- structured logging.  The log may interleave ``log`` record
  lines (one :class:`repro.obs.logging.LogRecord` each, with correlation
  ids), recoverable as the ``log`` channel of :func:`read_channels`.  Job readers skip them; v3
  and earlier fixtures still load unchanged.  Readers also became
  crash-safe: a truncated *final* line (the writer was killed mid-write)
  produces a warning and a partial result instead of raising.
- **v5** -- continuous monitoring, since removed.  v5 logs may carry
  ``series`` lines (metrics-sampler ticks) and ``alert`` lines
  (alert-engine transitions); readers skip both, and a v5 log loads to
  the same job trees as before.  No writer emits either any more.
- **v6** -- fleet observability, since removed.  v6 logs may carry one
  ``fleet`` line per cluster-backed Context (a snapshot of the fleet's
  own counters and series, written at ``stop()``); readers skip it, and a
  v6 log loads to the same job trees as before.  No writer emits it any
  more: the fleet lives and dies with its driver, and the job lines and
  side channels below state what it did.
- **v7** -- adaptive query execution, since removed.  v7 logs carry
  ``adaptive`` lines (planner decisions) and an optional task
  ``speculative`` flag; readers skip both, and a v7 log loads to the same
  job trees as before.  No writer emits either any more.
- **v8** -- inference observability.  An ``inference`` side channel
  records the convergence of resampling p-values: one ``batch`` line per
  replicate batch folded into the convergence monitor (running replicate
  totals, sets converged, smallest p-value estimate) and one flushed
  ``converged`` line per SNP-set whose confidence interval became
  decisive (status, p-value, CI bounds at decision time).  Recoverable
  as the ``inference`` channel so ``sparkscore history``/``doctor`` can
  audit early-stop decisions and recommend replicate budgets offline.
  v7 and earlier logs load unchanged.

Since the listener-bus refactor the log is written *incrementally*: the
context attaches an :class:`EventLogListener` to its bus and each job is
flushed as it ends, so a crashed driver still leaves every completed job
on disk.  The module-level :func:`write_event_log` / :func:`read_channels`
functions remain for bulk/offline use: one reader, one pass, every side
channel.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, fields
from typing import IO, Iterable

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
SUPPORTED_VERSIONS = (1, 2, 3, 4, 5, 6, 7, 8)

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
    # telemetry payloads are omitted when absent to keep lines compact
    if rec.profile is not None:
        out["profile"] = rec.profile
    if rec.span_fragments:
        out["span_fragments"] = rec.span_fragments
    return out


_TASK_METRIC_FIELDS = frozenset(f.name for f in fields(TaskMetrics))


def _task_metrics(data: dict) -> TaskMetrics:
    """Task metrics from any log version: fields added later take their
    defaults, keys since retired from ``TaskMetrics`` are dropped."""
    return TaskMetrics(**{k: v for k, v in data.items() if k in _TASK_METRIC_FIELDS})


def _job_from_dict(data: dict) -> JobMetrics:
    if data.get("event") != "job":
        raise ValueError(f"not a job event: {data.get('event')!r}")
    version = data.get("version")
    if version not in SUPPORTED_VERSIONS:
        raise ValueError(f"unsupported event-log version {version!r}")
    job = JobMetrics(
        job_id=data["job_id"],
        description=data["description"],
        wall_seconds=data["wall_seconds"],
        submit_time=data.get("submit_time", 0.0),
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
            submit_time=stage_data.get("submit_time", 0.0),
        )
        for rec in stage_data["tasks"]:
            stage.tasks.append(
                TaskRecord(
                    stage_id=rec["stage_id"],
                    partition=rec["partition"],
                    attempt=rec["attempt"],
                    executor_id=rec["executor_id"],
                    duration_seconds=rec["duration_seconds"],
                    start_time=rec.get("start_time", 0.0),
                    metrics=_task_metrics(rec["metrics"]),
                    succeeded=rec["succeeded"],
                    error=rec["error"],
                    profile=rec.get("profile"),
                    span_fragments=list(rec.get("span_fragments") or ()),
                )
            )
        job.stages.append(stage)
    return job


def write_event_log(jobs: Iterable[JobMetrics], path_or_file: str | IO[str]) -> int:
    """Append one JSON line per job; returns the number written."""
    own = isinstance(path_or_file, str)
    fh: IO[str] = open(path_or_file, "a") if own else path_or_file  # type: ignore[assignment]
    count = 0
    try:
        for job in jobs:
            fh.write(json.dumps(_job_to_dict(job), separators=(",", ":")) + "\n")
            count += 1
    finally:
        if own:
            fh.close()
    return count


def _identity(data: dict) -> dict:
    return data


#: event kind -> (channel :func:`read_channels` files it under, format
#: version that introduced it, decoder from the raw line to the record
#: readers get).  A listed kind in a log older than its version predates
#: the side channel, so there it is corruption and fails like any other
#: non-job line.
_SIDE_CHANNELS = {
    "heartbeat": ("telemetry", 3, _identity),
    "executor_timed_out": ("telemetry", 3, _identity),
    "log": ("log", 4, LogRecord.from_dict),
    "inference": ("inference", 8, _identity),
}


#: side-channel kinds no writer emits any more -> the format version that
#: introduced them: v5's metrics-sampler ``series`` ticks and alert-engine
#: ``alert`` transitions, v6's fleet snapshots, v7's planner ``adaptive``
#: decisions.  Readers skip them; in a log older than that version they are
#: corruption, as above.
_RETIRED = {"series": 5, "alert": 5, "fleet": 6, "adaptive": 7}


def read_channels(path_or_file: str | IO[str]) -> dict[str, list]:
    """Load an event log (any supported version) in one pass.

    Returns ``{channel: [records in file order]}`` with every channel
    present (empty when the log has no such lines):

    - ``"job"`` -- :class:`~repro.engine.metrics.JobMetrics` trees;
    - ``"telemetry"`` -- raw v3 ``heartbeat`` / ``executor_timed_out`` dicts;
    - ``"log"`` -- v4 :class:`~repro.obs.logging.LogRecord` objects;
    - ``"inference"`` -- raw v8 convergence dicts (``kind`` is ``"batch"``
      or ``"converged"``).

    Crash-safe: a final line that is not valid JSON is the signature of a
    writer killed mid-write, so it produces a :class:`UserWarning` and the
    records loaded so far instead of raising.  Unparseable lines *before*
    the end of the file -- and parseable-but-invalid records anywhere --
    are real corruption and raise :class:`ValueError`.
    """
    own = isinstance(path_or_file, str)
    fh: IO[str] = open(path_or_file) if own else path_or_file  # type: ignore[assignment]
    try:
        lines = fh.read().splitlines()
    finally:
        if own:
            fh.close()
    out: dict[str, list] = {"job": []}
    for channel, _, _ in _SIDE_CHANNELS.values():
        out.setdefault(channel, [])
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            if lineno == len(lines):
                warnings.warn(
                    f"event log ends with a truncated line {lineno} "
                    f"(writer killed mid-write?); loaded {len(out['job'])} "
                    f"complete job(s)",
                    stacklevel=2,
                )
                break
            raise ValueError(f"event log line {lineno} is corrupt: {exc}") from exc
        kind = data.get("event")
        if kind in _RETIRED and data.get("version", 0) >= _RETIRED[kind]:
            continue  # a side channel whose writer is gone
        side = _SIDE_CHANNELS.get(kind)
        if side is not None and data.get("version", 0) >= side[1]:
            channel, _, decode = side
        else:  # a job line, or a non-job line _job_from_dict rejects
            channel, decode = "job", _job_from_dict
        try:
            out[channel].append(decode(data))
        except KeyError as exc:
            raise ValueError(f"event log line {lineno} is corrupt: {exc}") from exc
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

    The v3 telemetry side channel rides in the same file: heartbeat and
    executor-timeout events are appended as their own compact record lines
    (these are not flushed per line -- heartbeats are periodic, and a lost
    tail of liveness records is harmless).

    The v4 structured-log side channel rides there too: the context
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
        """v8 ``inference`` line for one folded replicate batch."""
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
        """v8 ``inference`` line for one SNP-set decision."""
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
        """Log-bus sink: append one v4 ``log`` record line (unflushed)."""
        data = {"event": "log", "version": FORMAT_VERSION}
        data.update(record.to_dict())
        self._file().write(json.dumps(data, separators=(",", ":")) + "\n")
        self.logs_written += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
