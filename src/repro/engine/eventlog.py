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
- **v5** -- continuous monitoring.  Two new side-channel kinds:
  ``series`` lines carry one metrics-sampler tick each (only the samples
  whose value changed, as ``[name, {labels}, value]`` triples against a
  shared monotonic timestamp), recoverable as the ``series`` channel so
  ``sparkscore history`` can replay metric evolution offline; ``alert``
  lines record alert-engine transitions (firing/resolved), recoverable
  as the ``alert`` channel.  v4 and earlier logs still load unchanged.
- **v6** -- fleet observability.  ``fleet`` lines carry one
  cluster-resident fleet snapshot each (uptime, jobs served, per-driver
  throughput, warm-cache economics, trailing per-executor series from
  the fleet's own TSDB), written by the context at ``stop()`` when the
  backend exposes one.  Recoverable as the ``fleet`` channel, so
  ``sparkscore history`` and ``doctor`` can see cross-job fleet state
  long after the cluster is gone.  v5 and earlier logs load unchanged.
- **v7** -- adaptive query execution.  Task records gain an optional
  ``speculative`` flag (present only when a winning attempt was a
  speculative twin), and a new ``adaptive`` side channel records every
  planner decision: skew splits/coalesces and speculative launches
  (older logs may also carry ``"serializer"`` decisions and a retired
  task-metric key; both load, and decisions render as recorded).
  Recoverable as the ``adaptive`` channel so ``sparkscore history`` and
  post-mortem bundles can show *why* a job's physical plan diverged from
  its static one.  v6 and earlier logs load unchanged.
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
    AdaptivePlanApplied,
    ExecutorHeartbeat,
    ExecutorTimedOut,
    InferenceBatchCompleted,
    JobEnd,
    Listener,
    SnpSetConverged,
    SpeculativeTaskLaunched,
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
    if rec.speculative:
        out["speculative"] = True
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
                    speculative=bool(rec.get("speculative", False)),
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
    "series": ("series", 5, lambda data: {
        "time": data.get("time", 0.0), "samples": data.get("samples", []),
    }),
    "alert": ("alert", 5, _identity),
    "fleet": ("fleet", 6, lambda data: data.get("snapshot", {})),
    "adaptive": ("adaptive", 7, _identity),
    "inference": ("inference", 8, _identity),
}


def read_channels(path_or_file: str | IO[str]) -> dict[str, list]:
    """Load an event log (any supported version) in one pass.

    Returns ``{channel: [records in file order]}`` with every channel
    present (empty when the log has no such lines):

    - ``"job"`` -- :class:`~repro.engine.metrics.JobMetrics` trees;
    - ``"telemetry"`` -- raw v3 ``heartbeat`` / ``executor_timed_out`` dicts;
    - ``"log"`` -- v4 :class:`~repro.obs.logging.LogRecord` objects;
    - ``"series"`` -- one v5 ``{"time": t, "samples": [[name, {labels},
      value], ...]}`` dict per sampler tick (see :func:`series_to_points`);
    - ``"alert"`` -- raw v5 alert-transition dicts;
    - ``"fleet"`` -- v6 fleet snapshot dicts;
    - ``"adaptive"`` -- raw v7 planner-decision dicts (``kind`` is
      ``"split"``, ``"coalesce"``, ``"rebalance"`` or ``"speculation"``);
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
        side = _SIDE_CHANNELS.get(data.get("event"))
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


def series_to_points(records: list[dict]) -> dict[tuple, list[tuple[float, float]]]:
    """Pivot the ``series`` channel of :func:`read_channels` into per-series point lists.

    Returns ``{(name, ((label, value), ...)): [(time, value), ...]}`` --
    the shape ``sparkscore history --series`` plots from.  Because the
    writer only records *changed* samples, consecutive points already
    differ in value.
    """
    out: dict[tuple, list[tuple[float, float]]] = {}
    for rec in records:
        t = rec.get("time", 0.0)
        for sample in rec.get("samples", []):
            name, labels, value = sample
            key = (name, tuple(sorted((str(k), str(v)) for k, v in labels.items())))
            out.setdefault(key, []).append((t, float(value)))
    return out


class EventLogListener(Listener):
    """Bus listener that streams each completed job to a JSONL event log.

    Opens the file lazily on the first job, appends one line per
    :class:`~repro.engine.listener.JobEnd`, flushes after every write, and
    closes on context stop.  Failed jobs are logged too (their partial
    stage records are often the most interesting ones).

    The v3 telemetry side channel rides in the same file: heartbeat and
    executor-timeout events are appended as their own compact record lines
    (these are not flushed per line -- heartbeats are periodic, and a lost
    tail of liveness records is harmless).

    The v4 structured-log side channel rides there too: the context
    registers :meth:`write_log` as a sink on the process log bus, so every
    emitted :class:`~repro.obs.logging.LogRecord` lands as a ``log`` line
    interleaved with the jobs it describes.

    The v5 monitoring side channel completes the picture: the context
    registers :meth:`write_series` as a tick sink on the metrics sampler
    (one ``series`` line per tick with a change) and :meth:`write_alert`
    as an alert-manager sink (one flushed ``alert`` line per transition --
    alerts are rare and forensic, so losing the tail is not acceptable).

    The v6 fleet side channel is stop-time: on a persistent-cluster
    backend the context calls :meth:`write_fleet` once as it stops,
    freezing the cluster-resident snapshot into the log this driver
    leaves behind.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh: IO[str] | None = None
        self.jobs_written = 0
        self.telemetry_written = 0
        self.logs_written = 0
        self.series_written = 0
        self.alerts_written = 0
        self.fleet_written = 0
        self.adaptive_written = 0
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

    def on_adaptive_plan_applied(self, event: AdaptivePlanApplied) -> None:
        """v7 ``adaptive`` line: one planner plan-rewrite decision (flushed
        -- decisions are rare and explain result layouts, so losing the
        tail is not acceptable)."""
        self._write_adaptive({
            "event": "adaptive",
            "version": FORMAT_VERSION,
            "time": event.time,
            "kind": event.kind,
            "shuffle_id": event.shuffle_id,
            "stage_id": event.stage_id,
            "job_id": event.job_id,
            "old_partitions": event.old_partitions,
            "new_partitions": event.new_partitions,
            "detail": event.detail,
        })

    def on_speculative_task_launched(self, event: SpeculativeTaskLaunched) -> None:
        """v7 ``adaptive`` line for a speculative twin launch."""
        self._write_adaptive({
            "event": "adaptive",
            "version": FORMAT_VERSION,
            "time": event.time,
            "kind": "speculation",
            "stage_id": event.stage_id,
            "job_id": event.job_id,
            "partition": event.partition,
            "original_executor": event.original_executor,
            "speculative_executor": event.speculative_executor,
            "elapsed_seconds": event.elapsed_seconds,
            "median_seconds": event.median_seconds,
        })

    def _write_adaptive(self, data: dict) -> None:
        fh = self._file()
        fh.write(json.dumps(data, separators=(",", ":")) + "\n")
        fh.flush()
        self.adaptive_written += 1

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

    def write_series(self, now: float, samples: list[tuple]) -> None:
        """Sampler tick sink: append one v5 ``series`` line (unflushed --
        same lost-tail tolerance as heartbeats)."""
        data = {
            "event": "series",
            "version": FORMAT_VERSION,
            "time": now,
            "samples": [[name, labels, value] for name, labels, value in samples],
        }
        self._file().write(json.dumps(data, separators=(",", ":")) + "\n")
        self.series_written += 1

    def write_alert(self, transition: dict) -> None:
        """Alert-manager sink: append one flushed v5 ``alert`` line."""
        data = {"event": "alert", "version": FORMAT_VERSION}
        data.update(transition)
        fh = self._file()
        fh.write(json.dumps(data, separators=(",", ":")) + "\n")
        fh.flush()
        self.alerts_written += 1

    def write_fleet(self, snapshot: dict) -> None:
        """Context-stop sink: append one flushed v6 ``fleet`` line (rare
        and forensic -- cross-job state the next driver cannot rebuild)."""
        data = {
            "event": "fleet",
            "version": FORMAT_VERSION,
            "snapshot": snapshot,
        }
        fh = self._file()
        fh.write(json.dumps(data, separators=(",", ":")) + "\n")
        fh.flush()
        self.fleet_written += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
