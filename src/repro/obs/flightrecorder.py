"""Failure flight recorder: the engine's black box.

A :class:`FlightRecorder` rides the listener bus keeping a bounded,
time-windowed ring of recent events.  The moment a job fails (a
:class:`~repro.engine.listener.JobEnd` with ``succeeded=False``) it dumps
everything an operator needs to reconstruct the crash -- without grepping
four different logs -- into one JSON **post-mortem bundle**:

- the last N seconds of bus events (task starts/ends, stage transitions,
  heartbeats, skew and straggler findings) as compact dicts;
- the process log-bus ring (correlation ids intact, so records join back
  to the failing task);
- spans still open at failure time (the work that never finished);
- executor states (alive, suspended, task counts) and the effective
  engine config;
- on persistent fleets, the cluster-resident fleet snapshot (executor
  lifecycle history, warm-cache stats, queue depths) under ``fleet``;
- the failed job's full stage/task tree, in event-log v5 ``job`` shape so
  offline tooling (advisor, span reconstruction) reuses the same readers.

``sparkscore postmortem <bundle>`` renders the forensic timeline: the
failing task, its correlated log lines, the events around the crash, and
the advisor's recommendations recomputed from the bundle.

One bundle per failed job (monotonic sequence in the filename), written
synchronously from the bus thread -- by the time the driver's exception
propagates, the bundle is on disk.  A recorder failure never fails the
job: the bus isolates listener errors, and :meth:`dump` additionally
catches its own I/O problems.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import TYPE_CHECKING, Any

from repro.engine.listener import (
    EngineEvent,
    JobEnd,
    Listener,
    StageCompleted,
    TaskEnd,
)
from repro.obs.logging import LOG_BUS, get_logger

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.context import Context

log = get_logger("repro.obs.flightrecorder")

BUNDLE_KIND = "sparkscore-postmortem"
BUNDLE_VERSION = 1


def _event_to_dict(event: EngineEvent) -> dict:
    """Compact, JSON-safe rendering of any bus event for the ring.

    TaskEnd/StageCompleted/JobEnd carry heavyweight metrics objects; they
    are summarized rather than serialized in full (the failed job's
    complete tree rides separately in the bundle's ``job`` section).
    """
    out: dict[str, Any] = {"event": type(event).__name__, "time": event.time}
    if isinstance(event, TaskEnd):
        rec = event.record
        out.update(
            stage_id=rec.stage_id,
            partition=rec.partition,
            attempt=rec.attempt,
            executor_id=rec.executor_id,
            duration_seconds=rec.duration_seconds,
            succeeded=rec.succeeded,
            error=rec.error,
        )
        return out
    if isinstance(event, StageCompleted):
        out.update(
            stage_id=event.stage.stage_id,
            attempt=event.stage.attempt,
            name=event.stage.name,
            job_id=event.job_id,
            failed=event.failed,
            wall_seconds=event.stage.wall_seconds,
        )
        return out
    if isinstance(event, JobEnd):
        out.update(
            job_id=event.job_id,
            succeeded=event.succeeded,
            wall_seconds=event.job.wall_seconds,
            num_task_failures=event.job.num_task_failures,
        )
        return out
    for f in dataclasses.fields(event):
        if f.name == "time":
            continue
        value = getattr(event, f.name)
        if isinstance(value, (str, int, float, bool, type(None))):
            out[f.name] = value
        elif isinstance(value, dict):
            out[f.name] = {str(k): v for k, v in value.items()}
        elif isinstance(value, (list, tuple)):
            out[f.name] = [list(v) if isinstance(v, (list, tuple)) else v for v in value]
        else:
            out[f.name] = repr(value)
    return out


def _failing_task(job_dict: dict) -> dict | None:
    """The last failed task attempt in a bundle's job tree, if any."""
    failing = None
    for stage in job_dict.get("stages", []):
        for task in stage.get("tasks", []):
            if not task.get("succeeded", True):
                failing = task
    return failing


class FlightRecorder(Listener):
    """Bus listener that writes post-mortem bundles on job failure."""

    def __init__(
        self,
        out_dir: str,
        context: "Context | None" = None,
        window: float = 30.0,
        max_events: int = 4096,
        max_logs: int = 512,
    ) -> None:
        self.out_dir = out_dir
        self.context = context
        self.window = window
        self.max_events = max_events
        self.max_logs = max_logs
        self._events: list[dict] = []
        self._seq = 0
        #: paths of bundles written so far
        self.bundles: list[str] = []
        #: JobEnd failures observed (drives the stop()-time safety dump)
        self.failures_seen = 0

    # -- event ring -------------------------------------------------------

    def on_event(self, event: EngineEvent) -> None:
        self._events.append(_event_to_dict(event))
        if len(self._events) > self.max_events:
            del self._events[: len(self._events) - self.max_events]

    def events_tail(self, now: float) -> list[dict]:
        start = now - self.window
        return [e for e in self._events if e.get("time", 0.0) >= start]

    # -- trigger ----------------------------------------------------------

    def on_job_end(self, event: JobEnd) -> None:
        if event.succeeded:
            return
        self.failures_seen += 1
        self.dump(reason="job_failure", job=event.job, now=event.time)

    def dump_on_stop(self) -> str | None:
        """Safety net for ``Context.stop()`` after an error: if a failure
        was observed but no bundle landed (an earlier dump raised), write
        one now from whatever state remains."""
        if self.failures_seen and not self.bundles:
            return self.dump(reason="stop_after_error")
        return None

    def dump(self, reason: str, job=None, now: float | None = None) -> str | None:
        """Write one bundle; returns its path (None when writing failed)."""
        try:
            return self._dump(reason, job, now)
        except Exception as exc:  # never let forensics fail the engine
            log.error(
                "flight recorder failed to write bundle",
                reason=reason,
                error=f"{type(exc).__name__}: {exc}",
            )
            return None

    def _dump(self, reason: str, job, now: float | None) -> str:
        from repro.engine.eventlog import FORMAT_VERSION, _job_to_dict

        if now is None:
            now = self._events[-1]["time"] if self._events else 0.0
        ctx = self.context
        bundle: dict[str, Any] = {
            "kind": BUNDLE_KIND,
            "bundle_version": BUNDLE_VERSION,
            "eventlog_version": FORMAT_VERSION,
            "time": now,
            "window": self.window,
            "reason": reason,
        }
        if job is not None:
            job_dict = _job_to_dict(job)
            bundle["job"] = job_dict
            failing = _failing_task(job_dict)
            if failing is not None:
                bundle["failing_task"] = {
                    "stage_id": failing["stage_id"],
                    "partition": failing["partition"],
                    "attempt": failing["attempt"],
                    "executor_id": failing["executor_id"],
                    "error": failing["error"],
                }
                bundle["error"] = failing["error"]
        bundle["events"] = self.events_tail(now)
        bundle["logs"] = [
            rec.to_dict() for rec in LOG_BUS.records(limit=self.max_logs)
        ]
        if ctx is not None:
            bundle["config"] = dataclasses.asdict(ctx.config)
            bundle["executors"] = [
                {
                    "executor_id": ex.executor_id,
                    "host": ex.host,
                    "alive": ex.alive,
                    "heartbeats_suspended": ex.heartbeats_suspended,
                    "tasks_run": ex.tasks_run,
                    "tasks_failed": ex.tasks_failed,
                }
                for ex in ctx.executors
            ]
            if ctx._tracer is not None:
                bundle["open_spans"] = [
                    s.to_dict() for s in ctx._tracer.open_spans()
                ]
            inference = getattr(ctx, "inference", None)
            if inference is not None:
                bundle["inference"] = inference.snapshot()
            # persistent fleets contribute the cluster-resident snapshot
            # (executor lifecycle history, warm-cache economics, queue
            # depths) -- the part of the story that predates this driver
            fleet_fn = getattr(ctx.backend, "fleet_snapshot", None)
            if fleet_fn is not None:
                try:
                    bundle["fleet"] = fleet_fn(self.window)
                except OSError as exc:  # a dead head must not sink the post-mortem
                    log.warning(
                        "fleet snapshot unavailable; bundle written without it",
                        error=f"{type(exc).__name__}: {exc}",
                    )
        os.makedirs(self.out_dir, exist_ok=True)
        self._seq += 1
        job_id = job.job_id if job is not None else "ctx"
        path = os.path.join(
            self.out_dir, f"postmortem-job{job_id}-{self._seq:03d}.json"
        )
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(bundle, fh, separators=(",", ":"))
            fh.write("\n")
        self.bundles.append(path)
        log.warning(
            "flight recorder wrote post-mortem bundle",
            path=path,
            reason=reason,
            events=len(bundle["events"]),
        )
        return path


def load_bundle(path: str) -> dict:
    """Load and validate one post-mortem bundle."""
    with open(path, encoding="utf-8") as fh:
        bundle = json.load(fh)
    if bundle.get("kind") != BUNDLE_KIND:
        raise ValueError(f"{path} is not a {BUNDLE_KIND} bundle")
    return bundle


__all__ = [
    "FlightRecorder",
    "load_bundle",
    "BUNDLE_KIND",
    "BUNDLE_VERSION",
]
