"""Structured tracing: hierarchical spans and Chrome ``trace_event`` export.

A :class:`Span` is one timed region -- a job, a stage execution, or a task
attempt -- with a parent pointer forming the hierarchy
``job -> stage -> task``.  Spans carry wall/compute time and shuffle/cache
attributes pulled from task metrics.

Spans come from one place: :func:`spans_from_jobs` builds the hierarchy
from :class:`~repro.engine.metrics.JobMetrics` records -- the ones a
``Context(..., trace_path=...)`` collects as its jobs end and writes on
``stop()``, or the ones an event log persisted, which is what ``sparkscore
history --export-trace`` reads.  Both routes therefore produce the same
tree.  A worker's task-phase fragments ride on its attempt's
:class:`~repro.engine.metrics.TaskRecord` as task-relative offsets and are
stitched under the task span here.

Exports: :func:`write_spans_jsonl` / :func:`read_spans_jsonl` round-trip
the span list; :func:`to_chrome_trace` emits Chrome ``trace_event`` JSON
(load via ``chrome://tracing`` or https://ui.perfetto.dev), one track per
executor plus a driver track for job/stage spans.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import IO, TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.metrics import JobMetrics


@dataclass
class Span:
    """One timed region; ``start``/``end`` are monotonic-clock seconds."""

    span_id: int
    parent_id: int | None
    name: str
    category: str  # "job" | "stage" | "task"
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "category": self.category,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        return cls(
            span_id=data["span_id"],
            parent_id=data["parent_id"],
            name=data["name"],
            category=data["category"],
            start=data["start"],
            end=data["end"],
            attrs=dict(data.get("attrs", {})),
        )


def _task_attrs(record) -> dict:
    m = record.metrics
    return {
        "executor_id": record.executor_id,
        "stage_id": record.stage_id,
        "partition": record.partition,
        "attempt": record.attempt,
        "succeeded": record.succeeded,
        "compute_seconds": m.compute_seconds,
        "cache_hits": m.cache_hits,
        "cache_misses": m.cache_misses,
        "remote_cache_hits": m.remote_cache_hits,
        "shuffle_bytes_read": m.shuffle_bytes_read,
        "shuffle_bytes_written": m.shuffle_bytes_written,
        "shuffle_records_read": m.shuffle_records_read,
        "shuffle_records_written": m.shuffle_records_written,
        "size_estimation_seconds": m.size_estimation_seconds,
        "deserialize_seconds": m.deserialize_seconds,
        "result_serialize_seconds": m.result_serialize_seconds,
        "gc_pause_seconds": m.gc_pause_seconds,
        "peak_rss_bytes": m.peak_rss_bytes,
    }


def _fragment_children(ids, task_span: "Span", record, task_start: float) -> list["Span"]:
    """Worker-shipped sub-phase fragments as children of the task span.

    Fragments arrive as seconds relative to the worker's task start; they
    are rebased onto the driver's task-span timeline here.
    """
    children = []
    for frag in getattr(record, "span_fragments", None) or ():
        children.append(Span(
            next(ids), task_span.span_id,
            f"{task_span.name}:{frag['name']}", "task_phase",
            task_start + frag["start"], task_start + frag["end"],
            {"executor_id": record.executor_id, "phase": frag["name"]},
        ))
    return children


def spans_from_jobs(jobs: Iterable["JobMetrics"]) -> list[Span]:
    """Rebuild the job -> stage -> task span hierarchy from job metrics.

    Event-log records carry real monotonic timestamps; for records without
    them (all timestamps zero) a synthetic timeline is laid out from the
    recorded wall/duration figures, preserving relative structure.
    """
    ids = itertools.count(1)
    spans: list[Span] = []
    clock = 0.0
    for job in jobs:
        synthetic = job.submit_time == 0.0
        job_start = clock if synthetic else job.submit_time
        job_span = Span(
            next(ids), None, f"job {job.job_id}: {job.description}", "job",
            job_start, job_start + job.wall_seconds,
            {"job_id": job.job_id, "wall_seconds": job.wall_seconds},
        )
        spans.append(job_span)
        stage_clock = job_start
        for stage in job.stages:
            stage_start = stage_clock if stage.submit_time == 0.0 else stage.submit_time
            stage_span = Span(
                next(ids), job_span.span_id, stage.name, "stage",
                stage_start, stage_start + stage.wall_seconds,
                {
                    "stage_id": stage.stage_id,
                    "attempt": stage.attempt,
                    "num_tasks": stage.num_tasks,
                    "job_id": job.job_id,
                    "total_task_seconds": stage.total_task_seconds,
                    # a stage attempt that ended on a fetch failure or a
                    # permanent task failure left a partition unfinished
                    "failed": len({t.partition for t in stage.tasks if t.succeeded})
                    < stage.num_tasks,
                },
            )
            spans.append(stage_span)
            for record in stage.tasks:
                task_start = stage_start if record.start_time == 0.0 else record.start_time
                task_span = Span(
                    next(ids), stage_span.span_id,
                    f"task {record.stage_id}.{record.partition}#{record.attempt}",
                    "task", task_start, task_start + record.duration_seconds,
                    _task_attrs(record),
                )
                spans.append(task_span)
                spans.extend(_fragment_children(ids, task_span, record, task_start))
            stage_clock = stage_span.end
        clock = max(clock, job_span.end) + 1e-9
    return spans


# -- JSONL export ------------------------------------------------------------


def write_spans_jsonl(spans: Iterable[Span], path_or_file: str | IO[str]) -> int:
    own = isinstance(path_or_file, str)
    fh: IO[str] = open(path_or_file, "w") if own else path_or_file  # type: ignore[assignment]
    count = 0
    try:
        for span in spans:
            fh.write(json.dumps(span.to_dict(), separators=(",", ":")) + "\n")
            count += 1
    finally:
        if own:
            fh.close()
    return count


def read_spans_jsonl(path_or_file: str | IO[str]) -> list[Span]:
    own = isinstance(path_or_file, str)
    fh: IO[str] = open(path_or_file) if own else path_or_file  # type: ignore[assignment]
    try:
        return [Span.from_dict(json.loads(line)) for line in fh if line.strip()]
    finally:
        if own:
            fh.close()


# -- Chrome trace_event export ------------------------------------------------


def to_chrome_trace(spans: list[Span]) -> dict:
    """Chrome ``trace_event`` JSON object format.

    Job and stage spans render on a ``driver`` track; task spans render on
    one track per executor.  Timestamps are microseconds relative to the
    earliest span.
    """
    if not spans:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    t0 = min(s.start for s in spans)
    tids: dict[str, int] = {"driver": 0}
    events: list[dict] = []
    for span in spans:
        if span.category in ("task", "task_phase"):
            track = str(span.attrs.get("executor_id", "executor"))
        else:
            track = "driver"
        tid = tids.setdefault(track, len(tids))
        events.append({
            "name": span.name,
            "cat": span.category,
            "ph": "X",
            "ts": round((span.start - t0) * 1e6, 3),
            "dur": round(span.duration * 1e6, 3),
            "pid": 1,
            "tid": tid,
            "args": span.attrs,
        })
    meta = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": tid,
            "args": {"name": track},
        }
        for track, tid in sorted(tids.items(), key=lambda kv: kv[1])
    ]
    meta.append({"name": "process_name", "ph": "M", "pid": 1,
                 "args": {"name": "repro engine"}})
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


def write_chrome_trace(spans: list[Span], path_or_file: str | IO[str]) -> None:
    own = isinstance(path_or_file, str)
    fh: IO[str] = open(path_or_file, "w") if own else path_or_file  # type: ignore[assignment]
    try:
        json.dump(to_chrome_trace(spans), fh)
    finally:
        if own:
            fh.close()


__all__ = [
    "Span",
    "spans_from_jobs",
    "write_spans_jsonl",
    "read_spans_jsonl",
    "to_chrome_trace",
    "write_chrome_trace",
]
