"""Task / stage / job metrics, plus task-graph capture for simulator replay.

Every job records enough structure (stages, per-task wall times, shuffle
volumes) that :mod:`repro.cluster.simulation` can replay the same task graph
on a *simulated* cluster of arbitrary size -- this is how the benchmarks
extrapolate laptop runs to the paper's 6/12/18/36-node EMR clusters.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, fields


@dataclass
class TaskMetrics:
    """Counters recorded by a single task attempt.

    Most fields aggregate by summation; the ``peak_*`` resource-telemetry
    fields aggregate by maximum (a stage's peak RSS is the largest any of
    its tasks saw, not their sum) -- see :data:`_MAX_FIELDS`.
    """

    records_read: int = 0
    records_written: int = 0
    shuffle_bytes_read: int = 0
    shuffle_bytes_written: int = 0
    shuffle_records_read: int = 0
    shuffle_records_written: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: cached blocks this attempt's cache puts pushed out of memory
    blocks_evicted: int = 0
    compute_seconds: float = 0.0
    size_estimation_seconds: float = 0.0
    #: wall seconds spent encoding/decoding shuffle frames, distinct from
    #: result/task-payload pickling
    serializer_seconds: float = 0.0
    #: estimated bytes of this task's result materialized on the driver
    driver_bytes_collected: int = 0
    #: serialized stage task-binary bytes shipped with this attempt
    #: (cluster backend only; 0 under serial)
    task_binary_bytes: int = 0
    #: the stage's task binary was already in the worker's warm cache (a
    #: hit) or had to be fetched and unpickled (a miss); cluster only
    task_binary_cache_hits: int = 0
    task_binary_cache_misses: int = 0
    #: by-ref values (broadcasts, partitions) the worker's memo already held
    #: when this attempt first read them; cluster only
    broadcast_memo_hits: int = 0
    # -- resource telemetry (executor telemetry plane) --------------------
    #: wall seconds spent deserializing the task payload + stage binary
    #: (cluster backend only; serial ships nothing)
    deserialize_seconds: float = 0.0
    #: wall seconds spent pickling the task result for the driver
    result_serialize_seconds: float = 0.0
    #: cumulative GC pause observed during the attempt
    gc_pause_seconds: float = 0.0
    #: peak resident set size of the executing process, bytes
    peak_rss_bytes: int = 0
    #: tracemalloc peak during the attempt (0 unless tracing is enabled)
    tracemalloc_peak_bytes: int = 0

    def merge_from(self, other: "TaskMetrics") -> None:
        """Fold ``other`` into this instance (sum, or max for peaks)."""
        for f in fields(TaskMetrics):
            if f.name in _MAX_FIELDS:
                setattr(self, f.name, max(getattr(self, f.name), getattr(other, f.name)))
            else:
                setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


#: fields whose aggregate is a maximum, not a sum
_MAX_FIELDS = frozenset({"peak_rss_bytes", "tracemalloc_peak_bytes"})


@dataclass
class TaskRecord:
    """One completed task attempt, as seen by the driver."""

    stage_id: int
    partition: int
    attempt: int
    executor_id: str
    duration_seconds: float
    metrics: TaskMetrics
    succeeded: bool
    error: str | None = None
    #: monotonic (perf_counter) launch timestamp -- for a failed attempt,
    #: when the driver saw it fail
    start_time: float = 0.0
    #: worker-side sub-phase spans ({name, start, end}, seconds relative to
    #: task start); shipped by the process backend, empty elsewhere
    span_fragments: list[dict] = field(default_factory=list)


@dataclass
class StageMetrics:
    """Aggregated metrics for one stage execution."""

    stage_id: int
    name: str
    num_tasks: int
    attempt: int = 0
    parent_stage_ids: tuple[int, ...] = ()
    is_shuffle_map: bool = False
    tasks: list[TaskRecord] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: monotonic submission timestamp
    submit_time: float = 0.0

    @property
    def total_task_seconds(self) -> float:
        return sum(t.duration_seconds for t in self.tasks if t.succeeded)

    def totals(self) -> TaskMetrics:
        """Element-wise aggregate of task metrics over successful attempts."""
        out = TaskMetrics()
        for rec in self.tasks:
            if rec.succeeded:
                out.merge_from(rec.metrics)
        return out


@dataclass
class JobMetrics:
    """Metrics for one action (job) execution."""

    job_id: int
    description: str = ""
    wall_seconds: float = 0.0
    stages: list[StageMetrics] = field(default_factory=list)
    num_task_failures: int = 0
    num_stage_resubmissions: int = 0
    num_executor_failures_observed: int = 0
    #: monotonic submission timestamp
    submit_time: float = 0.0

    def totals(self) -> TaskMetrics:
        out = TaskMetrics()
        for stage in self.stages:
            out.merge_from(stage.totals())
        return out

    @property
    def total_task_seconds(self) -> float:
        return sum(s.total_task_seconds for s in self.stages)


class MetricsRegistry:
    """Thread-safe collection of job metrics held by the context."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.jobs: list[JobMetrics] = []

    def add_job(self, job: JobMetrics) -> None:
        with self._lock:
            self.jobs.append(job)

    @property
    def last_job(self) -> JobMetrics | None:
        with self._lock:
            return self.jobs[-1] if self.jobs else None

    def jobs_snapshot(self) -> list[JobMetrics]:
        """Point-in-time copy of the completed-job list."""
        with self._lock:
            return list(self.jobs)

    def clear(self) -> None:
        with self._lock:
            self.jobs.clear()

    def total_cache_hits(self) -> int:
        with self._lock:
            return sum(j.totals().cache_hits for j in self.jobs)

    def total_cache_misses(self) -> int:
        with self._lock:
            return sum(j.totals().cache_misses for j in self.jobs)
