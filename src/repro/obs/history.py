"""History-server analysis over persisted job metrics.

Consumes :class:`~repro.engine.metrics.JobMetrics` (usually loaded from an
event log via :func:`repro.engine.eventlog.read_event_log`) and produces
the analyses the benchmarks and ``sparkscore history`` report:

- per-job **stage tables** (tasks, wall time, task-time sum, shuffle and
  cache traffic);
- **straggler percentiles** (p50 / p95 / max task duration per stage);
- **cache hit rates** and every other task counter, summed per job and
  per log;
- DAG **critical-path analysis**: the longest dependency chain through the
  stage graph, where each stage contributes its slowest task (tasks within
  a stage run in parallel; stages on a dependency chain cannot overlap).
  ``total task time / critical path time`` bounds the theoretical speedup
  any scheduler could still extract from more parallelism.
"""

from __future__ import annotations

import textwrap
from dataclasses import dataclass, field, fields
from typing import Sequence

from repro.engine.metrics import JobMetrics, StageMetrics, TaskMetrics


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sequence."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = q / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return ordered[low] * (1 - frac) + ordered[high] * frac


@dataclass
class StageSummary:
    """One row of the per-job stage table."""

    stage_id: int
    name: str
    attempt: int
    num_tasks: int
    wall_seconds: float
    task_seconds: float
    p50: float
    p95: float
    max: float
    shuffle_read_records: int
    shuffle_written_bytes: int
    cache_hits: int
    cache_misses: int
    failures: int


def summarize_stage(stage: StageMetrics) -> StageSummary:
    durations = [t.duration_seconds for t in stage.tasks if t.succeeded]
    totals = stage.totals()
    return StageSummary(
        stage_id=stage.stage_id,
        name=stage.name,
        attempt=stage.attempt,
        num_tasks=stage.num_tasks,
        wall_seconds=stage.wall_seconds,
        task_seconds=sum(durations),
        p50=percentile(durations, 50),
        p95=percentile(durations, 95),
        max=max(durations, default=0.0),
        shuffle_read_records=totals.shuffle_records_read,
        shuffle_written_bytes=totals.shuffle_bytes_written,
        cache_hits=totals.cache_hits,
        cache_misses=totals.cache_misses,
        failures=sum(1 for t in stage.tasks if not t.succeeded),
    )


@dataclass
class CriticalPathResult:
    """Longest dependency chain through one job's stage DAG."""

    path: list[int] = field(default_factory=list)  # stage ids, root -> sink
    critical_seconds: float = 0.0
    total_task_seconds: float = 0.0
    wall_seconds: float = 0.0

    @property
    def max_speedup(self) -> float:
        """Upper bound on speedup from infinite parallelism (Amdahl-style)."""
        if self.critical_seconds <= 0.0:
            return 1.0
        return self.total_task_seconds / self.critical_seconds

    @property
    def parallel_efficiency(self) -> float:
        """How much of the wall clock the critical path explains (<=1 good)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.critical_seconds / self.wall_seconds


def _stage_cost(entries: list[StageMetrics]) -> float:
    """Critical contribution of one stage id: slowest task per attempt,
    summed over resubmission attempts (attempts run sequentially)."""
    cost = 0.0
    for stage in entries:
        durations = [t.duration_seconds for t in stage.tasks if t.succeeded]
        if durations:
            cost += max(durations)
        else:
            cost += stage.wall_seconds
    return cost


def critical_path(job: JobMetrics) -> CriticalPathResult:
    """Longest chain through the stage dependency DAG of one job.

    Each stage contributes the duration of its slowest task (its tasks run
    in parallel, so the slowest gates the stage); a stage cannot start
    before every parent stage finished, so chain costs add along
    dependency edges.
    """
    by_id: dict[int, list[StageMetrics]] = {}
    for stage in job.stages:
        by_id.setdefault(stage.stage_id, []).append(stage)
    parents: dict[int, tuple[int, ...]] = {
        sid: entries[-1].parent_stage_ids for sid, entries in by_id.items()
    }
    costs = {sid: _stage_cost(entries) for sid, entries in by_id.items()}

    memo: dict[int, tuple[float, list[int]]] = {}

    def chain(sid: int, visiting: frozenset[int]) -> tuple[float, list[int]]:
        if sid in memo:
            return memo[sid]
        if sid in visiting:  # defensive: corrupt logs must not hang us
            return costs.get(sid, 0.0), [sid]
        best_cost, best_path = 0.0, []
        for parent in parents.get(sid, ()):
            if parent not in by_id:
                continue
            c, p = chain(parent, visiting | {sid})
            if c > best_cost:
                best_cost, best_path = c, p
        result = (best_cost + costs.get(sid, 0.0), best_path + [sid])
        memo[sid] = result
        return result

    best = CriticalPathResult(wall_seconds=job.wall_seconds)
    best.total_task_seconds = sum(
        t.duration_seconds for s in job.stages for t in s.tasks if t.succeeded
    )
    for sid in by_id:
        cost, path = chain(sid, frozenset())
        if cost > best.critical_seconds:
            best.critical_seconds = cost
            best.path = path
    return best


# -- rendering ----------------------------------------------------------------


def _fmt_bytes(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024 or unit == "GiB":
            return f"{n:,.1f} {unit}" if unit != "B" else f"{int(n)} B"
        n /= 1024
    return f"{n:,.1f} GiB"  # pragma: no cover


def _fmt_secs(s: float) -> str:
    if s >= 100:
        return f"{s:,.0f}s"
    if s >= 1:
        return f"{s:.2f}s"
    return f"{s * 1000:.1f}ms"


def render_stage_table(job: JobMetrics) -> str:
    """Fixed-width per-stage table for one job."""
    header = (
        f"{'stage':>6} {'attempt':>7} {'tasks':>5} {'wall':>9} {'task-sum':>9} "
        f"{'p50':>8} {'p95':>8} {'max':>8} {'shuf-out':>11} {'hits':>6} "
        f"{'miss':>6} {'fail':>4}  name"
    )
    lines = [header, "-" * len(header)]
    for stage in job.stages:
        s = summarize_stage(stage)
        lines.append(
            f"{s.stage_id:>6} {s.attempt:>7} {s.num_tasks:>5} "
            f"{_fmt_secs(s.wall_seconds):>9} {_fmt_secs(s.task_seconds):>9} "
            f"{_fmt_secs(s.p50):>8} {_fmt_secs(s.p95):>8} {_fmt_secs(s.max):>8} "
            f"{_fmt_bytes(s.shuffle_written_bytes):>11} {s.cache_hits:>6} "
            f"{s.cache_misses:>6} {s.failures:>4}  {s.name}"
        )
    return "\n".join(lines)


def _fmt_total(name: str, value: float) -> str:
    """A task counter in the unit its name carries (``compute_seconds``,
    ``shuffle_bytes_read``), else as a count."""
    words = name.split("_")
    if "seconds" in words:
        return _fmt_secs(value)
    if "bytes" in words:
        return _fmt_bytes(value)
    return f"{value:,}"


def render_totals(totals: TaskMetrics) -> list[str]:
    """Rollup lines of a job or a log: the cache hit rate when the cache was
    read, then every non-zero :class:`TaskMetrics` field (summed over
    successful attempts, a ``peak_*`` field its maximum)."""
    lines = []
    accesses = totals.cache_hits + totals.cache_misses
    if accesses:
        lines.append(
            f"   cache hit rate {totals.cache_hits / accesses:.1%} "
            f"({totals.cache_hits} hits / {totals.cache_misses} misses)"
        )
    # a no-break space inside each item: lines wrap between items only
    items = [
        f"{f.name} {_fmt_total(f.name, getattr(totals, f.name))}".replace(" ", "\xa0")
        for f in fields(totals) if getattr(totals, f.name)
    ]
    if items:
        lines.append(textwrap.fill(
            ", ".join(items), width=100, break_long_words=False,
            initial_indent="   totals: ", subsequent_indent=" " * 11,
        ).replace("\xa0", " "))
    return lines


def render_job_summary(job: JobMetrics) -> str:
    """Multi-line textual report for one job: header, stage table, task
    totals, and the critical-path verdict."""
    cp = critical_path(job)
    n_tasks = sum(len(s.tasks) for s in job.stages)
    return "\n".join([
        f"== job {job.job_id}: {job.description!r} ==",
        f"   wall {_fmt_secs(job.wall_seconds)}  stages {len(job.stages)}  "
        f"task attempts {n_tasks}  failures {job.num_task_failures}  "
        f"stage resubmissions {job.num_stage_resubmissions}",
        "",
        render_stage_table(job),
        "",
        *render_totals(job.totals()),
        f"   critical path: stages {' -> '.join(map(str, cp.path)) or '-'} | "
        f"{_fmt_secs(cp.critical_seconds)} critical vs "
        f"{_fmt_secs(cp.total_task_seconds)} total task time "
        f"=> max speedup {cp.max_speedup:.2f}x",
    ])


def render_history(jobs: list[JobMetrics]) -> str:
    """Full ``sparkscore history`` report over an event log."""
    if not jobs:
        return "(event log contains no jobs)"
    parts = [render_job_summary(job) for job in jobs]
    totals = TaskMetrics()
    for job in jobs:
        totals.merge_from(job.totals())
    total_wall = sum(j.wall_seconds for j in jobs)
    task_seconds = sum(j.total_task_seconds for j in jobs)
    total_cp = sum(critical_path(j).critical_seconds for j in jobs)
    parts.append("\n".join([
        f"== overall: {len(jobs)} jobs ==",
        f"   wall {_fmt_secs(total_wall)}  task time {_fmt_secs(task_seconds)}  "
        f"critical path {_fmt_secs(total_cp)}",
        *render_totals(totals),
    ]))
    return "\n\n".join(parts)


__all__ = [
    "percentile",
    "StageSummary",
    "summarize_stage",
    "CriticalPathResult",
    "critical_path",
    "render_stage_table",
    "render_job_summary",
    "render_totals",
    "render_history",
]
