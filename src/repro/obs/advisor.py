"""Telemetry-driven tuning advisor: the brain behind ``sparkscore doctor``.

Rule-based analyzers over everything the engine records -- job/stage/task
metrics (in-memory or reloaded from an event log), telemetry side-channel
records, and the process-wide metrics registry -- producing ranked,
actionable :class:`Recommendation` objects.  Each recommendation carries
the *evidence* that fired it (metric values, stage ids) so a skeptical
operator can check the reasoning, and an ``action`` string concrete
enough to paste into a config or script.

A job that failed comes first: the ``failed-task`` rule names the task
that never succeeded, its executor, its error and the log lines that
carry its stage and partition, read from the failed job's event-log line.
The other rules encode the paper's own tuning playbook:

- skewed stages -> repartition (Section V's skew tail; the dominant
  resampling-cost pathology in Segal et al. / Larson & Owen workloads);
- cache thrash -> spillable storage levels / more executor memory
  (the paper's memory-pressure analysis);
- executor/core sizing -> many small containers (Experiment C,
  Tables VII/VIII: 126 x 2-core beat 42 x 6-core on equal hardware);
- GC pressure and task granularity -> the engine's own knobs.

Pure functions over plain data: ``diagnose()`` never needs a live
context, which is what lets ``doctor`` run on a cold event log.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.obs.diagnostics import (
    STRAGGLER_MULTIPLIER,
    CachePressureReport,
    StragglerReport,
    analyze_cache_pressure,
    detect_skew,
    detect_stragglers,
    median,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.metrics import JobMetrics, StageMetrics
    from repro.obs.logging import LogRecord
    from repro.obs.registry import Registry

#: severity ordering for ranking (higher sorts first)
SEVERITIES = {"critical": 3, "warning": 2, "info": 1}

#: mirror of the paper's Experiment C winner (Tables VII/VIII): on equal
#: aggregate hardware, many small 2-core containers beat few large ones.
PAPER_BEST_CONTAINER_CORES = 2


@dataclass
class Recommendation:
    """One actionable finding, with the evidence that fired it."""

    rule: str
    severity: str  # critical | warning | info
    title: str
    action: str
    evidence: dict = field(default_factory=dict)
    stage_id: int | None = None
    job_id: int | None = None
    #: rule-relative magnitude used to rank within a severity band
    score: float = 0.0

    def to_dict(self) -> dict:
        out = {
            "rule": self.rule,
            "severity": self.severity,
            "title": self.title,
            "action": self.action,
            "evidence": self.evidence,
            "score": round(self.score, 4),
        }
        if self.stage_id is not None:
            out["stage_id"] = self.stage_id
        if self.job_id is not None:
            out["job_id"] = self.job_id
        return out


@dataclass
class DiagnosisInput:
    """Everything the rules may look at; any piece may be absent."""

    jobs: list = field(default_factory=list)
    telemetry: list = field(default_factory=list)
    cache: CachePressureReport | None = None
    #: inference side-channel records (v8 event logs / live monitors):
    #: dicts with ``kind`` of ``"batch"`` or ``"converged"``
    inference: list = field(default_factory=list)
    #: structured log records (the v4 ``log`` channel): LogRecord objects
    log: list = field(default_factory=list)

    def stages(self):
        for job in self.jobs:
            for stage in job.stages:
                yield job, stage

    def inference_final_batches(self) -> dict:
        """Last ``kind="batch"`` record per resampling method."""
        final: dict[str, dict] = {}
        for rec in self.inference:
            if isinstance(rec, dict) and rec.get("kind") == "batch":
                method = str(rec.get("method", "resampling"))
                final[method] = rec
        return final


# -- individual rules ---------------------------------------------------------


def _round_evidence(value: float) -> float:
    return round(value, 4) if math.isfinite(value) else value


def rule_failed_task(inp: DiagnosisInput) -> list[Recommendation]:
    """A task that never succeeded: the job failed, and this is why.

    Fires once per ``(stage_id, partition)`` of a job with failed attempts
    and no succeeded one (a failure a retry recovered does not fire).  The
    title names the last failed attempt, its executor and its error; the
    evidence adds the log records correlated with that stage and
    partition (stage-level records, with no partition, included).  Jobs
    rank in the order they ran; within a job, the task whose failure came
    last ranks first: it is the one that failed the job.
    """
    out = []
    for rank, job in enumerate(inp.jobs):
        records = [rec for stage in job.stages for rec in stage.tasks]
        attempts: dict[tuple[int, int], list] = {}
        last_seen: dict[tuple[int, int], int] = {}
        for position, rec in enumerate(records):
            key = (rec.stage_id, rec.partition)
            attempts.setdefault(key, []).append(rec)
            last_seen[key] = position
        for (stage_id, partition), recs in attempts.items():
            if any(rec.succeeded for rec in recs):
                continue
            last = recs[-1]
            logs = [
                r.to_dict() for r in inp.log
                if r.stage_id == stage_id
                and r.partition in (partition, None)
                and r.job_id in (job.job_id, None)
            ]
            out.append(
                Recommendation(
                    rule="failed-task",
                    severity="critical",
                    title=(
                        f"job {job.job_id} failed: task {stage_id}.{partition}"
                        f"#{last.attempt} on {last.executor_id}: {last.error}"
                    ),
                    action=(
                        "fix the cause the error names (input file and line, "
                        "user code, a lost executor), then re-run; a transient "
                        "fault is retried up to EngineConfig(max_task_retries=...)"
                    ),
                    evidence={
                        "error": last.error,
                        "attempts": [
                            {"attempt": r.attempt, "executor_id": r.executor_id,
                             "error": r.error}
                            for r in recs
                        ],
                        "logs": logs,
                    },
                    stage_id=stage_id,
                    job_id=job.job_id,
                    # in [3, 4): above any tuning finding (cache-thrash tops
                    # out at 2.0); earlier jobs first, then later failures
                    score=3.0 + (
                        len(inp.jobs) - 1 - rank
                        + last_seen[stage_id, partition] / len(records)
                    ) / len(inp.jobs),
                )
            )
    return out


def rule_repartition_skew(inp: DiagnosisInput) -> list[Recommendation]:
    """Skewed stage -> split its partitions so the tail spreads out.

    Recommended count = current tasks x min(ceil(max/median), 4): enough
    splits that the heaviest partition's work spreads across the median's
    worth of peers, capped so one pathological stage doesn't explode the
    task count.
    """
    out = []
    for job, stage in inp.stages():
        reports = detect_skew(stage)
        # one recommendation per stage: use the worst metric as evidence
        if not reports:
            continue
        worst = max(reports, key=lambda r: r.max_over_median)
        factor = min(math.ceil(worst.max_over_median), 4)
        target = stage.num_tasks * factor
        out.append(
            Recommendation(
                rule="repartition-skewed-stage",
                severity="warning",
                title=(
                    f"stage {stage.stage_id} ({stage.name}) is skewed: max "
                    f"{worst.metric} is {worst.max_over_median:.1f}x the median"
                ),
                action=(
                    f"repartition to ~{target} partitions before this stage "
                    f"(e.g. rdd.repartition({target})); inspect placement with "
                    f"rdd.explain()"
                ),
                evidence={
                    "metrics": [r.to_dict() for r in reports],
                    "num_tasks": stage.num_tasks,
                    "recommended_partitions": target,
                },
                stage_id=stage.stage_id,
                job_id=job.job_id,
                score=worst.max_over_median,
            )
        )
    return out


def rule_stragglers(inp: DiagnosisInput) -> list[Recommendation]:
    """Straggling tasks; escalates when they concentrate on one executor."""
    out = []
    for job, stage in inp.stages():
        stragglers = detect_stragglers(stage)
        if not stragglers:
            continue
        by_executor: dict[str, list[StragglerReport]] = {}
        for s in stragglers:
            by_executor.setdefault(s.executor_id, []).append(s)
        hot_executor, hot = max(by_executor.items(), key=lambda kv: len(kv[1]))
        concentrated = len(hot) == len(stragglers) and len(stragglers) > 1
        worst = max(s.ratio for s in stragglers)
        if concentrated:
            title = (
                f"stage {stage.stage_id}: all {len(stragglers)} stragglers ran "
                f"on executor {hot_executor} (slow-executor signature)"
            )
            action = (
                "suspect the executor, not the data: check its heartbeat RSS/GC "
                "series; if its heartbeats stall, a shorter "
                "EngineConfig(heartbeat_timeout=...) declares it lost and "
                "retries its tasks on healthy peers; if it is merely "
                "oversubscribed, run one task slot per executor (--cores 1)"
            )
        else:
            title = (
                f"stage {stage.stage_id} ({stage.name}): {len(stragglers)} "
                f"task(s) ran >= {STRAGGLER_MULTIPLIER:g}x the stage median"
            )
            action = (
                "skew-spread the slow partitions (repartition) or raise "
                "parallelism so a straggling task hides behind more peers"
            )
        out.append(
            Recommendation(
                rule="stragglers",
                severity="warning",
                title=title,
                action=action,
                evidence={
                    "stragglers": [s.to_dict() for s in stragglers],
                    "worst_ratio": _round_evidence(worst),
                },
                stage_id=stage.stage_id,
                job_id=job.job_id,
                score=worst,
            )
        )
    return out


def rule_cache_thrash(inp: DiagnosisInput) -> list[Recommendation]:
    """High eviction ratio + poor hit rate -> the cache is thrashing."""
    cache = inp.cache
    if cache is None or cache.blocks_cached < 4:
        return []
    if cache.eviction_ratio < 0.5 or cache.hit_rate >= 0.6:
        return []
    spilled_all = cache.blocks_spilled >= cache.blocks_evicted > 0
    action = (
        "raise executor_memory, or persist with StorageLevel.MEMORY_SER "
        "(pickled blocks: a smaller footprint for numeric rows)"
    )
    if not spilled_all:
        action += (
            "; evicted blocks are being recomputed -- switch persist() to "
            "StorageLevel.MEMORY_AND_DISK so evictions spill instead of "
            "recompute"
        )
    out = [
        Recommendation(
            rule="cache-thrash",
            severity="critical" if cache.hit_rate < 0.3 else "warning",
            title=(
                f"cache thrash: {cache.blocks_evicted}/{cache.blocks_cached} "
                f"cached blocks evicted, hit rate {cache.hit_rate:.0%}"
            ),
            action=action,
            evidence=cache.to_dict(),
            score=cache.eviction_ratio + (1 - cache.hit_rate),
        )
    ]
    return out


def rule_gc_pressure(inp: DiagnosisInput) -> list[Recommendation]:
    """GC pauses eating a material share of task time."""
    out = []
    for job in inp.jobs:
        totals = job.totals()
        task_seconds = job.total_task_seconds
        if task_seconds < 0.5:
            continue
        share = totals.gc_pause_seconds / task_seconds if task_seconds else 0.0
        if share <= 0.10:
            continue
        out.append(
            Recommendation(
                rule="gc-pressure",
                severity="warning",
                title=(
                    f"job {job.job_id}: GC pauses are {share:.0%} of task time "
                    f"({totals.gc_pause_seconds:.2f}s of {task_seconds:.2f}s)"
                ),
                action=(
                    "reduce per-task allocation churn: raise block_size so "
                    "fewer, larger batches flow; or grow executor_memory so "
                    "the collector runs less often"
                ),
                evidence={
                    "gc_pause_seconds": _round_evidence(totals.gc_pause_seconds),
                    "task_seconds": _round_evidence(task_seconds),
                    "share": _round_evidence(share),
                },
                job_id=job.job_id,
                score=share,
            )
        )
    return out


def rule_tiny_tasks(inp: DiagnosisInput) -> list[Recommendation]:
    """Many sub-scheduling-overhead tasks -> coarsen partitioning."""
    out = []
    for job, stage in inp.stages():
        durations = [t.duration_seconds for t in stage.tasks if t.succeeded]
        if len(durations) < 16:
            continue
        med = median(durations)
        if med >= 0.02:
            continue
        target = max(4, len(durations) // 4)
        out.append(
            Recommendation(
                rule="tiny-tasks",
                severity="info",
                title=(
                    f"stage {stage.stage_id} ran {len(durations)} tasks with a "
                    f"{med * 1000:.1f} ms median -- scheduling overhead dominates"
                ),
                action=(
                    f"use ~{target} partitions (num_partitions) or raise block_size; "
                    "per-task overhead is amortized by bigger batches"
                ),
                evidence={
                    "num_tasks": len(durations),
                    "median_task_seconds": _round_evidence(med),
                    "recommended_partitions": target,
                },
                stage_id=stage.stage_id,
                job_id=job.job_id,
                score=1.0 / (med + 1e-6),
            )
        )
    return out


def rule_container_sizing(inp: DiagnosisInput) -> list[Recommendation]:
    """Executor/core sizing guidance echoing the paper's Experiment C.

    Always fires (info) when any job ran: the container sweep's conclusion
    -- split the same hardware into many small executors -- holds for this
    engine's process backend too, where per-worker heaps stay small and
    the OS scheduler load-balances.
    """
    if not inp.jobs:
        return []
    executors: set[str] = set()
    total_tasks = 0
    for _, stage in inp.stages():
        total_tasks += len(stage.tasks)
        for t in stage.tasks:
            executors.add(t.executor_id)
    n_exec = max(1, len(executors))
    return [
        Recommendation(
            rule="container-sizing",
            severity="info",
            title=(
                f"observed {n_exec} executor(s) over {total_tasks} task "
                "attempts; prefer many small executors"
            ),
            action=(
                f"size executors at {PAPER_BEST_CONTAINER_CORES} cores each and "
                "scale num_executors instead (the paper's container sweep, "
                "Tables VII/VIII: 126 x 2-core beat 42 x 6-core on the same "
                "hardware); on this engine: num_executors=N, executor_cores=2"
            ),
            evidence={
                "executors_observed": sorted(executors),
                "task_attempts": total_tasks,
                "paper_best_shape": "126 x (2 cores, 3 GiB)",
            },
            score=0.0,
        )
    ]


def rule_enable_early_stop(inp: DiagnosisInput) -> list[Recommendation]:
    """Resampling ran past decisiveness while early stopping was off.

    The convergence monitor records when every SNP-set's p-value CI became
    decisive against alpha; replicates folded after that point refined
    estimates nobody was waiting on.  When the decisive point arrived in
    at most ~half the replicates actually run, ``--early-stop`` is close
    to a 2x-or-better wall-clock win with CI-bounded agreement.
    """
    out = []
    converged_at: dict[str, int] = {}
    for rec in inp.inference:
        if not isinstance(rec, dict) or rec.get("kind") != "batch":
            continue
        method = str(rec.get("method", "resampling"))
        sets_total = int(rec.get("sets_total", 0) or 0)
        if sets_total and rec.get("sets_converged") == sets_total:
            converged_at.setdefault(method, int(rec.get("replicates_total", 0)))
    for method, final in inp.inference_final_batches().items():
        if final.get("early_stop"):
            continue
        total = int(final.get("replicates_total", 0) or 0)
        decisive = converged_at.get(method)
        if decisive is None or total <= 0 or decisive > total // 2:
            continue
        wasted = total - decisive
        out.append(
            Recommendation(
                rule="enable-early-stop",
                severity="warning",
                title=(
                    f"{method} resampling ran {total} replicates but every "
                    f"SNP-set was statistically decided by replicate {decisive}"
                ),
                action=(
                    "pass --early-stop (EngineConfig(inference_early_stop=True)): "
                    "the convergence monitor stops once every set's p-value CI "
                    "clears alpha, keeping significance calls identical within "
                    "the CI guarantee"
                ),
                evidence={
                    "method": method,
                    "replicates_total": total,
                    "decisive_at": decisive,
                    "replicates_past_decisiveness": wasted,
                    "sets_total": int(final.get("sets_total", 0) or 0),
                },
                score=wasted / max(total, 1),
            )
        )
    return out


def rule_insufficient_resamples(inp: DiagnosisInput) -> list[Recommendation]:
    """n_resamples too small for the smallest observed p-value.

    The paper ties p-value precision directly to B; the planning rule
    (binomial coefficient of variation, see
    :func:`repro.stats.resampling.pvalues.required_resamples`) gives the
    concrete B needed to pin the smallest observed p within 10% relative
    error.  Fires when the run used materially fewer.
    """
    from repro.stats.resampling.pvalues import required_resamples

    out = []
    for method, final in inp.inference_final_batches().items():
        total = int(final.get("replicates_total", 0) or 0)
        if total <= 0:
            continue
        min_p = float(final.get("min_pvalue", 1.0) or 1.0)
        # the empirical floor: a zero-exceedance set reports p ~ 1/(B+1)
        floor = 1.0 / (total + 1.0)
        target = min(max(min_p, floor), 1.0 - 1e-12)
        if target >= 1.0 - 1e-9:
            continue
        required = required_resamples(target)
        if required <= total:
            continue
        out.append(
            Recommendation(
                rule="insufficient-resamples",
                severity="warning" if required > 2 * total else "info",
                title=(
                    f"{method}: smallest observed p-value ~{target:.2e} needs "
                    f"~{required} resamples for 10% relative error; run used "
                    f"{total}"
                ),
                action=(
                    f"raise n_resamples to >= {required} (sparkscore analyze "
                    f"--iterations {required}), or accept the wider CI the "
                    "convergence panel shows for the extreme sets"
                ),
                evidence={
                    "method": method,
                    "replicates_total": total,
                    "min_pvalue": _round_evidence(target),
                    "required_resamples": required,
                    "relative_error": 0.1,
                },
                score=required / max(total, 1),
            )
        )
    return out


RULES = (
    rule_failed_task,
    rule_repartition_skew,
    rule_stragglers,
    rule_enable_early_stop,
    rule_insufficient_resamples,
    rule_cache_thrash,
    rule_gc_pressure,
    rule_tiny_tasks,
    rule_container_sizing,
)


def diagnose(
    jobs: Sequence["JobMetrics"],
    telemetry: Sequence[dict] | None = None,
    registry: "Registry" | None = None,
    cache: CachePressureReport | None = None,
    *,
    inference: Sequence[dict] | None = None,
    log: Sequence["LogRecord"] | None = None,
) -> list[Recommendation]:
    """Run every rule; return recommendations ranked most-urgent first.

    ``cache`` overrides the registry-derived pressure report (the offline
    path: doctor reconstructs it from event-log task metrics because a
    cold process's registry is empty).  ``log`` is the event log's ``log``
    channel, which ``failed-task`` draws its evidence from.
    """
    if cache is None:
        cache = analyze_cache_pressure(registry)
    inp = DiagnosisInput(
        jobs=list(jobs),
        telemetry=list(telemetry or ()),
        cache=cache,
        inference=list(inference or ()),
        log=list(log or ()),
    )
    recs: list[Recommendation] = []
    for rule in RULES:
        recs.extend(rule(inp))
    recs.sort(key=lambda r: (SEVERITIES.get(r.severity, 0), r.score), reverse=True)
    return recs


def cache_pressure_from_jobs(jobs: Sequence["JobMetrics"]) -> CachePressureReport:
    """Offline approximation of cache pressure from task metrics alone.

    Event logs don't carry the BlockManager counters, but task metrics
    record hits/misses; block churn is invisible, so eviction fields stay
    zero and the thrash rule keys off hit rate only when this is used.
    """
    report = CachePressureReport()
    for job in jobs:
        totals = job.totals()
        report.cache_hits += totals.cache_hits
        report.cache_misses += totals.cache_misses
    return report


# -- rendering ----------------------------------------------------------------


def render_recommendations(recs: Sequence[Recommendation]) -> str:
    """Human-readable report: ranked table plus per-item action lines."""
    if not recs:
        return "doctor: no findings -- telemetry looks healthy\n"
    rows = []
    for i, rec in enumerate(recs, start=1):
        scope = f"stage {rec.stage_id}" if rec.stage_id is not None else (
            f"job {rec.job_id}" if rec.job_id is not None else "-"
        )
        rows.append((str(i), rec.severity, rec.rule, scope, rec.title))
    headers = ("#", "severity", "rule", "scope", "finding")
    widths = [
        max(len(headers[c]), *(len(r[c]) for r in rows)) for c in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    lines.append("")
    for i, rec in enumerate(recs, start=1):
        lines.append(f"[{i}] {rec.title}")
        lines.append(f"    action: {rec.action}")
    return "\n".join(lines) + "\n"


def recommendations_to_json(recs: Sequence[Recommendation]) -> str:
    return json.dumps([r.to_dict() for r in recs], indent=2)


__all__ = [
    "Recommendation",
    "DiagnosisInput",
    "RULES",
    "SEVERITIES",
    "diagnose",
    "cache_pressure_from_jobs",
    "render_recommendations",
    "recommendations_to_json",
    "rule_failed_task",
    "rule_repartition_skew",
    "rule_stragglers",
    "rule_enable_early_stop",
    "rule_insufficient_resamples",
    "rule_cache_thrash",
    "rule_gc_pressure",
    "rule_tiny_tasks",
    "rule_container_sizing",
]
