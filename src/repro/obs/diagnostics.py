"""Skew / straggler / cache-pressure diagnostics over engine telemetry.

The interpretive layer between raw telemetry (the task metrics on each
job record) and the tuning advisor.  Three analyses:

- **partition skew** -- per-stage distributions of records, bytes, and
  duration across partitions, scored with the Gini coefficient and the
  max-over-median ratio.  Resampling cost in the paper's workloads is
  dominated by a skewed tail of SNP-sets (Segal et al.; Larson & Owen),
  so a stage whose slowest partition is several times its median is the
  canonical "why is this configuration slow" answer.
- **stragglers** -- individual task attempts that ran far longer than
  their stage's median (a fixed multiplier, with an absolute floor so
  trivial stages don't alarm).
- **cache pressure** -- eviction and recompute ratios, a
  :class:`CachePressureReport` the advisor reads (built from job records
  by :func:`repro.obs.advisor.cache_pressure_from_jobs`).

The functions are pure and run offline: ``sparkscore doctor`` applies
them to the job records of a loaded event log, at the thresholds below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.metrics import StageMetrics

#: per-partition metrics the skew detector scores
SKEW_METRICS = ("records", "bytes", "duration")
#: a stage whose max-over-median partition ratio (records, bytes or
#: duration) reaches this is skewed
SKEW_RATIO = 4.0
#: a task at least this multiple of its stage's median duration straggles
STRAGGLER_MULTIPLIER = 3.0
#: tasks shorter than this (seconds) are never stragglers, whatever the ratio
STRAGGLER_MIN_SECONDS = 0.1
#: stages with fewer tasks than this are exempt: tiny stages are trivially
#: imbalanced
MIN_TASKS = 4


def gini(values: Sequence[float]) -> float:
    """Gini coefficient of a non-negative sample: 0 = uniform, ->1 = one
    partition holds everything.  Returns 0.0 for degenerate input."""
    vals = sorted(v for v in values if v >= 0)
    n = len(vals)
    total = sum(vals)
    if n < 2 or total <= 0:
        return 0.0
    # mean absolute difference formulation via the sorted-rank identity
    weighted = sum((2 * (i + 1) - n - 1) * v for i, v in enumerate(vals))
    return weighted / (n * total)


def median(values: Sequence[float]) -> float:
    vals = sorted(values)
    if not vals:
        return 0.0
    mid = len(vals) // 2
    if len(vals) % 2:
        return vals[mid]
    return (vals[mid - 1] + vals[mid]) / 2


def _task_value(rec, metric: str) -> float:
    if metric == "duration":
        return rec.duration_seconds
    m = rec.metrics
    if metric == "records":
        return float(m.records_read + m.shuffle_records_read)
    if metric == "bytes":
        return float(m.shuffle_bytes_read + m.shuffle_bytes_written)
    raise ValueError(f"unknown skew metric {metric!r}")


def stage_distribution(stage: "StageMetrics", metric: str) -> dict[int, float]:
    """Per-partition value of ``metric`` over successful first-result tasks.

    Retried partitions keep the successful attempt's value.
    """
    out: dict[int, float] = {}
    for rec in stage.tasks:
        if rec.succeeded:
            out[rec.partition] = _task_value(rec, metric)
    return out


@dataclass
class SkewReport:
    """One skewed (stage, metric) pair."""

    stage_id: int
    stage_name: str
    metric: str
    num_tasks: int
    max_value: float
    median_value: float
    max_over_median: float
    gini: float
    #: partition holding the maximum
    max_partition: int

    def to_dict(self) -> dict:
        return {
            "stage_id": self.stage_id,
            "stage_name": self.stage_name,
            "metric": self.metric,
            "num_tasks": self.num_tasks,
            "max_value": self.max_value,
            "median_value": self.median_value,
            "max_over_median": self.max_over_median,
            "gini": self.gini,
            "max_partition": self.max_partition,
        }


@dataclass
class StragglerReport:
    """One task attempt that ran far past its stage's median duration."""

    stage_id: int
    stage_name: str
    partition: int
    attempt: int
    executor_id: str
    duration_seconds: float
    median_seconds: float
    ratio: float

    def to_dict(self) -> dict:
        return {
            "stage_id": self.stage_id,
            "stage_name": self.stage_name,
            "partition": self.partition,
            "attempt": self.attempt,
            "executor_id": self.executor_id,
            "duration_seconds": self.duration_seconds,
            "median_seconds": self.median_seconds,
            "ratio": self.ratio,
        }


def detect_skew(stage: "StageMetrics") -> list[SkewReport]:
    """Score each metric's partition distribution; report those whose
    max/median ratio reaches :data:`SKEW_RATIO`.

    Stages with fewer than :data:`MIN_TASKS` partitions are skipped: a
    2-task stage is trivially "skewed" by any imbalance, and repartitioning
    it is rarely the right advice.
    """
    reports: list[SkewReport] = []
    for metric in SKEW_METRICS:
        dist = stage_distribution(stage, metric)
        if len(dist) < MIN_TASKS:
            continue
        values = list(dist.values())
        med = median(values)
        peak_partition, peak = max(dist.items(), key=lambda kv: kv[1])
        if peak <= 0:
            continue
        # a zero median with a non-zero max is infinite skew; report it
        # with a finite sentinel ratio so the evidence stays JSON-clean
        ratio = peak / med if med > 0 else math.inf
        if ratio >= SKEW_RATIO:
            reports.append(
                SkewReport(
                    stage_id=stage.stage_id,
                    stage_name=stage.name,
                    metric=metric,
                    num_tasks=len(dist),
                    max_value=peak,
                    median_value=med,
                    max_over_median=ratio if math.isfinite(ratio) else peak,
                    gini=gini(values),
                    max_partition=peak_partition,
                )
            )
    return reports


def detect_stragglers(stage: "StageMetrics") -> list[StragglerReport]:
    """Tasks whose duration reaches :data:`STRAGGLER_MULTIPLIER` x the
    stage median.

    :data:`STRAGGLER_MIN_SECONDS` is an absolute floor: a 3 ms task in a
    1 ms-median stage is noise, not a straggler.
    """
    succeeded = [t for t in stage.tasks if t.succeeded]
    if len(succeeded) < MIN_TASKS:
        return []
    med = median([t.duration_seconds for t in succeeded])
    out: list[StragglerReport] = []
    for rec in succeeded:
        if rec.duration_seconds < STRAGGLER_MIN_SECONDS:
            continue
        if med > 0 and rec.duration_seconds >= STRAGGLER_MULTIPLIER * med:
            out.append(
                StragglerReport(
                    stage_id=stage.stage_id,
                    stage_name=stage.name,
                    partition=rec.partition,
                    attempt=rec.attempt,
                    executor_id=rec.executor_id,
                    duration_seconds=rec.duration_seconds,
                    median_seconds=med,
                    ratio=rec.duration_seconds / med,
                )
            )
    return out


@dataclass
class CachePressureReport:
    """Eviction / recompute pressure derived from block-manager counts."""

    blocks_cached: int = 0
    blocks_evicted: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def eviction_ratio(self) -> float:
        """Fraction of cached blocks that were later evicted."""
        return self.blocks_evicted / self.blocks_cached if self.blocks_cached else 0.0

    @property
    def hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def to_dict(self) -> dict:
        return {
            "blocks_cached": self.blocks_cached,
            "blocks_evicted": self.blocks_evicted,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "eviction_ratio": self.eviction_ratio,
            "hit_rate": self.hit_rate,
        }


__all__ = [
    "SKEW_METRICS",
    "SKEW_RATIO",
    "STRAGGLER_MULTIPLIER",
    "STRAGGLER_MIN_SECONDS",
    "MIN_TASKS",
    "gini",
    "median",
    "stage_distribution",
    "SkewReport",
    "StragglerReport",
    "CachePressureReport",
    "detect_skew",
    "detect_stragglers",
]
