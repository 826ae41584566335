"""Adaptive query execution: plan rewrites at stage boundaries.

The engine already collects everything Spark's AQE consults -- per-bucket
map-output statistics (:meth:`ShuffleManager.bucket_stats`), task-duration
telemetry, and heartbeat liveness -- but until this module those numbers
only fed dashboards and ``sparkscore doctor``.  The
:class:`AdaptivePlanner` closes the loop inside the live scheduler:

- **runtime skew repartitioning** -- before a reduce stage launches, the
  registered bucket distribution of the shuffle it reads is compared
  against the diagnostics skew threshold
  (:data:`repro.obs.diagnostics.SKEW_RATIO`); oversized buckets are split
  along map-output boundaries and runs of tiny neighbours are coalesced
  into a :class:`~repro.engine.partitioner.ShuffleRemap`, producing a
  rebalanced reduce stage with bit-identical results (segments preserve
  the old bucket/map iteration order exactly).
- **speculative execution policy** -- :class:`SpeculationPolicy` decides
  when a running task has straggled long enough past the completed-task
  median to justify a duplicate attempt; the task scheduler owns the
  launch/commit mechanics (first result wins).

Remaps are *job-scoped*: shuffle storage keeps the original layout, and
the scheduler reverts the partitioner mutation when the job finishes so a
later job over the same lineage plans against the committed layout.
"""

from __future__ import annotations

import math
import threading
from typing import TYPE_CHECKING, Any

from repro.engine.dependencies import OneToOneDependency
from repro.engine.listener import AdaptivePlanApplied
from repro.engine.partitioner import RemappedPartitioner, ShuffleRemap
from repro.engine.rdd import MappedPartitionsRDD, ShuffledRDD
from repro.obs.diagnostics import MIN_TASKS, SKEW_RATIO

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.context import Context
    from repro.engine.dag import Stage, StageGraph

__all__ = [
    "AdaptivePlanner",
    "AppliedRemap",
    "SpeculationPolicy",
    "build_remap",
]

#: hard cap on how many pieces one oversized reduce bucket is split into
#: (splits happen along map-output boundaries)
MAX_SPLITS = 8
#: buckets below this fraction of the median coalesce with small neighbours
COALESCE_RATIO = 0.25


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def build_remap(
    shuffle_id: int,
    bucket_map_counts: list[list[int]],
    *,
    max_over_median: float,
    max_splits: int,
    coalesce_ratio: float,
    splittable: bool,
) -> ShuffleRemap | None:
    """Cut a skewed bucket layout into a balanced one, or return ``None``.

    ``bucket_map_counts[r][m]`` is the record (or byte) count map ``m``
    wrote for old reduce bucket ``r``.  Buckets at least ``max_over_median``
    times the median are split along map boundaries into at most
    ``max_splits`` contiguous slices (only when ``splittable`` -- an
    aggregated shuffle must keep each key's bucket whole); runs of adjacent
    buckets under ``coalesce_ratio`` of the median are merged whole.  The
    identity layout returns ``None``.
    """
    num_buckets = len(bucket_map_counts)
    if num_buckets < 2:
        return None
    num_maps = len(bucket_map_counts[0])
    totals = [sum(per_map) for per_map in bucket_map_counts]
    if sum(totals) <= 0:
        return None
    median = _median([float(t) for t in totals])
    if median <= 0:
        # more than half the buckets are empty; balance against the mean
        median = sum(totals) / num_buckets
    if max(totals) < max_over_median * median:
        return None

    segments: list[tuple[tuple[int, int, int], ...]] = []
    tiny_cutoff = coalesce_ratio * median
    idx = 0
    while idx < num_buckets:
        total = totals[idx]
        if splittable and total >= max_over_median * median:
            pieces = min(max_splits, max(2, math.ceil(total / median)))
            segments.extend(
                _split_bucket(idx, bucket_map_counts[idx], num_maps, pieces)
            )
            idx += 1
        elif total <= tiny_cutoff:
            group = [(idx, 0, num_maps)]
            acc = total
            idx += 1
            while (
                idx < num_buckets
                and totals[idx] <= tiny_cutoff
                and acc + totals[idx] <= median
            ):
                group.append((idx, 0, num_maps))
                acc += totals[idx]
                idx += 1
            segments.append(tuple(group))
        else:
            segments.append(((idx, 0, num_maps),))
            idx += 1

    if len(segments) == num_buckets and all(len(seg) == 1 for seg in segments):
        return None
    return ShuffleRemap(shuffle_id, num_buckets, tuple(segments))


def _split_bucket(
    bucket: int, per_map: list[int], num_maps: int, pieces: int
) -> list[tuple[tuple[int, int, int], ...]]:
    """Greedy contiguous map-range split of one oversized bucket."""
    total = sum(per_map)
    target = total / pieces
    out: list[tuple[tuple[int, int, int], ...]] = []
    lo = 0
    acc = 0
    for map_idx in range(num_maps):
        acc += per_map[map_idx]
        if acc >= target and len(out) < pieces - 1 and map_idx + 1 < num_maps:
            out.append(((bucket, lo, map_idx + 1),))
            lo = map_idx + 1
            acc = 0
    out.append(((bucket, lo, num_maps),))
    if len(out) < 2:
        return [((bucket, 0, num_maps),)]
    return out


class AppliedRemap:
    """A live plan mutation, undone when the owning job finishes."""

    def __init__(self, rdd: ShuffledRDD, original_partitioner, remap: ShuffleRemap,
                 manager) -> None:
        self.rdd = rdd
        self.original_partitioner = original_partitioner
        self.remap = remap
        self._manager = manager
        #: set by the scheduler when the remapped chain feeds a shuffle-map
        #: stage: that downstream shuffle was written with the remapped map
        #: count, so its storage must not outlive the remap
        self.downstream_shuffle_id: int | None = None

    def revert(self) -> None:
        self.rdd.partitioner = self.original_partitioner
        self._manager.clear_remap(self.remap.shuffle_id)
        if self.downstream_shuffle_id is not None:
            # a later job would re-register this shuffle with the reverted
            # (static) map count and mis-read the remapped-layout outputs
            self._manager.unregister_shuffle(self.downstream_shuffle_id)


class SpeculationPolicy:
    """When is a running task straggling badly enough to duplicate?

    Mirrors Spark's speculation contract: once ``quantile`` of the task
    set has completed, any still-running task whose elapsed time exceeds
    ``multiplier`` x the completed median (and the absolute ``min_runtime``
    floor, in seconds) earns a twin attempt.  ``speculation_enabled``
    installs the defaults; a caller may replace ``ctx.adaptive.speculation``.
    """

    def __init__(
        self, multiplier: float = 2.0, min_runtime: float = 0.1, quantile: float = 0.75
    ) -> None:
        self.multiplier = multiplier
        self.min_runtime = min_runtime
        self.quantile = quantile

    def ready(self, completed: int, total: int) -> bool:
        return total > 0 and completed >= max(1, math.ceil(self.quantile * total))

    def threshold(self, completed_durations: list[float]) -> float:
        return max(
            self.multiplier * _median(completed_durations), self.min_runtime
        )


class AdaptivePlanner:
    """Per-context adaptive execution state and decision log."""

    def __init__(self, ctx: "Context") -> None:
        self.ctx = ctx
        config = ctx.config
        self.enabled = config.adaptive_enabled
        self.speculation: SpeculationPolicy | None = (
            SpeculationPolicy() if config.speculation_enabled else None
        )
        self._lock = threading.Lock()
        self.decisions: list[dict] = []
        self.stages_rewritten = 0
        self.speculative_launched = 0
        self.speculative_won = 0

    # -- skew repartitioning ----------------------------------------------

    def maybe_rebalance(
        self, stage: "Stage", graph: "StageGraph", job_id: int
    ) -> AppliedRemap | None:
        """Rewrite ``stage`` to read a rebalanced reduce layout, if skewed.

        Only stages whose RDD reaches exactly one :class:`ShuffledRDD`
        through a private chain of one-to-one narrow dependencies are
        eligible -- partition ``i`` of such a stage reads reduce bucket
        ``i`` and the new partition count propagates automatically.  The
        returned :class:`AppliedRemap` must be reverted when the job ends.
        """
        if not self.enabled:
            return None
        chain = _narrow_chain_to_shuffle(stage.rdd)
        if chain is None:
            return None
        shuffled, chain_ids = chain
        dep = shuffled.shuffle_dep
        manager = self.ctx.shuffle_manager
        if shuffled.partitioner is not dep.partitioner:
            return None  # custom partitioner or already remapped
        if manager.remap_for(dep.shuffle_id) is not None:
            return None
        if not _chain_is_private(stage, graph, chain_ids):
            return None
        try:
            if manager.missing_maps(dep.shuffle_id):
                return None
            stats = manager.bucket_stats(dep.shuffle_id)
        except KeyError:
            return None
        if len(stats) != shuffled.partitioner.num_partitions:
            return None
        if len(stats) < MIN_TASKS:
            return None
        record_counts = [[records for records, _bytes in row] for row in stats]
        if sum(sum(row) for row in record_counts) == 0:
            record_counts = [[size for _records, size in row] for row in stats]
        remap = build_remap(
            dep.shuffle_id,
            record_counts,
            max_over_median=SKEW_RATIO,
            max_splits=MAX_SPLITS,
            coalesce_ratio=COALESCE_RATIO,
            splittable=dep.aggregator is None,
        )
        if remap is None:
            return None
        original = shuffled.partitioner
        manager.set_remap(remap)
        shuffled.partitioner = RemappedPartitioner(original, remap)
        kind = remap.kind()
        detail = (
            f"{remap.base_partitions} buckets -> {remap.new_partitions} "
            f"partitions ({kind})"
        )
        self._record(
            kind=kind,
            shuffle_id=dep.shuffle_id,
            stage_id=stage.id,
            job_id=job_id,
            old_partitions=remap.base_partitions,
            new_partitions=remap.new_partitions,
            detail=detail,
        )
        with self._lock:
            self.stages_rewritten += 1
        return AppliedRemap(shuffled, original, remap, manager)

    # -- speculation accounting -------------------------------------------

    def note_speculation_launched(self) -> None:
        with self._lock:
            self.speculative_launched += 1

    def note_speculation_won(self) -> None:
        with self._lock:
            self.speculative_won += 1

    # -- reporting ----------------------------------------------------------

    def _record(self, **decision: Any) -> None:
        with self._lock:
            self.decisions.append(decision)
        bus = getattr(self.ctx, "listener_bus", None)
        if bus is not None:
            bus.post(AdaptivePlanApplied(
                decision["shuffle_id"], decision["stage_id"], decision["job_id"],
                decision["kind"], decision["old_partitions"],
                decision["new_partitions"], decision["detail"],
            ))

    def snapshot(self) -> dict:
        """Plain-dict view for the flight recorder / dashboard / history."""
        with self._lock:
            return {
                "enabled": self.enabled,
                "speculation_enabled": self.speculation is not None,
                "stages_rewritten": self.stages_rewritten,
                "speculative_launched": self.speculative_launched,
                "speculative_won": self.speculative_won,
                "decisions": list(self.decisions[-100:]),
            }


# -- helpers ------------------------------------------------------------------


def _narrow_chain_to_shuffle(rdd) -> tuple[ShuffledRDD, set[int]] | None:
    """Walk one-to-one deps from ``rdd`` to a single ``ShuffledRDD``.

    The chain must be linear (each node exactly one ``OneToOneDependency``)
    and every intermediate node must delegate ``num_partitions`` to its
    parent (``MappedPartitionsRDD`` does), so remapping the shuffle's
    partitioner re-sizes the whole stage coherently.
    """
    chain_ids = {rdd.id}
    node = rdd
    while not isinstance(node, ShuffledRDD):
        if not isinstance(node, MappedPartitionsRDD):
            return None
        deps = node.dependencies
        if len(deps) != 1 or not isinstance(deps[0], OneToOneDependency):
            return None
        node = deps[0].rdd
        chain_ids.add(node.id)
    return node, chain_ids


def _narrow_closure_ids(rdd) -> set[int]:
    """Ids of all RDDs in ``rdd``'s stage (narrow-dependency closure)."""
    seen: set[int] = set()
    frontier = [rdd]
    while frontier:
        node = frontier.pop()
        if node.id in seen:
            continue
        seen.add(node.id)
        for dep in node.dependencies:
            if not hasattr(dep, "shuffle_id"):
                frontier.append(dep.rdd)
    return seen


def _chain_is_private(stage: "Stage", graph: "StageGraph", chain_ids: set[int]) -> bool:
    """No other stage in this job may compute or read the chain's RDDs.

    A remap changes the chain's partition count mid-job; if another stage's
    narrow closure touches a chain node (a shared cached sub-plan, a
    cogroup sibling), its construction-time partitioning assumptions would
    silently break, so the planner refuses.
    """
    for other in graph.all_stages():
        if other is stage:
            continue
        if _narrow_closure_ids(other.rdd) & chain_ids:
            return False
    return True
