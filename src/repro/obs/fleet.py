"""Cluster-resident fleet observability: metrics that outlive contexts.

Spans, the process registry and the dashboard are scoped to one
:class:`~repro.engine.context.Context` and evaporate at ``stop()``.  The
persistent cluster outlives every Context of its driver process, so its
telemetry must too: :class:`FleetStats` lives inside the
:class:`~repro.engine.cluster_backend.ClusterManager`, folds worker
heartbeats and task completions into a persistent
:class:`~repro.obs.timeseries.TimeSeriesStore` keyed by executor, and
answers snapshot queries from any Context -- including Contexts started
long after the jobs whose statistics it is reporting.

Fed from three places in the manager:

- the dispatch loop's HEARTBEAT branch (per-executor RSS, in-flight
  depth, records read);
- the RESULT/TASK_ERROR branch (per-driver task throughput, keyed by the
  attached Context's trace id);
- a periodic :meth:`sample` call from the dispatch loop (slot occupancy,
  dispatch-queue depth, transport dedup counters, frame bytes in/out).

Series use ``fleet_``-prefixed names and carry ``executor_id`` (and
``driver`` where it applies) labels, so a fleet that served several
Contexts never collides with any single Context's registry families.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any

from repro.obs.timeseries import TimeSeriesStore

#: executor lifecycle transitions kept for post-mortems (bounded ring)
_LIFECYCLE_MAX = 256


class FleetStats:
    """Fleet-wide aggregator resident in the cluster manager.  Thread-safe.

    All counters are cumulative since fleet start; the embedded
    :class:`TimeSeriesStore` holds the recent per-executor history (ring
    buffers with downsampling, so memory stays bounded for the life of
    the fleet).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.started_wall = time.time()
        self._started_mono = time.perf_counter()
        self.store = TimeSeriesStore()
        #: driver attaches served since fleet start
        self.jobs_served = 0
        self.tasks_completed = 0
        self.task_errors = 0
        #: driver label (the attached Context's trace id) -> completed tasks
        self.tasks_by_driver: dict[str, int] = {}
        #: driver label -> latest inference-convergence summary (replicates
        #: done/planned, throughput, sets converged)
        self.inference_by_driver: dict[str, dict] = {}
        self.heartbeats_received = 0
        self.frame_bytes_in = 0
        self.frame_bytes_out = 0
        #: distinct driver labels ever seen
        self._drivers_seen: set[str] = set()
        #: (wall time, executor_id, state) transitions, oldest first
        self._lifecycle: deque = deque(maxlen=_LIFECYCLE_MAX)
        self._current_driver = ""

    # -- uptime ------------------------------------------------------------

    @property
    def uptime_seconds(self) -> float:
        return time.perf_counter() - self._started_mono

    # -- fold points (called by the cluster manager) -----------------------

    def note_attach(self, driver: str | None) -> None:
        with self._lock:
            self.jobs_served += 1
            self._current_driver = driver or ""
            if driver:
                self._drivers_seen.add(driver)

    def note_detach(self) -> None:
        with self._lock:
            self._current_driver = ""

    def current_driver(self) -> str:
        with self._lock:
            return self._current_driver

    def note_lifecycle(self, executor_id: str, state: str) -> None:
        with self._lock:
            self._lifecycle.append((time.time(), executor_id, state))

    def note_task_done(
        self, executor_id: str, driver: str | None, ok: bool = True
    ) -> None:
        label = driver or "unattributed"
        with self._lock:
            self.tasks_completed += 1
            if not ok:
                self.task_errors += 1
            self.tasks_by_driver[label] = self.tasks_by_driver.get(label, 0) + 1
            self._drivers_seen.add(label)
        self.store.record(
            "fleet_tasks_total",
            self.tasks_by_driver[label],
            labels={"executor_id": executor_id, "driver": label},
            kind="counter",
        )

    def note_inference(self, driver: str | None, info: dict) -> None:
        """Fold one inference-convergence summary from a driver."""
        if not isinstance(info, dict):
            return
        label = driver or "unattributed"
        with self._lock:
            self.inference_by_driver[label] = dict(info)
            self._drivers_seen.add(label)
        self.store.record(
            "fleet_replicates_total",
            float(info.get("replicates_total", 0)),
            labels={"driver": label},
            kind="counter",
        )

    def note_heartbeat(self, record: Any) -> None:
        """Fold one :class:`~repro.engine.heartbeat.HeartbeatRecord`."""
        with self._lock:
            self.heartbeats_received += 1
        labels = {"executor_id": record.executor_id}
        self.store.record(
            "fleet_executor_rss_bytes", float(record.rss_bytes), labels=labels
        )
        self.store.record(
            "fleet_executor_inflight", float(len(record.inflight)), labels=labels
        )
        self.store.record(
            "fleet_records_read",
            float(record.records_read),
            labels=labels,
            kind="counter",
        )

    def note_frame_bytes(self, bytes_in: int = 0, bytes_out: int = 0) -> None:
        with self._lock:
            self.frame_bytes_in += bytes_in
            self.frame_bytes_out += bytes_out

    # -- periodic sampling -------------------------------------------------

    def sample(self, manager: Any) -> None:
        """Record gauges the fold points cannot see (called from the
        manager's dispatch loop, so worker state reads race-free)."""
        per_exec: dict[str, dict[str, float]] = {}
        for handle in manager.workers:
            info = per_exec.setdefault(
                handle.executor_id, {"slots": 0.0, "busy": 0.0, "queued": 0.0}
            )
            info["slots"] += 1
            if handle.alive and handle.inflight:
                info["busy"] += 1
            info["queued"] += len(handle.inflight)
        for eid, info in per_exec.items():
            labels = {"executor_id": eid}
            occupancy = info["busy"] / info["slots"] if info["slots"] else 0.0
            self.store.record("fleet_slot_occupancy", occupancy, labels=labels)
            self.store.record("fleet_queue_depth", info["queued"], labels=labels)
        transport = getattr(manager, "transport", None)
        if transport is not None:
            self.store.record(
                "fleet_transport_bytes_published",
                float(getattr(transport, "bytes_published", 0)),
                kind="counter",
            )
            self.store.record(
                "fleet_transport_dedup_hits",
                float(getattr(transport, "dedup_hits", 0)),
                kind="counter",
            )
        with self._lock:
            bytes_in, bytes_out = self.frame_bytes_in, self.frame_bytes_out
        self.store.record("fleet_frame_bytes_in", float(bytes_in), kind="counter")
        self.store.record("fleet_frame_bytes_out", float(bytes_out), kind="counter")

    # -- queries -----------------------------------------------------------

    def warm_summary(self, manager: Any) -> dict:
        """Warm-cache economics: what persistence actually saved."""
        transport = getattr(manager, "transport", None)
        published = int(getattr(transport, "bytes_published", 0) or 0)
        dedup_hits = int(getattr(transport, "dedup_hits", 0) or 0)
        saved = int(getattr(transport, "dedup_bytes_saved", 0) or 0)
        # hit rate over all dedup-eligible publications: hits / (hits + stores)
        stores = len(getattr(transport, "_by_hash", {}) or {})
        total = dedup_hits + stores
        return {
            "bytes_published": published,
            "dedup_hits": dedup_hits,
            "warm_bytes_saved": saved,
            "dedup_hit_rate": (dedup_hits / total) if total else 0.0,
            "binaries_cached": len(getattr(manager, "_shipped", ()) or ()),
        }

    def snapshot(self, manager: Any = None, window: float | None = None) -> dict:
        """One JSON-safe dict answering ``/api/fleet`` (and the event log's
        ``fleet`` line)."""
        with self._lock:
            out: dict[str, Any] = {
                "started_wall": self.started_wall,
                "uptime_seconds": time.perf_counter() - self._started_mono,
                "jobs_served": self.jobs_served,
                "tasks_completed": self.tasks_completed,
                "task_errors": self.task_errors,
                "tasks_by_driver": dict(self.tasks_by_driver),
                "inference_by_driver": {
                    d: dict(i) for d, i in self.inference_by_driver.items()
                },
                "drivers_seen": sorted(self._drivers_seen),
                "heartbeats_received": self.heartbeats_received,
                "frame_bytes_in": self.frame_bytes_in,
                "frame_bytes_out": self.frame_bytes_out,
                "lifecycle": [list(item) for item in self._lifecycle],
            }
        if manager is not None:
            out["executors"] = manager.executor_info()
            out["warm"] = self.warm_summary(manager)
        out["series"] = self.store.dump(window)
        out["series_names"] = self.store.names()
        return out


def render_fleet_families(
    snapshot: dict, skip: "frozenset[str] | set[str]" = frozenset()
) -> list[str]:
    """OpenMetrics lines (TYPE + latest sample per series) for a fleet
    snapshot, for appending to the driver's ``/metrics`` exposition.

    ``skip`` holds family names the process registry already exposes:
    emitting a second HELP/TYPE block for the same name is a scrape
    error, so on a multi-driver fleet the Context's families always win
    and colliding fleet families are dropped rather than duplicated.
    """
    from repro.obs.registry import _escape_label_value, _format_value

    by_name: dict[str, list[dict]] = {}
    for series in snapshot.get("series", ()):
        name = series.get("name", "")
        if not name or name in skip or not series.get("samples"):
            continue
        by_name.setdefault(name, []).append(series)
    lines: list[str] = []
    for name in sorted(by_name):
        kind = by_name[name][0].get("kind", "gauge")
        lines.append(f"# HELP {name} fleet-resident series (cluster manager)")
        lines.append(f"# TYPE {name} {kind}")
        for series in by_name[name]:
            labels = series.get("labels", {}) or {}
            body = ",".join(
                f'{k}="{_escape_label_value(v)}"' for k, v in sorted(labels.items())
            )
            label_str = "{" + body + "}" if body else ""
            value = float(series["samples"][-1][1])
            lines.append(f"{name}{label_str} {_format_value(value)}")
    return lines


__all__ = ["FleetStats", "render_fleet_families"]
