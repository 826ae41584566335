"""Process-wide metrics registry with Prometheus-style text exposition.

Three instrument kinds, deliberately tiny but semantically faithful:

- :class:`Counter` -- monotonically increasing totals;
- :class:`Gauge` -- a value that goes up and down;
- :class:`Histogram` -- cumulative fixed-bucket distribution with
  ``_bucket{le=...}`` / ``_sum`` / ``_count`` series.

All instruments support labels (``counter.labels(method="mc").inc()``).
:data:`REGISTRY` is the default process-wide registry; the driver paths in
:mod:`repro.core` record per-replicate resampling costs here so MC vs.
permutation economics are *measured*, and :class:`MetricsListener` bridges
the engine's listener bus into the same registry.
"""

from __future__ import annotations

import threading
from typing import Iterable, Mapping, Sequence

from repro.engine.listener import (
    BlockCached,
    BlockEvicted,
    BlockFetchedRemote,
    EngineEvent,
    ExecutorHeartbeat,
    ExecutorLost,
    ExecutorTimedOut,
    InferenceBatchCompleted,
    JobEnd,
    Listener,
    ShuffleFetch,
    ShuffleWrite,
    SnpSetConverged,
    StageSkewDetected,
    StragglerDetected,
    TaskEnd,
)

DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _escape_label_value(value: str) -> str:
    """Label-value escaping per the exposition formats: backslash, double
    quote, and line feed must be escaped or scrapers mis-parse the line."""
    return (
        str(value)
        .replace("\\", r"\\")
        .replace('"', r"\"")
        .replace("\n", r"\n")
    )


def _escape_help(text: str) -> str:
    """HELP text escaping: backslash and line feed."""
    return str(text).replace("\\", r"\\").replace("\n", r"\n")


def _format_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{k}="{_escape_label_value(v)}"' for k, v in sorted(labels.items())
    )
    return "{" + body + "}"


class _Child:
    """One labeled series of a parent instrument."""

    def __init__(self, parent: "_Instrument", labels: tuple[tuple[str, str], ...]) -> None:
        self._parent = parent
        self._labels = labels
        self._lock = threading.Lock()
        self._value = 0.0
        # histogram state
        self._bucket_counts = [0] * len(parent.buckets) if parent.kind == "histogram" else None
        self._sum = 0.0
        self._count = 0

    # counters / gauges --------------------------------------------------

    def inc(self, amount: float = 1.0) -> None:
        if self._parent.kind == "counter" and amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        if self._parent.kind != "gauge":
            raise TypeError("dec() is only valid on gauges")
        with self._lock:
            self._value -= amount

    def set(self, value: float) -> None:
        if self._parent.kind != "gauge":
            raise TypeError("set() is only valid on gauges")
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    # histograms ----------------------------------------------------------

    def observe(self, value: float) -> None:
        if self._parent.kind != "histogram":
            raise TypeError("observe() is only valid on histograms")
        with self._lock:
            self._sum += value
            self._count += 1
            # per-bucket (non-cumulative) storage; render()/quantile() cumulate
            for i, bound in enumerate(self._parent.buckets):
                if value <= bound:
                    self._bucket_counts[i] += 1
                    break

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def quantile(self, q: float) -> float:
        """Approximate quantile from bucket boundaries (upper bound)."""
        with self._lock:
            if self._count == 0:
                return 0.0
            target = q * self._count
            running = 0
            for bound, n in zip(self._parent.buckets, self._bucket_counts):
                running += n
                if running >= target:
                    return bound
            return float("inf")

    # -- delta shipping ---------------------------------------------------

    def _raw_state(self):
        """Lock-consistent raw state used by registry delta snapshots."""
        with self._lock:
            if self._parent.kind == "histogram":
                return (self._sum, self._count, tuple(self._bucket_counts))
            return self._value

    def _apply_histogram_delta(self, sum_d: float, count_d: int, bucket_d: Sequence[int]) -> None:
        with self._lock:
            self._sum += sum_d
            self._count += count_d
            for i, n in enumerate(bucket_d):
                if n and i < len(self._bucket_counts):
                    self._bucket_counts[i] += n


class _Instrument:
    """A named metric family; holds one child per label combination."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self.buckets = tuple(sorted(buckets))
        self._lock = threading.Lock()
        self._children: dict[tuple[tuple[str, str], ...], _Child] = {}

    def labels(self, **labels: str) -> _Child:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, got {sorted(labels)}"
            )
        key = tuple(sorted((k, str(v)) for k, v in labels.items()))
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = _Child(self, key)
            return child

    def _default_child(self) -> _Child:
        if self.labelnames:
            raise ValueError(f"{self.name} has labels {self.labelnames}; use .labels()")
        return self.labels()

    def children(self) -> dict[tuple[tuple[str, str], ...], _Child]:
        with self._lock:
            return dict(self._children)

    # unlabeled conveniences ------------------------------------------------

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default_child().dec(amount)

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    @property
    def value(self) -> float:
        return self._default_child().value

    @property
    def sum(self) -> float:
        return self._default_child().sum

    @property
    def count(self) -> int:
        return self._default_child().count


class Counter(_Instrument):
    kind = "counter"


class Gauge(_Instrument):
    kind = "gauge"


class Histogram(_Instrument):
    kind = "histogram"


class Registry:
    """A named collection of instruments with text exposition."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, _Instrument] = {}

    def _register(self, cls: type, name: str, help: str, **kwargs) -> _Instrument:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            instrument = cls(name, help, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "", labelnames: Iterable[str] = ()) -> Counter:
        return self._register(Counter, name, help, labelnames=labelnames)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "", labelnames: Iterable[str] = ()) -> Gauge:
        return self._register(Gauge, name, help, labelnames=labelnames)  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._register(Histogram, name, help, labelnames=labelnames, buckets=buckets)  # type: ignore[return-value]

    def get(self, name: str) -> _Instrument | None:
        with self._lock:
            return self._instruments.get(name)

    def instruments(self) -> list[_Instrument]:
        with self._lock:
            return list(self._instruments.values())

    def render(self, openmetrics: bool = False, timestamp: float | None = None) -> str:
        """Text exposition of every instrument.

        Default: Prometheus text format 0.0.4.  ``openmetrics=True``
        emits the OpenMetrics flavor -- the same HELP/TYPE/sample lines
        (label values escaped, metric families in stable name order,
        children in stable label order) with an optional per-sample
        ``timestamp`` (seconds) and the mandatory ``# EOF`` trailer, so
        real scrapers accept the endpoint.
        """
        suffix = ""
        if openmetrics and timestamp is not None:
            suffix = f" {_format_value(round(timestamp, 3))}"
        lines: list[str] = []
        for inst in sorted(self.instruments(), key=lambda i: i.name):
            lines.append(f"# HELP {inst.name} {_escape_help(inst.help)}")
            lines.append(f"# TYPE {inst.name} {inst.kind}")
            for key, child in sorted(inst.children().items()):
                labels = dict(key)
                if inst.kind == "histogram":
                    cumulative = 0
                    for bound, n in zip(inst.buckets, child._bucket_counts):
                        cumulative += n
                        bucket_labels = dict(labels)
                        bucket_labels["le"] = _format_value(bound)
                        lines.append(
                            f"{inst.name}_bucket{_format_labels(bucket_labels)} {cumulative}{suffix}"
                        )
                    inf_labels = dict(labels)
                    inf_labels["le"] = "+Inf"
                    lines.append(
                        f"{inst.name}_bucket{_format_labels(inf_labels)} {child.count}{suffix}"
                    )
                    lines.append(
                        f"{inst.name}_sum{_format_labels(labels)} {_format_value(child.sum)}{suffix}"
                    )
                    lines.append(
                        f"{inst.name}_count{_format_labels(labels)} {child.count}{suffix}"
                    )
                else:
                    lines.append(
                        f"{inst.name}{_format_labels(labels)} {_format_value(child.value)}{suffix}"
                    )
        if openmetrics:
            lines.append("# EOF")
        return "\n".join(lines) + "\n"

    def snapshot(self, include_histograms: bool = False) -> dict[str, float]:
        """Flat {series_name: value} view of counters/gauges (testing aid).

        With ``include_histograms=True``, histogram series contribute
        ``<name>_count{...}`` and ``<name>_sum{...}`` entries.
        """
        out: dict[str, float] = {}
        for inst in self.instruments():
            for key, child in inst.children().items():
                labels = _format_labels(dict(key))
                if inst.kind == "histogram":
                    if include_histograms:
                        out[f"{inst.name}_count{labels}"] = child.count
                        out[f"{inst.name}_sum{labels}"] = child.sum
                else:
                    out[inst.name + labels] = child.value
        return out

    # -- worker delta shipping -------------------------------------------
    #
    # Worker processes carry their own process-wide REGISTRY; increments
    # made there (size estimation, per-task instrumentation, GC meters)
    # would otherwise be silently dropped.  A worker snapshots state before
    # a task, collects the delta after, and ships it with the task result;
    # the driver merges it so serial and cluster expose identical series.

    def state_snapshot(self) -> dict:
        """Opaque baseline for a later :meth:`collect_delta`."""
        state: dict = {}
        for inst in self.instruments():
            for key, child in inst.children().items():
                state[(inst.name, key)] = child._raw_state()
        return state

    def collect_delta(self, baseline: dict) -> dict:
        """Shippable (picklable, plain-data) diff since ``baseline``.

        Counters/gauges ship the increment; histograms ship (sum, count,
        per-bucket) increments.  Series unchanged since the baseline are
        omitted.
        """
        delta: dict = {}
        for inst in self.instruments():
            series = []
            for key, child in inst.children().items():
                now = child._raw_state()
                base = baseline.get((inst.name, key))
                if inst.kind == "histogram":
                    b_sum, b_count, b_buckets = base or (0.0, 0, ())
                    if now[1] == b_count and now[0] == b_sum:
                        continue
                    buckets = [
                        n - (b_buckets[i] if i < len(b_buckets) else 0)
                        for i, n in enumerate(now[2])
                    ]
                    series.append({
                        "labels": dict(key),
                        "sum": now[0] - b_sum,
                        "count": now[1] - b_count,
                        "bucket_counts": buckets,
                    })
                else:
                    inc = now - (base or 0.0)
                    if inc == 0.0:
                        continue
                    series.append({"labels": dict(key), "inc": inc})
            if series:
                delta[inst.name] = {
                    "kind": inst.kind,
                    "help": inst.help,
                    "labelnames": list(inst.labelnames),
                    "buckets": list(inst.buckets) if inst.kind == "histogram" else None,
                    "series": series,
                }
        return delta

    def merge_delta(self, delta: dict) -> None:
        """Apply a worker-collected delta, creating instruments as needed."""
        for name, entry in delta.items():
            kind = entry["kind"]
            if kind == "histogram":
                inst = self.histogram(
                    name, entry["help"], labelnames=entry["labelnames"],
                    buckets=entry["buckets"] or DEFAULT_BUCKETS,
                )
            elif kind == "gauge":
                inst = self.gauge(name, entry["help"], labelnames=entry["labelnames"])
            else:
                inst = self.counter(name, entry["help"], labelnames=entry["labelnames"])
            for series in entry["series"]:
                child = inst.labels(**series["labels"])
                if kind == "histogram":
                    child._apply_histogram_delta(
                        series["sum"], series["count"], series["bucket_counts"]
                    )
                elif kind == "gauge":
                    child.inc(series["inc"])
                else:
                    # guard against clock/float noise producing negatives
                    child.inc(max(0.0, series["inc"]))


#: default process-wide registry
REGISTRY = Registry()


class MetricsListener(Listener):
    """Bridges the engine listener bus into a :class:`Registry`.

    Keeps engine-wide series live: job/task counts, task seconds, shuffle
    bytes and records, cache hits/misses/evictions, executor losses.
    """

    def __init__(self, registry: Registry | None = None) -> None:
        self.registry = registry or REGISTRY
        r = self.registry
        self.jobs_total = r.counter("engine_jobs_total", "jobs completed")
        self.tasks_total = r.counter(
            "engine_tasks_total", "task attempts finished", labelnames=("outcome",)
        )
        self.task_seconds = r.histogram("engine_task_seconds", "task attempt durations")
        self.shuffle_bytes = r.counter(
            "engine_shuffle_bytes_total", "shuffle bytes written"
        )
        self.shuffle_records = r.counter(
            "engine_shuffle_records_total", "shuffle records moved", labelnames=("direction",)
        )
        self.serializer_seconds = r.counter(
            "engine_serializer_seconds_total",
            "wall seconds spent encoding/decoding data-plane frames",
        )
        self.blocks_cached = r.counter("engine_blocks_cached_total", "blocks inserted into caches")
        self.block_bytes_cached = r.counter(
            "engine_block_bytes_cached_total", "bytes inserted into caches"
        )
        self.blocks_evicted = r.counter("engine_blocks_evicted_total", "blocks LRU-evicted")
        self.blocks_spilled = r.counter(
            "engine_blocks_spilled_total", "evicted blocks preserved on disk"
        )
        self.remote_fetches = r.counter(
            "engine_block_remote_fetches_total", "cache blocks served from a remote executor"
        )
        self.cache_hits = r.counter("engine_cache_hits_total", "task-side cache hits")
        self.cache_misses = r.counter("engine_cache_misses_total", "task-side cache misses")
        self.executors_lost = r.counter("engine_executors_lost_total", "executors lost")
        self.driver_bytes_collected = r.counter(
            "engine_driver_bytes_collected_total",
            "estimated bytes of task results materialized on the driver",
        )
        self.task_binary_bytes = r.counter(
            "engine_task_binary_bytes_total",
            "serialized stage task-binary bytes shipped to workers",
        )
        # -- executor telemetry plane ------------------------------------
        self.heartbeats = r.counter(
            "engine_executor_heartbeats_total", "executor heartbeats received",
            labelnames=("executor",),
        )
        self.executor_rss = r.gauge(
            "engine_executor_rss_bytes", "last heartbeat-reported RSS per executor",
            labelnames=("executor",),
        )
        self.executors_timed_out = r.counter(
            "engine_executors_timed_out_total",
            "busy executors declared lost after missing heartbeats",
        )
        self.gc_pause_seconds = r.counter(
            "engine_task_gc_pause_seconds_total",
            "GC pause time observed during task attempts",
        )
        self.deserialize_seconds = r.counter(
            "engine_task_deserialize_seconds_total",
            "worker-side task payload deserialization time",
        )
        self.result_serialize_seconds = r.counter(
            "engine_task_result_serialize_seconds_total",
            "worker-side task result serialization time",
        )
        self.peak_rss = r.gauge(
            "engine_task_peak_rss_bytes", "largest per-task peak RSS observed"
        )
        self.tasks_profiled = r.counter(
            "engine_tasks_profiled_total", "task attempts run under the sampled profiler"
        )
        # -- diagnostics ---------------------------------------------------
        # skew/straggler findings surface here as counters, so a /metrics
        # scrape sees them next to the task counters
        self.stage_skew = r.counter(
            "engine_stage_skew_total", "stages flagged with partition skew"
        )
        self.stragglers = r.counter(
            "engine_stragglers_total", "task attempts flagged as stragglers"
        )
        # -- inference convergence -----------------------------------------
        self.inference_replicates = r.counter(
            "engine_inference_replicates_total",
            "resampling replicates folded into convergence monitors",
            labelnames=("method",),
        )
        self.inference_sets_converged = r.counter(
            "engine_inference_sets_converged_total",
            "SNP-sets whose p-value confidence interval became decisive",
            labelnames=("status",),
        )
        self.inference_replicates_saved = r.counter(
            "engine_inference_replicates_saved_total",
            "planned replicates skipped by sequential early stopping",
        )

    def on_event(self, event: EngineEvent) -> None:
        if isinstance(event, JobEnd):
            self.jobs_total.inc()
        elif isinstance(event, TaskEnd):
            rec = event.record
            self.tasks_total.labels(outcome="success" if rec.succeeded else "failure").inc()
            if rec.succeeded:
                self.task_seconds.observe(rec.duration_seconds)
                self.cache_hits.inc(rec.metrics.cache_hits)
                self.cache_misses.inc(rec.metrics.cache_misses)
                self.driver_bytes_collected.inc(rec.metrics.driver_bytes_collected)
                self.task_binary_bytes.inc(rec.metrics.task_binary_bytes)
                self.serializer_seconds.inc(rec.metrics.serializer_seconds)
                self.gc_pause_seconds.inc(rec.metrics.gc_pause_seconds)
                self.deserialize_seconds.inc(rec.metrics.deserialize_seconds)
                self.result_serialize_seconds.inc(rec.metrics.result_serialize_seconds)
                if rec.metrics.peak_rss_bytes > self.peak_rss.value:
                    self.peak_rss.set(rec.metrics.peak_rss_bytes)
                if rec.profile is not None:
                    self.tasks_profiled.inc()
        elif isinstance(event, ExecutorHeartbeat):
            self.heartbeats.labels(executor=event.executor_id).inc()
            if event.rss_bytes:
                self.executor_rss.labels(executor=event.executor_id).set(event.rss_bytes)
        elif isinstance(event, ExecutorTimedOut):
            self.executors_timed_out.inc()
        elif isinstance(event, ShuffleWrite):
            self.shuffle_bytes.inc(event.bytes_written)
            self.shuffle_records.labels(direction="write").inc(event.records_written)
        elif isinstance(event, ShuffleFetch):
            self.shuffle_records.labels(direction="read").inc(event.records_read)
        elif isinstance(event, BlockCached):
            self.blocks_cached.inc()
            self.block_bytes_cached.inc(event.size)
        elif isinstance(event, BlockEvicted):
            self.blocks_evicted.inc()
            if event.spilled:
                self.blocks_spilled.inc()
        elif isinstance(event, BlockFetchedRemote):
            self.remote_fetches.inc()
        elif isinstance(event, ExecutorLost):
            self.executors_lost.inc()
        elif isinstance(event, StageSkewDetected):
            self.stage_skew.inc()
        elif isinstance(event, StragglerDetected):
            self.stragglers.inc()
        elif isinstance(event, InferenceBatchCompleted):
            if event.batch_width:
                self.inference_replicates.labels(method=event.method).inc(
                    event.batch_width
                )
            if event.replicates_saved:
                self.inference_replicates_saved.inc(event.replicates_saved)
        elif isinstance(event, SnpSetConverged):
            self.inference_sets_converged.labels(status=event.status).inc()


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "REGISTRY",
    "MetricsListener",
    "DEFAULT_BUCKETS",
]
