"""In-memory ring-buffer TSDB and the driver-side metrics sampler.

The missing time dimension of the observability plane: the metrics
registry (:mod:`repro.obs.registry`) answers *what is the value now*,
this module answers *how did it get there*.  Three pieces:

- :class:`Series` -- one metric's history as two retention tiers: a
  full-resolution **raw ring** (newest ``raw_capacity`` samples) and a
  **downsampled ring** behind it.  Samples evicted from the raw ring are
  not dropped: every ``downsample_factor`` of them folds into one
  min/max/mean :class:`Bin`, so old history degrades gracefully in
  resolution instead of disappearing.  Memory is strictly bounded:
  ``raw_capacity`` points + ``downsampled_capacity`` bins per series.
- :class:`TimeSeriesStore` -- the keyed collection
  (``(metric name, label set) -> Series``) with the query API: range
  scans (:meth:`~TimeSeriesStore.query`), counter rates over windows,
  and percentiles over windows.  :meth:`~TimeSeriesStore.observe_registry`
  snapshots every instrument of a metrics registry in one pass
  (histograms contribute their ``_count`` / ``_sum`` series).
- :class:`MetricsSampler` -- the driver thread that clocks the store: at
  a configurable interval it snapshots the process registry, hands the
  *changed* samples to tick sinks (the event log's v5 ``series`` side
  channel), and runs tick hooks (the alert engine evaluates its rules
  here).  ``EngineConfig.metrics_interval`` / ``--metrics-interval``
  own its lifecycle; :meth:`MetricsSampler.stop` joins the thread with
  a bounded timeout so contexts never leak it across tests.

Timestamps are monotonic (:func:`time.perf_counter`), consistent with
spans, log records, and bus events, so series interleave correctly with
every other signal from the same run.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.registry import Registry

LabelKey = tuple  # tuple[tuple[str, str], ...]


def label_key(labels: Mapping[str, str] | Iterable[tuple[str, str]] | None) -> LabelKey:
    """Canonical hashable form of a label set (sorted (k, v) pairs)."""
    if labels is None:
        return ()
    if isinstance(labels, Mapping):
        items = labels.items()
    else:
        items = labels
    return tuple(sorted((str(k), str(v)) for k, v in items))


@dataclass
class Bin:
    """One downsampled bucket: the aggregate of consecutive raw samples."""

    start: float
    end: float
    min: float
    max: float
    sum: float
    count: int

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "start": self.start,
            "end": self.end,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "count": self.count,
        }


class Series:
    """One metric's bounded history; thread-safety lives in the store."""

    __slots__ = (
        "name", "labels", "kind", "raw_capacity", "downsample_factor",
        "raw", "downsampled", "_pending", "last_change", "samples_recorded",
    )

    def __init__(
        self,
        name: str,
        labels: LabelKey = (),
        kind: str = "gauge",
        raw_capacity: int = 512,
        downsample_factor: int = 8,
        downsampled_capacity: int = 512,
    ) -> None:
        self.name = name
        self.labels = labels
        self.kind = kind
        self.raw_capacity = raw_capacity
        self.downsample_factor = downsample_factor
        #: newest samples at full resolution, as (time, value)
        self.raw: deque[tuple[float, float]] = deque()
        #: older history, one Bin per ``downsample_factor`` evicted samples
        self.downsampled: deque[Bin] = deque(maxlen=downsampled_capacity)
        self._pending: Bin | None = None
        #: time of the last sample whose value differed from its predecessor
        self.last_change: float | None = None
        self.samples_recorded = 0

    def append(self, t: float, value: float) -> bool:
        """Record one sample; returns True when the value changed."""
        changed = not self.raw or self.raw[-1][1] != value
        if changed:
            self.last_change = t
        self.raw.append((t, float(value)))
        self.samples_recorded += 1
        while len(self.raw) > self.raw_capacity:
            old_t, old_v = self.raw.popleft()
            self._fold(old_t, old_v)
        return changed

    def _fold(self, t: float, value: float) -> None:
        pending = self._pending
        if pending is None:
            self._pending = Bin(t, t, value, value, value, 1)
            return
        pending.end = t
        pending.min = min(pending.min, value)
        pending.max = max(pending.max, value)
        pending.sum += value
        pending.count += 1
        if pending.count >= self.downsample_factor:
            self.downsampled.append(pending)
            self._pending = None

    # -- queries ----------------------------------------------------------

    def latest(self) -> tuple[float, float] | None:
        return self.raw[-1] if self.raw else None

    def samples(
        self, start: float = -math.inf, end: float = math.inf
    ) -> list[tuple[float, float]]:
        """Range scan: downsampled bins (as their mean, at bin midpoint)
        followed by raw samples, both clipped to ``[start, end]``."""
        out: list[tuple[float, float]] = []
        for b in self.downsampled:
            mid = (b.start + b.end) / 2
            if start <= mid <= end:
                out.append((mid, b.mean))
        pending = self._pending
        if pending is not None:
            mid = (pending.start + pending.end) / 2
            if start <= mid <= end:
                out.append((mid, pending.mean))
        out.extend((t, v) for t, v in self.raw if start <= t <= end)
        return out

    def rate(self, window: float, now: float | None = None) -> float:
        """Per-second increase over the trailing window (counter ``rate()``).

        Sums positive deltas only, so a counter reset (process restart)
        reads as a pause, not a negative rate.
        """
        if now is None:
            latest = self.latest()
            now = latest[0] if latest else 0.0
        pts = self.samples(now - window, now)
        if len(pts) < 2:
            return 0.0
        increase = sum(
            max(0.0, b[1] - a[1]) for a, b in zip(pts, pts[1:])
        )
        elapsed = pts[-1][0] - pts[0][0]
        return increase / elapsed if elapsed > 0 else 0.0

    def percentile(self, q: float, window: float, now: float | None = None) -> float:
        """Linear-interpolated percentile of raw values in the window."""
        if now is None:
            latest = self.latest()
            now = latest[0] if latest else 0.0
        values = sorted(v for _, v in self.samples(now - window, now))
        if not values:
            return 0.0
        if len(values) == 1:
            return values[0]
        pos = min(max(q, 0.0), 1.0) * (len(values) - 1)
        lo = int(pos)
        frac = pos - lo
        if lo + 1 >= len(values):
            return values[-1]
        return values[lo] * (1 - frac) + values[lo + 1] * frac

    def window_stats(self, window: float, now: float | None = None) -> dict:
        """min/max/mean/first/last over the trailing window."""
        if now is None:
            latest = self.latest()
            now = latest[0] if latest else 0.0
        pts = self.samples(now - window, now)
        if not pts:
            return {"count": 0, "min": 0.0, "max": 0.0, "mean": 0.0,
                    "first": 0.0, "last": 0.0}
        values = [v for _, v in pts]
        return {
            "count": len(values),
            "min": min(values),
            "max": max(values),
            "mean": sum(values) / len(values),
            "first": values[0],
            "last": values[-1],
        }

    def seconds_since_change(self, now: float) -> float:
        """Age of the newest value *change* (absence-rule input)."""
        if self.last_change is None:
            return math.inf
        return max(0.0, now - self.last_change)

    def to_dict(self, start: float = -math.inf, end: float = math.inf) -> dict:
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "kind": self.kind,
            "samples": [[t, v] for t, v in self.samples(start, end)],
        }


class TimeSeriesStore:
    """Thread-safe collection of :class:`Series`, keyed by (name, labels)."""

    def __init__(
        self,
        raw_capacity: int = 512,
        downsample_factor: int = 8,
        downsampled_capacity: int = 512,
        max_series: int = 4096,
    ) -> None:
        self.raw_capacity = raw_capacity
        self.downsample_factor = downsample_factor
        self.downsampled_capacity = downsampled_capacity
        self.max_series = max_series
        self._lock = threading.Lock()
        self._series: dict[tuple[str, LabelKey], Series] = {}
        #: series creations refused by the max_series cap (cardinality guard)
        self.series_dropped = 0

    def series(
        self,
        name: str,
        labels: Mapping[str, str] | LabelKey | None = None,
        kind: str = "gauge",
    ) -> Series | None:
        """Get-or-create one series; None when the cardinality cap is hit."""
        key = (name, label_key(labels))
        with self._lock:
            s = self._series.get(key)
            if s is None:
                if len(self._series) >= self.max_series:
                    self.series_dropped += 1
                    return None
                s = self._series[key] = Series(
                    name, key[1], kind,
                    raw_capacity=self.raw_capacity,
                    downsample_factor=self.downsample_factor,
                    downsampled_capacity=self.downsampled_capacity,
                )
            return s

    def record(
        self,
        name: str,
        value: float,
        labels: Mapping[str, str] | None = None,
        t: float | None = None,
        kind: str = "gauge",
    ) -> None:
        """Record one sample directly (series created on demand)."""
        s = self.series(name, labels, kind)
        if s is not None:
            with self._lock:
                s.append(t if t is not None else time.perf_counter(), value)

    def observe_registry(self, registry: "Registry", now: float) -> list[tuple]:
        """Snapshot every instrument into the store.

        Counters/gauges contribute their value; histograms contribute
        ``<name>_count`` and ``<name>_sum`` series (enough for windowed
        rates and means without per-bucket storage).  Returns the samples
        whose value *changed* since the previous tick, as
        ``(name, labels_dict, value)`` triples -- the compact payload the
        event-log side channel persists.
        """
        changed: list[tuple] = []
        for inst in registry.instruments():
            for key, child in inst.children().items():
                if inst.kind == "histogram":
                    pairs = (
                        (inst.name + "_count", float(child.count), "counter"),
                        (inst.name + "_sum", child.sum, "counter"),
                    )
                else:
                    pairs = ((inst.name, child.value, inst.kind),)
                for name, value, kind in pairs:
                    s = self.series(name, key, kind)
                    if s is None:
                        continue
                    with self._lock:
                        if s.append(now, value):
                            changed.append((name, dict(key), value))
        return changed

    # -- queries ----------------------------------------------------------

    def names(self) -> list[str]:
        with self._lock:
            return sorted({name for name, _ in self._series})

    def all_series(self, name: str | None = None) -> list[Series]:
        with self._lock:
            return [
                s for (n, _), s in sorted(self._series.items())
                if name is None or n == name
            ]

    def query(
        self,
        name: str,
        labels: Mapping[str, str] | None = None,
        start: float = -math.inf,
        end: float = math.inf,
    ) -> list[dict]:
        """Range scan over every series of ``name`` whose labels contain
        ``labels``; each result carries its full label set and samples."""
        want = label_key(labels) if labels else ()
        out = []
        for s in self.all_series(name):
            if want and not set(want) <= set(s.labels):
                continue
            with self._lock:
                out.append(s.to_dict(start, end))
        return out

    def rate(
        self,
        name: str,
        window: float,
        labels: Mapping[str, str] | None = None,
        now: float | None = None,
    ) -> float:
        """Summed per-second rate across matching series (``rate()``)."""
        want = label_key(labels) if labels else ()
        total = 0.0
        for s in self.all_series(name):
            if want and not set(want) <= set(s.labels):
                continue
            with self._lock:
                total += s.rate(window, now)
        return total

    def dump(self, window: float | None = None, now: float | None = None) -> list[dict]:
        """JSON-ready snapshot of every series (``/api/timeseries``,
        flight-recorder bundles); ``window`` trims to the trailing seconds."""
        series = self.all_series()
        if window is not None:
            if now is None:
                now = max(
                    (s.latest()[0] for s in series if s.latest() is not None),
                    default=0.0,
                )
            start = now - window
        else:
            start = -math.inf
        out = []
        with self._lock:
            for s in series:
                d = s.to_dict(start)
                if d["samples"]:
                    out.append(d)
        return out


class MetricsSampler:
    """Driver thread that snapshots a registry into a store at an interval.

    Tick sinks receive ``(now, changed_samples)`` after every snapshot
    (the event log's ``series`` side channel); tick hooks receive
    ``(now)`` (the alert engine).  Both are exception-isolated: a raising
    consumer can never kill the sampler.
    """

    def __init__(
        self,
        store: TimeSeriesStore,
        registry: "Registry | None" = None,
        interval: float = 0.25,
    ) -> None:
        if registry is None:
            from repro.obs.registry import REGISTRY

            registry = REGISTRY
        self.store = store
        self.registry = registry
        self.interval = interval
        self.ticks = 0
        self.samples_written = 0
        #: (consumer, exception) pairs from raising sinks/hooks
        self.consumer_errors: list[tuple] = []
        self._tick_sinks: list[Callable[[float, list], None]] = []
        self._tick_hooks: list[Callable[[float], None]] = []
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def add_tick_sink(self, sink: Callable[[float, list], None]) -> None:
        self._tick_sinks.append(sink)

    def add_tick_hook(self, hook: Callable[[float], None]) -> None:
        self._tick_hooks.append(hook)

    def tick(self, now: float | None = None) -> list[tuple]:
        """One sampling pass (callable directly in tests)."""
        if now is None:
            now = time.perf_counter()
        changed = self.store.observe_registry(self.registry, now)
        self.ticks += 1
        self.samples_written += len(changed)
        if changed:
            for sink in self._tick_sinks:
                try:
                    sink(now, changed)
                except Exception as exc:  # isolation
                    self.consumer_errors.append((sink, exc))
        for hook in self._tick_hooks:
            try:
                hook(now)
            except Exception as exc:
                self.consumer_errors.append((hook, exc))
        return changed

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._run, name="repro-metrics-sampler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Final tick, then join the thread (bounded) -- no leaked threads."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        try:
            self.tick()  # flush the last interval's worth of changes
        except Exception:
            pass

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.tick()
            except Exception:  # never kill the sampler on a transient error
                pass


__all__ = [
    "Bin",
    "Series",
    "TimeSeriesStore",
    "MetricsSampler",
    "label_key",
]
