"""In-memory ring-buffer time-series store behind the fleet plane.

:class:`~repro.obs.fleet.FleetStats` keeps its per-executor history here,
inside the cluster manager, so it outlives every driver.  Two pieces:

- :class:`Series` -- one metric's history as two retention tiers: a
  full-resolution **raw ring** (newest :data:`RAW_CAPACITY` samples) and a
  **downsampled ring** behind it.  Samples evicted from the raw ring are
  not dropped: every :data:`DOWNSAMPLE_FACTOR` of them folds into one
  min/max/mean :class:`Bin`, so old history degrades gracefully in
  resolution instead of disappearing.  Memory is strictly bounded:
  :data:`RAW_CAPACITY` points + :data:`DOWNSAMPLED_CAPACITY` bins per
  series.
- :class:`TimeSeriesStore` -- the keyed collection
  (``(metric name, label set) -> Series``), capped at :data:`MAX_SERIES`
  series, with :meth:`~TimeSeriesStore.record`,
  :meth:`~TimeSeriesStore.dump` and :meth:`~TimeSeriesStore.names`.

Timestamps are monotonic (:func:`time.perf_counter`), consistent with
spans, log records, and bus events.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping

#: full-resolution samples kept per series
RAW_CAPACITY = 512
#: raw samples folded into one downsampled bin
DOWNSAMPLE_FACTOR = 8
#: downsampled bins kept per series
DOWNSAMPLED_CAPACITY = 512
#: series a store holds before refusing new ones (cardinality guard)
MAX_SERIES = 4096

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


class Series:
    """One metric's bounded history; thread-safety lives in the store."""

    __slots__ = ("name", "labels", "kind", "raw", "downsampled", "_pending")

    def __init__(self, name: str, labels: LabelKey = (), kind: str = "gauge") -> None:
        self.name = name
        self.labels = labels
        self.kind = kind
        #: newest samples at full resolution, as (time, value)
        self.raw: deque[tuple[float, float]] = deque()
        #: older history, one Bin per DOWNSAMPLE_FACTOR evicted samples
        self.downsampled: deque[Bin] = deque(maxlen=DOWNSAMPLED_CAPACITY)
        self._pending: Bin | None = None

    def append(self, t: float, value: float) -> None:
        """Record one sample, folding the oldest raw one out when full."""
        self.raw.append((t, float(value)))
        while len(self.raw) > RAW_CAPACITY:
            old_t, old_v = self.raw.popleft()
            self._fold(old_t, old_v)

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
        if pending.count >= DOWNSAMPLE_FACTOR:
            self.downsampled.append(pending)
            self._pending = None

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

    def to_dict(self, start: float = -math.inf, end: float = math.inf) -> dict:
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "kind": self.kind,
            "samples": [[t, v] for t, v in self.samples(start, end)],
        }


class TimeSeriesStore:
    """Thread-safe collection of :class:`Series`, keyed by (name, labels)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._series: dict[tuple[str, LabelKey], Series] = {}
        #: series creations refused by the MAX_SERIES cap (cardinality guard)
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
                if len(self._series) >= MAX_SERIES:
                    self.series_dropped += 1
                    return None
                s = self._series[key] = Series(name, key[1], kind)
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

    def names(self) -> list[str]:
        with self._lock:
            return sorted({name for name, _ in self._series})

    def all_series(self) -> list[Series]:
        with self._lock:
            return [s for _, s in sorted(self._series.items())]

    def dump(self, window: float | None = None, now: float | None = None) -> list[dict]:
        """JSON-ready snapshot of every series (``/api/fleet``, FLEET
        frames); ``window`` trims to the trailing seconds."""
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


__all__ = [
    "Bin",
    "Series",
    "TimeSeriesStore",
    "label_key",
    "RAW_CAPACITY",
    "DOWNSAMPLE_FACTOR",
    "DOWNSAMPLED_CAPACITY",
    "MAX_SERIES",
]
