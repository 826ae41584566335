"""Shuffle: map-side bucketing and the driver's map-output registry.

A map task buckets its key-value output by the shuffle dependency's
partitioner (:func:`bucket_map_output`) and returns the buckets; the
driver registers them here, tagged with the executor that produced them
(:meth:`ShuffleManager.register_map_output`, the only writer of map
outputs).  Before a reduce task launches, the scheduler prefetches the
frames for its partition (:meth:`ShuffleManager.fetch_blocks`).  When a
fault kills an executor, its map outputs are invalidated and subsequent
fetches raise :class:`FetchFailedError`, which the DAG scheduler handles by
resubmitting the parent stage's missing tasks -- exactly Spark's recovery
path.

Map outputs are stored as *frames* (:class:`ShuffleBlock`, encoded by
:func:`repro.engine.serializer.dumps`), not live Python lists.  Each bucket
is encoded once, in the map task; the reduce task decodes lazily, one
map-output frame at a time.  This is the analogue of Spark's serialized
shuffle files: a worker-process map task ships its frames to the driver as
opaque bytes (no per-record pickle overhead), and the driver adopts them
without a decode/re-encode cycle.  Records written (and the encode time)
are counted by the map task; bytes written are priced by the driver when
it registers the frames.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.engine.serializer import dumps

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.dependencies import ShuffleDependency
    from repro.engine.metrics import TaskMetrics


class FetchFailedError(RuntimeError):
    """Raised by a reduce task when a map output is unavailable."""

    def __init__(self, shuffle_id: int, map_partition: int) -> None:
        super().__init__(f"shuffle {shuffle_id} map output {map_partition} unavailable")
        self.shuffle_id = shuffle_id
        self.map_partition = map_partition


@dataclass
class MapStatus:
    """Completion record for one map task's shuffle output."""

    shuffle_id: int
    map_partition: int
    executor_id: str
    bytes_by_reducer: tuple[int, ...]


@dataclass
class ShuffleBlock:
    """One reduce partition's worth of a map task's output, as bytes.

    ``payload`` is a frame; ``len(payload)`` is what the
    ``shuffle_bytes_written`` metric and ``MapStatus.bytes_by_reducer``
    report.
    """

    payload: bytes
    num_records: int


def bucket_map_output(
    dep: "ShuffleDependency", records: Iterable, metrics: "TaskMetrics"
) -> dict[int, ShuffleBlock]:
    """Bucket ``records`` by key (map-side combining them when the
    dependency's aggregator asks) and encode each bucket as one frame."""
    partitioner = dep.partitioner
    buckets: dict[int, list] = {i: [] for i in range(partitioner.num_partitions)}
    agg = dep.aggregator
    if agg is not None and agg.map_side_combine:
        combined: dict[int, dict] = {i: {} for i in range(partitioner.num_partitions)}
        for key, value in records:
            bucket = combined[partitioner.partition(key)]
            if key in bucket:
                bucket[key] = agg.merge_value(bucket[key], value)
            else:
                bucket[key] = agg.create_combiner(value)
        for reduce_idx, bucket in combined.items():
            buckets[reduce_idx] = list(bucket.items())
    else:
        for key, value in records:
            buckets[partitioner.partition(key)].append((key, value))

    encode_start = time.perf_counter()
    blocks = {
        reduce_idx: ShuffleBlock(dumps(bucket), len(bucket))
        for reduce_idx, bucket in buckets.items()
    }
    metrics.serializer_seconds += time.perf_counter() - encode_start
    metrics.shuffle_records_written += sum(len(bucket) for bucket in buckets.values())
    return blocks


class ShuffleManager:
    """The driver's registry of map outputs, held as frames; thread-safe."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # (shuffle_id, map_partition) -> {reduce_partition: ShuffleBlock}
        self._outputs: dict[tuple[int, int], dict[int, ShuffleBlock]] = {}
        # (shuffle_id, map_partition) -> executor that wrote it
        self._writers: dict[tuple[int, int], str] = {}
        # shuffle_id -> number of map partitions expected
        self._num_maps: dict[int, int] = {}

    # -- registration --------------------------------------------------------

    def register_shuffle(self, shuffle_id: int, num_maps: int) -> None:
        with self._lock:
            self._num_maps[shuffle_id] = num_maps

    def register_map_output(
        self,
        dep: "ShuffleDependency",
        map_partition: int,
        buckets: dict[int, ShuffleBlock],
        executor_id: str,
        metrics: "TaskMetrics | None" = None,
    ) -> MapStatus:
        """Adopt a map task's encoded buckets as this map partition's output.

        The task already partitioned the records, ran any map-side combine
        and encoded the buckets into frames (re-bucketing would apply
        ``create_combiner`` a second time, wrong for non-identity combiners
        such as ``fold_by_key`` zeros); the frames are adopted as-is.  The
        task counted its records written; bytes written are priced here.
        """
        sizes = tuple(
            len(buckets[i].payload) for i in range(dep.partitioner.num_partitions)
        )
        with self._lock:
            self._outputs[(dep.shuffle_id, map_partition)] = buckets
            self._writers[(dep.shuffle_id, map_partition)] = executor_id
        if metrics is not None:
            metrics.shuffle_bytes_written += sum(sizes)
        return MapStatus(dep.shuffle_id, map_partition, executor_id, sizes)

    # -- fetch ----------------------------------------------------------------

    def missing_maps(self, shuffle_id: int) -> set[int]:
        with self._lock:
            num = self._num_maps.get(shuffle_id)
            if num is None:
                raise KeyError(f"shuffle {shuffle_id} was never registered")
            have = {mp for (sid, mp) in self._outputs if sid == shuffle_id}
            return set(range(num)) - have

    def fetch_blocks(self, shuffle_id: int, reduce_partition: int) -> list[ShuffleBlock]:
        """All map-output frames destined for ``reduce_partition``.

        Raises :class:`FetchFailedError` on the first missing map output.
        Frames are returned still-encoded: the scheduler prefetches them
        for the reduce task as opaque bytes, and the task decodes lazily.
        """
        with self._lock:
            num_maps = self._num_maps.get(shuffle_id)
            if num_maps is None:
                raise KeyError(f"shuffle {shuffle_id} was never registered")
            blocks: list[ShuffleBlock] = []
            for map_partition in range(num_maps):
                output = self._outputs.get((shuffle_id, map_partition))
                if output is None:
                    raise FetchFailedError(shuffle_id, map_partition)
                block = output.get(reduce_partition)
                if block is not None:
                    blocks.append(block)
        return blocks

    # -- failure handling -------------------------------------------------------

    def remove_outputs_on_executor(self, executor_id: str) -> dict[int, set[int]]:
        """Invalidate all map outputs written by a dead executor.

        Returns ``{shuffle_id: {map_partitions lost}}``.
        """
        lost: dict[int, set[int]] = {}
        with self._lock:
            for key in list(self._writers):
                if self._writers[key] == executor_id:
                    shuffle_id, map_partition = key
                    lost.setdefault(shuffle_id, set()).add(map_partition)
                    del self._writers[key]
                    self._outputs.pop(key, None)
        return lost

    def clear(self) -> None:
        """Drop every map output (context stop)."""
        with self._lock:
            self._outputs.clear()
            self._writers.clear()

    def unregister_shuffle(self, shuffle_id: int) -> None:
        with self._lock:
            self._num_maps.pop(shuffle_id, None)
            for key in [k for k in self._outputs if k[0] == shuffle_id]:
                del self._outputs[key]
                self._writers.pop(key, None)
