"""Shuffle manager: map-output registry and reduce-side fetch.

Map tasks bucket their key-value output by the shuffle dependency's
partitioner and register the buckets here, tagged with the executor that
produced them.  Reduce tasks fetch and merge the buckets for their
partition.  When a fault kills an executor, its map outputs are invalidated
and subsequent fetches raise :class:`FetchFailedError`, which the DAG
scheduler handles by resubmitting the parent stage's missing tasks --
exactly Spark's recovery path.

Map outputs are stored as *frames* (:class:`ShuffleBlock`, encoded by
:func:`repro.engine.serializer.dumps`), not live Python lists.  Each bucket
is encoded once on the write side; the reduce side decodes lazily, one
map-output frame at a time, as the fetch iterator advances.  This is the
analogue of Spark's serialized shuffle files: a worker-process map task
ships its frames to the driver as opaque bytes (no per-record pickle
overhead), and :meth:`register_map_output` adopts them without a
decode/re-encode cycle.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.engine.serializer import dumps, loads

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


class ShuffleManager:
    """Holds shuffle blocks as frames; thread-safe.

    ``track_bytes=False`` (worker-local managers) suppresses metric byte
    accounting -- the driver prices adopted buckets when it merges them --
    but frames are always encoded: they *are* the storage format.
    """

    def __init__(self, track_bytes: bool = True) -> None:
        self._lock = threading.Lock()
        # (shuffle_id, map_partition) -> {reduce_partition: ShuffleBlock}
        self._outputs: dict[tuple[int, int], dict[int, ShuffleBlock]] = {}
        # (shuffle_id, map_partition) -> executor that wrote it
        self._writers: dict[tuple[int, int], str] = {}
        # shuffle_id -> number of map partitions expected
        self._num_maps: dict[int, int] = {}
        self._track_bytes = track_bytes

    # -- registration --------------------------------------------------------

    def register_shuffle(self, shuffle_id: int, num_maps: int) -> None:
        with self._lock:
            self._num_maps[shuffle_id] = num_maps

    @staticmethod
    def encode_bucket(records: list) -> ShuffleBlock:
        """Encode one reduce bucket into a frame."""
        return ShuffleBlock(dumps(records), len(records))

    def write_map_output(
        self,
        dep: "ShuffleDependency",
        map_partition: int,
        records: Iterable,
        executor_id: str,
        metrics: "TaskMetrics | None" = None,
    ) -> MapStatus:
        """Bucket ``records`` by key, encode the buckets, register them."""
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
            reduce_idx: self.encode_bucket(bucket)
            for reduce_idx, bucket in buckets.items()
        }
        encode_seconds = time.perf_counter() - encode_start
        return self._register(
            dep.shuffle_id,
            map_partition,
            blocks,
            partitioner.num_partitions,
            executor_id,
            metrics,
            encode_seconds,
        )

    def register_map_output(
        self,
        dep: "ShuffleDependency",
        map_partition: int,
        buckets: "dict[int, ShuffleBlock] | dict[int, list]",
        executor_id: str,
        metrics: "TaskMetrics | None" = None,
    ) -> MapStatus:
        """Adopt pre-bucketed output computed by a worker process.

        The worker already partitioned the records, ran any map-side
        combine, *and encoded the buckets into frames*; pushing its
        output back through :meth:`write_map_output` would apply
        ``create_combiner`` a second time (wrong for non-identity combiners
        such as ``fold_by_key`` zeros) and pay a decode/re-encode cycle.
        Frames are adopted as-is; live lists (legacy callers / tests) are
        encoded here.  Byte accounting happens on this side of the process
        boundary: the worker counted ``shuffle_records_written`` into the
        task metrics but runs with ``track_bytes=False``.
        """
        partitioner = dep.partitioner
        encode_start = time.perf_counter()
        blocks: dict[int, ShuffleBlock] = {}
        for reduce_idx in range(partitioner.num_partitions):
            bucket = buckets.get(reduce_idx)
            if isinstance(bucket, ShuffleBlock):
                blocks[reduce_idx] = bucket
            else:
                blocks[reduce_idx] = self.encode_bucket(list(bucket or ()))
        encode_seconds = time.perf_counter() - encode_start
        return self._register(
            dep.shuffle_id,
            map_partition,
            blocks,
            partitioner.num_partitions,
            executor_id,
            metrics,
            encode_seconds,
            count_records=False,
        )

    def _register(
        self,
        shuffle_id: int,
        map_partition: int,
        blocks: dict[int, ShuffleBlock],
        num_reducers: int,
        executor_id: str,
        metrics: "TaskMetrics | None",
        encode_seconds: float,
        count_records: bool = True,
    ) -> MapStatus:
        sizes = tuple(len(blocks[i].payload) for i in range(num_reducers))
        status = MapStatus(shuffle_id, map_partition, executor_id, sizes)
        with self._lock:
            self._outputs[(shuffle_id, map_partition)] = blocks
            self._writers[(shuffle_id, map_partition)] = executor_id
        if metrics is not None:
            # encode time is charged where the encode ran; byte totals are
            # only priced on the driver side (track_bytes) so worker-side
            # managers never double-count
            metrics.serializer_seconds += encode_seconds
            if count_records:
                metrics.shuffle_records_written += sum(
                    block.num_records for block in blocks.values()
                )
            if self._track_bytes:
                metrics.shuffle_bytes_written += sum(sizes)
        return status

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
        Frames are returned still-encoded so the caller (reduce task, or
        the scheduler pre-fetching for a worker process) can move them as
        opaque bytes and decode lazily.
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

    def fetch(
        self,
        shuffle_id: int,
        reduce_partition: int,
        metrics: "TaskMetrics | None" = None,
    ) -> Iterator[tuple]:
        """Yield all (k, v) pairs destined for ``reduce_partition``.

        Decodes one map-output frame at a time as the iterator advances
        (lazy reduce-side decode).  Raises :class:`FetchFailedError` on the
        first missing map output.
        """
        blocks = self.fetch_blocks(shuffle_id, reduce_partition)
        for block in blocks:
            if block.num_records == 0:
                continue
            decode_start = time.perf_counter()
            records = loads(block.payload)
            if metrics is not None:
                metrics.serializer_seconds += time.perf_counter() - decode_start
                metrics.shuffle_records_read += block.num_records
                metrics.shuffle_bytes_read += len(block.payload)
            yield from records

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
