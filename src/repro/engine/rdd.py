"""Resilient Distributed Datasets: lazy, partitioned, lineage-tracked.

This module defines the :class:`RDD` base class and the operators
SparkScore's Algorithms 1-3, the examples and the benchmarks call: the
narrow transformations, ``repartition``, the key-value operators
``map_values`` / ``reduce_by_key`` / ``join``, and the actions ``collect``,
``count`` and ``sum``.  Names follow Python convention (``flat_map``, not
``flatMap``).

RDDs hold a reference to their driver :class:`~repro.engine.context.Context`
for action execution; the reference is dropped on pickling (cluster
backend) because workers never run actions.  An RDD's pickle is *thin*: a
``parallelize`` partition travels as a content-hash ref a worker resolves
for the one split it runs, so a lineage pickles to kilobytes whatever the
dataset's size -- and the SHA-256 of a cached RDD's pickle is the key its
blocks are resident under on the workers.
"""

from __future__ import annotations

import errno
import functools
import itertools
import operator
import os
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, TypeVar

from repro.engine.dependencies import (
    Aggregator,
    Dependency,
    OneToOneDependency,
    ShuffleDependency,
)
from repro.engine.partitioner import HashPartitioner
from repro.engine.task import TaskContext
from repro.engine.transport import ByRef

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.context import Context

T = TypeVar("T")
U = TypeVar("U")


class RDD:
    """A lazy, immutable, partitioned collection with lineage."""

    def __init__(self, ctx: "Context", dependencies: list[Dependency], name: str | None = None) -> None:
        self.context = ctx
        self.id = ctx._new_rdd_id()
        self.dependencies = dependencies
        self._cached = False
        self.name = name or type(self).__name__
        #: set when the RDD's output is co-partitioned by a known partitioner
        self.partitioner = None

    # -- core interface -----------------------------------------------------

    def num_partitions(self) -> int:
        raise NotImplementedError

    def compute(self, split: int, tc: TaskContext) -> Iterator:
        """Compute partition ``split`` from parents (no cache involvement)."""
        raise NotImplementedError

    def iterator(self, split: int, tc: TaskContext) -> Iterator:
        """Cache-aware access: this executor's cache, else compute and cache."""
        if not self._cached:
            return self.compute(split, tc)
        block_id = (self.id, split)
        data = tc.block_manager.get(block_id)
        if data is not None:
            tc.metrics.cache_hits += 1
            return iter(data)
        tc.metrics.cache_misses += 1
        return iter(tc.block_manager.put(block_id, self.compute(split, tc), metrics=tc.metrics))

    # -- caching ----------------------------------------------------------------

    def cache(self) -> "RDD":
        """Mark for caching in the executors' block managers.  Returns self."""
        self._cached = True
        return self

    def unpersist(self) -> "RDD":
        """Drop the caching flag and evict any cached blocks."""
        self._cached = False
        if self.context is not None:
            self.context._drop_cached_rdd(self.id)
        return self

    @property
    def is_cached(self) -> bool:
        return self._cached

    # -- pickling (process backend) ---------------------------------------------

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["context"] = None
        return state

    # -- narrow transformations ---------------------------------------------

    def map_partitions(
        self,
        func: Callable[[Iterator], Iterator],
        name: str | None = None,
        preserves_partitioning: bool = False,
    ) -> "RDD":
        """The fundamental narrow transform: ``func(iter) -> iter`` per partition."""
        return MappedPartitionsRDD(
            self.context, self, _IndexlessFn(func), name or "map_partitions",
            preserves_partitioning,
        )

    def map(self, func: Callable[[T], U]) -> "RDD":
        return MappedPartitionsRDD(self.context, self, _MapFn(func), "map")

    def filter(self, predicate: Callable[[T], bool]) -> "RDD":
        # filtering never changes keys, so partitioning survives
        return MappedPartitionsRDD(
            self.context, self, _FilterFn(predicate), "filter",
            preserves_partitioning=True,
        )

    def flat_map(self, func: Callable[[T], Iterable[U]]) -> "RDD":
        return MappedPartitionsRDD(self.context, self, _FlatMapFn(func), "flat_map")

    def repartition(self, num_partitions: int) -> "RDD":
        """Redistribute elements evenly across ``num_partitions`` via a shuffle.

        The partition count may grow or shrink, and a skewed partition is
        always broken up: elements are dealt round-robin onto reducers
        regardless of where they currently sit.
        """
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        keyed = MappedPartitionsRDD(
            self.context, self, _RoundRobinKeyFn(num_partitions), "repartition"
        )
        shuffled = ShuffledRDD(
            self.context, keyed, HashPartitioner(num_partitions), None, "repartition"
        )
        return MappedPartitionsRDD(
            self.context, shuffled, _drop_keys_fn, "repartition"
        )

    # -- key-value operators ------------------------------------------------------

    def map_values(self, func: Callable) -> "RDD":
        """``(k, v) -> (k, func(v))``; keys, hence partitioning, survive."""
        return self.map_partitions(
            _MapValuesFn(func), name="map_values", preserves_partitioning=True
        )

    def reduce_by_key(self, op: Callable, num_partitions: int | None = None) -> "RDD":
        """Merge each key's values with ``op``, combining map-side first.

        Input already hash-partitioned into the target partitioning (a
        ``reduce_by_key`` or ``join`` output, kept through ``map_values`` or
        ``filter``) is reduced within its partitions, without a shuffle.
        """
        partitioner = HashPartitioner(_default_partitions(self, num_partitions))
        if self.partitioner == partitioner:
            return self.map_partitions(
                _LocalReduceFn(op), name="reduce_by_key(local)",
                preserves_partitioning=True,
            )
        return ShuffledRDD(
            self.context, self, partitioner, Aggregator(_identity, op, op), "reduce_by_key"
        )

    def join(self, other: "RDD", num_partitions: int | None = None) -> "RDD":
        """Inner join: ``(k, (v, w))`` for every pairing of values under ``k``.

        A side already hash-partitioned lends the join its partitioner and
        joins through a narrow dependency; the other side is shuffled to it.
        """
        partitioner = HashPartitioner(_default_partitions(self, num_partitions))
        for rdd in (self, other):
            if isinstance(rdd.partitioner, HashPartitioner):
                partitioner = rdd.partitioner
                break
        return CoGroupedRDD(self.context, self, other, partitioner).flat_map(
            _InnerJoinExpandFn()
        )

    # -- actions ----------------------------------------------------------------

    def collect(self) -> list:
        return [item for part in self.context.run_job(self, list) for item in part]

    def count(self) -> int:
        return sum(self.context.run_job(self, _count_iter))

    def sum(self) -> Any:
        """Left fold with ``+`` from 0: in each partition, then over the partials."""
        return _sum_iter(self.context.run_job(self, _sum_iter))

    # -- introspection ---------------------------------------------------------

    def lineage(self) -> list["RDD"]:
        """All ancestor RDDs (self included), deduplicated, parents first."""
        seen: dict[int, RDD] = {}

        def visit(rdd: "RDD") -> None:
            if rdd.id in seen:
                return
            for dep in rdd.dependencies:
                visit(dep.rdd)
            seen[rdd.id] = rdd

        visit(self)
        return list(seen.values())

    def to_debug_string(self) -> str:
        """Spark-style indented lineage dump.

        Each node shows its partition count, a ``*`` marker when cached, and
        -- for cached RDDs -- how many partitions are currently materialised
        in executor block managers.
        """
        lines: list[str] = []

        def visit(rdd: "RDD", depth: int) -> None:
            marker = "*" if rdd.is_cached else " "
            label = f"{'  ' * depth}({rdd.num_partitions()}){marker} {rdd.name} [{rdd.id}]"
            if rdd.is_cached:
                cached = rdd.context.cached_partition_count(rdd)
                label += f" <{cached}/{rdd.num_partitions()} cached>"
            lines.append(label)
            for dep in rdd.dependencies:
                if isinstance(dep, ShuffleDependency):
                    lines.append(f"{'  ' * (depth + 1)}+-- shuffle {dep.shuffle_id} --")
                    visit(dep.rdd, depth + 2)
                else:
                    visit(dep.rdd, depth + 1)

        visit(self, 0)
        return "\n".join(lines)

    def explain(self) -> str:
        """Human-oriented plan dump: lineage tree plus a stage summary.

        The tree is :meth:`to_debug_string`; below it, one line per shuffle
        boundary explains where the scheduler will cut stages and how many
        partitions cross each shuffle.  ``sparkscore doctor`` points at this
        when it recommends repartitioning an RDD.
        """
        lines = [self.to_debug_string()]
        shuffles = [
            dep
            for rdd in self.lineage()
            for dep in rdd.dependencies
            if isinstance(dep, ShuffleDependency)
        ]
        if shuffles:
            lines.append("")
            for dep in sorted(shuffles, key=lambda d: d.shuffle_id):
                lines.append(
                    f"shuffle {dep.shuffle_id}: {dep.rdd.num_partitions()} map partition(s)"
                    f" -> {dep.partitioner.num_partitions} reduce partition(s)"
                    f" [{type(dep.partitioner).__name__}]"
                )
        else:
            lines.append("")
            lines.append("no shuffles: whole lineage runs as a single stage")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(id={self.id}, name={self.name!r}, partitions={self.num_partitions()})"


class _MapFn:
    """Picklable per-partition wrapper for ``map`` (process backend)."""

    def __init__(self, func: Callable) -> None:
        self.func = func

    def __call__(self, _split: int, it: Iterator) -> Iterator:
        return map(self.func, it)


class _FilterFn:
    def __init__(self, predicate: Callable) -> None:
        self.predicate = predicate

    def __call__(self, _split: int, it: Iterator) -> Iterator:
        return filter(self.predicate, it)


class _FlatMapFn:
    def __init__(self, func: Callable) -> None:
        self.func = func

    def __call__(self, _split: int, it: Iterator) -> Iterator:
        return itertools.chain.from_iterable(map(self.func, it))


class _IndexlessFn:
    """Adapts ``func(iterator)`` to the ``func(split, iterator)`` interface."""

    def __init__(self, func: Callable) -> None:
        self.func = func

    def __call__(self, _split: int, it: Iterator) -> Iterator:
        return self.func(it)


class _RoundRobinKeyFn:
    """Deal elements round-robin onto reducer keys (repartition map side)."""

    def __init__(self, num_partitions: int) -> None:
        self.num_partitions = num_partitions

    def __call__(self, split: int, it: Iterator) -> Iterator:
        # scatter each map partition's starting reducer so short partitions
        # don't all pile onto the same few low-numbered reducers
        n = self.num_partitions
        start = (split * 2654435761) % n
        return (((start + i) % n, item) for i, item in enumerate(it))


def _drop_keys_fn(_split: int, it: Iterator) -> Iterator:
    return (item for _key, item in it)


def _count_iter(it: Iterator) -> int:
    return sum(1 for _ in it)


def _sum_iter(it: Iterable) -> Any:
    return functools.reduce(operator.add, it, 0)


def _identity(value: Any) -> Any:
    return value


def _default_partitions(rdd: RDD, num_partitions: int | None) -> int:
    if num_partitions is not None:
        return num_partitions
    return rdd.context.config.default_parallelism


class _MapValuesFn:
    """Picklable value-mapper keeping keys (and hence partitioning)."""

    def __init__(self, func: Callable) -> None:
        self.func = func

    def __call__(self, it: Iterator) -> Iterator:
        return ((k, self.func(v)) for k, v in it)


class _LocalReduceFn:
    """Picklable in-partition ``reduce_by_key`` for co-partitioned input."""

    def __init__(self, op: Callable) -> None:
        self.op = op

    def __call__(self, it: Iterator) -> Iterator:
        merged: dict = {}
        for k, v in it:
            merged[k] = self.op(merged[k], v) if k in merged else v
        return iter(merged.items())


class _InnerJoinExpandFn:
    """Picklable inner-join expansion over cogrouped value lists."""

    def __call__(self, kv):
        key, (left, right) = kv
        return [(key, (v, w)) for v in left for w in right]


class ParallelCollectionRDD(RDD):
    """An in-memory collection sliced into partitions at the driver."""

    def __init__(self, ctx: "Context", data: Iterable, num_partitions: int, name: str = "parallelize") -> None:
        super().__init__(ctx, [], name)
        items = data if isinstance(data, list) else list(data)
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        self._slices = _slice_collection(items, num_partitions)
        #: the slices as ByRef holders, made on the first cluster pickle
        self._published: "_PublishedSlices | None" = None

    def num_partitions(self) -> int:
        return len(self._slices)

    def compute(self, split: int, tc: TaskContext) -> Iterator:
        part = self._slices[split]
        tc.metrics.records_read += len(part)
        return iter(part)

    def __getstate__(self) -> dict:
        state = super().__getstate__()
        state["_published"] = None
        transport = getattr(self.context, "transport", None)
        if transport is not None:
            if self._published is None:
                self._published = _PublishedSlices(
                    [ByRef(part, transport) for part in self._slices]
                )
                # the context deletes the published segments when it stops
                self.context._track_published(self._published.parts)
            state["_slices"] = self._published
        return state


class _PublishedSlices:
    """What ``_slices`` is in a worker: partitions resolved on access.

    Each partition is its own :class:`~repro.engine.transport.ByRef`, so a
    task fetches (and the worker memoizes) only the split it computes.
    """

    def __init__(self, parts: "list[ByRef]") -> None:
        self.parts = parts

    def __len__(self) -> int:
        return len(self.parts)

    def __getitem__(self, split: int) -> list:
        return self.parts[split].value


def _slice_collection(items: list, num_partitions: int) -> list[list]:
    """Evenly slice a list, matching Spark's contiguous-range slicing."""
    n = len(items)
    slices = []
    for i in range(num_partitions):
        start = (i * n) // num_partitions
        end = ((i + 1) * n) // num_partitions
        slices.append(items[start:end])
    return slices


class MappedPartitionsRDD(RDD):
    """Applies ``func(split, iterator)`` to the single parent partition.

    ``preserves_partitioning`` must only be set when ``func`` does not
    change element keys (map_values, filter); a key-changing map that kept
    the parent's partitioner would let ``reduce_by_key`` skip a required
    shuffle and silently produce per-partition partial results.
    """

    def __init__(
        self,
        ctx: "Context",
        parent: RDD,
        func: Callable[[int, Iterator], Iterator],
        name: str,
        preserves_partitioning: bool = False,
    ) -> None:
        super().__init__(ctx, [OneToOneDependency(parent)], name)
        self._parent = parent
        self._func = func
        if preserves_partitioning:
            self.partitioner = parent.partitioner

    def num_partitions(self) -> int:
        return self._parent.num_partitions()

    def compute(self, split: int, tc: TaskContext) -> Iterator:
        return iter(self._func(split, self._parent.iterator(split, tc)))


class TextFileRDD(RDD):
    """Lines of a local text file (or directory of part files), one
    partition per split of its bytes.

    The file is split into ``min_partitions`` byte ranges; a split owns the
    lines that start in its range (Hadoop's rule), decided at read time.
    """

    def __init__(self, ctx: "Context", path: str, min_partitions: int) -> None:
        super().__init__(ctx, [], f"text:{os.path.basename(path)}")
        if os.path.isdir(path):
            self._files = sorted(
                os.path.join(path, f) for f in os.listdir(path) if not f.startswith((".", "_"))
            )
        else:
            self._files = [path]
        if not self._files:
            raise FileNotFoundError(errno.ENOENT, "no input files", path)
        # one or more splits per file, proportional to size
        total = sum(os.path.getsize(f) for f in self._files)
        self._splits: list[tuple[str, int, int]] = []  # (file, start, end)
        for filename in self._files:
            size = os.path.getsize(filename)
            if total > 0:
                share = max(1, round(min_partitions * size / total))
            else:
                share = 1
            chunk = max(1, -(-size // share))
            start = 0
            while start < size or (start == 0 and size == 0):
                end = min(size, start + chunk)
                self._splits.append((filename, start, end))
                if end >= size:
                    break
                start = end

    def num_partitions(self) -> int:
        return len(self._splits)

    def __getstate__(self) -> dict:
        # a cached descendant's resident blocks are keyed by the hash of
        # this pickle: a rewritten file must not find the old file's blocks
        state = super().__getstate__()
        state["_file_identity"] = [
            (st.st_size, st.st_mtime_ns) for st in map(os.stat, self._files)
        ]
        return state

    def _owned_range(self, fh, split: int) -> tuple[int, int]:
        # Hadoop line-split semantics: this split owns every line whose
        # starting byte offset s satisfies start <= s < end.  Seeking to
        # start-1 and discarding one readline() leaves the file positioned
        # at the first owned line regardless of whether `start` falls
        # mid-line or exactly on a line boundary; the last owned line is
        # the one holding byte end-1, read to its end.
        _, start, end = self._splits[split]
        if start > 0:
            fh.seek(start - 1)
            fh.readline()
        first = last = fh.tell()
        if first < end:
            fh.seek(end - 1)
            fh.readline()
            last = fh.tell()
        return first, last

    def read_split(self, split: int) -> "TextSplit":
        filename = self._splits[split][0]
        with open(filename, "rb") as fh:
            first, last = self._owned_range(fh, split)
            fh.seek(first)
            data = fh.read(last - first)
        return TextSplit(data, lambda: _lines_before(filename, first))

    def splits(self) -> RDD:
        """One :class:`TextSplit` per partition instead of its decoded lines."""
        return TextSplitsRDD(self.context, self)

    def compute(self, split: int, tc: TaskContext) -> Iterator:
        # streamed: a split's lines are never all in memory beside its bytes
        with open(self._splits[split][0], "rb") as fh:
            first, last = self._owned_range(fh, split)
            fh.seek(first)
            while fh.tell() < last:
                tc.metrics.records_read += 1
                yield fh.readline().decode("utf-8").rstrip("\n")


class TextSplit:
    """The lines one split of a text file owns, as the file's bytes.

    For consumers that parse a split in one pass over its buffer.
    ``lines_before()`` is the number of physical lines (``str.splitlines``
    breaks) that precede ``data`` in its file; it reads the file up to the
    split, so ask only to locate an error.
    """

    __slots__ = ("data", "lines_before")

    def __init__(self, data: bytes, lines_before: Callable[[], int]) -> None:
        self.data = data
        self.lines_before = lines_before


def _lines_before(filename: str, offset: int) -> int:
    """Physical lines of ``filename`` before byte ``offset`` (what
    :meth:`TextSplit.lines_before` counts)."""
    with open(filename, "rb") as fh:
        return len(fh.read(offset).decode("utf-8", "replace").splitlines())


class TextSplitsRDD(RDD):
    """``text_rdd.splits()``: each partition is its split's one :class:`TextSplit`."""

    def __init__(self, ctx: "Context", parent: TextFileRDD) -> None:
        super().__init__(ctx, [OneToOneDependency(parent)], f"splits:{parent.name}")
        self._parent = parent

    def num_partitions(self) -> int:
        return self._parent.num_partitions()

    def compute(self, split: int, tc: TaskContext) -> Iterator:
        tc.metrics.records_read += 1
        return iter([self._parent.read_split(split)])


class ShuffledRDD(RDD):
    """Reduce side of a shuffle: one partition per reducer.

    Reads the map outputs' frames for its partition, which the scheduler
    prefetched into the task context, and applies the dependency's
    aggregator.
    """

    def __init__(self, ctx, parent: RDD, partitioner, aggregator, name: str) -> None:
        shuffle_id = ctx._new_shuffle_id()
        dep = ShuffleDependency(parent, partitioner, shuffle_id, aggregator)
        super().__init__(ctx, [dep], name)
        self.shuffle_dep = dep
        self.partitioner = partitioner

    def num_partitions(self) -> int:
        return self.partitioner.num_partitions

    def compute(self, split: int, tc: TaskContext) -> Iterator:
        dep = self.shuffle_dep
        records = tc.shuffle_input(dep.shuffle_id, split)
        agg = dep.aggregator
        if agg is None:
            return records
        merged: dict = {}
        if agg.map_side_combine:
            # map outputs are already combiners; merge them across maps
            for k, combiner in records:
                if k in merged:
                    merged[k] = agg.merge_combiners(merged[k], combiner)
                else:
                    merged[k] = combiner
        else:
            for k, value in records:
                if k in merged:
                    merged[k] = agg.merge_value(merged[k], value)
                else:
                    merged[k] = agg.create_combiner(value)
        return iter(merged.items())


class CoGroupedRDD(RDD):
    """Groups two pair-RDDs by key: ``(k, (left_values, right_values))``,
    the input ``join`` expands.

    A parent already partitioned compatibly contributes through a narrow
    dependency; the other is shuffled.
    """

    def __init__(self, ctx, left: RDD, right: RDD, partitioner) -> None:
        deps: list[Dependency] = []
        self._dep_kinds: list[tuple[str, Any]] = []
        for parent in (left, right):
            if parent.partitioner is not None and parent.partitioner == partitioner:
                deps.append(OneToOneDependency(parent))
                self._dep_kinds.append(("narrow", parent))
            else:
                shuffle_id = ctx._new_shuffle_id()
                dep = ShuffleDependency(parent, partitioner, shuffle_id, None)
                deps.append(dep)
                self._dep_kinds.append(("shuffle", dep))
        super().__init__(ctx, deps, "cogroup")
        self.partitioner = partitioner

    def num_partitions(self) -> int:
        return self.partitioner.num_partitions

    def compute(self, split: int, tc: TaskContext) -> Iterator:
        grouped: dict[Any, tuple[list, list]] = {}

        for idx, (kind, source) in enumerate(self._dep_kinds):
            if kind == "narrow":
                records = source.iterator(split, tc)
            else:
                records = tc.shuffle_input(source.shuffle_id, split)
            for key, value in records:
                entry = grouped.get(key)
                if entry is None:
                    entry = grouped[key] = ([], [])
                entry[idx].append(value)
        return iter(grouped.items())
