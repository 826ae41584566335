"""RDD dependency descriptors.

Spark distinguishes *narrow* dependencies, where each child partition reads
a bounded set of parent partitions (map, filter), from *shuffle*
(wide) dependencies, where every child partition may read from every parent
partition (reduce_by_key, join).  The DAG scheduler splits the lineage graph
into stages at shuffle dependencies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.engine.partitioner import Partitioner
    from repro.engine.rdd import RDD


class Dependency:
    """Base class: a link from a child RDD to one parent RDD."""

    def __init__(self, rdd: "RDD") -> None:
        self.rdd = rdd


class NarrowDependency(Dependency):
    """Each child partition depends on a small, known set of parent partitions."""

    def parents(self, child_partition: int) -> list[int]:
        """Parent partition indices feeding ``child_partition``."""
        raise NotImplementedError


class OneToOneDependency(NarrowDependency):
    """Child partition ``i`` reads exactly parent partition ``i``."""

    def parents(self, child_partition: int) -> list[int]:
        return [child_partition]


class ShuffleDependency(Dependency):
    """A wide dependency: parent's key-value output is hash-partitioned.

    ``shuffle_id`` is assigned by the context and identifies the map-output
    registry in the shuffle manager.  ``aggregator`` optionally holds
    (create_combiner, merge_value, merge_combiners) callables for map-side
    combining, as used by ``reduce_by_key``.
    """

    def __init__(
        self,
        rdd: "RDD",
        partitioner: "Partitioner",
        shuffle_id: int,
        aggregator: Optional["Aggregator"] = None,
    ) -> None:
        super().__init__(rdd)
        self.partitioner = partitioner
        self.shuffle_id = shuffle_id
        self.aggregator = aggregator


class Aggregator:
    """Combiner callables for shuffle-time aggregation (Spark's ``Aggregator``)."""

    def __init__(
        self,
        create_combiner: Callable,
        merge_value: Callable,
        merge_combiners: Callable,
        map_side_combine: bool = True,
    ) -> None:
        self.create_combiner = create_combiner
        self.merge_value = merge_value
        self.merge_combiners = merge_combiners
        self.map_side_combine = map_side_combine
