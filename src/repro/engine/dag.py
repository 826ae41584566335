"""Stage graph construction from RDD lineage.

A *stage* is a maximal set of RDDs connected by narrow dependencies; stage
boundaries are exactly the :class:`ShuffleDependency` edges.  Shuffle-map
stages write map output for one shuffle id; the final (result) stage
computes the action.  A stage's id is drawn only after its parents are
built, so ascending stage id is a topological order of the stage DAG.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

from repro.engine.dependencies import NarrowDependency, ShuffleDependency

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.rdd import RDD


class Stage:
    """One schedulable stage: tasks over the partitions of ``rdd``."""

    def __init__(self, stage_id: int, rdd: "RDD", shuffle_dep: ShuffleDependency | None, parents: list["Stage"]) -> None:
        self.id = stage_id
        self.rdd = rdd
        #: the shuffle this stage's tasks write (None => result stage)
        self.shuffle_dep = shuffle_dep
        self.parents = parents
        self.num_tasks = rdd.num_partitions()
        self.attempt = 0

    @property
    def is_shuffle_map(self) -> bool:
        return self.shuffle_dep is not None

    @property
    def name(self) -> str:
        kind = f"shuffle_map[{self.shuffle_dep.shuffle_id}]" if self.shuffle_dep else "result"
        return f"stage {self.id} ({kind}: {self.rdd.name})"

    def parent_shuffle_ids(self) -> list[int]:
        """Shuffle ids this stage's tasks *read* (its input boundaries)."""
        return [dep.shuffle_id for dep in upstream_shuffle_deps(self.rdd)]

    def __repr__(self) -> str:
        return f"Stage(id={self.id}, rdd={self.rdd.name}, shuffle_map={self.is_shuffle_map})"


def upstream_shuffle_deps(rdd: "RDD") -> list[ShuffleDependency]:
    """Shuffle dependencies reachable from ``rdd`` through narrow deps only.

    These are the input boundaries of the stage ending at ``rdd``.
    """
    out: list[ShuffleDependency] = []
    seen: set[int] = set()
    frontier = [rdd]
    while frontier:
        node = frontier.pop()
        if node.id in seen:
            continue
        seen.add(node.id)
        for dep in node.dependencies:
            if isinstance(dep, ShuffleDependency):
                out.append(dep)
            elif isinstance(dep, NarrowDependency):
                frontier.append(dep.rdd)
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown dependency type {type(dep).__name__}")
    return out


class StageGraph:
    """The stage DAG for one job, plus lookup tables."""

    def __init__(self, final_rdd: "RDD", id_counter: "itertools.count[int]") -> None:
        self._ids = id_counter
        #: shuffle_id -> shuffle-map Stage (memoized so shared shuffles are
        #: computed once even when the lineage DAG is not a tree)
        self.shuffle_stages: dict[int, Stage] = {}
        #: every stage, appended as its id is drawn
        self._stages: list[Stage] = []
        self.result_stage = self._build_result_stage(final_rdd)

    # -- construction -----------------------------------------------------

    def _build_result_stage(self, rdd: "RDD") -> Stage:
        parents = self._parent_stages(rdd)
        stage = Stage(next(self._ids), rdd, None, parents)
        self._stages.append(stage)
        return stage

    def _shuffle_stage(self, dep: ShuffleDependency) -> Stage:
        existing = self.shuffle_stages.get(dep.shuffle_id)
        if existing is not None:
            return existing
        parents = self._parent_stages(dep.rdd)
        stage = Stage(next(self._ids), dep.rdd, dep, parents)
        self.shuffle_stages[dep.shuffle_id] = stage
        self._stages.append(stage)
        return stage

    def _parent_stages(self, rdd: "RDD") -> list[Stage]:
        return [self._shuffle_stage(dep) for dep in upstream_shuffle_deps(rdd)]

    # -- queries ------------------------------------------------------------

    def all_stages(self) -> list[Stage]:
        """Stages in a valid execution (topological) order: ascending id."""
        return list(self._stages)

    def __len__(self) -> int:
        return len(self._stages)
