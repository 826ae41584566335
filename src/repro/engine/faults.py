"""Deterministic fault injection for testing lineage recovery.

A :class:`FaultPlan` declares failures up front; the :class:`FaultInjector`
fires them from the task-launch hook.  Supported fault kinds:

- ``fail_task``: a specific (stage attempt is ignored) task's first N
  attempts raise a transient error -- exercises task retry.
- ``kill_executor_after_tasks``: a named executor dies after launching its
  K-th task -- drops its cached blocks and shuffle outputs, exercising
  lineage recomputation and stage resubmission.

All bookkeeping is thread-safe.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.engine.executor import ExecutorLostError
from repro.engine.task import TaskContext


class InjectedTaskFailure(RuntimeError):
    """A transient, injected task error (retriable)."""


@dataclass
class FaultPlan:
    """Declarative failure schedule.

    ``task_failures`` maps ``(rdd_id_or_stage_marker, partition)`` to the
    number of attempts that should fail.  Keys use the *partition* id of the
    running task plus its stage; since stage ids are assigned dynamically,
    tests usually key on partition alone via ``fail_partition``.
    """

    #: partition index -> number of initial attempts to fail (any stage)
    fail_partition_attempts: dict[int, int] = field(default_factory=dict)
    #: executor_id -> kill after this many task launches on it
    kill_executor_after_tasks: dict[str, int] = field(default_factory=dict)


class FaultInjector:
    """Runtime driver for a :class:`FaultPlan`."""

    def __init__(self, plan: FaultPlan | None = None) -> None:
        self.plan = plan or FaultPlan()
        self._lock = threading.Lock()
        self._partition_failures: dict[tuple[int, int], int] = {}
        self._executor_launches: dict[str, int] = {}
        self.killed_executors: set[str] = set()
        self.injected_failures = 0

    def on_task_launch(self, tc: TaskContext) -> None:
        """Hook called at task start; raises to simulate the failure."""
        with self._lock:
            executor_id = tc.executor_id
            if executor_id in self.killed_executors:
                raise ExecutorLostError(executor_id)

            kill_after = self.plan.kill_executor_after_tasks.get(executor_id)
            if kill_after is not None:
                launches = self._executor_launches.get(executor_id, 0) + 1
                self._executor_launches[executor_id] = launches
                if launches > kill_after:
                    self.killed_executors.add(executor_id)
                    self.injected_failures += 1
                    raise ExecutorLostError(executor_id)

            budget = self.plan.fail_partition_attempts.get(tc.partition)
            if budget is not None:
                key = (tc.stage_id, tc.partition)
                so_far = self._partition_failures.get(key, 0)
                if so_far < budget:
                    self._partition_failures[key] = so_far + 1
                    self.injected_failures += 1
                    raise InjectedTaskFailure(
                        f"injected failure for stage {tc.stage_id} partition {tc.partition} "
                        f"attempt {tc.attempt}"
                    )

    def executor_is_killed(self, executor_id: str) -> bool:
        with self._lock:
            return executor_id in self.killed_executors
