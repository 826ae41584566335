"""Executor model: a named worker with a liveness flag and a block manager."""

from __future__ import annotations

import threading

from repro.engine.blockmanager import BlockManager


class ExecutorLostError(RuntimeError):
    """Raised when a task attempts to run on (or fetch from) a dead executor."""

    def __init__(self, executor_id: str) -> None:
        super().__init__(f"executor {executor_id} lost")
        self.executor_id = executor_id


class Executor:
    """A simulated executor (YARN container): identity, liveness, cache."""

    def __init__(self, executor_id: str, memory_budget: int) -> None:
        self.executor_id = executor_id
        self.block_manager = BlockManager(executor_id, memory_budget)
        self._lock = threading.Lock()
        self._alive = True
        self._heartbeats_suspended = False
        self.tasks_run = 0
        self.tasks_failed = 0

    @property
    def alive(self) -> bool:
        with self._lock:
            return self._alive

    @property
    def heartbeats_suspended(self) -> bool:
        with self._lock:
            return self._heartbeats_suspended

    def suspend_heartbeats(self) -> None:
        """Stop reporting liveness while still (appearing to) run tasks.

        Simulates a frozen/partitioned executor: the driver's heartbeat hub
        drops this executor's records on arrival, so the timeout monitor
        will eventually declare it lost while its worker keeps running.
        Used by fault drills and tests.
        """
        with self._lock:
            self._heartbeats_suspended = True

    def resume_heartbeats(self) -> None:
        with self._lock:
            self._heartbeats_suspended = False

    def kill(self) -> None:
        """Mark dead and drop all cached blocks (simulated node loss)."""
        with self._lock:
            self._alive = False
        self.block_manager.clear()

    def revive(self) -> None:
        """Bring the executor back (fresh, empty cache) -- YARN relaunch."""
        with self._lock:
            self._alive = True
            self._heartbeats_suspended = False

    def note_task(self, succeeded: bool) -> None:
        with self._lock:
            self.tasks_run += 1
            if not succeeded:
                self.tasks_failed += 1

    def __repr__(self) -> str:
        state = "alive" if self.alive else "dead"
        return f"Executor({self.executor_id}, {state})"


def build_executors(num_executors: int, memory_budget: int) -> list[Executor]:
    """Construct the executor fleet: ``exec-0`` .. ``exec-{n-1}``."""
    return [Executor(f"exec-{i}", memory_budget) for i in range(num_executors)]
