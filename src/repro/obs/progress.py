"""Live job/stage progress state and Spark-style console bars.

:class:`ProgressTracker` is a listener that folds bus events into the
state the console bar draws -- running stages with task completion counts,
and the resampling runs' replicate throughput -- and
:class:`ConsoleProgressListener` renders the classic Spark console bar from
it::

    [Stage 3:=====================>                         (12/48)]

A :class:`~repro.engine.context.Context` attaches both only when asked for
``progress=True`` (``sparkscore analyze --progress``).
"""

from __future__ import annotations

import sys
import threading
import time
from typing import IO

from repro.engine.listener import (
    InferenceBatchCompleted,
    JobEnd,
    Listener,
    StageCompleted,
    StageSubmitted,
    TaskEnd,
    TaskStart,
)


class ProgressTracker(Listener):
    """Folds bus events into live progress state.  Thread-safe."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: (stage_id, attempt) -> {name, num_tasks, completed, failed, ...}
        self.stages: dict[tuple[int, int], dict] = {}
        #: stage_id -> its newest attempt's entry in ``stages``
        self._latest: dict[int, dict] = {}
        #: method -> {replicates_total, replicates_per_sec, sets_converged, sets_total}
        self.inference: dict[str, dict] = {}

    # -- stages ------------------------------------------------------------

    def on_stage_submitted(self, event: StageSubmitted) -> None:
        with self._lock:
            self.stages[(event.stage_id, event.attempt)] = self._latest[event.stage_id] = {
                "stage_id": event.stage_id,
                "attempt": event.attempt,
                "name": event.name,
                "job_id": event.job_id,
                "num_tasks": event.num_tasks,
                "completed_tasks": 0,
                "failed_tasks": 0,
                "active_tasks": 0,
                "state": "running",
            }

    def on_stage_completed(self, event: StageCompleted) -> None:
        with self._lock:
            stage = self.stages.get((event.stage.stage_id, event.stage.attempt))
            if stage is not None:
                stage["state"] = "failed" if event.failed else "complete"
                stage["active_tasks"] = 0

    def on_task_start(self, event: TaskStart) -> None:
        with self._lock:
            stage = self._latest.get(event.stage_id)
            if stage is not None:
                stage["active_tasks"] += 1

    def on_task_end(self, event: TaskEnd) -> None:
        record = event.record
        with self._lock:
            stage = self._latest.get(record.stage_id)
            if stage is not None:
                stage["active_tasks"] = max(0, stage["active_tasks"] - 1)
                if record.succeeded:
                    stage["completed_tasks"] += 1
                else:
                    stage["failed_tasks"] += 1

    # -- inference convergence ---------------------------------------------

    def on_inference_batch_completed(self, event: InferenceBatchCompleted) -> None:
        with self._lock:
            info = self.inference.setdefault(event.method, {
                "method": event.method,
                "started": event.time,
                "sets_converged": 0,
            })
            info["replicates_total"] = event.replicates_total
            info["sets_total"] = event.sets_total
            info["sets_converged"] = event.sets_converged
            elapsed = max(event.time - info["started"], 1e-9)
            info["replicates_per_sec"] = event.replicates_total / elapsed

    def active_stages(self) -> list[dict]:
        with self._lock:
            return [dict(s) for s in self.stages.values() if s["state"] == "running"]


class ConsoleProgressListener(Listener):
    """Renders running stages as Spark-style console bars.

    One carriage-return-redrawn line covering every active stage, updated
    on task events (rate-limited); the line clears when all stages finish,
    exactly like ``spark.ui.showConsoleProgress``.
    """

    def __init__(
        self,
        tracker: ProgressTracker,
        stream: IO[str] | None = None,
        width: int = 50,
        min_interval: float = 0.1,
    ) -> None:
        self.tracker = tracker
        self.stream = stream if stream is not None else sys.stderr
        self.width = width
        self.min_interval = min_interval
        self._lock = threading.Lock()
        self._last_render = 0.0
        self._last_len = 0

    def on_task_start(self, event: TaskStart) -> None:
        self._render()

    def on_task_end(self, event: TaskEnd) -> None:
        self._render()

    def on_stage_completed(self, event: StageCompleted) -> None:
        self._render(force=True)

    def on_job_end(self, event: JobEnd) -> None:
        self._clear()

    def close(self) -> None:
        self._clear()

    def _bar(self, stage: dict) -> str:
        done, total = stage["completed_tasks"], max(1, stage["num_tasks"])
        filled = int(self.width * done / total)
        bar = "=" * filled
        if filled < self.width:
            bar += ">" + " " * (self.width - filled - 1)
        return f"[Stage {stage['stage_id']}:{bar}({done}/{total})]"

    def _inference_suffix(self) -> str:
        """Replicate throughput trailer, e.g. ``[mc 1024r @ 3456r/s, 5/8 sets]``."""
        parts = []
        with self.tracker._lock:
            runs = [dict(i) for i in self.tracker.inference.values()]
        for info in runs:
            if "replicates_total" not in info:
                continue
            label = {"monte_carlo": "mc", "permutation": "perm"}.get(
                info["method"], info["method"]
            )
            parts.append(
                f"[{label} {info['replicates_total']}r @ "
                f"{info.get('replicates_per_sec', 0.0):.0f}r/s, "
                f"{info.get('sets_converged', 0)}/{info.get('sets_total', '?')} sets]"
            )
        return "".join(parts)

    def _render(self, force: bool = False) -> None:
        with self._lock:
            now = time.perf_counter()
            if not force and now - self._last_render < self.min_interval:
                return
            self._last_render = now
            active = self.tracker.active_stages()
            if not active:
                self._clear_locked()
                return
            line = "".join(self._bar(s) for s in active) + self._inference_suffix()
            pad = " " * max(0, self._last_len - len(line))
            try:
                self.stream.write("\r" + line + pad)
                self.stream.flush()
            except (ValueError, OSError):  # closed stream
                return
            self._last_len = len(line)

    def _clear(self) -> None:
        with self._lock:
            self._clear_locked()

    def _clear_locked(self) -> None:
        if self._last_len:
            try:
                self.stream.write("\r" + " " * self._last_len + "\r")
                self.stream.flush()
            except (ValueError, OSError):
                pass
            self._last_len = 0


__all__ = ["ProgressTracker", "ConsoleProgressListener"]
