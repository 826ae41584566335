"""Engine configuration: the settings a caller passes to a ``Context``.

A :class:`EngineConfig` field exists only if something outside the tests
sets it (a CLI flag, library code, an example or a benchmark) or if it
describes the deployment (fleet shape, memory, timeouts).  Every other
engine constant lives next to the one module that reads it; the payload
transport picks shared memory or temp files by probing the host.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

#: fraction of executor memory the block manager may fill with cached blocks
STORAGE_FRACTION = 0.6


@dataclass
class EngineConfig:
    """Configuration for a :class:`repro.engine.context.Context`.

    Attributes mirror the Spark knobs the paper's Experiment C tunes
    (executors/containers, memory per executor, cores per executor) plus
    the deployment and monitoring settings the CLI exposes.
    """

    #: execution backend: "serial" (inline on the driver thread) or
    #: "cluster" (persistent executor processes surviving across jobs and
    #: contexts)
    backend: str = "serial"
    #: number of executors (YARN containers); Experiment C varies this
    num_executors: int = 2
    #: cores (task slots) per executor
    executor_cores: int = 2
    #: memory per executor in bytes, used by the block manager for caching
    executor_memory: int = 512 * 1024**2
    #: default number of partitions for parallelize / shuffles
    default_parallelism: int = 4
    #: maximum automatic retries for a failed task before failing the job
    max_task_retries: int = 3
    #: seconds between executor heartbeats on the cluster backend (0
    #: disables the telemetry plane: no hub thread, no heartbeat events, no
    #: timeout detection); a serial task runs on the driver thread, so the
    #: serial backend has no heartbeats
    heartbeat_interval: float = 0.5
    #: seconds without a heartbeat from a busy executor before the driver
    #: declares it lost (``ExecutorTimedOut``); 0 disables timeout detection
    #: while keeping heartbeat events flowing
    heartbeat_timeout: float = 30.0
    #: fraction of task attempts to run under ``cProfile`` (0 disables);
    #: sampling is deterministic in (stage_id, partition)
    profile_fraction: float = 0.0
    #: minimum level of structured log records the process log bus keeps
    #: ("debug", "info", "warning", "error"); shipped to worker processes
    #: so their capture filters at the same level
    log_level: str = "info"
    #: sequential early stopping: mask SNP-sets out of further resampling
    #: batches once their p-value confidence interval excludes
    #: ``inference_alpha`` (monitoring itself is always on; this enables
    #: the action half of the loop)
    inference_early_stop: bool = False
    #: significance threshold the convergence monitor classifies against
    inference_alpha: float = 0.05

    #: the one frame format's name; a class constant, not a field.  Kept only
    #: for benchmarks/e2e (``layers.py`` reads ``config.serializer``); drop
    #: in the next ``[benchmark]`` PR
    serializer = "pickle"

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise :class:`ValueError` on inconsistent settings."""
        # "threads" is a spelling of "serial" (see make_backend), kept only
        # for benchmarks/e2e (``workloads.py`` runs ``paper_uncached_threads``
        # on it); drop it in the next ``[benchmark]`` PR
        if self.backend not in ("serial", "threads", "cluster"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.num_executors < 1:
            raise ValueError("num_executors must be >= 1")
        if self.executor_cores < 1:
            raise ValueError("executor_cores must be >= 1")
        if self.executor_memory < 0:
            raise ValueError("executor_memory must be >= 0")
        if self.default_parallelism < 1:
            raise ValueError("default_parallelism must be >= 1")
        if self.max_task_retries < 0:
            raise ValueError("max_task_retries must be >= 0")
        if self.heartbeat_interval < 0 or self.heartbeat_timeout < 0:
            raise ValueError("heartbeat settings must be >= 0")
        if 0 < self.heartbeat_timeout <= self.heartbeat_interval:
            # a busy worker heartbeats every interval: a timeout no longer
            # than that declares every long task's executor lost
            raise ValueError(
                f"heartbeat_timeout ({self.heartbeat_timeout:g}s) must exceed "
                f"heartbeat_interval ({self.heartbeat_interval:g}s), or be 0"
            )
        if not 0.0 <= self.profile_fraction <= 1.0:
            raise ValueError("profile_fraction must be in [0, 1]")
        from repro.obs.logging import LEVELS

        if self.log_level not in LEVELS:
            raise ValueError(
                f"unknown log_level {self.log_level!r}; "
                f"choose from {', '.join(LEVELS)}"
            )
        if not 0.0 < self.inference_alpha < 1.0:
            raise ValueError("inference_alpha must be in (0, 1)")

    # -- derived quantities ----------------------------------------------

    @property
    def total_cores(self) -> int:
        """Total task slots across the application."""
        return self.num_executors * self.executor_cores

    @property
    def storage_memory_per_executor(self) -> int:
        """Bytes of cache budget per executor block manager."""
        return int(self.executor_memory * STORAGE_FRACTION)

    def copy(self, **overrides: Any) -> "EngineConfig":
        """Return a copy with the given attribute overrides applied."""
        return dataclasses.replace(self, **overrides)
