"""Driver-path metrics: resampling costs measured, not inferred.

The paper's core economic claim (Monte Carlo resampling amortizes the
scoring pass; permutation as written pays it per replicate) is a statement
about *per-replicate cost*.  These process-wide instruments record exactly that
from the score passes and the resampling driver
(:func:`~repro.stats.resampling.driver.resample`), for both the local and the
distributed engine, so benchmarks and ``sparkscore history --metrics``
report measured numbers.

Series (all labeled ``method`` x ``engine``):

- ``repro_replicates_total`` -- replicates computed;
- ``repro_resampling_batch_seconds`` -- wall time per driver batch, its
  count and its fold, on every engine alike (one broadcast + job on the
  distributed engine, one GEMM -- or, uncached, ``U`` rebuilt and a GEMM --
  on the local one);
- ``repro_replicate_seconds`` -- amortized wall time per single replicate;
- ``repro_score_pass_seconds`` -- observed-statistics passes (label
  ``engine`` only).
"""

from __future__ import annotations

from repro.obs.registry import REGISTRY

REPLICATES = REGISTRY.counter(
    "repro_replicates_total",
    "resampling replicates computed",
    labelnames=("method", "engine"),
)

BATCH_SECONDS = REGISTRY.histogram(
    "repro_resampling_batch_seconds",
    "wall seconds per resampling driver batch",
    labelnames=("method", "engine"),
)

REPLICATE_SECONDS = REGISTRY.histogram(
    "repro_replicate_seconds",
    "amortized wall seconds per replicate",
    labelnames=("method", "engine"),
)

SCORE_PASS_SECONDS = REGISTRY.histogram(
    "repro_score_pass_seconds",
    "wall seconds per observed-statistics pass",
    labelnames=("engine",),
)

# -- executor-side task instrumentation --------------------------------------
#
# These series are incremented *where the task runs*: directly in the
# driver's registry under serial, and in the worker process's registry
# under the cluster backend -- from where they ship back with the
# task result as a registry delta and merge into the driver's registry
# (see Registry.collect_delta / merge_delta).  Every backend therefore
# exposes the same series names with consistent totals.

WORKER_TASK_SECONDS = REGISTRY.histogram(
    "repro_worker_task_seconds",
    "task wall seconds measured at the point of execution",
    labelnames=("kind",),
)

WORKER_GC_PAUSE_SECONDS = REGISTRY.counter(
    "repro_worker_gc_pause_seconds_total",
    "GC pause seconds observed at the point of execution",
)


def observe_worker_task(kind: str, seconds: float, gc_pause_seconds: float = 0.0) -> None:
    """Record one executed task attempt from inside the executing process."""
    WORKER_TASK_SECONDS.labels(kind=kind).observe(seconds)
    # inc(0) still materializes the series, keeping name parity across
    # backends even when no collection ran during the task
    WORKER_GC_PAUSE_SECONDS.inc(gc_pause_seconds)


def observe_batch(method: str, engine: str, replicates: int, seconds: float) -> None:
    """Record one resampling batch (the driver's ``after_batch`` arguments last)."""
    if replicates <= 0:
        return
    REPLICATES.labels(method=method, engine=engine).inc(replicates)
    BATCH_SECONDS.labels(method=method, engine=engine).observe(seconds)
    REPLICATE_SECONDS.labels(method=method, engine=engine).observe(seconds / replicates)
