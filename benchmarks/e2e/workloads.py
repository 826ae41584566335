"""The four workloads, their sizes, and the calls that set up, run and verify them.

Everything here goes through the program's public surface
(``SparkScoreAnalysis.from_files``, ``generate_dataset`` / ``write_dataset``,
``LocalSparkScore``); the measuring procedure lives in :mod:`harness`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.config import EngineConfig
from repro.core.local import LocalSparkScore
from repro.core.sparkscore import SparkScoreAnalysis
from repro.engine.backends import shutdown_shared_pool
from repro.engine.cluster_backend import stop_all_clusters
from repro.genomics.io import write_dataset
from repro.genomics.synthetic import SyntheticConfig, generate_dataset

#: two task slots whatever ``nproc`` says, so numbers from different hosts
#: describe the same schedule
NUM_EXECUTORS = 2
EXECUTOR_CORES = 1
DEFAULT_PARALLELISM = 4
BLOCK_SIZE = 256


def engine_config(backend: str) -> EngineConfig:
    return EngineConfig(
        backend=backend,
        num_executors=NUM_EXECUTORS,
        executor_cores=EXECUTOR_CORES,
        default_parallelism=DEFAULT_PARALLELISM,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str
    #: "monte_carlo" or "permutation"
    method: str
    batch_size: int
    #: ``DistributedSparkScore`` options beyond ``block_size``
    options: dict = field(default_factory=dict)
    parse_with_engine: bool = False
    cache_contributions: bool = True
    #: stop every cluster before each repeat, so spawn is inside the timed region
    cold: bool = False
    #: spawn the cluster and run one cold analysis during set-up
    warm_setup: bool = False
    #: run the workload process on one CPU (see ``paper_uncached_threads``)
    single_cpu: bool = False

    def analysis_options(self) -> dict:
        return {"block_size": BLOCK_SIZE, **self.options}

    def infer(self, analysis: SparkScoreAnalysis, replicates: int, seed: int):
        if self.method == "permutation":
            return analysis.permutation(replicates, seed=seed, batch_size=self.batch_size)
        return analysis.monte_carlo(
            replicates,
            seed=seed,
            batch_size=self.batch_size,
            cache_contributions=self.cache_contributions,
        )


# Order is part of the contract: the dataset seed is ``--seed`` + index.
WORKLOADS: tuple[Workload, ...] = (
    Workload("mc_serial", "serial", "monte_carlo", 64),
    Workload("mc_cluster_warm", "cluster", "monte_carlo", 64, warm_setup=True),
    Workload("perm_cluster_cold", "cluster", "permutation", 16, cold=True),
    # Its two task threads are GIL-bound and hand the lock over ~55,000
    # times per repeat. Across vCPUs each hand-off is a wake-up whose cost
    # the host sets: medians of ten-run sets read 4.1, 4.9 and 5.3 s on one
    # commit. On one CPU the same repeat takes 2.9 s and repeats within 2%.
    Workload(
        "paper_uncached_threads", "threads", "monte_carlo", 64,
        options={"flavor": "paper", "join_strategy": "rdd_join"},
        parse_with_engine=True, cache_contributions=False, single_cpu=True,
    ),
)
WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)


@dataclass(frozen=True)
class Scale:
    n_snps: int
    n_patients: int
    n_snpsets: int
    #: resampling replicates per workload, in ``WORKLOADS`` order
    replicates: tuple[int, int, int, int]
    #: repeats a run makes even when ``--seconds`` is already spent
    min_repeats: int
    #: records pushed through the engine micro-benchmarks of the traced run
    micro_records: int


# ``gate`` is what BENCHMARK.json's command measures: the issue's 20,000-SNP
# shape cut to a fifth along the SNP axis (same patients, same SNPs per set,
# same replicate counts) so that 92 driver runs fit in 57 minutes. ``paper``
# is the issue's full size, for the numbers ROADMAP quotes.
SCALES: dict[str, Scale] = {
    "smoke": Scale(400, 60, 8, (64, 64, 64, 64), 2, 20_000),
    "gate": Scale(3000, 1000, 30, (2000, 256, 32, 256), 3, 200_000),
    "paper": Scale(20_000, 1000, 200, (2000, 256, 32, 256), 3, 200_000),
}


def replicates_for(workload: Workload, scale: Scale) -> int:
    return scale.replicates[WORKLOAD_NAMES.index(workload.name)]


def stop_engines() -> None:
    """Stop every worker process the engine keeps alive between contexts."""
    stop_all_clusters()
    shutdown_shared_pool()


def run_once(workload: Workload, scale: Scale, seed: int, base: str, replicates: int | None = None):
    """Files on disk -> ``ResamplingResult`` in memory, context stopped.

    This is the timed region of a repeat.
    """
    analysis = SparkScoreAnalysis.from_files(
        base,
        engine="distributed",
        config=engine_config(workload.backend),
        parse_with_engine=workload.parse_with_engine,
        **workload.analysis_options(),
    )
    try:
        return workload.infer(
            analysis, replicates_for(workload, scale) if replicates is None else replicates, seed
        )
    finally:
        analysis.close()


def warm_up(workload: Workload, scale: Scale, seed: int, base: str) -> None:
    """Spawn the cluster and run one cold analysis on it.

    One batch is enough to start the workers, import the program in them
    and publish every task binary of the pipeline once.
    """
    run_once(workload, scale, seed, base, replicates=workload.batch_size)


def set_up(workload: Workload, scale: Scale, data_seed: int, seed: int, base: str) -> dict[str, float]:
    """Everything a run does before its first timed repeat; returns part timings."""
    start = time.perf_counter()
    dataset = generate_dataset(
        SyntheticConfig(
            n_patients=scale.n_patients,
            n_snps=scale.n_snps,
            n_snpsets=scale.n_snpsets,
            seed=data_seed,
        )
    )
    generated = time.perf_counter()
    write_dataset(dataset, base)
    written = time.perf_counter()
    if workload.warm_setup:
        warm_up(workload, scale, seed, base)
    return {
        "genomics.synthetic.generate_s": generated - start,
        "genomics.io.write_dataset_s": written - generated,
    }


def verify(workload: Workload, scale: Scale, seed: int, dataset, result) -> dict:
    """Compare one result with a reference computed at the same seed.

    Monte Carlo: ``LocalSparkScore.monte_carlo``. Permutation: observed
    statistics from ``LocalSparkScore.observed`` and exceedance counts from
    a serial-backend engine run (the local permutation oracle is several
    times slower than the workload it would check).
    """
    replicates = replicates_for(workload, scale)
    local = LocalSparkScore(dataset)
    if workload.method == "permutation":
        observed = local.observed().observed
        with SparkScoreAnalysis(
            dataset,
            engine="distributed",
            config=engine_config("serial"),
            **workload.analysis_options(),
        ) as serial:
            counts = workload.infer(serial, replicates, seed).exceed_counts
    else:
        reference = local.monte_carlo(replicates, seed=seed, batch_size=workload.batch_size)
        observed, counts = reference.observed, reference.exceed_counts
    counts_equal = bool(np.array_equal(result.exceed_counts, counts))
    observed_close = bool(np.allclose(result.observed, observed, rtol=1e-9, atol=0.0))
    return {
        "ok": counts_equal and observed_close and result.n_resamples == replicates,
        "counts_equal": counts_equal,
        "observed_close": observed_close,
        "replicates": int(result.n_resamples),
    }
