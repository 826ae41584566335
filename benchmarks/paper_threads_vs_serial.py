"""Paper flavor, no-cache Monte Carlo: the ``threads`` backend against ``serial``.

The question it feeds: is ``threads`` a parallel backend or a spelling of
``serial``?  Same shape as the e2e benchmark's
``paper_uncached_threads`` row (3000 SNPs x 1000 patients x 30 sets,
B = 256 in batches of 64, 2 x 1 task slots, 4 partitions, genotypes read
by the tasks), but the process is *not* pinned to one CPU, and each repeat
alternates the two backends so host drift falls on both.  BLAS runs one
thread per process, as in the e2e harness.  Prints one table; decides
nothing.

    PYTHONPATH=src python benchmarks/paper_threads_vs_serial.py --repeats 10
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from repro.config import EngineConfig  # noqa: E402
from repro.core.sparkscore import SparkScoreAnalysis  # noqa: E402
from repro.genomics.io import write_dataset  # noqa: E402
from repro.genomics.synthetic import SyntheticConfig, generate_dataset  # noqa: E402

BACKENDS = ("serial", "threads")


def run_once(base: str, backend: str, replicates: int, seed: int):
    config = EngineConfig(
        backend=backend, num_executors=2, executor_cores=1, default_parallelism=4
    )
    start = time.perf_counter()
    with SparkScoreAnalysis.from_files(
        base, engine="distributed", config=config, flavor="paper",
        join_strategy="rdd_join", block_size=256,
    ) as analysis:
        result = analysis.monte_carlo(
            replicates, seed=seed, batch_size=64, cache_contributions=False
        )
    return time.perf_counter() - start, result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--snps", type=int, default=3000)
    parser.add_argument("--patients", type=int, default=1000)
    parser.add_argument("--snpsets", type=int, default=30)
    parser.add_argument("--replicates", type=int, default=256)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    dataset = generate_dataset(SyntheticConfig(
        n_patients=args.patients, n_snps=args.snps, n_snpsets=args.snpsets, seed=args.seed,
    ))
    walls: dict[str, list[float]] = {b: [] for b in BACKENDS}
    counts: dict[str, np.ndarray] = {}
    with tempfile.TemporaryDirectory() as base:
        write_dataset(dataset, base)
        for backend in BACKENDS:  # warm-up: imports, allocator, page cache
            run_once(base, backend, 64, args.seed)
        for i in range(args.repeats):
            for backend in BACKENDS if i % 2 == 0 else BACKENDS[::-1]:
                wall, result = run_once(base, backend, args.replicates, args.seed)
                walls[backend].append(wall)
                counts.setdefault(backend, result.exceed_counts)
                if not np.array_equal(counts[backend], result.exceed_counts):
                    raise SystemExit(f"{backend}: exceed counts changed between repeats")
    if not np.array_equal(counts["serial"], counts["threads"]):
        raise SystemExit("serial and threads exceed counts differ")

    print(f"cpus available: {len(os.sched_getaffinity(0))}, repeats: {args.repeats}")
    print(f"{'backend':<8} {'median s':>9} {'q1 s':>7} {'q3 s':>7}")
    for backend in BACKENDS:
        q1, median, q3 = statistics.quantiles(walls[backend], n=4)
        print(f"{backend:<8} {median:>9.3f} {q1:>7.3f} {q3:>7.3f}")
    speedup = statistics.median(walls["serial"]) / statistics.median(walls["threads"])
    print(f"serial / threads median wall: {speedup:.2f}x")


if __name__ == "__main__":
    main()
