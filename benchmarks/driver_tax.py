"""The driver's tax on a warm cluster analysis (ROADMAP item 17's bar).

On a two-slot fleet every millisecond the driver spends before dispatch
leaves both workers idle.  This probe runs the warm gate analysis of
``benchmarks/e2e``'s ``mc_cluster_warm`` row -- 3000 SNPs x 1000 patients
x 30 sets from files, a 2x1 fleet, ``monte_carlo(256, batch_size=64)``,
each repeat a fresh ``Context`` on the warm fleet -- and reports, as
medians over the repeats:

- ``driver_cpu_s``: the driver process's CPU seconds (``time.process_time``,
  every thread of it) from ``from_files`` to ``close``;
- ``first_launch_s`` / ``last_launch_s``: seconds from ``monte_carlo``'s
  entry to the first and the last task launch of its first job (the job's
  ``TaskRecord.start_time``\\ s);
- ``bytes_published``: what the repeat put through the fleet's transport.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python benchmarks/driver_tax.py --repeats 25

It claims nothing on its own; EXPERIMENTS.md holds its readings.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import tempfile
import time

from repro.config import EngineConfig
from repro.core.sparkscore import SparkScoreAnalysis
from repro.engine.cluster_backend import get_cluster, stop_all_clusters
from repro.genomics.io import write_dataset
from repro.genomics.synthetic import SyntheticConfig, generate_dataset


def warm_repeat(base: str, config: EngineConfig, args) -> dict:
    transport = get_cluster(config).transport
    published = transport.bytes_published
    cpu = time.process_time()
    with SparkScoreAnalysis.from_files(base, engine="distributed", config=config) as analysis:
        entry = time.perf_counter()
        analysis.monte_carlo(args.iterations, seed=args.seed, batch_size=args.batch_size)
        first_job = analysis.ctx.metrics.jobs_snapshot()[0]
    starts = [task.start_time for stage in first_job.stages for task in stage.tasks]
    return {
        "driver_cpu_s": time.process_time() - cpu,
        "first_launch_s": min(starts) - entry,
        "last_launch_s": max(starts) - entry,
        "bytes_published": transport.bytes_published - published,
    }


def main(argv: list[str] | None = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--patients", type=int, default=1000)
    parser.add_argument("--snps", type=int, default=3000)
    parser.add_argument("--snpsets", type=int, default=30)
    parser.add_argument("--iterations", type=int, default=256)
    parser.add_argument("--batch-size", type=int, default=64)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=25)
    parser.add_argument("--output", default=None, help="write the JSON here too")
    args = parser.parse_args(argv)

    config = EngineConfig(
        backend="cluster", num_executors=2, executor_cores=1, default_parallelism=4
    )
    dataset = generate_dataset(SyntheticConfig(
        n_patients=args.patients, n_snps=args.snps, n_snpsets=args.snpsets, seed=1,
    ))
    with tempfile.TemporaryDirectory() as base:
        write_dataset(dataset, base)
        try:
            warm_repeat(base, config, args)  # spawn, parse into resident blocks
            rows = [warm_repeat(base, config, args) for _ in range(args.repeats)]
        finally:
            stop_all_clusters()
    report = {
        "repeats": args.repeats,
        "cpu_count": os.cpu_count(),
        **{key: statistics.median(row[key] for row in rows) for key in rows[0]},
    }
    print(json.dumps(report))
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(report, fh, indent=2)
    return report


if __name__ == "__main__":
    main()
