"""Serializer/transport smoke benchmark with structural assertions.

A fast data-plane health check (CI runs it on every push): runs one Monte
Carlo workload per serializer on a cold cluster backend and asserts the
structural properties the data-plane overhaul guarantees -- not wall-clock,
which CI machines can't promise:

- statistics are bit-identical across serializers;
- ``task_binary_bytes`` stays under a dedup budget (the compressed stage
  binary is charged once per executor, later tasks pay only the ref);
- with the compressed serializer, framed shuffle bytes land strictly below
  the raw serialized bytes;
- the shared-memory/temp-file transport publishes each binary once: bytes
  published stay at or below the accounted task-binary bytes even though
  every task references a binary.

    PYTHONPATH=src python benchmarks/bench_serializer.py
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from repro.config import EngineConfig
from repro.core.algorithms import DistributedSparkScore
from repro.engine.cluster_backend import stop_all_clusters
from repro.engine.context import Context
from repro.genomics.synthetic import SyntheticConfig, generate_dataset

SERIALIZERS = ("pickle", "numpy", "compressed")


def run_one(dataset, serializer: str, args) -> dict:
    # a fresh fleet (and transport) per serializer: the publish-once
    # assertions below read this run's transport counters from zero
    stop_all_clusters()
    config = EngineConfig(
        backend="cluster",
        num_executors=args.executors,
        executor_cores=args.cores,
        default_parallelism=args.executors * args.cores,
        serializer=serializer,
    )
    with Context(config) as ctx:
        scorer = DistributedSparkScore(
            ctx, dataset, flavor="vectorized", block_size=args.block_size
        )
        start = time.perf_counter()
        result = scorer.monte_carlo(
            args.iterations, seed=args.seed, batch_size=args.batch_size
        )
        wall = time.perf_counter() - start
        totals = [job.totals() for job in ctx.metrics.jobs]
        return {
            "serializer": serializer,
            "wall_seconds": wall,
            "task_binary_bytes": sum(t.task_binary_bytes for t in totals),
            "shuffle_bytes": sum(t.shuffle_bytes_written for t in totals),
            "shuffle_compressed_bytes": sum(t.shuffle_compressed_bytes for t in totals),
            "serializer_seconds": sum(t.serializer_seconds for t in totals),
            "driver_bytes_collected": sum(t.driver_bytes_collected for t in totals),
            "num_tasks": sum(len(s.tasks) for j in ctx.metrics.jobs for s in j.stages),
            "transport_bytes_published": ctx.transport.bytes_published,
            "transport_dedup_hits": ctx.transport.dedup_hits,
            "exceed_counts": result.exceed_counts,
        }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--patients", type=int, default=120)
    parser.add_argument("--snps", type=int, default=800)
    parser.add_argument("--snpsets", type=int, default=20)
    parser.add_argument("--iterations", type=int, default=60)
    parser.add_argument("--batch-size", type=int, default=30)
    parser.add_argument("--block-size", type=int, default=128)
    parser.add_argument("--executors", type=int, default=2)
    parser.add_argument("--cores", type=int, default=2)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--task-binary-budget", type=int, default=4_000_000,
                        help="assert total task_binary_bytes stays below this")
    parser.add_argument("--output", default=None, help="optional JSON report path")
    args = parser.parse_args(argv)

    dataset = generate_dataset(
        SyntheticConfig(
            n_patients=args.patients, n_snps=args.snps, n_snpsets=args.snpsets, seed=42
        )
    )

    rows = [run_one(dataset, serializer, args) for serializer in SERIALIZERS]
    stop_all_clusters()
    for row in rows:
        print(
            f"{row['serializer']:>10}: {row['wall_seconds']:6.2f}s  "
            f"task-binaries {row['task_binary_bytes']:>10,} B  "
            f"shuffle {row['shuffle_bytes']:>9,} B raw / "
            f"{row['shuffle_compressed_bytes']:>9,} B framed  "
            f"published {row['transport_bytes_published']:>9,} B"
        )

    # 1. bit-identical statistics across serializers
    for row in rows[1:]:
        assert np.array_equal(row["exceed_counts"], rows[0]["exceed_counts"]), (
            f"serializer {row['serializer']} changed the statistics"
        )

    # 2. task-binary dedup holds the accounted bytes under budget
    for row in rows:
        assert row["task_binary_bytes"] < args.task_binary_budget, (
            f"{row['serializer']}: task_binary_bytes {row['task_binary_bytes']:,} "
            f"exceeds budget {args.task_binary_budget:,} -- per-executor dedup broken?"
        )
        assert 0 < row["transport_bytes_published"] <= row["task_binary_bytes"], (
            f"{row['serializer']}: published {row['transport_bytes_published']:,} B "
            f"vs accounted {row['task_binary_bytes']:,} B -- binaries are being "
            "re-published per task instead of shipped by ref"
        )

    # 3. compression bites on the shuffle plane
    compressed = next(r for r in rows if r["serializer"] == "compressed")
    assert 0 < compressed["shuffle_compressed_bytes"] < compressed["shuffle_bytes"], (
        f"compressed serializer did not shrink shuffle frames "
        f"({compressed['shuffle_compressed_bytes']:,} vs {compressed['shuffle_bytes']:,})"
    )
    # uncompressed serializers frame 1:1
    for row in rows:
        if row["serializer"] != "compressed":
            assert row["shuffle_compressed_bytes"] == row["shuffle_bytes"]

    print("\nall structural assertions passed")
    if args.output:
        report = [
            {k: v for k, v in row.items() if k != "exceed_counts"} for row in rows
        ]
        with open(args.output, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"report written to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
