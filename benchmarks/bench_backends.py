"""Backend shoot-out on the Monte Carlo resampling workload.

Runs the same MC job under the serial and persistent cluster backends,
asserts the statistics are bit-identical, and emits
``BENCH_backends.json`` with wall-clock and driver-traffic numbers:

    PYTHONPATH=src python benchmarks/bench_backends.py --iterations 200

The cluster backend only shows its multi-core speedup on a multi-core
host (the dispatch is asynchronous either way; on one core the workers
just add serialization overhead).  The JSON records ``cpu_count`` so
readers can interpret the ratios.

The cold/warm sweep runs the identical analysis in several consecutive
fresh Contexts over one persistent cluster: job 1 pays the fleet spawn,
ships every task binary and computes ``U``; warm jobs re-hit the workers'
caches (binaries, dataset slices, resident ``U`` blocks) and publish no
binary (``transport_dedup_hits`` instead of bytes).  CI gates on
``warm_wall <= 0.5 * cold_wall`` at 3000 SNPs x 1000 patients, where a cost
proportional to the payload is most of the wall if it is paid per stage.

The adaptive (AQE) sweep runs a deliberately skewed shuffle -- one reduce
bucket carrying ~11x the records, with fixed per-record work -- under a
static plan and under the adaptive planner, on the cluster backend.  The
planner splits the hot bucket along map boundaries at the stage boundary,
so the tail spreads across all slots; results must stay bit-identical.  CI gates on
``adaptive_wall <= 0.7 * static_wall``.
"""

from __future__ import annotations

import argparse
import json
import os
import time

import numpy as np

from repro.config import EngineConfig
from repro.core.algorithms import DistributedSparkScore
from repro.core.local import LocalSparkScore
from repro.engine.context import Context
from repro.genomics.synthetic import SyntheticConfig, generate_dataset

BACKENDS = ("serial", "cluster")


def run_backend(dataset, backend: str, args) -> dict:
    config = EngineConfig(
        backend=backend,
        num_executors=args.executors,
        executor_cores=args.cores,
        default_parallelism=args.executors * args.cores,
    )
    with Context(config) as ctx:
        # the cluster's transport is shared across contexts; record the
        # traffic this run added, not the lifetime totals
        pub0 = ctx.transport.bytes_published if ctx.transport is not None else 0
        dedup0 = ctx.transport.dedup_hits if ctx.transport is not None else 0
        scorer = DistributedSparkScore(
            ctx, dataset, flavor=args.flavor, block_size=args.block_size
        )
        start = time.perf_counter()
        result = scorer.monte_carlo(
            args.iterations, seed=args.seed, batch_size=args.batch_size
        )
        wall = time.perf_counter() - start
        totals = [job.totals() for job in ctx.metrics.jobs]
        row = {
            "backend": backend,
            "wall_seconds": wall,
            "driver_bytes_collected": result.info["driver_bytes_collected"],
            "task_binary_bytes": sum(t.task_binary_bytes for t in totals),
            "shuffle_bytes": result.info["shuffle_bytes"],
            "serializer_seconds": sum(t.serializer_seconds for t in totals),
            "jobs_run": result.info["jobs_run"],
            "tasks_run": sum(len(s.tasks) for j in ctx.metrics.jobs for s in j.stages),
            "observed": result.observed,
            "exceed_counts": result.exceed_counts,
        }
        if ctx.transport is not None:
            row["transport_bytes_published"] = ctx.transport.bytes_published - pub0
            row["transport_dedup_hits"] = ctx.transport.dedup_hits - dedup0
        return row


def cold_warm_sweep(dataset, args, reference_counts) -> dict:
    """The persistence drill: identical analysis, fresh Context each time,
    one long-lived cluster underneath.  Job 1 is cold (fleet spawn + every
    task binary shipped); warm jobs re-hit worker caches and ship ~refs.

    Walls here are *end-to-end per job* -- Context construction included --
    because the spawn cost is exactly what persistence amortizes.
    """
    from repro.engine.cluster_backend import stop_all_clusters

    stop_all_clusters()  # guarantee job 1 really pays the spawn
    jobs = []
    for i in range(args.warm_jobs + 1):
        start = time.perf_counter()
        row = run_backend(dataset, "cluster", args)
        end_to_end = time.perf_counter() - start
        assert np.array_equal(row["exceed_counts"], reference_counts), (
            f"cluster job {i} diverged from the serial reference"
        )
        jobs.append({
            "job": "cold" if i == 0 else f"warm_{i}",
            "wall_seconds": end_to_end,
            "analyze_seconds": row["wall_seconds"],
            "jobs_run": row["jobs_run"],
            "task_binary_bytes": row["task_binary_bytes"],
            "tasks_run": row["tasks_run"],
            "transport_bytes_published": row.get("transport_bytes_published", 0),
            "transport_dedup_hits": row.get("transport_dedup_hits", 0),
        })
        print(
            f"{jobs[-1]['job']:>10}: {end_to_end:8.2f}s  {row['jobs_run']} jobs  "
            f"task-binaries {row['task_binary_bytes']:>10,} B  "
            f"published {jobs[-1]['transport_bytes_published']:>10,} B  "
            f"dedup hits {jobs[-1]['transport_dedup_hits']}"
        )
    cold = jobs[0]["wall_seconds"]
    warm = min(j["wall_seconds"] for j in jobs[1:])
    return {
        "jobs": jobs,
        "cold_wall_seconds": cold,
        "best_warm_wall_seconds": warm,
        "warm_speedup_vs_cold": cold / warm if warm > 0 else float("inf"),
        # task binaries travel as refs on warm jobs (the pickle itself
        # dedups against the persistent transport's content-hash index): a
        # pickled ref is ~130 B, the thinnest binary over 1 KB.  Dataset
        # slices and the per-batch MC multipliers are a context's own and
        # legitimately republish, so bytes_published need not reach zero.
        "warm_jobs_ship_binaries_by_ref": all(
            j["task_binary_bytes"] <= 256 * j["tasks_run"]
            < jobs[0]["task_binary_bytes"]
            for j in jobs[1:]
        ),
        "warm_jobs_hit_dedup": all(
            j["transport_dedup_hits"] > 0 for j in jobs[1:]
        ),
    }


def adaptive_sweep(args) -> dict:
    """Skewed-shuffle drill: static plan vs adaptive query execution.

    8 reduce buckets over 4 maps; bucket 3 holds 44 records, the rest 4
    each, and every record costs ``--adaptive-unit-ms`` of wall time on
    the reduce side.  Static makespan ~= the hot bucket (44 units on one
    slot); the adaptive split re-cuts it into 4 map-aligned pieces, so
    the ideal makespan drops toward total/slots (72/4 = 18 units).
    """
    unit = args.adaptive_unit_ms / 1000.0
    # one record per key per map, plus 10 hot extras per map: bucket
    # totals [4, 4, 4, 44, 4, 4, 4, 4] with the hot records spread evenly
    # across maps so the split has boundaries to cut along
    per_map = [
        [(k, f"m{m}-{k}") for k in range(8)]
        + [(3, f"m{m}-hot-{j}") for j in range(10)]
        for m in range(4)
    ]
    data = [record for chunk in per_map for record in chunk]

    def slow_value(v: str) -> str:
        time.sleep(unit)
        return v.upper()

    def run(adaptive: bool) -> tuple[list, float, dict]:
        config = EngineConfig(
            backend="cluster",
            num_executors=2,
            executor_cores=2,
            default_parallelism=4,
            adaptive_enabled=adaptive,
        )
        with Context(config) as ctx:
            rdd = ctx.parallelize(data, 4).partition_by(8).map_values(slow_value)
            start = time.perf_counter()
            result = rdd.collect()
            wall = time.perf_counter() - start
            snap = ctx.adaptive.snapshot()
        return result, wall, snap

    static_result, static_wall, _ = run(adaptive=False)
    adaptive_result, adaptive_wall, snap = run(adaptive=True)
    identical = adaptive_result == static_result
    assert identical, "adaptive plan diverged from the static plan"
    assert snap["stages_rewritten"] >= 1, "planner never rewrote the hot stage"
    ratio = adaptive_wall / static_wall if static_wall > 0 else float("inf")
    print(f"{'static':>10}: {static_wall:8.2f}s  (hot bucket serialized on one slot)")
    print(f"{'adaptive':>10}: {adaptive_wall:8.2f}s  "
          f"({snap['stages_rewritten']} plan rewrite(s), ratio {ratio:.2f})")
    return {
        "records": len(data),
        "unit_seconds": unit,
        "bucket_totals": [4, 4, 4, 44, 4, 4, 4, 4],
        "static_wall_seconds": static_wall,
        "adaptive_wall_seconds": adaptive_wall,
        "adaptive_over_static": ratio,
        "stages_rewritten": snap["stages_rewritten"],
        "decisions": snap["decisions"],
        "bit_identical": identical,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--patients", type=int, default=200)
    parser.add_argument("--snps", type=int, default=2000)
    parser.add_argument("--snpsets", type=int, default=50)
    parser.add_argument("--iterations", type=int, default=200)
    parser.add_argument("--batch-size", type=int, default=64)
    parser.add_argument("--block-size", type=int, default=256)
    parser.add_argument("--executors", type=int, default=2)
    parser.add_argument("--cores", type=int, default=2)
    parser.add_argument("--flavor", choices=["paper", "vectorized"], default="vectorized")
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--warm-jobs", type=int, default=2,
                        help="warm repetitions in the cluster cold/warm sweep "
                        "(0 skips the sweep)")
    parser.add_argument("--skip-adaptive-sweep", action="store_true",
                        help="skip the skewed-shuffle AQE static-vs-adaptive drill")
    parser.add_argument("--adaptive-unit-ms", type=float, default=10.0,
                        help="per-record reduce-side cost in the AQE drill "
                        "(default: 10 ms)")
    parser.add_argument("--output", default="BENCH_backends.json")
    args = parser.parse_args(argv)

    dataset = generate_dataset(
        SyntheticConfig(
            n_patients=args.patients, n_snps=args.snps, n_snpsets=args.snpsets, seed=42
        )
    )

    local_start = time.perf_counter()
    local = LocalSparkScore(dataset).monte_carlo(
        args.iterations, seed=args.seed, batch_size=args.batch_size
    )
    local_wall = time.perf_counter() - local_start

    rows = []
    for backend in BACKENDS:
        row = run_backend(dataset, backend, args)
        status = "ok"
        if not np.array_equal(row["exceed_counts"], local.exceed_counts):
            status = "MISMATCH vs local"
        row["matches_local"] = status == "ok"
        rows.append(row)
        print(
            f"{backend:>10}: {row['wall_seconds']:8.2f}s  "
            f"driver {row['driver_bytes_collected']:>12,} B  "
            f"task-binaries {row['task_binary_bytes']:>12,} B  [{status}]"
        )

    for row in rows[1:]:
        assert np.array_equal(row["exceed_counts"], rows[0]["exceed_counts"]), (
            f"{row['backend']} diverged from serial"
        )

    cold_warm = None
    if args.warm_jobs > 0:
        print()
        cold_warm = cold_warm_sweep(dataset, args, rows[0]["exceed_counts"])

    adaptive = None
    if not args.skip_adaptive_sweep:
        print()
        adaptive = adaptive_sweep(args)

    serial_wall = rows[0]["wall_seconds"]
    report = {
        "workload": {
            "patients": args.patients,
            "snps": args.snps,
            "snpsets": args.snpsets,
            "iterations": args.iterations,
            "batch_size": args.batch_size,
            "flavor": args.flavor,
            "executors": args.executors,
            "cores": args.cores,
        },
        "cpu_count": os.cpu_count(),
        "local_wall_seconds": local_wall,
        "backends": [
            {
                **{k: v for k, v in row.items() if k not in ("observed", "exceed_counts")},
                "speedup_vs_serial": serial_wall / row["wall_seconds"],
            }
            for row in rows
        ],
        "cluster_cold_warm": cold_warm,
        "adaptive_sweep": adaptive,
        "bit_identical_across_backends": True,
    }
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2)
    print(f"\nlocal reference: {local_wall:.2f}s; report written to {args.output}")

    # reap the intentionally persistent fleet before the interpreter exits
    from repro.engine.cluster_backend import stop_all_clusters

    stop_all_clusters()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
