"""Observability overhead and the doctor's skew-recovery loop.

Four legs, one report (``BENCH_obs.json``):

1. **Overhead** -- the same compute-bound job runs bare (warning-level
   logging, no sinks) and fully loaded (debug logging with worker-side
   capture, log file and event log).  The whole observability plane must
   cost less than ``--max-overhead-pct`` (default 10%) of wall-clock.  The leg
   runs once per ``--overhead-backend`` (default: the persistent
   cluster, whose trace propagation rides in every task envelope) and
   every backend must hold the same budget.

2. **Skew recovery** -- a heavy-tailed workload runs skewed, its event
   log is fed to the advisor (the same engine behind ``sparkscore
   doctor``), and the resulting ``repartition(N)`` recommendation is
   applied verbatim.  The rerun must beat the skewed wall-clock.

3. **Inference monitor** -- the same monte-carlo run executes bare, with
   a passive convergence monitor, and with the early-stop policy.  The
   monitor must price inside the same overhead budget; the early-stop
   run reports its replicate savings and must keep alpha=0.05
   significance calls identical to the full run.

4. **Failure smoke** -- a fault-injected job fails with an event log on;
   the advisor (``sparkscore doctor``) reads the log back and its first
   finding must be ``failed-task``, naming the injected failing task and
   carrying its ``task attempt failed`` log record as evidence.

    PYTHONPATH=src python benchmarks/bench_obs.py

Each job repeats inside one warm context and the minimum wall is kept,
so fleet spin-up doesn't pollute the comparison.  The skew leg models
blocking (I/O-bound) tasks with ``time.sleep`` on the cluster backend:
sleeps yield exact per-task durations and overlap on any host, so the
load-balancing win from repartitioning shows even on a single core,
where CPU-bound tasks would just contend.  The overhead leg stays
CPU-bound (numpy) on the cluster backend to price the worker-side log
capture against real compute.
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import time

import numpy as np

from repro.config import EngineConfig
from repro.engine.context import Context
from repro.engine.eventlog import read_channels, read_event_log
from repro.obs.advisor import cache_pressure_from_jobs, diagnose


class _Burn:
    """Picklable unit of numpy work: ``units`` sweeps over a large vector."""

    def __init__(self, iters_per_unit: int) -> None:
        self.iters_per_unit = iters_per_unit

    def __call__(self, units: int) -> float:
        x = np.full(1 << 16, 1.0003)
        acc = 0.0
        for _ in range(units * self.iters_per_unit):
            acc += float(np.log1p(x).sum())
        return acc


class _SimTask:
    """Picklable blocking task: each unit sleeps for a fixed quantum."""

    def __init__(self, seconds_per_unit: float) -> None:
        self.seconds_per_unit = seconds_per_unit

    def __call__(self, units: int) -> int:
        time.sleep(units * self.seconds_per_unit)
        return units


def _make_config(args, backend: str) -> EngineConfig:
    return EngineConfig(
        backend=backend,
        num_executors=args.executors,
        executor_cores=args.cores,
        default_parallelism=args.executors * args.cores,
    )


def _best_wall(ctx: Context, items: list[int], partitions: int, task,
               repeats: int, repartition_to: int | None = None) -> float:
    """Min wall over ``repeats`` identical jobs in one (warming) context."""
    walls = []
    for _ in range(repeats):
        rdd = ctx.parallelize(items, partitions)
        if repartition_to is not None:
            rdd = rdd.repartition(repartition_to)
        start = time.perf_counter()
        rdd.map(task).sum()
        walls.append(time.perf_counter() - start)
    return min(walls)


def bench_overhead(args, burn: _Burn, backend: str) -> dict:
    """Balanced workload, bare vs fully-instrumented contexts.

    The two contexts stay open together and the repeats alternate between
    them, so slow load drift on the host hits both sides equally instead
    of masquerading as (or masking) instrumentation cost.  On the cluster
    backend both contexts share one persistent fleet, so the comparison
    additionally prices the trace context every task envelope carries.
    """
    items = [1] * (args.partitions * 4)
    config = _make_config(args, backend)

    with tempfile.TemporaryDirectory() as tmp:
        loaded = config.copy(log_level="debug")
        with Context(config.copy(log_level="warning")) as bare_ctx, Context(
            loaded,
            log_file=os.path.join(tmp, "driver-logs.jsonl"),
            event_log_path=os.path.join(tmp, "events.jsonl"),
        ) as loaded_ctx:
            bare_walls: list[float] = []
            loaded_walls: list[float] = []
            for _ in range(args.repeats):
                bare_walls.append(
                    _best_wall(bare_ctx, items, args.partitions, burn, 1)
                )
                loaded_walls.append(
                    _best_wall(loaded_ctx, items, args.partitions, burn, 1)
                )
            bare, loaded = min(bare_walls), min(loaded_walls)

    overhead_pct = (loaded - bare) / bare * 100.0
    print(
        f"  overhead[{backend}]: bare {bare:6.3f}s, instrumented {loaded:6.3f}s "
        f"-> {overhead_pct:+.1f}% (budget {args.max_overhead_pct:.0f}%)"
    )
    return {
        "backend": backend,
        "bare_wall_seconds": bare,
        "instrumented_wall_seconds": loaded,
        "overhead_pct": overhead_pct,
        "max_overhead_pct": args.max_overhead_pct,
        "within_budget": overhead_pct < args.max_overhead_pct,
    }


def bench_skew_recovery(args) -> dict:
    """Run skewed, doctor the event log, apply the advice, rerun."""
    per_part = 4
    items = [1] * (args.partitions - 1) * per_part + [args.heavy_units] * per_part
    task = _SimTask(args.sim_unit_ms / 1000.0)
    config = _make_config(args, "cluster")

    with tempfile.TemporaryDirectory() as tmp:
        event_log = os.path.join(tmp, "skewed.jsonl")
        with Context(config, event_log_path=event_log) as ctx:
            skewed = _best_wall(ctx, items, args.partitions, task, args.repeats)
        jobs = read_event_log(event_log)

    recs = diagnose(jobs, cache=cache_pressure_from_jobs(jobs))
    skew_recs = [r for r in recs if r.rule == "repartition-skewed-stage"]
    assert skew_recs, (
        "doctor failed to flag the skewed stage; "
        f"rules fired: {sorted({r.rule for r in recs})}"
    )
    # repeats log one job each; take the stage with the worst evidence
    rec = max(skew_recs, key=lambda r: r.evidence.get("max_over_median", 0))
    target = rec.evidence["recommended_partitions"]
    print(f"  doctor: {rec.title}")
    print(f"  doctor: applying repartition({target})")

    with Context(config) as ctx:
        fixed = _best_wall(
            ctx, items, args.partitions, task, args.repeats, repartition_to=target
        )

    improvement_pct = (skewed - fixed) / skewed * 100.0
    print(
        f"  skewed {skewed:6.3f}s -> repartitioned {fixed:6.3f}s "
        f"({improvement_pct:+.1f}%)"
    )
    return {
        "skewed_wall_seconds": skewed,
        "repartitioned_wall_seconds": fixed,
        "improvement_pct": improvement_pct,
        "recommended_partitions": target,
        "recommendation": rec.title,
        "doctor_rules_fired": sorted({r.rule for r in recs}),
        "skew_evidence": rec.evidence,
    }


def bench_inference_monitor(args) -> dict:
    """Convergence-monitor overhead and early-stop savings (local engine).

    The same monte-carlo run executes bare, with a passive monitor (fold +
    CI classification every batch, the always-on telemetry cost), and with
    the early-stop policy attached.  The passive monitor must price inside
    the same ``--max-overhead-pct`` budget as the rest of the plane; the
    early-stop run reports the replicate savings and must keep the
    alpha=0.05 significance calls identical to the full run.
    """
    from repro.core.local import LocalSparkScore
    from repro.genomics.synthetic import SyntheticConfig, generate_dataset
    from repro.obs.inference import ConvergenceMonitor, EarlyStopPolicy

    dataset = generate_dataset(SyntheticConfig(
        n_patients=120, n_snps=400, n_snpsets=20, seed=29,
    ))
    analysis = LocalSparkScore(dataset)
    iterations = args.inference_replicates

    def run(policy=None, passive=False):
        best, result, monitor = float("inf"), None, None
        for _ in range(args.repeats):
            mon = None
            if passive or policy is not None:
                mon = ConvergenceMonitor(
                    n_sets=dataset.n_sets, method="monte_carlo",
                    planned_replicates=iterations, policy=policy,
                )
            start = time.perf_counter()
            result = analysis.monte_carlo(iterations, seed=7, monitor=mon)
            wall = time.perf_counter() - start
            if wall < best:
                best, monitor = wall, mon
        return best, result, monitor

    bare_wall, bare_result, _ = run()
    monitored_wall, monitored_result, _ = run(passive=True)
    overhead_pct = (monitored_wall - bare_wall) / bare_wall * 100.0
    assert np.array_equal(
        bare_result.exceed_counts, monitored_result.exceed_counts
    ), "passive monitoring must be bit-identical"

    stopped_wall, stopped_result, monitor = run(
        policy=EarlyStopPolicy(min_replicates=64)
    )
    used = stopped_result.n_resamples
    saved = monitor.replicates_saved
    savings_pct = saved / iterations * 100.0
    calls_full = bare_result.pvalues() < 0.05
    calls_stopped = monitor.pvalues("plugin") < 0.05
    calls_identical = bool(np.array_equal(calls_full, calls_stopped))

    print(
        f"  monitor: bare {bare_wall:6.3f}s, monitored {monitored_wall:6.3f}s "
        f"-> {overhead_pct:+.1f}% (budget {args.max_overhead_pct:.0f}%)"
    )
    print(
        f"  early stop: {used}/{iterations} replicates "
        f"({savings_pct:.0f}% saved), wall {stopped_wall:6.3f}s, "
        f"alpha=0.05 calls identical: {calls_identical}"
    )
    return {
        "replicates_planned": iterations,
        "snpsets": dataset.n_sets,
        "bare_wall_seconds": bare_wall,
        "monitored_wall_seconds": monitored_wall,
        "overhead_pct": overhead_pct,
        "max_overhead_pct": args.max_overhead_pct,
        "within_budget": overhead_pct < args.max_overhead_pct,
        "early_stop_wall_seconds": stopped_wall,
        "replicates_used": used,
        "replicates_saved": saved,
        "savings_pct": savings_pct,
        "alpha_calls_identical": calls_identical,
    }


def bench_postmortem_smoke(args) -> dict:
    """Fail one task on purpose; doctor must name it from the event log."""
    from repro.engine.faults import FaultInjector, FaultPlan
    from repro.engine.scheduler import JobFailedError

    fail_partition = 2
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "events.jsonl")
        config = _make_config(args, "serial").copy(max_task_retries=0)
        plan = FaultPlan(fail_partition_attempts={fail_partition: 99})
        with Context(config, fault_injector=FaultInjector(plan),
                     event_log_path=path) as ctx:
            try:
                ctx.parallelize([1] * (args.partitions * 4), args.partitions).sum()
            except JobFailedError:
                pass
        channels = read_channels(path)
    jobs, logs = channels["job"], channels["log"]
    first = diagnose(jobs, cache=cache_pressure_from_jobs(jobs), log=logs)[0]
    assert first.rule == "failed-task", f"first finding is {first.rule}"
    assert f"task 0.{fail_partition}#0 on " in first.title, (
        f"doctor blamed the wrong task: {first.title}"
    )
    assert any(
        r["message"] == "task attempt failed" for r in first.evidence["logs"]
    ), "no correlated log record in the evidence"
    print(f"  failure smoke: doctor says {first.title!r} "
          f"({len(first.evidence['logs'])} correlated log record(s))")
    return {
        "rule": first.rule,
        "title": first.title,
        "error": first.evidence["error"],
        "correlated_logs": len(first.evidence["logs"]),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--overhead-backend", nargs="+",
                        choices=["serial", "cluster"],
                        default=["cluster"],
                        help="backend(s) for the overhead leg, each gated on "
                             "the same budget (skew leg is cluster)")
    parser.add_argument("--partitions", type=int, default=8)
    parser.add_argument("--executors", type=int, default=2)
    parser.add_argument("--cores", type=int, default=2)
    parser.add_argument("--unit-iters", type=int, default=40,
                        help="numpy sweeps per work unit (scales wall-clock)")
    parser.add_argument("--heavy-units", type=int, default=12,
                        help="work units per item in the heavy tail")
    parser.add_argument("--sim-unit-ms", type=float, default=10.0,
                        help="sleep per work unit in the skew leg")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--inference-replicates", type=int, default=2048,
                        help="planned replicates for the convergence-monitor leg")
    parser.add_argument("--max-overhead-pct", type=float, default=10.0)
    parser.add_argument("--output", default="BENCH_obs.json")
    args = parser.parse_args(argv)

    burn = _Burn(args.unit_iters)

    overhead_by_backend = {}
    for backend in args.overhead_backend:
        print(f"observability overhead ({backend}):")
        overhead_by_backend[backend] = bench_overhead(args, burn, backend)
    overhead = overhead_by_backend[args.overhead_backend[0]]

    print("skew recovery:")
    recovery = bench_skew_recovery(args)
    # the remaining legs run serial or local; the report should not leak a
    # running cluster
    from repro.engine.cluster_backend import stop_all_clusters

    stop_all_clusters()

    print("inference convergence monitor:")
    inference = bench_inference_monitor(args)

    print("failure smoke:")
    postmortem = bench_postmortem_smoke(args)

    report = {
        "workload": {
            "overhead_backend": args.overhead_backend,
            "partitions": args.partitions,
            "executors": args.executors,
            "cores": args.cores,
            "unit_iters": args.unit_iters,
            "heavy_units": args.heavy_units,
            "sim_unit_ms": args.sim_unit_ms,
            "repeats": args.repeats,
        },
        "cpu_count": os.cpu_count(),
        "overhead": overhead,
        "overhead_by_backend": overhead_by_backend,
        "skew_recovery": recovery,
        "inference_monitor": inference,
        "postmortem_smoke": postmortem,
    }
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2)
    print(f"\nreport written to {args.output}")

    for backend, leg in overhead_by_backend.items():
        assert leg["within_budget"], (
            f"observability overhead on {backend} "
            f"{leg['overhead_pct']:.1f}% exceeds "
            f"{args.max_overhead_pct:.0f}% budget"
        )
    assert recovery["improvement_pct"] > 0, (
        "applying the doctor's repartition advice did not improve wall-clock"
    )
    assert inference["within_budget"], (
        f"convergence-monitor overhead {inference['overhead_pct']:.1f}% "
        f"exceeds {args.max_overhead_pct:.0f}% budget"
    )
    assert inference["alpha_calls_identical"], (
        "early stopping changed an alpha=0.05 significance call"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
