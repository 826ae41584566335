"""Per-layer numbers, all taken from outside the program.

Three sources, one per function below:

- :func:`traced_repeat` runs one more repeat with the public calls made one
  by one (``read_dataset``, ``Context``, ``SparkScoreAnalysis``, the
  inference call, ``ctx.stop``), a span around each, and a listener on the
  context's bus for the job -> stage -> task spans;
- :func:`engine_metrics` folds those listener events and
  ``ctx.metrics.jobs[*].totals()`` into the ``engine.*`` numbers;
- :func:`isolated_calls` times single ``stats`` / ``genomics`` /
  ``core.blocks`` / engine calls on the workload's own dataset and backend.

A layer is a module of ``src/repro``; a metric is ``<module>.<what>_<unit>``.
"""

from __future__ import annotations

import itertools
import os
import statistics
import time
from operator import add

import numpy as np

from repro.core.blocks import build_blocks
from repro.core.local import LocalSparkScore
from repro.core.sparkscore import SparkScoreAnalysis
from repro.engine.context import Context
from repro.engine.listener import (
    CollectingListener,
    JobEnd,
    JobStart,
    StageCompleted,
    StageSubmitted,
    TaskEnd,
    TaskStart,
)
from repro.engine.serializer import get_serializer
from repro.genomics.io import parse_genotype_line, read_dataset
from repro.genomics.io.dataset_io import GENOTYPES_FILE, WEIGHTS_FILE
from repro.obs.inference import ConvergenceMonitor
from repro.obs.spans import Span
from repro.stats.resampling.montecarlo import MonteCarloResampler
from repro.stats.resampling.streams import mc_multiplier_batches, permutation_batches
from repro.stats.score.cox import CoxScoreModel
from repro.stats.skat import skat_statistics

from workloads import BLOCK_SIZE, Scale, Workload, engine_config, replicates_for

MIB = 1024.0 * 1024.0


def _span(ids, parent: int | None, name: str, category: str, start: float, end: float, **attrs) -> Span:
    """A span of the program's own type, so that its Chrome-trace writer applies.

    ``category`` is the layer, except for task spans, which need the writer's
    "task" category and carry their layer in ``attrs``. The span's id and its
    parent's go into ``attrs`` because that is what the writer exports.
    """
    span_id = next(ids)
    attrs = {"id": span_id, "parent": parent, **attrs}
    return Span(span_id, parent, name, category, start, end, attrs)


# -- the traced repeat ---------------------------------------------------------


def traced_repeat(workload: Workload, scale: Scale, seed: int, base: str):
    """One repeat, call by call; returns (result, wall seconds, spans, metrics)."""
    ids = itertools.count()
    root = _span(ids, None, "repeat", "harness", time.perf_counter(), 0.0)
    phases: dict[str, Span] = {}

    def timed(name: str, call):
        start = time.perf_counter()
        value = call()
        layer = name.rsplit(".", 1)[0]
        phases[name] = _span(ids, root.span_id, name, layer, start, time.perf_counter())
        return value

    listener = CollectingListener(
        JobStart, JobEnd, StageSubmitted, StageCompleted, TaskStart, TaskEnd
    )
    options = workload.analysis_options()
    if workload.parse_with_engine:
        # what ``from_files(parse_with_engine=True)`` passes down
        options["input_paths"] = {
            "genotypes": os.path.join(base, GENOTYPES_FILE),
            "weights": os.path.join(base, WEIGHTS_FILE),
        }
    dataset = timed("genomics.io.read_dataset_s", lambda: read_dataset(base))
    ctx = timed("engine.context.start_s", lambda: Context(engine_config(workload.backend)))
    def published() -> tuple[int, int]:
        # serial and threads move nothing between address spaces: no transport
        transport = ctx.transport
        return getattr(transport, "bytes_published", 0), getattr(transport, "dedup_hits", 0)

    try:
        ctx.add_listener(listener)
        # a warm cluster's transport has counted since the cluster was spawned
        published_before = published()
        analysis = timed(
            "core.algorithms.construct_s",
            lambda: SparkScoreAnalysis(dataset, engine="distributed", ctx=ctx, **options),
        )
        result = timed(
            "core.algorithms.analyze_s",
            lambda: workload.infer(analysis, replicates_for(workload, scale), seed),
        )
        published_after = published()
        jobs = ctx.metrics.jobs_snapshot()
        slots = ctx.backend.parallelism
    finally:
        timed("engine.context.stop_s", ctx.stop)
    root.end = time.perf_counter()

    wall = root.end - root.start
    analyze = phases["core.algorithms.analyze_s"]
    engine_spans, metrics = engine_metrics(listener.events, jobs, slots, ids, analyze.span_id)
    metrics["engine.transport.bytes_published"] = published_after[0] - published_before[0]
    metrics["engine.transport.dedup_hits"] = published_after[1] - published_before[1]
    for name, span in phases.items():
        metrics[name] = span.duration
    metrics["core.algorithms.driver_self_s"] = (
        analyze.duration - metrics["engine.scheduler.job_wall_s"]
    )
    phase_seconds = sum(span.duration for span in phases.values())
    metrics["trace.unattributed_pct"] = 100.0 * (wall - phase_seconds) / wall
    return result, wall, [root, *phases.values(), *engine_spans], metrics


# -- engine spans and counts ---------------------------------------------------


def engine_metrics(events, jobs, slots: int, ids, parent: int):
    """Fold listener events (job -> stage -> task) and job totals.

    The scheduler runs one stage at a time, so a task event belongs to the
    stage that is open when it arrives. Job spans hang under span ``parent``.
    """
    spans: list[Span] = []
    m = dict.fromkeys(
        (
            "engine.scheduler.jobs", "engine.scheduler.stages", "engine.scheduler.tasks",
            "engine.scheduler.job_wall_s", "engine.scheduler.inter_stage_gap_s",
            "engine.scheduler.submit_to_first_task_s",
            "engine.scheduler.last_task_to_stage_end_s",
            "engine.scheduler.stage_overhead_s", "engine.task.duration_s",
        ),
        0.0,
    )
    job_spans: dict[int, Span] = {}
    job_stage_wall: dict[int, float] = {}
    stage: Span | None = None
    launches: list[float] = []  # of the open stage: task launch times,
    finishes: list[float] = []  # task end times
    durations: list[float] = []  # and task durations as the executor reports them
    task_start: dict[tuple, float] = {}
    for event in events:
        if isinstance(event, JobStart):
            job_spans[event.job_id] = _span(
                ids, parent, f"job {event.job_id}", "engine.scheduler", event.time, event.time
            )
            job_stage_wall[event.job_id] = 0.0
        elif isinstance(event, JobEnd):
            span = job_spans[event.job_id]
            span.end = event.time
            spans.append(span)
            m["engine.scheduler.jobs"] += 1
            m["engine.scheduler.job_wall_s"] += span.duration
            m["engine.scheduler.inter_stage_gap_s"] += span.duration - job_stage_wall[event.job_id]
        elif isinstance(event, StageSubmitted):
            stage = _span(
                ids, job_spans[event.job_id].span_id, f"stage {event.stage_id} {event.name}",
                "engine.scheduler", event.time, event.time,
            )
            launches, finishes, durations = [], [], []
        elif isinstance(event, TaskStart):
            task_start[(event.stage_id, event.partition, event.attempt)] = event.time
            launches.append(event.time)
        elif isinstance(event, TaskEnd):
            record = event.record
            key = (record.stage_id, record.partition, record.attempt)
            finishes.append(event.time)
            durations.append(record.duration_seconds)
            # category "task" + executor_id: the writer's one-track-per-executor rule
            spans.append(_span(
                ids, stage.span_id, f"task {record.stage_id}.{record.partition}", "task",
                task_start.pop(key, event.time), event.time,
                layer="engine.task", executor_id=record.executor_id,
            ))
            m["engine.scheduler.tasks"] += 1
            m["engine.task.duration_s"] += record.duration_seconds
        elif isinstance(event, StageCompleted):
            stage.end = event.time
            spans.append(stage)
            job_stage_wall[event.job_id] += stage.duration
            m["engine.scheduler.stages"] += 1
            if launches and finishes:
                m["engine.scheduler.submit_to_first_task_s"] += min(launches) - stage.start
                m["engine.scheduler.last_task_to_stage_end_s"] += stage.end - max(finishes)
                # the least a stage can take on this many slots
                floor = max(max(durations), sum(durations) / slots)
                m["engine.scheduler.stage_overhead_s"] += stage.duration - floor
    for name in ("jobs", "stages", "tasks"):
        m[f"engine.scheduler.{name}"] = int(m[f"engine.scheduler.{name}"])

    totals = [job.totals() for job in jobs]

    def total(attr: str):
        return sum(getattr(t, attr) for t in totals)

    m.update({
        "engine.scheduler.task_failures": sum(j.num_task_failures for j in jobs),
        "engine.scheduler.stage_resubmissions": sum(j.num_stage_resubmissions for j in jobs),
        "engine.task.compute_s": total("compute_seconds"),
        "engine.task.deserialize_s": total("deserialize_seconds"),
        "engine.task.result_serialize_s": total("result_serialize_seconds"),
        "engine.task.gc_pause_s": total("gc_pause_seconds"),
        "engine.task.peak_rss_mb": max((t.peak_rss_bytes for t in totals), default=0) / MIB,
        "engine.serializer.seconds": total("serializer_seconds"),
        "engine.transport.task_binary_bytes": total("task_binary_bytes"),
        "engine.shuffle.bytes_written": total("shuffle_bytes_written"),
        "engine.shuffle.records_written": total("shuffle_records_written"),
        "engine.shuffle.bytes_read": total("shuffle_bytes_read"),
        "engine.blockmanager.cache_hits": total("cache_hits"),
        "engine.blockmanager.cache_misses": total("cache_misses"),
        "engine.driver_bytes_collected": total("driver_bytes_collected"),
    })
    return spans, m


# -- isolated calls ------------------------------------------------------------


def _seconds(call, repeats: int = 1) -> float:
    """Median wall seconds of ``call()`` over ``repeats`` calls."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def isolated_calls(workload: Workload, scale: Scale, seed: int, base: str, dataset) -> dict:
    """Single calls into each layer, on this workload's dataset and backend."""
    m: dict[str, float] = {}
    n, K = dataset.n_patients, dataset.n_sets
    batch = workload.batch_size
    rng = np.random.default_rng(seed)
    z_batch = rng.standard_normal((batch, n))
    model = CoxScoreModel(dataset.phenotype)

    with open(os.path.join(base, GENOTYPES_FILE)) as fh:
        lines = [line for line in fh.read().splitlines()[:512] if line]
    m["genomics.io.parse_lines_per_s"] = len(lines) / _seconds(
        lambda: [parse_genotype_line(line) for line in lines], 3
    )

    snp_ids = dataset.genotypes.snp_ids
    set_map = {int(s): int(k) for s, k in zip(snp_ids, dataset.snpsets.set_ids)}
    w2_map = {int(s): float(w) ** 2 for s, w in zip(snp_ids, dataset.weights)}
    blocks: list = []
    m["core.blocks.build_s"] = _seconds(lambda: blocks.extend(
        build_blocks(dataset.genotypes.rows(), set_map, w2_map, K, BLOCK_SIZE)
    ))

    # the engine's shape: one call per 256-SNP block ...
    u_blocks: list = []
    m["stats.score.contributions_block_s"] = _seconds(lambda: u_blocks.extend(
        model.contributions(block.genotypes.astype(np.float64)) for block in blocks
    ))
    # ... and ``core.local``'s: one call over every SNP
    G = dataset.genotypes.matrix.astype(np.float64)
    U = None

    def full():
        nonlocal U
        U = model.contributions(G)

    m["stats.score.contributions_full_s"] = _seconds(full)
    permuted = model.permuted(rng.permutation(n))
    m["stats.score.permuted_scores_s"] = _seconds(
        lambda: [permuted.scores(block.genotypes.astype(np.float64)) for block in blocks]
    )
    m["core.blocks.skat_partial_s"] = _seconds(lambda: [
        block.skat_partial(z_batch @ u.T) for block, u in zip(blocks, u_blocks)
    ])
    scores = z_batch @ U.T
    m["stats.skat.statistics_s"] = _seconds(
        lambda: skat_statistics(scores, dataset.weights, dataset.snpsets.set_ids, K), 3
    )
    sampler = MonteCarloResampler(U, dataset.weights, dataset.snpsets.set_ids, K)
    m["stats.resampling.mc_batch_s"] = _seconds(lambda: sampler.replicate_batch(z_batch), 3)
    replicates = replicates_for(workload, scale)
    stream = permutation_batches if workload.method == "permutation" else mc_multiplier_batches
    m["stats.resampling.stream_s"] = _seconds(
        lambda: sum(1 for _ in stream(n, replicates, seed, batch))
    )
    counts = np.zeros(K, dtype=np.int64)
    monitor = ConvergenceMonitor(K, workload.method, replicates)
    m["obs.inference.fold_s"] = _seconds(lambda: monitor.fold(counts, batch), 20)

    # the Monte Carlo oracle, which is also the single-node NumPy baseline
    local = LocalSparkScore(dataset)
    m["core.local.mc_s"] = _seconds(lambda: local.monte_carlo(replicates, seed=seed, batch_size=batch))

    config = engine_config(workload.backend)
    serializer = get_serializer(config.serializer)
    frame = serializer.dumps(blocks[0])
    m["engine.serializer.dumps_mb_per_s"] = len(frame) / MIB / _seconds(
        lambda: serializer.dumps(blocks[0]), 5
    )
    m["engine.serializer.loads_mb_per_s"] = len(frame) / MIB / _seconds(
        lambda: serializer.loads(frame), 5
    )

    records = scale.micro_records
    with Context(config) as ctx:
        parts = config.default_parallelism

        def broadcast_roundtrip():
            bc = ctx.broadcast(z_batch)
            ctx.parallelize(range(parts), parts).map(lambda _: bc.value.shape[0]).collect()
            bc.destroy()

        # create, read in every task of a 4-task job, destroy; subtract
        # empty_job_s for the broadcast's own share
        m["engine.broadcast.roundtrip_s"] = _seconds(broadcast_roundtrip, 5)
        m["engine.scheduler.empty_job_s"] = _seconds(
            lambda: ctx.parallelize(range(parts), parts).collect(), 20
        )
        pairs = [(i, i) for i in range(parts)]
        m["engine.scheduler.empty_shuffle_job_s"] = _seconds(
            lambda: ctx.parallelize(pairs, parts).reduce_by_key(add, parts).collect(), 20
        )
        m["engine.rdd.records_per_s"] = records / _seconds(
            lambda: ctx.range(records, num_partitions=parts)
            .map(lambda x: x + 1).filter(lambda x: x % 2).count()
        )
        keyed = [(i % 1000, i) for i in range(records)]
        m["engine.shuffle.records_per_s"] = records / _seconds(
            lambda: ctx.parallelize(keyed, parts).reduce_by_key(add, parts).count()
        )
    return m
