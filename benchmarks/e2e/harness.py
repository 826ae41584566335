"""What one workload process does: set up, time repeats, tear down, verify, trace.

Closed loop, one analysis at a time. The timed region of a repeat starts
with the dataset paths in hand and ends with the ``ResamplingResult`` in
memory and the ``Context`` stopped. End-to-end numbers come from these
untraced repeats only; with ``trace`` on, one more repeat runs afterwards
under :mod:`layers`.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import time
import traceback

import numpy as np

from repro.genomics.io import read_dataset
from repro.obs.spans import write_chrome_trace

import layers
import workloads
from workloads import SCALES, WORKLOAD_NAMES, WORKLOADS

#: full set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3


def _summary(samples: list[float], value: float | None = None) -> dict:
    return {
        "value": statistics.median(samples) if value is None else value,
        "min": min(samples),
        "max": max(samples),
        "n": len(samples),
        "samples": samples,
    }


def _cpu_seconds() -> tuple[float, float]:
    """(user, system) CPU of this process plus every child reaped so far."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + children.ru_utime, me.ru_stime + children.ru_stime


def _peak_rss_mib(who: int) -> float:
    """Peak RSS of this process, or of the largest reaped child (Linux: KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_workload(
    name: str, scale_name: str, seed: int, seconds: float, trace: bool,
    workdir: str, out: str | None,
) -> dict:
    """Run one workload in this process; returns its block of the result file."""
    workload = WORKLOADS[WORKLOAD_NAMES.index(name)]
    scale = SCALES[scale_name]
    data_seed = seed + WORKLOAD_NAMES.index(name)
    base = os.path.join(workdir, "data")
    replicates = workloads.replicates_for(workload, scale)
    if workload.single_cpu:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    report: dict = {
        "backend": workload.backend, "attempted": 0, "failed": 0, "end_to_end": {}, "per_layer": {},
    }
    try:
        setup_samples: list[float] = []
        setup_parts: dict[str, list[float]] = {}
        for _ in range(SETUP_REPEATS):
            workloads.stop_engines()
            shutil.rmtree(base, ignore_errors=True)
            start = time.perf_counter()
            parts = workloads.set_up(workload, scale, data_seed, seed, base)
            setup_samples.append(time.perf_counter() - start)
            for key, value in parts.items():
                setup_parts.setdefault(key, []).append(value)

        walls: list[float] = []
        results = []
        failed = 0
        cpu_before = _cpu_seconds()
        loop_start = time.perf_counter()
        while (
            len(walls) + failed < scale.min_repeats
            or time.perf_counter() - loop_start < seconds
        ):
            if workload.cold:
                workloads.stop_engines()
            start = time.perf_counter()
            try:
                result = workloads.run_once(workload, scale, seed, base)
            except Exception:
                traceback.print_exc()
                failed += 1
                continue
            walls.append(time.perf_counter() - start)
            results.append(result)
            if len(walls) == 1:
                # the driver process keeps 3-19 MiB more per analysis it has
                # run, and how many fit in --seconds depends on the host:
                # its peak counts up to the end of the first repeat only
                rss_first = _peak_rss_mib(resource.RUSAGE_SELF)
    finally:
        workloads.stop_engines()
    # workers are reaped now, so their CPU and peak RSS are on the books
    cpu_after = _cpu_seconds()
    rss_last = _peak_rss_mib(resource.RUSAGE_SELF)
    attempted = len(walls) + failed
    report["attempted"] = attempted
    if not walls:
        report["failed"] = attempted
        return report

    dataset = read_dataset(base)
    check = workloads.verify(workload, scale, seed, dataset, results[-1])
    check["repeats_agree"] = all(
        np.array_equal(r.exceed_counts, results[0].exceed_counts)
        and np.array_equal(r.observed, results[0].observed)
        for r in results
    )
    check["ok"] = check["ok"] and check["repeats_agree"]
    report["verify"] = check
    # a wrong answer fails every repeat of the workload, not one
    report["failed"] = failed if check["ok"] else attempted

    work = scale.n_snps * replicates
    report["end_to_end"] = {
        "wall_s": _summary(walls),
        "setup_s": _summary(setup_samples),
        "snp_reps_per_s": _summary([work / w for w in walls], work / statistics.median(walls)),
        "peak_rss_mb": {"value": rss_first + _peak_rss_mib(resource.RUSAGE_CHILDREN)},
    }
    if not trace:
        return report

    try:
        if workload.warm_setup:
            # the cluster was stopped to read its workers' CPU and peak RSS
            workloads.warm_up(workload, scale, seed, base)
        traced, traced_wall, spans, metrics = layers.traced_repeat(workload, scale, seed, base)
        if not np.array_equal(traced.exceed_counts, results[-1].exceed_counts):
            raise AssertionError("traced repeat disagrees with the untraced repeats")
        metrics.update(layers.isolated_calls(workload, scale, seed, base, dataset))
    finally:
        workloads.stop_engines()
    for key, samples in setup_parts.items():
        metrics[key] = statistics.median(samples)
    # per timed repeat; a warm cluster's workers also carry their set-up CPU
    metrics["proc.cpu_user_s"] = (cpu_after[0] - cpu_before[0]) / attempted
    metrics["proc.cpu_sys_s"] = (cpu_after[1] - cpu_before[1]) / attempted
    metrics["proc.rss_growth_mb_per_repeat"] = (rss_last - rss_first) / max(len(walls) - 1, 1)
    metrics["trace.overhead_pct"] = 100.0 * (traced_wall / statistics.median(walls) - 1.0)
    report["per_layer"] = metrics
    if out is not None:
        write_chrome_trace(spans, os.path.join(out, f"trace.{name}.json"))
    return report
