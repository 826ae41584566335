"""Command-line interface: ``sparkscore <command>``.

Commands:

- ``generate`` -- write a Section III synthetic dataset as the four input
  text files;
- ``analyze`` -- run a SparkScore analysis (observed / monte-carlo /
  permutation / asymptotic) over a dataset directory;
- ``maxt`` -- variant-level Westfall-Young adjusted p-values;
- ``plan`` -- predicted runtimes on simulated EMR clusters (the paper's
  strong-scaling question);
- ``tune`` -- recommend a container shape for a workload (Experiment C);
- ``history`` -- the history server: render an engine event log as stage
  tables, straggler percentiles, cache hit rates, and critical-path
  analysis; optionally export a Chrome ``trace_event`` file;
- ``doctor`` -- the tuning advisor: run failed-task/skew/straggler/cache/
  sizing rules over one event log (or every log in a directory) and print
  ranked, actionable recommendations with their evidence -- on a failed
  run, first the task that never succeeded, its executor, its error and
  its correlated log lines; ``--strict`` turns high-severity findings into
  a nonzero exit for CI gating.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

import numpy as np


def _add_generate(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("generate", help="write a synthetic dataset (paper Section III)")
    p.add_argument("output_dir")
    p.add_argument("--patients", type=int, default=1000)
    p.add_argument("--snps", type=int, default=10_000)
    p.add_argument("--snpsets", type=int, default=100)
    p.add_argument("--event-rate", type=float, default=0.85)
    p.add_argument("--mean-survival", type=float, default=12.0)
    p.add_argument("--causal-snps", type=int, default=0)
    p.add_argument("--effect-size", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)


def _add_analyze(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("analyze", help="run a SparkScore analysis on a dataset directory")
    p.add_argument("dataset_dir")
    p.add_argument("--method", choices=["observed", "monte-carlo", "permutation", "asymptotic"],
                   default="monte-carlo")
    p.add_argument("--iterations", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--batch-size", type=int, default=None,
                   help="replicates per engine pass (default: 64 monte-carlo, 16 permutation)")
    p.add_argument("--engine", choices=["local", "distributed"], default="local")
    p.add_argument("--backend", choices=["serial", "cluster"], default="serial",
                   help="where tasks run: inline on the driver thread, or on "
                        "a fleet of persistent worker processes")
    p.add_argument("--executors", type=int, default=2)
    p.add_argument("--cores", type=int, default=2)
    p.add_argument("--flavor", choices=["paper", "vectorized"], default="vectorized")
    p.add_argument("--top", type=int, default=10, help="rows to print")
    p.add_argument("--output", help="write full per-set results as TSV")
    p.add_argument("--event-log", metavar="PATH",
                   help="write an engine event log (JSONL; distributed engine only)")
    p.add_argument("--trace", metavar="PATH",
                   help="write a Chrome trace_event file (distributed engine only)")
    progress = p.add_mutually_exclusive_group()
    progress.add_argument("--progress", dest="progress", action="store_true",
                          default=None,
                          help="show Spark-style console stage progress bars "
                               "(default: on when stdout is a TTY)")
    progress.add_argument("--no-progress", dest="progress", action="store_false")
    early = p.add_mutually_exclusive_group()
    early.add_argument("--early-stop", dest="early_stop", action="store_true",
                       default=None,
                       help="stop resampling SNP-sets whose p-value confidence "
                            "interval has settled on one side of alpha "
                            "(sets inference_early_stop; distributed only)")
    early.add_argument("--no-early-stop", dest="early_stop", action="store_false",
                       help="force sequential early stopping off")
    p.add_argument("--alpha", type=float, default=None, metavar="A",
                   help="significance threshold the convergence monitor "
                        "classifies against (default: 0.05)")
    p.add_argument("--log-level", choices=["debug", "info", "warning", "error"],
                   default=None,
                   help="structured-log level for the engine (distributed only; "
                        "default: info)")
    p.add_argument("--log-file", metavar="PATH", default=None,
                   help="append structured log records as JSONL to PATH "
                        "(distributed engine only)")


def _add_maxt(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("maxt", help="variant-level Westfall-Young adjusted p-values")
    p.add_argument("dataset_dir")
    p.add_argument("--iterations", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--single-step", action="store_true")
    p.add_argument("--top", type=int, default=10)


def _add_plan(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("plan", help="predict runtimes on simulated EMR clusters")
    p.add_argument("--patients", type=int, default=1000)
    p.add_argument("--snps", type=int, default=1_000_000)
    p.add_argument("--snpsets", type=int, default=1000)
    p.add_argument("--method", choices=["monte_carlo", "permutation"], default="monte_carlo")
    p.add_argument("--iterations", type=int, nargs="+", default=[0, 10, 100, 1000])
    p.add_argument("--nodes", type=int, nargs="+", default=[6, 12, 18])
    p.add_argument("--no-cache", action="store_true")


def _add_history(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "history",
        help="inspect an engine event log: stage tables, stragglers, critical path",
    )
    p.add_argument("event_log", help="JSONL event log (any supported version)")
    p.add_argument("--job", type=int, default=None, help="show only this job id")
    p.add_argument("--export-trace", metavar="PATH",
                   help="write Chrome trace_event JSON (span JSONL if PATH ends in .jsonl)")


def _add_doctor(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "doctor",
        help="tuning advisor: ranked recommendations from an event log",
    )
    p.add_argument("path",
                   help="JSONL event log, or a directory of *.jsonl event logs")
    p.add_argument("--json", action="store_true",
                   help="emit recommendations as a JSON array instead of a table")
    p.add_argument("--strict", action="store_true",
                   help="exit 2 when any recommendation at or above "
                        "--strict-severity fires (CI gate)")
    p.add_argument("--strict-severity", choices=["info", "warning", "critical"],
                   default="critical", metavar="LEVEL",
                   help="severity floor for --strict (default: critical)")


def _add_tune(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("tune", help="recommend a YARN container shape")
    p.add_argument("--patients", type=int, default=1000)
    p.add_argument("--snps", type=int, default=100_000)
    p.add_argument("--snpsets", type=int, default=1000)
    p.add_argument("--iterations", type=int, default=10_000)
    p.add_argument("--nodes", type=int, default=18)
    p.add_argument("--containers", type=int, nargs="+", default=None)
    p.add_argument("--memories", type=float, nargs="+", default=[3.0, 5.0, 10.0])
    p.add_argument("--cores", type=int, nargs="+", default=[2, 3, 6])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparkscore",
        description="SparkScore reproduction: distributed genomic inference",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_generate(sub)
    _add_analyze(sub)
    _add_maxt(sub)
    _add_plan(sub)
    _add_tune(sub)
    _add_history(sub)
    _add_doctor(sub)
    return parser


def cmd_generate(args: argparse.Namespace) -> int:
    from repro.genomics.io.dataset_io import write_dataset
    from repro.genomics.synthetic import SyntheticConfig, generate_dataset

    config = SyntheticConfig(
        n_patients=args.patients,
        n_snps=args.snps,
        n_snpsets=args.snpsets,
        event_rate=args.event_rate,
        mean_survival_months=args.mean_survival,
        n_causal_snps=args.causal_snps,
        effect_size=args.effect_size,
        seed=args.seed,
    )
    dataset = generate_dataset(config)
    paths = write_dataset(dataset, args.output_dir)
    print(f"wrote {dataset.n_snps} SNPs x {dataset.n_patients} patients, "
          f"{dataset.n_sets} SNP-sets:")
    for kind, path in paths.items():
        print(f"  {kind:<10} {path}")
    return 0


#: analyze flags that only the distributed engine reads, by argparse dest
_DISTRIBUTED_ONLY = {
    "event_log": "--event-log",
    "trace": "--trace",
    "early_stop": "--early-stop",
    "alpha": "--alpha",
    "log_level": "--log-level",
    "log_file": "--log-file",
}


def _load_analysis(args: argparse.Namespace):
    from repro.config import EngineConfig
    from repro.core.sparkscore import SparkScoreAnalysis

    want_progress = args.progress
    if want_progress is None:  # default: bars only on an interactive terminal
        want_progress = sys.stdout.isatty()
    if args.engine == "local":
        given = []
        for dest, flag in _DISTRIBUTED_ONLY.items():
            value = getattr(args, dest)
            # --no-early-stop stores False: it asks for nothing
            if value is not None and value is not False:
                given.append(flag)
        if given:
            raise SystemExit(f"--engine distributed is required by {', '.join(given)}")
        kwargs: dict = {"engine": "local"}
    else:
        fields = {
            "backend": args.backend,
            "num_executors": args.executors,
            "executor_cores": args.cores,
            "default_parallelism": args.executors * args.cores,
        }
        for field, value in (
            ("inference_early_stop", args.early_stop),
            ("inference_alpha", args.alpha),
            ("log_level", args.log_level),
        ):
            if value is not None:
                fields[field] = value
        config = EngineConfig(**fields)
        kwargs = {"engine": "distributed", "flavor": args.flavor}
        if args.event_log or args.trace or args.log_file or want_progress:
            from repro.engine.context import Context

            kwargs["ctx"] = Context(
                config,
                event_log_path=args.event_log,
                trace_path=args.trace,
                progress=want_progress,
                log_file=args.log_file,
            )
        else:
            kwargs["config"] = config
    analysis = SparkScoreAnalysis.from_files(args.dataset_dir, **kwargs)
    if "ctx" in kwargs:
        analysis._owns_ctx = True  # CLI hands the context over for cleanup
    return analysis


def cmd_analyze(args: argparse.Namespace) -> int:
    with _load_analysis(args) as analysis:
        if args.method == "observed":
            result = analysis.observed()
        elif args.method == "monte-carlo":
            result = analysis.monte_carlo(
                args.iterations, seed=args.seed, batch_size=args.batch_size or 64
            )
        elif args.method == "permutation":
            result = analysis.permutation(
                args.iterations, seed=args.seed, batch_size=args.batch_size or 16
            )
        else:
            result = analysis.asymptotic()
        print(result.to_table(max_rows=args.top))
        wall = result.info.get("wall_seconds")
        if wall is not None:
            print(f"\nwall time: {wall:.2f}s  (engine: {result.info.get('engine')})")
        if result.info.get("early_stop"):
            planned = result.info.get("replicates_planned", 0)
            saved = result.info.get("replicates_saved", 0)
            print(f"early stopping: {result.n_resamples} of {planned} "
                  f"replicates run ({saved} saved), "
                  f"{result.info.get('sets_converged', 0)}/{result.n_sets} "
                  f"sets converged")
        if args.output:
            _write_results_tsv(result, args.output)
            print(f"full results written to {args.output}")
    if getattr(args, "event_log", None):
        print(f"event log written to {args.event_log} "
              f"(inspect with: sparkscore history {args.event_log})")
    if getattr(args, "trace", None):
        print(f"trace written to {args.trace} (load in chrome://tracing)")
    return 0


def _write_results_tsv(result, path: str) -> None:
    pvalues = result.pvalues()
    with open(path, "w") as fh:
        fh.write("set\tn_snps\tstatistic\texceed_count\tpvalue\n")
        for k in range(result.n_sets):
            fh.write(
                f"{result.set_names[k]}\t{result.set_sizes[k]}\t"
                f"{result.observed[k]:.6g}\t{result.exceed_counts[k]}\t{pvalues[k]:.6g}\n"
            )


def cmd_maxt(args: argparse.Namespace) -> int:
    from repro.core.sparkscore import SparkScoreAnalysis

    analysis = SparkScoreAnalysis.from_files(args.dataset_dir)
    result = analysis.variant_maxt(
        args.iterations, seed=args.seed, step_down=not args.single_step
    )
    snp_ids = analysis.dataset.genotypes.snp_ids
    order = np.argsort(result.adjusted_pvalues, kind="stable")
    print(f"# {result.method}, {result.n_resamples} resamples")
    print(f"{'snp':>10}{'|T|':>10}{'raw p':>12}{'adjusted p':>12}")
    for row in order[: args.top]:
        print(f"{int(snp_ids[row]):>10}{result.statistics[row]:>10.3f}"
              f"{result.raw_pvalues[row]:>12.4g}{result.adjusted_pvalues[row]:>12.4g}")
    hits = result.significant(args.alpha)
    print(f"\n{len(hits)} SNPs significant at FWER {args.alpha:g}")
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    from repro.bench.tables import format_series_table
    from repro.cluster.nodes import emr_cluster
    from repro.core.perfmodel import SparkScorePerfModel, WorkloadSpec

    model = SparkScorePerfModel()
    workload = WorkloadSpec(
        args.patients, args.snps, args.snpsets, args.method, cache=not args.no_cache
    )
    runs = {n: model.predict(workload, emr_cluster(n)) for n in args.nodes}
    print(format_series_table(
        f"Predicted runtime -- {args.snps} SNPs x {args.patients} patients, {args.method}",
        "iterations",
        args.iterations,
        {f"{n} nodes": [runs[n].total_at(b) for b in args.iterations] for n in args.nodes},
    ))
    for n in args.nodes:
        fits = "fits" if runs[n].cache_fits else "THRASHES"
        print(f"  {n:>3} nodes: per-iteration {runs[n].per_iteration_seconds:.2f}s, cache {fits}")
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    from repro.cluster.nodes import emr_cluster
    from repro.core.autotune import ModelTuner
    from repro.core.perfmodel import WorkloadSpec

    tuner = ModelTuner()
    workload = WorkloadSpec(
        args.patients, args.snps, args.snpsets, "monte_carlo", iterations=args.iterations
    )
    containers = args.containers or [args.nodes, 2 * args.nodes, 3 * args.nodes]
    shape, run = tuner.recommend(
        workload, emr_cluster(args.nodes),
        container_counts=containers,
        memories_gib=args.memories,
        cores_options=args.cores,
    )
    print(f"recommended: {shape} on {args.nodes} nodes")
    print(f"predicted total {run.total_seconds:,.0f}s = startup {run.startup_seconds:.0f}s"
          f" + observed {run.observed_seconds:.0f}s"
          f" + {args.iterations} x {run.per_iteration_seconds:.3f}s")
    return 0


def cmd_history(args: argparse.Namespace) -> int:
    from repro.engine.eventlog import read_channels
    from repro.engine.listener import (
        ExecutorHeartbeat,
        ExecutorTimedOut,
        InferenceBatchCompleted,
        SnpSetConverged,
    )
    from repro.obs.history import render_history
    from repro.obs.spans import spans_from_jobs, write_chrome_trace, write_spans_jsonl

    try:
        channels = read_channels(args.event_log)
    except FileNotFoundError:
        print(f"no such event log: {args.event_log}", file=sys.stderr)
        return 1
    except ValueError as exc:  # the message names the line
        print(f"{args.event_log}: {exc}", file=sys.stderr)
        return 1
    jobs = channels["job"]
    if args.job is not None:
        jobs = [j for j in jobs if j.job_id == args.job]
        if not jobs:
            print(f"no job {args.job} in {args.event_log}", file=sys.stderr)
            return 1
    print(render_history(jobs))
    telemetry = channels["telemetry"]
    if telemetry:
        heartbeats = [t for t in telemetry if isinstance(t, ExecutorHeartbeat)]
        timeouts = [t for t in telemetry if isinstance(t, ExecutorTimedOut)]
        executors = sorted({t.executor_id for t in heartbeats})
        peak_rss = max((t.rss_bytes for t in heartbeats), default=0)
        line = (f"\n   heartbeats: {len(heartbeats)} from "
                f"{len(executors)} executor(s)")
        if peak_rss:
            line += f", peak reported rss {peak_rss / (1 << 20):,.1f} MiB"
        if timeouts:
            line += f"; {len(timeouts)} executor timeout(s): " + ", ".join(
                t.executor_id for t in timeouts
            )
        print(line)
    inference = channels["inference"]
    if inference:
        batches = [r for r in inference if isinstance(r, InferenceBatchCompleted)]
        converged = [r for r in inference if isinstance(r, SnpSetConverged)]
        # final batch record per method carries the run's totals
        finals = {rec.method: rec for rec in batches}
        print(f"\n   inference (v8 side channel): "
              f"{len(batches)} batch(es), {len(converged)} set decision(s)")
        for method, rec in sorted(finals.items()):
            line = (f"     [{method}] {rec.replicates_total} of "
                    f"{rec.planned_replicates} replicates, "
                    f"{rec.sets_converged}/{rec.sets_total} sets converged")
            if rec.replicates_saved:
                line += f", {rec.replicates_saved} replicates saved by early stopping"
            print(line)
        for rec in converged[-5:]:
            print(f"     [{rec.method}] {rec.set_name}: {rec.status} at "
                  f"p={rec.pvalue:.4g} (CI {rec.ci_low:.4g}..{rec.ci_high:.4g}, "
                  f"{rec.replicates} replicates)")
    if args.export_trace:
        spans = spans_from_jobs(jobs)
        if args.export_trace.endswith(".jsonl"):
            write_spans_jsonl(spans, args.export_trace)
        else:
            write_chrome_trace(spans, args.export_trace)
        print(f"\ntrace ({len(spans)} spans) written to {args.export_trace}")
    return 0


def cmd_doctor(args: argparse.Namespace) -> int:
    from repro.engine.eventlog import read_channels
    from repro.engine.listener import InferenceBatchCompleted
    from repro.obs.advisor import diagnose, recommendations_to_json, render_recommendations

    scan_dir = os.path.isdir(args.path)
    if scan_dir:
        paths = sorted(
            os.path.join(args.path, name)
            for name in os.listdir(args.path)
            if name.endswith(".jsonl")
        )
        if not paths:
            print(f"no *.jsonl event logs in {args.path}", file=sys.stderr)
            return 1
    else:
        paths = [args.path]

    jobs, inference, logs, read = [], [], [], []
    for path in paths:
        try:
            channels = read_channels(path)
        except FileNotFoundError:
            print(f"no such event log: {path}", file=sys.stderr)
            return 1
        except ValueError as exc:
            if not scan_dir:  # an explicitly named log must parse
                print(f"{path}: {exc}", file=sys.stderr)
                return 1
            continue  # directories may hold other JSONL (log files, traces)
        jobs.extend(channels["job"])
        inference.extend(channels["inference"])
        logs.extend(channels["log"])
        read.append(path)
    if scan_dir and not read:
        print(f"no readable event logs in {args.path}", file=sys.stderr)
        return 1
    recs = diagnose(jobs, inference=inference, log=logs)
    if args.json:
        print(recommendations_to_json(recs))
    else:
        n_stages = sum(len(j.stages) for j in jobs)
        print(f"doctor: examined {len(jobs)} job(s), {n_stages} stage(s) "
              f"from {len(read)} log(s)")
        if inference:
            batches = sum(isinstance(r, InferenceBatchCompleted) for r in inference)
            decided = len(inference) - batches
            print(f"inference context: {batches} replicate batch(es), "
                  f"{decided} set decision(s) recorded")
        print()
        print(render_recommendations(recs), end="")
    if getattr(args, "strict", False):
        from repro.obs.advisor import SEVERITIES

        floor = SEVERITIES[args.strict_severity]
        gating = [r for r in recs if SEVERITIES.get(r.severity, 0) >= floor]
        if gating:
            print(f"\nstrict mode: {len(gating)} finding(s) at or above "
                  f"{args.strict_severity!r} -- failing", file=sys.stderr)
            return 2
    return 0


_COMMANDS = {
    "generate": cmd_generate,
    "analyze": cmd_analyze,
    "maxt": cmd_maxt,
    "plan": cmd_plan,
    "tune": cmd_tune,
    "history": cmd_history,
    "doctor": cmd_doctor,
}


def main(argv: Sequence[str] | None = None) -> int:
    from repro.genomics.io.formats import FormatError

    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FormatError as exc:
        # a malformed input file: the message already names file and line
        print(f"sparkscore: error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        # a missing input directory or file, met by the driver
        print(f"sparkscore: error: {exc.filename}: no such file or directory", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout went away mid-report (e.g. `sparkscore history ... | head`);
        # detach so the interpreter doesn't raise again at shutdown
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
