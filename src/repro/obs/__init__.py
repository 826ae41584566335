"""Observability: logging, tracing, diagnostics, and the advisor.

Coupled pieces, the analogue of Spark's log4j layout + event log +
history server, all fed by the engine's listener bus
(:mod:`repro.engine.listener`):

- :mod:`repro.obs.logging` -- structured JSONL logging with automatic
  task correlation ids, a ring-buffered :class:`LogBus`, and worker-side
  capture that ships records home with task results;
- :mod:`repro.obs.spans` -- hierarchical spans (job -> stage -> task
  attempt) exportable as JSONL or Chrome ``trace_event`` JSON;
- :mod:`repro.obs.history` -- offline analysis of event logs: stage
  tables, straggler percentiles, cache hit rates, and DAG critical-path
  analysis (surfaced by ``sparkscore history``);
- :mod:`repro.obs.diagnostics` / :mod:`repro.obs.advisor` -- skew,
  straggler, and cache-pressure detection over the recorded telemetry,
  and the rule-based recommendation engine behind ``sparkscore doctor``,
  which computes every finding offline from an event log and also names
  the failing task of a failed run;
- :mod:`repro.obs.inference` -- convergence monitors for resampling
  p-values and the opt-in early-stop policy;
- :mod:`repro.obs.progress` -- Spark-style console stage bars.

Every number is a job record's (``ctx.metrics``, the event log's job
lines) or an event-log side channel's: there is no process-wide metrics
registry and no embedded web UI (DESIGN.md section 12 has the
measurement that decided it).  A cluster fleet lives and dies with its
one driver process, so it keeps no telemetry of its own either.

The package re-exports nothing: import the submodule you need, so that an
engine process loads only the pieces it runs.
"""
