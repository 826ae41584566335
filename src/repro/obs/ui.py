"""Embedded live UI: a Spark-UI-style HTTP server on the driver.

Pure stdlib (:class:`http.server.ThreadingHTTPServer` on a daemon thread),
started by ``Context(ui_port=...)`` or ``sparkscore analyze --ui-port``.
Endpoints:

- ``/metrics`` -- OpenMetrics exposition of the process-wide registry
  (HELP/TYPE lines, escaped label values, per-sample timestamps, ``# EOF``
  trailer; worker-side increments included: the process backend ships
  registry deltas home with every task result);
- ``/api/jobs`` -- completed jobs, Spark-REST-style JSON;
- ``/api/stages`` -- per-stage summaries with aggregated task metrics;
- ``/api/executors`` -- the Context's executors with heartbeat liveness,
  plus each cluster worker's lifecycle state and warmth;
- ``/api/progress`` -- live jobs/stages/executors snapshot (what the
  console progress bar renders), advancing while a job is mid-flight;
- ``/api/logs`` -- the tail of the structured log ring buffer
  (``?level=`` filters, ``?limit=`` bounds the tail length);
- ``/api/diagnostics`` -- skew/straggler/cache-pressure findings from the
  online :class:`~repro.obs.diagnostics.DiagnosticsListener`;
- ``/api/inference`` -- convergence telemetry for resampling runs:
  per-set running p-values with CI bounds, decision status, replicate
  throughput, and early-stop savings (always present; ``enabled``
  reflects the ``inference_early_stop`` knob);
- ``/`` -- a minimal auto-refreshing HTML dashboard over the above.

Bind ``port=0`` to let the OS pick a free port (tests do this); the bound
port is available as ``UIServer.port`` and the full base URL as
``UIServer.url``.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING

from repro.obs.registry import REGISTRY

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.context import Context


def _job_summary(job) -> dict:
    totals = job.totals()
    return {
        "job_id": job.job_id,
        "description": job.description,
        "status": "SUCCEEDED",
        "wall_seconds": job.wall_seconds,
        "num_stages": len(job.stages),
        "num_tasks": sum(s.num_tasks for s in job.stages),
        "num_task_failures": job.num_task_failures,
        "num_stage_resubmissions": job.num_stage_resubmissions,
        "total_task_seconds": job.total_task_seconds,
        "shuffle_bytes_written": totals.shuffle_bytes_written,
        "shuffle_bytes_read": totals.shuffle_bytes_read,
        "peak_rss_bytes": totals.peak_rss_bytes,
    }


def _stage_summary(job, stage) -> dict:
    totals = stage.totals()
    return {
        "job_id": job.job_id,
        "stage_id": stage.stage_id,
        "attempt": stage.attempt,
        "name": stage.name,
        "status": "COMPLETE",
        "num_tasks": stage.num_tasks,
        "wall_seconds": stage.wall_seconds,
        "total_task_seconds": stage.total_task_seconds,
        "records_read": totals.records_read,
        "shuffle_bytes_written": totals.shuffle_bytes_written,
        "shuffle_bytes_read": totals.shuffle_bytes_read,
        "gc_pause_seconds": totals.gc_pause_seconds,
        "deserialize_seconds": totals.deserialize_seconds,
        "result_serialize_seconds": totals.result_serialize_seconds,
        "peak_rss_bytes": totals.peak_rss_bytes,
        "task_binary_bytes": totals.task_binary_bytes,
    }


_DASHBOARD = """<!doctype html>
<html><head><title>sparkscore UI</title>
<style>
 body { font-family: monospace; margin: 2em; background: #fafafa; }
 h1 { font-size: 1.2em; } h2 { font-size: 1em; margin-top: 1.5em; }
 table { border-collapse: collapse; }
 td, th { border: 1px solid #ccc; padding: 2px 8px; text-align: left; }
 .bar { background: #3b7; height: 10px; display: inline-block; }
 .trough { background: #ddd; width: 200px; display: inline-block; }
 .spark { font-size: 1.1em; letter-spacing: 1px; color: #37b; }
</style></head>
<body>
<h1>sparkscore engine UI</h1>
<p>endpoints: <a href="/metrics">/metrics</a>
 <a href="/api/jobs">/api/jobs</a>
 <a href="/api/stages">/api/stages</a>
 <a href="/api/executors">/api/executors</a>
 <a href="/api/progress">/api/progress</a>
 <a href="/api/logs">/api/logs</a>
 <a href="/api/diagnostics">/api/diagnostics</a>
 <a href="/api/inference">/api/inference</a></p>
<h2>stages</h2><div id="stages">loading...</div>
<h2>executors</h2><div id="executors"></div>
<h2>completed jobs</h2><div id="jobs"></div>
<h2>diagnostics</h2><div id="diagnostics"></div>
<h2>inference convergence</h2><div id="inference">no resampling runs yet</div>
<h2>recent logs</h2><div id="logs"></div>
<script>
function row(cells, tag) {
  tag = tag || "td";
  return "<tr>" + cells.map(c => "<" + tag + ">" + c + "</" + tag + ">").join("") + "</tr>";
}
const TICKS = "▁▂▃▄▅▆▇█";
function sparkline(values) {
  if (!values.length) return "";
  const lo = Math.min(...values), hi = Math.max(...values);
  const span = hi - lo || 1;
  return values.slice(-40).map(v =>
    TICKS[Math.min(7, Math.floor(8 * (v - lo) / span))]).join("");
}
async function refresh() {
  const prog = await (await fetch("/api/progress")).json();
  document.getElementById("stages").innerHTML = "<table>" +
    row(["stage", "name", "state", "progress", "tasks"], "th") +
    prog.stages.map(s => {
      const pct = Math.round(100 * s.completed_tasks / Math.max(1, s.num_tasks));
      const bar = '<span class="trough"><span class="bar" style="width:' + 2 * pct + 'px"></span></span> ' + pct + '%';
      return row([s.stage_id, s.name, s.state, bar, s.completed_tasks + "/" + s.num_tasks]);
    }).join("") + "</table>";
  document.getElementById("executors").innerHTML = "<table>" +
    row(["executor", "state", "heartbeats", "inflight", "rss"], "th") +
    prog.executors.map(e => row([e.executor_id, e.state || "alive", e.heartbeats,
      e.inflight || 0, ((e.rss_bytes || 0) / 1048576).toFixed(1) + " MB"])).join("") + "</table>";
  const jobs = await (await fetch("/api/jobs")).json();
  document.getElementById("jobs").innerHTML = "<table>" +
    row(["job", "description", "wall s", "stages", "tasks", "failures"], "th") +
    jobs.map(j => row([j.job_id, j.description, j.wall_seconds.toFixed(3),
      j.num_stages, j.num_tasks, j.num_task_failures])).join("") + "</table>";
  const diag = await (await fetch("/api/diagnostics")).json();
  const findings = diag.skew.map(s =>
      ["skew", "stage " + s.stage_id, s.metric + " max/median " + s.max_over_median.toFixed(1) + "x"])
    .concat(diag.stragglers.map(s =>
      ["straggler", "stage " + s.stage_id + " p" + s.partition,
       s.duration_seconds.toFixed(2) + "s vs median " + s.median_seconds.toFixed(2) + "s"]));
  document.getElementById("diagnostics").innerHTML = findings.length
    ? "<table>" + row(["kind", "where", "detail"], "th") +
      findings.map(f => row(f)).join("") + "</table>"
    : "no skew or stragglers detected";
  const inf = await (await fetch("/api/inference")).json();
  if ((inf.runs || []).length) {
    document.getElementById("inference").innerHTML = inf.runs.map(r => {
      const pct = Math.round(100 * r.sets_converged / Math.max(1, r.sets_total));
      const bar = '<span class="trough"><span class="bar" style="width:' + 2 * pct + 'px"></span></span>';
      const head = r.method + ": " + r.replicates_total +
        (r.planned_replicates ? "/" + r.planned_replicates : "") + " replicates @ " +
        r.replicates_per_sec.toFixed(0) + "/s, converged " +
        r.sets_converged + "/" + r.sets_total + " " + bar +
        (r.replicates_saved ? ", saved " + r.replicates_saved : "") +
        (r.early_stop ? " [early-stop]" : " [monitor only]");
      const sets = r.sets.slice(0, 20).map(s => row([s.name, s.status,
        s.pvalue.toFixed(4), s.ci_low.toFixed(4) + " – " + s.ci_high.toFixed(4),
        s.replicates,
        '<span class="spark">' + sparkline(s.trajectory.map(p => p[1])) + "</span>"]));
      return head + "<table>" +
        row(["set", "status", "p̂", "CI (99.9%)", "replicates", "trajectory"], "th") +
        sets.join("") + "</table>";
    }).join("<hr>");
  }
  const logs = await (await fetch("/api/logs?limit=25")).json();
  document.getElementById("logs").innerHTML = "<table>" +
    row(["level", "logger", "job", "stage", "part", "message"], "th") +
    logs.map(l => row([l.level, l.logger, l.job_id ?? "", l.stage_id ?? "",
      l.partition ?? "", l.message])).join("") + "</table>";
}
refresh(); setInterval(refresh, 1000);
</script></body></html>
"""


class UIServer:
    """The embedded HTTP server; one daemon thread, stdlib only."""

    def __init__(self, ctx: "Context", port: int = 0, host: str = "127.0.0.1") -> None:
        self.ctx = ctx
        self.host = host
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, fmt: str, *args) -> None:  # quiet
                pass

            def do_GET(self) -> None:  # noqa: N802 - http.server API
                try:
                    outer._route(self)
                except BrokenPipeError:  # client went away mid-response
                    pass

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self.port = self._httpd.server_address[1]
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-ui", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    # -- routing -----------------------------------------------------------

    def _route(self, handler: BaseHTTPRequestHandler) -> None:
        path = handler.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/metrics":
            self._send(
                handler,
                REGISTRY.render(openmetrics=True, timestamp=time.time()),
                "application/openmetrics-text; version=1.0.0; charset=utf-8",
            )
        elif path == "/api/jobs":
            jobs = self.ctx.metrics.jobs_snapshot()
            self._send_json(handler, [_job_summary(j) for j in jobs])
        elif path == "/api/stages":
            jobs = self.ctx.metrics.jobs_snapshot()
            self._send_json(
                handler,
                [_stage_summary(j, s) for j in jobs for s in j.stages],
            )
        elif path == "/api/executors":
            live = {
                e["executor_id"]: e
                for e in self.ctx.progress.snapshot()["executors"]
            }
            # cluster workers contribute lifecycle state + warmth (the
            # serial backend has none); the registry contributes
            # per-executor warm-cache hit counts
            cluster = {c["executor_id"]: c for c in self.ctx.backend.executor_info()}

            def _labeled(counter_name: str) -> dict:
                counter = REGISTRY.get(counter_name)
                if counter is None:
                    return {}
                return {
                    dict(key).get("executor", ""): child.value
                    for key, child in counter.children().items()
                }

            binary_hits = _labeled("task_binary_cache_hits_total")
            memo_hits = _labeled("broadcast_memo_hits_total")
            out = []
            for executor in self.ctx.executors:
                eid = executor.executor_id
                info = {
                    "executor_id": eid,
                    "host": executor.host,
                    "cores": executor.cores,
                    "alive": executor.alive,
                    "tasks_run": executor.tasks_run,
                    "tasks_failed": executor.tasks_failed,
                    # cluster blocks live in the workers; the master knows where
                    "cached_blocks": (
                        len(executor.block_manager.block_ids())
                        if self.ctx.backend.supports_shared_state
                        else self.ctx.block_master.block_count(eid)
                    ),
                    "task_binary_cache_hits": binary_hits.get(eid, 0),
                    "broadcast_memo_hits": memo_hits.get(eid, 0),
                }
                extra = cluster.get(eid)
                if extra is not None:
                    info.update({
                        "cluster_state": extra.get("state"),
                        "warm": extra.get("warm"),
                        "slots": extra.get("slots"),
                        "worker_pid": extra.get("pid"),
                        "binaries_cached": extra.get("binaries_cached"),
                        "cluster_tasks_done": extra.get("tasks_done"),
                    })
                info.update(live.get(eid, {}))
                out.append(info)
            self._send_json(handler, out)
        elif path == "/api/progress":
            self._send_json(handler, self.ctx.progress.snapshot())
        elif path == "/api/logs":
            from repro.obs.logging import LOG_BUS

            query = handler.path.partition("?")[2]
            params = dict(
                part.split("=", 1) for part in query.split("&") if "=" in part
            )
            try:
                limit = int(params.get("limit", 200))
            except ValueError:
                limit = 200
            records = LOG_BUS.records(level=params.get("level"), limit=limit)
            self._send_json(handler, [r.to_dict() for r in records])
        elif path == "/api/diagnostics":
            self._send_json(handler, self.ctx.diagnostics.snapshot())
        elif path == "/api/inference":
            holder = getattr(self.ctx, "inference", None)
            if holder is None:
                self._send_json(handler, {"enabled": False, "runs": []})
                return
            self._send_json(handler, holder.snapshot())
        elif path == "/":
            self._send(handler, _DASHBOARD, "text/html; charset=utf-8")
        else:
            handler.send_error(404, "unknown endpoint")

    @staticmethod
    def _send(handler: BaseHTTPRequestHandler, body: str, content_type: str) -> None:
        data = body.encode("utf-8")
        handler.send_response(200)
        handler.send_header("Content-Type", content_type)
        handler.send_header("Content-Length", str(len(data)))
        handler.end_headers()
        handler.wfile.write(data)

    @classmethod
    def _send_json(cls, handler: BaseHTTPRequestHandler, obj) -> None:
        cls._send(handler, json.dumps(obj, indent=1), "application/json")


__all__ = ["UIServer"]
