"""The embedded live UI server: endpoints, payloads, mid-flight progress."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.config import EngineConfig
from repro.engine.context import Context


def _get(url, timeout=5.0):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.status, resp.headers.get("Content-Type", ""), resp.read().decode()


def _get_json(url):
    status, _, body = _get(url)
    assert status == 200
    return json.loads(body)


@pytest.fixture
def ui_ctx():
    config = EngineConfig(
        backend="cluster", num_executors=2, executor_cores=2,
        default_parallelism=4, heartbeat_interval=0.05,
    )
    with Context(config, ui_port=0) as ctx:
        yield ctx


class TestEndpoints:
    def test_os_assigned_port_and_url(self, ui_ctx):
        assert ui_ctx.ui_url is not None
        assert ui_ctx.ui_url.startswith("http://127.0.0.1:")
        assert int(ui_ctx.ui_url.rsplit(":", 1)[1]) > 0

    def test_metrics_openmetrics_text(self, ui_ctx):
        ui_ctx.parallelize(range(20), 4).sum()
        status, content_type, body = _get(ui_ctx.ui_url + "/metrics")
        assert status == 200
        assert content_type.startswith("application/openmetrics-text")
        assert "# HELP engine_jobs_total" in body
        assert "# TYPE engine_jobs_total counter" in body
        # the registry is process-wide, so assert a sample exists rather
        # than an exact cumulative value
        assert any(
            line.startswith("engine_jobs_total ") for line in body.splitlines()
        )
        assert "repro_worker_task_seconds" in body
        assert body.rstrip().endswith("# EOF")

    def test_api_jobs(self, ui_ctx):
        ui_ctx.parallelize(range(20), 4).map(lambda x: x + 1).sum()
        jobs = _get_json(ui_ctx.ui_url + "/api/jobs")
        assert len(jobs) == 1
        assert jobs[0]["status"] == "SUCCEEDED"
        assert jobs[0]["num_tasks"] == 4
        assert jobs[0]["wall_seconds"] > 0

    def test_api_stages_includes_telemetry_totals(self, ui_ctx):
        import operator

        ui_ctx.parallelize([(i % 3, 1) for i in range(30)], 4).reduce_by_key(
            operator.add
        ).collect()
        stages = _get_json(ui_ctx.ui_url + "/api/stages")
        assert len(stages) == 2
        for stage in stages:
            for key in ("gc_pause_seconds", "deserialize_seconds",
                        "result_serialize_seconds", "peak_rss_bytes"):
                assert key in stage
        assert any(s["shuffle_bytes_written"] > 0 for s in stages)

    def test_api_executors_merges_heartbeat_liveness(self, ui_ctx):
        ui_ctx.parallelize(range(40), 4).map(
            lambda x: (time.sleep(0.02), x)[1]
        ).sum()
        executors = _get_json(ui_ctx.ui_url + "/api/executors")
        assert {e["executor_id"] for e in executors} == {"exec-0", "exec-1"}
        assert all(e["alive"] for e in executors)
        assert sum(e["tasks_run"] for e in executors) == 4
        # heartbeat info is folded in for executors that reported
        assert any(e.get("heartbeats", 0) > 0 for e in executors)

    def test_api_logs_serves_the_ring_tail(self, ui_ctx):
        from repro.obs.logging import LOG_BUS

        LOG_BUS.clear()
        ui_ctx.parallelize(range(20), 4).sum()
        records = _get_json(ui_ctx.ui_url + "/api/logs")
        assert any(r["message"] == "job finished" for r in records)
        # level filter and limit are query params
        errors_only = _get_json(ui_ctx.ui_url + "/api/logs?level=error&limit=5")
        assert all(r["level"] == "error" for r in errors_only)
        assert len(_get_json(ui_ctx.ui_url + "/api/logs?limit=1")) <= 1

    def test_api_diagnostics_shape(self, ui_ctx):
        ui_ctx.parallelize(range(20), 4).sum()
        diag = _get_json(ui_ctx.ui_url + "/api/diagnostics")
        assert set(diag) == {"skew", "stragglers", "cache_pressure"}
        assert "hit_rate" in diag["cache_pressure"]

    def test_dashboard_html(self, ui_ctx):
        status, content_type, body = _get(ui_ctx.ui_url + "/")
        assert status == 200
        assert content_type.startswith("text/html")
        assert "sparkscore engine UI" in body
        assert "/api/progress" in body
        assert "/api/diagnostics" in body and "/api/logs" in body

    def test_unknown_path_404(self, ui_ctx):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(ui_ctx.ui_url + "/api/nope")
        assert err.value.code == 404

    def test_server_stops_with_context(self):
        config = EngineConfig(backend="serial", num_executors=1,
                              executor_cores=1, default_parallelism=2)
        ctx = Context(config, ui_port=0)
        url = ctx.ui_url
        assert _get(url + "/api/progress")[0] == 200
        ctx.stop()
        with pytest.raises((urllib.error.URLError, ConnectionError, OSError)):
            _get(url + "/api/progress", timeout=0.5)


class TestLiveProgress:
    def test_progress_advances_mid_flight(self, ui_ctx):
        """Poll /api/progress while a slow job runs: completion counts must
        move before the job finishes -- the live-surface guarantee."""
        release = threading.Event()

        def slow(x):
            if x % 10 == 5:
                time.sleep(0.15)
            return x

        def run():
            ui_ctx.parallelize(range(80), 8).map(slow).sum()
            release.set()

        worker = threading.Thread(target=run)
        worker.start()
        observed = []
        try:
            deadline = time.time() + 10.0
            while not release.is_set() and time.time() < deadline:
                snap = _get_json(ui_ctx.ui_url + "/api/progress")
                for stage in snap["stages"]:
                    observed.append(
                        (stage["completed_tasks"], stage["state"],
                         [j["state"] for j in snap["jobs"]])
                    )
                time.sleep(0.02)
        finally:
            worker.join(timeout=10.0)

        mid_flight = [
            done for done, state, job_states in observed
            if state == "running" and "running" in job_states
        ]
        assert mid_flight, "never caught the stage mid-flight"
        assert any(0 < done < 8 for done in mid_flight), (
            f"progress never advanced mid-flight: {mid_flight}"
        )
        final = _get_json(ui_ctx.ui_url + "/api/progress")
        assert final["jobs"][-1]["state"] == "succeeded"
        assert all(s["state"] == "complete" for s in final["stages"])


class TestMonitoringEndpoints:
    @pytest.fixture
    def monitored_ctx(self):
        config = EngineConfig(
            backend="cluster", num_executors=2, executor_cores=2,
            default_parallelism=4, heartbeat_interval=0.05,
            metrics_interval=0.02, alerts_enabled=True,
        )
        with Context(config, ui_port=0) as ctx:
            yield ctx

    def test_timeseries_disabled_without_sampler(self, ui_ctx):
        payload = _get_json(ui_ctx.ui_url + "/api/timeseries")
        assert payload == {"enabled": False, "series": []}

    def test_alerts_disabled_without_manager(self, ui_ctx):
        payload = _get_json(ui_ctx.ui_url + "/api/alerts")
        assert payload == {"enabled": False, "rules": [], "states": [],
                           "history": []}

    def _wait_for_series(self, ctx, name="engine_jobs_total", timeout=5.0):
        deadline = time.monotonic() + timeout
        while not ctx.timeseries.all_series(name):
            assert time.monotonic() < deadline, f"{name} never sampled"
            time.sleep(0.02)

    def test_timeseries_payload(self, monitored_ctx):
        monitored_ctx.parallelize(range(20), 4).sum()
        self._wait_for_series(monitored_ctx)
        payload = _get_json(monitored_ctx.ui_url + "/api/timeseries")
        assert payload["enabled"] is True
        assert "engine_jobs_total" in payload["names"]
        by_name = {s["name"]: s for s in payload["series"]}
        series = by_name["engine_jobs_total"]
        assert series["samples"], "sampled series must carry points"
        assert all(len(p) == 2 for p in series["samples"])

    def test_timeseries_name_and_window_params(self, monitored_ctx):
        monitored_ctx.parallelize(range(20), 4).sum()
        self._wait_for_series(monitored_ctx)
        one = _get_json(
            monitored_ctx.ui_url + "/api/timeseries?name=engine_jobs_total"
        )
        assert {s["name"] for s in one["series"]} == {"engine_jobs_total"}
        # let several more ticks land so the windows can actually differ
        (series,) = monitored_ctx.timeseries.all_series("engine_jobs_total")
        deadline = time.monotonic() + 5.0
        while series.samples_recorded < 4:
            assert time.monotonic() < deadline, "sampler stopped ticking"
            time.sleep(0.02)
        tiny = _get_json(monitored_ctx.ui_url + "/api/timeseries?window=0.0001")
        wide = _get_json(monitored_ctx.ui_url + "/api/timeseries?window=3600")
        n_tiny = sum(len(s["samples"]) for s in tiny["series"])
        n_wide = sum(len(s["samples"]) for s in wide["series"])
        assert n_tiny < n_wide

    def test_alerts_payload(self, monitored_ctx):
        monitored_ctx.parallelize(range(20), 4).sum()
        payload = _get_json(monitored_ctx.ui_url + "/api/alerts")
        assert payload["enabled"] is True
        assert {r["name"] for r in payload["rules"]} >= {
            "heartbeat_loss", "cache_thrash",
        }
        assert isinstance(payload["states"], list)
        assert isinstance(payload["history"], list)

    def test_dashboard_links_monitoring_endpoints(self, monitored_ctx):
        _, _, body = _get(monitored_ctx.ui_url + "/")
        assert "/api/timeseries" in body and "/api/alerts" in body
        assert "sparklines" in body and "alertbanner" in body
