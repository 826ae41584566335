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
        # each cluster worker's lifecycle state and warmth ride along
        assert all(e["cluster_state"] == "registered" and e["slots"] == 2
                   for e in executors)

    def test_api_executors_on_serial_has_no_worker_fields(self, serial_config):
        with Context(serial_config, ui_port=0) as ctx:
            ctx.parallelize(range(20), 4).sum()
            executors = _get_json(ctx.ui_url + "/api/executors")
        assert ctx.backend.executor_info() == []
        assert {e["executor_id"] for e in executors} == {"exec-0", "exec-1"}
        assert all("cluster_state" not in e for e in executors)
        assert sum(e["tasks_run"] for e in executors) == 4

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

    def test_adaptive_endpoint_is_gone(self, ui_ctx):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(ui_ctx.ui_url + "/api/adaptive")
        assert err.value.code == 404
        assert "/api/adaptive" not in _get(ui_ctx.ui_url + "/")[2]

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


class TestRemovedMonitoringPlane:
    @pytest.mark.parametrize("endpoint", ["/api/timeseries", "/api/alerts", "/api/fleet"])
    def test_endpoint_is_gone(self, ui_ctx, endpoint):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(ui_ctx.ui_url + endpoint)
        assert err.value.code == 404
        assert endpoint not in _get(ui_ctx.ui_url + "/")[2]


def _raise(exc):
    def call(*args):
        raise exc

    return call


class TestBackendRPCErrors:
    """The backend's executor report is an in-process read: a bug in the
    call is not masked."""

    @pytest.fixture
    def serial_ui(self):
        config = EngineConfig(backend="serial", num_executors=2,
                              executor_cores=1, default_parallelism=2)
        with Context(config, ui_port=0) as ctx:
            yield ctx

    def test_a_type_error_is_not_masked(self, serial_ui):
        serial_ui.backend.executor_info = _raise(TypeError("bad call"))

        class _Handler:
            path = "/api/executors"

        with pytest.raises(TypeError, match="bad call"):
            serial_ui._ui._route(_Handler())
