"""The fleet observability plane: cross-process trace propagation and
cluster-resident metrics federation.

Two properties anchor this file.  First, trace stitching: every backend
-- in-process or across the cluster's socket boundary -- must produce
the *same* span tree for the same job, with worker task-phase spans
parented under the driver's stage spans and every span stamped with the
driver's trace id.  Second, persistence: :class:`FleetStats` lives in
the cluster manager, so its series must survive Context teardown and be
queryable by later drivers (and distinguish drivers by trace id).

Workload functions are module-level: task-binary identity is the hash of
the pickled closure, and lambdas on different source lines would defeat
the warm-cache assertions.
"""

import json
import types
import urllib.request

import pytest

from repro.config import EngineConfig
from repro.engine.context import Context
from repro.obs.fleet import FleetStats, render_fleet_families


def _cluster_config(**overrides) -> EngineConfig:
    base = dict(
        backend="cluster",
        num_executors=2,
        executor_cores=2,
        default_parallelism=4,
    )
    base.update(overrides)
    return EngineConfig(**base)


def _add_one(x):
    return x + 1


def _raise_boom(x):
    raise ValueError("boom")


def _get_json(url):
    with urllib.request.urlopen(url, timeout=5.0) as resp:
        assert resp.status == 200
        return json.loads(resp.read().decode())


# -- FleetStats unit behavior -------------------------------------------------


class TestFleetStats:
    def test_task_attribution_by_driver(self):
        fs = FleetStats()
        fs.note_attach("trace-a")
        assert fs.current_driver() == "trace-a"
        fs.note_task_done("exec-0", "trace-a")
        fs.note_task_done("exec-1", "trace-a")
        fs.note_task_done("exec-0", None, ok=False)
        fs.note_detach()
        assert fs.current_driver() == ""

        snap = fs.snapshot()
        assert snap["jobs_served"] == 1
        assert snap["tasks_completed"] == 3
        assert snap["task_errors"] == 1
        assert snap["tasks_by_driver"] == {"trace-a": 2, "unattributed": 1}
        assert snap["drivers_seen"] == ["trace-a", "unattributed"]
        assert snap["uptime_seconds"] >= 0.0
        # the per-driver throughput series is keyed by executor AND driver
        labels = {
            (s["labels"].get("executor_id"), s["labels"].get("driver"))
            for s in snap["series"] if s["name"] == "fleet_tasks_total"
        }
        assert ("exec-0", "trace-a") in labels
        assert ("exec-0", "unattributed") in labels

    def test_heartbeat_folds_per_executor_series(self):
        fs = FleetStats()
        record = types.SimpleNamespace(
            executor_id="exec-7", rss_bytes=1 << 20, inflight=[1, 2],
            records_read=42,
        )
        fs.note_heartbeat(record)
        snap = fs.snapshot()
        assert snap["heartbeats_received"] == 1
        assert {"fleet_executor_rss_bytes", "fleet_executor_inflight",
                "fleet_records_read"} <= set(snap["series_names"])
        by_name = {s["name"]: s for s in snap["series"]}
        assert by_name["fleet_executor_rss_bytes"]["labels"] == {
            "executor_id": "exec-7"
        }
        assert by_name["fleet_executor_inflight"]["samples"][-1][1] == 2.0

    def test_lifecycle_ring_is_bounded(self):
        fs = FleetStats()
        for i in range(300):
            fs.note_lifecycle(f"exec-{i % 4}", "registered")
        snap = fs.snapshot()
        assert len(snap["lifecycle"]) == 256
        # oldest entries fell off; every row is a [time, executor, state] triple
        assert all(len(row) == 3 for row in snap["lifecycle"])

    def test_snapshot_is_json_safe(self):
        fs = FleetStats()
        fs.note_attach("t")
        fs.note_task_done("exec-0", "t")
        fs.note_frame_bytes(bytes_in=10, bytes_out=20)
        json.dumps(fs.snapshot())  # must not raise


class TestRenderFleetFamilies:
    def _snapshot(self):
        fs = FleetStats()
        fs.note_attach("t")
        fs.note_task_done("exec-0", "t")
        fs.note_heartbeat(types.SimpleNamespace(
            executor_id="exec-0", rss_bytes=100.0, inflight=[], records_read=1,
        ))
        return fs.snapshot()

    def test_renders_help_type_and_labeled_samples(self):
        lines = render_fleet_families(self._snapshot())
        assert "# TYPE fleet_tasks_total counter" in lines
        assert "# TYPE fleet_executor_rss_bytes gauge" in lines
        sample = next(l for l in lines if l.startswith("fleet_tasks_total{"))
        assert 'driver="t"' in sample and 'executor_id="exec-0"' in sample

    def test_skip_set_guards_family_collisions(self):
        """A family the Context registry already exposes must not appear a
        second time -- duplicate HELP/TYPE blocks are a scrape error."""
        lines = render_fleet_families(
            self._snapshot(), skip={"fleet_tasks_total"}
        )
        assert not any("fleet_tasks_total" in l for l in lines)
        assert any("fleet_executor_rss_bytes" in l for l in lines)


# -- trace stitching across backends -----------------------------------------


def _span_index(spans):
    return {s.span_id: s for s in spans}


def _tree_shape(spans):
    """Canonical stitched-tree shape: (category, parent category) edge
    multiset over the core hierarchy, independent of ids and timing."""
    by_id = _span_index(spans)
    return sorted(
        (s.category,
         by_id[s.parent_id].category if s.parent_id in by_id else None)
        for s in spans if s.category in ("job", "stage", "task")
    )


def _phase_chains(spans):
    """(phase name, parent category chain) for every worker task-phase
    fragment -- the cross-process stitching under test."""
    by_id = _span_index(spans)
    chains = set()
    for span in spans:
        if span.category != "task_phase":
            continue
        task = by_id[span.parent_id]
        stage = by_id[task.parent_id]
        job = by_id[stage.parent_id]
        chains.add((span.attrs["phase"], task.category, stage.category,
                    job.category))
    return chains


class TestTraceParity:
    BACKENDS = ("serial", "cluster")

    def _run_traced(self, backend, tmp_path):
        config = EngineConfig(
            backend=backend, num_executors=2, executor_cores=2,
            default_parallelism=4,
        )
        path = str(tmp_path / f"{backend}.jsonl")
        with Context(config, trace_path=path) as ctx:
            assert ctx.parallelize(range(12), 4).map(_add_one).sum() == 78
            return ctx.trace_id, list(ctx.spans)

    def test_every_backend_stitches_the_same_tree(self, tmp_path):
        shapes, phases = {}, {}
        for backend in self.BACKENDS:
            trace_id, spans = self._run_traced(backend, tmp_path)
            # every span -- including worker-shipped fragments -- carries
            # the driver's trace id
            assert {s.attrs.get("trace_id") for s in spans} == {trace_id}
            shapes[backend] = _tree_shape(spans)
            phases[backend] = _phase_chains(spans)
        # one job span, one stage under it, four tasks under the stage --
        # identically stitched whether tasks ran in-process or over sockets
        assert len(set(map(tuple, shapes.values()))) == 1
        assert shapes["cluster"] == [
            ("job", None), ("stage", "job"),
            ("task", "stage"), ("task", "stage"),
            ("task", "stage"), ("task", "stage"),
        ]
        # worker task phases cross the process/socket boundary and stitch
        # under task -> stage -> job
        assert {p for p, *_ in phases["cluster"]} >= {
            "deserialize", "compute", "result_serialize"
        }
        assert all(
            chain == ["task", "stage", "job"]
            for _, *chain in phases["cluster"]
        )

    def test_cluster_chrome_trace_has_worker_phase_tracks(self, tmp_path):
        """Acceptance: the exported Chrome trace from a cluster job carries
        worker task-phase slices on executor tracks, stamped with the
        driver's trace id."""
        path = str(tmp_path / "cluster_trace.json")
        with Context(_cluster_config(), trace_path=path) as ctx:
            ctx.parallelize(range(12), 4).map(_add_one).sum()
            trace_id = ctx.trace_id
        with open(path) as fh:
            trace = json.load(fh)
        slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        by_cat = {}
        for e in slices:
            by_cat.setdefault(e["cat"], []).append(e)
        assert set(by_cat) == {"job", "stage", "task", "task_phase"}
        assert all(e["args"]["trace_id"] == trace_id for e in slices)
        # job/stage on the driver track (tid 0); worker phases elsewhere
        assert all(e["tid"] == 0 for e in by_cat["job"] + by_cat["stage"])
        assert all(e["tid"] != 0 for e in by_cat["task_phase"])

    def test_two_drivers_keep_distinct_trace_ids_on_one_fleet(self):
        """Two successive Contexts share the persistent fleet but must stay
        distinguishable: distinct trace ids, each attributed its own tasks
        in the fleet's per-driver ledger."""
        config = _cluster_config()
        with Context(config) as ctx1:
            ctx1.parallelize(range(8), 4).map(_add_one).collect()
            first_trace = ctx1.trace_id
            manager = ctx1.backend._manager
        with Context(config) as ctx2:
            assert ctx2.backend._manager is manager  # same persistent fleet
            ctx2.parallelize(range(8), 4).map(_add_one).collect()
            second_trace = ctx2.trace_id
        assert first_trace != second_trace
        snap = manager.fleet_snapshot()
        assert snap["tasks_by_driver"].get(first_trace, 0) >= 4
        assert snap["tasks_by_driver"].get(second_trace, 0) >= 4
        assert {first_trace, second_trace} <= set(snap["drivers_seen"])


# -- federation surfaces ------------------------------------------------------


class TestFleetSurfaces:
    def test_api_fleet_persists_across_contexts(self):
        """Acceptance: /api/fleet serves per-executor series that survive
        Context teardown -- the second driver sees the first's history."""
        config = _cluster_config()
        with Context(config, ui_port=0) as ctx1:
            ctx1.parallelize(range(16), 4).map(_add_one).sum()
            first_trace = ctx1.trace_id
            first = _get_json(ctx1.ui_url + "/api/fleet")
            assert first["enabled"] is True
            jobs_before = first["jobs_served"]
        with Context(config, ui_port=0) as ctx2:
            ctx2.parallelize(range(16), 4).map(_add_one).sum()
            snap = _get_json(ctx2.ui_url + "/api/fleet?window=3600")
        assert snap["enabled"] is True
        assert snap["jobs_served"] >= jobs_before + 1
        assert snap["uptime_seconds"] > 0
        tasks_series = [
            s for s in snap["series"] if s["name"] == "fleet_tasks_total"
        ]
        assert {s["labels"]["executor_id"] for s in tasks_series} \
            >= {"exec-0", "exec-1"}
        # the dead driver's series persisted in the fleet store
        assert first_trace in {s["labels"].get("driver") for s in tasks_series}
        assert snap["warm"]["binaries_cached"] >= 1

    def test_api_fleet_disabled_off_cluster(self, serial_config):
        with Context(serial_config, ui_port=0) as ctx:
            assert _get_json(ctx.ui_url + "/api/fleet") == {"enabled": False}

    def test_metrics_exposition_includes_fleet_families_once(self):
        """Satellite: fleet series join /metrics with their own families,
        never colliding with the Context registry's, and stay inside the
        exposition's # EOF terminator."""
        with Context(_cluster_config(), ui_port=0) as ctx:
            ctx.parallelize(range(16), 4).map(_add_one).sum()
            with urllib.request.urlopen(ctx.ui_url + "/metrics", timeout=5.0) as r:
                body = r.read().decode()
        assert "# TYPE fleet_tasks_total counter" in body
        type_lines = [l for l in body.splitlines() if l.startswith("# TYPE ")]
        families = [l.split()[2] for l in type_lines]
        assert len(families) == len(set(families)), "duplicate metric family"
        assert body.rstrip().endswith("# EOF")

    def test_failed_run_event_log_carries_fleet_snapshot(self, tmp_path):
        """Satellite: a job failure on a persistent fleet leaves the
        cluster-resident history in the event log's ``fleet`` line."""
        from repro.engine.eventlog import read_channels

        log = str(tmp_path / "events.jsonl")
        with Context(_cluster_config(), event_log_path=log) as ctx:
            with pytest.raises(Exception, match="boom"):
                ctx.parallelize(range(4), 4).map(_raise_boom).collect()
        (fleet,) = read_channels(log)["fleet"]
        assert fleet["jobs_served"] >= 1
        assert fleet["task_errors"] >= 1
        assert "warm" in fleet and "lifecycle" in fleet


def _raise(exc):
    def call(*args):
        raise exc

    return call


class TestFleetSnapshotErrors:
    """The stop-time ``fleet`` line: an in-process snapshot does no I/O, so
    any error from it is a bug and propagates."""

    @staticmethod
    def _stub_ctx(tmp_path, snapshot):
        config = EngineConfig(backend="serial", num_executors=1,
                              executor_cores=1, default_parallelism=1)
        ctx = Context(config, event_log_path=str(tmp_path / "events.jsonl"))
        ctx.backend.fleet_snapshot = snapshot
        assert ctx.parallelize(range(4), 1).sum() == 6
        return ctx

    def test_a_type_error_propagates_from_stop(self, tmp_path):
        ctx = self._stub_ctx(tmp_path, _raise(TypeError("bad call")))
        with pytest.raises(TypeError, match="bad call"):
            ctx.stop()
        del ctx.backend.fleet_snapshot
        ctx.stop()  # the rest of teardown still runs
