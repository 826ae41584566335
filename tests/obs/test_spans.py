"""Span construction, JSONL round-trip, and Chrome trace export.

Trace stitching anchors the last classes: every backend -- in-process or
across the cluster's socket boundary -- must produce the *same* span tree
for the same job, with the worker task-phase fragments a ``TaskRecord``
carries stitched under the driver's task and stage spans.  Their workload
function is module-level: task-binary identity is the hash of the pickled
closure.
"""

import json

import pytest

from repro.config import EngineConfig
from repro.engine.context import Context
from repro.engine.eventlog import EventLogListener, read_event_log
from repro.engine.listener import JobEnd
from repro.engine.metrics import JobMetrics, StageMetrics, TaskMetrics, TaskRecord
from repro.obs.spans import (
    Span,
    read_spans_jsonl,
    spans_from_jobs,
    to_chrome_trace,
    write_chrome_trace,
    write_spans_jsonl,
)


def _record(stage_id=0, partition=0, duration=0.25, start=0.0, executor="e0"):
    return TaskRecord(
        stage_id=stage_id, partition=partition, attempt=0, executor_id=executor,
        duration_seconds=duration, metrics=TaskMetrics(), succeeded=True,
        start_time=start,
    )


def _job(job_id=0):
    stage = StageMetrics(stage_id=0, name="map", num_tasks=2, wall_seconds=0.6)
    stage.tasks = [_record(partition=0, duration=0.5), _record(partition=1, duration=0.3)]
    return JobMetrics(job_id=job_id, description="demo", wall_seconds=0.7,
                      stages=[stage])


def _fail(x):
    raise ValueError("bad record")


class TestContextTrace:
    """``Context(trace_path=)`` writes ``spans_from_jobs`` of the job
    records its jobs ended with -- the records its event log keeps -- so
    the trace equals ``history --export-trace`` of that log."""

    def test_trace_written_on_stop(self, serial_config, tmp_path):
        path = str(tmp_path / "live.json")
        with Context(serial_config, trace_path=path) as ctx:
            ctx.parallelize(range(8), 2).map(lambda x: x + 1).sum()
        with open(path) as fh:
            cats = [e["cat"] for e in json.load(fh)["traceEvents"] if e["ph"] == "X"]
        assert cats.count("job") == 1
        assert cats.count("task") == 2

    def test_trace_is_the_event_logs_span_tree(self, serial_config, tmp_path):
        trace, log = str(tmp_path / "trace.jsonl"), str(tmp_path / "events.jsonl")
        with Context(serial_config, trace_path=trace, event_log_path=log) as ctx:
            ctx.parallelize([(i % 3, i) for i in range(12)], 4).reduce_by_key(
                lambda a, b: a + b
            ).collect()
            with pytest.raises(Exception):
                ctx.parallelize(range(4), 2).map(_fail).collect()
        live = [s.to_dict() for s in read_spans_jsonl(trace)]
        assert live == [s.to_dict() for s in spans_from_jobs(read_event_log(log))]
        # the failed job is traced too: its stage is flagged, its failed
        # attempts sit at the instant the driver saw them fail
        stages = [s for s in live if s["category"] == "stage"]
        assert [s["attrs"]["failed"] for s in stages] == [False, False, True]
        failed = [
            s for s in live
            if s["category"] == "task" and not s["attrs"]["succeeded"]
        ]
        assert failed and all(
            stages[-1]["start"] <= s["start"] == s["end"] for s in failed
        )


class TestOfflineSpans:
    def test_spans_from_jobs_hierarchy(self):
        spans = spans_from_jobs([_job()])
        assert [s.category for s in spans] == ["job", "stage", "task", "task"]
        job_span, stage_span, t0, t1 = spans
        assert stage_span.parent_id == job_span.span_id
        assert t0.parent_id == t1.parent_id == stage_span.span_id

    def test_round_trip_through_event_log(self, tmp_path):
        job = _job()
        job.stages[0].tasks[0].span_fragments = [{"name": "compute", "start": 0.1, "end": 0.4}]
        path = str(tmp_path / "ev.jsonl")
        listener = EventLogListener(path)
        listener.on_job_end(JobEnd(job_id=0, job=job))
        listener.close()
        spans = spans_from_jobs(read_event_log(path))
        assert len(spans) == 5  # job, stage, two tasks and one worker phase
        assert [s.to_dict() for s in spans] == [s.to_dict() for s in spans_from_jobs([job])]


class TestJsonlRoundTrip:
    def test_spans_survive(self, tmp_path):
        spans = spans_from_jobs([_job()])
        path = str(tmp_path / "trace.jsonl")
        n = write_spans_jsonl(spans, path)
        assert n == len(spans)
        loaded = read_spans_jsonl(path)
        assert [s.to_dict() for s in loaded] == [s.to_dict() for s in spans]


class TestChromeTrace:
    def test_structure(self):
        trace = to_chrome_trace(spans_from_jobs([_job()]))
        events = trace["traceEvents"]
        x = [e for e in events if e["ph"] == "X"]
        meta = [e for e in events if e["ph"] == "M"]
        assert len(x) == 4
        assert all(isinstance(e["tid"], int) for e in x)
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in x)
        thread_names = {e["args"]["name"] for e in meta if e["name"] == "thread_name"}
        assert "driver" in thread_names and "e0" in thread_names

    def test_tasks_on_executor_track_stages_on_driver(self):
        trace = to_chrome_trace(spans_from_jobs([_job()]))
        x = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        driver_tid = 0
        for e in x:
            if e["cat"] in ("job", "stage"):
                assert e["tid"] == driver_tid
            else:
                assert e["tid"] != driver_tid

    def test_empty_trace(self):
        assert to_chrome_trace([]) == {"traceEvents": [], "displayTimeUnit": "ms"}

    def test_write_is_valid_json(self, tmp_path):
        path = str(tmp_path / "trace.json")
        write_chrome_trace(spans_from_jobs([_job()]), path)
        with open(path) as fh:
            data = json.load(fh)
        assert data["traceEvents"]


class TestSpanDataclass:
    def test_duration_never_negative(self):
        span = Span(1, None, "x", "task", 5.0, 4.0)
        assert span.duration == 0.0

    def test_dict_round_trip(self):
        span = Span(1, None, "x", "task", 1.0, 2.0, {"k": "v"})
        assert Span.from_dict(span.to_dict()) == span


# -- trace stitching across backends -----------------------------------------


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
        return read_spans_jsonl(path)

    def test_every_backend_stitches_the_same_tree(self, tmp_path):
        shapes, phases = {}, {}
        for backend in self.BACKENDS:
            spans = self._run_traced(backend, tmp_path)
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
        worker task-phase slices on executor tracks."""
        path = str(tmp_path / "cluster_trace.json")
        with Context(_cluster_config(), trace_path=path) as ctx:
            ctx.parallelize(range(12), 4).map(_add_one).sum()
        with open(path) as fh:
            trace = json.load(fh)
        slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        by_cat = {}
        for e in slices:
            by_cat.setdefault(e["cat"], []).append(e)
        assert set(by_cat) == {"job", "stage", "task", "task_phase"}
        # job/stage on the driver track (tid 0); worker phases elsewhere
        assert all(e["tid"] == 0 for e in by_cat["job"] + by_cat["stage"])
        assert all(e["tid"] != 0 for e in by_cat["task_phase"])
