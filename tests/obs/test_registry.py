"""Metrics registry: instruments, labels, exposition, and the bus bridge."""

import pytest

from repro.engine.listener import (
    BlockCached,
    BlockEvicted,
    JobEnd,
    ListenerBus,
    ShuffleFetch,
    ShuffleWrite,
    TaskEnd,
)
from repro.engine.metrics import JobMetrics, TaskMetrics, TaskRecord
from repro.obs.registry import MetricsListener, Registry


class TestCounter:
    def test_inc_and_value(self):
        c = Registry().counter("hits_total", "hits")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_counters_never_decrease(self):
        c = Registry().counter("hits_total")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_labeled_children_are_independent(self):
        c = Registry().counter("ops_total", labelnames=("kind",))
        c.labels(kind="read").inc(3)
        c.labels(kind="write").inc()
        assert c.labels(kind="read").value == 3
        assert c.labels(kind="write").value == 1

    def test_wrong_labels_rejected(self):
        c = Registry().counter("ops_total", labelnames=("kind",))
        with pytest.raises(ValueError):
            c.labels(color="red")
        with pytest.raises(ValueError):
            c.inc()  # labeled instrument needs .labels()


class TestGauge:
    def test_set_and_dec(self):
        g = Registry().gauge("depth")
        g.set(10)
        g.dec(3)
        assert g.value == 7

    def test_dec_invalid_on_counter(self):
        c = Registry().counter("n_total")
        with pytest.raises(TypeError):
            c.dec()


class TestHistogram:
    def test_observe_buckets_sum_count(self):
        h = Registry().histogram("lat_seconds", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 5.0, 50.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(55.55)

    def test_quantile_upper_bound(self):
        h = Registry().histogram("lat_seconds", buckets=(0.1, 1.0, 10.0))
        for _ in range(99):
            h.observe(0.05)
        h.observe(5.0)
        assert h.labels().quantile(0.5) == 0.1
        assert h.labels().quantile(1.0) == 10.0

    def test_observe_invalid_on_counter(self):
        c = Registry().counter("n_total")
        with pytest.raises(TypeError):
            c.observe(1.0)


class TestRegistry:
    def test_registration_is_idempotent(self):
        r = Registry()
        a = r.counter("jobs_total", "jobs")
        b = r.counter("jobs_total")
        assert a is b

    def test_kind_conflict_raises(self):
        r = Registry()
        r.counter("x_total")
        with pytest.raises(ValueError, match="already registered"):
            r.gauge("x_total")

    def test_render_prometheus_text(self):
        r = Registry()
        r.counter("jobs_total", "jobs run", labelnames=("engine",)).labels(
            engine="local"
        ).inc(2)
        r.histogram("dur_seconds", "durations", buckets=(1.0,)).observe(0.5)
        text = r.render()
        assert "# TYPE jobs_total counter" in text
        assert 'jobs_total{engine="local"} 2' in text
        assert 'dur_seconds_bucket{le="1"} 1' in text
        assert 'dur_seconds_bucket{le="+Inf"} 1' in text
        assert "dur_seconds_sum 0.5" in text
        assert "dur_seconds_count 1" in text

    def test_snapshot_skips_histograms(self):
        r = Registry()
        r.counter("a_total").inc()
        r.histogram("b_seconds").observe(1.0)
        snap = r.snapshot()
        assert snap == {"a_total": 1}


class TestMetricsListener:
    def _bus(self):
        registry = Registry()
        bus = ListenerBus()
        bus.add_listener(MetricsListener(registry))
        return bus, registry

    def _record(self, succeeded=True, hits=0, misses=0, duration=0.5):
        return TaskRecord(
            stage_id=0, partition=0, attempt=0, executor_id="e0",
            duration_seconds=duration,
            metrics=TaskMetrics(cache_hits=hits, cache_misses=misses),
            succeeded=succeeded,
        )

    def test_task_outcomes_and_cache_counts(self):
        bus, registry = self._bus()
        bus.post(TaskEnd(record=self._record(hits=2, misses=1)))
        bus.post(TaskEnd(record=self._record(succeeded=False)))
        snap = registry.snapshot()
        assert snap['engine_tasks_total{outcome="success"}'] == 1
        assert snap['engine_tasks_total{outcome="failure"}'] == 1
        assert snap["engine_cache_hits_total"] == 2
        assert snap["engine_cache_misses_total"] == 1
        assert registry.get("engine_task_seconds").count == 1  # failures excluded

    def test_shuffle_and_block_series(self):
        bus, registry = self._bus()
        bus.post(ShuffleWrite(shuffle_id=0, map_partition=0, executor_id="e0",
                              bytes_written=100, records_written=10))
        bus.post(ShuffleFetch(shuffle_id=0, reduce_partition=0, records_read=10))
        bus.post(BlockCached(block_id=("rdd", 1, 0), executor_id="e0",
                             size=64, level="memory"))
        bus.post(BlockEvicted(block_id=("rdd", 1, 0), executor_id="e0",
                              size=64, spilled=False))
        snap = registry.snapshot()
        assert snap["engine_shuffle_bytes_total"] == 100
        assert snap['engine_shuffle_records_total{direction="write"}'] == 10
        assert snap['engine_shuffle_records_total{direction="read"}'] == 10
        assert snap["engine_blocks_cached_total"] == 1
        assert snap["engine_block_bytes_cached_total"] == 64
        assert snap["engine_blocks_evicted_total"] == 1

    def test_job_end_counts(self):
        bus, registry = self._bus()
        bus.post(JobEnd(job_id=0, job=JobMetrics(job_id=0)))
        assert registry.snapshot()["engine_jobs_total"] == 1


class TestExposition:
    def test_label_values_escaped(self):
        registry = Registry()
        c = registry.counter("esc_total", "t", labelnames=("path",))
        c.labels(path='a\\b"c\nd').inc()
        (sample,) = [
            line for line in registry.render().splitlines()
            if line.startswith("esc_total{")
        ]
        assert sample == 'esc_total{path="a\\\\b\\"c\\nd"} 1'

    def test_help_text_escaped(self):
        registry = Registry()
        registry.counter("h_total", "line one\nline two \\ backslash")
        rendered = registry.render()
        assert "# HELP h_total line one\\nline two \\\\ backslash" in rendered
        assert "\nline two" not in rendered.replace("\\n", "")

    def test_stable_ordering_is_deterministic(self):
        def build():
            registry = Registry()
            b = registry.counter("b_total", "b", labelnames=("x",))
            a = registry.gauge("a_gauge", "a")
            b.labels(x="2").inc(2)
            b.labels(x="1").inc()
            a.set(5)
            return registry.render()

        first, second = build(), build()
        assert first == second
        lines = [l for l in first.splitlines() if not l.startswith("#")]
        assert lines == ["a_gauge 5", 'b_total{x="1"} 1', 'b_total{x="2"} 2']

    def test_openmetrics_render_timestamps_and_eof(self):
        registry = Registry()
        registry.counter("om_total", "t").inc(3)
        rendered = registry.render(openmetrics=True, timestamp=12.3456)
        assert "om_total 3 12.346" in rendered
        assert rendered.rstrip().endswith("# EOF")
        # plain render stays timestamp- and EOF-free
        plain = registry.render()
        assert "om_total 3\n" in plain and "# EOF" not in plain

    def test_openmetrics_histogram_series_timestamped(self):
        registry = Registry()
        registry.histogram("om_seconds", "t", buckets=(1.0, 2.0)).observe(1.5)
        lines = registry.render(openmetrics=True, timestamp=7.0).splitlines()
        assert 'om_seconds_bucket{le="2"} 1 7' in lines
        assert "om_seconds_count 1 7" in lines

    def test_monitoring_counters_bridge_from_bus(self):
        from repro.engine.listener import StageSkewDetected, StragglerDetected

        registry = Registry()
        bus = ListenerBus()
        bus.add_listener(MetricsListener(registry))
        bus.post(StageSkewDetected(stage_id=0, job_id=0, metric="duration",
                                   max_over_median=20.0))
        bus.post(StragglerDetected(stage_id=0, job_id=0, partition=3,
                                   attempt=0, executor_id="e0",
                                   duration_seconds=9.0, median_seconds=1.0))
        bus.stop()
        snap = registry.snapshot()
        assert snap["engine_stage_skew_total"] == 1
        assert snap["engine_stragglers_total"] == 1
        assert not any(k.startswith("engine_alerts_fired") for k in snap)
