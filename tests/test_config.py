"""EngineConfig and size parsing."""

import pytest

from repro.config import EngineConfig, format_size, parse_size


class TestParseSize:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1024", 1024),
            ("1k", 1024),
            ("10K", 10 * 1024),
            ("512m", 512 * 1024**2),
            ("10g", 10 * 1024**3),
            ("1.5g", int(1.5 * 1024**3)),
            ("2t", 2 * 1024**4),
            ("10GiB", 10 * 1024**3),
            ("  8 mb ", 8 * 1024**2),
            (4096, 4096),
            (1.0, 1),
        ],
    )
    def test_valid(self, text, expected):
        assert parse_size(text) == expected

    @pytest.mark.parametrize("bad", ["", "abc", "10x", "-5m"])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            parse_size(bad)

    def test_negative_number(self):
        with pytest.raises(ValueError):
            parse_size(-1)

    def test_format_size(self):
        assert format_size(512) == "512 B"
        assert format_size(1536) == "1.5 KiB"
        assert format_size(3 * 1024**3) == "3.0 GiB"


class TestEngineConfig:
    def test_defaults_valid(self):
        config = EngineConfig()
        assert config.total_cores == 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"backend": "cuda"},
            {"num_executors": 0},
            {"executor_cores": 0},
            {"executor_memory": -1},
            {"default_parallelism": 0},
            {"storage_fraction": 1.5},
            {"max_task_retries": -1},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            EngineConfig(**kwargs)

    def test_spark_style_set_get(self):
        config = EngineConfig()
        config.set("spark.executor.instances", 8).set("spark.executor.memory", "2g")
        assert config.num_executors == 8
        assert config.executor_memory == 2 * 1024**3
        assert config.get("spark.executor.instances") == 8

    def test_unknown_keys_go_to_extra(self):
        config = EngineConfig()
        config.set("spark.custom.flag", "on")
        assert config.get("spark.custom.flag") == "on"
        assert config.get("spark.missing", "default") == "default"

    def test_set_validates(self):
        with pytest.raises(ValueError):
            EngineConfig().set("spark.executor.cores", 0)

    def test_processes_is_a_spelling_of_cluster(self):
        config = EngineConfig(backend="processes")
        assert config.backend == "cluster"
        # every path back through validate() normalises it again
        assert config.copy(backend="processes").backend == "cluster"
        config.backend = "processes"
        config.set("spark.executor.instances", 3)
        assert config.backend == "cluster"
        assert config.get("spark.executor.instances") == 3

    def test_frame_format_is_not_a_knob(self):
        from repro.engine.context import Context

        with pytest.raises(TypeError):
            EngineConfig(serializer="numpy")
        with pytest.raises(TypeError):
            EngineConfig().copy(serializer="compressed")
        with pytest.raises(TypeError):
            Context(serializer="numpy")
        config = EngineConfig().set("spark.serializer", "numpy")  # an extra, no alias
        assert config.serializer == EngineConfig().serializer == "pickle"

    def test_storage_memory_budget(self):
        config = EngineConfig(executor_memory=1000, storage_fraction=0.6)
        assert config.storage_memory_per_executor == 600

    def test_copy_overrides(self):
        base = EngineConfig(num_executors=2)
        derived = base.copy(num_executors=5)
        assert derived.num_executors == 5
        assert base.num_executors == 2
        derived.extra["x"] = 1
        assert "x" not in base.extra


class TestMonitoringKnobs:
    def test_defaults_off(self):
        config = EngineConfig()
        assert config.metrics_interval == 0.0
        assert config.alerts_enabled is False
        assert config.flight_recorder_dir == ""
        assert config.metrics_retention == 512
        assert config.metrics_downsample == 8
        assert config.flight_recorder_window == 30.0

    def test_spark_style_aliases(self):
        config = EngineConfig()
        config.set("spark.metrics.interval", "0.5")
        config.set("spark.metrics.retention", "128")
        config.set("spark.metrics.downsample", "4")
        config.set("spark.alerts.enabled", "true")
        config.set("spark.flightRecorder.dir", "/tmp/bundles")
        config.set("spark.flightRecorder.window", "10")
        assert config.metrics_interval == 0.5
        assert config.metrics_retention == 128
        assert config.metrics_downsample == 4
        assert config.alerts_enabled is True
        assert config.flight_recorder_dir == "/tmp/bundles"
        assert config.flight_recorder_window == 10.0

    @pytest.mark.parametrize(
        "text,expected",
        [("true", True), ("1", True), ("yes", True), ("on", True),
         ("false", False), ("0", False), ("no", False), ("off", False)],
    )
    def test_bool_fields_coerce_strings(self, text, expected):
        config = EngineConfig()
        config.set("spark.alerts.enabled", text)
        assert config.alerts_enabled is expected

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"metrics_interval": -1.0},
            {"metrics_retention": 1},
            {"metrics_downsample": 0},
            {"flight_recorder_window": 0.0},
        ],
    )
    def test_invalid_monitoring_values(self, kwargs):
        with pytest.raises(ValueError):
            EngineConfig(**kwargs)

    def test_copy_carries_monitoring_fields(self):
        config = EngineConfig().copy(
            metrics_interval=0.25, alerts_enabled=True,
            flight_recorder_dir="/tmp/fr",
        )
        assert config.metrics_interval == 0.25
        assert config.alerts_enabled is True
        assert config.flight_recorder_dir == "/tmp/fr"
