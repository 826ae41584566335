"""Engine configuration, modelled on ``SparkConf``.

A :class:`EngineConfig` carries every knob the engine, block manager and
schedulers consult.  It is an immutable-ish dataclass with a ``set``/``get``
string interface layered on top so that code ported from Spark idioms
(``conf.set("spark.executor.memory", "10g")``) reads naturally.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass, field
from typing import Any

_SIZE_RE = re.compile(r"^\s*([0-9]+(?:\.[0-9]+)?)\s*([kmgt]?)i?b?\s*$", re.IGNORECASE)

_SIZE_FACTORS = {"": 1, "k": 1024, "m": 1024**2, "g": 1024**3, "t": 1024**4}


def parse_size(text: str | int | float) -> int:
    """Parse a human-readable byte size (``"10g"``, ``"512m"``, ``1024``).

    Returns the size in bytes.  Raises :class:`ValueError` for malformed
    strings so configuration errors surface at set-time rather than deep in
    the block manager.
    """
    if isinstance(text, (int, float)):
        if text < 0:
            raise ValueError(f"negative size: {text!r}")
        return int(text)
    match = _SIZE_RE.match(text)
    if not match:
        raise ValueError(f"cannot parse size {text!r}")
    value, unit = match.groups()
    return int(float(value) * _SIZE_FACTORS[unit.lower()])


def format_size(num_bytes: int) -> str:
    """Render a byte count using the largest whole unit (``"1.5 GiB"``)."""
    size = float(num_bytes)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if size < 1024 or unit == "TiB":
            return f"{size:.1f} {unit}" if unit != "B" else f"{int(size)} B"
        size /= 1024
    raise AssertionError("unreachable")


@dataclass
class EngineConfig:
    """Configuration for a :class:`repro.engine.context.Context`.

    Attributes mirror the Spark knobs the paper's Experiment C tunes
    (executors/containers, memory per executor, cores per executor) plus
    engine-internal settings (default parallelism, scheduler retry policy,
    block-manager budget).
    """

    app_name: str = "sparkscore"
    #: execution backend: "serial", "threads", or "cluster" (persistent
    #: executor processes surviving across jobs and contexts); "processes"
    #: is accepted as another spelling of "cluster" and normalised away
    backend: str = "serial"
    #: number of executors (YARN containers); Experiment C varies this
    num_executors: int = 2
    #: cores (task slots) per executor
    executor_cores: int = 2
    #: memory per executor in bytes, used by the block manager for caching
    executor_memory: int = 512 * 1024**2
    #: default number of partitions for parallelize / shuffles
    default_parallelism: int = 4
    #: maximum automatic retries for a failed task before failing the job
    max_task_retries: int = 3
    #: maximum stage resubmissions on shuffle-fetch failure
    max_stage_retries: int = 4
    #: fraction of executor memory usable for cached blocks
    storage_fraction: float = 0.6
    #: deterministic seed for engine-internal tie-breaking
    seed: int = 0
    #: seconds between executor heartbeats (0 disables the telemetry plane:
    #: no hub thread, no heartbeat events, no timeout detection)
    heartbeat_interval: float = 0.5
    #: seconds without a heartbeat from a busy executor before the driver
    #: declares it lost (``ExecutorTimedOut``); 0 disables timeout detection
    #: while keeping heartbeat events flowing
    heartbeat_timeout: float = 30.0
    #: fraction of task attempts to run under ``cProfile`` (0 disables);
    #: sampling is deterministic in (stage_id, partition)
    profile_fraction: float = 0.0
    #: hotspot rows kept per profiled task attempt
    profile_top_n: int = 20
    #: blobs at least this large travel by shared-memory/temp-file
    #: transport ref instead of through the worker socket (cluster backend)
    transport_min_bytes: int = 64 * 1024
    #: out-of-band transport scheme: "auto" (probe shared memory, fall back
    #: to temp files), "shm", "file", or "tcp" (socket blob server with
    #: SHA-256 dedup offers -- required for executors on other hosts)
    transport_scheme: str = "auto"
    #: "host:port" of an externally started cluster head (``sparkscore
    #: cluster start``); empty means the cluster backend spawns and owns a
    #: process-local persistent worker pool
    cluster_address: str = ""
    #: shared secret for the HMAC handshake an external cluster head
    #: requires on every connection (``sparkscore cluster start`` prints
    #: one when not given ``--secret``); empty falls back to the
    #: ``REPRO_CLUSTER_SECRET`` environment variable at connect time
    cluster_secret: str = ""
    #: minimum level of structured log records the process log bus keeps
    #: ("debug", "info", "warning", "error"); shipped to worker processes
    #: so their capture filters at the same level
    log_level: str = "info"
    #: a task whose duration is at least this multiple of its stage's
    #: median is flagged as a straggler (``StragglerDetected``)
    straggler_multiplier: float = 3.0
    #: absolute duration floor for straggler flagging; sub-floor tasks are
    #: never stragglers no matter the ratio (keeps trivial stages quiet)
    straggler_min_seconds: float = 0.1
    #: a stage whose max-over-median partition ratio (records, bytes, or
    #: duration) reaches this flags ``StageSkewDetected``
    skew_max_over_median: float = 4.0
    #: stages with fewer tasks than this are exempt from skew/straggler
    #: analysis (tiny stages are trivially imbalanced)
    diagnostics_min_tasks: int = 4
    #: seconds between metrics-sampler snapshots of the process registry
    #: into the in-memory TSDB (0 disables the sampler thread)
    metrics_interval: float = 0.0
    #: full-resolution samples kept per series before folding into the
    #: downsampled tier
    metrics_retention: int = 512
    #: raw samples folded into one min/max/mean bin on eviction
    metrics_downsample: int = 8
    #: evaluate alerting rules each sampler tick (implies a sampler: when
    #: ``metrics_interval`` is 0 the context picks a default interval)
    alerts_enabled: bool = False
    #: directory for failure post-mortem bundles ("" disables the recorder)
    flight_recorder_dir: str = ""
    #: seconds of event/metric history captured in each post-mortem bundle
    flight_recorder_window: float = 30.0
    #: adaptive query execution: rewrite reduce stages between stage
    #: boundaries when the registered map-output statistics show skew
    adaptive_enabled: bool = False
    #: hard cap on how many pieces one oversized reduce bucket may be
    #: split into (splits happen along map-output boundaries)
    adaptive_max_splits: int = 8
    #: buckets below this fraction of the median are coalesced with
    #: adjacent small buckets
    adaptive_coalesce_ratio: float = 0.25
    #: launch duplicate attempts of straggling tasks on warm executors;
    #: first result wins, the loser is cancelled and ignored
    speculation_enabled: bool = False
    #: a running task becomes a speculation candidate once its elapsed
    #: time reaches this multiple of the completed-task median
    speculation_multiplier: float = 2.0
    #: never speculate tasks that have run for less than this (seconds)
    speculation_min_runtime: float = 0.1
    #: fraction of a task set that must have completed before the median
    #: is trusted and twins may launch
    speculation_quantile: float = 0.75
    #: sequential early stopping: mask SNP-sets out of further resampling
    #: batches once their p-value confidence interval excludes
    #: ``inference_alpha`` (monitoring itself is always on; this enables
    #: the action half of the loop)
    inference_early_stop: bool = False
    #: significance threshold the convergence monitor classifies against
    inference_alpha: float = 0.05
    #: binomial interval for the running p-value estimates: "wilson"
    #: (score interval, fast) or "clopper-pearson" (exact, conservative)
    inference_ci: str = "wilson"
    #: replicates every set must see before any early-stop decision
    inference_min_replicates: int = 64
    #: free-form extra options (string keyed, Spark style)
    extra: dict[str, Any] = field(default_factory=dict)

    #: the one frame format's name; a class constant, not a field.  Kept only
    #: for benchmarks/e2e (``layers.py`` reads ``config.serializer``); drop
    #: in the next ``[benchmark]`` PR
    serializer = "pickle"

    _ALIASES = {
        "spark.app.name": "app_name",
        "spark.executor.instances": "num_executors",
        "spark.executor.cores": "executor_cores",
        "spark.executor.memory": "executor_memory",
        "spark.default.parallelism": "default_parallelism",
        "spark.task.maxFailures": "max_task_retries",
        "spark.stage.maxConsecutiveAttempts": "max_stage_retries",
        "spark.memory.storageFraction": "storage_fraction",
        "spark.executor.heartbeatInterval": "heartbeat_interval",
        "spark.network.timeout": "heartbeat_timeout",
        "spark.python.profile.fraction": "profile_fraction",
        "spark.transport.minBytes": "transport_min_bytes",
        "spark.transport.scheme": "transport_scheme",
        "spark.cluster.address": "cluster_address",
        "spark.cluster.secret": "cluster_secret",
        "spark.log.level": "log_level",
        "spark.speculation": "speculation_enabled",
        "spark.speculation.multiplier": "speculation_multiplier",
        "spark.speculation.minTaskRuntime": "speculation_min_runtime",
        "spark.speculation.quantile": "speculation_quantile",
        "spark.adaptive.enabled": "adaptive_enabled",
        "spark.sql.adaptive.enabled": "adaptive_enabled",
        "spark.adaptive.maxSplits": "adaptive_max_splits",
        "spark.adaptive.coalesceRatio": "adaptive_coalesce_ratio",
        "spark.diagnostics.skewRatio": "skew_max_over_median",
        "spark.diagnostics.minTasks": "diagnostics_min_tasks",
        "spark.metrics.interval": "metrics_interval",
        "spark.metrics.retention": "metrics_retention",
        "spark.metrics.downsample": "metrics_downsample",
        "spark.alerts.enabled": "alerts_enabled",
        "spark.flightRecorder.dir": "flight_recorder_dir",
        "spark.flightRecorder.window": "flight_recorder_window",
        "spark.inference.earlyStop": "inference_early_stop",
        "spark.inference.alpha": "inference_alpha",
        "spark.inference.ci": "inference_ci",
        "spark.inference.minReplicates": "inference_min_replicates",
    }

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise :class:`ValueError` on inconsistent settings."""
        if self.backend == "processes":
            # one process-isolated backend: nothing downstream sees the alias
            self.backend = "cluster"
        if self.backend not in ("serial", "threads", "cluster"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.transport_scheme not in ("auto", "shm", "file", "tcp"):
            raise ValueError(
                f"unknown transport_scheme {self.transport_scheme!r}; "
                "choose from auto, shm, file, tcp"
            )
        if self.num_executors < 1:
            raise ValueError("num_executors must be >= 1")
        if self.executor_cores < 1:
            raise ValueError("executor_cores must be >= 1")
        if self.executor_memory < 0:
            raise ValueError("executor_memory must be >= 0")
        if self.default_parallelism < 1:
            raise ValueError("default_parallelism must be >= 1")
        if not 0.0 <= self.storage_fraction <= 1.0:
            raise ValueError("storage_fraction must be in [0, 1]")
        if self.max_task_retries < 0 or self.max_stage_retries < 0:
            raise ValueError("retry counts must be >= 0")
        if self.heartbeat_interval < 0 or self.heartbeat_timeout < 0:
            raise ValueError("heartbeat settings must be >= 0")
        if not 0.0 <= self.profile_fraction <= 1.0:
            raise ValueError("profile_fraction must be in [0, 1]")
        if self.profile_top_n < 1:
            raise ValueError("profile_top_n must be >= 1")
        if self.transport_min_bytes < 0:
            raise ValueError("transport_min_bytes must be >= 0")
        from repro.obs.logging import LEVELS

        if self.log_level not in LEVELS:
            raise ValueError(
                f"unknown log_level {self.log_level!r}; "
                f"choose from {', '.join(LEVELS)}"
            )
        if self.straggler_multiplier < 1.0:
            raise ValueError("straggler_multiplier must be >= 1")
        if self.straggler_min_seconds < 0:
            raise ValueError("straggler_min_seconds must be >= 0")
        if self.skew_max_over_median < 1.0:
            raise ValueError("skew_max_over_median must be >= 1")
        if self.diagnostics_min_tasks < 2:
            raise ValueError("diagnostics_min_tasks must be >= 2")
        if self.metrics_interval < 0:
            raise ValueError("metrics_interval must be >= 0")
        if self.metrics_retention < 2:
            raise ValueError("metrics_retention must be >= 2")
        if self.metrics_downsample < 1:
            raise ValueError("metrics_downsample must be >= 1")
        if self.flight_recorder_window <= 0:
            raise ValueError("flight_recorder_window must be > 0")
        if self.adaptive_max_splits < 1:
            raise ValueError("adaptive_max_splits must be >= 1")
        if not 0.0 < self.adaptive_coalesce_ratio < 1.0:
            raise ValueError("adaptive_coalesce_ratio must be in (0, 1)")
        if self.speculation_multiplier < 1.0:
            raise ValueError("speculation_multiplier must be >= 1")
        if self.speculation_min_runtime < 0:
            raise ValueError("speculation_min_runtime must be >= 0")
        if not 0.0 < self.speculation_quantile <= 1.0:
            raise ValueError("speculation_quantile must be in (0, 1]")
        if not 0.0 < self.inference_alpha < 1.0:
            raise ValueError("inference_alpha must be in (0, 1)")
        if self.inference_ci not in ("wilson", "clopper-pearson"):
            raise ValueError(
                f"unknown inference_ci {self.inference_ci!r}; "
                "choose from wilson, clopper-pearson"
            )
        if self.inference_min_replicates < 1:
            raise ValueError("inference_min_replicates must be >= 1")

    # -- Spark-style string interface ------------------------------------

    def set(self, key: str, value: Any) -> "EngineConfig":
        """Set an option by Spark-style dotted key; returns self (chainable)."""
        attr = self._ALIASES.get(key)
        if attr is None:
            self.extra[key] = value
            return self
        if attr in ("executor_memory", "transport_min_bytes"):
            value = parse_size(value)
        else:
            current = getattr(self, attr)
            if isinstance(current, bool):
                if isinstance(value, str):
                    value = value.strip().lower() in ("1", "true", "yes", "on")
                else:
                    value = bool(value)
            elif isinstance(current, int):
                value = int(value)
            elif isinstance(current, float):
                value = float(value)
        setattr(self, attr, value)
        self.validate()
        return self

    def get(self, key: str, default: Any = None) -> Any:
        """Read an option by Spark-style dotted key."""
        attr = self._ALIASES.get(key)
        if attr is not None:
            return getattr(self, attr)
        return self.extra.get(key, default)

    # -- derived quantities ----------------------------------------------

    @property
    def total_cores(self) -> int:
        """Total task slots across the application."""
        return self.num_executors * self.executor_cores

    @property
    def storage_memory_per_executor(self) -> int:
        """Bytes of cache budget per executor block manager."""
        return int(self.executor_memory * self.storage_fraction)

    def copy(self, **overrides: Any) -> "EngineConfig":
        """Return a copy with the given attribute overrides applied."""
        return dataclasses.replace(self, extra=dict(self.extra), **overrides)
