"""The driver context: entry point to the engine (Spark's ``SparkContext``)."""

from __future__ import annotations

import itertools
import weakref
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from repro.config import EngineConfig
from repro.engine.backends import make_backend
from repro.engine.blockmanager import BlockManagerMaster
from repro.engine.broadcast import Broadcast
from repro.engine.executor import build_executors
from repro.engine.faults import FaultInjector
from repro.engine.listener import CollectingListener, JobEnd, ListenerBus
from repro.engine.metrics import MetricsRegistry
from repro.engine.shuffle import ShuffleManager

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.rdd import RDD


class Context:
    """Driver-side handle owning executors, shuffle state, and metrics.

    Use as a context manager to guarantee backend shutdown::

        with Context(EngineConfig(backend="cluster", num_executors=4)) as ctx:
            ctx.parallelize(range(10)).map(str).collect()
    """

    def __init__(
        self,
        config: EngineConfig | None = None,
        fault_injector: FaultInjector | None = None,
        event_log_path: str | None = None,
        trace_path: str | None = None,
        progress: bool = False,
        log_file: str | None = None,
    ) -> None:
        self.config = config or EngineConfig()
        #: when set, each completed job is streamed here as JSONL (v4)
        self.event_log_path = event_log_path
        #: when set, every structured log record is appended here as JSONL
        self.log_file = log_file
        #: when set, a span trace is written on stop() -- Chrome
        #: ``trace_event`` JSON, or span JSONL if the path ends in .jsonl
        self.trace_path = trace_path
        self.listener_bus = ListenerBus()
        self.backend = make_backend(self.config)
        #: out-of-band blob transport (shared memory / temp files / TCP);
        #: only the process-isolated cluster backend moves bytes across
        #: address spaces, and it owns the transport (which must outlive
        #: this context so warm workers keep their handles).  None on the
        #: serial backend
        self.transport = (
            None if self.backend.supports_shared_state else self.backend.transport
        )
        #: live :class:`~repro.engine.transport.ByRef` holders (broadcast
        #: payloads, ``parallelize`` partitions) this context may have
        #: published on that transport; ``stop()`` deletes their segments so
        #: a long-lived fleet's ``/dev/shm`` stays bounded
        self._published: "weakref.WeakSet" = weakref.WeakSet()
        self.executors = build_executors(
            self.config.num_executors,
            self.config.executor_cores,
            self.config.storage_memory_per_executor,
        )
        self.block_master = BlockManagerMaster()
        for executor in self.executors:
            self.block_master.register_manager(executor.block_manager)
        self.shuffle_manager = ShuffleManager()
        self.metrics = MetricsRegistry()
        # inference observability: convergence monitors for resampling
        # p-values
        from repro.obs.inference import InferenceObservability

        self.inference = InferenceObservability(self)
        self.fault_injector = fault_injector

        # optional listeners: the event log writer when requested, and for
        # a trace the job record of every JobEnd (failed jobs included),
        # the records the event log keeps, so the trace written on stop()
        # is the one ``history --export-trace`` rebuilds from that log
        self._event_log_listener = None
        if event_log_path is not None:
            from repro.engine.eventlog import EventLogListener

            self._event_log_listener = EventLogListener(event_log_path)
            self.listener_bus.add_listener(self._event_log_listener)
        self._traced_jobs = None
        if trace_path is not None:
            self._traced_jobs = self.listener_bus.add_listener(CollectingListener(JobEnd))

        # structured logging: the process log bus runs at this context's
        # configured level; optional sinks mirror records to a JSONL file
        # and into the event log's v4 side channel
        from repro.obs.logging import LOG_BUS, JsonlLogSink

        self._previous_log_level = LOG_BUS.level
        LOG_BUS.set_level(self.config.log_level)
        self._log_sinks: list = []
        self._log_file_sink = None
        if log_file is not None:
            self._log_file_sink = JsonlLogSink(log_file)
            self._log_sinks.append(LOG_BUS.add_sink(self._log_file_sink))
        if self._event_log_listener is not None:
            self._log_sinks.append(LOG_BUS.add_sink(self._event_log_listener.write_log))

        # online diagnostics: skew/straggler detection on stage completion
        from repro.obs.diagnostics import DiagnosticsListener

        self.listener_bus.add_listener(DiagnosticsListener())

        # console stage bars: the progress state exists only to draw them
        self.progress = None
        if progress:
            from repro.obs.progress import ConsoleProgressListener, ProgressTracker

            self.progress = ProgressTracker()
            self.listener_bus.add_listener(self.progress)
            self.listener_bus.add_listener(ConsoleProgressListener(self.progress))

        # heartbeat plane: liveness for busy executors + timeout monitor.
        # Cluster only: a serial task runs inline on the driver thread, so
        # nothing could act on its timeout before it returned
        self.heartbeats = None
        if self.config.heartbeat_interval > 0 and not self.backend.supports_shared_state:
            from repro.engine.heartbeat import HeartbeatHub

            self.heartbeats = HeartbeatHub(self)
            self.listener_bus.add_listener(self.heartbeats)
            self.heartbeats.start()

        self._rdd_ids = itertools.count()
        self._shuffle_ids = itertools.count()
        self._stage_ids = itertools.count()
        self._job_ids = itertools.count()
        self._broadcast_ids = itertools.count()
        self._stopped = False

        # deferred import to avoid a cycle (scheduler -> context typing)
        from repro.engine.scheduler import DAGScheduler

        self._dag_scheduler = DAGScheduler(self)

    # -- id assignment ------------------------------------------------------

    def _new_rdd_id(self) -> int:
        return next(self._rdd_ids)

    def _new_shuffle_id(self) -> int:
        return next(self._shuffle_ids)

    # -- RDD creation ----------------------------------------------------------

    def parallelize(self, data: Iterable, num_partitions: int | None = None) -> "RDD":
        """Distribute a local collection into an RDD."""
        from repro.engine.rdd import ParallelCollectionRDD

        self._check_alive()
        if num_partitions is not None and num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        n = num_partitions if num_partitions is not None else self.config.default_parallelism
        return ParallelCollectionRDD(self, data, n)

    def range(self, start: int, end: int | None = None, step: int = 1, num_partitions: int | None = None) -> "RDD":
        if end is None:
            start, end = 0, start
        return self.parallelize(range(start, end, step), num_partitions)

    def text_file(self, path: str, min_partitions: int | None = None) -> "RDD":
        """Read a local text file into an RDD of lines, split by byte range
        with Hadoop's line-ownership rule."""
        from repro.engine.rdd import TextFileRDD

        self._check_alive()
        if min_partitions is not None and min_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        n = min_partitions if min_partitions is not None else self.config.default_parallelism
        return TextFileRDD(self, path, n)

    # -- shared variables ----------------------------------------------------------

    def broadcast(self, value: Any) -> Broadcast:
        self._check_alive()
        bc = Broadcast(next(self._broadcast_ids), value, transport=self.transport)
        if self.transport is not None:
            self._track_published([bc._payload])
        return bc

    def _track_published(self, holders: Iterable) -> None:
        self._published.update(holders)

    # -- execution ------------------------------------------------------------------

    def run_job(
        self,
        rdd: "RDD",
        func: Callable[[Iterator], Any],
        partitions: list[int] | None = None,
        description: str = "",
    ) -> list[Any]:
        """Run ``func`` over the requested partitions; returns per-partition values."""
        self._check_alive()
        return self._dag_scheduler.run_job(rdd, func, partitions, description)

    # -- cache management ------------------------------------------------------------

    def _drop_cached_rdd(self, rdd_id: int) -> None:
        for executor in self.executors:
            for block_id in executor.block_manager.block_ids():
                if block_id[0] == rdd_id:
                    executor.block_manager.remove(block_id)
        # cluster workers keep their resident copies until LRU takes them:
        # the RDD now pickles as not persisted, so nothing reads them, and
        # persisting it again finds them (same lineage, same fingerprint)
        self.block_master.remove_rdd(rdd_id)

    def cached_partition_count(self, rdd: "RDD") -> int:
        """How many of an RDD's partitions are currently cached somewhere."""
        return len(self.block_master.cached_partitions(rdd.id))

    # -- fault injection ------------------------------------------------------------

    def set_fault_injector(self, injector: FaultInjector | None) -> None:
        self.fault_injector = injector

    def kill_executor(self, executor_id: str) -> None:
        """Immediately kill an executor (blocks + shuffle outputs lost)."""
        for executor in self.executors:
            if executor.executor_id == executor_id:
                executor.kill()
                break
        else:
            raise KeyError(f"no executor {executor_id!r}")
        self.block_master.remove_executor(executor_id)
        self.shuffle_manager.remove_outputs_on_executor(executor_id)

    # -- observability ---------------------------------------------------------------

    def add_listener(self, listener):
        """Subscribe a :class:`~repro.engine.listener.Listener` to engine events."""
        return self.listener_bus.add_listener(listener)

    # -- lifecycle ---------------------------------------------------------------------

    def stop(self) -> None:
        if not self._stopped:
            if self.heartbeats is not None:
                self.heartbeats.stop()
            if self._traced_jobs is not None:
                from repro.obs.spans import (
                    spans_from_jobs,
                    write_chrome_trace,
                    write_spans_jsonl,
                )

                spans = spans_from_jobs(e.job for e in self._traced_jobs.events)
                if self.trace_path.endswith(".jsonl"):
                    write_spans_jsonl(spans, self.trace_path)
                else:
                    write_chrome_trace(spans, self.trace_path)
            from repro.obs.logging import LOG_BUS

            for sink in self._log_sinks:
                LOG_BUS.remove_sink(sink)
            self._log_sinks.clear()
            if self._log_file_sink is not None:
                self._log_file_sink.close()
                self._log_file_sink = None
            LOG_BUS.set_level(self._previous_log_level)
            self.listener_bus.stop()
            self.backend.shutdown()
            # release what this context owns now rather than at the next
            # gen-2 collection: the context sits in reference cycles (its
            # scheduler, planner and listeners point back at it), so until
            # then it would pin every cached block of the analysis
            for holder in list(self._published):
                holder.unpublish()
            for executor in self.executors:
                executor.block_manager.clear()
            self.shuffle_manager.clear()
            self._stopped = True

    def _check_alive(self) -> None:
        if self._stopped:
            raise RuntimeError("context is stopped")

    def __enter__(self) -> "Context":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def __repr__(self) -> str:
        return (
            f"Context(backend={self.config.backend}, executors={self.config.num_executors}"
            f"x{self.config.executor_cores} cores)"
        )
