"""DAG scheduler and task scheduler.

The :class:`DAGScheduler` turns an action into a :class:`StageGraph`,
executes stages whose parents' shuffle outputs are available, and handles
shuffle-fetch failures by letting the missing map partitions be recomputed
(Spark's stage-resubmission path).  The :class:`TaskScheduler` places task
attempts on alive executors (cache-aware), retries transient failures up
to ``max_task_retries``, and converts executor loss into block/shuffle
invalidation plus rescheduling.  A task that raises
:class:`~repro.genomics.io.formats.FormatError` met malformed input: it is
not retried and the job fails with that error, unwrapped.

Every attempt takes one path on either backend: the fault injector fires
at launch, the task's shuffle input is prefetched as frames, the backend
runs the task (inline on serial, in a worker process on the cluster), the
attempt claims its partition's commit, and one merge
(:meth:`TaskScheduler._merge_attempt`) folds its result into driver state.
A task touches no driver state itself: it returns its value (a map task's
encoded buckets, which the merge registers) and the ids of the cache
blocks it left resident or evicted, and the driver keeps block locations
in its ``BlockManagerMaster`` and none of the data.  Placement sends a
partition to the same executor (and worker process) every time, and a miss
anywhere (evicted, dead holder, retry elsewhere) recomputes from lineage.
The cluster also ships each stage once, as a kilobyte task binary
(lineage, closures and content-hash refs; see
:meth:`TaskScheduler._build_task_binary`).
"""

from __future__ import annotations

import concurrent.futures
import pickle
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.engine.blockmanager import estimate_size
from repro.engine.closure import dumps as closure_dumps
from repro.engine.dag import Stage, StageGraph
from repro.engine.dependencies import ShuffleDependency
from repro.engine.executor import Executor, ExecutorLostError
from repro.engine.listener import (
    JobEnd,
    JobStart,
    StageCompleted,
    StageSubmitted,
    TaskEnd,
    TaskStart,
)
from repro.engine.metrics import JobMetrics, StageMetrics, TaskMetrics, TaskRecord
from repro.engine.serializer import FrameBatch
from repro.engine.shuffle import FetchFailedError
from repro.engine.task import (
    ResultTask,
    ShuffleMapTask,
    Task,
    TaskBinary,
    TaskContext,
)
from repro.genomics.io.formats import FormatError
from repro.obs.logging import LOG_BUS, get_logger, log_context

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.context import Context
    from repro.engine.rdd import RDD

log = get_logger("repro.scheduler")

#: application name stamped on every job's log records
APP_NAME = "sparkscore"
#: resubmissions of one stage after shuffle-fetch failures before the job fails
MAX_STAGE_RETRIES = 4


class JobFailedError(RuntimeError):
    """The job could not complete within the configured retry budgets."""


class _FetchFailedSignal(Exception):
    """Internal: a reduce task hit a missing map output; resubmit parents."""

    def __init__(self, shuffle_id: int, map_partition: int) -> None:
        super().__init__(f"fetch failed: shuffle {shuffle_id} map {map_partition}")
        self.shuffle_id = shuffle_id
        self.map_partition = map_partition


class _SiblingCommitted(Exception):
    """Internal: a sibling attempt of this partition committed first.

    Raised *before* any driver-side state was merged, so the attempt is
    discarded without a retry, a failure count, or a TaskEnd."""

    def __init__(self, partition: int, attempt: int) -> None:
        super().__init__(
            f"partition {partition} attempt {attempt}: a sibling attempt committed first"
        )
        self.partition = partition
        self.attempt = attempt


class _TaskSetCommits:
    """First-result-wins commit claims for one task set.

    An attempt abandoned at a heartbeat timeout keeps running in its
    worker, and its late result can reach the driver after the retry's.
    Map-output registration, block locations and worker log replays do not
    dedup by themselves -- so a task attempt must win the claim for its
    partition *before* any of its side effects are folded into driver
    state.  Exactly one attempt per partition ever commits."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._claimed: dict[int, int] = {}

    def try_claim(self, partition: int, attempt: int) -> bool:
        with self._lock:
            if partition in self._claimed:
                return False
            self._claimed[partition] = attempt
            return True


@dataclass
class _Attempt:
    """One in-flight task attempt as tracked by ``run_task_set``."""

    task: "Task"
    attempt: int
    executor: Executor


def _cancel_attempt(future: concurrent.futures.Future) -> None:
    """Cancel a scheduler future and its chained backend future, if any."""
    future.cancel()
    pool_future = getattr(future, "_pool_future", None)
    if pool_future is not None:
        pool_future.cancel()


def stage_shuffle_inputs(rdd: "RDD", split: int) -> set[tuple[int, int]]:
    """(shuffle_id, reduce_partition) pairs read by this task's stage slice."""
    out: set[tuple[int, int]] = set()
    seen: set[tuple[int, int]] = set()

    def visit(node: "RDD", s: int) -> None:
        if (node.id, s) in seen:
            return
        seen.add((node.id, s))
        for dep in node.dependencies:
            if isinstance(dep, ShuffleDependency):
                out.add((dep.shuffle_id, s))
            else:
                for parent_split in dep.parents(s):
                    visit(dep.rdd, parent_split)

    visit(rdd, split)
    return out


def stage_cached_rdds(rdd: "RDD") -> list["RDD"]:
    """Cached RDDs a task of this stage may compute: ``rdd`` and its
    ancestors through narrow dependencies (a shuffle ends the stage)."""
    seen: dict[int, "RDD"] = {}
    frontier = [rdd]
    while frontier:
        node = frontier.pop()
        if node.id not in seen:
            seen[node.id] = node
            frontier.extend(
                dep.rdd for dep in node.dependencies
                if not isinstance(dep, ShuffleDependency)
            )
    return [node for node in seen.values() if node.is_cached]


@dataclass
class _SerializedTaskBinary:
    """What the driver keeps of a stage's published :class:`TaskBinary`.

    The pickle itself lives on the cluster's transport (published once,
    content-hash dedup'd) and tasks ship only ``ref``; in the
    ``task_binary_bytes`` accounting an executor is charged the full
    pickle the first time it sees the binary and only the ref's bytes
    afterwards.
    """

    #: pickled size of the binary
    size: int
    #: transport handle the pickle was published under
    ref: Any
    #: pickled size of ``ref`` (the per-task cost once dedup'd)
    ref_cost: int

    @property
    def binary_id(self) -> str:
        """SHA-256 of the pickle (the one ``put`` took): content identity,
        not a per-context sequence number, so persistent executors recognize
        a binary they already hold even when an earlier (dead) Context
        built it."""
        return self.ref.content_hash


class TaskScheduler:
    """Runs one stage's task set with retries and executor management."""

    def __init__(self, ctx: "Context") -> None:
        self.ctx = ctx
        #: store key -> rdd id of every cached RDD this Context's stages
        #: computed (see :meth:`_block_keys`)
        self._rdd_of_key: dict[Any, int] = {}

    # -- placement ------------------------------------------------------------

    def _alive_executors(self) -> list[Executor]:
        return [e for e in self.ctx.executors if e.alive]

    def _choose_executor(self, task: Task, exclude: set[str]) -> Executor:
        alive = [e for e in self._alive_executors() if e.executor_id not in exclude]
        if not alive:
            alive = self._alive_executors()
        if not alive:
            raise JobFailedError("no alive executors remain")
        # 1) prefer executors already holding this partition's cached block
        if task.rdd.is_cached:
            holders = set(self.ctx.block_master.locations((task.rdd.id, task.partition)))
            for executor in alive:
                if executor.executor_id in holders:
                    return executor
        # 2) otherwise placement is *stable*: partition -> same executor (and,
        # on the cluster, same worker process) across jobs and contexts, so a
        # rerun lands where that partition's resident blocks, slice and
        # broadcasts already are
        return alive[task.partition % len(alive)]

    # -- execution ---------------------------------------------------------------

    def run_task_set(
        self,
        stage: Stage,
        tasks: list[Task],
        job: JobMetrics,
        stage_metrics: StageMetrics,
    ) -> dict[int, Any]:
        """Run all tasks; returns {partition: result}.

        Raises :class:`_FetchFailedSignal` on an unrecoverable-in-stage fetch
        failure and :class:`JobFailedError` when retry budgets are exhausted.
        """
        config = self.ctx.config
        backend = self.ctx.backend
        results: dict[int, Any] = {}
        # FIFO: partition 0 launches first, so locality/straggler traces
        # read in partition order
        pending: deque[tuple[Task, int, set[str]]] = deque((t, 0, set()) for t in tasks)
        inflight: dict[concurrent.futures.Future, _Attempt] = {}
        max_inflight = max(1, backend.parallelism) * 2
        fetch_failure: _FetchFailedSignal | None = None
        keys = self._block_keys(stage)
        task_binary: _SerializedTaskBinary | None = None
        if tasks and self.ctx.transport is not None:
            # only a backend that moves bytes between address spaces ships
            # the stage as a binary, published on its transport
            task_binary = self._build_task_binary(stage, tasks[0], keys)

        commits = _TaskSetCommits()
        hub = getattr(self.ctx, "heartbeats", None)
        # with an active timeout monitor, wake up periodically to check for
        # lost executors instead of blocking until some future completes
        wait_timeout = None
        if hub is not None and hub.timeout > 0:
            wait_timeout = max(hub.interval, 0.01)

        while pending or inflight:
            launched = False
            while pending and len(inflight) < max_inflight and fetch_failure is None:
                task, attempt, tried = pending.popleft()
                executor = self._choose_executor(task, exclude=tried)
                self.ctx.listener_bus.post(
                    TaskStart(stage.id, task.partition, attempt, executor.executor_id)
                )
                future = self._submit(
                    stage, task, attempt, executor, keys, task_binary, job, commits
                )
                inflight[future] = _Attempt(task, attempt, executor)
                launched = True
            if launched:
                # the cluster sends this pass's launches together
                backend.flush()
            if not inflight:
                break
            done, _ = concurrent.futures.wait(
                inflight,
                timeout=wait_timeout,
                return_when=concurrent.futures.FIRST_COMPLETED,
            )
            if hub is not None:
                for executor_id in hub.take_timed_out():
                    self._reschedule_lost_executor(
                        executor_id, stage_metrics, inflight, pending, done, job, config
                    )
            # in launch order, not the wait set's: which of a failed job's
            # finished siblings post their TaskEnds must not vary run to run
            for future in [future for future in inflight if future in done]:
                att = inflight.pop(future)
                task, attempt, executor = att.task, att.attempt, att.executor
                try:
                    value, record = future.result()
                except _SiblingCommitted:
                    # first-result-wins: an attempt abandoned at a heartbeat
                    # timeout committed this partition first; nothing of
                    # this one was merged, so nothing needs retrying
                    log.debug(
                        "a sibling attempt committed first; attempt discarded",
                        job_id=job.job_id, stage_id=stage.id,
                        partition=task.partition, attempt=attempt,
                        executor_id=executor.executor_id,
                    )
                except FetchFailedError as exc:
                    executor.note_task(False)
                    job.num_task_failures += 1
                    self._post_failed_task(stage_metrics, task, attempt, executor, exc)
                    log.warning(
                        "shuffle fetch failed; stage will be resubmitted",
                        job_id=job.job_id, stage_id=stage.id,
                        partition=task.partition, attempt=attempt,
                        executor_id=executor.executor_id,
                        shuffle_id=exc.shuffle_id, map_partition=exc.map_partition,
                    )
                    if fetch_failure is None:
                        fetch_failure = _FetchFailedSignal(exc.shuffle_id, exc.map_partition)
                except ExecutorLostError as exc:
                    executor.note_task(False)
                    job.num_task_failures += 1
                    self._post_failed_task(stage_metrics, task, attempt, executor, exc)
                    log.warning(
                        "task lost its executor; retrying elsewhere",
                        job_id=job.job_id, stage_id=stage.id,
                        partition=task.partition, attempt=attempt,
                        executor_id=exc.executor_id,
                    )
                    self._handle_executor_loss(exc.executor_id, job)
                    if attempt + 1 > config.max_task_retries:
                        raise JobFailedError(
                            f"task (stage={stage.id}, partition={task.partition}) "
                            f"exceeded {config.max_task_retries} retries"
                        ) from exc
                    pending.append((task, attempt + 1, set()))
                except Exception as exc:  # transient / injected task failure
                    executor.note_task(False)
                    job.num_task_failures += 1
                    self._post_failed_task(stage_metrics, task, attempt, executor, exc)
                    log.warning(
                        "task attempt failed",
                        job_id=job.job_id, stage_id=stage.id,
                        partition=task.partition, attempt=attempt,
                        executor_id=executor.executor_id,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                    if isinstance(exc, FormatError):
                        # malformed input, not a fault: the same bytes fail
                        # the same way on every executor, and the error
                        # already names its file and line
                        raise
                    if attempt + 1 > config.max_task_retries:
                        raise JobFailedError(
                            f"task (stage={stage.id}, partition={task.partition}) failed "
                            f"permanently after {attempt + 1} attempts: {exc}"
                        ) from exc
                    tried = set(tried) | {executor.executor_id}
                    pending.append((task, attempt + 1, tried))
                else:
                    executor.note_task(True)
                    results[task.partition] = value
                    if isinstance(task, ResultTask):
                        record.metrics.driver_bytes_collected += estimate_size(value)
                    stage_metrics.tasks.append(record)
                    self.ctx.listener_bus.post(TaskEnd(record))
                    log.debug(
                        "task finished",
                        job_id=job.job_id, stage_id=stage.id,
                        partition=task.partition, attempt=attempt,
                        executor_id=executor.executor_id,
                        duration_seconds=round(record.duration_seconds, 6),
                    )
        if fetch_failure is not None:
            raise fetch_failure
        return results

    def _reschedule_lost_executor(
        self,
        executor_id: str,
        stage_metrics: StageMetrics,
        inflight: dict,
        pending: deque,
        done: set,
        job: JobMetrics,
        config: Any,
    ) -> None:
        """Heartbeat timeout: declare the executor lost, retry its tasks.

        In-flight attempts on the lost executor are abandoned -- their
        futures are cancelled and dropped from the wait set, so a late
        result is discarded before any driver-side merge, and the commit
        claim covers one that races the cancel -- and each task is requeued
        on a healthy executor, excluding the lost one.
        """
        self._handle_executor_loss(executor_id, job)
        log.warning(
            "executor heartbeat timeout; rescheduling its in-flight tasks",
            job_id=job.job_id, stage_id=stage_metrics.stage_id,
            executor_id=executor_id,
        )
        abandoned = [
            future
            for future, att in inflight.items()
            if att.executor.executor_id == executor_id and future not in done
        ]
        for future in abandoned:
            att = inflight.pop(future)
            _cancel_attempt(future)  # no-op if already running; drops queued attempts
            att.executor.note_task(False)
            job.num_task_failures += 1
            exc = ExecutorLostError(executor_id)
            self._post_failed_task(stage_metrics, att.task, att.attempt, att.executor, exc)
            if att.attempt + 1 > config.max_task_retries:
                raise JobFailedError(
                    f"task (stage={stage_metrics.stage_id}, "
                    f"partition={att.task.partition}) "
                    f"exceeded {config.max_task_retries} retries "
                    f"(executor {executor_id} heartbeat timeout)"
                ) from exc
            pending.append((att.task, att.attempt + 1, {executor_id}))

    def _post_failed_task(
        self,
        stage_metrics: StageMetrics,
        task: Task,
        attempt: int,
        executor: Executor,
        exc: Exception,
    ) -> None:
        """Record a failed attempt on its stage and publish its TaskEnd.

        Every failure path comes here -- a raising task, a lost executor, a
        heartbeat timeout, a fetch failure -- so the job's event-log line
        holds each failed attempt with its executor and error, stamped with
        the moment the driver saw it fail (its span is that instant).
        """
        record = TaskRecord(
            stage_id=stage_metrics.stage_id,
            partition=task.partition,
            attempt=attempt,
            executor_id=executor.executor_id,
            duration_seconds=0.0,
            metrics=TaskMetrics(),
            succeeded=False,
            error=f"{type(exc).__name__}: {exc}",
            start_time=time.perf_counter(),
        )
        stage_metrics.tasks.append(record)
        self.ctx.listener_bus.post(TaskEnd(record))

    def _block_keys(self, stage: Stage) -> dict[int, Any]:
        """The store key of each cached RDD this stage may compute, by rdd
        id, and noted in the driver's key -> rdd id map (an attempt reports
        the blocks its puts evicted by store key)."""
        backend = self.ctx.backend
        keys = {node.id: backend.block_key(node) for node in stage_cached_rdds(stage.rdd)}
        self._rdd_of_key.update((key, rdd_id) for rdd_id, key in keys.items())
        return keys

    def _build_task_binary(
        self, stage: Stage, probe: Task, keys: dict[int, Any]
    ) -> _SerializedTaskBinary:
        """Serialize the stage's closure/lineage once for all its tasks.

        The pickle is thin -- ``parallelize`` partitions and large
        broadcasts pickle as content-hash refs -- so building it costs
        kilobytes, not the dataset, and a stage a warm fleet has seen
        before pickles to the same bytes and publishes nothing.
        """
        shuffle_map = isinstance(probe, ShuffleMapTask)
        binary = TaskBinary(
            stage.id, "shuffle_map" if shuffle_map else "result", stage.rdd,
            func=None if shuffle_map else probe.func,
            shuffle_dep=probe.shuffle_dep if shuffle_map else None,
            block_keys=keys,
        )
        # closure-aware pickling: lambdas and locally-defined functions in
        # the lineage serialize by value (repro.engine.closure)
        blob = closure_dumps(binary)
        # every binary is published by ref regardless of size: workers that
        # evicted it can re-fetch it from the long-lived transport, and the
        # content-hash dedup makes job 2's publication a no-op
        # (transport_dedup_hits instead of bytes)
        ref = self.ctx.transport.put(blob, dedup=True)
        return _SerializedTaskBinary(
            len(blob), ref, len(pickle.dumps(ref, protocol=pickle.HIGHEST_PROTOCOL))
        )

    def _submit(
        self,
        stage: Stage,
        task: Task,
        attempt: int,
        executor: Executor,
        keys: dict[int, Any],
        tb: _SerializedTaskBinary | None,
        job: JobMetrics,
        commits: _TaskSetCommits,
    ) -> concurrent.futures.Future:
        """Launch one attempt on either backend without blocking.

        The returned future resolves to ``(value, TaskRecord)`` once the
        task has run *and* the driver-side merge (shuffle output, block
        locations) has run in the backend future's completion callback,
        so ``run_task_set`` keeps ``max_inflight`` attempts genuinely
        parallel on the cluster.
        """
        out_future: concurrent.futures.Future = concurrent.futures.Future()
        backend = self.ctx.backend
        try:
            if not executor.alive:
                raise ExecutorLostError(executor.executor_id)
            # fault plans fire at launch on the driver: the injector's state
            # cannot ship to worker processes, and the future surfaces the
            # raise through the retry path
            injector = self.ctx.fault_injector
            if injector is not None:
                injector.on_task_launch(TaskContext(
                    stage.id, task.partition, attempt, executor.executor_id
                ))
            # the task reads its shuffle input as the map outputs' frames,
            # prefetched here (cached blocks are the executor's business:
            # held there or recomputed from the lineage)
            prefetched = {
                key: FrameBatch([
                    block.payload
                    for block in self.ctx.shuffle_manager.fetch_blocks(*key)
                    if block.num_records
                ])
                for key in stage_shuffle_inputs(task.rdd, task.partition)
            }
            start = time.perf_counter()
            pool_future = backend.submit_task(
                task, attempt, executor, prefetched, job.job_id, keys, tb
            )
        except BaseException as exc:  # noqa: BLE001 - surface via the future
            out_future.set_exception(exc)
            return out_future

        def _finish(done: concurrent.futures.Future) -> None:
            # nothing left to cancel; and the two futures pointing at each
            # other (a done future keeps its callbacks) would be a cycle
            # pinning the task, its lineage and its data until a gen-2 gc
            out_future._pool_future = None
            # the scheduler may have abandoned (cancelled) this attempt after
            # a heartbeat timeout; a late worker result must not blow up the
            # completion callback with InvalidStateError
            if out_future.cancelled():
                return
            try:
                out = backend.open_result(done.result())
                if not commits.try_claim(task.partition, attempt):
                    # a sibling attempt committed first: drop this result
                    # before any driver-state merge
                    raise _SiblingCommitted(task.partition, attempt)
                value, record = self._merge_attempt(
                    stage, task, attempt, executor, tb, out, start
                )
            except BaseException as exc:  # noqa: BLE001 - surface via the future
                try:
                    out_future.set_exception(exc)
                except concurrent.futures.InvalidStateError:
                    pass
            else:
                try:
                    out_future.set_result((value, record))
                except concurrent.futures.InvalidStateError:
                    pass

        # chain the backend future so _cancel_attempt can drop a queued
        # abandoned attempt before a worker ever picks it up
        out_future._pool_future = pool_future
        pool_future.add_done_callback(_finish)
        return out_future

    def _merge_attempt(
        self,
        stage: Stage,
        task: Task,
        attempt: int,
        executor: Executor,
        tb: _SerializedTaskBinary | None,
        out: dict,
        start: float,
    ) -> tuple[Any, TaskRecord]:
        """Fold one committed attempt's result into driver state, whichever
        backend ran it."""
        duration = time.perf_counter() - start
        metrics = out["metrics"]
        # replay worker-captured log records into the driver bus; they were
        # already level-filtered worker-side and carry their correlation ids
        for record in out.get("log_records") or ():
            LOG_BUS.replay(record)
        value = out["result"]
        if isinstance(task, ShuffleMapTask):
            # the task already bucketed (and map-side combined) its output;
            # adopt the buckets as-is
            value = self.ctx.shuffle_manager.register_map_output(
                task.shuffle_dep, task.partition, value, executor.executor_id, metrics
            )
        # the blocks stay with the executor; the driver learns where they
        # are.  A victim is reported by store key: one this Context never
        # cached is another Context's, which finds out by missing
        master = self.ctx.block_master
        for key, split in out["evicted_blocks"]:
            rdd_id = self._rdd_of_key.get(key)
            if rdd_id is not None:
                master.unregister_block((rdd_id, split), executor.executor_id)
        for block_id in out["resident_blocks"]:
            master.register_block(block_id, executor.executor_id)
        if tb is not None:
            # task-binary accounting with per-executor dedup: the pickle is
            # charged once per (binary, executor); later tasks on the same
            # executor only pay the pickled TransportRef (the bytes that
            # crossed the pipe once the blob is memoized worker-side).  The
            # cluster remembers shipments *across contexts* -- a warm job
            # re-running an identical stage charges only refs, which is the
            # whole point of keeping the executors alive.
            if self.ctx.backend.note_binary_shipped(executor.executor_id, tb.binary_id):
                metrics.task_binary_bytes += tb.size
            else:
                metrics.task_binary_bytes += tb.ref_cost
        record = TaskRecord(
            stage_id=stage.id,
            partition=task.partition,
            attempt=attempt,
            executor_id=executor.executor_id,
            duration_seconds=duration,
            metrics=metrics,
            succeeded=True,
            start_time=start,
            span_fragments=out.get("span_fragments", []),
        )
        return value, record

    # -- failure handling ----------------------------------------------------------

    def _handle_executor_loss(self, executor_id: str, job: JobMetrics) -> None:
        """Mark an executor dead; invalidate its cache blocks and map outputs."""
        for executor in self.ctx.executors:
            if executor.executor_id == executor_id and executor.alive:
                executor.kill()
                job.num_executor_failures_observed += 1
        self.ctx.block_master.remove_executor(executor_id)
        self.ctx.shuffle_manager.remove_outputs_on_executor(executor_id)


class DAGScheduler:
    """Builds the stage graph for an action and drives it to completion."""

    def __init__(self, ctx: "Context") -> None:
        self.ctx = ctx
        self.task_scheduler = TaskScheduler(ctx)

    def run_job(
        self,
        rdd: "RDD",
        func: Callable[[Iterator], Any],
        partitions: list[int] | None = None,
        description: str = "",
    ) -> list[Any]:
        if partitions is None:
            partitions = list(range(rdd.num_partitions()))
        graph = StageGraph(rdd, self.ctx._stage_ids)
        job = JobMetrics(job_id=next(self.ctx._job_ids), description=description or rdd.name)
        job_start = time.perf_counter()
        job.submit_time = job_start
        bus = self.ctx.listener_bus
        bus.post(JobStart(job.job_id, job.description))

        # register every shuffle written by this job (idempotent re-register
        # keeps shared shuffles from earlier jobs usable)
        for shuffle_id, stage in graph.shuffle_stages.items():
            self.ctx.shuffle_manager.register_shuffle(shuffle_id, stage.num_tasks)

        results: dict[int, Any] = {}

        with log_context(app=APP_NAME, job_id=job.job_id):
            log.info(
                "job started",
                description=job.description,
                num_stages=len(graph.all_stages()),
                num_partitions=len(partitions),
            )
            try:
                self._drive(graph, job, func, results, set(partitions), description)
            except Exception as exc:
                job.wall_seconds = time.perf_counter() - job_start
                bus.post(JobEnd(job.job_id, job, succeeded=False))
                log.error(
                    "job failed",
                    description=job.description,
                    wall_seconds=round(job.wall_seconds, 6),
                    error=f"{type(exc).__name__}: {exc}",
                )
                raise

            job.wall_seconds = time.perf_counter() - job_start
            self.ctx.metrics.add_job(job)
            bus.post(JobEnd(job.job_id, job))
            log.info(
                "job finished",
                description=job.description,
                wall_seconds=round(job.wall_seconds, 6),
                num_task_failures=job.num_task_failures,
            )
        return [results[p] for p in partitions]

    def _drive(
        self,
        graph: StageGraph,
        job: JobMetrics,
        func: Callable[[Iterator], Any],
        results: dict[int, Any],
        wanted: set[int],
        description: str,
    ) -> None:
        bus = self.ctx.listener_bus
        stage_attempts: dict[int, int] = {}
        while True:
            progressed = False
            for stage in graph.all_stages():
                if not self._parents_ready(stage):
                    continue
                if stage.is_shuffle_map:
                    missing = sorted(
                        self.ctx.shuffle_manager.missing_maps(stage.shuffle_dep.shuffle_id)
                    )
                    if not missing:
                        continue
                    tasks: list[Task] = [
                        ShuffleMapTask(stage.id, stage.rdd, p, stage.shuffle_dep)
                        for p in missing
                    ]
                else:
                    missing = sorted(wanted - set(results))
                    if not missing:
                        continue
                    tasks = [ResultTask(stage.id, stage.rdd, p, func) for p in missing]
                progressed = True
                attempt = stage_attempts.get(stage.id, 0)
                stage_metrics = StageMetrics(
                    stage_id=stage.id,
                    name=stage.name,
                    num_tasks=len(tasks),
                    attempt=attempt,
                    parent_stage_ids=tuple(p.id for p in stage.parents),
                    is_shuffle_map=stage.is_shuffle_map,
                )
                stage_start = time.perf_counter()
                stage_metrics.submit_time = stage_start
                bus.post(StageSubmitted(
                    stage.id, attempt, stage.name, len(tasks), job.job_id
                ))
                log.debug(
                    "stage submitted",
                    stage_id=stage.id, name=stage.name,
                    num_tasks=len(tasks), stage_attempt=attempt,
                )
                try:
                    stage_results = self.task_scheduler.run_task_set(
                        stage, tasks, job, stage_metrics
                    )
                except _FetchFailedSignal:
                    stage_metrics.wall_seconds = time.perf_counter() - stage_start
                    job.stages.append(stage_metrics)
                    bus.post(StageCompleted(stage_metrics, job.job_id, failed=True))
                    stage_attempts[stage.id] = attempt + 1
                    job.num_stage_resubmissions += 1
                    log.warning(
                        "stage hit a fetch failure; resubmitting parents",
                        stage_id=stage.id, name=stage.name,
                        stage_attempt=stage_attempts[stage.id],
                    )
                    if stage_attempts[stage.id] > MAX_STAGE_RETRIES:
                        raise JobFailedError(
                            f"{stage.name} exceeded {MAX_STAGE_RETRIES} resubmissions"
                        ) from None
                    # loop around: missing map outputs will be recomputed
                    break
                except Exception:
                    # permanent failure: keep the partial stage tree on the
                    # job metrics so the failed-job event-log line carries
                    # the failing task records
                    stage_metrics.wall_seconds = time.perf_counter() - stage_start
                    job.stages.append(stage_metrics)
                    bus.post(StageCompleted(stage_metrics, job.job_id, failed=True))
                    raise
                stage_metrics.wall_seconds = time.perf_counter() - stage_start
                job.stages.append(stage_metrics)
                bus.post(StageCompleted(stage_metrics, job.job_id))
                log.debug(
                    "stage completed",
                    stage_id=stage.id, name=stage.name,
                    wall_seconds=round(stage_metrics.wall_seconds, 6),
                )
                if not stage.is_shuffle_map:
                    results.update(stage_results)
            if wanted <= set(results):
                return
            if not progressed:
                raise JobFailedError(
                    "scheduler made no progress; stage graph is stuck "
                    f"(job {job.job_id}, {description!r})"
                )

    def _parents_ready(self, stage: Stage) -> bool:
        for shuffle_id in stage.parent_shuffle_ids():
            if self.ctx.shuffle_manager.missing_maps(shuffle_id):
                return False
        return True
