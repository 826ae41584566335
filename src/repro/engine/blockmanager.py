"""Per-executor block managers: live lists in a memory LRU.

A cached RDD partition is a *block*, keyed ``(rdd_id, partition)``.  Each
executor owns a :class:`BlockManager` with a memory budget; the driver-side
:class:`BlockManagerMaster` tracks which executors hold which blocks, so
the scheduler can place a task on the holder.  Nothing is fetched from
another executor: a miss recomputes from lineage and caches locally.

A task reaches its executor's manager through a per-attempt window
(``backends._TaskBlocks``) and never touches the master: the scheduler's
merge registers the blocks each attempt left resident and unregisters
the ones its puts evicted, on both backends.  On the cluster backend the
data side of that split lives in the workers: every worker process keeps
one manager for its whole life, keyed ``(lineage fingerprint,
partition)`` (see :mod:`repro.engine.backends`), and the driver's master
holds locations only.

Sizes are estimated with :func:`estimate_size`, which understands NumPy
arrays exactly, walks plain-attribute objects (so block payloads like
``SnpBlock`` are sized from their arrays without serialization), and
memoizes the pickled size per type for truly opaque objects so a large
payload is never re-pickled on every cache insert.
"""

from __future__ import annotations

import pickle
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable

import numpy as np


if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.metrics import TaskMetrics

BlockId = tuple[int, int]  # (rdd_id, partition)

#: pickled-size memo for opaque types:
#: type -> [total, samples, min, max, hits_since_measure].
#: Re-pickling an unknown object on *every* cache insert is the dominant
#: cost for large payloads; a running per-type average is O(1) after the
#: first few instances of a type.  Two guards keep the memo honest for
#: heterogeneous payloads (one class, instances spanning orders of
#: magnitude), which previously collapsed onto one stale average and
#: corrupted LRU accounting:
#:
#: - the average is only trusted while the observed spread stays small
#:   (``max <= _OPAQUE_MEMO_MAX_SPREAD * min``);
#: - every ``_OPAQUE_MEMO_REFRESH``-th lookup re-measures regardless, so a
#:   size drift is detected within a bounded window and -- having blown the
#:   spread -- permanently disables the memo for that type.
_OPAQUE_SIZE_MEMO: dict[type, list] = {}
_OPAQUE_MEMO_SAMPLES = 8
_OPAQUE_MEMO_MAX_SPREAD = 4
_OPAQUE_MEMO_REFRESH = 8
_OPAQUE_MEMO_LOCK = threading.Lock()


def _estimate_opaque(obj: Any) -> int:
    """Pickled-length estimate with a drift-guarded per-type memo."""
    cls = type(obj)
    with _OPAQUE_MEMO_LOCK:
        entry = _OPAQUE_SIZE_MEMO.get(cls)
        if entry is not None:
            total, samples, smallest, largest, hits = entry
            if (
                samples >= _OPAQUE_MEMO_SAMPLES
                and largest <= _OPAQUE_MEMO_MAX_SPREAD * smallest
                and hits < _OPAQUE_MEMO_REFRESH
            ):
                entry[4] = hits + 1
                return total // samples
    try:
        size = len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)) + 64
    except Exception:
        return 256
    with _OPAQUE_MEMO_LOCK:
        entry = _OPAQUE_SIZE_MEMO.get(cls)
        if entry is None:
            _OPAQUE_SIZE_MEMO[cls] = [size, 1, size, size, 0]
        else:
            entry[0] += size
            entry[1] += 1
            entry[2] = min(entry[2], size)
            entry[3] = max(entry[3], size)
            entry[4] = 0
    return size


def _slot_values(obj: Any) -> "list | None":
    """Attribute values of a ``__slots__``-only instance, or None."""
    cls = type(obj)
    names: list[str] = []
    for base in cls.__mro__:
        slots = base.__dict__.get("__slots__")
        if slots is None:
            continue
        if isinstance(slots, str):
            slots = (slots,)
        names.extend(s for s in slots if s not in ("__dict__", "__weakref__"))
    if not names:
        return None
    values = []
    for name in names:
        try:
            values.append(getattr(obj, name))
        except AttributeError:
            continue
    return values


def estimate_size(obj: Any, _depth: int = 0) -> int:
    """Approximate in-memory footprint of a block payload in bytes."""
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes) + 128
    if isinstance(obj, (bytes, bytearray)):
        return len(obj) + 48
    if isinstance(obj, str):
        return len(obj) + 56
    if isinstance(obj, (int, float)):
        return 32
    if isinstance(obj, (list, tuple)):
        return 64 + sum(estimate_size(item, _depth + 1) for item in obj)
    if isinstance(obj, dict):
        return 64 + sum(
            estimate_size(k, _depth + 1) + estimate_size(v, _depth + 1)
            for k, v in obj.items()
        )
    if hasattr(obj, "nbytes"):
        try:
            return int(obj.nbytes) + 128
        except TypeError:
            pass
    # plain-attribute objects (dataclasses, simple records): size the
    # attribute values directly instead of pickling the whole object
    attrs = getattr(obj, "__dict__", None)
    if attrs is not None and _depth < 8:
        return 64 + sum(estimate_size(v, _depth + 1) for v in attrs.values())
    if _depth < 8:
        slot_values = _slot_values(obj)
        if slot_values is not None:
            return 64 + sum(estimate_size(v, _depth + 1) for v in slot_values)
    return _estimate_opaque(obj)


@dataclass
class _Block:
    data: list
    size: int


class BlockManager:
    """One executor's cache: live lists in a memory LRU."""

    def __init__(self, executor_id: str, memory_budget: int) -> None:
        self.executor_id = executor_id
        self.memory_budget = memory_budget
        self._lock = threading.RLock()
        self._blocks: "OrderedDict[BlockId, _Block]" = OrderedDict()
        self._memory_used = 0
        self.evictions = 0

    # -- properties --------------------------------------------------------

    @property
    def memory_used(self) -> int:
        with self._lock:
            return self._memory_used

    def contains(self, block_id: BlockId) -> bool:
        with self._lock:
            return block_id in self._blocks

    def block_ids(self) -> list[BlockId]:
        with self._lock:
            return list(self._blocks)

    # -- put / get ----------------------------------------------------------

    def put(
        self,
        block_id: BlockId,
        data: Iterable,
        metrics: "TaskMetrics | None" = None,
        evicted: list | None = None,
    ) -> list:
        """Materialize ``data``, cache it, return the list.

        If the block does not fit even after evicting everything else, it is
        *not* cached (Spark drops oversized blocks the same way) but the
        materialized list is still returned so the task can proceed.  When
        ``metrics`` is given, size-estimation time and the blocks this put
        evicted are charged to the task; when ``evicted`` is given, the ids
        of those blocks are appended to it.
        """
        materialized = data if isinstance(data, list) else list(data)
        est_start = time.perf_counter()
        size = 64 + sum(estimate_size(item) for item in materialized)
        if metrics is not None:
            metrics.size_estimation_seconds += time.perf_counter() - est_start
        victims: list[BlockId] = []
        with self._lock:
            if block_id in self._blocks or size > self.memory_budget:
                return materialized
            self._evict_until_fits(size, protect=block_id, victims=victims)
            self._blocks[block_id] = _Block(data=materialized, size=size)
            self._memory_used += size
        if metrics is not None:
            metrics.blocks_evicted += len(victims)
        if evicted is not None:
            evicted.extend(victims)
        return materialized

    def get(self, block_id: BlockId) -> list | None:
        """Return the cached partition, or None.  Touches LRU recency."""
        with self._lock:
            block = self._blocks.get(block_id)
            if block is None:
                return None
            self._blocks.move_to_end(block_id)
            return block.data

    def remove(self, block_id: BlockId) -> None:
        with self._lock:
            block = self._blocks.pop(block_id, None)
            if block is not None:
                self._memory_used -= block.size

    def clear(self) -> None:
        with self._lock:
            self._blocks.clear()
            self._memory_used = 0

    def fit_budget(self, evicted: list) -> None:
        """LRU-evict down to the current budget, which a caller may have
        lowered under blocks put before; each victim's id goes to
        ``evicted``, as a put's do."""
        with self._lock:
            self._evict_until_fits(0, protect=None, victims=evicted)

    # -- internals ----------------------------------------------------------

    def _evict_until_fits(self, size: int, protect: BlockId, victims: list) -> None:
        """LRU-evict blocks until ``size`` fits in the budget (lock held),
        appending each victim's id to ``victims``."""
        while self._memory_used + size > self.memory_budget and self._blocks:
            victim_id = next(iter(self._blocks))
            if victim_id == protect:
                break
            victim = self._blocks.pop(victim_id)
            self._memory_used -= victim.size
            self.evictions += 1
            victims.append(victim_id)


class BlockManagerMaster:
    """Driver-side registry: block id -> executor ids holding it."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._locations: dict[BlockId, set[str]] = {}

    def register_block(self, block_id: BlockId, executor_id: str) -> None:
        with self._lock:
            self._locations.setdefault(block_id, set()).add(executor_id)

    def locations(self, block_id: BlockId) -> list[str]:
        with self._lock:
            return sorted(self._locations.get(block_id, ()))

    def unregister_block(self, block_id: BlockId, executor_id: str) -> None:
        with self._lock:
            holders = self._locations.get(block_id)
            if holders is not None:
                holders.discard(executor_id)
                if not holders:
                    del self._locations[block_id]

    def remove_executor(self, executor_id: str) -> list[BlockId]:
        """Drop all block registrations for a dead executor; return lost ids.

        The executor's own manager was cleared by ``Executor.kill``."""
        lost: list[BlockId] = []
        with self._lock:
            for block_id in list(self._locations):
                holders = self._locations[block_id]
                if executor_id in holders:
                    holders.discard(executor_id)
                    if not holders:
                        lost.append(block_id)
                        del self._locations[block_id]
        return lost

    def remove_rdd(self, rdd_id: int) -> None:
        """Forget every location of one RDD's blocks (unpersist)."""
        with self._lock:
            for block_id in [b for b in self._locations if b[0] == rdd_id]:
                del self._locations[block_id]

    def block_count(self, executor_id: str) -> int:
        """How many blocks are registered on one executor."""
        with self._lock:
            return sum(executor_id in holders for holders in self._locations.values())

    def executors_holding_rdd(self, rdd_id: int) -> set[str]:
        with self._lock:
            out: set[str] = set()
            for (rid, _), holders in self._locations.items():
                if rid == rdd_id:
                    out.update(holders)
            return out

    def cached_partitions(self, rdd_id: int) -> set[int]:
        with self._lock:
            return {part for (rid, part) in self._locations if rid == rdd_id}
