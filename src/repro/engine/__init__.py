"""A from-scratch Spark-like execution engine.

The engine reproduces the subset of Apache Spark that SparkScore's
Algorithms 1-3 are written against:

- lazy :class:`~repro.engine.rdd.RDD` transformations with narrow and
  shuffle (wide) dependencies;
- a DAG scheduler that splits the lineage graph into stages at shuffle
  boundaries and executes them topologically
  (:mod:`repro.engine.scheduler`);
- per-executor block managers with LRU eviction and optional disk spill,
  giving ``cache()``/``persist()`` semantics (:mod:`repro.engine.blockmanager`);
- broadcast variables and accumulators;
- task retry and lineage-based recomputation after injected executor
  failures (:mod:`repro.engine.faults`).

Entry point is :class:`repro.engine.context.Context`::

    from repro.engine import Context

    with Context() as ctx:
        rdd = ctx.parallelize(range(100), num_partitions=4)
        total = rdd.map(lambda x: x * x).sum()
"""

from repro.engine.accumulator import Accumulator
from repro.engine.broadcast import Broadcast
from repro.engine.context import Context
from repro.engine.faults import FaultInjector, FaultPlan
from repro.engine.rdd import RDD
from repro.engine.storage import StorageLevel

__all__ = [
    "Accumulator",
    "Broadcast",
    "Context",
    "FaultInjector",
    "FaultPlan",
    "RDD",
    "StorageLevel",
]
