"""Live Tables III and V and Fig. 6 on one and two slots (ROADMAP item 12's bar).

The paper's Algorithms 1-3 as written (``flavor="paper"``), from files, on
two warm cluster fleets of 1-core executors -- one executor and two -- at
``default_parallelism=4`` and ``block_size=256``.  Each row runs with
``batch_size=1``, so one iteration is one job, as in the paper's loop:

- Table III: Monte Carlo on a cached ``U`` and permutation at 0, 2, 4, 8
  and 16 iterations;
- Table V: cached and uncached (``cache_contributions=False``) Monte Carlo
  at 0, 10 and 20 iterations;
- Fig. 6: cached Monte Carlo at 20 iterations under an ``executor_memory``
  whose storage holds two of ``U``'s four partitions but not three: one
  executor's LRU scan thrashes, two hold their halves.

Every run is a fresh ``Context`` on its warm fleet and re-parses the
genotypes: the probe moves the input files' mtime first, which moves the
lineage fingerprint the workers file ``U`` under, as each of the paper's
runs was a fresh application.  The Table III/V rows run under an
``executor_memory`` whose storage holds two whole copies of ``U``, so ``U``
fits on one executor and last repeat's copy is evicted, not kept.  One
untimed repeat, then ``--repeats`` timed ones, each at a fresh seed that
both fleets share; runs alternate between the fleets.  A row's wall is
``from_files`` to ``close``; it prints as the median and quartiles, with
the median cache hits and misses and whether both fleets' exceedance
counts were equal, by SHA-256, at every seed.

It is the bar a model of this host's runtimes must pass: fit on the
one-slot rows alone, predict every two-slot row within 15%.
EXPERIMENTS.md ("The simulator against live rows") has the tables, the
fit and the misses of the simulator it rejected.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python benchmarks/live_tables.py
    PYTHONPATH=src python benchmarks/live_tables.py --snps 400 --patients 60 \\
        --snpsets 8 --repeats 1 --output /tmp/live.json    # smoke size
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import tempfile
import time
from dataclasses import dataclass

from repro.config import STORAGE_FRACTION, EngineConfig
from repro.core.sparkscore import SparkScoreAnalysis
from repro.engine.cluster_backend import stop_all_clusters
from repro.genomics.io import write_dataset
from repro.genomics.io.dataset_io import GENOTYPES_FILE, WEIGHTS_FILE
from repro.genomics.synthetic import SyntheticConfig, generate_dataset

SLOTS = (1, 2)
DATA_SEED = 7  # the gate data's seed


@dataclass(frozen=True)
class Row:
    name: str
    method: str
    iterations: int
    cache: bool
    #: runs under the Fig. 6 memory, not the tables'
    fig6: bool = False


ROWS = (
    *(Row(f"III mc {i}", "monte_carlo", i, True) for i in (0, 2, 4, 8, 16)),
    *(Row(f"III perm {i}", "permutation", i, False) for i in (0, 2, 4, 8, 16)),
    *(Row(f"V cached {i}", "monte_carlo", i, True) for i in (0, 10, 20)),
    *(Row(f"V uncached {i}", "monte_carlo", i, False) for i in (0, 10, 20)),
    Row("Fig6 cached 20", "monte_carlo", 20, True, fig6=True),
)


def _config(slots: int, memory: int) -> EngineConfig:
    return EngineConfig(
        backend="cluster", num_executors=slots, executor_cores=1,
        default_parallelism=4, executor_memory=memory,
    )


def u_partition_bytes(base: str) -> float:
    """The block manager's mean size of one cached ``U`` partition, read
    from a serial run's one executor (a worker's blocks never leave it)."""
    config = EngineConfig(
        backend="serial", num_executors=1, executor_cores=1, default_parallelism=4
    )
    with SparkScoreAnalysis.from_files(
        base, engine="distributed", config=config, flavor="paper", block_size=256
    ) as analysis:
        analysis.observed()
        manager = analysis.ctx.executors[0].block_manager
        return manager.memory_used / len(manager.block_ids())


def _fresh_lineage(base: str) -> None:
    now = time.time_ns()
    for name in (GENOTYPES_FILE, WEIGHTS_FILE):
        os.utime(os.path.join(base, name), ns=(now, now))


def run_row(base: str, row: Row, config: EngineConfig, seed: int) -> dict:
    """One analysis in a fresh Context: its wall, its cache hits and misses
    and a digest of its exceedance counts."""
    _fresh_lineage(base)
    start = time.perf_counter()
    with SparkScoreAnalysis.from_files(
        base, engine="distributed", config=config, flavor="paper", block_size=256
    ) as analysis:
        if row.method == "permutation":
            result = analysis.permutation(row.iterations, seed=seed, batch_size=1)
        else:
            result = analysis.monte_carlo(
                row.iterations, seed=seed, batch_size=1,
                cache_contributions=row.cache,
            )
    return {
        "wall": time.perf_counter() - start,
        "hits": result.info["cache_hits"],
        "misses": result.info["cache_misses"],
        "counts_sha256": hashlib.sha256(result.exceed_counts.tobytes()).hexdigest(),
    }


def measure(base: str, memory: dict, repeats: int, seed: int) -> dict:
    """``{slots: {row name: [run, ...]}}``: one untimed repeat dropped, then
    ``repeats`` timed ones, alternating which fleet goes first."""
    runs: dict = {slots: {row.name: [] for row in ROWS} for slots in SLOTS}
    for repeat in range(repeats + 1):
        order = SLOTS if repeat % 2 == 0 else SLOTS[::-1]
        for row in ROWS:
            for slots in order:
                config = _config(slots, memory["fig6" if row.fig6 else "tables"])
                run = run_row(base, row, config, seed + repeat)
                if repeat:
                    runs[slots][row.name].append(run)
    return runs


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def report(runs: dict, memory: dict, shape: dict) -> dict:
    rows = []
    for row in ROWS:
        one, two = runs[1][row.name], runs[2][row.name]
        entry = {
            "row": row.name,
            "repeats": len(one),
            "executor_memory": memory["fig6" if row.fig6 else "tables"],
            "counts_equal": [a["counts_sha256"] for a in one] == [b["counts_sha256"] for b in two],
        }
        for slots, arm in ((1, one), (2, two)):
            q1, q2, q3 = _quartiles([run["wall"] for run in arm])
            entry[f"live{slots}"] = {"median": q2, "q1": q1, "q3": q3}
            entry[f"hits{slots}"] = statistics.median(run["hits"] for run in arm)
            entry[f"misses{slots}"] = statistics.median(run["misses"] for run in arm)
        rows.append(entry)
    return {"shape": shape, "executor_memory": memory, "rows": rows}


def format_table(out: dict) -> str:
    head = (f"{'row':<16}{'n':>3}{'live 1 slot [q1, q3]':>26}{'live 2 slots [q1, q3]':>26}"
            f"{'2 / 1':>7}{'hits/misses 1 | 2':>20}{'counts':>8}")
    lines = [head, "-" * len(head)]
    for r in out["rows"]:
        line = f"{r['row']:<16}{r['repeats']:>3}"
        for slots in (1, 2):
            live = r[f"live{slots}"]
            line += f"{live['median']:>9.3f} [{live['q1']:.3f}, {live['q3']:.3f}]"
        line += f"{r['live2']['median'] / r['live1']['median']:>7.2f}"
        line += (f"{r['hits1']:>8.0f}/{r['misses1']:<3.0f} | "
                 f"{r['hits2']:.0f}/{r['misses2']:<3.0f}")
        line += f"{'equal' if r['counts_equal'] else 'DIFFER':>8}"
        lines.append(line)
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--patients", type=int, default=1000)
    parser.add_argument("--snps", type=int, default=3000)
    parser.add_argument("--snpsets", type=int, default=30)
    parser.add_argument("--seed", type=int, default=1000, help="first repeat's seed")
    parser.add_argument("--repeats", type=int, default=5, help="timed repeats per row")
    parser.add_argument("--output", default=None, help="write the JSON here too")
    args = parser.parse_args(argv)

    shape = {"n_snps": args.snps, "n_patients": args.patients, "n_snpsets": args.snpsets}
    dataset = generate_dataset(SyntheticConfig(**shape, seed=DATA_SEED))
    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as base:
        write_dataset(dataset, base)
        partition = u_partition_bytes(base)
        memory = {
            # storage for two whole copies of U's four partitions
            "tables": math.ceil(2 * 4 * partition / STORAGE_FRACTION),
            # storage for two partitions, not three
            "fig6": math.ceil(2.5 * partition / STORAGE_FRACTION),
        }
        try:
            runs = measure(base, memory, args.repeats, args.seed)
        finally:
            stop_all_clusters()
    out = report(runs, memory, shape)
    out["probe_seconds"] = time.perf_counter() - started
    out["cpu_count"] = os.cpu_count()
    print(format_table(out))
    print(f"{out['probe_seconds']:.0f} s on {out['cpu_count']} CPUs")
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(out, fh, indent=2)
    return out


if __name__ == "__main__":
    main()
