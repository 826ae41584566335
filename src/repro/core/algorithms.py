"""Algorithms 1-3 on the distributed engine.

Two flavors of the same pipeline:

- ``"paper"`` -- record-per-SNP RDDs and an explicit weights *join*,
  transcribing Algorithm 1 step by step (including the filter against the
  union of SNP-sets and the broadcast of the phenotype pairs).  Records are
  one per SNP wherever the pipeline moves or keys them (filter, join,
  ``reduce_by_key``); its kernels stack up to :data:`CHUNK_ROWS`
  consecutive records of a partition into one NumPy call and hand the
  per-SNP records back;
- ``"vectorized"`` -- record-per-block RDDs (:class:`~repro.core.blocks.SnpBlock`)
  with broadcast weights, trading fidelity for NumPy batching.  Both
  produce identical statistics.

Where the genotypes come from is the other axis, and both flavors start
from the same ``(snp_ids, matrix)`` chunks.  Given ``input_paths`` the
executors read the genotype file themselves: each split's *bytes* go to
``parse_genotype_text`` and every row is checked there, so a bad line is a
``FormatError`` naming the file and the line on either flavor.  Without
``input_paths`` the in-memory matrix is parallelized as one slice per
partition.  The paper flavor flat-maps the chunks into per-SNP records
(Algorithm 1 step 3, re-parsed by every uncached pass), and its tasks read
``weights.txt`` for the join the same way, a split each
(``parse_weight_rows``, errors located in the file); the vectorized
flavor cuts blocks from them with one builder and caches the int8
blocks on either route, so the genotypes are parsed or sliced once per
fleet -- the blocks are resident in the workers under a lineage
fingerprint that folds the file's size and mtime (or the slices' content)
and the content of the weight/set broadcast.

The paper flavor runs Algorithms 2 and 3 as written -- the shape of the
paper's Tables III and V, and the referee for the other flavor:
Monte Carlo caches the contributions RDD ``U`` (or, off the cache,
recomputes it every batch: Table IV/V's arms); permutation ships refit
models and recomputes every contribution row under each.  The vectorized
flavor never builds ``U``: every score model is linear in the genotypes,
so ``Z @ U.T == c(Z) @ G.T`` with ``c`` the model's
:meth:`~repro.stats.score.base.ScoreModel.adjoint`.  The two methods differ
only in their replicate weights ``W``: ``c(Z)`` for Monte Carlo, the
permuted :meth:`~repro.stats.score.base.ScoreModel.score_weights` ``c[pi]``
for permutation.  One kernel, :class:`_WaveCountsFn`, takes either: a
block's replicate scores are one GEMM ``W @ G.T`` against its resident
genotypes, and its per-set partials one GEMM against the block's set
indicator.  Both methods share one body,
``DistributedSparkScore._resample``: it picks the paper flavor's kernel or
the vectorized flavor's waves, and hands
:func:`~repro.stats.resampling.driver.resample` -- the loop the local
engine runs too -- a wave count.  A paper-flavor wave is one batch, drawn
in the driver, and one join/``reduce_by_key`` job; a vectorized wave is
:data:`WAVE_BATCHES` batches named by their place in the seeded stream
(:class:`_Wave`), one small broadcast and one single-stage job whose tasks
draw the batches and form ``W`` themselves, once per process -- one GEMM
per block for the whole wave.

Every transformation in the hot path is a named module-level callable (not
a lambda), so the whole pipeline pickles and runs on the process backend.
Exceedance counting happens *inside* tasks.  A vectorized run has no
observed pass of its own: its first wave's tasks score their blocks'
observed partials from the marginal scores ``G . c`` -- one GEMV on the
model's ``score_weights()``, the route ``LocalSparkScore`` takes, kept with
the resident block for the model's next analysis -- compare the sets they
hold whole in place, and return the partials with the SNP ids they scored;
later waves carry the driver's folded observed vector in their wave
broadcast.  Straddling sets come back as per-block columns
the driver folds in partition -> block order
(DESIGN.md §8 says why that is bit-identical to one fold of every block's
partial).  No shuffle, and O(K) counts plus ``b`` floats per straddling
(set, block) to the driver.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import pickle
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.blocks import SnpLookup
from repro.core.results import ResamplingResult
from repro.genomics.io.dataset_io import (
    GENOTYPES_FILE,
    SNPSETS_FILE,
    parse_genotype_rows,
    parse_weight_rows,
)
from repro.genomics.io.formats import FormatError
from repro.genomics.synthetic import Dataset
from repro.stats.resampling import streams
from repro.stats.resampling.driver import exceedances, resample
from repro.stats.score.base import ScoreModel
from repro.stats.score.cox import CoxScoreModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.broadcast import Broadcast
    from repro.engine.context import Context
    from repro.engine.rdd import RDD

FLAVORS = ("paper", "vectorized")

#: Rows a paper-flavor kernel stacks into one NumPy call.  Not a parameter:
#: it trades per-call overhead against the stacked copies a task holds at
#: once, and DESIGN.md §17 has the measurements it was picked from.
CHUNK_ROWS = 64

#: Resampling batches one vectorized-flavor job counts.  Not a parameter:
#: it trades jobs per run against the payload a wave broadcasts at once, and
#: EXPERIMENTS.md has the sweep it was picked from (DESIGN.md §8 the design).
WAVE_BATCHES = 4


@contextlib.contextmanager
def _broadcast(ctx: "Context", value):
    """A broadcast for the ``with`` block, destroyed however it ends."""
    handle = ctx.broadcast(value)
    try:
        yield handle
    finally:
        handle.destroy()


# ---------------------------------------------------------------------------
# named pipeline callables (picklable; lambdas would strand the process
# backend)
# ---------------------------------------------------------------------------


def _add(a, b):
    return a + b


def _add_with_ids(a, b):
    """``_add`` on ``(total, SNP ids summed into it)`` pairs: the totals sum
    in the order ``_add`` sums them, so they stay bit-identical."""
    return (a[0] + b[0], a[1] + b[1])


def _with_id(kv):
    return (kv[0], (kv[1], (kv[0],)))


def _mul_pair(uw):
    return uw[0] * uw[1]


def _chunked(records):
    """``(snp_id, row)`` records -> ``(ids, stacked rows)``, up to
    :data:`CHUNK_ROWS` consecutive records at a time."""
    records = iter(records)
    while chunk := list(itertools.islice(records, CHUNK_ROWS)):
        ids, rows = zip(*chunk)
        yield ids, np.stack(rows)


def _snp_records(chunk):
    """A ``(snp_ids, matrix)`` chunk -> its ``(snp_id, row)`` records."""
    snp_ids, matrix = chunk
    return zip(snp_ids.tolist(), matrix)


def _parse_split(parse, split, *args):
    """``parse(split.data, *args)``, an error located in the split's file."""
    try:
        return parse(split.data, *args)
    except FormatError as exc:
        # located within the split: count the file's lines before it
        raise exc.moved(split.lines_before()) from None


class _ParseWeightsFn:
    """``weights.txt`` splits' bytes -> their ``(snp_id, weight)`` records."""

    def __call__(self, splits):
        for split in splits:
            yield from _parse_split(parse_weight_rows, split)


class _SquareWeightFn:
    def __call__(self, kv):
        return (kv[0], kv[1] ** 2)


class _InUnionFn:
    """Algorithm 1 step 5: keep SNPs in the union of the SNP-sets."""

    def __init__(self, union_bc: "Broadcast") -> None:
        self.union_bc = union_bc

    def __call__(self, rec):
        return rec[0] in self.union_bc.value


class _ParseSplitFn:
    """A text split's bytes -> one ``(snp_ids, matrix)`` chunk, every row checked."""

    def __init__(self, n_patients: int) -> None:
        self.n_patients = n_patients

    def __call__(self, split):
        return _parse_split(parse_genotype_rows, split, self.n_patients)


class _BuildBlocksFn:
    """``(snp_ids, matrix)`` chunks -> :class:`SnpBlock` s under the broadcast
    lookup; a row no SNP-set covers is refused, as ``read_dataset`` refuses it."""

    def __init__(self, lookup_bc, block_size: int) -> None:
        self.lookup_bc = lookup_bc
        self.block_size = block_size

    def __call__(self, chunks):
        lookup: SnpLookup = self.lookup_bc.value
        for snp_ids, matrix in chunks:
            covered = 0
            for block in lookup.blocks(snp_ids, matrix, self.block_size):
                covered += block.n_snps
                yield block
            if covered != snp_ids.size:
                stray = snp_ids[~np.isin(snp_ids, lookup.snp_ids)]
                raise FormatError(
                    f"{SNPSETS_FILE}: SNPs not covered by any set (e.g. {stray[:5].tolist()})"
                )


class _ChunkContributionsFn:
    """Per-SNP contribution rows under the broadcast model, one
    ``contributions`` call per chunk (paper flavor)."""

    def __init__(self, model_bc) -> None:
        self.model_bc = model_bc

    def __call__(self, records):
        model = self.model_bc.value
        for ids, rows in _chunked(records):
            yield from zip(ids, model.contributions(rows))


class _RowInnerFn:
    """Observed inner sigma: squared row-sum of a contribution row."""

    def __call__(self, row):
        return float(np.sum(row)) ** 2


class _McChunkInnersFn:
    """(batch,) squared scores per SNP row under MC multipliers, one GEMM
    per chunk (paper flavor)."""

    def __init__(self, z_bc) -> None:
        self.z_bc = z_bc

    def __call__(self, records):
        z = self.z_bc.value
        for ids, rows in _chunked(records):
            yield from zip(ids, np.square(rows @ z.T))


@dataclass(frozen=True)
class _Wave:
    """A vectorized wave by its place in the seeded stream: batches
    ``first`` to ``first + len(widths)`` of ``stream``.  A few hundred
    bytes whatever ``b`` and ``n``: each process that runs one of the
    wave's tasks draws the batches and forms ``W`` itself
    (:func:`_wave_weights`)."""

    stream: streams.ReplicateStream
    first: int
    widths: tuple[int, ...]


class _Cursor:
    """One model's replicate stream in this process, and the ``W`` of the
    last wave formed from it."""

    def __init__(self, stream: streams.ReplicateStream) -> None:
        self.stream = streams.StreamCursor(stream)
        self.wave: tuple[int, tuple[int, ...]] | None = None  # (first, widths) of ``weights``
        self.weights: np.ndarray | None = None


#: this process's cursors by ``(model content hash, stream)`` -- never by
#: the seed alone: ``W`` depends on the model, and a caller may reuse a
#: seed.  The key is content, not a per-call id, so an identical analysis
#: on a warm fleet builds byte-identical task binaries (and may find its
#: ``W`` here).  A cursor evicted mid-run restarts from the seed.
_CURSORS: "OrderedDict[tuple[str, streams.ReplicateStream], _Cursor]" = OrderedDict()
_CURSORS_LOCK = threading.Lock()
_MAX_CURSORS = 2


def _wave_weights(wave: _Wave, model: ScoreModel, model_key: str) -> np.ndarray:
    """The wave's ``(sum(widths), n)`` replicate weights ``W`` under the
    model whose content hash is ``model_key``, bit for bit what the
    stream's first consumer would form: ``model.adjoint`` of its stacked
    multipliers, or ``model.score_weights()`` gathered by its stacked
    permutations.  The first of the wave's tasks in this process draws
    (replaying the stream as :class:`~repro.stats.resampling.streams.StreamCursor`
    does) and forms it; the others read the memo."""
    key = (model_key, wave.stream)
    with _CURSORS_LOCK:
        cursor = _CURSORS.pop(key, None) or _Cursor(wave.stream)
        _CURSORS[key] = cursor
        while len(_CURSORS) > _MAX_CURSORS:
            _CURSORS.popitem(last=False)
        if cursor.wave != (wave.first, wave.widths):
            cursor.weights = None  # the last wave's W goes before this one's is drawn
            drawn = np.concatenate(cursor.stream.take(wave.first, len(wave.widths)))
            if wave.stream.method == "monte_carlo":
                # Z @ U.T == c(Z) @ G.T, and c(Z) is (b, n) float64 as Z is
                cursor.weights = model.adjoint(drawn)
            else:
                # the shuffle only permutes the score weights: (b, n) float64
                cursor.weights = model.score_weights()[drawn]
            cursor.wave = (wave.first, wave.widths)
        return cursor.weights


class _WaveCountsFn:
    """One wave of batches on one partition's blocks (vectorized flavor),
    the one kernel of both resampling methods.

    The broadcast is ``(observed, wave)``, the wave a :class:`_Wave`
    (``None`` for a wave of no batches).  Whatever its rows ``W`` are --
    ``c(Z)`` for Monte Carlo, permuted score weights ``c[pi]`` for
    permutation -- a block's replicate scores are one GEMM ``W @ G.T`` and
    its partials one :meth:`SnpBlock.skat_partial`.  A first wave's
    ``observed`` is ``None``, and the task folds its blocks' observed
    partials instead, from the model's marginal scores ``G . c`` of the
    dosages; a block keeps its partial under ``model_key`` (the model's
    content hash), so a later analysis of the same model reads it instead.
    A block's ``(sum(widths), K)`` replicate partials are folded left in
    block order; a set all of whose SNPs are in this partition is compared
    in place with the observed statistics, batch by batch, and a set that
    straddles partitions sends its per-block columns to
    :meth:`DistributedSparkScore._fold_wave`.  Yields ``(complete sets, (W,
    complete) counts, set of each column, columns, scored)``, a column
    holding the wave's batches end to end and ``scored`` a first wave's
    ``((K,) observed, SNP ids)``, else ``None``.  The blocks' int8 rows are
    widened into one float64 buffer in turn, where a product needs them.
    """

    def __init__(self, wave_bc, lookup_bc, model_bc, model_key: str) -> None:
        self.wave_bc = wave_bc
        self.lookup_bc = lookup_bc
        self.model_bc = model_bc
        self.model_key = model_key

    def __call__(self, blocks):
        blocks = list(blocks)
        if not blocks:
            return
        sizes = self.lookup_bc.value.set_sizes
        held = [np.bincount(block.set_ids, minlength=sizes.size) for block in blocks]
        whole = (np.sum(held, axis=0) == sizes) & (sizes > 0)
        complete = np.flatnonzero(whole)
        straddling = [np.flatnonzero((n > 0) & ~whole) for n in held]
        observed, wave = self.wave_bc.value
        model = self.model_bc.value
        widths = wave.widths if wave is not None else ()
        replicates = _wave_weights(wave, model, self.model_key) if widths else None
        scoring = observed is None
        if scoring:
            observed = np.zeros(sizes.size)
        widened = np.empty((max(b.n_snps for b in blocks), blocks[0].genotypes.shape[1]))
        total, columns = None, []
        for block, sets in zip(blocks, straddling):
            rows = None
            if scoring:
                partial = block.observed.get(self.model_key)
                if partial is None:
                    rows = _widen(widened, block)
                    partial = block.remember_observed(
                        self.model_key, block.skat_partial(model.scores(rows))
                    )
                observed = observed + partial
            if replicates is not None:
                rows = _widen(widened, block) if rows is None else rows
                partial = block.skat_partial(replicates @ rows.T)
                total = partial if total is None else total + partial
                columns.append(partial[:, sets].T)
        counts = np.zeros((len(widths), complete.size), np.int64)
        if replicates is not None:
            batch_starts = np.cumsum(widths)[:-1]
            for i, batch in enumerate(np.split(total[:, complete], batch_starts)):
                counts[i] = exceedances(batch, observed[complete])
        columns = np.concatenate(columns) if columns else np.empty((sum(map(len, straddling)), 0))
        scored = (observed, np.concatenate([b.snp_ids for b in blocks])) if scoring else None
        yield complete, counts, np.concatenate(straddling), columns, scored


def _widen(buffer: np.ndarray, block) -> np.ndarray:
    """``block``'s rows as float64, in the head of ``buffer``."""
    rows = buffer[: block.n_snps]
    rows[...] = block.genotypes
    return rows


class _PermutedChunkInnersFn:
    """(batch,) squared score sums per SNP row under permuted models, one
    ``contributions`` call per model per chunk (paper flavor)."""

    def __init__(self, models_bc) -> None:
        self.models_bc = models_bc

    def __call__(self, records):
        models = self.models_bc.value
        for ids, rows in _chunked(records):
            rows = rows.astype(np.float64)
            # column r: every row's score under replicate r's refit model
            sums = np.stack([model.contributions(rows).sum(axis=1) for model in models], axis=1)
            yield from zip(ids, np.square(sums))


class _KeyBySetFn:
    """Re-key per-SNP scores by SNP-set index (Algorithm 1 step 11)."""

    def __init__(self, set_bc) -> None:
        self.set_bc = set_bc

    def __call__(self, kv):
        return (self.set_bc.value[kv[0]], kv[1])


class _PaperExceedFn:
    """Per-set exceedance count for the paper flavor's keyed totals."""

    def __init__(self, observed_bc) -> None:
        self.observed_bc = observed_bc

    def __call__(self, kv):
        set_idx, values = kv
        exceeded = np.asarray(values) >= self.observed_bc.value[set_idx]
        return (set_idx, int(np.sum(exceeded)))


class DistributedSparkScore:
    """SparkScore's Algorithms 1-3 running on a :class:`Context`.

    Parameters
    ----------
    ctx:
        The engine context (owns executors, shuffle state, caches).
    dataset:
        Phenotype, weights and SNP-sets for the driver side; its genotype
        matrix is read only when ``input_paths`` is not given.
    input_paths:
        ``{"genotypes": path, "weights": path}`` local text files the
        executors read themselves (see module docstring).
        Both flavors check every row in the task that parses its split (a
        :class:`~repro.genomics.io.formats.FormatError` names the file and
        the line).  Both also hold, in the driver, the SNP ids their
        observed pass scored against the SNP-sets, so a SNP id repeated
        across splits is refused either way.  The paper flavor re-parses on
        every uncached pass.
    flavor:
        ``"paper"`` or ``"vectorized"`` (see module docstring).
    join_strategy:
        Only ``"rdd_join"``: the paper flavor joins the weights RDD
        (Algorithm 1 step 9).  Kept as a parameter for benchmarks/e2e, which
        passes it; drop it in the next ``[benchmark]`` PR.
    """

    def __init__(
        self,
        ctx: "Context",
        dataset: Dataset,
        model: ScoreModel | None = None,
        flavor: str = "vectorized",
        block_size: int = 256,
        num_partitions: int | None = None,
        join_strategy: str = "rdd_join",
        input_paths: dict[str, str] | None = None,
    ) -> None:
        if flavor not in FLAVORS:
            raise ValueError(f"flavor must be one of {FLAVORS}")
        if join_strategy != "rdd_join":
            raise ValueError(f"join_strategy must be 'rdd_join', not {join_strategy!r}")
        if num_partitions is not None and num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        self.ctx = ctx
        self.dataset = dataset
        self.model = model or CoxScoreModel(dataset.phenotype)
        if self.model.n_patients != dataset.n_patients:
            raise ValueError("model patients must match dataset")
        self.flavor = flavor
        self.block_size = block_size
        self.num_partitions = (
            ctx.config.default_parallelism if num_partitions is None else num_partitions
        )
        self._K = dataset.n_sets

        # broadcast the SNP-set mapping and, inside the model, the phenotype
        # pairs (Alg. 1 step 6)
        snp_ids = dataset.genotypes.snp_ids
        if flavor == "paper":
            set_map = {int(s): int(k) for s, k in zip(snp_ids, dataset.snpsets.set_ids)}
            self._set_map_bc = ctx.broadcast(set_map)
            self._union_set_bc = ctx.broadcast(frozenset(set_map))
        else:
            self._lookup = SnpLookup.from_arrays(
                snp_ids, dataset.snpsets.set_ids, np.square(dataset.weights), self._K
            )
            self._lookup_bc = ctx.broadcast(self._lookup)
            #: the model's content hash, which a resident block keeps its
            #: observed partials under
            self._model_key = hashlib.sha256(
                pickle.dumps(self.model, protocol=pickle.HIGHEST_PROTOCOL)
            ).hexdigest()
        self._model_bc = ctx.broadcast(self.model)

        self._gm_rdd = self._build_genotype_rdd(input_paths)
        self._weights_rdd = self._build_weights_rdd(input_paths)
        self._u_rdd: "RDD | None" = None
        self._u_cached = False

    # -- input RDDs ------------------------------------------------------------

    def _build_genotype_rdd(self, input_paths: dict[str, str] | None) -> "RDD":
        """``(snp_ids, matrix)`` chunks, then the flavor's records: per-SNP
        rows (paper) or :class:`SnpBlock` s (vectorized)."""
        ctx = self.ctx
        if input_paths is not None:
            splits = ctx.text_file(input_paths["genotypes"], self.num_partitions).splits()
            chunks = splits.map(_ParseSplitFn(self.dataset.n_patients))
        else:
            genotypes = self.dataset.genotypes
            bounds = [
                (i * genotypes.n_snps) // self.num_partitions
                for i in range(self.num_partitions + 1)
            ]
            chunks = ctx.parallelize(
                [
                    (genotypes.snp_ids[lo:hi], genotypes.matrix[lo:hi])
                    for lo, hi in zip(bounds, bounds[1:])
                ],
                self.num_partitions,
            )
            chunks.name = "gm_chunks"
        if self.flavor == "paper":
            rows = chunks.flat_map(_snp_records)
            rows.name = "gm_rows"
            # Algorithm 1 step 5: filter against the union of the SNP-sets
            filtered = rows.filter(_InUnionFn(self._union_set_bc))
            filtered.name = "fgm"
            return filtered
        blocks = chunks.map_partitions(
            _BuildBlocksFn(self._lookup_bc, self.block_size), name="gm_blocks"
        )
        # the resident data of every vectorized analysis: built once per
        # fleet, as int8 as the file or matrix they came from
        return blocks.cache()

    def _build_weights_rdd(self, input_paths: dict[str, str] | None) -> "RDD | None":
        if self.flavor != "paper":
            return None
        ctx = self.ctx
        if input_paths is not None and "weights" in input_paths:
            splits = ctx.text_file(input_paths["weights"], self.num_partitions).splits()
            pairs = splits.map_partitions(_ParseWeightsFn(), name="parse_weights")
            rdd = pairs.map(_SquareWeightFn())
        else:
            records = [
                (int(s), float(w) ** 2)
                for s, w in zip(self.dataset.genotypes.snp_ids, self.dataset.weights)
            ]
            rdd = ctx.parallelize(records, self.num_partitions)
        rdd.name = "weights_sq"
        return rdd

    # -- U RDD (Algorithm 1 step 7) ------------------------------------------------

    def contributions_rdd(self, cache: bool = True) -> "RDD":
        """The paper flavor's per-patient contributions RDD; cached when requested."""
        if self.flavor != "paper":
            raise ValueError("the vectorized flavor keeps genotype blocks, not U")
        if self._u_rdd is not None and self._u_cached == cache:
            return self._u_rdd
        u = self._gm_rdd.map_partitions(
            _ChunkContributionsFn(self._model_bc), preserves_partitioning=True
        )
        u.name = "U"
        if cache:
            u.cache()
        self._u_rdd = u
        self._u_cached = cache
        return u

    # -- per-set reductions (Algorithm 1 steps 8-12) ---------------------------------

    def _per_set_scores(self, scored: "RDD", with_ids: bool = False) -> "RDD":
        """Weight join + per-set reduction for the paper flavor; ``with_ids``
        pairs each set's total with the SNP ids summed into it."""
        joined = scored.join(self._weights_rdd, num_partitions=self.num_partitions)
        snp_scores = joined.map_values(_mul_pair)
        if with_ids:
            snp_scores = snp_scores.map(_with_id)
        return snp_scores.map(_KeyBySetFn(self._set_map_bc)).reduce_by_key(
            _add_with_ids if with_ids else _add, self.num_partitions
        )

    def _scores_to_set_stats(self, scored: "RDD") -> np.ndarray:
        """Steps 8-12, paper flavor: inner sigma -> weight join -> per-set
        reduction of ``(snp_id, squared score)`` records to (K,) statistics,
        the ids that made them checked."""
        stats = np.zeros(self._K)
        scored_ids = []
        for set_idx, (value, ids) in self._per_set_scores(scored, with_ids=True).collect():
            stats[set_idx] = value
            scored_ids.append(np.array(ids, np.int64))
        self._check_scored_ids(scored_ids)
        return stats

    def _scores_to_counts(
        self, scored: "RDD", width: int, observed_bc: "Broadcast"
    ) -> np.ndarray:
        """Paper flavor: per-set exceedance counts, compared against the
        broadcast observed after the keyed reduction -- ``(K,)`` int64 to
        the driver."""
        # sets with no SNPs keep the zero statistic of the old dense matrix
        counts = (width * (0.0 >= observed_bc.value)).astype(np.int64)
        per_set = self._per_set_scores(scored)
        for set_idx, count in per_set.map(_PaperExceedFn(observed_bc)).collect():
            counts[set_idx] = count
        return counts

    def _wave(self, wave: _Wave | None, observed: np.ndarray | None):
        """One single-stage job counting a :class:`_Wave` (or ``None``, no
        batches) on the resident genotype blocks: ``((W, K) counts, (K,)
        observed)``.  Without ``observed`` -- a run's first wave -- the tasks
        score it as well."""
        with _broadcast(self.ctx, (observed, wave)) as wave_bc:
            count = _WaveCountsFn(wave_bc, self._lookup_bc, self._model_bc, self._model_key)
            parts = self._gm_rdd.map_partitions(count).collect()
        return self._fold_wave(parts, list(wave.widths) if wave else [], observed)

    def _fold_wave(self, parts: list, widths: list[int], observed: np.ndarray | None):
        """``((W, K) counts, (K,) observed)`` from every partition's
        :class:`_WaveCountsFn` record, a first wave's observed partials added
        in partition order and its scored ids checked.  Straddling columns
        fold left in partition -> block order, as one fold of every block's
        ``(b, K)`` partial adds them (a block without the set adds +0.0)."""
        if observed is None:
            observed = np.zeros(self._K)
            for *_, (partial, _) in parts:
                observed = observed + partial
            self._check_scored_ids([ids for *_, (_, ids) in parts])
        empty = (self._lookup.set_sizes == 0) & (0.0 >= observed)
        counts = np.outer(widths, empty).astype(np.int64)
        stats: dict[int, np.ndarray] = {}
        for complete, complete_counts, sets, columns, _ in parts:
            counts[:, complete] += complete_counts
            for k, column in zip(sets.tolist(), columns):
                stats[k] = stats[k] + column if k in stats else column
        batch_starts = np.cumsum(widths)[:-1]
        for k, column in stats.items():
            exceeded = np.split(column >= observed[k], batch_starts)
            counts[:, k] += [np.count_nonzero(batch) for batch in exceeded]
        return counts, observed

    # -- Algorithm 1: observed statistics ----------------------------------------------

    def observed_statistics(self, cache_contributions: bool = True) -> np.ndarray:
        """The paper flavor's keyed pass over its (cached) ``U``, or a
        vectorized wave of no batches, which ignores ``cache_contributions``."""
        if self.flavor == "paper":
            inner = self.contributions_rdd(cache_contributions).map_values(_RowInnerFn())
            return self._scores_to_set_stats(inner)
        _, stats = self._wave(None, None)
        return stats

    def _check_scored_ids(self, scored: list[np.ndarray]) -> None:
        """The checks no single split can make: every SNP the sets name was
        scored, and scored once.  Made on what the observed pass reports,
        so blocks found resident on a warm fleet are held to it too."""
        scored_ids = np.sort(np.concatenate([np.empty(0, np.int64), *scored]))
        if not np.array_equal(scored_ids, np.sort(self.dataset.genotypes.snp_ids)):
            # an id on two lines, or a set naming a SNP the file lacks: the
            # whole-file reader behind a deferred matrix finds and words it
            self.dataset.genotypes.matrix
            raise FormatError(f"{GENOTYPES_FILE}: SNP ids do not match the SNP-sets")

    def observed(self) -> ResamplingResult:
        start, first_job = time.perf_counter(), len(self.ctx.metrics.jobs)
        stats = self.observed_statistics()
        return self._result("observed", stats, np.zeros(self._K, np.int64), 0, start, first_job)

    # -- Algorithms 2 and 3: resampling ---------------------------------------------------

    def monte_carlo(
        self,
        iterations: int,
        seed: int = 0,
        batch_size: int = 64,
        cache_contributions: bool = True,
    ) -> ResamplingResult:
        """Algorithm 3: Monte Carlo multipliers against ``U``, which the paper
        flavor caches or, off ``cache_contributions``, recomputes every batch
        (Table IV/V's arms); the vectorized flavor's one route never builds it."""
        stream = streams.ReplicateStream(
            "monte_carlo", self.dataset.n_patients, iterations, seed, batch_size
        )
        return self._resample(stream, cache_contributions)

    def permutation(
        self, iterations: int, seed: int = 0, batch_size: int = 16
    ) -> ResamplingResult:
        """Algorithm 2: the scoring pipeline re-run per batch of permutations."""
        stream = streams.ReplicateStream(
            "permutation", self.dataset.n_patients, iterations, seed, batch_size
        )
        return self._resample(stream, cache_contributions=False)

    def _resample(
        self, stream: streams.ReplicateStream, cache_contributions: bool
    ) -> ResamplingResult:
        """The loop is :func:`resample`'s.  A paper-flavor batch is drawn
        here and is one broadcast and one two-stage job, after the observed
        pass; a vectorized wave of :data:`WAVE_BATCHES` batches is one
        broadcast of its place in the stream and one single-stage job, the
        first scoring the observed statistics too -- the loop only needs
        the batches' widths.  Every broadcast goes even if a job raises."""
        start, first_job = time.perf_counter(), len(self.ctx.metrics.jobs)
        method = stream.method
        paper = self.flavor == "paper"
        if paper and method == "monte_carlo":
            payload, kernel = (lambda z: z), _McChunkInnersFn
            source = self.contributions_rdd(cache_contributions)
        elif paper:
            # re-broadcast a block of shuffled phenotypes (Alg. 2 step 2)
            # and recompute steps 6-12 of Algorithm 1 under each
            source, kernel = self._gm_rdd, _PermutedChunkInnersFn
            payload = lambda perms: [self.model.permuted(perm) for perm in perms]
        observed = self.observed_statistics(cache_contributions) if paper else None
        monitor = self.ctx.inference.new_monitor(
            self._K, method, stream.n_resamples, list(self.dataset.snpsets.names)
        )

        def count_paper(wave: list[np.ndarray]) -> list[np.ndarray]:
            (batch,) = wave
            with _broadcast(self.ctx, payload(batch)) as batch_bc:
                scored = source.map_partitions(kernel(batch_bc))
                return [self._scores_to_counts(scored, len(batch), observed_bc)]

        position = 0

        def count_wave(widths: list[int]) -> np.ndarray:
            nonlocal observed, position
            wave = _Wave(stream, position, tuple(widths))
            position += len(widths)
            counts, observed = self._wave(wave, observed)
            return counts

        with _broadcast(self.ctx, observed) if paper else contextlib.nullcontext() as observed_bc:
            counts, used = resample(
                stream.batches() if paper else stream.widths(),
                count_paper if paper else count_wave, monitor, n_sets=self._K,
                wave=1 if paper else WAVE_BATCHES,
            )
        if observed is None:  # no batch ran
            observed = self.observed_statistics(cache_contributions)
        return self._result(method, observed, counts, used, start, first_job, monitor)

    # -- results -----------------------------------------------------------------------------------

    def _result(
        self,
        method: str,
        observed: np.ndarray,
        counts: np.ndarray,
        iterations: int,
        start: float,
        first_job: int,
        monitor=None,
    ) -> ResamplingResult:
        """``info`` counts the jobs from ``first_job`` on: this call's."""
        elapsed = time.perf_counter() - start
        jobs = self.ctx.metrics.jobs_snapshot()[first_job:]
        totals = [j.totals() for j in jobs]
        info = {
            "wall_seconds": elapsed,
            "engine": "distributed",
            "flavor": self.flavor,
            "jobs_run": len(jobs),
            "cache_hits": sum(t.cache_hits for t in totals),
            "cache_misses": sum(t.cache_misses for t in totals),
            "shuffle_bytes": sum(t.shuffle_bytes_written for t in totals),
            "driver_bytes_collected": sum(t.driver_bytes_collected for t in totals),
        }
        return ResamplingResult.from_run(
            method, self.dataset.snpsets, observed, counts, iterations, info, monitor
        )
