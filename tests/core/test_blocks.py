"""A block's per-set SKAT partials against the whole-matrix reference.

``SnpBlock.skat_partial`` aggregates ``(m,)`` scores by ``bincount`` and a
``(b, m)`` batch by one GEMM against a dense indicator of the sets the
block holds.  Both must give ``stats.skat.skat_statistics`` on the block's
rows, whatever the order, repetition or absence of set ids.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.blocks import SnpBlock
from repro.stats.skat import skat_statistics

_finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def blocks_and_scores(draw):
    """A block of ``m`` SNPs over ``K`` sets (ids unsorted, repeated, most
    sets absent) and a ``(b, m)`` batch of scores."""
    n_sets = draw(st.integers(1, 500))
    m = draw(st.integers(1, 40))
    b = draw(st.integers(1, 8))
    set_ids = draw(arrays(np.int64, m, elements=st.integers(0, n_sets - 1)))
    weights = draw(arrays(np.float64, m, elements=st.floats(0.0, 10.0, **_finite)))
    scores = draw(arrays(np.float64, (b, m), elements=st.floats(-1e3, 1e3, **_finite)))
    block = SnpBlock(
        np.arange(m, dtype=np.int64), set_ids, weights**2, np.zeros((m, 1)), n_sets
    )
    return block, weights, scores


def _block(set_ids, n_sets, weights):
    m = len(set_ids)
    return SnpBlock(
        np.arange(m, dtype=np.int64), np.array(set_ids, dtype=np.int64),
        np.asarray(weights, dtype=np.float64) ** 2, np.zeros((m, 1)), n_sets,
    )


@settings(max_examples=200, deadline=None)
@given(blocks_and_scores())
@example((_block([0], 1, [1.5]), np.array([1.5]), np.array([[2.0]])))  # one row, b = 1
@example((_block([4, 1, 4, 4], 500, [1.0, 2.0, 3.0, 4.0]), np.array([1.0, 2.0, 3.0, 4.0]),
          np.arange(12.0).reshape(3, 4)))
def test_batched_partial_is_the_whole_matrix_statistic(case):
    block, weights, scores = case
    partial = block.skat_partial(scores)
    reference = skat_statistics(scores, weights, block.set_ids, block.n_sets)
    assert partial.shape == (scores.shape[0], block.n_sets)
    np.testing.assert_allclose(partial, reference, rtol=1e-12, atol=0.0)
    # every row of the batch is the 1-D (bincount) partial of that row
    for row, scored in zip(partial, scores):
        np.testing.assert_allclose(row, block.skat_partial(scored), rtol=1e-12, atol=0.0)
    # sets the block does not hold add nothing
    absent = np.setdiff1d(np.arange(block.n_sets), block.set_ids)
    assert not partial[:, absent].any()
