"""GenotypeMatrix container."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.genomics.genotypes import GenotypeMatrix

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture
def gm(rng):
    return GenotypeMatrix(np.arange(10), rng.binomial(2, 0.3, size=(10, 6)).astype(np.int8))


class TestValidation:
    def test_dims(self, gm):
        assert gm.n_snps == 10
        assert gm.n_patients == 6

    def test_dtype_coerced(self):
        gm = GenotypeMatrix(np.arange(2), np.array([[0, 1], [2, 0]]))
        assert gm.matrix.dtype == np.int8

    def test_out_of_range_dosage(self):
        with pytest.raises(ValueError):
            GenotypeMatrix(np.arange(1), np.array([[3]]))
        with pytest.raises(ValueError):
            GenotypeMatrix(np.arange(1), np.array([[-1]]))

    def test_duplicate_ids(self):
        with pytest.raises(ValueError, match="snp_ids must be unique"):
            GenotypeMatrix(np.array([1, 1]), np.zeros((2, 3), dtype=np.int8))
        # apart and out of order: the check does not rely on sorted input
        with pytest.raises(ValueError, match="snp_ids must be unique"):
            GenotypeMatrix(np.array([7, 2, 9, 2]), np.zeros((4, 3), dtype=np.int8))
        GenotypeMatrix(np.array([7, 2, 9]), np.zeros((3, 3), dtype=np.int8))
        GenotypeMatrix(np.array([], dtype=np.int64), np.zeros((0, 3), dtype=np.int8))

    def test_id_alignment(self):
        with pytest.raises(ValueError):
            GenotypeMatrix(np.arange(3), np.zeros((2, 3), dtype=np.int8))

    def test_non_integer_ids(self):
        with pytest.raises(TypeError):
            GenotypeMatrix(np.array(["a", "b"]), np.zeros((2, 3), dtype=np.int8))


ID_CHECK_CHILD = textwrap.dedent(
    """
    import resource
    import numpy as np
    from repro.genomics.genotypes import GenotypeMatrix

    ids = np.arange(1_000_000, dtype=np.int64)[::-1].copy()
    matrix = np.ones((1_000_000, 2), dtype=np.int8)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    GenotypeMatrix(ids, matrix)
    print("PEAK_KIB", before, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    """
)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB is Linux's")
def test_id_check_holds_one_sorted_copy():
    """At 1,000,000 ids the uniqueness check raises a fresh process's peak
    by about one more id vector (+9.3 MiB); ``np.unique``'s hash table
    read +57 MiB.  ``tracemalloc`` does not see that table, so the peak is
    read from ``ru_maxrss``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", ID_CHECK_CHILD],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    before, after = (int(v) for v in proc.stdout.split("PEAK_KIB")[1].split())
    assert (after - before) / 1024 < 20.0, f"+{(after - before) / 1024:.1f} MiB"


class TestAccess:
    def test_rows_iterates_snp_major(self, gm):
        rows = list(gm.rows())
        assert len(rows) == 10
        snp_id, vec = rows[3]
        assert snp_id == 3
        assert np.array_equal(vec, gm.matrix[3])

    def test_blocks_cover_all(self, gm):
        blocks = list(gm.blocks(4))
        assert [len(ids) for ids, _ in blocks] == [4, 4, 2]
        stacked = np.vstack([b for _, b in blocks])
        assert np.array_equal(stacked, gm.matrix)

    def test_blocks_invalid_size(self, gm):
        with pytest.raises(ValueError):
            list(gm.blocks(0))

    def test_subset(self, gm):
        sub = gm.subset(np.array([0, 5]))
        assert sub.n_snps == 2
        assert sub.snp_ids.tolist() == [0, 5]

    def test_maf_folded(self):
        gm = GenotypeMatrix(np.arange(1), np.full((1, 10), 2, dtype=np.int8))
        assert gm.minor_allele_frequencies()[0] == 0.0
        assert gm.allele_frequencies()[0] == 1.0

    def test_nbytes(self, gm):
        assert gm.nbytes == gm.matrix.nbytes + gm.snp_ids.nbytes

    def test_repr(self, gm):
        assert "10 SNPs x 6 patients" in repr(gm)
