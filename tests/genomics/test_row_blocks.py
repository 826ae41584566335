"""The generator draws, and the writer formats, a row block at a time.

Blocks change memory, never values: ``generate_dataset`` must return what one
``(m, n)`` draw returns, and ``write_dataset`` the bytes of one whole-file
format of genotypes, weights and SNP-sets.  The reference is drawn inline,
not stored as a digest, because a NumPy release may change what a
``Generator`` stream yields.
"""

import dataclasses
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import repro.genomics.synthetic as synthetic
from repro.genomics.io.dataset_io import write_dataset
from repro.genomics.io.formats import (
    _format_genotype_text,
    format_snpset_line,
    format_weight_line,
)
from repro.genomics.snpsets import SnpSetCollection
from repro.genomics.synthetic import SyntheticConfig, generate_dataset

SRC = Path(__file__).resolve().parents[2] / "src"


def one_shot_reference(config: SyntheticConfig):
    """Section III drawn as before row blocks: every dosage in one call."""
    rng = np.random.default_rng(config.seed)
    n, m = config.n_patients, config.n_snps
    rho = rng.uniform(*config.maf_range, size=m)
    matrix = rng.binomial(2, rho[:, None], size=(m, n)).astype(np.int8)
    causal_rows = np.empty(0, dtype=np.int64)
    if config.n_causal_snps > 0 and config.effect_size != 0.0:
        causal_rows = np.sort(rng.choice(m, size=config.n_causal_snps, replace=False))
        linear = config.effect_size * matrix[causal_rows].sum(axis=0)
        times = rng.exponential(1.0 / (np.exp(linear) / config.mean_survival_months))
    else:
        times = rng.exponential(config.mean_survival_months, size=n)
    events = rng.binomial(1, config.event_rate, size=n)
    set_ids = synthetic.snpset_size_partition(m, config.n_snpsets, rng)
    return matrix, times, events, set_ids, causal_rows


class TestGenerateMatchesOneDraw:
    @pytest.mark.parametrize(
        "block, n_patients, n_snps, n_causal",
        [
            (None, 1000, 600, 0),  # 131 rows a block: m is not a multiple
            (None, 1000, 100, 0),  # m smaller than one block
            (1, 7, 40, 0),  # one row a block
            (7, 3, 41, 0),  # a row counts as 64 dosages: one row a block
            (None, 1000, 600, 5),  # planted signal reads the causal rows
            (7, 3, 41, 4),
        ],
    )
    def test_arrays_are_the_one_shot_draw(self, monkeypatch, block, n_patients, n_snps, n_causal):
        if block is not None:
            monkeypatch.setattr(synthetic, "ROW_BLOCK_DOSAGES", block, raising=False)
        config = SyntheticConfig(
            n_patients=n_patients, n_snps=n_snps, n_snpsets=4, seed=11,
            n_causal_snps=n_causal, effect_size=0.7 if n_causal else 0.0,
        )
        matrix, times, events, set_ids, causal_rows = one_shot_reference(config)
        data = generate_dataset(config)
        assert data.genotypes.matrix.dtype == np.int8
        assert np.array_equal(data.genotypes.matrix, matrix)
        assert np.array_equal(data.genotypes.snp_ids, np.arange(n_snps))
        assert np.array_equal(data.phenotype.time, times)
        assert np.array_equal(data.phenotype.event, events)
        assert np.array_equal(data.snpsets.set_ids, set_ids)
        assert np.array_equal(data.causal_rows, causal_rows)
        assert causal_rows.size == n_causal


class TestWriteMatchesOneFormat:
    @pytest.mark.parametrize("block", [1, 7, 20, None])
    def test_genotype_bytes_are_the_whole_matrix_format(self, monkeypatch, tmp_path, block):
        data = generate_dataset(SyntheticConfig(n_patients=3, n_snps=12, n_snpsets=2, seed=4))
        # ids 9 | 10 change width where 2-row blocks (budget 7) meet; the
        # dosages >= 10 on either side take the per-line formatter
        data.genotypes.matrix[9, 0] = 12
        data.genotypes.matrix[10, 2] = 10
        if block is not None:
            monkeypatch.setattr(synthetic, "ROW_BLOCK_DOSAGES", block, raising=False)
        paths = write_dataset(data, str(tmp_path / "ds"))
        expected = _format_genotype_text(data.genotypes.snp_ids, data.genotypes.matrix)
        assert b"9\t12," in expected and b"10\t" in expected and b",10\n" in expected
        assert Path(paths["genotypes"]).read_bytes() == expected

    @pytest.mark.parametrize("block", [1, 64, 7 * 64, None])
    def test_weight_and_snpset_bytes_are_the_whole_file_format(
        self, monkeypatch, tmp_path, block
    ):
        rng = np.random.default_rng(8)
        data = generate_dataset(SyntheticConfig(n_patients=3, n_snps=40, n_snpsets=5, seed=4))
        set_ids = rng.permutation(np.r_[np.zeros(20, int), rng.integers(1, 4, 20)])
        data = dataclasses.replace(
            data,
            weights=rng.uniform(0.0, 3.0, 40),  # the float's repr, not "1.0"
            snpsets=SnpSetCollection(set_ids, ["big", "b", "c", "d", "empty"]),
        )
        if block is not None:
            monkeypatch.setattr(synthetic, "ROW_BLOCK_DOSAGES", block, raising=False)
        paths = write_dataset(data, str(tmp_path / "ds"))
        snp_ids = data.genotypes.snp_ids.tolist()
        weight_lines = [format_weight_line(i, float(w)) for i, w in zip(snp_ids, data.weights)]
        members = {name: [] for name in data.snpsets.names}
        for snp_id, k in zip(snp_ids, set_ids.tolist()):
            members[data.snpsets.names[k]].append(snp_id)
        set_lines = [format_snpset_line(name, ids) for name, ids in members.items()]
        assert set_lines[-1] == "empty\t"
        assert Path(paths["weights"]).read_text() == "\n".join(weight_lines) + "\n"
        assert Path(paths["snpsets"]).read_text() == "\n".join(set_lines) + "\n"


MEMORY_CHILD = textwrap.dedent(
    """
    import resource, sys
    from repro.genomics.io.dataset_io import write_dataset
    from repro.genomics.synthetic import SyntheticConfig, generate_dataset

    def peak_kib():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    before = peak_kib()
    dataset = generate_dataset(
        SyntheticConfig(n_patients=1000, n_snps=20_000, n_snpsets=200, seed=1)
    )
    write_dataset(dataset, sys.argv[1])
    print("PEAK_KIB", before, peak_kib())
    """
)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB is Linux's")
def test_generate_and_write_hold_little_beside_the_matrix(tmp_path):
    """A fresh process's peak grows by under 3 bytes per dosage: the int8
    matrix is one, and no whole-matrix int64 draw or text is ever held (those
    read ~9.4 bytes per dosage)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", MEMORY_CHILD, str(tmp_path / "ds")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    before, after = (int(v) for v in proc.stdout.split("PEAK_KIB")[1].split())
    per_dosage = (after - before) * 1024 / (20_000 * 1000)
    assert per_dosage < 3.0, f"{per_dosage:.2f} bytes per dosage"
    assert (tmp_path / "ds" / "genotypes.txt").stat().st_size > 20_000 * 2000


MANY_SNPS_CHILD = textwrap.dedent(
    """
    import resource, sys
    from repro.genomics.io.dataset_io import write_dataset
    from repro.genomics.synthetic import SyntheticConfig, generate_dataset

    def peak_kib():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    dataset = generate_dataset(
        SyntheticConfig(n_patients=2, n_snps=200_000, n_snpsets=2_000, seed=1)
    )
    before = peak_kib()
    write_dataset(dataset, sys.argv[1])
    print("PEAK_KIB", before, peak_kib())
    """
)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB is Linux's")
def test_writing_many_snps_holds_no_per_snp_objects(tmp_path):
    """Two patients, 200,000 SNPs: writing grows a fresh process's peak by
    under 16 bytes per SNP above what generating the dataset reached.  Every
    weight line, set id list or genotype row held as Python objects at once
    read ~340 bytes per SNP."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", MANY_SNPS_CHILD, str(tmp_path / "ds")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    before, after = (int(v) for v in proc.stdout.split("PEAK_KIB")[1].split())
    per_snp = (after - before) * 1024 / 200_000
    assert per_snp < 16.0, f"{per_snp:.1f} bytes per SNP"
    assert (tmp_path / "ds" / "weights.txt").read_text().count("\n") == 200_000


def test_generate_holds_one_set_id_vector():
    """At 1,000,000 SNPs x 2 patients the per-SNP vectors are what
    ``generate_dataset`` holds.  Its traced peak exceeds what it returns by
    the allele frequencies and a row block: under one and a half 8-byte
    per-SNP vectors.  A copy of the SNP-set ids in ``SnpSetCollection``
    held a second set-id vector to the end and read ~2.1 vectors."""
    m = 1_000_000
    tracemalloc.start()
    try:
        data = generate_dataset(SyntheticConfig(n_patients=2, n_snps=m, n_snpsets=10_000, seed=1))
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert data.snpsets.set_ids.dtype == np.int64
    assert peak - retained < 1.5 * 8 * m, f"{(peak - retained) / (8 * m):.2f} set-id vectors"
