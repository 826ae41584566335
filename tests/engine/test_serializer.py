"""The one frame format: round-trips, FrameBatch."""

import pickle

import numpy as np
import pytest

from repro.core.blocks import SnpBlock
from repro.engine.serializer import FrameBatch, dumps, loads

SAMPLES = [
    None,
    True,
    False,
    0,
    -17,
    2**62,
    2**100,  # beyond int64
    3.14159,
    float("inf"),
    "",
    "héllo wörld",
    b"",
    b"\x00\xff raw bytes",
    [],
    [1, 2, 3],
    (4, 5),
    {"a": 1, 2: "b", None: [True, (1.5, b"x")]},
    [("key", 0), ("key", 1)],
]


def make_snp_block(n_snps=6, n_patients=4, n_sets=3, seed=0):
    rng = np.random.default_rng(seed)
    return SnpBlock(
        snp_ids=np.arange(n_snps, dtype=np.int64),
        set_ids=rng.integers(0, n_sets, n_snps).astype(np.int64),
        weights_sq=rng.random(n_snps),
        genotypes=rng.integers(0, 3, (n_snps, n_patients)).astype(np.float64),
        n_sets=n_sets,
    )


class TestRoundTrip:
    @pytest.mark.parametrize("obj", SAMPLES, ids=repr)
    def test_python_values(self, obj):
        assert loads(dumps(obj)) == obj

    def test_python_value_types_preserved(self):
        decoded = loads(dumps([1, (2,), [3], {4: 5}, "s", b"b"]))
        assert [type(v) for v in decoded] == [int, tuple, list, dict, str, bytes]

    @pytest.mark.parametrize("dtype", ["float64", "float32", "int64", "int8", "bool"])
    def test_ndarray_bit_identical(self, dtype):
        rng = np.random.default_rng(7)
        arr = (rng.random((5, 3)) * 100).astype(dtype)
        out = loads(dumps(arr))
        assert out.dtype == arr.dtype
        assert out.shape == arr.shape
        assert np.array_equal(out, arr)

    def test_ndarray_zero_dim_and_empty(self):
        for arr in (np.array(3.5), np.empty((0, 4))):
            out = loads(dumps(arr))
            assert out.shape == arr.shape
            assert np.array_equal(out, arr)

    def test_fortran_order_array(self):
        arr = np.asfortranarray(np.arange(12, dtype=np.float64).reshape(3, 4))
        assert np.array_equal(loads(dumps(arr)), arr)

    def test_numpy_scalar(self):
        value = np.float64(2.718281828)
        out = loads(dumps(value))
        assert out == value and out.dtype == value.dtype

    def test_snp_block(self):
        block = make_snp_block()
        out = loads(dumps(block))
        assert isinstance(out, SnpBlock)
        assert out.n_sets == block.n_sets
        for attr in ("snp_ids", "set_ids", "weights_sq", "genotypes"):
            assert np.array_equal(getattr(out, attr), getattr(block, attr))

    def test_decoded_arrays_are_writable(self):
        out = loads(dumps(np.zeros(4)))
        out[0] = 1.0  # would raise on a frombuffer view of the frame
        assert out[0] == 1.0

    def test_shuffle_bucket_shape(self):
        bucket = [(i % 3, np.full(8, float(i))) for i in range(12)]
        out = loads(dumps(bucket))
        assert len(out) == 12
        assert all(k == i % 3 and np.array_equal(v, np.full(8, float(i)))
                   for i, (k, v) in enumerate(out))


class TestFrameBatch:
    def test_iterates_concatenated_records(self):
        batch = FrameBatch([dumps([(0, "a"), (1, "b")]), dumps([(2, "c")])])
        assert list(batch) == [(0, "a"), (1, "b"), (2, "c")]
        assert list(batch) == [(0, "a"), (1, "b"), (2, "c")]  # re-iterable

    def test_pickles_without_decoding(self):
        batch = FrameBatch([dumps([(k, np.arange(4)) for k in range(3)])])
        clone = pickle.loads(pickle.dumps(batch))
        assert clone.frames == batch.frames
        assert [(k, v.tolist()) for k, v in clone] == [
            (k, list(range(4))) for k in range(3)
        ]
