"""Local text file reading with Hadoop-style splits."""

import pytest


class TestLocalTextFile:
    def write(self, tmp_path, name, lines):
        path = tmp_path / name
        path.write_text("".join(line + "\n" for line in lines))
        return str(path)

    def test_roundtrip_single_partition(self, ctx, tmp_path):
        lines = [f"line-{i}" for i in range(10)]
        path = self.write(tmp_path, "f.txt", lines)
        assert ctx.text_file(path, 1).collect() == lines

    @pytest.mark.parametrize("splits", [2, 3, 5, 16])
    def test_splits_cover_exactly_once(self, ctx, tmp_path, splits):
        lines = [f"row {i} with some padding text" for i in range(57)]
        path = self.write(tmp_path, "f.txt", lines)
        rdd = ctx.text_file(path, splits)
        assert rdd.collect() == lines

    def test_varied_line_lengths(self, ctx, tmp_path):
        lines = ["x" * (i % 37 + 1) for i in range(101)]
        path = self.write(tmp_path, "f.txt", lines)
        assert ctx.text_file(path, 7).collect() == lines

    def test_line_longer_than_split(self, ctx, tmp_path):
        lines = ["short", "y" * 500, "tail"]
        path = self.write(tmp_path, "f.txt", lines)
        assert ctx.text_file(path, 8).collect() == lines

    def test_missing_file_raises(self, ctx, tmp_path):
        with pytest.raises(FileNotFoundError):
            ctx.text_file(str(tmp_path / "nope"), 2)

    def test_directory_of_parts(self, ctx, tmp_path):
        d = tmp_path / "data"
        d.mkdir()
        (d / "part-00000").write_text("a\nb\n")
        (d / "part-00001").write_text("c\n")
        (d / "_SUCCESS").write_text("")
        out = ctx.text_file(str(d), 2).collect()
        assert out == ["a", "b", "c"]

    def test_records_read_metric(self, ctx, tmp_path):
        path = self.write(tmp_path, "f.txt", ["a", "b", "c"])
        ctx.text_file(path, 1).count()
        assert ctx.metrics.jobs[-1].totals().records_read == 3

    @pytest.mark.parametrize("min_partitions", [0, -3])
    def test_partition_count_below_one_is_refused(self, ctx, tmp_path, min_partitions):
        path = self.write(tmp_path, "f.txt", [f"line-{i}" for i in range(10)])
        with pytest.raises(ValueError, match=r"^num_partitions must be >= 1$"):
            ctx.text_file(path, min_partitions)
        with pytest.raises(ValueError, match=r"^num_partitions must be >= 1$"):
            ctx.parallelize(range(10), min_partitions)
        assert ctx.text_file(path).num_partitions() == ctx.config.default_parallelism
