"""RDD over a MiniHDFS text file: one partition per block, locality hints."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.engine.rdd import TextFileRDD, TextSplit, count_lines
from repro.engine.task import TaskContext
from repro.hdfs.filesystem import MiniHDFS

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.context import Context


class HdfsTextFileRDD(TextFileRDD):
    """Lines of an HDFS file; partition ``i`` reads block ``i``.

    Because MiniHDFS blocks are line-aligned at write time, each block is a
    self-contained set of records -- no cross-block line repair needed.
    """

    def __init__(self, ctx: "Context", fs: MiniHDFS, path: str) -> None:
        super().__init__(ctx, [], f"hdfs:{path}")
        self._fs = fs
        self._path = path
        self._blocks = fs.blocks(path)

    def num_partitions(self) -> int:
        return len(self._blocks)

    def preferred_locations(self, split: int) -> list[str]:
        return self._fs.block_locations(self._blocks[split])

    def read_split(self, split: int) -> TextSplit:
        blocks = self._blocks
        return TextSplit(
            self._fs.read_block(blocks[split]),
            lambda: sum(count_lines(self._fs.read_block(b)) for b in blocks[:split]),
        )

    def compute(self, split: int, tc: TaskContext) -> Iterator:
        lines = self.read_split(split).data.decode("utf-8").splitlines()
        tc.metrics.records_read += len(lines)
        return iter(lines)
