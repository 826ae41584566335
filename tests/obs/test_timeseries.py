"""The fleet's ring-buffer store: series retention tiers, range scans, the store."""

import threading

import pytest

from repro.obs import timeseries
from repro.obs.timeseries import Series, TimeSeriesStore, label_key


@pytest.fixture
def rings(monkeypatch):
    """``rings(raw, factor, downsampled)`` shrinks the retention constants
    for the series created after the call."""

    def shrink(raw=timeseries.RAW_CAPACITY, factor=timeseries.DOWNSAMPLE_FACTOR,
               downsampled=timeseries.DOWNSAMPLED_CAPACITY):
        monkeypatch.setattr(timeseries, "RAW_CAPACITY", raw)
        monkeypatch.setattr(timeseries, "DOWNSAMPLE_FACTOR", factor)
        monkeypatch.setattr(timeseries, "DOWNSAMPLED_CAPACITY", downsampled)

    return shrink


class TestLabelKey:
    def test_canonical_sorted_pairs(self):
        assert label_key({"b": "2", "a": "1"}) == (("a", "1"), ("b", "2"))
        assert label_key(None) == ()
        assert label_key([("x", 1)]) == (("x", "1"),)

    def test_order_insensitive(self):
        assert label_key({"a": "1", "b": "2"}) == label_key({"b": "2", "a": "1"})


class TestSeriesRetention:
    def test_raw_ring_bounded(self, rings):
        rings(raw=4, factor=2)
        s = Series("m")
        for i in range(10):
            s.append(float(i), float(i))
        assert len(s.raw) == 4
        assert s.raw[0][0] == 6.0  # oldest retained raw sample

    def test_evictions_fold_into_bins_not_dropped(self, rings):
        rings(raw=2, factor=2)
        s = Series("m")
        for i in range(8):
            s.append(float(i), float(i * 10))
        # 6 evicted samples -> 3 complete bins of 2
        assert len(s.downsampled) == 3
        first = s.downsampled[0]
        assert (first.min, first.max, first.count) == (0.0, 10.0, 2)
        assert first.mean == pytest.approx(5.0)

    def test_partial_bin_pending_until_full(self, rings):
        rings(raw=1, factor=4)
        s = Series("m")
        for i in range(3):
            s.append(float(i), 1.0)
        # 2 evictions, factor 4: nothing downsampled yet, pending holds them
        assert len(s.downsampled) == 0
        assert s._pending is not None and s._pending.count == 2

    def test_downsampled_ring_bounded(self, rings):
        rings(raw=1, factor=1, downsampled=5)
        s = Series("m")
        for i in range(100):
            s.append(float(i), float(i))
        assert len(s.downsampled) == 5

    def test_memory_strictly_bounded(self, rings):
        rings(raw=8, factor=4, downsampled=16)
        s = Series("m")
        for i in range(10_000):
            s.append(float(i), float(i))
        assert len(s.raw) <= 8
        assert len(s.downsampled) <= 16


class TestSeriesQueries:
    def test_samples_merges_tiers_in_time_order(self, rings):
        rings(raw=2, factor=2)
        s = Series("m")
        for i in range(6):
            s.append(float(i), float(i))
        pts = s.samples()
        times = [t for t, _ in pts]
        assert times == sorted(times)
        # raw tail present at full resolution
        assert pts[-1] == (5.0, 5.0)
        # downsampled history present as bin means at midpoints
        assert (0.5, 0.5) in pts

    def test_samples_range_clip(self):
        s = Series("m")
        for i in range(10):
            s.append(float(i), float(i))
        assert [t for t, _ in s.samples(3.0, 6.0)] == [3.0, 4.0, 5.0, 6.0]

    def test_latest(self):
        s = Series("m")
        assert s.latest() is None
        s.append(1.0, 7.0)
        assert s.latest() == (1.0, 7.0)

    def test_to_dict_shape(self):
        s = Series("m", label_key({"a": "1"}), kind="counter")
        s.append(1.0, 2.0)
        d = s.to_dict()
        assert d == {
            "name": "m", "labels": {"a": "1"}, "kind": "counter",
            "samples": [[1.0, 2.0]],
        }


class TestTimeSeriesStore:
    def test_series_get_or_create(self):
        store = TimeSeriesStore()
        a = store.series("m", {"x": "1"})
        assert store.series("m", {"x": "1"}) is a
        assert store.series("m", {"x": "2"}) is not a

    def test_cardinality_cap(self, monkeypatch):
        monkeypatch.setattr(timeseries, "MAX_SERIES", 3)
        store = TimeSeriesStore()
        for i in range(5):
            store.record("m", 1.0, labels={"i": str(i)}, t=float(i))
        assert len(store.all_series()) == 3
        assert store.series_dropped == 2

    def test_dump_trims_to_window_and_skips_empty(self):
        store = TimeSeriesStore()
        for t in range(10):
            store.record("m", float(t), t=float(t))
        store.record("old", 1.0, t=0.0)
        dump = store.dump(window=3.0, now=9.0)
        names = {d["name"] for d in dump}
        assert names == {"m"}  # "old" has no samples in the window
        (m,) = dump
        assert [t for t, _ in m["samples"]] == [6.0, 7.0, 8.0, 9.0]

    def test_names_sorted(self):
        store = TimeSeriesStore()
        store.record("b", 1.0, t=0.0)
        store.record("a", 1.0, t=0.0)
        assert store.names() == ["a", "b"]

    def test_concurrent_records_safe(self):
        store = TimeSeriesStore()

        def pump(tag):
            for i in range(200):
                store.record("m", float(i), labels={"t": tag}, t=float(i))

        threads = [threading.Thread(target=pump, args=(str(n),)) for n in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert sum(len(s.samples()) for s in store.all_series()) == 800
