"""Exact sectored cache simulator: hits, misses, traffic accounting."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.machine.cache import CacheSim, TrafficCounters
from repro.machine.config import CacheConfig


def small_cache(capacity=64 * 1024, line=128, granule=64, assoc=4):
    return CacheSim(CacheConfig(capacity_bytes=capacity, line_bytes=line,
                                granule_bytes=granule, associativity=assoc))


class TestTrafficCounters:
    def test_add(self):
        a = TrafficCounters(10, 20)
        a.add(TrafficCounters(1, 2))
        assert (a.read_bytes, a.write_bytes) == (11, 22)

    def test_scaled(self):
        assert tuple(TrafficCounters(10, 20).scaled(2.5)) == (25, 50)

    def test_total(self):
        assert TrafficCounters(3, 4).total_bytes == 7

    def test_iter_order(self):
        r, w = TrafficCounters(1, 2)
        assert (r, w) == (1, 2)


class TestReads:
    def test_cold_read_fetches_one_granule(self):
        c = small_cache()
        c.access(0, 8, is_write=False)
        assert c.traffic.read_bytes == 64
        assert c.stats_misses == 1

    def test_second_read_same_sector_hits(self):
        c = small_cache()
        c.access(0, 8, is_write=False)
        c.access(8, 8, is_write=False)
        assert c.traffic.read_bytes == 64
        assert c.stats_hits == 1

    def test_other_sector_of_line_is_separate_fetch(self):
        # Sectored cache: the other 64 B half of the line is not valid.
        c = small_cache()
        c.access(0, 8, is_write=False)
        c.access(64, 8, is_write=False)
        assert c.traffic.read_bytes == 128

    def test_sequential_stream_traffic_equals_footprint(self):
        c = small_cache()
        n = 512
        c.touch_array(0, n, 8, 8, is_write=False)
        assert c.traffic.read_bytes == n * 8

    def test_access_spanning_sectors_splits(self):
        c = small_cache()
        c.access(60, 8, is_write=False)  # crosses the 64 B boundary
        assert c.traffic.read_bytes == 128

    def test_zero_size_access_rejected(self):
        c = small_cache()
        with pytest.raises(SimulationError):
            c.access(0, 0, is_write=False)


class TestWriteAllocate:
    def test_write_miss_costs_read_for_ownership(self):
        c = small_cache()
        c.access(0, 8, is_write=True)
        assert c.traffic.read_bytes == 64
        assert c.traffic.write_bytes == 0  # not written back yet

    def test_flush_writes_back_dirty_sectors(self):
        c = small_cache()
        c.access(0, 8, is_write=True)
        c.flush()
        assert c.traffic.write_bytes == 64

    def test_clean_lines_not_written_back(self):
        c = small_cache()
        c.access(0, 8, is_write=False)
        c.flush()
        assert c.traffic.write_bytes == 0

    def test_eviction_writes_back_dirty(self):
        c = small_cache(capacity=2048, assoc=2, line=128)  # 8 sets
        # Fill one set beyond associativity with dirty lines: set stride
        # is n_sets * line = 1024 bytes.
        for i in range(3):
            c.access(i * 1024, 8, is_write=True)
        assert c.traffic.write_bytes == 64  # one eviction so far


class TestBypassStores:
    def test_full_sector_gathered_into_one_write(self):
        c = small_cache()
        for i in range(8):  # 8 x 8B = one 64 B sector
            c.access(i * 8, 8, is_write=True, bypass=True)
        assert c.traffic.write_bytes == 64
        assert c.traffic.read_bytes == 0

    def test_bypass_never_reads(self):
        c = small_cache()
        c.touch_array(0, 1000, 8, 8, is_write=True, bypass=True)
        c.flush()
        assert c.traffic.read_bytes == 0
        assert c.traffic.write_bytes == 1000 * 8

    def test_wcb_overflow_drains(self):
        c = small_cache()
        # 100 partial sectors, widely spread: must not grow unbounded.
        for i in range(100):
            c.access(i * 4096, 8, is_write=True, bypass=True)
        c.flush()
        assert c.traffic.write_bytes == 100 * 64
        assert len(c._wcb) == 0


class TestLRU:
    def test_lru_victim_is_least_recent(self):
        c = small_cache(capacity=1024, assoc=2, line=128)  # 4 sets
        set_stride = 4 * 128
        a, b, d = 0, set_stride, 2 * set_stride  # same set
        c.access(a, 8, False)
        c.access(b, 8, False)
        c.access(a, 8, False)   # refresh a
        c.access(d, 8, False)   # evicts b
        c.access(a, 8, False)   # still resident
        assert c.traffic.read_bytes == 3 * 64

    def test_capacity_thrash_refetches(self):
        c = small_cache(capacity=4096)
        c.touch_array(0, 128, 8, 64, is_write=False)  # 8 KiB footprint
        before = c.traffic.read_bytes
        c.touch_array(0, 128, 8, 64, is_write=False)  # re-pass misses
        assert c.traffic.read_bytes > before


class TestLifecycle:
    def test_invalidate_drops_without_traffic(self):
        c = small_cache()
        c.access(0, 8, is_write=True)
        c.invalidate()
        assert c.traffic.write_bytes == 0
        assert c.resident_bytes() == 0

    def test_resident_and_dirty_bytes(self):
        c = small_cache()
        c.access(0, 8, is_write=True)
        c.access(64, 8, is_write=False)
        assert c.resident_bytes() == 128
        assert c.dirty_bytes() == 64

    def test_reset_traffic_returns_and_zeroes(self):
        c = small_cache()
        c.access(0, 8, False)
        out = c.reset_traffic()
        assert out.read_bytes == 64
        assert c.traffic.read_bytes == 0


class TestProbeValidation:
    @pytest.mark.parametrize("size", [0, -8])
    def test_probe_rejects_nonpositive_size(self, size):
        c = small_cache()
        with pytest.raises(SimulationError, match="size"):
            c.probe(0, size)

    @pytest.mark.parametrize("watch", [
        np.array([True, False]),  # a mask, not row indices
        [1.9],
        np.array([0.0]),
    ], ids=["bool-mask", "float-list", "float-array"])
    def test_probed_batch_rejects_non_integer_watch(self, watch):
        c = small_cache()
        with pytest.raises(SimulationError, match="watch"):
            c.access_batch_probed(np.array([0, 64]), np.array([8, 8]),
                                  np.array([False, True]), watch)
        assert c.stats_hits == c.stats_misses == 0

    def test_probed_batch_accepts_integer_watch(self):
        c = small_cache()
        rows, resident, dirty = c.access_batch_probed(
            np.array([0, 8]), np.array([8, 8]), np.array([True, False]),
            np.array([1], dtype=np.uint8))
        assert rows.tolist() == [1]
        assert resident.tolist() == [True]
        assert dirty.tolist() == [True]


class TestBatchChunkSize:
    @pytest.mark.parametrize("chunk_size", [-1, 0, 2.5])
    @pytest.mark.parametrize("probed", [False, True],
                             ids=["access_batch", "access_batch_probed"])
    def test_bad_chunk_size_rejected_before_any_change(self, chunk_size,
                                                       probed):
        c = small_cache(capacity=4 * 1024, assoc=2)
        c.access_batch(np.array([0, 4096, 136]), np.full(3, 8),
                       np.array([True, False, True]))

        def state():
            return (c.traffic.read_bytes, c.traffic.write_bytes,
                    c.stats_hits, c.stats_misses, c._clock, c.snapshot())

        before = state()
        addr = np.arange(0, 32 * 1024, 72, dtype=np.int64)
        size = np.full(addr.size, 16, dtype=np.int64)
        w = np.arange(addr.size) % 3 == 0
        with pytest.raises(SimulationError, match="chunk_size"):
            if probed:
                c.access_batch_probed(addr, size, w, [0, 5],
                                      chunk_size=chunk_size)
            else:
                c.access_batch(addr, size, w, chunk_size=chunk_size)
        assert state() == before
