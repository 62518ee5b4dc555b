"""Memory controller: channel interleave and 64 B transaction rounding."""

import pytest

from repro.errors import SimulationError
from repro.machine.memory import MemoryController


class TestRecording:
    def test_totals(self):
        mc = MemoryController()
        mc.record_read(1024)
        mc.record_write(2048)
        assert mc.total_read_bytes == 1024
        assert mc.total_write_bytes == 2048

    def test_rounds_to_granule(self):
        mc = MemoryController()
        mc.record_read(1)
        assert mc.total_read_bytes == 64

    def test_zero_is_noop(self):
        mc = MemoryController()
        mc.record(0, 0)
        assert mc.total_read_bytes == 0

    def test_negative_rejected(self):
        mc = MemoryController()
        with pytest.raises(SimulationError):
            mc.record_read(-1)

    def test_needs_channels(self):
        with pytest.raises(SimulationError):
            MemoryController(n_channels=0)


class TestInterleave:
    def test_bulk_traffic_spreads_evenly(self):
        mc = MemoryController(n_channels=8)
        mc.record_read(8 * 64 * 1000)
        per_channel = [ch.read_bytes for ch in mc.channels]
        assert len(set(per_channel)) == 1  # exactly even

    def test_remainder_distributed_round_robin(self):
        mc = MemoryController(n_channels=8)
        for _ in range(8):
            mc.record_read(64)  # one transaction each
        per_channel = [ch.read_bytes for ch in mc.channels]
        assert per_channel == [64] * 8  # cursor rotated across calls

    def test_reads_and_writes_independent_cursors(self):
        mc = MemoryController(n_channels=4)
        mc.record_read(64)
        mc.record_write(64)
        assert mc.channels[0].read_bytes == 64
        assert mc.channels[0].write_bytes == 64

    def test_sum_preserved(self):
        mc = MemoryController(n_channels=8)
        total = 0
        for nbytes in (64, 128, 192, 1000, 7):
            mc.record_read(nbytes)
            total += ((nbytes + 63) // 64) * 64
        assert mc.total_read_bytes == total


class TestSnapshot:
    def test_snapshot_is_a_copy(self):
        mc = MemoryController()
        snap = mc.snapshot()
        mc.record_read(640)
        assert sum(ch.read_bytes for ch in snap) == 0
        assert mc.total_read_bytes == 640

    def test_counters_monotonic(self):
        mc = MemoryController()
        mc.record_read(64)
        first = mc.total_read_bytes
        mc.record_read(64)
        assert mc.total_read_bytes > first

    def test_channels_are_copies(self):
        mc = MemoryController(n_channels=4)
        mc.record_read(64 * 5)
        mc.channels[0].read_bytes += 64
        assert [ch.read_bytes for ch in mc.channels] == [128, 64, 64, 64]


class TestChannelBytes:
    def test_rounding_is_per_record(self):
        # ceil(a) + ceil(b) != ceil(a + b): two 1-byte records are two
        # transactions, on two channels.
        mc = MemoryController(n_channels=8)
        mc.record_read(1)
        mc.record_read(1)
        assert mc.total_read_bytes == 128
        assert [mc.channel_bytes(ch, False) for ch in range(3)] == [64, 64, 0]

    @pytest.mark.parametrize("channel", [-1, 8])
    def test_out_of_range_rejected(self, channel):
        with pytest.raises(SimulationError):
            MemoryController(n_channels=8).channel_bytes(channel, False)
