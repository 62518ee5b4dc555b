"""Memory-controller model: MBA channels and 64 B transaction counting.

Each POWER9 socket's nest contains eight memory-controller channels
(MBA 0-7). Physical addresses are interleaved across channels at the
granule (64 B) level, so bulk traffic spreads almost evenly; the per-
channel counters ``PM_MBA[0-7]_{READ,WRITE}_BYTES`` each see roughly
1/8th of the socket's traffic. Tools (and the paper's experiments) sum
the eight channels to recover total socket traffic — our PAPI layer
exposes the same per-channel events so that summation happens in user
code, exactly as on Summit.

The controller deals transactions to the channels round-robin, one
direction at a time, so it only needs to count them: after ``T``
transactions every channel has had ``T // n`` and the first ``T % n``
channels one more. Channel counters are derived from that count when
read, never stored.
"""

from __future__ import annotations

import dataclasses
from typing import List

import numpy as np

from ..errors import SimulationError


@dataclasses.dataclass
class ChannelCounters:
    """Hardware counters of one MBA channel (monotonic, in bytes)."""

    read_bytes: int = 0
    write_bytes: int = 0


class MemoryController:
    """All memory channels of one socket plus the interleave logic."""

    def __init__(self, n_channels: int = 8, granule: int = 64):
        if n_channels <= 0:
            raise SimulationError("need at least one memory channel")
        self.n_channels = n_channels
        self.granule = granule
        # Transactions recorded so far, per direction.
        self._read_txns = 0
        self._write_txns = 0

    # ------------------------------------------------------------------
    def record_read(self, nbytes: int) -> None:
        """Record ``nbytes`` of read traffic (rounded up to granules)."""
        self.record(read_bytes=nbytes)

    def record_write(self, nbytes: int) -> None:
        """Record ``nbytes`` of write traffic (rounded up to granules)."""
        self.record(write_bytes=nbytes)

    def record(self, read_bytes: int = 0, write_bytes: int = 0) -> None:
        """Record one read and one write, each rounded up to granules."""
        if read_bytes < 0 or write_bytes < 0:
            raise SimulationError("traffic cannot be negative")
        self._read_txns += -(-int(read_bytes) // self.granule)
        self._write_txns += -(-int(write_bytes) // self.granule)

    def record_many(self, traffic: np.ndarray) -> None:
        """Record each row of an ``(n, 2)`` integer array of (read,
        write) bytes: the counts of ``n`` :meth:`record` calls, every
        row rounded up to granules on its own."""
        if traffic.min() < 0:
            raise SimulationError("traffic cannot be negative")
        granule = self.granule
        txns = (traffic + (granule - 1)) // granule
        read, write = txns.sum(axis=0).tolist()
        self._read_txns += read
        self._write_txns += write

    # ------------------------------------------------------------------
    def channel_bytes(self, channel: int, is_write: bool) -> int:
        """Bytes channel ``channel`` has counted in one direction."""
        if not 0 <= channel < self.n_channels:
            raise SimulationError(
                f"channel {channel} out of range 0..{self.n_channels - 1}")
        txns = self._write_txns if is_write else self._read_txns
        full, rest = divmod(txns, self.n_channels)
        return self.granule * (full + (channel < rest))

    @property
    def channels(self) -> List[ChannelCounters]:
        """Fresh copies of every channel's counters."""
        return [ChannelCounters(self.channel_bytes(ch, False),
                                self.channel_bytes(ch, True))
                for ch in range(self.n_channels)]

    @property
    def total_read_bytes(self) -> int:
        return self._read_txns * self.granule

    @property
    def total_write_bytes(self) -> int:
        return self._write_txns * self.granule

    def snapshot(self) -> List[ChannelCounters]:
        """Copy of all channel counters (for delta-based measurement)."""
        return self.channels
