"""Event counters that the program keeps about itself.

One class holds the counters that the PCP daemon, its TCP fabric and
the TCP client transport keep, and that the ``pmcd.*`` self-metrics,
``daemon_overhead()`` and the benchmark read.
"""

from __future__ import annotations

from typing import Dict


class Counters:
    """Named event counters, read as attributes or as one snapshot.

    Each name is an ``int`` attribute that its owner bumps in place
    (``stats.fetches += 1``). Bumps take no lock, so an owner bumps
    from one thread at a time: the daemon and the fabric from the
    thread serving them, the transport under its request lock. A
    reader on another thread sees each value whole, but a snapshot is
    not one instant. With ``latency=True``, :meth:`record_latency`
    keeps a response-time tally, read as ``latency_avg_usec`` and
    ``latency_max_usec``. :meth:`snapshot` returns every name with its
    value.
    """

    def __init__(self, *names: str, latency: bool = False):
        for name in names:
            setattr(self, name, 0)
        self._names = names + (("latency_avg_usec", "latency_max_usec")
                               if latency else ())
        self._latency_sum = 0.0
        self._latency_max = 0.0
        self._latency_n = 0

    def record_latency(self, seconds: float) -> None:
        self._latency_sum += seconds
        self._latency_max = max(self._latency_max, seconds)
        self._latency_n += 1

    @property
    def latency_avg_usec(self) -> int:
        if not self._latency_n:
            return 0
        return int(self._latency_sum / self._latency_n * 1e6)

    @property
    def latency_max_usec(self) -> int:
        return int(self._latency_max * 1e6)

    def snapshot(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self._names}
