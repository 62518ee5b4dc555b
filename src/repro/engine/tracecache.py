"""Size-bounded LRU memoization of kernel batch traces.

Cross-validation and benchmarking repeatedly simulate the *same*
kernel instance under several engines (the scalar oracle, the batch
engine, the pipeline) or several cache configurations; regenerating a
multi-million-row :class:`~repro.engine.stream.BatchTrace` each time
wastes more time than the simulation itself for the vectorized
emitters. Traces are **independent of the cache configuration** — they
are pure address streams; only the simulator interprets them against a
geometry — so one cached trace serves every configuration the engines
sweep over.

Keys are content fingerprints (kernel class + name + shape/seed
parameters + emitter version, :func:`~repro.engine.trace.
kernel_fingerprint`), so two kernel instances alias only when their
traces are provably identical — same-named kernels with different
shapes never collide.

The cache lives in RAM only and is bounded both in entries and in
total column bytes; oversized traces are returned uncached rather than
evicting the whole working set. A trace too large to materialize
bypasses the cache altogether: the exact engines stream it from the
kernel's bounded emitter (``KernelModel.segments``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Tuple

from .stream import BatchTrace
from .trace import KernelModel, kernel_fingerprint

#: Default bounds: a handful of kernel instances, capped well below
#: the memory a single large trace costs to simulate anyway.
DEFAULT_MAX_ENTRIES = 12
DEFAULT_MAX_BYTES = 256 * 1024 * 1024


class TraceCache:
    """LRU cache of :meth:`KernelModel.exact_trace` results."""

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES,
                 max_bytes: int = DEFAULT_MAX_BYTES):
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[Tuple, BatchTrace]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _key(kernel: KernelModel) -> Tuple:
        # Content fingerprint, not (module, qualname, name): two
        # same-named kernels with different shape/seed parameters
        # must never alias (regression-tested in test_engine_batch.py).
        return (kernel.name, kernel_fingerprint(kernel))

    def get(self, kernel: KernelModel) -> BatchTrace:
        """Return the kernel's batch trace, generating it on miss.

        Callers must treat the returned trace as immutable — it is
        shared between all users of the same kernel instance shape.
        """
        key = self._key(kernel)
        with self._lock:
            trace = self._entries.get(key)
            if trace is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return trace
            self.misses += 1
        trace = kernel.exact_trace()
        if trace.nbytes > self.max_bytes:
            return trace  # too large to be worth caching in RAM
        with self._lock:
            if key not in self._entries:
                self._entries[key] = trace
                self._bytes += trace.nbytes
                while (len(self._entries) > self.max_entries
                       or self._bytes > self.max_bytes):
                    _, evicted = self._entries.popitem(last=False)
                    self._bytes -= evicted.nbytes
        return trace

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self.hits = 0
            self.misses = 0

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "hits": self.hits,
                "misses": self.misses,
            }


#: Process-wide cache used by :func:`cached_exact_trace`.
GLOBAL_TRACE_CACHE = TraceCache()


def cached_exact_trace(kernel: KernelModel) -> BatchTrace:
    """Memoized :meth:`KernelModel.exact_trace` via the global cache."""
    return GLOBAL_TRACE_CACHE.get(kernel)
