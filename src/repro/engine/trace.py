"""Kernel model interface consumed by both engines and the executor.

A :class:`KernelModel` bundles the three descriptions of one
computational kernel that the reproduction needs:

1. *numerics* — the actual result, computed with NumPy (``compute``),
   used by correctness tests;
2. *stream declarations* — what the prefetcher/store policy sees;
3. *traffic law* — analytic memory traffic per execution on one core,
   plus (for small sizes) an exact program-ordered access trace.
"""

from __future__ import annotations

import abc
from typing import Iterator, List, Optional

from ..machine.cache import TrafficCounters
from ..machine.prefetch import SoftwarePrefetch
from .analytic import CacheContext
from .envconfig import resolve_segment_rows
from .stream import Access, BatchTrace, StreamDecl, iter_row_slices


class KernelModel(abc.ABC):
    """One kernel instance (fixed problem size) on one core."""

    #: Human-readable kernel name (e.g. ``"gemm"``, ``"s1cf-ln2"``).
    name: str = "kernel"

    # ---------------------------------------------------------- numerics
    def compute(self):  # pragma: no cover - optional per kernel
        """Run the actual numerical kernel (NumPy); returns its result."""
        raise NotImplementedError(f"{self.name} has no numeric implementation")

    # ------------------------------------------------------------ streams
    @abc.abstractmethod
    def streams(self) -> List[StreamDecl]:
        """Access-site declarations of the kernel's loop nest(s)."""

    # ------------------------------------------------------------ traffic
    @abc.abstractmethod
    def traffic(self, ctx: CacheContext,
                prefetch: SoftwarePrefetch = SoftwarePrefetch()
                ) -> TrafficCounters:
        """Analytic memory traffic of one execution on one core."""

    def exact_accesses(self) -> Iterator[Access]:
        """Program-ordered accesses (exact engine); small sizes only."""
        raise NotImplementedError(
            f"{self.name} does not provide an exact trace"
        )

    def exact_trace(self) -> BatchTrace:
        """Columnar program-ordered trace (batch and pipelined engines).

        Kernels override this with a vectorized emitter; the default
        materializes :meth:`exact_accesses`, so any kernel with a
        scalar trace works with the batch engine out of the box.
        """
        return BatchTrace.from_accesses(
            self.exact_accesses(),
            streams=[s.name for s in self.streams()],
        )

    def segments(self, target_rows: Optional[int] = None
                 ) -> Iterator[BatchTrace]:
        """Program-ordered trace as bounded-memory column segments.

        The streaming contract every kernel family implements:
        concatenating the segments row-wise must equal
        :meth:`exact_trace` exactly (same rows, same bytes), every
        segment carries the same ``streams`` tuple, and each segment
        is at most ~``target_rows`` rows (kernels may round to a
        natural emission unit, e.g. whole GEMM outer iterations).
        The pipelined engine and the disk store consume traces through
        this method so billion-access traces never materialize in RAM
        at once.

        ``target_rows`` defaults to ``REPRO_SEGMENT_ROWS`` (or the
        built-in 1 Mi rows). The default implementation slices the
        materialized :meth:`exact_trace`; kernel families with huge
        traces override it with a true bounded-memory emitter.
        """
        target_rows = resolve_segment_rows(target_rows)
        yield from iter_row_slices(self.exact_trace(), target_rows)

    def trace_key(self):
        """Content identity of this kernel's exact trace.

        Used (hashed) to key trace caches and the on-disk store: two
        kernels with equal ``(type, trace_key())`` must emit identical
        traces. The default captures every public instance attribute —
        shape parameters, seeds, nested dataclasses, arrays — which is
        correct for all the dataclass-style kernels in this repo;
        kernels whose trace depends on less than their full state may
        override it to share entries.
        """
        state = getattr(self, "__dict__", None)
        if state:
            return {k: v for k, v in state.items()
                    if not k.startswith("_")}
        return self.name

    # -------------------------------------------------------------- work
    @abc.abstractmethod
    def flops(self) -> float:
        """Floating-point operations of one execution."""

    def bandwidth_efficiency(self, prefetch: SoftwarePrefetch = SoftwarePrefetch()
                             ) -> float:
        """Fraction of the memory-bandwidth share this kernel sustains.

        Latency-bound access patterns (large strides) run well below
        peak; software prefetch (``-fprefetch-loop-arrays``) recovers
        much of it — the "significant improvement in performance due to
        more effective prefetching" of Fig 7b. Default: fully streaming.
        """
        return 1.0

    def footprint_bytes(self) -> int:
        """Distinct bytes touched (defaults to the union of streams)."""
        seen = {}
        for s in self.streams():
            prev = seen.get(s.name, 0)
            seen[s.name] = max(prev, s.footprint_bytes)
        return sum(seen.values())

    # ---------------------------------------------------------- metadata
    def describe(self) -> str:
        return f"{self.name} (footprint {self.footprint_bytes()} B)"

    def expected_traffic(self, granule: int = 64) -> Optional[TrafficCounters]:
        """The *paper's* expected traffic (dashed lines in the figures):
        element counts × element size, independent of caching nuance.
        Kernels override this; None when the paper gives no expectation.
        """
        return None
