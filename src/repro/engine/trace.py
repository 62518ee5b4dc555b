"""Kernel model interface consumed by both engines and the executor.

A :class:`KernelModel` bundles the three descriptions of one
computational kernel that the reproduction needs:

1. *numerics* — the actual result, computed with NumPy (``compute``),
   used by correctness tests;
2. *stream declarations* — what the prefetcher/store policy sees;
3. *traffic law* — analytic memory traffic per execution on one core,
   plus (for small sizes) an exact program-ordered access trace.

:func:`kernel_fingerprint` hashes a kernel's ``trace_key()`` into the
content identity that keys the RAM trace cache and the pipelined
engine's ``run_many`` checkpoints.
"""

from __future__ import annotations

import abc
import dataclasses
import hashlib
import json
from typing import Iterator, List, Optional

import numpy as np

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
        The pipelined engine consumes a kernel through this method, so
        a billion-access trace streams from its emitter and never
        materializes in RAM at once.

        ``target_rows`` defaults to ``REPRO_SEGMENT_ROWS`` (or the
        built-in 1 Mi rows). The default implementation slices the
        materialized :meth:`exact_trace`; kernel families with huge
        traces override it with a true bounded-memory emitter.
        """
        target_rows = resolve_segment_rows(target_rows)
        yield from iter_row_slices(self.exact_trace(), target_rows)

    def trace_key(self):
        """Content identity of this kernel's exact trace.

        Hashed by :func:`kernel_fingerprint` to key the trace cache and
        the pipeline's checkpoints: two kernels with equal
        ``(type, trace_key())`` must emit identical traces. The default
        captures every public instance attribute — shape parameters,
        seeds, nested dataclasses, arrays — which is correct for all
        the dataclass-style kernels in this repo; kernels whose trace
        depends on less than their full state may override it to share
        entries.
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


#: Version of the kernel trace emitters. Bump on any change to the
#: *bytes* an ``exact_trace``/``segments`` implementation produces:
#: the fingerprint includes it, so cached traces and ``run_many``
#: checkpoints of the old emitter stop matching instead of being
#: silently reused. Segment boundary changes alone do not require a
#: bump.
EMITTER_VERSION = 1


def _canonical(value):
    """JSON-able canonical form of a trace-key value (stable across
    processes; arrays are content-hashed, not repr-ed)."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        digest = hashlib.sha256(np.ascontiguousarray(value).tobytes())
        return ["ndarray", str(value.dtype), list(value.shape),
                digest.hexdigest()]
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if hasattr(value, "trace_key"):
        return _canonical(value.trace_key())
    if hasattr(value, "__dict__"):
        return {k: _canonical(v) for k, v in sorted(value.__dict__.items())
                if not k.startswith("_")}
    return [type(value).__name__, repr(value)]


def kernel_fingerprint(kernel: KernelModel) -> str:
    """Hex digest identifying the *content* of a kernel's exact trace:
    class identity + name + shape/seed parameters + emitter version."""
    cls = type(kernel)
    payload = json.dumps(
        [cls.__module__, cls.__qualname__, kernel.name,
         _canonical(kernel.trace_key()), EMITTER_VERSION],
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()
