"""Exact engine: drive the sectored cache simulator with a full trace.

Used to *validate* the analytic traffic laws (cross-validation tests),
and available to users who want ground-truth traffic for custom access
patterns. Policies (store bypass vs write-allocate) are resolved once
per loop nest from the declared streams — reference kernels are
steady-state loops, so the policy the hardware converges to is constant
over the nest.

Two tiers of :class:`ExactEngine`, bit-identical in traffic (see
DESIGN.md §6.1):

* scalar — fed an ``Access`` iterable; one Python call per access
  (the oracle);
* batch — fed a :class:`BatchTrace`; :func:`iter_segments` streams
  it in bounded row slices, one columnar
  :meth:`CacheSim.access_batch` call each. Simulator state carries
  across calls, so segment boundaries are invisible.

:func:`iter_segments` also feeds the pipelined engine,
:class:`~repro.engine.pipeline.PipelinedExactEngine` (DESIGN.md §6.3),
which additionally takes a kernel itself: a trace too large for RAM
streams from the kernel's bounded emitter and is never materialized.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Union

import numpy as np

from ..errors import SimulationError
from ..machine.cache import CacheSim, TrafficCounters
from ..machine.config import CacheConfig
from ..machine.prefetch import SoftwarePrefetch
from ..machine.store import StorePolicy
from .envconfig import resolve_segment_rows
from .stream import (
    BatchTrace,
    StreamDecl,
    TraceLike,
    iter_row_slices,
    resolve_policies,
)
from .trace import KernelModel

#: What :func:`iter_segments` streams: a kernel (its bounded emitter),
#: a materialized trace, or any iterable of segments.
SegmentSource = Union[KernelModel, BatchTrace, Iterable[BatchTrace]]


def iter_segments(source: SegmentSource,
                  target_rows: Optional[int] = None
                  ) -> Iterator[BatchTrace]:
    """Program-ordered :class:`BatchTrace` segments of ``source``, each
    at most ~``target_rows`` rows (default ``REPRO_SEGMENT_ROWS``).

    A kernel emits through its own ``segments()``; a materialized
    trace is row-sliced (views, not copies); any other iterable passes
    through. A segment that is not a ``BatchTrace`` (say, a scalar
    ``Access``) raises :class:`SimulationError`.
    """
    if isinstance(source, KernelModel):
        segments = source.segments(target_rows)
    elif isinstance(source, BatchTrace):
        segments = iter_row_slices(source, resolve_segment_rows(target_rows))
    else:
        segments = source
    for segment in segments:
        if not isinstance(segment, BatchTrace):
            raise SimulationError(
                f"expected BatchTrace segments, got "
                f"{type(segment).__name__}: pass a KernelModel, a "
                f"BatchTrace (kernel.exact_trace(), "
                f"BatchTrace.from_accesses()) or an iterable of "
                f"BatchTrace segments")
        yield segment


def _resolve_bypass(streams, prefetch) -> Dict[str, bool]:
    policies = resolve_policies(list(streams), prefetch)
    return {name: policy is StorePolicy.BYPASS
            for name, policy in policies.items()}


def _bypass_column(trace: BatchTrace,
                   bypass: Dict[str, bool]) -> Optional[np.ndarray]:
    """Per-row bypass flags for a batch trace; ``None`` when no stream
    bypasses (lets the simulator skip the gather entirely)."""
    per_stream = np.array(
        [bypass.get(name, False) for name in trace.streams], dtype=bool)
    if not per_stream.any():
        return None
    return per_stream[trace.stream_id] & trace.is_write


class ExactEngine:
    """Run program-ordered access traces through :class:`CacheSim`.

    ``run_nest`` accepts an iterable of :class:`Access` objects
    (scalar oracle path) or a :class:`BatchTrace` (columnar path);
    both produce identical traffic.
    """

    def __init__(self, cache: CacheConfig,
                 capacity_override: Optional[int] = None):
        self.cache_config = _with_capacity(cache, capacity_override)
        self.sim = CacheSim(self.cache_config)

    # ------------------------------------------------------------------
    def run_nest(self, streams: Iterable[StreamDecl],
                 accesses: TraceLike,
                 prefetch: SoftwarePrefetch = SoftwarePrefetch(),
                 flush_at_end: bool = True) -> TrafficCounters:
        """Execute one loop nest and return its memory traffic.

        ``flush_at_end`` drains dirty data so that deferred write-backs
        are charged to the nest that produced them (the nest counters on
        real hardware eventually see those bytes; the analytic laws
        charge them immediately). A :class:`BatchTrace` streams through
        :func:`iter_segments` — simulator state carries across
        ``access_batch`` calls, so the traffic is bit-identical to one
        call over the whole trace.
        """
        bypass = _resolve_bypass(streams, prefetch)
        before = (self.sim.traffic.read_bytes, self.sim.traffic.write_bytes)
        if isinstance(accesses, BatchTrace):
            for segment in iter_segments(accesses):
                self.sim.access_batch(
                    segment.addr, segment.size, segment.is_write,
                    _bypass_column(segment, bypass))
        else:
            for acc in accesses:
                self.sim.access(acc.addr, acc.size, acc.is_write,
                                bypass=bypass.get(acc.stream, False)
                                if acc.is_write else False)
                # Software dcbtst prefetch additionally pulls the store
                # target into cache; the WRITE_ALLOCATE path already
                # models the resulting read, so nothing extra is needed.
        if flush_at_end:
            self.sim.flush()
        after = self.sim.traffic
        return TrafficCounters(
            read_bytes=after.read_bytes - before[0],
            write_bytes=after.write_bytes - before[1],
        )

    def reset(self) -> None:
        """Drop all cache state and traffic counters."""
        self.sim = CacheSim(self.cache_config)


def _with_capacity(cache: CacheConfig,
                   capacity: Optional[int]) -> CacheConfig:
    """``cache`` resized to ``capacity`` rounded down to a valid
    set-associative geometry (``cache`` itself when ``None``)."""
    if capacity is None:
        return cache
    unit = cache.line_bytes * cache.associativity
    return CacheConfig(
        capacity_bytes=max(unit, (capacity // unit) * unit),
        line_bytes=cache.line_bytes,
        granule_bytes=cache.granule_bytes,
        associativity=cache.associativity,
    )
