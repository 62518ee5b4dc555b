"""Declarative access-stream descriptions shared by both engines.

A kernel is described as a set of :class:`StreamDecl` objects — one per
array access site in the loop nest — plus (for the exact engine) a
program-ordered generator of individual accesses. The declarations
carry exactly the information the store-bypass policy and the stream
prefetcher act on: direction, stride, and volume.
"""

from __future__ import annotations

import dataclasses
from typing import (
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..errors import ConfigurationError
from ..machine.prefetch import SoftwarePrefetch, StreamDetector
from ..machine.store import StoreContext, resolve_store_policy


class Access(NamedTuple):
    """One memory access in program order (exact engine input)."""

    stream: str
    addr: int
    size: int
    is_write: bool


#: One access site for :meth:`BatchTrace.interleaved`:
#: ``(stream name, start addresses, access size, is_write)``.
Site = Tuple[str, np.ndarray, int, bool]


@dataclasses.dataclass
class BatchTrace:
    """Columnar program-ordered access trace (batch engine input).

    Semantically equivalent to a sequence of :class:`Access` objects —
    row ``i`` is the ``i``-th access — but stored as NumPy columns so
    the exact engine can sector-expand and simulate it vectorized.
    ``stream_id`` indexes into ``streams``; duplicate names in
    ``streams`` are allowed (several access sites of the same array)
    and resolve to the same store policy.
    """

    streams: Tuple[str, ...]
    stream_id: np.ndarray
    addr: np.ndarray
    size: np.ndarray
    is_write: np.ndarray

    def __post_init__(self) -> None:
        self.stream_id = np.ascontiguousarray(self.stream_id, np.int16)
        self.addr = np.ascontiguousarray(self.addr, np.int64)
        self.size = np.ascontiguousarray(self.size, np.int32)
        self.is_write = np.ascontiguousarray(self.is_write, bool)
        n = self.addr.size
        if (self.stream_id.size != n or self.size.size != n
                or self.is_write.size != n):
            raise ConfigurationError("BatchTrace columns differ in length")
        if n and int(self.size.min()) <= 0:
            raise ConfigurationError("BatchTrace sizes must be positive")
        if self.stream_id.size and (
                int(self.stream_id.max()) >= len(self.streams)
                or int(self.stream_id.min()) < 0):
            raise ConfigurationError("BatchTrace stream_id out of range")

    def __len__(self) -> int:
        return int(self.addr.size)

    @classmethod
    def trusted(cls, streams: Tuple[str, ...], stream_id: np.ndarray,
                addr: np.ndarray, size: np.ndarray,
                is_write: np.ndarray) -> "BatchTrace":
        """Wrap pre-validated columns without the ``__post_init__``
        scans (which read every element — wasted work for row slices
        of a trace whose columns already passed them)."""
        trace = cls.__new__(cls)
        trace.streams = streams
        trace.stream_id = stream_id
        trace.addr = addr
        trace.size = size
        trace.is_write = is_write
        return trace

    @property
    def nbytes(self) -> int:
        return (self.stream_id.nbytes + self.addr.nbytes
                + self.size.nbytes + self.is_write.nbytes)

    @classmethod
    def from_accesses(cls, accesses: Iterable[Access],
                      streams: Sequence[str] = ()) -> "BatchTrace":
        """Materialize a scalar access generator into columns.

        ``streams`` pre-declares stream names (and their id order);
        names encountered beyond it are appended.
        """
        names: List[str] = list(streams)
        ids = {name: i for i, name in enumerate(names)}
        sid, addr, size, w = [], [], [], []
        for acc in accesses:
            i = ids.get(acc.stream)
            if i is None:
                i = ids[acc.stream] = len(names)
                names.append(acc.stream)
            sid.append(i)
            addr.append(acc.addr)
            size.append(acc.size)
            w.append(acc.is_write)
        return cls(
            streams=tuple(names),
            stream_id=np.array(sid, np.int16),
            addr=np.array(addr, np.int64),
            size=np.array(size, np.int32),
            is_write=np.array(w, bool),
        )

    @classmethod
    def interleaved(cls, sites: Sequence[Site]) -> "BatchTrace":
        """Round-robin interleave of equal-length access sites — the
        columnar counterpart of :func:`interleave` for the common case
        of one access per site per loop iteration."""
        k = len(sites)
        length = int(np.asarray(sites[0][1]).size)
        for _, addrs, _, _ in sites:
            if np.asarray(addrs).size != length:
                raise ConfigurationError(
                    "interleaved sites must have equal lengths")
        total = length * k
        addr = np.empty(total, np.int64)
        sid = np.empty(total, np.int16)
        size = np.empty(total, np.int32)
        w = np.empty(total, bool)
        for i, (_, addrs, elem, is_write) in enumerate(sites):
            addr[i::k] = addrs
            sid[i::k] = i
            size[i::k] = elem
            w[i::k] = is_write
        return cls(tuple(s[0] for s in sites), sid, addr, size, w)

    def to_accesses(self) -> Iterator[Access]:
        """Row-wise view as scalar :class:`Access` objects (oracle side
        of the differential tests)."""
        names = self.streams
        for i in range(self.addr.size):
            yield Access(names[self.stream_id[i]], int(self.addr[i]),
                         int(self.size[i]), bool(self.is_write[i]))

    def rows(self, start: int, stop: int) -> "BatchTrace":
        """Row-slice ``[start, stop)`` sharing the column memory.

        The slice keeps the full ``streams`` tuple so segment
        boundaries never change stream-id meaning; validation is
        skipped because the parent's columns already passed it.
        """
        return BatchTrace.trusted(
            self.streams,
            self.stream_id[start:stop],
            self.addr[start:stop],
            self.size[start:stop],
            self.is_write[start:stop],
        )


def iter_row_slices(trace: "BatchTrace",
                    target_rows: int) -> Iterator["BatchTrace"]:
    """Split a materialized trace into row-slices of ``target_rows``.

    Concatenating the slices equals ``trace`` exactly; the slices are
    views, not copies. Used by the default ``KernelModel.segments()``.
    """
    if target_rows <= 0:
        raise ConfigurationError("target_rows must be positive")
    n = len(trace)
    for start in range(0, n, target_rows):
        yield trace.rows(start, min(start + target_rows, n))


#: What the exact engine accepts as a trace.
TraceLike = Union[BatchTrace, Iterable[Access]]


@dataclasses.dataclass(frozen=True)
class StreamDecl:
    """One access site of a loop nest.

    ``stride_bytes`` is the distance between the start addresses of
    consecutive accesses of this site (0 means repeated access to the
    same location, ``elem_bytes`` means perfectly sequential).
    ``footprint_bytes`` is the number of *distinct* bytes the site
    touches over the whole nest.
    """

    name: str
    is_write: bool
    n_accesses: int
    elem_bytes: int
    stride_bytes: int
    footprint_bytes: int
    base: int = 0
    #: Other memory accesses between consecutive accesses of this site
    #: (1 = every loop iteration touches it back-to-back). Store
    #: density gates the streaming-store bypass.
    interarrival: int = 1

    def __post_init__(self) -> None:
        if self.n_accesses < 0 or self.elem_bytes <= 0:
            raise ConfigurationError(f"bad stream declaration: {self}")
        if self.footprint_bytes < 0:
            raise ConfigurationError("footprint cannot be negative")

    @property
    def sequential(self) -> bool:
        """Unit-stride (element-contiguous) access?"""
        return abs(self.stride_bytes) == self.elem_bytes

    @property
    def strided(self) -> bool:
        """Non-unit, non-repeated stride?"""
        return abs(self.stride_bytes) > self.elem_bytes

    @property
    def volume_bytes(self) -> int:
        return self.n_accesses * self.elem_bytes


def resolve_policies(streams: Iterable[StreamDecl],
                     prefetch: SoftwarePrefetch = SoftwarePrefetch(),
                     detector: StreamDetector = None) -> dict:
    """Resolve the store policy for every write stream in a loop nest.

    The stream detector is primed with every declared stream (hardware
    detects both load and store streams); then each write stream's
    policy is resolved against the global "any strided stream active"
    state, per :mod:`repro.machine.store`.
    """
    streams = list(streams)
    detector = detector or StreamDetector()
    for s in streams:
        detector.observe_regular(s.name, s.stride_bytes, s.n_accesses, s.base)
    policies = {}
    for s in streams:
        if not s.is_write:
            continue
        ctx = StoreContext(
            sequential=s.sequential,
            strided_stream_active=detector.any_strided_detected(s.elem_bytes),
            interarrival=s.interarrival,
            prefetch=prefetch,
        )
        policies[s.name] = resolve_store_policy(ctx)
    return policies


def interleave(*iterators: Iterator[Access]) -> Iterator[Access]:
    """Round-robin interleave of several access iterators (models the
    in-order issue of a loop body touching several arrays)."""
    active: List[Iterator[Access]] = list(iterators)
    while active:
        still = []
        for it in active:
            try:
                yield next(it)
            except StopIteration:
                continue
            still.append(it)
        active = still
