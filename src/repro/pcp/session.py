"""One session surface for the whole PCP stack: ``pcp.connect()``.

:func:`connect` is the one client entry point, whatever the daemon's
deployment shape::

    session = pcp.connect(pmcd)                      # in-process
    session = pcp.connect(("127.0.0.1", 44321))      # over TCP
    session = pcp.connect(server)                    # dial a server
    asession = pcp.connect(addr, mode="async")       # asyncio client

Sync mode returns a :class:`PcpSession` carrying the full pmapi
surface — ``lookup_names``/``fetch``/``fetch_one``/``children``/
``traverse`` — plus periodic logging (:meth:`PcpSession.log` returns a
:class:`SessionLogger`) and archive replay
(:meth:`PcpSession.fetch_archive` queries a historical window instead
of live-fetching). Over TCP a sync session talks through a
:class:`RemoteTransport`, which adds per-request deadlines, retry
with backoff and optional auto-reconnect. Async mode returns an
:class:`AsyncPcpSession` whose methods are coroutines (``await
session.fetch(...)``), designed for thousands of concurrent contexts
against the asyncio fabric (:mod:`repro.pcp.aserver`).

Accounting is unchanged from the seed: each sync call is one daemon
round trip charged to the client node's clock, lookup caching is
opt-in and generation-invalidated, and a daemon ``boot_id`` change is
surfaced as a measurement gap — the golden-figure fixtures hold
bit-exactly through the redesign.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ArchiveError, PCPError, PCPTimeout
from ..machine.node import Node
from .archive import ArchiveRecord, rates_from_records
from .pmcd import PMCD
from .protocol import (
    ArchiveFetchRequest,
    ArchiveFetchResponse,
    ChildrenRequest,
    ChildrenResponse,
    ErrorResponse,
    FetchRequest,
    FetchResponse,
    LookupRequest,
    LookupResponse,
    OpenRequest,
    OpenResponse,
    PCPStatus,
    decode_response,
    encode_request,
)


def _records_from_samples(samples) -> List[ArchiveRecord]:
    """ArchiveFetchResponse payload -> the SessionLogger record shape."""
    records = []
    for sample in samples:
        values: Dict[Tuple[str, str], int] = {}
        for key, value in sample.values.items():
            metric, _, instance = key.rpartition("|")
            values[(metric, instance)] = int(value)
        records.append(ArchiveRecord(timestamp=sample.timestamp,
                                     values=values, gap=sample.gap))
    return records


class _SessionState:
    """Client-side accounting shared by the sync and async sessions."""

    def __init__(self, node: Optional[Node], cache_lookups: bool):
        self.node = node
        self.cache_lookups = cache_lookups
        self.round_trips = 0
        #: Lookups answered from the local cache (no round trip).
        self.cached_lookups = 0
        #: Daemon restarts observed mid-session (measurement gaps).
        self.gaps = 0
        self.last_fetch_timestamp: Optional[float] = None
        #: Negotiated protocol version (None until :meth:`handshake`).
        self.protocol_version: Optional[int] = None
        self._lookup_cache: Dict[str, int] = {}
        self._generation: Optional[int] = None
        self._boot_id: Optional[int] = None

    @property
    def gap_detected(self) -> bool:
        """True once a daemon restart has been observed."""
        return self.gaps > 0

    def _observe(self, response) -> None:
        """Track the daemon's generation/boot id from any response."""
        generation = getattr(response, "generation", None)
        if generation is not None:
            if self._generation is not None and generation != self._generation:
                self._lookup_cache.clear()
            self._generation = generation
        boot_id = getattr(response, "boot_id", None)
        if boot_id is not None:
            if self._boot_id is not None and boot_id != self._boot_id:
                self.gaps += 1
            self._boot_id = boot_id

    def _observe_open(self, response) -> int:
        """Digest the daemon's answer to an OpenRequest."""
        if isinstance(response, OpenResponse) \
                and response.status == PCPStatus.OK:
            self._observe(response)
            self.protocol_version = response.version
        else:
            # A v1 daemon rejects the unknown PDU type — that *is* the
            # negotiation result.
            self.protocol_version = 1
        return self.protocol_version

    def _check_archive_response(self, response) -> List[ArchiveRecord]:
        if isinstance(response, ErrorResponse):
            if response.status == PCPStatus.PM_ERR_NODATA:
                raise ArchiveError("daemon has no archive attached")
            raise PCPError(
                f"archive fetch failed: {response.status.name} "
                f"({response.detail})")
        if not isinstance(response, ArchiveFetchResponse):
            raise PCPError(f"unexpected response: {response}")
        self._observe(response)
        if response.status == PCPStatus.PM_ERR_NODATA:
            raise ArchiveError("daemon has no archive attached")
        if response.status != PCPStatus.OK:
            raise PCPError(f"archive fetch failed: {response.status.name}")
        return _records_from_samples(response.samples)


class PcpSession(_SessionState):
    """A synchronous session from user space to a PMCD.

    ``pmcd`` is anything with the daemon surface (``handle``, ``pmns``,
    ``round_trip_seconds``): an in-process :class:`~repro.pcp.pmcd.
    PMCD` or a TCP :class:`RemoteTransport`. ``node`` is the machine
    whose clock pays the round trips; pass None for a free-running
    client (no latency accounting). ``cache_lookups`` serves repeated
    name resolution locally (invalidated when the daemon's generation
    changes).
    """

    def __init__(self, pmcd, node: Optional[Node] = None,
                 cache_lookups: bool = False):
        super().__init__(node, cache_lookups)
        self.pmcd = pmcd

    # ------------------------------------------------------------------
    def _round_trip(self) -> None:
        self.round_trips += 1
        if self.node is not None and self.pmcd.round_trip_seconds > 0:
            self.node.advance(self.pmcd.round_trip_seconds)

    def charge(self, lookups: Sequence[Tuple[str, int]] = (),
               fetches: int = 0) -> None:
        """Account for requests without sending them.

        Charges ``lookup_names([name])`` for each ``(name, pmid)`` of
        ``lookups``, plus ``fetches`` fetches. A lookup that
        ``cache_lookups`` would serve counts in ``cached_lookups``; any
        other lookup fills the cache, as a sent one does. The rest are
        round trips: they count in ``round_trips`` and advance the
        clock in one :meth:`Node.advance_steps`, which ends as that
        many single round trips would. The daemon serves nothing, so
        its own counters (``pmcd.*``) do not move.
        """
        trips = fetches
        for name, pmid in lookups:
            if self.cache_lookups and name in self._lookup_cache:
                self.cached_lookups += 1
            else:
                trips += 1
                self._lookup_cache[name] = pmid
        if trips < 1:
            return
        self.round_trips += trips
        if self.node is not None and self.pmcd.round_trip_seconds > 0:
            self.node.advance_steps(self.pmcd.round_trip_seconds, trips)

    # ------------------------------------------------------------------
    def handshake(self) -> int:
        """Negotiate the protocol version (one round trip).

        Optional: sessions default to the v1 surface, which every
        daemon speaks. Returns the negotiated version.
        """
        self._round_trip()
        return self._observe_open(self.pmcd.handle(OpenRequest()))

    def lookup_names(self, names: Sequence[str]) -> List[int]:
        """pmLookupName: resolve metric names to PMIDs."""
        names = list(names)
        if self.cache_lookups and names:
            cached = [self._lookup_cache.get(name) for name in names]
            if all(pmid is not None for pmid in cached):
                self.cached_lookups += 1
                return cached
        self._round_trip()
        response = self.pmcd.handle(LookupRequest(names=tuple(names)))
        if not isinstance(response, LookupResponse):
            raise PCPError(f"unexpected response: {response}")
        self._observe(response)
        if response.status != PCPStatus.OK:
            bad = [n for n, s in zip(names, response.name_status)
                   if s != PCPStatus.OK]
            raise PCPError(f"unknown metric name(s): {bad}")
        for name, pmid in zip(names, response.pmids):
            self._lookup_cache[name] = pmid
        return list(response.pmids)

    def fetch(self, pmids: Sequence[int]) -> Dict[int, Dict[str, int]]:
        """pmFetch: current values for each PMID, keyed by instance."""
        self._round_trip()
        response = self.pmcd.handle(FetchRequest(pmids=tuple(pmids)))
        if not isinstance(response, FetchResponse):
            raise PCPError(f"unexpected response: {response}")
        self._observe(response)
        if response.status != PCPStatus.OK:
            raise PCPError(f"fetch failed: {response.status.name}")
        self.last_fetch_timestamp = response.timestamp
        return {m.pmid: dict(m.values) for m in response.metrics}

    def fetch_one(self, name: str, instance: str) -> int:
        """Convenience: one metric, one instance."""
        pmid = self.lookup_names([name])[0]
        values = self.fetch([pmid])[pmid]
        try:
            return values[instance]
        except KeyError:
            raise PCPError(
                f"metric {name!r} has no instance {instance!r}; "
                f"available: {sorted(values)}"
            ) from None

    def children(self, prefix: str = "") -> List[str]:
        """pmGetChildren: names one level below ``prefix``."""
        self._round_trip()
        response = self.pmcd.handle(ChildrenRequest(prefix=prefix))
        if not isinstance(response, ChildrenResponse):
            raise PCPError(f"unexpected response: {response}")
        self._observe(response)
        if response.status != PCPStatus.OK:
            raise PCPError(f"unknown PMNS prefix: {prefix!r}")
        return list(response.children)

    def traverse(self, prefix: str = "") -> List[str]:
        """pmTraversePMNS: all metric names under ``prefix``.

        Served from the daemon's PMNS in one round trip (the real
        protocol batches the traversal similarly).
        """
        self._round_trip()
        return list(self.pmcd.pmns.traverse(prefix))

    # ------------------------------------------------------------------
    def log(self, metrics: Sequence[str], interval_seconds: float = 1.0,
            store=None) -> "SessionLogger":
        """Start a pmlogger-style periodic logger on this session.

        ``store`` optionally mirrors every sample into an on-disk
        :class:`~repro.pcp.archive.MetricArchive`.
        """
        return SessionLogger(self, metrics, interval_seconds, store=store)

    def fetch_archive(self, metrics: Sequence[str] = (),
                      t0: float = 0.0, t1: Optional[float] = None
                      ) -> List[ArchiveRecord]:
        """Replay archived samples for ``metrics`` in ``[t0, t1]``.

        Empty ``metrics`` means all; ``t1=None`` means no upper bound.
        Requires a daemon with an archive attached (v2 protocol);
        raises :class:`~repro.errors.ArchiveError` otherwise. The
        records returned are identical to what a live ``SessionLogger``
        recorded.
        """
        self._round_trip()
        response = self.pmcd.handle(ArchiveFetchRequest(
            metrics=tuple(metrics), t0=t0,
            t1=-1.0 if t1 is None else t1))
        return self._check_archive_response(response)

    # ------------------------------------------------------------------
    def daemon_overhead(self) -> Dict[str, float]:
        """Service-layer overhead counters for this client's path.

        Merges client-side accounting (round trips, cache hits, gaps),
        the daemon's own :class:`~repro.pcp.pmcd.PMCDStats`, and — for
        TCP transports — the remote transport's latency/retry stats.
        """
        info: Dict[str, float] = {
            "round_trips": self.round_trips,
            "cached_lookups": self.cached_lookups,
            "gaps": self.gaps,
            "round_trip_seconds": self.pmcd.round_trip_seconds,
            "latency_seconds": (self.round_trips
                                * self.pmcd.round_trip_seconds),
        }
        stats = getattr(self.pmcd, "stats", None)
        if stats is not None and hasattr(stats, "snapshot"):
            info.update({f"pmcd.{k}": v for k, v in stats.snapshot().items()})
        service = getattr(self.pmcd, "service_stats", None)
        if service is not None:
            info.update(
                {f"service.{k}": v for k, v in service.snapshot().items()})
        transport = getattr(self.pmcd, "transport_stats", None)
        if callable(transport):
            info.update(
                {f"transport.{k}": v for k, v in transport().items()})
        return info

    def close(self) -> None:
        """Close the underlying transport, if it has a close()."""
        closer = getattr(self.pmcd, "close", None)
        if callable(closer):
            closer()

    def __enter__(self) -> "PcpSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SessionLogger:
    """Samples a fixed metric set into an archive (pmlogger).

    Each ``sample()`` costs one daemon round trip (charged to the
    client node's clock) and records a timestamped snapshot; the
    in-memory archive answers replay queries including rate conversion.
    If the daemon restarts between samples (the session observes a
    ``boot_id`` change) the next record is flagged ``gap=True`` and
    rate conversion never differentiates across it.

    With ``store`` set, every record is also appended to an on-disk
    :class:`~repro.pcp.archive.MetricArchive`, making the samples
    replayable by other sessions via ``fetch_archive``.
    """

    def __init__(self, context, metrics: Sequence[str],
                 interval_seconds: float = 1.0, store=None):
        if not metrics:
            raise PCPError("pmlogger needs at least one metric")
        if interval_seconds <= 0:
            raise PCPError("sampling interval must be positive")
        self.context = context
        self.metrics = list(metrics)
        self.interval_seconds = interval_seconds
        self.store = store
        self._pmids = context.lookup_names(self.metrics)
        self._gaps_seen = context.gaps
        self.archive: List[ArchiveRecord] = []

    @property
    def session(self):
        return self.context

    # ------------------------------------------------------------------
    def sample(self) -> ArchiveRecord:
        """Take one sample now (one pmFetch round trip)."""
        fetched = self.context.fetch(self._pmids)
        gap = self.context.gaps > self._gaps_seen
        if gap:
            # Daemon restarted under us: re-resolve the metric names
            # (the namespace generation changed) and mark the record.
            self._gaps_seen = self.context.gaps
            self._pmids = self.context.lookup_names(self.metrics)
        values: Dict[Tuple[str, str], int] = {}
        for metric, pmid in zip(self.metrics, self._pmids):
            for instance, value in fetched[pmid].items():
                values[(metric, instance)] = value
        timestamp = (self.context.node.clock
                     if self.context.node is not None
                     else float(len(self.archive)))
        record = ArchiveRecord(timestamp=timestamp, values=values, gap=gap)
        self.archive.append(record)
        if self.store is not None:
            self.store.append(record)
        return record

    def run(self, n_samples: int) -> None:
        """Sample ``n_samples`` times, idling ``interval_seconds``
        between fetches (advancing the client node's clock)."""
        for i in range(n_samples):
            if i and self.context.node is not None:
                self.context.node.advance(self.interval_seconds)
            self.sample()

    # ------------------------------------------------------------------
    def series(self, metric: str, instance: str) -> List[Tuple[float, int]]:
        """Replay one metric instance as (timestamp, value) pairs."""
        key = (metric, instance)
        out = [(rec.timestamp, rec.values[key])
               for rec in self.archive if key in rec.values]
        if not out:
            raise PCPError(f"no archived data for {metric}[{instance}]")
        return out

    def rates(self, metric: str, instance: str) -> List[Tuple[float, float]]:
        """Counter metric -> rate curve (PCP's rate conversion).

        Intervals that end at a gap record (daemon restart) are
        skipped: the record restarts the curve instead of producing a
        bogus rate from mixed counter epochs.
        """
        return rates_from_records(self.archive, metric, instance)

    def instances_of(self, metric: str) -> List[str]:
        for rec in self.archive:
            found = sorted(inst for (m, inst) in rec.values if m == metric)
            if found:
                return found
        return []

    def __len__(self) -> int:
        return len(self.archive)


class AsyncPcpSession(_SessionState):
    """An asyncio session against the PMCD fabric.

    Same surface as :class:`PcpSession` but every call is a coroutine,
    so thousands of sessions multiplex on one event loop — the client
    side of the :mod:`repro.pcp.aserver` fabric. ``target`` is either
    a ``(host, port)`` address (dialed by :meth:`open`) or an
    in-process daemon object, which is served without a socket (useful
    for tests and single-process deployments).

    Usage::

        session = pcp.connect(addr, mode="async")
        async with session:
            pmids = await session.lookup_names(names)
            values = await session.fetch(pmids)
    """

    def __init__(self, target, node: Optional[Node] = None,
                 cache_lookups: bool = False,
                 round_trip_seconds: Optional[float] = None,
                 connect_timeout: float = 10.0,
                 request_timeout: float = 30.0):
        super().__init__(node, cache_lookups)
        self._address: Optional[Tuple[str, int]] = None
        self._pmcd = None
        if isinstance(target, tuple):
            self._address = (str(target[0]), int(target[1]))
        elif hasattr(target, "handle"):
            self._pmcd = target
        else:
            raise PCPError(f"cannot connect to {target!r}")
        if round_trip_seconds is None:
            round_trip_seconds = getattr(
                self._pmcd, "round_trip_seconds", 0.0)
        self.round_trip_seconds = float(round_trip_seconds)
        self.connect_timeout = connect_timeout
        self.request_timeout = request_timeout
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        # Created lazily inside the running loop: on py3.9 a Lock built
        # outside the loop binds the wrong one.
        self._lock: Optional[asyncio.Lock] = None
        self.requests = 0

    # ------------------------------------------------------------------
    async def open(self) -> "AsyncPcpSession":
        """Dial the daemon (no-op for in-process targets)."""
        if self._lock is None:
            self._lock = asyncio.Lock()
        if self._address is not None and self._writer is None:
            self._reader, self._writer = await asyncio.wait_for(
                asyncio.open_connection(*self._address),
                timeout=self.connect_timeout)
        return self

    async def close(self) -> None:
        writer, self._reader, self._writer = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass

    async def __aenter__(self) -> "AsyncPcpSession":
        return await self.open()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # ------------------------------------------------------------------
    def _round_trip(self) -> None:
        self.round_trips += 1
        if self.node is not None and self.round_trip_seconds > 0:
            self.node.advance(self.round_trip_seconds)

    async def _request(self, request):
        self._round_trip()
        self.requests += 1
        if self._pmcd is not None:
            return self._pmcd.handle(request)
        if self._writer is None or self._lock is None:
            await self.open()
        async with self._lock:
            self._writer.write(encode_request(request))
            await self._writer.drain()
            try:
                line = await asyncio.wait_for(
                    self._reader.readline(), timeout=self.request_timeout)
            except asyncio.TimeoutError:
                raise PCPTimeout(
                    f"pmcd request timed out after "
                    f"{self.request_timeout}s") from None
        if not line:
            raise PCPError("connection to pmcd lost")
        return decode_response(line)

    async def _request_many(self, requests: Sequence) -> list:
        """Pipeline: write every request, then read the responses FIFO.

        One writer/reader pass for N requests — the client-side half of
        the fabric's coalescing story (many in-flight fetches share
        socket round trips and, server-side, PMDA reads).
        """
        if self._pmcd is not None:
            out = []
            for request in requests:
                self._round_trip()
                self.requests += 1
                out.append(self._pmcd.handle(request))
            return out
        if self._writer is None or self._lock is None:
            await self.open()
        async with self._lock:
            for request in requests:
                self._round_trip()
                self.requests += 1
                self._writer.write(encode_request(request))
            await self._writer.drain()

            async def read_all() -> list:
                lines = []
                for _ in requests:
                    line = await self._reader.readline()
                    if not line:
                        raise PCPError("connection to pmcd lost")
                    lines.append(line)
                return lines

            try:
                # One deadline for the whole pipelined batch: a
                # wait_for per response costs a timer handle + wrapper
                # task each, which dominates the fabric's hot path.
                lines = await asyncio.wait_for(
                    read_all(), timeout=self.request_timeout)
            except asyncio.TimeoutError:
                raise PCPTimeout(
                    f"pmcd request timed out after "
                    f"{self.request_timeout}s") from None
        return [decode_response(line) for line in lines]

    # ------------------------------------------------------------------
    async def handshake(self) -> int:
        """Negotiate the protocol version (one round trip)."""
        return self._observe_open(await self._request(OpenRequest()))

    async def lookup_names(self, names: Sequence[str]) -> List[int]:
        names = list(names)
        if self.cache_lookups and names:
            cached = [self._lookup_cache.get(name) for name in names]
            if all(pmid is not None for pmid in cached):
                self.cached_lookups += 1
                return cached
        response = await self._request(LookupRequest(names=tuple(names)))
        if not isinstance(response, LookupResponse):
            raise PCPError(f"unexpected response: {response}")
        self._observe(response)
        if response.status != PCPStatus.OK:
            bad = [n for n, s in zip(names, response.name_status)
                   if s != PCPStatus.OK]
            raise PCPError(f"unknown metric name(s): {bad}")
        for name, pmid in zip(names, response.pmids):
            self._lookup_cache[name] = pmid
        return list(response.pmids)

    async def fetch(self, pmids: Sequence[int]) -> Dict[int, Dict[str, int]]:
        response = await self._request(FetchRequest(pmids=tuple(pmids)))
        return self._digest_fetch(response)

    def _digest_fetch(self, response) -> Dict[int, Dict[str, int]]:
        if not isinstance(response, FetchResponse):
            raise PCPError(f"unexpected response: {response}")
        self._observe(response)
        if response.status != PCPStatus.OK:
            raise PCPError(f"fetch failed: {response.status.name}")
        self.last_fetch_timestamp = response.timestamp
        return {m.pmid: dict(m.values) for m in response.metrics}

    async def fetch_many(self, pmid_groups: Sequence[Sequence[int]]
                         ) -> List[Dict[int, Dict[str, int]]]:
        """Pipelined pmFetch: N fetches, one socket write/read pass."""
        responses = await self._request_many(
            [FetchRequest(pmids=tuple(pmids)) for pmids in pmid_groups])
        return [self._digest_fetch(response) for response in responses]

    async def fetch_one(self, name: str, instance: str) -> int:
        pmid = (await self.lookup_names([name]))[0]
        values = (await self.fetch([pmid]))[pmid]
        try:
            return values[instance]
        except KeyError:
            raise PCPError(
                f"metric {name!r} has no instance {instance!r}; "
                f"available: {sorted(values)}"
            ) from None

    async def children(self, prefix: str = "") -> List[str]:
        response = await self._request(ChildrenRequest(prefix=prefix))
        if not isinstance(response, ChildrenResponse):
            raise PCPError(f"unexpected response: {response}")
        self._observe(response)
        if response.status != PCPStatus.OK:
            raise PCPError(f"unknown PMNS prefix: {prefix!r}")
        return list(response.children)

    async def traverse(self, prefix: str = "") -> List[str]:
        """pmTraversePMNS via recursive ChildrenRequest PDUs."""
        if self._pmcd is not None:
            self._round_trip()
            return list(self._pmcd.pmns.traverse(prefix))
        out: List[str] = []
        response = await self._request(ChildrenRequest(prefix=prefix))
        if not isinstance(response, ChildrenResponse) \
                or response.status != PCPStatus.OK:
            raise PCPError(f"unknown PMNS prefix {prefix!r}")
        self._observe(response)
        for child, leaf in zip(response.children, response.leaf_flags):
            path = f"{prefix}.{child}" if prefix else child
            if leaf:
                out.append(path)
            else:
                out.extend(await self.traverse(path))
        return out

    async def fetch_archive(self, metrics: Sequence[str] = (),
                            t0: float = 0.0, t1: Optional[float] = None
                            ) -> List[ArchiveRecord]:
        """Replay archived samples (see :meth:`PcpSession.fetch_archive`)."""
        response = await self._request(ArchiveFetchRequest(
            metrics=tuple(metrics), t0=t0,
            t1=-1.0 if t1 is None else t1))
        return self._check_archive_response(response)


class RemoteTransport:
    """Client-side stand-in for a PMCD reached over TCP.

    Duck-types the surface :class:`PcpSession` uses (``handle``,
    ``pmns``, ``round_trip_seconds``), so the whole PAPI PCP component
    works unchanged across the socket. ``pmns`` access is served by
    traversing the remote namespace via ChildrenRequest PDUs. Sessions
    normally obtain one through ``repro.pcp.connect(("host", port))``
    rather than directly.

    Fault tolerance: each request has a deadline
    (``request_timeout``); a timed-out or failed request is retried up
    to ``max_retries`` times with exponential backoff. A timed-out
    attempt closes its socket, because the byte stream may still carry
    the stale response (which would cross-wire every request after
    it); the next attempt, in this call or a later one, dials afresh.
    With ``auto_reconnect=True`` the transport also re-dials after the
    daemon drops the connection (e.g. a restart) — the daemon's
    ``boot_id`` then tells the :class:`PcpSession` to flag a
    measurement gap.
    """

    def __init__(self, host: str, port: int,
                 round_trip_seconds: float = PMCD.DEFAULT_ROUND_TRIP,
                 timeout: float = 10.0,
                 request_timeout: Optional[float] = None,
                 max_retries: int = 2,
                 backoff_base_seconds: float = 0.01,
                 auto_reconnect: bool = False):
        self.host = host
        self.port = port
        self.round_trip_seconds = round_trip_seconds
        self.connect_timeout = timeout
        self.request_timeout = (timeout if request_timeout is None
                                else request_timeout)
        self.max_retries = max_retries
        self.backoff_base_seconds = backoff_base_seconds
        self.auto_reconnect = auto_reconnect
        self._lock = threading.Lock()
        self._sock: Optional[socket.socket] = None
        self._rfile = None
        self._pmns = None
        self.requests = 0
        self.retries = 0
        self.timeouts = 0
        self.reconnects = 0
        self._latency_sum = 0.0
        self._latency_max = 0.0
        self._connect()

    # ------------------------------------------------------------------
    def _connect(self) -> None:
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.connect_timeout)
        self._sock.settimeout(self.request_timeout)
        self._rfile = self._sock.makefile("rb")

    def _teardown(self) -> None:
        for closer in (self._rfile, self._sock):
            if closer is not None:
                try:
                    closer.close()
                except OSError:
                    pass
        self._rfile = None
        self._sock = None

    def _reconnect(self) -> None:
        self._teardown()
        self._connect()
        self.reconnects += 1

    # ------------------------------------------------------------------
    def handle(self, request):
        payload = encode_request(request)
        with self._lock:
            self.requests += 1
            last_error: Optional[Exception] = None
            attempts = 0
            for attempt in range(self.max_retries + 1):
                attempts += 1
                if attempt:
                    self.retries += 1
                    time.sleep(self.backoff_base_seconds
                               * (2 ** (attempt - 1)))
                if attempt or self._sock is None:
                    # Retries start on a fresh connection, and so does
                    # the first attempt after a timeout closed the last.
                    try:
                        self._reconnect()
                    except OSError as exc:
                        last_error = exc
                        continue
                started = time.monotonic()
                try:
                    self._sock.sendall(payload)
                    line = self._rfile.readline()
                except socket.timeout:
                    self.timeouts += 1
                    last_error = PCPTimeout(
                        f"pmcd request timed out after "
                        f"{self.request_timeout}s")
                    # The stream is poisoned (a socket file also refuses
                    # reads after a timeout): close it so no later
                    # request can read the stale response.
                    self._teardown()
                    continue
                except OSError as exc:
                    last_error = exc
                    if not self.auto_reconnect:
                        break
                    continue
                if not line:
                    last_error = PCPError("connection to pmcd lost")
                    if not self.auto_reconnect:
                        break
                    continue
                try:
                    response = decode_response(line)
                except PCPError as exc:  # truncated/corrupt PDU
                    last_error = exc
                    if not self.auto_reconnect:
                        break
                    continue
                elapsed = time.monotonic() - started
                self._latency_sum += elapsed
                self._latency_max = max(self._latency_max, elapsed)
                return response
        if isinstance(last_error, PCPError):
            raise last_error
        raise PCPError(
            f"pmcd request failed after {attempts} "
            f"attempt(s): {last_error}")

    # ------------------------------------------------------------------
    @property
    def pmns(self):
        if self._pmns is None:
            self._pmns = _RemotePMNS(self)
        return self._pmns

    def transport_stats(self) -> Dict[str, float]:
        """Client-side service counters (latency, retries, reconnects)."""
        served = max(1, self.requests)
        return {
            "requests": self.requests,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "reconnects": self.reconnects,
            "latency_avg_usec": int(self._latency_sum / served * 1e6),
            "latency_max_usec": int(self._latency_max * 1e6),
        }

    def close(self) -> None:
        self._teardown()


class _RemotePMNS:
    """Remote PMNS traversal via ChildrenRequest PDUs."""

    def __init__(self, remote: RemoteTransport):
        self._remote = remote

    def traverse(self, prefix: str = ""):
        response = self._remote.handle(ChildrenRequest(prefix=prefix))
        if response.status != PCPStatus.OK:
            raise PCPError(f"unknown PMNS prefix {prefix!r}")
        for child, leaf in zip(response.children, response.leaf_flags):
            path = f"{prefix}.{child}" if prefix else child
            if leaf:
                yield path
            else:
                yield from self.traverse(path)


AddressLike = Union[str, Tuple[str, int]]


def _parse_address(target) -> Optional[Tuple[str, int]]:
    if isinstance(target, tuple) and len(target) == 2 \
            and isinstance(target[0], str):
        return (target[0], int(target[1]))
    if isinstance(target, str):
        host, sep, port = target.rpartition(":")
        if not sep or not port.isdigit():
            raise PCPError(f"bad pmcd address {target!r} "
                           "(expected 'host:port')")
        return (host, int(port))
    address = getattr(target, "address", None)
    if address is not None and not hasattr(target, "handle"):
        # A server object (AsyncPMCDServer): dial its listening
        # address.
        return (address[0], int(address[1]))
    return None


def connect(target, mode: str = "sync", *,
            node: Optional[Node] = None,
            cache_lookups: bool = False,
            round_trip_seconds: Optional[float] = None,
            timeout: float = 10.0,
            request_timeout: Optional[float] = None,
            max_retries: int = 2,
            backoff_base_seconds: float = 0.01,
            auto_reconnect: bool = True):
    """Open a PCP session — the one entry point to the client stack.

    ``target`` may be an in-process :class:`~repro.pcp.pmcd.PMCD`, an
    already-dialed transport, a server object, a ``(host, port)`` pair
    or a ``"host:port"`` string. ``mode="sync"`` returns a
    :class:`PcpSession`; ``mode="async"`` returns an
    :class:`AsyncPcpSession` (dialed lazily — use ``async with`` or
    ``await session.open()``).

    The transport keywords (``timeout``/``request_timeout``/
    ``max_retries``/``backoff_base_seconds``/``auto_reconnect``) apply
    when ``target`` is an address and a new transport is dialed.
    """
    address = _parse_address(target)
    if mode == "sync":
        if address is not None:
            target = RemoteTransport(
                address[0], address[1],
                round_trip_seconds=(0.0 if round_trip_seconds is None
                                    else round_trip_seconds),
                timeout=timeout,
                request_timeout=request_timeout,
                max_retries=max_retries,
                backoff_base_seconds=backoff_base_seconds,
                auto_reconnect=auto_reconnect)
        if not hasattr(target, "handle"):
            raise PCPError(f"cannot connect to {target!r}")
        return PcpSession(target, node=node, cache_lookups=cache_lookups)
    if mode == "async":
        return AsyncPcpSession(
            address if address is not None else target,
            node=node, cache_lookups=cache_lookups,
            round_trip_seconds=round_trip_seconds,
            connect_timeout=timeout,
            request_timeout=(30.0 if request_timeout is None
                             else request_timeout))
    raise PCPError(f"unknown session mode {mode!r} "
                   "(expected 'sync' or 'async')")
