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

Each pmapi call is written once, in :class:`_SessionState`, as an
*exchange* that yields its request PDUs and checks their responses;
the two sessions only send them.

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
from typing import Callable, Dict, Generator, List, Optional, Sequence, Tuple

from ..counters import Counters
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


def _expect(response, kind):
    if not isinstance(response, kind):
        raise PCPError(f"unexpected response: {response}")
    return response


def _drive(exchange: Generator, send: Callable):
    """Run ``exchange`` to its result, answering each request it yields
    with ``send(request)``."""
    try:
        request = next(exchange)
        while True:
            request = exchange.send(send(request))
    except StopIteration as done:
        return done.value


class _SessionState:
    """Client-side accounting and the pmapi exchanges shared by the
    sync and async sessions.

    An exchange (``_lookup``, ``_fetch``, ...) is a generator: it yields
    each request PDU, receives its response (``response = yield
    request``), checks it and returns the call's result. A session's
    ``_run`` charges a round trip per request and passes each response
    through :meth:`_observe` first.
    """

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

    def _round_trip(self) -> None:
        self.round_trips += 1
        if self.node is not None and self.round_trip_seconds > 0:
            self.node.advance(self.round_trip_seconds)

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

    # ------------------------------------------------------------------
    # Exchanges.

    def _open(self):
        response = yield OpenRequest()
        # A v1 daemon rejects the unknown PDU type — that *is* the
        # negotiation result.
        ok = (isinstance(response, OpenResponse)
              and response.status == PCPStatus.OK)
        self.protocol_version = response.version if ok else 1
        return self.protocol_version

    def _lookup(self, names: Sequence[str]):
        names = list(names)
        if self.cache_lookups and names:
            cached = [self._lookup_cache.get(name) for name in names]
            if all(pmid is not None for pmid in cached):
                self.cached_lookups += 1
                return cached
        response = _expect((yield LookupRequest(names=tuple(names))),
                           LookupResponse)
        if response.status != PCPStatus.OK:
            bad = [n for n, s in zip(names, response.name_status)
                   if s != PCPStatus.OK]
            raise PCPError(f"unknown metric name(s): {bad}")
        for name, pmid in zip(names, response.pmids):
            self._lookup_cache[name] = pmid
        return list(response.pmids)

    def _fetch(self, pmids: Sequence[int]):
        return self._fetch_values((yield FetchRequest(pmids=tuple(pmids))))

    def _fetch_values(self, response) -> Dict[int, Dict[str, int]]:
        response = _expect(response, FetchResponse)
        if response.status != PCPStatus.OK:
            raise PCPError(f"fetch failed: {response.status.name}")
        self.last_fetch_timestamp = response.timestamp
        return {m.pmid: dict(m.values) for m in response.metrics}

    def _fetch_one(self, name: str, instance: str):
        pmid = (yield from self._lookup([name]))[0]
        values = (yield from self._fetch([pmid]))[pmid]
        try:
            return values[instance]
        except KeyError:
            raise PCPError(
                f"metric {name!r} has no instance {instance!r}; "
                f"available: {sorted(values)}"
            ) from None

    @staticmethod
    def _children(prefix: str):
        """(name, is_leaf) pairs one level below ``prefix``."""
        response = _expect((yield ChildrenRequest(prefix=prefix)),
                           ChildrenResponse)
        if response.status != PCPStatus.OK:
            raise PCPError(f"unknown PMNS prefix: {prefix!r}")
        return list(zip(response.children, response.leaf_flags))

    @staticmethod
    def _walk(prefix: str):
        """pmTraversePMNS as ChildrenRequest PDUs, one per inner node."""
        names: List[str] = []
        for child, leaf in (yield from _SessionState._children(prefix)):
            path = f"{prefix}.{child}" if prefix else child
            if leaf:
                names.append(path)
            else:
                names.extend((yield from _SessionState._walk(path)))
        return names

    def _archive(self, metrics: Sequence[str], t0: float,
                 t1: Optional[float]):
        response = yield ArchiveFetchRequest(
            metrics=tuple(metrics), t0=t0, t1=-1.0 if t1 is None else t1)
        if isinstance(response, ErrorResponse):  # e.g. a corrupt archive
            error = (ArchiveError if response.status == PCPStatus.PM_ERR_NODATA
                     else PCPError)
            raise error(f"archive fetch failed: {response.status.name} "
                        f"({response.detail})")
        response = _expect(response, ArchiveFetchResponse)
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

    @property
    def round_trip_seconds(self) -> float:
        return self.pmcd.round_trip_seconds

    def _send(self, request):
        self._round_trip()
        response = self.pmcd.handle(request)
        self._observe(response)
        return response

    def _run(self, exchange: Generator):
        """Each request ``exchange`` yields is one round trip."""
        return _drive(exchange, self._send)

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
        if self.node is not None and self.round_trip_seconds > 0:
            self.node.advance_steps(self.round_trip_seconds, trips)

    # ------------------------------------------------------------------
    def handshake(self) -> int:
        """Negotiate the protocol version (one round trip).

        Optional: sessions default to the v1 surface, which every
        daemon speaks. Returns the negotiated version.
        """
        return self._run(self._open())

    def lookup_names(self, names: Sequence[str]) -> List[int]:
        """pmLookupName: resolve metric names to PMIDs."""
        return self._run(self._lookup(names))

    def fetch(self, pmids: Sequence[int]) -> Dict[int, Dict[str, int]]:
        """pmFetch: current values for each PMID, keyed by instance."""
        return self._run(self._fetch(pmids))

    def fetch_one(self, name: str, instance: str) -> int:
        """Convenience: one metric, one instance."""
        return self._run(self._fetch_one(name, instance))

    def children(self, prefix: str = "") -> List[str]:
        """pmGetChildren: names one level below ``prefix``."""
        return [name for name, _ in self._run(self._children(prefix))]

    def traverse(self, prefix: str = "") -> List[str]:
        """pmTraversePMNS: all metric names under ``prefix``.

        One round trip (the real protocol batches the traversal
        similarly): an in-process daemon's PMNS is read directly, and
        a :class:`RemoteTransport` walks the remote one.
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
        return self._run(self._archive(metrics, t0, t1))

    # ------------------------------------------------------------------
    def daemon_overhead(self) -> Dict[str, float]:
        """Service-layer overhead counters for this client's path.

        Merges client-side accounting (round trips, cache hits, gaps),
        the daemon's own counters (``pmcd.stats``) and the fabric's
        (``service_stats``) when the daemon is in-process, and — for
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

    # ------------------------------------------------------------------
    async def open(self) -> "AsyncPcpSession":
        """Dial the daemon (no-op for in-process targets)."""
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
    async def _send(self, requests: Sequence) -> list:
        """Send ``requests``, one round trip each; their responses.

        Over TCP: one write, then the responses in order under one
        deadline (a wait_for per response costs a timer handle and a
        wrapper task, which dominates the fabric's hot path). A
        timeout or a lost or corrupt line closes the connection, whose
        stream may still carry a late response; the next request dials
        afresh.
        """
        if self._pmcd is not None:
            responses = []
            for request in requests:
                self._round_trip()
                responses.append(self._pmcd.handle(request))
            return responses
        if self._lock is None:
            self._lock = asyncio.Lock()
        async with self._lock:
            if self._writer is None:
                await self.open()
            try:
                for request in requests:
                    self._round_trip()
                    self._writer.write(encode_request(request))
                await self._writer.drain()
                lines = await asyncio.wait_for(
                    self._read_lines(len(requests)),
                    timeout=self.request_timeout)
                return [decode_response(line) for line in lines]
            except BaseException as exc:
                writer, self._reader, self._writer = self._writer, None, None
                if writer is not None:  # None if close() ran meanwhile
                    writer.close()
                if isinstance(exc, asyncio.TimeoutError):
                    raise PCPTimeout(
                        f"pmcd request timed out after "
                        f"{self.request_timeout}s") from None
                raise

    async def _read_lines(self, count: int) -> list:
        lines = []
        for _ in range(count):
            line = await self._reader.readline()
            if not line:
                raise PCPError("connection to pmcd lost")
            lines.append(line)
        return lines

    async def _run(self, exchange: Generator):
        """Each request ``exchange`` yields is one round trip."""
        try:
            request = next(exchange)
            while True:
                response = (await self._send((request,)))[0]
                self._observe(response)
                request = exchange.send(response)
        except StopIteration as done:
            return done.value

    # ------------------------------------------------------------------
    async def handshake(self) -> int:
        """Negotiate the protocol version (one round trip)."""
        return await self._run(self._open())

    async def lookup_names(self, names: Sequence[str]) -> List[int]:
        return await self._run(self._lookup(names))

    async def fetch(self, pmids: Sequence[int]) -> Dict[int, Dict[str, int]]:
        return await self._run(self._fetch(pmids))

    async def fetch_many(self, pmid_groups: Sequence[Sequence[int]]
                         ) -> List[Dict[int, Dict[str, int]]]:
        """Pipelined pmFetch: N fetches, one socket write/read pass."""
        responses = await self._send(
            [FetchRequest(pmids=tuple(pmids)) for pmids in pmid_groups])
        out = []
        for response in responses:
            self._observe(response)
            out.append(self._fetch_values(response))
        return out

    async def fetch_one(self, name: str, instance: str) -> int:
        return await self._run(self._fetch_one(name, instance))

    async def children(self, prefix: str = "") -> List[str]:
        return [name for name, _ in await self._run(self._children(prefix))]

    async def traverse(self, prefix: str = "") -> List[str]:
        """pmTraversePMNS: an in-process daemon's PMNS is read directly
        for one round trip; over TCP every ChildrenRequest PDU of the
        walk is a round trip."""
        if self._pmcd is not None:
            self._round_trip()
            return list(self._pmcd.pmns.traverse(prefix))
        return await self._run(self._walk(prefix))

    async def fetch_archive(self, metrics: Sequence[str] = (),
                            t0: float = 0.0, t1: Optional[float] = None
                            ) -> List[ArchiveRecord]:
        """Replay archived samples (see :meth:`PcpSession.fetch_archive`)."""
        return await self._run(self._archive(metrics, t0, t1))


class RemoteTransport(Counters):
    """Client-side stand-in for a PMCD reached over TCP.

    Duck-types the surface :class:`PcpSession` uses (``handle``,
    ``pmns``, ``round_trip_seconds``), so the whole PAPI PCP component
    works unchanged across the socket. ``pmns`` is the transport
    itself: its :meth:`traverse` walks the remote namespace with
    ChildrenRequest PDUs. Sessions normally obtain one through
    ``repro.pcp.connect(("host", port))`` rather than directly.

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

    The transport's counters are its own attributes: ``requests``,
    ``retries``, ``timeouts``, ``reconnects`` and the latency of the
    answered requests; :meth:`transport_stats` snapshots them.
    """

    def __init__(self, host: str, port: int,
                 round_trip_seconds: float = PMCD.DEFAULT_ROUND_TRIP,
                 timeout: float = 10.0,
                 request_timeout: Optional[float] = None,
                 max_retries: int = 2,
                 backoff_base_seconds: float = 0.01,
                 auto_reconnect: bool = False):
        super().__init__("requests", "retries", "timeouts", "reconnects",
                         latency=True)
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
                        self._teardown()
                        self._connect()
                        self.reconnects += 1
                    except OSError as exc:
                        last_error = exc
                        continue
                started = time.monotonic()
                try:
                    self._sock.sendall(payload)
                    line = self._rfile.readline()
                    if not line:
                        raise PCPError("connection to pmcd lost")
                    response = decode_response(line)  # raises if truncated
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
                except (OSError, PCPError) as exc:
                    last_error = exc
                    if not self.auto_reconnect:
                        break
                    continue
                self.record_latency(time.monotonic() - started)
                return response
        if isinstance(last_error, PCPError):
            raise last_error
        raise PCPError(
            f"pmcd request failed after {attempts} "
            f"attempt(s): {last_error}")

    # ------------------------------------------------------------------
    @property
    def pmns(self) -> "RemoteTransport":
        return self

    def traverse(self, prefix: str = "") -> List[str]:
        """All metric names under ``prefix`` on the remote daemon."""
        return _drive(_SessionState._walk(prefix), self.handle)

    def transport_stats(self) -> Dict[str, float]:
        """Client-side service counters (latency, retries, reconnects)."""
        return self.snapshot()

    def close(self) -> None:
        self._teardown()


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
