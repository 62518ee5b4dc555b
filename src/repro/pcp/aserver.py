"""Asyncio multi-tenant PMCD fabric: the one TCP service layer.

The in-process :class:`~repro.pcp.pmcd.PMCD` captures the daemon; this
module puts it behind a real TCP socket as a service fabric that
serves thousands of concurrent clients:

* **asyncio TCP front-end** — every client connection is a coroutine
  on one event loop, so thousands of concurrent
  :class:`~repro.pcp.session.AsyncPcpSession` contexts cost file
  descriptors, not threads;
* **PMNS sharded across PMDA worker tasks** — each PMDA domain gets
  its own worker task and queue. A fetch PDU is split by PMID domain,
  the sub-fetches run on their shards concurrently, and the front-end
  recombines the answers. A slow or stalled agent backs up only its
  own shard;
* **per-shard request coalescing** — a shard worker drains its queue
  in batches and identical concurrent pmid-tuples share one PMDA
  read, so the daemon does strictly fewer PMDA reads than the naive
  per-request count under concurrent load;
* **one fetch path** — the daemon decides every fetch: the front-end
  gates and counts it with :meth:`PMCD.admit`, a shard worker reads
  with :meth:`PMCD.read`, and :meth:`PMCD.fetch_response` builds the
  answer; every other PDU goes to :meth:`PMCD.handle`;
* **archive serving** — v2 ``ArchiveFetchRequest`` PDUs replay from
  the daemon's attached :class:`~repro.pcp.archive.MetricArchive`,
  and the v2 ``OpenRequest`` handshake negotiates the protocol
  version per connection;
* **supervised shard workers** — :meth:`AsyncPMCDServer.kill_shard`
  cancels a worker mid-flight (the load harness's fault scenario); a
  supervisor requeues the jobs it had claimed and restarts the
  worker, so clients observe latency, never a lost request.

Faults from :class:`~repro.pcp.faults.FaultInjector` apply at two
sites: per served response (drop/slow/truncate) and per PMDA read
(:attr:`~repro.pcp.faults.FaultKind.SLOW_PMDA`).

Encoding: one JSON object per line, ``{"type": <RequestClass>,
**fields}`` → ``{"type": <ResponseClass>, **fields}`` (codec in
:mod:`repro.pcp.protocol`).

The fabric runs inside one event loop; :meth:`start_in_thread` hosts
that loop on a daemon thread so synchronous code (tests, examples,
sync :class:`~repro.pcp.session.PcpSession` clients over a
:class:`~repro.pcp.session.RemoteTransport`) can stand up a fabric
and talk to it over TCP. Everything here is Python 3.9-compatible (no
``asyncio.timeout`` or ``TaskGroup``).
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Dict, List, Optional, Tuple

from ..counters import Counters
from ..errors import PCPError
from . import protocol
from .faults import FaultInjector, FaultKind
from .pmcd import PMCD
from .pmda import pmid_domain


class _ShardJob:
    """One domain's slice of a fetch, waiting on a shard worker."""

    __slots__ = ("pmids", "future")

    def __init__(self, pmids: Tuple[int, ...], future: "asyncio.Future"):
        self.pmids = pmids
        self.future = future


class AsyncPMCDServer:
    """Serves one PMCD over TCP to thousands of async clients."""

    #: Upper bound on jobs drained into one shard batch.
    MAX_BATCH = 256

    def __init__(self, pmcd: PMCD, host: str = "127.0.0.1", port: int = 0,
                 fault_injector: Optional[FaultInjector] = None,
                 coalesce: bool = True):
        self.pmcd = pmcd
        self.host = host
        self.port = port
        self.coalesce = coalesce
        #: Service counters; queue depth is counted at the shard queues,
        #: so only fetches register in ``batches``/``max_queue_depth``.
        self.stats = Counters(
            "requests", "responses", "batches", "coalesced",
            "max_queue_depth", "connections", "disconnects", "faults",
            "shard_kills", "shard_restarts", "requeued_jobs", latency=True)
        self.faults = fault_injector or FaultInjector()
        # Export service counters through the pmcd.* self-metrics PMDA.
        pmcd.service_stats = self.stats
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._queues: Dict[int, "asyncio.Queue[_ShardJob]"] = {}
        self._supervisors: Dict[int, "asyncio.Task"] = {}
        self._workers: Dict[int, "asyncio.Task"] = {}
        self._writers: set = set()
        #: pmid-tuple -> ((domain, pmids), ...) fetch-split cache.
        self._split_cache: Dict[Tuple[int, ...],
                                Tuple[Tuple[int, Tuple[int, ...]], ...]] = {}
        #: Domains whose worker cancellation came from :meth:`kill_shard`
        #: (restart it) as opposed to event-loop teardown (die).
        self._killed: set = set()
        self._stopping = False
        self._thread: Optional[threading.Thread] = None
        self._thread_loop: Optional[asyncio.AbstractEventLoop] = None
        self.address: Optional[Tuple[str, int]] = None

    # ------------------------------------------------------------------
    # Lifecycle.

    async def start(self) -> "AsyncPMCDServer":
        self._loop = asyncio.get_event_loop()
        self._stopping = False
        for agent in self.pmcd.agents:
            self._spawn_shard(agent.domain)
        self._server = await asyncio.start_server(
            self._serve_client, self.host, self.port)
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        return self

    async def stop(self) -> None:
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._supervisors.values()):
            task.cancel()
        for task in list(self._workers.values()):
            task.cancel()
        await asyncio.gather(*self._supervisors.values(),
                             *self._workers.values(),
                             return_exceptions=True)
        self._supervisors.clear()
        self._workers.clear()
        self._drop_all_connections()
        # Let the connection handlers observe their closed sockets.
        await asyncio.sleep(0)

    def restart(self) -> None:
        """Simulate a daemon crash + restart (boot-id bump + drops).

        Listening socket and shard workers survive, as systemd socket
        activation would provide; every live client connection is
        dropped so auto-reconnecting transports observe the gap.
        Thread-safe: called off the loop thread of
        :meth:`start_in_thread`, it returns once the crash has run on
        the loop.
        """
        def crash() -> None:
            self.pmcd.restart()
            self._drop_all_connections()

        async def crash_on_loop() -> None:
            crash()

        loop = self._thread_loop or self._loop
        if (loop is not None and self._thread is not None
                and threading.current_thread() is not self._thread):
            asyncio.run_coroutine_threadsafe(crash_on_loop(), loop).result(
                timeout=10)
        else:
            crash()

    def _drop_all_connections(self) -> None:
        for writer in list(self._writers):
            try:
                writer.close()
            except Exception:
                pass

    @property
    def open_connections(self) -> int:
        return len(self._writers)

    # ------------------------------------------------------------------
    # Threaded hosting for synchronous callers.

    def start_in_thread(self) -> "AsyncPMCDServer":
        """Run the fabric's event loop on a daemon thread.

        Returns once the listening socket is bound (``self.address``
        is set). Pair with :meth:`stop_in_thread`.
        """
        if self._thread is not None:
            raise PCPError("fabric already running in a thread")
        self._thread_loop = asyncio.new_event_loop()
        started = threading.Event()
        failure: List[BaseException] = []

        def runner() -> None:
            loop = self._thread_loop
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(self.start())
            except BaseException as exc:  # surface bind errors
                failure.append(exc)
                started.set()
                return
            started.set()
            loop.run_forever()
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

        self._thread = threading.Thread(target=runner, daemon=True,
                                        name="pcp-fabric")
        self._thread.start()
        if not started.wait(timeout=10):
            raise PCPError("fabric event loop failed to start")
        if failure:
            self._thread = None
            raise failure[0]
        return self

    def stop_in_thread(self) -> None:
        if self._thread is None or self._thread_loop is None:
            return
        future = asyncio.run_coroutine_threadsafe(
            self.stop(), self._thread_loop)
        try:
            future.result(timeout=10)
        finally:
            self._thread_loop.call_soon_threadsafe(self._thread_loop.stop)
            self._thread.join(timeout=10)
            self._thread = None
            self._thread_loop = None

    # ------------------------------------------------------------------
    # Shard workers.

    def _spawn_shard(self, domain: int) -> None:
        if domain not in self._queues:
            self._queues[domain] = asyncio.Queue()
        self._supervisors[domain] = self._loop.create_task(
            self._shard_supervisor(domain))

    async def _shard_supervisor(self, domain: int) -> None:
        """Keep ``domain``'s worker alive across kills and crashes."""
        queue = self._queues[domain]
        first = True
        while not self._stopping:
            if not first:
                self.stats.shard_restarts += 1
            first = False
            worker = self._loop.create_task(self._shard_worker(queue))
            self._workers[domain] = worker
            try:
                await worker
            except asyncio.CancelledError:
                if self._stopping or domain not in self._killed:
                    # stop() or event-loop teardown cancelled us: a
                    # swallowed cancel here would respawn the worker
                    # and wedge loop shutdown forever.
                    raise
                # kill_shard cancelled the worker, not us: restart it.
                self._killed.discard(domain)
                continue
            except Exception:
                # A worker bug must not take the shard down for good.
                continue

    async def _shard_worker(self, queue: "asyncio.Queue[_ShardJob]") -> None:
        claimed: List[_ShardJob] = []
        try:
            while True:
                claimed = [await queue.get()]
                while (not queue.empty()
                       and len(claimed) < self.MAX_BATCH):
                    claimed.append(queue.get_nowait())
                self.stats.batches += 1
                self.stats.max_queue_depth = max(
                    self.stats.max_queue_depth, len(claimed))
                groups: Dict[Tuple[int, ...], List[_ShardJob]] = {}
                ordered: List[Tuple[int, ...]] = []
                for job in claimed:
                    key = job.pmids if self.coalesce else None
                    if key is not None and key in groups:
                        groups[key].append(job)
                        self.stats.coalesced += 1
                        continue
                    if key is None:
                        key = (id(job),)  # unique: no sharing
                    groups[key] = [job]
                    ordered.append(key)
                for key in ordered:
                    members = groups[key]
                    result = await self._read_pmda(members[0].pmids)
                    for job in members:
                        if not job.future.done():
                            job.future.set_result(result)
                claimed = []
        finally:
            # Cancelled (kill_shard) or crashed mid-batch: hand the
            # unanswered jobs back to the queue so the restarted
            # worker serves them — clients see latency, not errors.
            requeued = 0
            for job in claimed:
                if not job.future.done():
                    queue.put_nowait(job)
                    requeued += 1
            if requeued:
                self.stats.requeued_jobs += requeued

    async def _read_pmda(self, pmids: Tuple[int, ...]):
        """One PMDA read for a coalesced group (:meth:`PMCD.read`)."""
        action = self.faults.next_pmda_action()
        if action is not None and action.kind is FaultKind.SLOW_PMDA:
            self.stats.faults += 1
            await asyncio.sleep(action.seconds)
        return self.pmcd.read(pmids)

    def kill_shard(self, domain: int) -> bool:
        """Cancel one shard's worker task (fault injection).

        Thread-safe; the supervisor restarts the worker and requeues
        whatever it had claimed. Returns False for unknown domains.
        """
        worker = self._workers.get(domain)
        if worker is None:
            return False

        def cancel() -> None:
            # Mark before cancelling, on the loop thread, so the
            # supervisor can tell this cancel from loop teardown. The
            # loop thread is also the only one that bumps counters.
            self.stats.shard_kills += 1
            self._killed.add(domain)
            worker.cancel()

        loop = self._thread_loop or self._loop
        if loop is not None and threading.current_thread() is not (
                self._thread or threading.current_thread()):
            loop.call_soon_threadsafe(cancel)
        else:
            cancel()
        return True

    def queue_depth(self) -> int:
        return sum(q.qsize() for q in self._queues.values())

    # ------------------------------------------------------------------
    # Front-end.

    async def _serve_client(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        self.stats.connections += 1
        self._writers.add(writer)
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                self.stats.requests += 1
                started = time.monotonic()
                try:
                    request = protocol.decode_request(line)
                except PCPError as exc:
                    response = protocol.ErrorResponse(
                        protocol.PCPStatus.PM_ERR_PMID, str(exc))
                else:
                    response = await self._dispatch(request)
                if not await self._send(writer, response, started):
                    break
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        finally:
            # Exactly one disconnect per socket close, however many
            # paths unwind through here (drop fault, restart, EOF).
            if writer in self._writers:
                self._writers.discard(writer)
                self.stats.disconnects += 1
            try:
                writer.close()
            except Exception:
                pass

    async def _dispatch(self, request):
        if not isinstance(request, protocol.FetchRequest):
            # Lookup/children/open/archive are cheap namespace or disk
            # reads — served inline by the daemon object.
            return self.pmcd.handle(request)
        refused = self.pmcd.admit(request)
        if refused is not None:
            return refused
        # Clients fetch the same few pmid-tuples over and over; cache
        # the per-domain split instead of re-deriving it per request.
        split = self._split_cache.get(request.pmids)
        if split is None:
            by_domain: Dict[int, List[int]] = {}
            for pmid in request.pmids:
                by_domain.setdefault(pmid_domain(pmid), []).append(pmid)
            split = tuple((domain, tuple(pmids))
                          for domain, pmids in by_domain.items())
            if len(self._split_cache) < 4096:
                self._split_cache[request.pmids] = split
        futures = []
        for domain, pmids in split:
            queue = self._queues.get(domain)
            if queue is None:
                return self.pmcd.fetch_response(protocol.PCPStatus.PM_ERR_PMID)
            future = self._loop.create_future()
            queue.put_nowait(_ShardJob(pmids, future))
            futures.append(future)
        if len(futures) == 1:
            # Hot path: a fetch that lands on one shard needs no
            # cross-domain merge — the shard preserved request order.
            return self.pmcd.fetch_response(await futures[0])
        values_by_pmid: Dict[int, protocol.MetricValues] = {}
        for result in await asyncio.gather(*futures):
            if isinstance(result, protocol.PCPStatus):
                return self.pmcd.fetch_response(result)
            for metric in result:
                values_by_pmid[metric.pmid] = metric
        return self.pmcd.fetch_response(
            [values_by_pmid[pmid] for pmid in request.pmids])

    async def _send(self, writer: asyncio.StreamWriter, response,
                    started: float) -> bool:
        """Apply any scheduled fault, then send. False = close conn."""
        action = self.faults.next_action()
        if action is not None:
            self.stats.faults += 1
            if action.kind is FaultKind.DROP_CONNECTION:
                return False
            if action.kind is FaultKind.SLOW_RESPONSE:
                await asyncio.sleep(action.seconds)
        payload = protocol.encode_response(response)
        if action is not None and action.kind is FaultKind.TRUNCATE_PDU:
            payload = payload[:max(1, len(payload) // 2)]
        try:
            writer.write(payload)
            await writer.drain()
        except (ConnectionError, OSError):
            return False
        if action is not None and action.kind is FaultKind.TRUNCATE_PDU:
            return False
        self.stats.responses += 1
        self.stats.record_latency(time.monotonic() - started)
        return True
