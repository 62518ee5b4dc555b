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
* **hybrid executor offload** — domains named in ``executor_domains``
  have their PMDA reads pushed to a concurrent.futures executor (a
  thread pool by default; pass a process pool for picklable
  CPU-bound agents) so a heavy read never blocks the event loop;
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
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import PCPError
from . import protocol
from .faults import FaultInjector, FaultKind
from .pmcd import PMCD
from .pmda import pmid_domain


class FabricStats:
    """Counters for the TCP service layer.

    The ``pmcd.service.*`` self-metrics (``coalesced``,
    ``max_queue_depth``, ``latency_max_usec``) read from this
    snapshot.
    """

    _FIELDS = ("requests", "responses", "batches", "coalesced",
               "max_queue_depth", "connections", "disconnects", "faults",
               "shard_kills", "shard_restarts", "requeued_jobs",
               "executor_reads", "archive_fetches")

    def __init__(self) -> None:
        # The loop thread does almost all the counting, but snapshots
        # arrive from other threads (tests, the CLI) — keep a lock.
        self._lock = threading.Lock()
        for field in self._FIELDS:
            setattr(self, field, 0)
        self._latency_sum = 0.0
        self._latency_max = 0.0
        self._latency_n = 0

    def bump(self, field: str, by: int = 1) -> None:
        with self._lock:
            setattr(self, field, getattr(self, field) + by)

    def record_batch(self, depth: int) -> None:
        with self._lock:
            self.batches += 1
            self.max_queue_depth = max(self.max_queue_depth, depth)

    def record_latency(self, seconds: float) -> None:
        with self._lock:
            self._latency_sum += seconds
            self._latency_max = max(self._latency_max, seconds)
            self._latency_n += 1

    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            out: Dict[str, float] = {f: getattr(self, f)
                                     for f in self._FIELDS}
            out["latency_avg_usec"] = int(
                self._latency_sum / self._latency_n * 1e6
            ) if self._latency_n else 0
            out["latency_max_usec"] = int(self._latency_max * 1e6)
            return out


class _ShardJob:
    """One domain's slice of a fetch, waiting on a shard worker."""

    __slots__ = ("pmids", "future", "enqueued_at")

    def __init__(self, pmids: Tuple[int, ...], future: "asyncio.Future"):
        self.pmids = pmids
        self.future = future
        self.enqueued_at = time.monotonic()


class AsyncPMCDServer:
    """Serves one PMCD over TCP to thousands of async clients."""

    #: Upper bound on jobs drained into one shard batch.
    MAX_BATCH = 256

    def __init__(self, pmcd: PMCD, host: str = "127.0.0.1", port: int = 0,
                 fault_injector: Optional[FaultInjector] = None,
                 coalesce: bool = True,
                 executor_domains: Sequence[int] = (),
                 executor=None):
        self.pmcd = pmcd
        self.host = host
        self.port = port
        self.coalesce = coalesce
        self.stats = FabricStats()
        self.faults = fault_injector or FaultInjector()
        # Export service counters through the pmcd.* self-metrics PMDA.
        pmcd.service_stats = self.stats
        self.executor_domains = frozenset(executor_domains)
        self._executor = executor
        self._own_executor = executor is None and bool(self.executor_domains)
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
        if self._own_executor:
            self._executor = ThreadPoolExecutor(
                max_workers=max(1, len(self.executor_domains)),
                thread_name_prefix="pmda-shard")
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
        if self._own_executor and self._executor is not None:
            self._executor.shutdown(wait=False)
            self._executor = None
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
                self.stats.bump("shard_restarts")
            first = False
            worker = self._loop.create_task(
                self._shard_worker(domain, queue))
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

    async def _shard_worker(self, domain: int,
                            queue: "asyncio.Queue[_ShardJob]") -> None:
        claimed: List[_ShardJob] = []
        try:
            while True:
                claimed = [await queue.get()]
                while (not queue.empty()
                       and len(claimed) < self.MAX_BATCH):
                    claimed.append(queue.get_nowait())
                self.stats.record_batch(len(claimed))
                groups: Dict[Tuple[int, ...], List[_ShardJob]] = {}
                ordered: List[Tuple[int, ...]] = []
                for job in claimed:
                    key = job.pmids if self.coalesce else None
                    if key is not None and key in groups:
                        groups[key].append(job)
                        self.stats.bump("coalesced")
                        continue
                    if key is None:
                        key = (id(job),)  # unique: no sharing
                    groups[key] = [job]
                    ordered.append(key)
                for key in ordered:
                    members = groups[key]
                    result = await self._read_pmda(
                        domain, members[0].pmids)
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
                self.stats.bump("requeued_jobs", requeued)

    async def _read_pmda(self, domain: int, pmids: Tuple[int, ...]):
        """One PMDA read for a coalesced group; never raises."""
        action = self.faults.next_pmda_action()
        if action is not None and action.kind is FaultKind.SLOW_PMDA:
            self.stats.bump("faults")
            await asyncio.sleep(action.seconds)
        if domain in self.executor_domains and self._executor is not None:
            self.stats.bump("executor_reads")
            return await self._loop.run_in_executor(
                self._executor, self._fetch_sync, domain, pmids)
        return self._fetch_sync(domain, pmids)

    def _fetch_sync(self, domain: int, pmids: Tuple[int, ...]):
        agent = self.pmcd._agents.get(domain)
        if agent is None:
            return protocol.PCPStatus.PM_ERR_PMID
        metrics = []
        for pmid in pmids:
            try:
                self.pmcd.stats.pmda_fetch_calls += 1
                values = agent.fetch(pmid)
            except PCPError:
                return protocol.PCPStatus.PM_ERR_PMID
            metrics.append(protocol.MetricValues(pmid=pmid, values=values))
        return metrics

    def kill_shard(self, domain: int) -> bool:
        """Cancel one shard's worker task (fault injection).

        Thread-safe; the supervisor restarts the worker and requeues
        whatever it had claimed. Returns False for unknown domains.
        """
        worker = self._workers.get(domain)
        if worker is None:
            return False
        self.stats.bump("shard_kills")

        def cancel() -> None:
            # Mark before cancelling, on the loop thread, so the
            # supervisor can tell this cancel from loop teardown.
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
        self.stats.bump("connections")
        self._writers.add(writer)
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                self.stats.bump("requests")
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
                self.stats.bump("disconnects")
            try:
                writer.close()
            except Exception:
                pass

    async def _dispatch(self, request):
        if isinstance(request, protocol.FetchRequest):
            return await self._dispatch_fetch(request)
        if isinstance(request, protocol.ArchiveFetchRequest):
            self.stats.bump("archive_fetches")
        # Lookup/children/open/archive are cheap namespace or disk
        # reads — served inline by the daemon object.
        return self.pmcd.handle(request)

    async def _dispatch_fetch(self, request: protocol.FetchRequest):
        self.pmcd.stats.requests += 1
        if not self.pmcd.running:
            self.pmcd.stats.errors += 1
            return protocol.ErrorResponse(
                protocol.PCPStatus.PM_ERR_PERMISSION, "pmcd not running")
        self.pmcd.stats.fetches += 1
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
                return protocol.FetchResponse(
                    status=protocol.PCPStatus.PM_ERR_PMID,
                    generation=self.pmcd.generation,
                    boot_id=self.pmcd.boot_id)
            future = self._loop.create_future()
            queue.put_nowait(_ShardJob(pmids, future))
            futures.append(future)
        if len(futures) == 1:
            # Hot path: a fetch that lands on one shard needs no
            # cross-domain merge — the shard preserved request order.
            result = await futures[0]
            if isinstance(result, protocol.PCPStatus):
                return protocol.FetchResponse(
                    status=result,
                    generation=self.pmcd.generation,
                    boot_id=self.pmcd.boot_id)
            return protocol.FetchResponse(
                status=protocol.PCPStatus.OK,
                timestamp=self.pmcd._timestamp(),
                metrics=tuple(result),
                generation=self.pmcd.generation,
                boot_id=self.pmcd.boot_id)
        results = await asyncio.gather(*futures)
        values_by_pmid: Dict[int, protocol.MetricValues] = {}
        for result in results:
            if isinstance(result, protocol.PCPStatus):
                return protocol.FetchResponse(
                    status=result,
                    generation=self.pmcd.generation,
                    boot_id=self.pmcd.boot_id)
            for metric in result:
                values_by_pmid[metric.pmid] = metric
        return protocol.FetchResponse(
            status=protocol.PCPStatus.OK,
            timestamp=self.pmcd._timestamp(),
            metrics=tuple(values_by_pmid[pmid] for pmid in request.pmids),
            generation=self.pmcd.generation,
            boot_id=self.pmcd.boot_id)

    async def _send(self, writer: asyncio.StreamWriter, response,
                    started: float) -> bool:
        """Apply any scheduled fault, then send. False = close conn."""
        action = self.faults.next_action()
        if action is not None:
            self.stats.bump("faults")
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
        self.stats.bump("responses")
        self.stats.record_latency(time.monotonic() - started)
        return True
