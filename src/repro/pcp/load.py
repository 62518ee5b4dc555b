"""pcp-load: asyncio load harness for the PMCD fabric.

``pcp-load`` drives the asyncio fabric (:mod:`repro.pcp.aserver`) with
concurrent :class:`~repro.pcp.session.AsyncPcpSession` contexts, each
pipelining fetch PDUs over its own TCP connection, sustained for a
wall-clock window — from a small-N correctness run (``pcp-load
--contexts 16 --duration 2``) to service scale (hundreds of contexts)
— with fault injection running *during* the load:

* **shard-worker kill** — :meth:`AsyncPMCDServer.kill_shard` cancels
  the perfevent shard mid-batch at scheduled points; the supervisor
  must requeue + restart so no client sees an error;
* **slow PMDA** — :meth:`FaultInjector.slow_pmda` stalls scheduled
  PMDA reads, backing up one shard while the fabric keeps serving;
* **dropped connections** — scheduled response-site drops force
  clients through their reconnect path;
* **archive-volume corruption** — a sealed archive volume is
  bit-flipped mid-run and a replay is issued; the daemon must answer
  with a clean error (never corrupt data, never crash).

The harness verifies the service invariants as it goes (no cross-wired
responses, per-context monotone fetch timestamps) and reports client-
observed latency percentiles plus a histogram suitable for the CI
artifact. Latency is recorded per *pipelined batch* and attributed to
each fetch in it — the conservative client-observed bound.

Everything runs on one event loop (server + clients), which is the
honest single-node deployment shape and keeps the run deterministic
enough to gate: throughput is bounded by PDU codec + fabric work, not
scheduler noise across threads.
"""

from __future__ import annotations

import asyncio
import os
import time
from typing import Dict, List, Optional

from ..errors import ArchiveError, PCPError
from ..machine.config import get_machine
from ..machine.node import Node
from ..noise import QUIET
from ..pmu.events import pcp_metric_name
from .archive import ArchiveRecord, MetricArchive
from .aserver import AsyncPMCDServer
from .faults import FaultInjector
from .pmcd import start_pmcd_for_node
from .session import AsyncPcpSession

#: Histogram bucket upper bounds (client-observed latency, usec).
LATENCY_BUCKETS_USEC = (100, 200, 500, 1000, 2000, 5000, 10000,
                        20000, 50000, 100000, 500000)


def percentile_usec(sorted_seconds: List[float], q: float) -> int:
    """The q-quantile (0..1) of a sorted latency sample, in usec."""
    if not sorted_seconds:
        return 0
    index = min(len(sorted_seconds) - 1,
                int(q * (len(sorted_seconds) - 1) + 0.5))
    return int(sorted_seconds[index] * 1e6)


def latency_histogram(seconds: List[float]) -> Dict[str, int]:
    """Bucketed counts keyed ``"<=<bound>us"`` (last bucket ``">..."``)."""
    counts = [0] * (len(LATENCY_BUCKETS_USEC) + 1)
    for value in seconds:
        usec = value * 1e6
        for i, bound in enumerate(LATENCY_BUCKETS_USEC):
            if usec <= bound:
                counts[i] += 1
                break
        else:
            counts[-1] += 1
    out = {f"<={bound}us": counts[i]
           for i, bound in enumerate(LATENCY_BUCKETS_USEC)}
    out[f">{LATENCY_BUCKETS_USEC[-1]}us"] = counts[-1]
    return out


def _seed_archive(path: str, metrics: List[str]) -> MetricArchive:
    """A small multi-volume archive for the corruption scenario."""
    archive = MetricArchive.create(path, volume_records=16)
    value = 0
    for i in range(48):
        value += 1000 + i
        archive.append(ArchiveRecord(
            timestamp=float(i),
            values={(metric, "cpu87"): value + j
                    for j, metric in enumerate(metrics)}))
    archive.rotate()
    return archive


async def _run_load(n_contexts: int, duration_seconds: float,
                    machine: str, seed: int, pipeline_depth: int,
                    pmids_per_fetch: int, coalesce: bool,
                    shard_kills: int, slow_pmda: int,
                    slow_pmda_seconds: float, drop_connections: int,
                    corrupt_archive: bool,
                    archive_dir: Optional[str]) -> Dict[str, object]:
    node = Node(get_machine(machine), seed=seed, noise=QUIET)
    pmcd = start_pmcd_for_node(node, round_trip_seconds=0.0)
    injector = FaultInjector()
    if slow_pmda:
        injector.slow_pmda(slow_pmda, seconds=slow_pmda_seconds)
    if drop_connections:
        injector.drop_connections(drop_connections)

    n_channels = node.config.socket.n_memory_channels
    all_metrics = [pcp_metric_name(channel, write)
                   for channel in range(n_channels)
                   for write in (False, True)]
    metrics = all_metrics[:max(1, pmids_per_fetch)]

    archive = None
    archive_result: Optional[str] = None
    if corrupt_archive:
        archive = _seed_archive(
            os.path.join(archive_dir or ".", "pcp-load-archive"),
            metrics)
        pmcd.attach_archive(archive)

    server = await AsyncPMCDServer(
        pmcd, fault_injector=injector, coalesce=coalesce).start()
    perfevent_domain = pmcd.agents[0].domain

    latencies: List[float] = []
    errors: List[str] = []
    cross_wired = [0]
    non_monotone = [0]
    reconnects = [0]
    unrecovered = [0]
    fetches = [0]

    sessions = [AsyncPcpSession(server.address, request_timeout=30.0)
                for _ in range(n_contexts)]
    try:
        await asyncio.gather(*(session.open() for session in sessions))
        # The first served response can already eat an armed drop
        # fault — resolve names through the same reconnect path the
        # workers use rather than dying before the run starts.
        for attempt in range(1 + drop_connections):
            try:
                pmids = tuple(await sessions[0].lookup_names(metrics))
                break
            except (PCPError, OSError):
                await sessions[0].close()
                await sessions[0].open()
                reconnects[0] += 1
        else:
            pmids = tuple(await sessions[0].lookup_names(metrics))
    except BaseException:
        await asyncio.gather(*(session.close() for session in sessions),
                             return_exceptions=True)
        await server.stop()
        if archive is not None:
            archive.close()
        raise
    batch = [pmids] * max(1, pipeline_depth)
    stop_at = time.monotonic() + duration_seconds

    async def worker(index: int, session: AsyncPcpSession) -> None:
        last_timestamp = None
        while time.monotonic() < stop_at:
            started = time.monotonic()
            try:
                results = await session.fetch_many(batch)
            except (PCPError, OSError):
                # Dropped connection (fault injection / restart):
                # redial and resume — the client-side recovery path.
                try:
                    await session.close()
                    await session.open()
                    reconnects[0] += 1
                    continue
                except (PCPError, OSError) as exc:
                    errors.append(f"context {index}: {exc!r}")
                    unrecovered[0] += 1
                    return
            elapsed = time.monotonic() - started
            for values in results:
                if set(values) != set(pmids):
                    cross_wired[0] += 1
                latencies.append(elapsed)
            timestamp = session.last_fetch_timestamp
            if last_timestamp is not None and timestamp is not None \
                    and timestamp < last_timestamp:
                non_monotone[0] += 1
            last_timestamp = timestamp
            fetches[0] += len(results)

    async def chaos() -> None:
        for i in range(shard_kills):
            await asyncio.sleep(duration_seconds / (shard_kills + 1))
            server.kill_shard(perfevent_domain)

    started_at = time.monotonic()
    try:
        tasks = [asyncio.ensure_future(worker(i, session))
                 for i, session in enumerate(sessions)]
        tasks.append(asyncio.ensure_future(chaos()))
        await asyncio.gather(*tasks)
        elapsed = time.monotonic() - started_at

        if corrupt_archive and archive is not None:
            # Bit-flip a sealed volume, then replay: the daemon must
            # refuse with a clean error rather than serve corrupt data.
            volume_path = os.path.join(archive.path,
                                       archive.volumes[0].name)
            with open(volume_path, "r+b") as fh:
                fh.seek(20)
                byte = fh.read(1)
                fh.seek(20)
                fh.write(bytes([byte[0] ^ 0xFF]))
            try:
                await sessions[0].fetch_archive(metrics)
                archive_result = "undetected"  # corrupt data served: BAD
            except (ArchiveError, PCPError):
                archive_result = "detected"
    finally:
        await asyncio.gather(*(session.close() for session in sessions),
                             return_exceptions=True)
        await server.stop()
        if archive is not None:
            archive.close()

    latencies.sort()
    service = server.stats.snapshot()
    daemon = pmcd.stats.snapshot()
    total = fetches[0]
    return {
        "contexts": n_contexts,
        "duration_seconds": round(elapsed, 3),
        "pipeline_depth": pipeline_depth,
        "pmids_per_fetch": len(pmids),
        "total_fetches": total,
        "fetches_per_second": int(total / elapsed) if elapsed else 0,
        "latency_p50_usec": percentile_usec(latencies, 0.50),
        "latency_p90_usec": percentile_usec(latencies, 0.90),
        "latency_p99_usec": percentile_usec(latencies, 0.99),
        "latency_max_usec": (int(latencies[-1] * 1e6)
                             if latencies else 0),
        "latency_histogram": latency_histogram(latencies),
        "cross_wired": cross_wired[0],
        "non_monotone_timestamps": non_monotone[0],
        "errors": errors,
        "client_reconnects": reconnects[0],
        "unrecovered_faults": unrecovered[0],
        "coalesced": service["coalesced"],
        "batches": service["batches"],
        "max_queue_depth": service["max_queue_depth"],
        "shard_kills": service["shard_kills"],
        "shard_restarts": service["shard_restarts"],
        "requeued_jobs": service["requeued_jobs"],
        "faults_injected": service["faults"],
        "pmda_fetch_calls": daemon["pmda_fetch_calls"],
        "archive_corruption": archive_result,
    }


def run_load(n_contexts: int = 256, duration_seconds: float = 5.0,
             machine: str = "summit", seed: int = 1,
             pipeline_depth: int = 8, pmids_per_fetch: int = 4,
             coalesce: bool = True, shard_kills: int = 0,
             slow_pmda: int = 0, slow_pmda_seconds: float = 0.02,
             drop_connections: int = 0, corrupt_archive: bool = False,
             archive_dir: Optional[str] = None) -> Dict[str, object]:
    """Run the load scenario and return a flat stats report.

    ``n_contexts`` async client sessions pipeline ``pipeline_depth``
    fetches of ``pmids_per_fetch`` metrics each against a fresh
    fabric for ``duration_seconds``. Fault counts arm the injector /
    chaos schedule described in the module docstring.
    """
    return asyncio.run(_run_load(
        n_contexts=n_contexts, duration_seconds=duration_seconds,
        machine=machine, seed=seed, pipeline_depth=pipeline_depth,
        pmids_per_fetch=pmids_per_fetch, coalesce=coalesce,
        shard_kills=shard_kills, slow_pmda=slow_pmda,
        slow_pmda_seconds=slow_pmda_seconds,
        drop_connections=drop_connections,
        corrupt_archive=corrupt_archive, archive_dir=archive_dir))


def healthy(report: Dict[str, object]) -> bool:
    """True when the run upheld every service invariant."""
    return (not report["errors"]
            and report["cross_wired"] == 0
            and report["non_monotone_timestamps"] == 0
            and report["unrecovered_faults"] == 0
            and report["archive_corruption"] in (None, "detected"))
