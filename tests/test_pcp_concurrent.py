"""Concurrency: many sync sessions against one live TCP pmcd fabric.

Service invariants under concurrent load:

* no lost or cross-wired responses (every fetch answers exactly the
  PMIDs asked on that connection),
* monotone fetch timestamps per client,
* coalescing invokes the PMDA strictly fewer times than the naive
  per-request count,
* clean shutdown with all sockets closed.
"""

import socket
import threading
import time

import pytest

from repro.machine.config import SUMMIT
from repro.machine.node import Node
from repro.noise import QUIET
from repro.pcp import connect
from repro.pcp.aserver import AsyncPMCDServer
from repro.pcp.faults import FaultInjector
from repro.pcp.pmcd import start_pmcd_for_node
from repro.pmu.events import pcp_metric_name

ALL_METRICS = [pcp_metric_name(channel, write)
               for channel in range(8) for write in (False, True)]


@pytest.fixture
def node():
    return Node(SUMMIT, seed=11, noise=QUIET)


@pytest.fixture
def server(node):
    server = AsyncPMCDServer(start_pmcd_for_node(node)).start_in_thread()
    yield server
    server.stop_in_thread()


def wait_until(condition, seconds=5.0):
    deadline = time.monotonic() + seconds
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


def drive_clients(n_clients, n_fetches, seed, coalesce=True):
    """N sync sessions on threads, each over its own TCP connection.

    Every client resolves the full 16-metric nest set plus one
    client-specific metric, then alternates fetching the shared set
    (coalescible across clients) and its own single PMID (must never
    be answered with another client's response).
    """
    node = Node(SUMMIT, seed=seed, noise=QUIET)
    pmcd = start_pmcd_for_node(node)
    server = AsyncPMCDServer(pmcd, coalesce=coalesce).start_in_thread()
    errors = []
    cross_wired = [0]
    non_monotone = [0]
    lock = threading.Lock()
    barrier = threading.Barrier(n_clients)

    def worker(index):
        own_metric = pcp_metric_name(index % 8, write=bool(index % 2))
        try:
            with connect(server, cache_lookups=True, max_retries=3,
                         backoff_base_seconds=0.005) as session:
                shared_pmids = session.lookup_names(ALL_METRICS)
                own_pmid = session.lookup_names([own_metric])[0]
                barrier.wait(timeout=30)
                last_timestamp = None
                for i in range(n_fetches):
                    pmids = [own_pmid] if i % 2 else shared_pmids
                    values = session.fetch(pmids)
                    timestamp = session.last_fetch_timestamp
                    with lock:
                        if set(values) != set(pmids):
                            cross_wired[0] += 1
                        if (last_timestamp is not None
                                and timestamp < last_timestamp):
                            non_monotone[0] += 1
                    last_timestamp = timestamp
        except Exception as exc:  # surfaced in the report
            with lock:
                errors.append(f"client {index}: {exc!r}")

    threads = [threading.Thread(target=worker, args=(i,), daemon=True)
               for i in range(n_clients)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        hung = sum(thread.is_alive() for thread in threads)
        if hung:
            errors.append(f"{hung} client(s) hung past the join deadline")
        service = server.stats.snapshot()
    finally:
        server.stop_in_thread()
    # Serving each fetch PDU on its own: half the fetches read the
    # 16-metric shared set, half one PMID.
    naive_pmda_calls = n_clients * ((n_fetches - n_fetches // 2)
                                    * len(ALL_METRICS) + n_fetches // 2)
    return {
        "errors": errors,
        "cross_wired": cross_wired[0],
        "non_monotone_timestamps": non_monotone[0],
        "total_fetches": n_clients * n_fetches,
        "connections": service["connections"],
        "coalesced": service["coalesced"],
        "pmda_fetch_calls": pmcd.stats.pmda_fetch_calls,
        "naive_pmda_calls": naive_pmda_calls,
    }


class TestStressRun:
    def test_eight_clients_no_cross_wiring(self):
        report = drive_clients(n_clients=8, n_fetches=12, seed=3)
        assert report["errors"] == []
        assert report["cross_wired"] == 0
        assert report["non_monotone_timestamps"] == 0
        assert report["total_fetches"] == 8 * 12
        assert report["connections"] >= 8

    @pytest.mark.slow
    def test_sixteen_clients_sustained(self):
        report = drive_clients(n_clients=16, n_fetches=64, seed=5)
        assert report["errors"] == []
        assert report["cross_wired"] == 0
        assert report["non_monotone_timestamps"] == 0

    def test_coalescing_disabled_still_correct(self):
        report = drive_clients(n_clients=4, n_fetches=8, seed=7,
                               coalesce=False)
        assert report["errors"] == []
        assert report["cross_wired"] == 0
        assert report["coalesced"] == 0
        # Without coalescing every fetch PDU pays its own PMDA reads.
        assert report["pmda_fetch_calls"] == report["naive_pmda_calls"]


class TestCoalescing:
    def test_concurrent_identical_fetches_share_one_pmda_read(self, node):
        """A slow PMDA read holds the shard while 7 more clients queue
        the same PMIDs; the 7 are then served with ONE shared read —
        32 PMDA calls in all, against a naive 128."""
        n_clients = 8
        faults = FaultInjector()
        server = AsyncPMCDServer(start_pmcd_for_node(node),
                                 fault_injector=faults).start_in_thread()
        contexts = [connect(server) for _ in range(n_clients)]
        try:
            pmids = contexts[0].lookup_names(ALL_METRICS)
            for context in contexts[1:]:
                assert context.lookup_names(ALL_METRICS) == pmids
            calls_before = server.pmcd.stats.pmda_fetch_calls
            coalesced_before = server.stats.snapshot()["coalesced"]
            faults.slow_pmda(1, seconds=0.5)
            results = [None] * n_clients
            errors = []

            def fetch(i):
                try:
                    results[i] = contexts[i].fetch(pmids)
                except Exception as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=fetch, args=(i,))
                       for i in range(n_clients)]
            # The blocker's read stalls on the slow-PMDA fault ...
            threads[0].start()
            assert wait_until(
                lambda: server.stats.snapshot()["faults"] == 1)
            # ... while the other 7 fetches pile up in the shard queue.
            for t in threads[1:]:
                t.start()
            assert wait_until(
                lambda: server.queue_depth() == n_clients - 1)
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
        finally:
            for context in contexts:
                context.close()
            server.stop_in_thread()
        assert not errors
        naive = n_clients * len(pmids)
        actual = server.pmcd.stats.pmda_fetch_calls - calls_before
        assert actual == 2 * len(pmids)   # blocker + one shared read
        assert actual < naive             # strictly fewer than naive
        assert (server.stats.snapshot()["coalesced"] - coalesced_before
                == n_clients - 2)
        # Every client still got its own complete answer.
        for values in results:
            assert set(values) == set(pmids)

    def test_distinct_pmid_sets_not_coalesced(self, server):
        with connect(server) as context:
            pmids = context.lookup_names(ALL_METRICS)
            context.fetch(pmids[:4])
            context.fetch(pmids[4:8])
        assert server.stats.coalesced == 0


class TestTimestampsAndShutdown:
    def test_monotone_timestamps_single_client(self, server, node):
        with connect(server) as context:
            pmids = context.lookup_names(ALL_METRICS[:2])
            stamps = []
            for _ in range(5):
                context.fetch(pmids)
                stamps.append(context.last_fetch_timestamp)
                node.advance(0.5)
        assert stamps == sorted(stamps)

    def test_clean_shutdown_closes_sockets(self, node):
        server = AsyncPMCDServer(start_pmcd_for_node(node)).start_in_thread()
        contexts = [connect(server) for _ in range(4)]
        for context in contexts:
            context.lookup_names(ALL_METRICS[:1])
        address = server.address
        loop_thread = server._thread
        server.stop_in_thread()
        assert server.open_connections == 0
        assert not loop_thread.is_alive()
        with pytest.raises(OSError):
            socket.create_connection(address, timeout=0.5)
        for context in contexts:
            context.close()

    def test_queue_depth_counter_surfaces(self, server):
        with connect(server) as context:
            # The fabric counts queue depth at the shard: a fetch.
            context.fetch(context.lookup_names(ALL_METRICS[:1]))
        snapshot = server.stats.snapshot()
        assert snapshot["max_queue_depth"] >= 1
        assert snapshot["requests"] >= 1
        assert snapshot["latency_max_usec"] >= 0
