"""The asyncio multi-tenant PMCD fabric.

Covers the fabric's service invariants directly — shard coalescing,
supervisor-driven worker recovery, the v2 handshake and archive
serving over TCP, fetch accounting on the daemon's counters — plus the
disconnect-accounting regression.
"""

import asyncio

import pytest

from repro.counters import Counters
from repro.machine.config import SUMMIT
from repro.machine.node import Node
from repro.noise import QUIET
from repro.pcp import connect, protocol
from repro.pcp.archive import MetricArchive
from repro.pcp.aserver import AsyncPMCDServer
from repro.pcp.faults import FaultInjector
from repro.pcp.pmcd import start_pmcd_for_node
from repro.pmu.events import pcp_metric_name

METRIC = pcp_metric_name(0, write=False)
METRICS = [pcp_metric_name(ch, write) for ch in range(2)
           for write in (False, True)]


@pytest.fixture
def node():
    return Node(SUMMIT, seed=11, noise=QUIET)


@pytest.fixture
def pmcd(node):
    return start_pmcd_for_node(node, round_trip_seconds=0.0)


async def drain_disconnects(server):
    """Give connection handlers a moment to observe client closes."""
    for _ in range(100):
        stats = server.stats.snapshot()
        if stats["disconnects"] >= stats["connections"]:
            return stats
        await asyncio.sleep(0.01)
    return server.stats.snapshot()


def run_fabric(pmcd, coro_factory, **server_kwargs):
    """Start a fabric in a fresh loop, run the coroutine, tear down."""
    async def main():
        server = await AsyncPMCDServer(pmcd, **server_kwargs).start()
        try:
            return await coro_factory(server)
        finally:
            await server.stop()

    return asyncio.run(main())


class TestFabricBasics:
    def test_fetch_over_tcp(self, pmcd):
        async def scenario(server):
            async with connect(server, mode="async") as session:
                pmids = await session.lookup_names(METRICS)
                values = await session.fetch(pmids)
                assert set(values) == set(pmids)
            return await drain_disconnects(server)

        stats = run_fabric(pmcd, scenario)
        assert stats["connections"] == 1
        assert stats["disconnects"] == 1
        assert stats["responses"] == 2

    def test_handshake_and_archive_over_tcp(self, pmcd, node, tmp_path):
        async def scenario(server):
            async with connect(server, mode="async") as session:
                assert (await session.handshake()
                        == protocol.PROTOCOL_VERSION)
                return await session.fetch_archive([METRIC])

        with MetricArchive.create(str(tmp_path / "arch")) as store:
            logger = connect(pmcd, node=node).log([METRIC], store=store)
            logger.run(3)
            pmcd.attach_archive(store)
            assert run_fabric(pmcd, scenario) == logger.archive

    def test_concurrent_sessions_not_cross_wired(self, pmcd):
        async def scenario(server):
            sessions = [connect(server, mode="async") for _ in range(16)]
            await asyncio.gather(*(s.open() for s in sessions))
            pmids = await sessions[0].lookup_names(METRICS)

            async def one(session, want):
                values = await session.fetch(want)
                assert set(values) == set(want)

            await asyncio.gather(*(
                one(s, pmids if i % 2 else pmids[:1])
                for i, s in enumerate(sessions)))
            await asyncio.gather(*(s.close() for s in sessions))
            return server.stats.snapshot()

        stats = run_fabric(pmcd, scenario)
        assert stats["connections"] == 16

    def test_coalescing_shares_pmda_reads(self, pmcd):
        async def scenario(server):
            sessions = [connect(server, mode="async") for _ in range(8)]
            await asyncio.gather(*(s.open() for s in sessions))
            pmids = await sessions[0].lookup_names(METRICS)
            await asyncio.gather(*(s.fetch(pmids) for s in sessions))
            await asyncio.gather(*(s.close() for s in sessions))
            return server.stats.snapshot()

        stats = run_fabric(pmcd, scenario)
        assert stats["coalesced"] > 0
        # Coalesced fetches never cost extra PMDA reads.
        assert pmcd.stats.pmda_fetch_calls < 9 * len(METRICS)

    def test_unknown_domain_is_clean_error(self, pmcd):
        async def scenario(server):
            async with connect(server, mode="async") as session:
                bogus = 99 << 22 | 1
                with pytest.raises(Exception):
                    await session.fetch([bogus])

        run_fabric(pmcd, scenario)

    def test_one_fetch_moves_the_daemon_counters_once(self, pmcd):
        """A fetch the fabric serves is counted by the daemon exactly as
        an in-process one: one request, one fetch, one PMDA read per
        PMID."""
        async def scenario(server):
            async with connect(server, mode="async") as session:
                pmids = await session.lookup_names(METRICS)
                before = pmcd.stats.snapshot()
                await session.fetch(pmids)
                after = pmcd.stats.snapshot()
            return {key: after[key] - before[key] for key in after}

        moved = run_fabric(pmcd, scenario)
        assert moved["fetches"] == 1
        assert moved["requests"] == 1
        assert moved["pmda_fetch_calls"] == len(METRICS)


class TestShardRecovery:
    def test_kill_shard_restarts_and_serves(self, pmcd):
        domain = pmcd.agents[0].domain

        async def scenario(server):
            async with connect(server, mode="async") as session:
                pmids = await session.lookup_names(METRICS)
                await session.fetch(pmids)
                assert server.kill_shard(domain)
                await asyncio.sleep(0)
                values = await session.fetch(pmids)
                assert set(values) == set(pmids)
                return server.stats.snapshot()

        stats = run_fabric(pmcd, scenario)
        assert stats["shard_kills"] == 1
        assert stats["shard_restarts"] >= 1

    def test_kill_unknown_shard_returns_false(self, pmcd):
        async def scenario(server):
            return server.kill_shard(12345)

        assert run_fabric(pmcd, scenario) is False

    def test_slow_pmda_stalls_but_serves(self, pmcd):
        injector = FaultInjector()
        injector.slow_pmda(1, seconds=0.01)

        async def scenario(server):
            async with connect(server, mode="async") as session:
                pmids = await session.lookup_names(METRICS)
                values = await session.fetch(pmids)
                assert set(values) == set(pmids)
                return server.stats.snapshot()

        stats = run_fabric(pmcd, scenario, fault_injector=injector)
        assert stats["faults"] == 1
        assert injector.pending() == 0

    def test_stop_with_shards_killed_does_not_hang(self, pmcd):
        # Regression: a supervisor that swallowed external cancellation
        # wedged asyncio.run teardown whenever the run aborted early.
        domain = pmcd.agents[0].domain

        async def scenario(server):
            server.kill_shard(domain)
            await asyncio.sleep(0)

        run_fabric(pmcd, scenario)


class TestThreadedHosting:
    def test_sync_clients_against_threaded_fabric(self, pmcd, node):
        server = AsyncPMCDServer(pmcd).start_in_thread()
        try:
            with connect(server, node=node) as session:
                assert session.fetch_one(METRIC, "cpu87") >= 0
                assert session.handshake() == protocol.PROTOCOL_VERSION
        finally:
            server.stop_in_thread()

    def test_restart_bumps_boot_id(self, pmcd, node):
        server = AsyncPMCDServer(pmcd).start_in_thread()
        try:
            with connect(server, node=node) as session:
                session.fetch_one(METRIC, "cpu87")
                server.restart()
                session.fetch_one(METRIC, "cpu87")
                assert session.gap_detected
        finally:
            server.stop_in_thread()

    def test_restart_from_another_thread_has_run_on_return(
            self, pmcd, node):
        server = AsyncPMCDServer(pmcd).start_in_thread()
        try:
            with connect(server, node=node) as session:
                session.fetch_one(METRIC, "cpu87")
                for _ in range(50):
                    before = pmcd.boot_id
                    server.restart()
                    assert pmcd.boot_id == before + 1
        finally:
            server.stop_in_thread()


class TestDisconnectAccounting:
    """One disconnect per socket close.

    Regression: the drop-connection fault path and the reader-loop
    unwind both unregistered the same socket, double-counting
    disconnects.
    """

    def test_fabric_counts_drop_once(self, pmcd):
        injector = FaultInjector()
        injector.drop_connections(1)

        async def scenario(server):
            session = connect(server, mode="async", request_timeout=5.0)
            await session.open()
            done = 0
            while done < 3:
                try:
                    pmids = await session.lookup_names(METRICS)
                    await session.fetch(pmids)
                    done += 1
                except Exception:
                    # The drop fault can hit any response, including
                    # the lookup: redial and retry.
                    await session.close()
                    await session.open()
            await session.close()
            return await drain_disconnects(server)

        stats = run_fabric(pmcd, scenario, fault_injector=injector)
        assert stats["faults"] == 1
        assert stats["disconnects"] == stats["connections"]


class TestCounters:
    def test_counts_by_attribute_and_snapshot(self):
        stats = Counters("requests", "errors")
        stats.requests += 2
        assert stats.errors == 0
        assert stats.snapshot() == {"requests": 2, "errors": 0}

    def test_latency_accounting(self):
        stats = Counters("requests", latency=True)
        assert stats.snapshot()["latency_avg_usec"] == 0
        stats.record_latency(0.001)
        stats.record_latency(0.003)
        snap = stats.snapshot()
        assert snap["latency_avg_usec"] == 2000
        assert snap["latency_max_usec"] == 3000
