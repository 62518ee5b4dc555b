"""Fault injection: the PCP service degrades loudly and recoverably.

Covers the degraded modes introduced by the service layer: dropped
connections, slow responses (client timeout → retry with backoff →
PCPError), truncated PDUs, and daemon restart mid-session (gap flag,
never corrupted counters).
"""

import asyncio

import pytest

from repro.errors import PCPError, PCPTimeout
from repro.machine.config import SUMMIT
from repro.machine.node import Node
from repro.noise import QUIET
from repro.pcp import connect
from repro.pcp.aserver import AsyncPMCDServer
from repro.pcp.faults import FaultInjector, FaultKind
from repro.pcp.pmcd import start_pmcd_for_node
from repro.pmu.events import pcp_metric_name

METRIC = pcp_metric_name(0, write=False)
METRICS = [pcp_metric_name(ch, False) for ch in range(3)]


@pytest.fixture
def node():
    return Node(SUMMIT, seed=21, noise=QUIET)


@pytest.fixture
def faults():
    return FaultInjector()


@pytest.fixture
def server(node, faults):
    server = AsyncPMCDServer(start_pmcd_for_node(node),
                             fault_injector=faults).start_in_thread()
    yield server
    server.stop_in_thread()


class TestFaultInjector:
    def test_fifo_plan(self, faults):
        faults.drop_connections(1)
        faults.slow_responses(2, seconds=0.5)
        assert faults.pending() == 3
        assert faults.next_action().kind is FaultKind.DROP_CONNECTION
        assert faults.next_action().seconds == 0.5
        assert faults.pending() == 1
        assert faults.next_action() is not None
        assert faults.next_action() is None
        assert faults.injected == 3
        faults.truncate_pdus(2)
        assert faults.pending() == 2
        faults.clear()
        assert faults.pending() == 0
        assert faults.next_action() is None
        assert faults.injected == 3  # cleared actions never fired

    def test_empty_plan_is_noop(self, faults):
        assert faults.next_action() is None
        assert faults.injected == 0


class TestDroppedConnection:
    def test_drop_without_reconnect_raises(self, server, faults):
        with connect(server, auto_reconnect=False) as client:
            pmids = client.lookup_names([METRIC])
            faults.drop_connections(1)
            with pytest.raises(PCPError):
                client.fetch(pmids)

    def test_drop_with_reconnect_recovers(self, server, faults):
        with connect(server, auto_reconnect=True, max_retries=3,
                     backoff_base_seconds=0.005) as client:
            pmids = client.lookup_names([METRIC])
            faults.drop_connections(1)
            values = client.fetch(pmids)
            assert set(values) == set(pmids)
            assert client.pmcd.reconnects >= 1
            assert client.pmcd.retries >= 1


class TestTruncatedPDU:
    def test_truncated_pdu_is_pcp_error(self, server, faults):
        with connect(server, auto_reconnect=False) as client:
            faults.truncate_pdus(1)
            with pytest.raises(PCPError):
                client.lookup_names([METRIC])

    def test_truncated_pdu_recovers_with_reconnect(self, server, faults):
        with connect(server, auto_reconnect=True, max_retries=3,
                     backoff_base_seconds=0.005) as client:
            faults.truncate_pdus(1)
            assert client.lookup_names([METRIC])
            assert client.pmcd.reconnects >= 1


class TestTimeoutRetryBackoff:
    def test_timed_out_fetch_retries_then_surfaces_pcp_error(
            self, server, faults):
        with connect(server, request_timeout=0.08, max_retries=2,
                     backoff_base_seconds=0.01,
                     auto_reconnect=False) as client:
            pmids = client.lookup_names([METRIC])
            # Every attempt (1 original + 2 retries) hits a slow
            # response far beyond the request deadline.
            faults.slow_responses(5, seconds=0.5)
            with pytest.raises(PCPTimeout):
                client.fetch(pmids)
            assert client.pmcd.timeouts == 3
            assert client.pmcd.retries == 2

    def test_timeout_then_recovery(self, server, faults):
        with connect(server, request_timeout=0.08, max_retries=2,
                     backoff_base_seconds=0.01,
                     auto_reconnect=False) as client:
            pmids = client.lookup_names([METRIC])
            faults.slow_responses(1, seconds=0.5)  # only the 1st attempt
            values = client.fetch(pmids)
            assert set(values) == set(pmids)
            assert client.pmcd.timeouts == 1
            assert client.pmcd.retries >= 1

    def test_stale_response_never_cross_wires(self, server, faults, node):
        """After a timeout the transport reconnects, so the stale
        response of the timed-out request cannot be mistaken for the
        answer to a later one."""
        with connect(server, request_timeout=0.08, max_retries=2,
                     backoff_base_seconds=0.01,
                     auto_reconnect=False) as client:
            pmids = client.lookup_names([METRIC])
            faults.slow_responses(1, seconds=0.3)
            client.fetch(pmids)  # times out once, retried on a new socket
            for _ in range(5):
                values = client.fetch(pmids)
                assert set(values) == set(pmids)

    def test_timed_out_transport_recovers_without_auto_reconnect(
            self, server, faults):
        """A call that ends in a timeout leaves no poisoned socket
        behind: later calls dial afresh, even with auto_reconnect off,
        and never read the stale responses."""
        with connect(server, request_timeout=0.05, max_retries=1,
                     auto_reconnect=False) as client:
            pmids = client.lookup_names(METRICS)
            faults.slow_responses(2, seconds=0.1)
            with pytest.raises(PCPTimeout):
                client.fetch(pmids)
            for pmid in pmids:
                assert set(client.fetch([pmid])) == {pmid}


class TestAsyncTimeout:
    """An async session that times out drops its connection.

    Regression: the session kept the socket after a timeout, so the
    late reply to the timed-out fetch answered the next one, keyed by
    the wrong PMID.
    """

    def test_late_reply_never_answers_the_next_fetch(self, node):
        faults = FaultInjector()
        pmcd = start_pmcd_for_node(node, round_trip_seconds=0.0)

        async def scenario():
            server = await AsyncPMCDServer(
                pmcd, fault_injector=faults).start()
            try:
                async with connect(server, mode="async",
                                   request_timeout=0.1) as session:
                    pmid_a, pmid_b = await session.lookup_names(METRICS[:2])
                    faults.slow_responses(1, seconds=0.3)
                    with pytest.raises(PCPTimeout):
                        await session.fetch([pmid_a])
                    # Let the late reply reach the client's socket.
                    await asyncio.sleep(0.4)
                    return pmid_b, await session.fetch([pmid_b])
            finally:
                await server.stop()

        pmid_b, values = asyncio.run(scenario())
        assert set(values) == {pmid_b}

    def test_lost_connection_redials_on_the_next_request(self, node):
        faults = FaultInjector()
        pmcd = start_pmcd_for_node(node, round_trip_seconds=0.0)

        async def scenario():
            server = await AsyncPMCDServer(
                pmcd, fault_injector=faults).start()
            try:
                session = connect(server, mode="async", request_timeout=5.0)
                pmids = await session.lookup_names(METRICS)
                faults.drop_connections(1)
                with pytest.raises(PCPError):
                    await session.fetch(pmids)
                values = await session.fetch(pmids)
                await session.close()
                return pmids, values
            finally:
                await server.stop()

        pmids, values = asyncio.run(scenario())
        assert set(values) == set(pmids)


class TestDaemonRestart:
    def test_restart_mid_session_sets_gap_flag(self, server, node, faults):
        client = connect(server, auto_reconnect=True, max_retries=3,
                         backoff_base_seconds=0.005)
        pmids = client.lookup_names([METRIC])
        node.socket(0).record_traffic(read_bytes=8 * 64)
        before = client.fetch(pmids)
        assert not client.gap_detected

        server.restart()

        node.socket(0).record_traffic(read_bytes=8 * 64)
        after = client.fetch(pmids)
        assert client.gap_detected
        assert client.gaps == 1
        # Counters are not corrupted: the nest hardware kept counting
        # through the daemon outage.
        instance = next(iter(before[pmids[0]]))
        assert after[pmids[0]][instance] == 128
        client.close()

    def test_restart_invalidates_lookup_cache(self, node):
        pmcd = start_pmcd_for_node(node)
        client = connect(pmcd, cache_lookups=True)
        client.lookup_names([METRIC])
        assert client.lookup_names([METRIC])  # served from cache
        assert client.cached_lookups == 1
        round_trips = client.round_trips
        pmcd.restart()
        client.fetch(client.lookup_names([METRIC]))  # cache hit, then fetch
        # The fetch observes the new generation; the next lookup must
        # go back to the daemon.
        client.lookup_names([METRIC])
        assert client.round_trips > round_trips + 1

    def test_in_process_restart_gap(self, node):
        pmcd = start_pmcd_for_node(node)
        client = connect(pmcd)
        pmids = client.lookup_names([METRIC])
        client.fetch(pmids)
        pmcd.restart()
        client.fetch(pmids)
        assert client.gaps == 1

    def test_pmlogger_marks_gap_and_rates_skip_it(self, node):
        pmcd = start_pmcd_for_node(node)
        client = connect(pmcd, node=node)
        logger = client.log([METRIC], interval_seconds=1.0)

        node.socket(0).record_traffic(read_bytes=64 * 64)
        logger.sample()
        node.advance(1.0)
        node.socket(0).record_traffic(read_bytes=64 * 64)
        logger.sample()

        pmcd.restart()  # daemon crash between samples

        node.advance(1.0)
        node.socket(0).record_traffic(read_bytes=64 * 64)
        logger.sample()
        node.advance(1.0)
        node.socket(0).record_traffic(read_bytes=64 * 64)
        logger.sample()

        records = logger.archive
        assert [r.gap for r in records] == [False, False, True, False]
        rates = logger.rates(METRIC, "cpu87")
        # 3 intervals, minus the one ending at the gap record.
        assert len(rates) == 2
        for _, rate in rates:
            # The nest counter ticks once per 8-byte word (64*64 bytes
            # -> 512 counts); interval is 1s plus the fetch round trip.
            assert rate == pytest.approx(64 * 64 / 8, rel=0.01)

    def test_stopped_daemon_still_refuses(self, node):
        pmcd = start_pmcd_for_node(node)
        client = connect(pmcd)
        pmcd.running = False
        with pytest.raises(PCPError):
            client.lookup_names([METRIC])
        pmcd.restart()
        assert client.lookup_names([METRIC])
