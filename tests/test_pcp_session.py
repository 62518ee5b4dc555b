"""The ``pcp.connect()`` session surface.

One entry point serves every deployment shape: in-process daemons,
TCP servers and the asyncio client (the golden figures pin the
measurement path itself).
"""

import asyncio
import warnings

import pytest

from repro.errors import ArchiveError, PCPError
from repro.machine.config import SUMMIT
from repro.machine.node import Node
from repro.noise import QUIET
from repro.pcp import connect
from repro.pcp.archive import MetricArchive
from repro.pcp.aserver import AsyncPMCDServer
from repro.pcp.pmcd import start_pmcd_for_node
from repro.pcp.protocol import (
    PROTOCOL_VERSION,
    ErrorResponse,
    PCPStatus,
)
from repro.pcp.session import (
    AsyncPcpSession,
    PcpSession,
    RemoteTransport,
    SessionLogger,
)
from repro.pmu.events import pcp_metric_name

METRIC = pcp_metric_name(0, write=False)
METRICS = [pcp_metric_name(ch, write) for ch in range(2)
           for write in (False, True)]


@pytest.fixture
def node():
    return Node(SUMMIT, seed=7, noise=QUIET)


@pytest.fixture
def pmcd(node):
    return start_pmcd_for_node(node, round_trip_seconds=0.0)


class TestConnect:
    def test_in_process_sync(self, pmcd, node):
        session = connect(pmcd, node=node)
        assert isinstance(session, PcpSession)
        pmids = session.lookup_names([METRIC])
        assert set(session.fetch(pmids)) == set(pmids)

    def test_server_object_dials_tcp(self, pmcd):
        server = AsyncPMCDServer(pmcd).start_in_thread()
        try:
            with connect(server) as session:
                assert isinstance(session.pmcd, RemoteTransport)
                assert session.fetch_one(METRIC, "cpu87") >= 0
        finally:
            server.stop_in_thread()

    def test_host_port_string(self, pmcd):
        server = AsyncPMCDServer(pmcd).start_in_thread()
        try:
            with connect("%s:%d" % server.address) as session:
                assert session.traverse("pmcd")
        finally:
            server.stop_in_thread()

    def test_async_mode_returns_async_session(self, pmcd):
        session = connect(pmcd, mode="async")
        assert isinstance(session, AsyncPcpSession)

    def test_unknown_mode_rejected(self, pmcd):
        with pytest.raises(PCPError):
            connect(pmcd, mode="telepathy")

    def test_bad_address_rejected(self):
        with pytest.raises(PCPError):
            connect("localhost")  # no port

    def test_unconnectable_target_rejected(self):
        with pytest.raises(PCPError):
            connect(object())

    def test_handshake_negotiates_v2(self, pmcd, node):
        session = connect(pmcd, node=node)
        assert session.protocol_version is None
        assert session.handshake() == PROTOCOL_VERSION
        assert session.protocol_version == PROTOCOL_VERSION

    def test_handshake_falls_back_to_v1(self, node):
        class V1Daemon:
            round_trip_seconds = 0.0

            def handle(self, request):
                # Seed daemons reject the unknown OpenRequest type.
                return ErrorResponse(status=PCPStatus.PM_ERR_PMID,
                                     detail="unknown request type")

        session = PcpSession(V1Daemon(), node=node)
        assert session.handshake() == 1
        assert session.protocol_version == 1


class TestDeprecatedShims:
    def test_session_classes_do_not_warn(self, pmcd, node):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            session = PcpSession(pmcd, node=node)
            SessionLogger(session, [METRIC])


class TestSessionLoggerStore:
    def test_log_mirrors_into_archive(self, pmcd, node, tmp_path):
        session = connect(pmcd, node=node)
        with MetricArchive.create(str(tmp_path / "arch")) as store:
            logger = session.log([METRIC], interval_seconds=0.5,
                                 store=store)
            node.socket(0).record_traffic(read_bytes=64 * 1000)
            logger.run(3)
            assert store.records() == logger.archive

    def test_fetch_archive_replays_live_samples(self, pmcd, node,
                                                tmp_path):
        """Replay through the daemon is byte-identical to the live
        logger's records — the tentpole acceptance criterion."""
        session = connect(pmcd, node=node)
        store = MetricArchive.create(str(tmp_path / "arch"))
        logger = session.log([METRIC], interval_seconds=0.5, store=store)
        node.socket(0).record_traffic(read_bytes=64 * 500)
        logger.run(4)
        pmcd.attach_archive(store)
        assert session.fetch_archive([METRIC]) == logger.archive
        # Windowed replay filters identically too.
        t_mid = logger.archive[1].timestamp
        assert session.fetch_archive([METRIC], t0=t_mid) == \
            logger.archive[1:]

    def test_fetch_archive_without_archive_raises(self, pmcd, node):
        session = connect(pmcd, node=node)
        with pytest.raises(ArchiveError):
            session.fetch_archive([METRIC])

    def test_logger_session_alias(self, pmcd, node):
        session = connect(pmcd, node=node)
        logger = session.log([METRIC])
        assert logger.session is session


class TestAsyncSession:
    def run(self, coro):
        return asyncio.run(coro)

    def test_in_process_surface(self, pmcd, node):
        async def go():
            session = connect(pmcd, mode="async", node=node)
            async with session:
                assert await session.handshake() == PROTOCOL_VERSION
                pmids = await session.lookup_names([METRIC])
                values = await session.fetch(pmids)
                assert set(values) == set(pmids)
                assert await session.fetch_one(METRIC, "cpu87") >= 0
                names = await session.traverse("pmcd")
                assert all(name.startswith("pmcd") for name in names)
                return session.round_trips

        assert self.run(go()) > 0

    def test_fetch_many_pipelines(self, pmcd):
        async def go():
            async with connect(pmcd, mode="async") as session:
                pmids = await session.lookup_names(METRICS)
                results = await session.fetch_many([pmids, pmids[:2]])
                assert [set(r) for r in results] == [set(pmids),
                                                     set(pmids[:2])]

        self.run(go())

    def test_archive_replay_async(self, pmcd, node, tmp_path):
        session = connect(pmcd, node=node)
        store = MetricArchive.create(str(tmp_path / "arch"))
        logger = session.log([METRIC], store=store)
        logger.run(3)
        pmcd.attach_archive(store)

        async def go():
            async with connect(pmcd, mode="async") as asession:
                return await asession.fetch_archive([METRIC])

        assert self.run(go()) == logger.archive

    def test_daemon_overhead_keys(self, pmcd, node):
        session = connect(pmcd, node=node)
        session.fetch_one(METRIC, "cpu87")
        info = session.daemon_overhead()
        assert info["round_trips"] == session.round_trips
        assert "pmcd.fetches" in info
