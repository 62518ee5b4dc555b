"""The ``pcp.connect()`` session surface.

One entry point serves every deployment shape: in-process daemons,
TCP servers and the asyncio client (the golden figures pin the
measurement path itself).
"""

import asyncio
import time
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.errors import ArchiveError, PCPError
from repro.machine.config import SUMMIT
from repro.machine.node import Node
from repro.noise import QUIET
from repro.pcp import connect
from repro.pcp.archive import ArchiveRecord, MetricArchive
from repro.pcp.aserver import AsyncPMCDServer
from repro.pcp.pmcd import start_pmcd_for_node
from repro.pcp.pmda import make_pmid
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


def _logged_archive(session, pmcd, tmp_path, samples):
    """Log ``samples`` records of :data:`METRICS` into an archive the
    daemon serves; returns the logger."""
    store = MetricArchive.create(str(tmp_path / "arch"))
    logger = session.log(METRICS, interval_seconds=0.5, store=store)
    logger.run(samples)
    pmcd.attach_archive(store)
    return logger


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

    def test_fetch_archive_replays_200_samples(self, pmcd, node,
                                               tmp_path):
        session = connect(pmcd, node=node)
        logger = _logged_archive(session, pmcd, tmp_path, 200)
        replay = session.fetch_archive(METRICS)
        assert len(replay) == 200
        assert replay == logger.archive

    @pytest.mark.slow
    def test_archive_replay_rate_floor(self, pmcd, node, tmp_path):
        """At least 2,000 records/s, best of three replays (about
        76,000/s on a 2-vCPU host)."""
        session = connect(pmcd, node=node)
        _logged_archive(session, pmcd, tmp_path, 200)
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            session.fetch_archive(METRICS)
            best = min(best, time.perf_counter() - t0)
        assert 200 / best >= 2000

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

        async def go():
            async with connect(pmcd, mode="async") as asession:
                return await asession.fetch_archive([METRIC])

        with MetricArchive.create(str(tmp_path / "arch")) as store:
            logger = session.log([METRIC], store=store)
            logger.run(3)
            pmcd.attach_archive(store)
            assert self.run(go()) == logger.archive

    def test_daemon_overhead_keys(self, pmcd, node):
        session = connect(pmcd, node=node)
        session.fetch_one(METRIC, "cpu87")
        info = session.daemon_overhead()
        assert info["round_trips"] == session.round_trips
        assert "pmcd.fetches" in info


# ------------------------------------------------- sync/async parity


PARITY_METRICS = METRICS + [pcp_metric_name(7, True)]
#: Names a lookup may ask for: perfevent and self metrics, one unknown.
PARITY_NAMES = PARITY_METRICS + ["pmcd.requests.total",
                                 "pmcd.fetch.pmda_calls", "no.such.metric"]
PARITY_PREFIXES = ["", "perfevent", "perfevent.hwcounters", "pmcd",
                   "pmcd.fetch", "no.such", METRIC]
PARITY_INSTANCES = ["cpu87", "cpu175", "pmcd", "cpu999"]


def _names(pool):
    return st.lists(st.sampled_from(pool), max_size=3)


def _parity_ops(names):
    """Session calls and daemon events; ``names`` feed every call that
    names metrics (a fetch sends their PMIDs)."""
    return st.lists(st.one_of(
        st.tuples(st.just("lookup_names"), _names(names)),
        st.tuples(st.just("fetch"), _names(names)),
        st.tuples(st.just("fetch_one"), st.sampled_from(names),
                  st.sampled_from(PARITY_INSTANCES)),
        st.tuples(st.just("children"), st.sampled_from(PARITY_PREFIXES)),
        st.tuples(st.just("traverse"), st.sampled_from(PARITY_PREFIXES)),
        st.tuples(st.just("fetch_archive"), _names(PARITY_METRICS)),
        st.tuples(st.just("handshake")),
        st.tuples(st.just("attach_archive")),
        st.tuples(st.just("restart")),
        st.tuples(st.just("traffic"), st.integers(0, 1),
                  st.integers(1, 64)),
    ), min_size=1, max_size=14)


#: Every kind of op at least once, a restart between cached lookups.
_PARITY_EXAMPLE = [
    ("handshake",), ("lookup_names", [METRIC]), ("traffic", 0, 3),
    ("fetch", [METRIC, "no.such.metric"]), ("fetch", METRICS[:2]),
    ("fetch_one", METRIC, "cpu87"), ("fetch_one", METRIC, "cpu999"),
    ("children", "perfevent"), ("children", "no.such"),
    ("traverse", "perfevent"), ("traverse", "no.such"),
    ("fetch_archive", [METRIC]), ("attach_archive",),
    ("fetch_archive", [METRIC]), ("restart",), ("lookup_names", [METRIC]),
    ("fetch", [METRIC]), ("lookup_names", [METRIC]),
]


def _call(op, pmcd):
    """(session method, arguments) for one session op."""
    name, *args = op
    if name == "fetch":
        pmids = []
        for metric in args[0]:
            try:
                pmids.append(pmcd.pmns.lookup(metric))
            except PCPError:
                pmids.append(make_pmid(99, 1))  # no agent serves it
        args = [pmids]
    return name, args


class _Twin:
    """One daemon and its node (and, over TCP, its fabric)."""

    def __init__(self, seed, archive):
        self.node = Node(SUMMIT, seed=seed, noise=QUIET)
        self.pmcd = start_pmcd_for_node(self.node)
        self.archive = archive
        self.server = None

    def event(self, op):
        """Apply a daemon or node event; False for a session call."""
        name, *args = op
        if name == "restart":
            (self.server or self.pmcd).restart()
        elif name == "attach_archive":
            self.pmcd.attach_archive(self.archive)
        elif name == "traffic":
            self.node.socket(args[0]).record_traffic(
                read_bytes=8 * 64 * args[1], write_bytes=8 * 64)
        else:
            return False
        return True


def _outcome(call):
    try:
        return ("ok", call())
    except PCPError as exc:
        return ("raised", type(exc).__name__)


async def _async_outcome(call):
    try:
        return ("ok", await call())
    except PCPError as exc:
        return ("raised", type(exc).__name__)


def _state(session, node):
    return (session.round_trips, session.cached_lookups, session.gaps,
            session.protocol_version, session.last_fetch_timestamp,
            node.clock)


@pytest.fixture(scope="module")
def parity_archives(tmp_path_factory):
    """Two archives with the same records, one per twin daemon."""
    archives = []
    for side in ("sync", "async"):
        archive = MetricArchive.create(
            str(tmp_path_factory.mktemp("parity") / side))
        for i in range(4):
            archive.append(ArchiveRecord(
                timestamp=0.5 * i,
                values={(metric, "cpu87"): 1000 * i + j
                        for j, metric in enumerate(PARITY_METRICS)},
                gap=i == 2))
        archives.append(archive)
    yield archives
    for archive in archives:
        archive.close()


class TestSyncAsyncParity:
    """The sync and async sessions run the same exchanges: one random
    sequence of calls and daemon events gives the same answers, errors
    and client accounting through both."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @example(ops=_PARITY_EXAMPLE, cache_lookups=True, seed=5)
    @given(ops=_parity_ops(PARITY_NAMES), cache_lookups=st.booleans(),
           seed=st.integers(0, 2**16))
    def test_in_process_twins_agree(self, parity_archives, ops,
                                    cache_lookups, seed):
        sync, asyn = (_Twin(seed, archive) for archive in parity_archives)
        session = connect(sync.pmcd, node=sync.node,
                          cache_lookups=cache_lookups)
        asession = connect(asyn.pmcd, mode="async", node=asyn.node,
                           cache_lookups=cache_lookups)
        loop = asyncio.new_event_loop()
        try:
            for op in ops:
                if sync.event(op):
                    asyn.event(op)
                    continue
                name, args = _call(op, sync.pmcd)
                want = _outcome(lambda: getattr(session, name)(*args))
                got = loop.run_until_complete(_async_outcome(
                    lambda: getattr(asession, name)(*args)))
                assert got == want, op
                assert (_state(asession, asyn.node)
                        == _state(session, sync.node)), op
        finally:
            loop.close()

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @example(ops=_PARITY_EXAMPLE, cache_lookups=False, seed=5)
    @given(ops=_parity_ops(PARITY_METRICS + ["no.such.metric"]),
           cache_lookups=st.booleans(), seed=st.integers(0, 2**16))
    def test_over_the_fabric_twins_answer_alike(self, parity_archives, ops,
                                                cache_lookups, seed):
        """Over TCP only the answers compare: an async traverse there
        charges one round trip per PDU, a sync one a single trip."""
        sync, asyn = (_Twin(seed, archive) for archive in parity_archives)
        loop = asyncio.new_event_loop()
        try:
            for twin in (sync, asyn):
                twin.server = AsyncPMCDServer(twin.pmcd).start_in_thread()
            session = connect(sync.server, node=sync.node,
                              cache_lookups=cache_lookups)
            asession = connect(asyn.server, mode="async", node=asyn.node,
                               cache_lookups=cache_lookups)
            for op in ops:
                if sync.event(op):
                    asyn.event(op)
                    if op[0] == "restart":
                        # The sync transport redials by itself
                        # (auto_reconnect); the async session would
                        # raise once on the dropped socket, so close it
                        # and let its next request dial afresh.
                        loop.run_until_complete(asession.close())
                    continue
                name, args = _call(op, sync.pmcd)
                want = _outcome(lambda: getattr(session, name)(*args))
                got = loop.run_until_complete(_async_outcome(
                    lambda: getattr(asession, name)(*args)))
                assert got == want, op
            session.close()
            loop.run_until_complete(asession.close())
        finally:
            loop.close()
            for twin in (sync, asyn):
                if twin.server is not None:
                    twin.server.stop_in_thread()
