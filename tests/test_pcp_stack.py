"""PMDA, PMCD daemon and client context — the full PCP path."""

import pytest

from repro.errors import PCPError
from repro.machine.config import SUMMIT
from repro.machine.node import Node
from repro.noise import QUIET
from repro.pcp import connect
from repro.pcp.pmcd import start_pmcd_for_node
from repro.pcp.pmda import PerfeventPMDA, make_pmid, pmid_domain
from repro.pcp.protocol import (
    ChildrenRequest,
    FetchRequest,
    LookupRequest,
    PCPStatus,
)


@pytest.fixture
def node():
    return Node(SUMMIT, seed=2, noise=QUIET)


@pytest.fixture
def pmcd(node):
    return start_pmcd_for_node(node)


class TestPmid:
    def test_roundtrip(self):
        pmid = make_pmid(127, 42)
        assert pmid_domain(pmid) == 127

    def test_range_checks(self):
        with pytest.raises(PCPError):
            make_pmid(1000, 0)
        with pytest.raises(PCPError):
            make_pmid(1, 1 << 23)


class TestPerfeventPMDA:
    def test_metric_table_covers_all_channels(self, node):
        pmda = PerfeventPMDA(node)
        names = [n for n, _ in pmda.metric_table()]
        assert len(names) == 16
        assert ("perfevent.hwcounters.nest_mba0_imc."
                "PM_MBA0_READ_BYTES.value") in names

    def test_fetch_has_instance_per_socket(self, node):
        pmda = PerfeventPMDA(node)
        pmid = pmda.metric_table()[0][1]
        values = pmda.fetch(pmid)
        assert set(values) == {"cpu87", "cpu175"}

    def test_fetch_reads_privileged_despite_user(self, node):
        # The user on Summit is unprivileged; the PMDA is not.
        assert not node.user_privileged
        pmda = PerfeventPMDA(node)
        node.socket(0).record_traffic(read_bytes=8 * 64)
        pmid = pmda.metric_table()[0][1]
        assert pmda.fetch(pmid)["cpu87"] == 64

    def test_fetch_unknown_pmid(self, node):
        pmda = PerfeventPMDA(node)
        with pytest.raises(PCPError):
            pmda.fetch(make_pmid(127, 9999))

    def test_every_pmid_and_instance_reads_its_counter(self, node):
        # Distinct read and write traffic on each socket, so a PMID or
        # an instance wired to the wrong counter reads a wrong value.
        node.socket(0).record_traffic(read_bytes=8 * 64,
                                      write_bytes=2 * 8 * 64)
        node.socket(1).record_traffic(read_bytes=3 * 8 * 64 + 64,
                                      write_bytes=5 * 8 * 64 + 3 * 64)
        pmda = PerfeventPMDA(node)
        instances = dict(zip(("cpu87", "cpu175"), node.sockets))
        seen = set()
        for name, pmid in pmda.metric_table():
            event = name.split(".")[3]  # PM_MBA<ch>_<READ|WRITE>_BYTES
            values = pmda.fetch(pmid)
            assert values == {
                instance: socket.nest.read_event(event, privileged=True)
                for instance, socket in instances.items()}
            seen.update((instance, event.endswith("WRITE_BYTES"), value)
                        for instance, value in values.items())
        assert len(pmda.metric_table()) == 16
        # Both directions on both sockets, with values that tell them
        # apart.
        assert len({value for _, _, value in seen}) >= 4
        assert {(i, w) for i, w, _ in seen} == {
            (i, w) for i in instances for w in (False, True)}


class TestPMCD:
    def test_lookup_and_fetch(self, pmcd, node):
        name = ("perfevent.hwcounters.nest_mba0_imc."
                "PM_MBA0_READ_BYTES.value")
        response = pmcd.handle(LookupRequest(names=(name,)))
        assert response.status == PCPStatus.OK
        pmid = response.pmids[0]
        node.socket(0).record_traffic(read_bytes=8 * 64)
        fetch = pmcd.handle(FetchRequest(pmids=(pmid,)))
        assert fetch.status == PCPStatus.OK
        assert fetch.metrics[0].values["cpu87"] == 64

    def test_lookup_partial_failure(self, pmcd):
        response = pmcd.handle(LookupRequest(names=("no.such.metric",)))
        assert response.status == PCPStatus.PM_ERR_NAME
        assert response.name_status[0] == PCPStatus.PM_ERR_NAME

    def test_fetch_unknown_pmid(self, pmcd):
        response = pmcd.handle(FetchRequest(pmids=(make_pmid(99, 1),)))
        assert response.status == PCPStatus.PM_ERR_PMID

    def test_children(self, pmcd):
        response = pmcd.handle(ChildrenRequest(prefix="perfevent"))
        assert response.status == PCPStatus.OK
        assert response.children == ("hwcounters",)

    def test_duplicate_domain_rejected(self, pmcd, node):
        with pytest.raises(PCPError):
            pmcd.register_agent(PerfeventPMDA(node))

    def test_stopped_daemon_refuses(self, pmcd):
        pmcd.running = False
        response = pmcd.handle(LookupRequest(names=("x",)))
        assert response.status == PCPStatus.PM_ERR_PERMISSION

    def test_fetch_count_increments(self, pmcd):
        before = pmcd.stats.fetches
        pmcd.handle(FetchRequest(pmids=()))
        assert pmcd.stats.fetches == before + 1


class TestClientContext:
    def test_fetch_one(self, pmcd, node):
        client = connect(pmcd, node=node)
        node.socket(1).record_traffic(write_bytes=8 * 64)
        value = client.fetch_one(
            "perfevent.hwcounters.nest_mba0_imc.PM_MBA0_WRITE_BYTES.value",
            "cpu175")
        assert value == 64

    def test_unknown_name_raises(self, pmcd, node):
        client = connect(pmcd, node=node)
        with pytest.raises(PCPError):
            client.lookup_names(["bogus.metric"])

    def test_unknown_instance_raises(self, pmcd, node):
        client = connect(pmcd, node=node)
        with pytest.raises(PCPError):
            client.fetch_one(
                "perfevent.hwcounters.nest_mba0_imc."
                "PM_MBA0_READ_BYTES.value", "cpu999")

    def test_round_trips_advance_clock(self, node):
        pmcd = start_pmcd_for_node(node, round_trip_seconds=1e-3)
        client = connect(pmcd, node=node)
        client.traverse("perfevent")
        client.lookup_names([
            "perfevent.hwcounters.nest_mba0_imc.PM_MBA0_READ_BYTES.value"])
        assert node.clock == pytest.approx(2e-3)
        assert client.round_trips == 2

    def test_traverse(self, pmcd, node):
        client = connect(pmcd, node=node)
        metrics = client.traverse("perfevent")
        assert len(metrics) == 16

    def test_children_via_client(self, pmcd):
        client = connect(pmcd)
        assert client.children("perfevent.hwcounters.nest_mba0_imc") == \
            ["PM_MBA0_READ_BYTES", "PM_MBA0_WRITE_BYTES"]

    def test_free_running_client_no_clock(self, pmcd, node):
        client = connect(pmcd, node=None)
        client.traverse("perfevent")
        assert node.clock == 0.0
