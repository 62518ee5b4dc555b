"""PMCD over TCP: wire encoding and end-to-end measurement."""

import pytest

from repro.machine.config import SUMMIT
from repro.machine.node import Node
from repro.noise import QUIET
from repro.pcp import connect, protocol
from repro.pcp.aserver import AsyncPMCDServer
from repro.pcp.pmcd import start_pmcd_for_node
from repro.pcp.protocol import (
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)
from repro.pmu.events import pcp_metric_name

METRIC = pcp_metric_name(0, write=False)


@pytest.fixture
def node():
    return Node(SUMMIT, seed=8, noise=QUIET)


@pytest.fixture
def server(node):
    server = AsyncPMCDServer(start_pmcd_for_node(node)).start_in_thread()
    yield server
    server.stop_in_thread()


class TestWireEncoding:
    def test_lookup_roundtrip(self):
        req = protocol.LookupRequest(names=("a.b", "c.d"))
        assert decode_request(encode_request(req)) == req

    def test_fetch_roundtrip(self):
        req = protocol.FetchRequest(pmids=(1, 2, 3))
        assert decode_request(encode_request(req)) == req

    def test_response_roundtrip(self):
        resp = protocol.FetchResponse(
            status=protocol.PCPStatus.OK, timestamp=1.5,
            metrics=(protocol.MetricValues(pmid=7,
                                           values={"cpu87": 42}),),
        )
        decoded = decode_response(encode_response(resp))
        assert decoded.metrics[0].values == {"cpu87": 42}
        assert decoded.timestamp == 1.5

    def test_error_response_roundtrip(self):
        resp = protocol.ErrorResponse(protocol.PCPStatus.PM_ERR_NAME, "x")
        decoded = decode_response(encode_response(resp))
        assert decoded.status == protocol.PCPStatus.PM_ERR_NAME


class TestOverTheWire:
    def test_lookup_and_fetch(self, server, node):
        with connect(server, node=node) as client:
            node.socket(0).record_traffic(read_bytes=8 * 64)
            assert client.fetch_one(METRIC, "cpu87") == 64

    def test_remote_traverse(self, server):
        with connect(server) as client:
            metrics = list(client.pmcd.pmns.traverse("perfevent"))
            assert len(metrics) == 16
            assert METRIC in metrics

    def test_unknown_name_over_wire(self, server, node):
        with connect(server, node=node) as client:
            with pytest.raises(Exception):
                client.lookup_names(["no.such.metric"])

    def test_full_papi_stack_over_tcp(self, server, node):
        """The PAPI PCP component works unchanged across the socket."""
        from repro.papi.components.pcp import PCPComponent
        from repro.papi.papi import Papi

        with connect(server, node=node) as context:
            papi = Papi(node)  # no local pmcd
            papi.components.register(PCPComponent(context, node))
            es = papi.create_eventset()
            es.add_event(f"pcp:::{METRIC}:cpu87")
            es.start()
            node.socket(0).record_traffic(read_bytes=8 * 64 * 5)
            assert es.stop() == [320]
