"""Daemon overhead as a first-class metric.

The pmcd.* self-metrics PMDA, the client/daemon overhead report
surfaced through ``MeasurementSession``, and the ``pcp-load`` CLI
command.
"""

import json

import pytest

from repro.machine.config import SUMMIT
from repro.machine.node import Node
from repro.noise import QUIET
from repro.pcp import AsyncPMCDServer, connect
from repro.pcp.pmcd import start_pmcd_for_node
from repro.pmu.events import pcp_metric_name

METRIC = pcp_metric_name(0, write=False)


@pytest.fixture
def node():
    return Node(SUMMIT, seed=31, noise=QUIET)


class TestPmcdSelfMetrics:
    def test_pmcd_metrics_in_namespace(self, node):
        pmcd = start_pmcd_for_node(node)
        client = connect(pmcd)
        metrics = client.traverse("pmcd")
        assert "pmcd.requests.total" in metrics
        assert "pmcd.fetch.pmda_calls" in metrics
        assert "pmcd.service.coalesced" in metrics

    def test_self_metrics_opt_out(self, node):
        pmcd = start_pmcd_for_node(node, self_metrics=False)
        assert len(pmcd.agents) == 1
        client = connect(pmcd)
        assert client.traverse("perfevent")

    def test_request_counts_readable_through_fetch(self, node):
        pmcd = start_pmcd_for_node(node)
        client = connect(pmcd)
        client.lookup_names([METRIC])
        count = client.fetch_one("pmcd.requests.total", "pmcd")
        assert count >= 2  # the lookup(s) plus this fetch
        again = client.fetch_one("pmcd.requests.total", "pmcd")
        assert again > count  # measuring the measurement adds requests

    def test_papi_can_open_daemon_overhead_event(self, quiet_summit_papi):
        papi = quiet_summit_papi
        component = papi.component("pcp")
        daemon_events = component.daemon_events()
        assert any("pmcd.fetch.total" in e for e in daemon_events)
        es = papi.create_eventset()
        es.add_event("pcp:::pmcd.fetch.total:pmcd")
        es.start()
        values = es.stop()
        assert values[0] >= 0

    def test_list_events_unchanged_by_self_metrics(self, quiet_summit_papi):
        events = quiet_summit_papi.component("pcp").list_events()
        assert len(events) == 32  # paper Table I events only
        assert not any("pmcd." in e for e in events)

    def test_lookup_cache_hits_counted(self, node):
        pmcd = start_pmcd_for_node(node)
        client = connect(pmcd)
        client.lookup_names([METRIC])
        client.lookup_names([METRIC])  # same names tuple: daemon cache
        assert pmcd.stats.lookup_cache_hits >= 1
        assert pmcd.stats.lookup_cache_misses >= 1


class TestSessionOverheadReport:
    def test_pcp_session_reports_overhead(self, quiet_summit_session):
        from repro.kernels.stream import StreamKernel

        session = quiet_summit_session
        session.measure_kernel(StreamKernel("triad", 10_000))
        overhead = session.daemon_overhead()
        assert overhead["round_trips"] > 0
        assert overhead["latency_seconds"] > 0
        assert overhead["pmcd.fetches"] >= 1
        assert overhead["pmcd.pmda_fetch_calls"] >= 16

    def test_uncore_session_has_no_daemon(self, quiet_tellico_session):
        assert quiet_tellico_session.daemon_overhead() == {}

    def test_remote_context_includes_transport_stats(self, node):
        server = AsyncPMCDServer(start_pmcd_for_node(node)).start_in_thread()
        try:
            with connect(server) as client:
                client.lookup_names([METRIC])
                overhead = client.daemon_overhead()
            assert overhead["transport.requests"] >= 1
            assert overhead["transport.retries"] == 0
        finally:
            server.stop_in_thread()


class TestStressCLI:
    def test_pcp_load_command(self, capsys):
        from repro.cli import main

        assert main(["pcp-load", "--contexts", "4",
                     "--duration", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "cross_wired" in out
        assert "pmda_fetch_calls" in out

    def test_pcp_load_json(self, capsys):
        from repro.cli import main

        assert main(["pcp-load", "--contexts", "4", "--duration", "0.3",
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["contexts"] == 4
        assert report["errors"] == []
        assert report["cross_wired"] == 0

    def test_listed_in_help(self, capsys):
        from repro.cli import main

        assert main(["--list"]) == 0
        commands = {line.split()[0]
                    for line in capsys.readouterr().out.splitlines()
                    if line.strip()}
        # pcp-load is the one PCP service command.
        assert {c for c in commands if c.startswith("pcp-")} == {"pcp-load"}
