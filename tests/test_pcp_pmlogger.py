"""pmlogger archive sampling and rate conversion."""

import pytest

from repro.errors import PCPError
from repro.machine.config import SUMMIT
from repro.machine.node import Node
from repro.noise import QUIET
from repro.pcp import connect
from repro.pcp.pmcd import start_pmcd_for_node
from repro.pmu.events import pcp_metric_name

METRIC = pcp_metric_name(0, write=False)


@pytest.fixture
def node():
    return Node(SUMMIT, seed=6, noise=QUIET)


@pytest.fixture
def logger(node):
    pmcd = start_pmcd_for_node(node, round_trip_seconds=0.0)
    return connect(pmcd, node=node).log([METRIC], interval_seconds=0.5)


class TestSampling:
    def test_samples_are_timestamped(self, logger, node):
        logger.run(3)
        assert len(logger.archive) == 3
        times = [rec.timestamp for rec in logger.archive]
        assert times == sorted(times)
        assert times[-1] - times[0] == pytest.approx(1.0)

    def test_values_follow_counters(self, logger, node):
        logger.sample()
        node.socket(0).record_traffic(read_bytes=8 * 64 * 10)
        node.advance(0.5, background=False)
        logger.sample()
        series = logger.series(METRIC, "cpu87")
        assert series[1][1] - series[0][1] == 640

    def test_rate_conversion(self, logger, node):
        logger.sample()
        node.socket(0).record_traffic(read_bytes=8 * 64 * 100)
        node.advance(2.0, background=False)
        logger.sample()
        rates = logger.rates(METRIC, "cpu87")
        # Channel 0 carries 1/8th of the socket traffic.
        assert rates[0][1] == pytest.approx(8 * 64 * 100 / 8 / 2.0)

    def test_instances_enumerated(self, logger):
        logger.sample()
        assert logger.instances_of(METRIC) == ["cpu87", "cpu175"] or \
            logger.instances_of(METRIC) == ["cpu175", "cpu87"] or \
            sorted(logger.instances_of(METRIC)) == ["cpu175", "cpu87"]

    def test_unknown_series(self, logger):
        logger.sample()
        with pytest.raises(PCPError):
            logger.series(METRIC, "cpu999")

    def test_validation(self, node):
        pmcd = start_pmcd_for_node(node)
        context = connect(pmcd, node=node)
        with pytest.raises(PCPError):
            context.log([], interval_seconds=1.0)
        with pytest.raises(PCPError):
            context.log([METRIC], interval_seconds=0.0)
        with pytest.raises(PCPError):
            context.log(["no.such.metric"])

    def test_background_bandwidth_curve(self):
        """End-to-end: log a noisy node and recover its background
        bandwidth via rate conversion (the pmlogger use case)."""
        node = Node(SUMMIT, seed=6)  # default noise
        pmcd = start_pmcd_for_node(node, round_trip_seconds=0.0)
        logger = connect(pmcd, node=node).log(
            [pcp_metric_name(ch, False) for ch in range(8)],
            interval_seconds=1.0)
        logger.run(6)
        total_rate = 0.0
        for ch in range(8):
            rates = logger.rates(pcp_metric_name(ch, False), "cpu87")
            total_rate += sum(r for _, r in rates) / len(rates)
        # Should land near the configured background read rate.
        assert total_rate == pytest.approx(30e6, rel=0.6)
