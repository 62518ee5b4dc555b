"""PMU event tables and the privileged perf_uncore path."""

import pytest

from repro.errors import PrivilegeError, SimulationError
from repro.machine.config import SUMMIT, TELLICO
from repro.machine.node import Node
from repro.pmu.events import (
    all_pcp_events,
    all_uncore_events,
    pcp_event_name,
    pcp_metric_name,
    socket_instance_cpu,
    socket_of_cpu,
    uncore_event_name,
)
from repro.pmu.perf import (
    open_uncore_event,
    parse_uncore_event,
    read_socket_traffic,
)


class TestEventNames:
    def test_uncore_spelling_matches_table1(self):
        assert uncore_event_name(0, write=False) == \
            "power9_nest_mba0::PM_MBA0_READ_BYTES:cpu=0"
        assert uncore_event_name(7, write=True, cpu=4) == \
            "power9_nest_mba7::PM_MBA7_WRITE_BYTES:cpu=4"

    def test_pcp_spelling_matches_table1(self):
        assert pcp_metric_name(0, write=False) == \
            "perfevent.hwcounters.nest_mba0_imc.PM_MBA0_READ_BYTES.value"
        assert pcp_event_name(3, write=True, cpu=87) == \
            ("pcp:::perfevent.hwcounters.nest_mba3_imc."
             "PM_MBA3_WRITE_BYTES.value:cpu87")

    def test_summit_socket_instances_are_cpu87_and_cpu175(self):
        # SMT4 x 22 cores = 88 hardware threads per socket.
        assert socket_instance_cpu(SUMMIT, 0) == 87
        assert socket_instance_cpu(SUMMIT, 1) == 175

    def test_socket_of_cpu_inverse(self):
        assert socket_of_cpu(SUMMIT, 87) == 0
        assert socket_of_cpu(SUMMIT, 88) == 1
        with pytest.raises(ValueError):
            socket_of_cpu(SUMMIT, 176)

    def test_full_event_lists(self):
        assert len(all_uncore_events(SUMMIT)) == 16
        assert len(all_pcp_events(SUMMIT, 0)) == 16
        assert all(":cpu87" in e for e in all_pcp_events(SUMMIT, 0))
        assert all(":cpu175" in e for e in all_pcp_events(SUMMIT, 1))


class TestParsing:
    def test_parse_roundtrip(self):
        spec = parse_uncore_event("power9_nest_mba5::PM_MBA5_WRITE_BYTES:cpu=3")
        assert spec.channel == 5
        assert spec.write
        assert spec.cpu == 3
        assert spec.counter_name == "PM_MBA5_WRITE_BYTES"

    def test_default_cpu_zero(self):
        assert parse_uncore_event(
            "power9_nest_mba1::PM_MBA1_READ_BYTES").cpu == 0

    def test_channel_mismatch_rejected(self):
        with pytest.raises(SimulationError):
            parse_uncore_event("power9_nest_mba1::PM_MBA2_READ_BYTES:cpu=0")

    @pytest.mark.parametrize("bad", [
        "power9_nest::PM_MBA0_READ_BYTES",
        "PM_MBA0_READ_BYTES",
        "power9_nest_mba0::PM_MBA0_READ_BYTES:cpu=x",
    ])
    def test_malformed_rejected(self, bad):
        with pytest.raises(SimulationError):
            parse_uncore_event(bad)

    @pytest.mark.parametrize("alias", [
        "power9_nest_mba\u0663::PM_MBA\u0663_READ_BYTES",
        "power9_nest_mba03::PM_MBA3_READ_BYTES",
        "power9_nest_mba3::PM_MBA03_READ_BYTES",
        "power9_nest_mba3::PM_MBA3_READ_BYTES:cpu=03",
        "power9_nest_mba3::PM_MBA3_READ_BYTES:cpu=\u0663",
    ])
    def test_non_canonical_numbers_rejected(self, alias):
        # Each of these names a real channel/cpu in another spelling;
        # a privileged user must not be able to open it either.
        with pytest.raises(SimulationError):
            parse_uncore_event(alias)
        with pytest.raises(SimulationError):
            open_uncore_event(Node(TELLICO, seed=1), alias)


class TestPrivilege:
    def test_summit_open_denied(self):
        node = Node(SUMMIT, seed=1)
        with pytest.raises(PrivilegeError):
            open_uncore_event(node, "power9_nest_mba0::PM_MBA0_READ_BYTES:cpu=0")

    def test_tellico_open_and_read(self):
        node = Node(TELLICO, seed=1)
        handle = open_uncore_event(
            node, "power9_nest_mba0::PM_MBA0_READ_BYTES:cpu=0")
        assert handle.read() == 0
        node.socket(0).record_traffic(read_bytes=8 * 64)
        assert handle.read() == 64

    def test_cpu_qualifier_selects_socket(self):
        node = Node(TELLICO, seed=1)
        cpu_s1 = TELLICO.socket.n_cores * 4  # first thread of socket 1
        handle = open_uncore_event(
            node, f"power9_nest_mba0::PM_MBA0_READ_BYTES:cpu={cpu_s1}")
        node.socket(1).record_traffic(read_bytes=8 * 64)
        assert handle.read() == 64

    def test_channel_out_of_range(self):
        node = Node(TELLICO, seed=1)
        with pytest.raises(SimulationError):
            open_uncore_event(node,
                              "power9_nest_mba9::PM_MBA9_READ_BYTES:cpu=0")

    def test_read_socket_traffic_sums_channels(self):
        node = Node(TELLICO, seed=1)
        node.socket(0).record_traffic(read_bytes=4096, write_bytes=2048)
        totals = read_socket_traffic(node, 0)
        assert totals == {"read_bytes": 4096, "write_bytes": 2048}

    def test_read_socket_traffic_privilege_override(self):
        node = Node(SUMMIT, seed=1)
        with pytest.raises(PrivilegeError):
            read_socket_traffic(node, 0)
        totals = read_socket_traffic(node, 0, privileged=True)
        assert totals["read_bytes"] == 0
