"""Nest counter block: naming, parsing, and the privilege gate."""

import pytest

from repro.errors import PrivilegeError, SimulationError
from repro.machine.memory import MemoryController
from repro.machine.nest import NestCounterBlock, nest_event_names


#: Names that must not open a counter. The last five would each have
#: aliased a real channel had the channel been parsed with ``int()``.
REJECTED = [
    "PM_MBA_READ_BYTES", "PM_MBA8_READ_BYTES", "PM_MBA0_READ",
    "MBA0_READ_BYTES", "PM_MBA0_FLUSH_BYTES", "PM_MBAx_READ_BYTES",
    "PM_MBA0_0_READ_BYTES", "PM_MBA+1_READ_BYTES", "PM_MBA 1_READ_BYTES",
    "PM_MBA01_READ_BYTES", "PM_MBA\u0663_READ_BYTES",
]


@pytest.fixture
def nest():
    return NestCounterBlock(0, MemoryController(n_channels=8))


class TestNaming:
    def test_sixteen_events_per_socket(self):
        names = nest_event_names(8)
        assert len(names) == 16
        assert "PM_MBA0_READ_BYTES" in names
        assert "PM_MBA7_WRITE_BYTES" in names

    def test_event_names_property(self, nest):
        assert nest.event_names == nest_event_names(8)


class TestParsing:
    def test_parse_read(self, nest):
        parsed = nest.parse_event("PM_MBA3_READ_BYTES")
        assert parsed == {"channel": 3, "write": 0}

    def test_parse_write(self, nest):
        parsed = nest.parse_event("PM_MBA7_WRITE_BYTES")
        assert parsed == {"channel": 7, "write": 1}

    @pytest.mark.parametrize("bad", REJECTED)
    def test_parse_rejects(self, nest, bad):
        with pytest.raises(SimulationError):
            nest.parse_event(bad)

    @pytest.mark.parametrize("bad", REJECTED)
    def test_read_rejects(self, nest, bad):
        with pytest.raises(SimulationError):
            nest.read_event(bad, privileged=True)

    def test_every_listed_name_parses_to_its_channel(self, nest):
        for ch in range(8):
            assert nest.parse_event(f"PM_MBA{ch}_READ_BYTES") == {
                "channel": ch, "write": 0}
            assert nest.parse_event(f"PM_MBA{ch}_WRITE_BYTES") == {
                "channel": ch, "write": 1}


class TestPrivilegeGate:
    def test_unprivileged_read_denied(self, nest):
        with pytest.raises(PrivilegeError):
            nest.read_event("PM_MBA0_READ_BYTES", privileged=False)

    def test_privileged_read_allowed(self, nest):
        assert nest.read_event("PM_MBA0_READ_BYTES", privileged=True) == 0

    def test_values_follow_controller(self):
        mc = MemoryController(n_channels=8)
        nest = NestCounterBlock(0, mc)
        mc.record_read(8 * 64 * 10)
        mc.record_write(8 * 64 * 5)
        values = nest.read_all(privileged=True)
        total_r = sum(v for k, v in values.items() if "READ" in k)
        total_w = sum(v for k, v in values.items() if "WRITE" in k)
        assert total_r == 8 * 64 * 10
        assert total_w == 8 * 64 * 5
