"""Individual PAPI components: enumeration, parsing, privilege, reads."""

import pytest

from repro.errors import (
    PapiNoComponent,
    PapiNoEvent,
    PapiPermissionDenied,
)
from repro.machine.config import TELLICO
from repro.machine.node import Node
from repro.papi import library_init
from repro.papi.consts import PAPI_VER_CURRENT, strerror


class TestRegistry:
    def test_summit_components(self, summit_papi):
        assert summit_papi.component_names() == [
            "infiniband", "nvml", "pcp", "perf_event",
            "perf_event_uncore", "rapl"]

    def test_tellico_components_no_devices(self):
        papi = library_init(Node(TELLICO, seed=1))
        assert papi.component_names() == ["perf_event",
                                          "perf_event_uncore", "rapl"]

    def test_unknown_component(self, summit_papi):
        with pytest.raises(PapiNoComponent):
            summit_papi.component("cuda")

    def test_unknown_event_resolution(self, summit_papi):
        with pytest.raises(PapiNoEvent):
            summit_papi.components.resolve_event("bogus:::event")

    def test_component_report(self, summit_papi):
        report = summit_papi.component_report()
        assert report["pcp"]["available"] == "yes"
        assert report["perf_event_uncore"]["available"] == "no"
        assert "privileges" in report["perf_event_uncore"]["reason"]

    def test_version_handshake(self, summit_node):
        with pytest.raises(PapiNoEvent):
            library_init(summit_node, version=0x06000000)
        papi = library_init(summit_node, version=PAPI_VER_CURRENT)
        assert papi.version == PAPI_VER_CURRENT

    def test_strerror(self):
        assert strerror(0) == "PAPI_OK"
        assert strerror(-7) == "PAPI_ENOEVNT"
        assert "error" in strerror(-12345)


class TestPCPComponent:
    def test_list_events_covers_both_sockets(self, summit_papi):
        events = summit_papi.component("pcp").list_events()
        assert len(events) == 32
        assert sum(1 for e in events if e.endswith(":cpu87")) == 16

    def test_bad_event_shape(self, summit_papi):
        with pytest.raises(PapiNoEvent):
            summit_papi.component("pcp").open_event("pcp:::justametric")

    def test_unknown_metric(self, summit_papi):
        with pytest.raises(PapiNoEvent):
            summit_papi.component("pcp").open_event(
                "pcp:::perfevent.hwcounters.nope.value:cpu87")

    def test_unknown_instance(self, summit_papi):
        with pytest.raises(PapiNoEvent):
            summit_papi.component("pcp").open_event(
                "pcp:::perfevent.hwcounters.nest_mba0_imc."
                "PM_MBA0_READ_BYTES.value:cpu3")

    def test_query_event(self, summit_papi):
        good = ("pcp:::perfevent.hwcounters.nest_mba0_imc."
                "PM_MBA0_READ_BYTES.value:cpu87")
        assert summit_papi.query_event(good)
        assert not summit_papi.query_event("pcp:::nope.metric:cpu87")

    def test_open_resolves_metric_instance_and_pmid(self, summit_papi):
        component = summit_papi.component("pcp")
        metric = "perfevent.hwcounters.nest_mba3_imc.PM_MBA3_WRITE_BYTES.value"
        handle = component.open_event(f"pcp:::{metric}:cpu175")
        assert (handle.metric, handle.instance) == (metric, "cpu175")
        assert handle.pmid == component.context.lookup_names([metric])[0]

    def test_lost_instance_raises(self, summit_papi, monkeypatch):
        component = summit_papi.component("pcp")
        es = summit_papi.create_eventset()
        es.add_event("pcp:::perfevent.hwcounters.nest_mba0_imc."
                     "PM_MBA0_READ_BYTES.value:cpu87")
        es.start()
        # The daemon stops exporting socket 0 while the set counts.
        [pmda] = [agent for agent in component.context.pmcd.agents
                  if agent.name == "perfevent"]
        monkeypatch.setattr(pmda, "fetch", lambda pmid: {"cpu175": 0})
        with pytest.raises(PapiNoEvent, match="lost instance 'cpu87'"):
            es.stop()


class TestPerfUncoreComponent:
    def test_denied_on_summit(self, summit_papi):
        with pytest.raises(PapiPermissionDenied):
            summit_papi.component("perf_event_uncore").open_event(
                "power9_nest_mba0::PM_MBA0_READ_BYTES:cpu=0")

    def test_allowed_on_tellico(self, tellico_papi, tellico_node):
        handle = tellico_papi.component("perf_event_uncore").open_event(
            "power9_nest_mba0::PM_MBA0_READ_BYTES:cpu=0")
        tellico_node.socket(0).record_traffic(read_bytes=8 * 64)
        assert handle.read() == 64

    def test_owns_bare_pmu_names(self, tellico_papi):
        cmp = tellico_papi.components.resolve_event(
            "power9_nest_mba3::PM_MBA3_WRITE_BYTES:cpu=0")
        assert cmp.name == "perf_event_uncore"

    def test_malformed_event(self, tellico_papi):
        with pytest.raises(PapiNoEvent):
            tellico_papi.component("perf_event_uncore").open_event(
                "power9_nest_mba0::WRONG:cpu=0")

    def test_list_events_both_sockets(self, tellico_papi):
        events = tellico_papi.component("perf_event_uncore").list_events()
        assert len(events) == 32


class TestNVMLComponent:
    def test_event_naming(self, summit_papi):
        events = summit_papi.component("nvml").list_events()
        assert len(events) == 6
        assert events[0] == \
            "nvml:::Tesla_V100-SXM2-16GB:device_0:power"

    def test_power_follows_device(self, summit_papi, summit_node):
        gpu = summit_node.gpus[0]
        handle = summit_papi.component("nvml").open_event(
            "nvml:::Tesla_V100-SXM2-16GB:device_0:power")
        assert handle.read() == int(gpu.config.idle_power_w * 1000)
        gpu.execute(1e9, advance_clock=False)  # busy interval logged
        # Sample inside the busy interval.
        assert handle.read() == int(gpu.config.peak_power_w * 1000)
        assert handle.instantaneous

    def test_unknown_device(self, summit_papi):
        with pytest.raises(PapiNoEvent):
            summit_papi.component("nvml").open_event(
                "nvml:::Tesla_V100-SXM2-16GB:device_9:power")

    def test_malformed(self, summit_papi):
        with pytest.raises(PapiNoEvent):
            summit_papi.component("nvml").open_event("nvml:::power")


class TestInfinibandComponent:
    def test_event_naming(self, summit_papi):
        events = summit_papi.component("infiniband").list_events()
        assert "infiniband:::mlx5_0_1_ext:port_recv_data" in events
        assert "infiniband:::mlx5_1_1_ext:port_xmit_data" in events

    def test_counter_units_are_4_bytes(self, summit_papi, summit_node):
        nic = summit_node.nics[0]
        handle = summit_papi.component("infiniband").open_event(
            "infiniband:::mlx5_0_1_ext:port_recv_data")
        nic.record_recv(4096)
        assert handle.read() == 1024  # 4096 octets / 4

    def test_unknown_port(self, summit_papi):
        with pytest.raises(PapiNoEvent):
            summit_papi.component("infiniband").open_event(
                "infiniband:::mlx9_0_1_ext:port_recv_data")

    def test_malformed_counter(self, summit_papi):
        with pytest.raises(PapiNoEvent):
            summit_papi.component("infiniband").open_event(
                "infiniband:::mlx5_0_1_ext:port_magic_data")


class TestListEvents:
    def test_global_listing_skips_unavailable(self, summit_papi):
        events = summit_papi.list_events()
        # perf_event_uncore is unavailable on Summit: none of its
        # events appear in the global list.
        assert not any(e.startswith("power9_nest") for e in events)
        assert any(e.startswith("pcp:::") for e in events)
        assert any(e.startswith("nvml:::") for e in events)

    def test_component_scoped_listing(self, summit_papi):
        assert len(summit_papi.list_events("nvml")) == 6
