"""Failure injection: the stack degrades loudly, not silently."""

import pytest

from repro.errors import GPUError, PapiNoEvent, PCPError
from repro.fft3d.app import FFT3DApp
from repro.machine.config import SUMMIT
from repro.machine.node import Node
from repro.mpi.grid import ProcessorGrid
from repro.noise import QUIET
from repro.papi import library_init
from repro.pcp import AsyncPMCDServer, connect, start_pmcd_for_node
from repro.pmu.events import pcp_metric_name

METRIC = pcp_metric_name(0, write=False)


class TestPMCDFailures:
    def test_daemon_stopped_mid_measurement(self):
        node = Node(SUMMIT, seed=1, noise=QUIET)
        pmcd = start_pmcd_for_node(node)
        papi = library_init(node, pmcd=pmcd)
        es = papi.create_eventset()
        es.add_event(f"pcp:::{METRIC}:cpu87")
        es.start()
        pmcd.running = False  # daemon dies during the window
        with pytest.raises(PCPError):
            es.stop()

    def test_daemon_restart_recovers(self):
        node = Node(SUMMIT, seed=1, noise=QUIET)
        pmcd = start_pmcd_for_node(node)
        client = connect(pmcd, node=node)
        pmcd.running = False
        with pytest.raises(PCPError):
            client.lookup_names([METRIC])
        pmcd.running = True
        assert client.lookup_names([METRIC])

    def test_remote_connection_lost(self):
        node = Node(SUMMIT, seed=1, noise=QUIET)
        server = AsyncPMCDServer(start_pmcd_for_node(node)).start_in_thread()
        client = connect(server, node=node, auto_reconnect=False)
        pmids = client.lookup_names([METRIC])
        assert pmids
        # Drop the transport underneath the client (network partition).
        client.pmcd._sock.shutdown(2)
        with pytest.raises(Exception):
            client.fetch(pmids)
        client.close()
        server.stop_in_thread()


class TestDeviceFailures:
    def test_gpu_oom_fails_cleanly(self):
        node = Node(SUMMIT, seed=1, noise=QUIET)
        gpu = node.gpus[0]
        gpu.malloc(gpu.config.memory_bytes)
        with pytest.raises(GPUError):
            gpu.malloc(1)
        # State is unchanged: freeing the original block still works.
        gpu.free(gpu.config.memory_bytes)
        assert gpu.allocated_bytes == 0

    def test_gpuless_machine_falls_back_to_cpu_fft(self):
        from repro.machine.config import TELLICO

        # Requesting GPUs on a GPU-less machine degrades gracefully to
        # the CPU 1-D FFT path rather than crashing mid-pipeline.
        app = FFT3DApp(n=64, grid=ProcessorGrid(2, 2), machine=TELLICO,
                       use_gpu=True, seed=1)
        assert not app.use_gpu
        app.run(slices_per_phase=1)
        assert app.cluster.clock > 0

    def test_nvml_event_for_missing_device(self):
        node = Node(SUMMIT, seed=1, noise=QUIET)
        papi = library_init(node, pmcd=start_pmcd_for_node(node))
        with pytest.raises(PapiNoEvent):
            papi.component("nvml").open_event(
                "nvml:::Tesla_V100-SXM2-16GB:device_42:power")


class TestCounterEdgeCases:
    def test_eventset_survives_counter_wrap_scale(self):
        # Counters are Python ints: exercise a very large value to show
        # no 32/64-bit wrap artifacts exist in the pipeline.
        node = Node(SUMMIT, seed=1, noise=QUIET)
        papi = library_init(node, pmcd=start_pmcd_for_node(node))
        es = papi.create_eventset()
        es.add_event(f"pcp:::{METRIC}:cpu87")
        es.start()
        node.socket(0).record_traffic(read_bytes=8 * (1 << 62))
        assert es.stop()[0] == 1 << 62

    def test_concurrent_eventsets_independent(self):
        node = Node(SUMMIT, seed=1, noise=QUIET)
        papi = library_init(node, pmcd=start_pmcd_for_node(node))
        es1 = papi.create_eventset()
        es2 = papi.create_eventset()
        for es in (es1, es2):
            es.add_event(f"pcp:::{METRIC}:cpu87")
        es1.start()
        node.socket(0).record_traffic(read_bytes=8 * 64)
        es2.start()  # starts later: sees only later traffic
        node.socket(0).record_traffic(read_bytes=8 * 64)
        assert es1.stop()[0] == 128
        assert es2.stop()[0] == 64
