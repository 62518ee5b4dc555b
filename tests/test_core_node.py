"""Core timing model and assembled node behaviour."""

import math

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.machine.config import SUMMIT
from repro.machine.node import Node
from repro.noise import QUIET, NoiseConfig
from repro.papi.components.rapl import PackageEnergyModel


class TestCore:
    def test_reserved_core_cannot_be_marked_busy(self, summit_node):
        reserved = summit_node.socket(0).cores[-1]
        assert reserved.reserved
        with pytest.raises(SimulationError):
            reserved.mark_busy()
        assert summit_node.socket(0).active_core_count == 0

    def test_active_core_count_follows_marks(self, summit_node):
        sock = summit_node.socket(0)
        for core in sock.cores[:3]:
            core.mark_busy(True)
        sock.cores[0].mark_busy(True)   # already busy: counted once
        sock.cores[1].mark_busy(False)
        sock.cores[5].mark_busy(False)  # already idle
        assert sock.active_core_count == 2
        assert summit_node.socket(1).active_core_count == 0

    def test_usable_core_count(self, summit_node):
        assert len(summit_node.socket(0).usable_cores) == 21

    def test_pair_ids(self, summit_node):
        cores = summit_node.socket(0).cores
        assert cores[0].pair_id == cores[1].pair_id
        assert cores[0].pair_id != cores[2].pair_id

    def test_runtime_compute_bound(self, summit_node):
        core = summit_node.socket(0).cores[0]
        t = core.estimate_runtime(flops=8.0e9, mem_bytes=0)
        assert t == pytest.approx(1.0)

    def test_runtime_memory_bound(self, summit_node):
        core = summit_node.socket(0).cores[0]
        bw = SUMMIT.socket.memory_bandwidth
        t = core.estimate_runtime(flops=0, mem_bytes=bw)
        assert t == pytest.approx(1.0)

    def test_bandwidth_shared_between_cores(self, summit_node):
        core = summit_node.socket(0).cores[0]
        solo = core.estimate_runtime(0, 1e9, active_cores_on_socket=1)
        shared = core.estimate_runtime(0, 1e9, active_cores_on_socket=21)
        assert shared == pytest.approx(21 * solo)

    def test_negative_work_rejected(self, summit_node):
        core = summit_node.socket(0).cores[0]
        with pytest.raises(SimulationError):
            core.estimate_runtime(-1, 0)


class TestNode:
    def test_summit_topology(self, summit_node):
        assert len(summit_node.sockets) == 2
        assert len(summit_node.gpus) == 6
        assert len(summit_node.nics) == 2
        assert not summit_node.user_privileged

    def test_tellico_topology(self, tellico_node):
        assert len(tellico_node.sockets) == 2
        assert tellico_node.gpus == []
        assert tellico_node.nics == []
        assert tellico_node.user_privileged

    def test_gpus_per_socket(self, summit_node):
        assert len(summit_node.gpus_on_socket(0)) == 3
        assert len(summit_node.gpus_on_socket(1)) == 3

    def test_core_lookup_global_ids(self, summit_node):
        core = summit_node.core(23)
        assert core.socket_id == 1
        assert core.local_id == 1

    def test_socket_out_of_range(self, summit_node):
        with pytest.raises(ConfigurationError):
            summit_node.socket(2)

    def test_clock_advance_applies_background(self):
        node = Node(SUMMIT, seed=7)
        node.advance(0.1)
        assert node.clock == pytest.approx(0.1)
        assert node.socket(0).memory.total_read_bytes > 0

    def test_quiet_node_has_no_background(self):
        node = Node(SUMMIT, seed=7, noise=QUIET)
        node.advance(0.1)
        assert node.socket(0).memory.total_read_bytes == 0

    def test_background_can_be_suppressed(self):
        node = Node(SUMMIT, seed=7)
        node.advance(0.1, background=False)
        assert node.socket(0).memory.total_read_bytes == 0

    def test_time_cannot_reverse(self, summit_node):
        with pytest.raises(SimulationError):
            summit_node.advance(-1.0)

    @pytest.mark.parametrize("background", [True, False])
    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    @pytest.mark.parametrize("batched", [False, True])
    def test_non_finite_step_rejected(self, dt, background, batched):
        node = Node(SUMMIT, seed=7)
        node.advance(0.1)
        clock = node.clock
        reads = [s.memory.total_read_bytes for s in node.sockets]
        with pytest.raises(SimulationError):
            if batched:
                node.advance_steps(dt, 3, background=background)
            else:
                node.advance(dt, background=background)
        assert node.clock == clock
        assert [s.memory.total_read_bytes for s in node.sockets] == reads

    @pytest.mark.parametrize(
        "noise", [None, QUIET, NoiseConfig(background_sigma=0.0)],
        ids=["default", "quiet", "no-background-sigma"])
    @pytest.mark.parametrize("background", [True, False])
    @pytest.mark.parametrize("steps", [1, 7, 300])
    def test_advance_steps_equals_single_steps(self, noise, background,
                                               steps):
        states = []
        for batched in (True, False):
            node = Node(SUMMIT, seed=9, noise=noise)
            energy = [PackageEnergyModel(node, s) for s in range(2)]
            node.socket(1).cores[0].mark_busy(True)
            node.advance(0.37)
            if batched:
                node.advance_steps(2.1e-4, steps, background=background)
            else:
                for _ in range(steps):
                    node.advance(2.1e-4, background=background)
            states.append((
                node.clock.hex(), [m._energy_uj.hex() for m in energy],
                [(s.memory.total_read_bytes, s.memory.total_write_bytes)
                 for s in node.sockets],
                [node.noise_model(i)._rng.bit_generator.state
                 for i in range(2)]))
        assert states[0] == states[1]

    def test_sockets_have_independent_noise(self):
        node = Node(SUMMIT, seed=7)
        node.advance(0.1)
        r0 = node.socket(0).memory.total_read_bytes
        r1 = node.socket(1).memory.total_read_bytes
        assert r0 != r1  # independent substreams

    def test_deterministic_across_instances(self):
        a = Node(SUMMIT, seed=11)
        b = Node(SUMMIT, seed=11)
        a.advance(0.05)
        b.advance(0.05)
        assert (a.socket(0).memory.total_read_bytes
                == b.socket(0).memory.total_read_bytes)
