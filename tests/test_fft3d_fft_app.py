"""Distributed 3D-FFT numerics and the instrumented cluster app."""

from typing import Dict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.fft3d.app import FFT3DApp, RankTraffic
from repro.fft3d.fft import FORWARD_PHASES, Distributed3DFFT
from repro.fft3d.resort import ROUTINES
from repro.machine.cache import TrafficCounters
from repro.machine.config import SUMMIT
from repro.mpi.grid import ProcessorGrid
from repro.noise import QUIET, NoiseConfig


class TestNumerics:
    @pytest.mark.parametrize("r,c,n", [(2, 4, 16), (4, 2, 16), (2, 2, 8),
                                       (1, 1, 8), (1, 4, 8)])
    def test_matches_numpy_fftn(self, r, c, n):
        fft = Distributed3DFFT(n, ProcessorGrid(r, c))
        rng = np.random.default_rng(42)
        a = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal(
            (n, n, n))
        assert np.allclose(fft.forward_global(a), np.fft.fftn(a))

    def test_linearity(self):
        fft = Distributed3DFFT(8, ProcessorGrid(2, 2))
        rng = np.random.default_rng(1)
        a = rng.standard_normal((8, 8, 8)) + 0j
        b = rng.standard_normal((8, 8, 8)) + 0j
        lhs = fft.forward_global(a + 2 * b)
        rhs = fft.forward_global(a) + 2 * fft.forward_global(b)
        assert np.allclose(lhs, rhs)

    def test_impulse_transform_is_flat(self):
        # FFT of a delta at the origin is all-ones.
        fft = Distributed3DFFT(8, ProcessorGrid(2, 2))
        a = np.zeros((8, 8, 8), dtype=complex)
        a[0, 0, 0] = 1.0
        assert np.allclose(fft.forward_global(a), np.ones((8, 8, 8)))

    def test_block_count_validation(self):
        fft = Distributed3DFFT(8, ProcessorGrid(2, 2))
        with pytest.raises(ConfigurationError):
            fft.forward_blocks([np.zeros((4, 4, 8), dtype=complex)])

    def test_indivisible_n_rejected(self):
        with pytest.raises(Exception):
            Distributed3DFFT(10, ProcessorGrid(2, 4))


class TestPhaseStructure:
    def test_nine_phases(self):
        kinds = [p.kind for p in FORWARD_PHASES]
        assert kinds.count("fft") == 3
        assert kinds.count("resort") == 4
        assert kinds.count("all2all") == 2

    def test_resort_order_alternates(self):
        routines = [p.routine for p in FORWARD_PHASES if p.kind == "resort"]
        assert routines == ["S1CF", "S2CF", "S1PF", "S2PF"]


class TestApp:
    def make_app(self, **kw):
        kw.setdefault("n", 128)
        kw.setdefault("grid", ProcessorGrid(2, 4))
        kw.setdefault("seed", 5)
        kw.setdefault("noise", QUIET)
        return FFT3DApp(**kw)

    def test_cluster_sizing(self):
        app = self.make_app()
        assert app.cluster.n_nodes == 4  # 8 ranks / 2 sockets
        assert app.comm.size == 8

    def test_grid_must_fill_nodes(self):
        with pytest.raises(ConfigurationError):
            FFT3DApp(n=64, grid=ProcessorGrid(1, 3), machine=SUMMIT)

    def test_run_records_resort_traffic(self):
        app = self.make_app()
        app.run(slices_per_phase=1)
        s1 = app.resort_summary("s1cf")
        s2 = app.resort_summary("s2cf")
        assert len(s1) == 8 and len(s2) == 8
        for rec in s1:
            assert rec.reads_per_write == pytest.approx(2.0, rel=0.05)
        for rec in s2:
            assert rec.reads_per_write == pytest.approx(1.0, rel=0.05)

    def test_run_advances_all_clocks_in_lockstep(self):
        app = self.make_app()
        app.run(slices_per_phase=1)
        clocks = [node.clock for node in app.cluster.nodes]
        assert max(clocks) - min(clocks) < 1e-12
        assert clocks[0] > 0

    def test_gpu_phases_drive_power_and_dma(self):
        app = self.make_app(use_gpu=True)
        app.run(slices_per_phase=1)
        gpu = app.cluster.nodes[0].gpus_on_socket(0)[0]
        assert gpu.flops_executed > 0
        assert gpu.h2d_bytes == gpu.d2h_bytes > 0

    def test_cpu_variant_runs_without_gpus(self):
        app = self.make_app(use_gpu=False)
        app.run(slices_per_phase=1)
        gpu = app.cluster.nodes[0].gpus_on_socket(0)[0]
        assert gpu.flops_executed == 0

    def test_all2all_hits_the_network(self):
        app = self.make_app()
        app.run(slices_per_phase=1)
        total_recv = sum(nic.recv_octets
                         for node in app.cluster.nodes
                         for nic in node.nics)
        assert total_recv > 0

    def test_steps_need_positive_slices(self):
        app = self.make_app()
        with pytest.raises(ConfigurationError):
            app.steps(slices_per_phase=0)

    def test_prefetch_flag_changes_resort_traffic(self):
        plain = self.make_app()
        plain.run(slices_per_phase=1)
        flagged = self.make_app(compiler_flags="-fprefetch-loop-arrays")
        flagged.run(slices_per_phase=1)
        # S2CF: 1 read/write without the flag, 2 with it (dcbtst).
        r_plain = plain.resort_summary("s2cf")[0].reads_per_write
        r_flag = flagged.resort_summary("s2cf")[0].reads_per_write
        assert r_plain == pytest.approx(1.0, rel=0.05)
        assert r_flag == pytest.approx(2.0, rel=0.05)


# ----------------------------------------------------------------------
# Differential: one run model per resort phase against one per rank.

class _PerRankModelApp(FFT3DApp):
    """FFT3DApp as it was before ranks shared a phase's run model:
    each rank builds the phase kernel and ``Executor.run`` computes its
    model. Sharing the model must leave every count, clock, generator
    and record as this does."""

    def _run_resort_slice(self, spec, sub):
        kernel_cls = ROUTINES[spec.routine]
        duration = 0.0
        before: Dict[int, TrafficCounters] = {}
        for rank in range(self.comm.size):
            placement = self.comm.placements[rank]
            kernel = kernel_cls(sub, seed=self.seed)
            record = self._executor_of(rank).run(
                kernel, socket_id=placement.socket_id, n_cores=1,
                prefetch=self.compiler.prefetch, noisy=True,
                assume_socket_busy=True, advance_clock=False,
            )
            duration = max(duration, record.runtime_per_rep)
            before[rank] = record.recorded_traffic
        self.cluster.advance_all(duration)
        for rank, traffic in before.items():
            self.records.append(RankTraffic(
                phase=spec.name, rank=rank,
                read_bytes=traffic.read_bytes,
                write_bytes=traffic.write_bytes,
                seconds=duration,
            ))


def _cluster_state(app):
    """The records, then every node's clock bits, transaction counts
    and generator states."""
    records = [(r.phase, r.rank, r.read_bytes, r.write_bytes,
                r.seconds.hex()) for r in app.records]
    nodes = [(node.clock.hex(),
              [(s.memory.total_read_bytes, s.memory.total_write_bytes)
               for s in node.sockets],
              [node.noise_model(i)._rng.bit_generator.state
               for i in range(len(node.sockets))])
             for node in app.cluster.nodes]
    return records, nodes


class TestSharedPhaseModel:
    @settings(max_examples=40, deadline=None)
    @given(direction=st.sampled_from(["forward", "backward", "roundtrip"]),
           use_gpu=st.booleans(),
           shape=st.sampled_from([(2, 2), (1, 4), (2, 4), (4, 2), (2, 6)]),
           n=st.sampled_from([48, 96, 192, 768]),
           slices=st.integers(1, 3),
           flags=st.sampled_from(["", "-fprefetch-loop-arrays"]),
           noise=st.sampled_from(["default", "quiet"]),
           seed=st.integers(0, 2**16))
    def test_matches_per_rank_models(self, direction, use_gpu, shape, n,
                                     slices, flags, noise, seed):
        states = []
        for cls in (FFT3DApp, _PerRankModelApp):
            app = cls(n=n, grid=ProcessorGrid(*shape), seed=seed,
                      noise=NoiseConfig() if noise == "default" else QUIET,
                      use_gpu=use_gpu, compiler_flags=flags,
                      direction=direction)
            assert app.cluster.n_nodes >= 2
            app.run(slices_per_phase=slices)
            states.append(_cluster_state(app))
        assert states[0] == states[1]
        assert states[0][0]  # the resort phases recorded every rank
