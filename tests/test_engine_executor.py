"""Executor: cache contexts, batching, repetitions, clock accounting."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine.executor import ExecutionRecord, Executor
from repro.errors import ConfigurationError
from repro.kernels.blas import CappedGemv, Gemm
from repro.kernels.stream import StreamKernel
from repro.machine.cache import TrafficCounters
from repro.machine.config import SUMMIT, TELLICO
from repro.machine.node import Node
from repro.machine.prefetch import SoftwarePrefetch
from repro.noise import QUIET, NoiseConfig
from repro.papi.components.rapl import PackageEnergyModel
from repro.units import MIB


@pytest.fixture
def quiet_node():
    return Node(SUMMIT, seed=3, noise=QUIET)


@pytest.fixture
def executor(quiet_node):
    return Executor(quiet_node)


class TestCacheContext:
    def test_single_core_reappropriates(self, executor):
        ctx = executor.cache_context(0, 1, footprint_bytes=MIB)
        assert ctx.capacity_bytes == 110 * MIB

    def test_batched_cores_confined(self, executor):
        ctx = executor.cache_context(0, 21, footprint_bytes=MIB)
        assert ctx.capacity_bytes == 5 * MIB

    def test_assume_socket_busy(self, executor):
        ctx = executor.cache_context(0, 1, footprint_bytes=MIB,
                                     assume_socket_busy=True)
        assert ctx.capacity_bytes == 5 * MIB

    def test_spill_only_for_large_single_thread(self, executor):
        small = executor.cache_context(0, 1, footprint_bytes=MIB)
        large = executor.cache_context(0, 1, footprint_bytes=50 * MIB)
        assert small.spill_extra_fraction == 0.0
        assert large.spill_extra_fraction > 0.0


class TestRun:
    def test_noiseless_traffic_matches_law(self, executor, quiet_node):
        kernel = Gemm(128)
        record = executor.run(kernel, n_cores=1, noisy=False)
        ctx = executor.cache_context(0, 1, kernel.footprint_bytes())
        law = kernel.traffic(ctx)
        assert tuple(record.true_traffic) == tuple(law)
        sock = quiet_node.socket(0)
        assert sock.memory.total_read_bytes == law.read_bytes

    def test_batch_scales_traffic_by_cores(self, executor):
        kernel = Gemm(64)
        single = executor.run(kernel, n_cores=1, noisy=False)
        batched = executor.run(kernel, n_cores=21, noisy=False)
        assert batched.true_traffic.read_bytes == pytest.approx(
            21 * single.true_traffic.read_bytes, rel=0.2)

    def test_repetitions_accumulate(self, executor):
        kernel = Gemm(64)
        record = executor.run(kernel, repetitions=5, noisy=False)
        assert record.recorded_traffic.read_bytes == \
            5 * record.true_traffic.read_bytes
        assert record.runtime_total == pytest.approx(
            5 * record.runtime_per_rep)

    def test_clock_advances_with_runtime(self, quiet_node):
        executor = Executor(quiet_node)
        before = quiet_node.clock
        record = executor.run(Gemm(128), noisy=False)
        assert quiet_node.clock == pytest.approx(
            before + record.runtime_per_rep)

    def test_advance_clock_false(self, quiet_node):
        executor = Executor(quiet_node)
        executor.run(Gemm(64), noisy=False, advance_clock=False)
        assert quiet_node.clock == 0.0

    def test_cores_released_after_run(self, executor, quiet_node):
        executor.run(Gemm(64), n_cores=5, noisy=False)
        assert quiet_node.socket(0).active_core_count == 0

    def test_too_many_cores_rejected(self, executor):
        with pytest.raises(ConfigurationError):
            executor.run(Gemm(64), n_cores=22)

    def test_zero_cores_rejected(self, executor):
        with pytest.raises(ConfigurationError):
            executor.run(Gemm(64), n_cores=0)

    @pytest.mark.parametrize("repetitions", [0, -1])
    def test_nonpositive_repetitions_rejected(self, repetitions):
        node = Node(SUMMIT, seed=3)
        energy = [PackageEnergyModel(node, s) for s in range(2)]
        before = _fingerprint(node, energy)
        with pytest.raises(ConfigurationError):
            Executor(node).run(Gemm(64), n_cores=4, repetitions=repetitions)
        assert _fingerprint(node, energy) == before
        assert node.socket(0).active_core_count == 0

    def test_socket_selection(self, executor, quiet_node):
        executor.run(Gemm(64), socket_id=1, noisy=False)
        assert quiet_node.socket(1).memory.total_read_bytes > 0
        assert quiet_node.socket(0).memory.total_read_bytes == 0

    def test_noisy_adds_per_rep_overhead(self):
        node = Node(SUMMIT, seed=3)  # default (noisy) config
        executor = Executor(node)
        record = executor.run(Gemm(64), repetitions=3, noisy=True)
        assert record.recorded_traffic.read_bytes > \
            3 * record.true_traffic.read_bytes * 0.5  # sanity
        # per-rep first-touch overhead pushes recorded above pure jitter
        assert record.recorded_traffic.total_bytes != \
            3 * record.true_traffic.total_bytes


# ----------------------------------------------------------------------
# Differential: the batched run against a loop of single repetitions.

def _per_repetition_run(executor, kernel, socket_id, n_cores, repetitions,
                        noisy, background, advance_clock):
    """Executor.run as it was before repetitions were batched: one
    capture draw, one first-touch draw, one record and one clock step
    per repetition. The batched path must reproduce it bit for bit."""
    node = executor.node
    sock = node.socket(socket_id)
    cores = sock.usable_cores[:n_cores]
    for c in cores:
        c.mark_busy(True)
    try:
        ctx = executor.cache_context(socket_id, n_cores,
                                     kernel.footprint_bytes())
        per_core = kernel.traffic(ctx, SoftwarePrefetch())
        true_one_rep = per_core.scaled(n_cores)
        efficiency = max(1e-3, kernel.bandwidth_efficiency(SoftwarePrefetch()))
        runtime = cores[0].estimate_runtime(
            kernel.flops(), per_core.total_bytes / efficiency,
            active_cores_on_socket=n_cores)
        noise = node.noise_model(socket_id)
        recorded = TrafficCounters()
        for _ in range(repetitions):
            factor = noise.capture_factor(runtime) if noisy else 1.0
            rep = true_one_rep.scaled(factor)
            if noisy:
                rep.add(noise.per_rep_traffic())
            sock.record_traffic(rep.read_bytes, rep.write_bytes)
            recorded.add(rep)
            if advance_clock:
                node.advance(runtime, background=background and noisy)
        for c in cores:
            c.retire_work(kernel.flops() * repetitions, runtime * repetitions)
    finally:
        for c in cores:
            c.mark_busy(False)
    return ExecutionRecord(
        kernel=kernel.name, socket_id=socket_id, n_cores=n_cores,
        repetitions=repetitions, true_traffic=true_one_rep,
        recorded_traffic=recorded, runtime_per_rep=runtime)


def _fingerprint(node, energy, record=None):
    """Every simulated value a run can touch, floats by their bits."""
    state = {
        "clock": node.clock.hex(),
        "energy": [m._energy_uj.hex() for m in energy],
        "txns": [(s.memory.total_read_bytes, s.memory.total_write_bytes)
                 for s in node.sockets],
        "rng": [node.noise_model(i)._rng.bit_generator.state
                for i in range(len(node.sockets))],
        "cores": [(c.busy, c.counter_flops, c.counter_cycles,
                   c.counter_instructions)
                  for s in node.sockets for c in s.cores],
    }
    if record is not None:
        state["record"] = (
            record.kernel, record.socket_id, record.n_cores,
            record.repetitions, tuple(record.true_traffic),
            tuple(record.recorded_traffic), record.runtime_per_rep.hex())
    return state


_NOISE = {
    "default": NoiseConfig(),
    "quiet": QUIET,
    "no-background-sigma": NoiseConfig(background_sigma=0.0),
    "no-capture-sigma": NoiseConfig(capture_sigma0=0.0),
    # Bytes so large that one ulp of a lognormal jitter moves the
    # truncated byte count, so the counters see how each jitter was
    # exponentiated (np.exp and math.exp differ in the last bit). The
    # kernels' runtimes stay below 10 ms, keeping every count in int64.
    "magnified": NoiseConfig(per_rep_read_bytes=2.0**50,
                             per_rep_write_bytes=2.0**49,
                             background_read_rate=2.0**64,
                             background_write_rate=2.0**63),
}
_KERNELS = (Gemm(64), Gemm(256), CappedGemv(m=4096, n=64, p=64),
            StreamKernel("triad", 1 << 16), StreamKernel("copy", 1 << 22))


class TestBatchedRepetitions:
    @settings(max_examples=200, deadline=None)
    @example(machine=SUMMIT, noise="magnified", kernel=_KERNELS[-1],
             repetitions=300, noisy=True, background=True,
             advance_clock=True, socket_id=1, n_cores=2, warmup=0.0, seed=5)
    @given(machine=st.sampled_from([SUMMIT, TELLICO]),
           noise=st.sampled_from(sorted(_NOISE)),
           kernel=st.sampled_from(_KERNELS),
           repetitions=st.integers(1, 300),
           noisy=st.booleans(), background=st.booleans(),
           advance_clock=st.booleans(),
           socket_id=st.sampled_from([0, 1]),
           n_cores=st.sampled_from([1, 2, 7, 16]),
           warmup=st.sampled_from([0.0, 1e-3, 0.37]),
           seed=st.integers(0, 2**16))
    def test_matches_per_repetition_loop(self, machine, noise, kernel,
                                         repetitions, noisy, background,
                                         advance_clock, socket_id, n_cores,
                                         warmup, seed):
        args = dict(socket_id=socket_id, n_cores=n_cores,
                    repetitions=repetitions, noisy=noisy,
                    background=background, advance_clock=advance_clock)
        states = []
        for batched in (True, False):
            node = Node(machine, seed=seed, noise=_NOISE[noise])
            energy = [PackageEnergyModel(node, s)
                      for s in range(len(node.sockets))]
            node.advance(warmup)
            executor = Executor(node)
            if batched:
                record = executor.run(kernel, **args)
            else:
                record = _per_repetition_run(executor, kernel, **args)
            states.append(_fingerprint(node, energy, record))
        assert states[0] == states[1]
