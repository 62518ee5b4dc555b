"""Measurement sessions end to end: PCP vs direct, noise paths."""

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import (
    ConfigurationError,
    PapiNoEvent,
    PapiPermissionDenied,
    PCPError,
)
from repro.kernels.blas import CappedGemv, Gemm
from repro.kernels.compiler import compile_kernel
from repro.kernels.stream import StreamKernel
from repro.machine.cache import TrafficCounters
from repro.measure.session import (
    VIA_PCP,
    VIA_PERF_UNCORE,
    MeasurementResult,
    MeasurementSession,
)
from repro.noise import QUIET, NoiseConfig


class TestConstruction:
    def test_default_via_follows_privilege(self):
        assert MeasurementSession("summit", seed=1).via == VIA_PCP
        assert MeasurementSession("tellico", seed=1).via == VIA_PERF_UNCORE

    def test_invalid_via(self):
        with pytest.raises(ConfigurationError):
            MeasurementSession("summit", via="telepathy")

    def test_summit_cannot_use_uncore(self):
        session = MeasurementSession("summit", via=VIA_PERF_UNCORE, seed=1)
        with pytest.raises(PapiPermissionDenied):
            session.measure_kernel(Gemm(64))

    def test_event_name_spelling_per_path(self):
        pcp = MeasurementSession("summit", seed=1)
        unc = MeasurementSession("tellico", seed=1)
        assert pcp.nest_event_names(0)[0].startswith("pcp:::")
        assert unc.nest_event_names(0)[0].startswith("power9_nest")
        assert len(pcp.nest_event_names(0)) == 16

    def test_batch_core_count(self):
        assert MeasurementSession("summit", seed=1).batch_core_count() == 21
        assert MeasurementSession("tellico", seed=1).batch_core_count() == 16


class TestQuietMeasurements:
    def test_measured_equals_law_without_noise(self, quiet_summit_session):
        kernel = Gemm(256)
        result = quiet_summit_session.measure_kernel(kernel, noisy=False)
        assert result.measured.read_bytes == \
            result.true_traffic.read_bytes
        assert result.read_ratio == pytest.approx(1.0, rel=0.01)

    def test_repetitions_average_back_to_one_run(self, quiet_summit_session):
        kernel = Gemm(128)
        one = quiet_summit_session.measure_kernel(kernel, repetitions=1,
                                                  noisy=False)
        ten = quiet_summit_session.measure_kernel(kernel, repetitions=10,
                                                  noisy=False)
        assert ten.measured.read_bytes == pytest.approx(
            one.measured.read_bytes, rel=0.01)

    def test_batched_expectation_scales(self, quiet_summit_session):
        result = quiet_summit_session.measure_kernel(Gemm(128), n_cores=21,
                                                     noisy=False)
        assert result.expected.read_bytes == 21 * Gemm(128).expected_traffic().read_bytes

    def test_direct_path_matches_pcp_path(self, quiet_summit_session,
                                          quiet_tellico_session):
        # The headline claim with noise off: both paths read identical
        # counter values for the same kernel law (modulo cache-share
        # differences between 21- and 16-core sockets at small N).
        kernel = Gemm(128)
        a = quiet_summit_session.measure_kernel(kernel, noisy=False)
        b = quiet_tellico_session.measure_kernel(kernel, noisy=False)
        assert a.measured.read_bytes == b.measured.read_bytes
        assert a.measured.write_bytes == b.measured.write_bytes


class TestResultProperties:
    def test_ratios(self, quiet_summit_session):
        r = quiet_summit_session.measure_kernel(Gemm(128), noisy=False)
        assert r.read_ratio == pytest.approx(1.0)
        assert r.write_ratio == pytest.approx(1.0)
        assert r.reads_per_write == pytest.approx(3.0)

    def test_metadata(self, quiet_summit_session):
        r = quiet_summit_session.measure_kernel(Gemm(64), repetitions=3)
        assert r.machine == "summit"
        assert r.via == VIA_PCP
        assert r.repetitions == 3
        assert r.runtime_per_rep > 0

    def test_rejects_zero_repetitions(self, quiet_summit_session):
        with pytest.raises(ConfigurationError):
            quiet_summit_session.measure_kernel(Gemm(64), repetitions=0)


class TestNoisePath:
    def test_noise_enters_through_counters(self):
        noisy = MeasurementSession("summit", seed=5)
        quiet = MeasurementSession("summit", seed=5, noise=QUIET)
        kernel = Gemm(64)
        rn = noisy.measure_kernel(kernel)
        rq = quiet.measure_kernel(kernel, noisy=False)
        assert rn.measured.read_bytes != rq.measured.read_bytes

    def test_deterministic_given_seed(self):
        a = MeasurementSession("summit", seed=5).measure_kernel(Gemm(64))
        b = MeasurementSession("summit", seed=5).measure_kernel(Gemm(64))
        assert tuple(a.measured) == tuple(b.measured)


# ----------------------------------------------------------------------
# Differential: one reused EventSet per socket against a rebuilt one per
# measurement.

def _rebuilding_measure(session, kernel, n_cores=1, repetitions=1,
                        socket_id=0, noisy=True):
    """measure_kernel as it was before event sets were reused: every
    measurement opens a new set, paying each add_event's round trips.
    Reuse must leave every count, clock and generator as this does."""
    if repetitions < 1:
        raise ConfigurationError("repetitions must be >= 1")
    es = session.papi.create_eventset()
    es.add_events(session.nest_event_names(socket_id))
    es.start()
    if noisy:
        fixed = session.node.noise_model(socket_id).window_fixed_traffic()
        session.node.socket(socket_id).record_traffic(fixed.read_bytes,
                                                      fixed.write_bytes)
    record = session.executor.run(
        kernel, socket_id=socket_id, n_cores=n_cores,
        repetitions=repetitions, prefetch=compile_kernel().prefetch,
        noisy=noisy)
    values = es.stop_dict()
    read = sum(v for k, v in values.items() if "READ" in k)
    write = sum(v for k, v in values.items() if "WRITE" in k)
    expected_one = kernel.expected_traffic()
    return MeasurementResult(
        kernel=kernel.name, machine=session.machine.name, via=session.via,
        n_cores=n_cores, repetitions=repetitions,
        measured=TrafficCounters(read // repetitions, write // repetitions),
        expected=(expected_one.scaled(n_cores)
                  if expected_one is not None else None),
        true_traffic=record.true_traffic,
        runtime_per_rep=record.runtime_per_rep)


def _result_bits(result):
    fields = dataclasses.asdict(result)
    fields["runtime_per_rep"] = result.runtime_per_rep.hex()
    return fields


def _session_state(session):
    """Every simulated value a measurement touches, floats by bits."""
    node = session.node
    state = {
        "clock": node.clock.hex(),
        "energy": [m._energy_uj.hex()
                   for m in session.papi.component("rapl")._models],
        "txns": [(s.memory.total_read_bytes, s.memory.total_write_bytes)
                 for s in node.sockets],
        "rng": [node.noise_model(i)._rng.bit_generator.state
                for i in range(len(node.sockets))],
    }
    if session.via == VIA_PCP:
        context = session.papi.component(VIA_PCP).context
        state["client"] = (context.round_trips, context.cached_lookups,
                           context.gaps)
    return state


_REUSE_KERNELS = (Gemm(64), Gemm(256), CappedGemv(m=4096, n=64, p=64),
                  StreamKernel("triad", 1 << 16))
_REUSE_NOISE = {"default": NoiseConfig(), "quiet": QUIET}
#: One measure_kernel call: kernel index, repetitions, noisy, socket id,
#: core count. 99 cores fails inside Executor.run, after start().
_CALL = st.tuples(st.integers(0, len(_REUSE_KERNELS) - 1),
                  st.integers(1, 40), st.booleans(), st.sampled_from([0, 1]),
                  st.sampled_from([1, 4, 99]))


def _measure_all(session, calls, measure):
    """Run ``calls`` through ``measure``; results, then the end state."""
    out = []
    for k, repetitions, noisy, socket_id, n_cores in calls:
        try:
            result = measure(session, _REUSE_KERNELS[k], n_cores=n_cores,
                             repetitions=repetitions, socket_id=socket_id,
                             noisy=noisy)
        except ConfigurationError as exc:
            out.append(("raised", str(exc)))
        else:
            out.append(_result_bits(result))
        out.append(_session_state(session))
    return out


def _twins(machine, via, seed, noise, cache_lookups=False):
    sessions = []
    for _ in range(2):
        session = MeasurementSession(machine, via=via, seed=seed,
                                     noise=_REUSE_NOISE[noise])
        if via == VIA_PCP:
            session.papi.component(VIA_PCP).context.cache_lookups = \
                cache_lookups
        sessions.append(session)
    return sessions


class TestEventSetReuse:
    @settings(max_examples=100, deadline=None)
    @example(path=("summit", VIA_PCP), noise="default", cache_lookups=False,
             calls=[(0, 3, True, 0, 1), (1, 2, True, 0, 99),
                    (2, 5, False, 0, 4), (3, 1, True, 1, 1)], seed=7)
    @example(path=("tellico", VIA_PERF_UNCORE), noise="default",
             cache_lookups=False,
             calls=[(0, 3, True, 1, 1), (1, 2, True, 1, 99),
                    (2, 5, False, 1, 4)], seed=7)
    @example(path=("summit", VIA_PCP), noise="quiet", cache_lookups=True,
             calls=[(0, 1, True, 0, 1), (3, 2, False, 0, 1),
                    (1, 4, True, 1, 4), (2, 1, True, 0, 1)], seed=3)
    @given(path=st.sampled_from([("summit", VIA_PCP),
                                 ("tellico", VIA_PERF_UNCORE)]),
           noise=st.sampled_from(sorted(_REUSE_NOISE)),
           cache_lookups=st.booleans(),
           calls=st.lists(_CALL, min_size=1, max_size=6),
           seed=st.integers(0, 2**16))
    def test_matches_rebuild_per_measurement(self, path, noise,
                                             cache_lookups, calls, seed):
        machine, via = path
        reused, rebuilt = _twins(machine, via, seed, noise, cache_lookups)
        got = _measure_all(reused, calls, MeasurementSession.measure_kernel)
        want = _measure_all(rebuilt, calls, _rebuilding_measure)
        assert got == want

    def test_daemon_restart_and_stop_rebuild_the_set(self):
        """A cached set's charge assumes the daemon that validated it;
        restarting or stopping the daemon rebuilds the set, so even the
        client's lookup cache ends as a rebuild leaves it."""
        reused, rebuilt = _twins("summit", VIA_PCP, 11, "default",
                                 cache_lookups=True)
        states = []
        for session, measure in ((reused, MeasurementSession.measure_kernel),
                                 (rebuilt, _rebuilding_measure)):
            out = []
            for step in ("measure", "restart", "measure", "measure",
                         "stop", "measure", "start", "measure", "measure"):
                if step == "restart":
                    session.pmcd.restart()
                elif step in ("stop", "start"):
                    session.pmcd.running = step == "start"
                else:
                    try:
                        out.append(_result_bits(measure(session, Gemm(64))))
                    except (PapiNoEvent, PCPError) as exc:
                        out.append(("raised", type(exc).__name__, str(exc)))
                out.append(_session_state(session))
            out.append(sorted(session.papi.component(
                VIA_PCP).context._lookup_cache))
            states.append(out)
        assert states[0] == states[1]
        assert ("raised" in (entry[0] for entry in states[0]
                             if isinstance(entry, tuple)))

    def test_reuse_opens_each_socket_once(self, quiet_summit_session):
        session = quiet_summit_session
        context = session.papi.component(VIA_PCP).context
        session.measure_kernel(Gemm(64))
        served = session.pmcd.stats.requests
        trips = context.round_trips
        session.measure_kernel(Gemm(64))
        # The daemon serves only the start and stop fetches; the client
        # still counts the 32 round trips a rebuild would have made.
        assert session.pmcd.stats.requests - served == 2
        assert context.round_trips - trips == 34

    def test_failed_measurement_drops_the_set(self, quiet_tellico_session):
        session = quiet_tellico_session
        with pytest.raises(ConfigurationError):
            session.measure_kernel(Gemm(64), n_cores=99)
        result = session.measure_kernel(Gemm(64), noisy=False)
        assert result.measured.read_bytes == result.true_traffic.read_bytes
