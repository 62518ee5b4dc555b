"""Sampling profiler: config validation, estimator laws, component.

Covers the SPE/PEBS-style sampling observer (repro.papi.sampling):

* knob validation (constructor and environment, parse-time errors
  like the engine's envconfig);
* exactness at period 1 against the exact engine, including the
  write-combining (bypassed store) path;
* the monotone-in-expectation accuracy law (hypothesis, averaged
  over seeds — single draws are noisy by design);
* skid semantics, segmentation invariance, determinism;
* the PAPI component + event-set integration and the pipelined
  engine's segment tap.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.envconfig import (
    SAMPLE_JITTER_ENV,
    SAMPLE_PERIOD_ENV,
    SAMPLE_SKID_ENV,
    nonnegative_int,
)
from repro.engine.exact import ExactEngine
from repro.engine.pipeline import PipelinedExactEngine
from repro.errors import PapiNoEvent, SimulationError
from repro.kernels import Gemm, StreamKernel
from repro.machine.config import CacheConfig
from repro.papi import Papi
from repro.papi.components.sampling import SamplingComponent
from repro.papi.sampling import (
    LEVEL_CACHE,
    LEVEL_MEMORY,
    LEVEL_WCB,
    SamplingConfig,
    SamplingObserver,
)
from repro.units import KIB
from tests.test_experiment_metrics import frozen_drift

SMALL_CACHE = CacheConfig(capacity_bytes=16 * KIB)
REPLAY_CACHE = CacheConfig(capacity_bytes=128 * KIB)
#: The seed the frozen accuracy figures were measured at.
FROZEN_SEED = 20230613


def _exact(kernel, cache):
    return ExactEngine(cache).run_nest(
        list(kernel.streams()), kernel.exact_trace())


def _observe(kernel, cache, **cfg):
    observer = SamplingObserver(cache, kernel.streams(),
                                SamplingConfig(**cfg))
    return observer.observe_kernel(kernel)


class TestConfigValidation:
    @pytest.mark.parametrize("value", [0, -1, "abc", "nan", float("nan")])
    def test_period_rejects_nonpositive_and_unparsable(self, value):
        with pytest.raises(SimulationError, match="period"):
            SamplingConfig(period=value)

    @pytest.mark.parametrize("field", ["skid", "skid_jitter",
                                       "period_jitter", "store_jitter"])
    def test_nonnegative_fields_reject_negative(self, field):
        with pytest.raises(SimulationError, match=field):
            SamplingConfig(period=64, store_period=8, **{field: -1})

    def test_jitter_must_stay_below_period(self):
        with pytest.raises(SimulationError, match="period_jitter"):
            SamplingConfig(period=8, period_jitter=8)
        with pytest.raises(SimulationError, match="store_jitter"):
            SamplingConfig(period=64, store_period=4, store_jitter=7)

    def test_store_period_rejects_zero(self):
        with pytest.raises(SimulationError, match="store_period"):
            SamplingConfig(period=64, store_period=0)

    def test_env_defaults_resolve(self, monkeypatch):
        monkeypatch.setenv(SAMPLE_PERIOD_ENV, "32")
        monkeypatch.setenv(SAMPLE_SKID_ENV, "3")
        monkeypatch.setenv(SAMPLE_JITTER_ENV, "2")
        cfg = SamplingConfig()
        assert cfg.period == 32
        assert cfg.skid == 3
        assert cfg.skid_jitter == 2

    @pytest.mark.parametrize("env,bad", [
        (SAMPLE_PERIOD_ENV, "0"),
        (SAMPLE_PERIOD_ENV, "abc"),
        (SAMPLE_PERIOD_ENV, "nan"),
        (SAMPLE_SKID_ENV, "-1"),
        (SAMPLE_JITTER_ENV, "2.5"),
    ])
    def test_env_parse_errors_name_the_variable(self, monkeypatch,
                                                env, bad):
        monkeypatch.setenv(env, bad)
        with pytest.raises(SimulationError, match=env):
            SamplingConfig()

    def test_explicit_args_override_env(self, monkeypatch):
        monkeypatch.setenv(SAMPLE_PERIOD_ENV, "bogus")
        # The env knob is only consulted when the field is left unset.
        assert SamplingConfig(period=16).period == 16

    def test_nonnegative_int_helper(self):
        assert nonnegative_int(0, "x") == 0
        assert nonnegative_int("7", "x") == 7
        with pytest.raises(SimulationError, match="x"):
            nonnegative_int(-1, "x")
        with pytest.raises(SimulationError, match="x"):
            nonnegative_int("y", "x")


class TestExactnessAtPeriodOne:
    @pytest.mark.parametrize("kernel,cache", [
        (Gemm(32), SMALL_CACHE),
        # stream stores bypass the cache: exercises the WCB estimator.
        (StreamKernel("triad", 2048), SMALL_CACHE),
        (StreamKernel("copy", 1024), CacheConfig(capacity_bytes=4 * KIB)),
    ])
    def test_period_one_reproduces_exact_engine(self, kernel, cache):
        ref = _exact(kernel, cache)
        obs = _observe(kernel, cache, period=1, period_jitter=0,
                       store_period=1, store_jitter=0, seed=5)
        assert obs.exact_traffic().read_bytes == ref.read_bytes
        assert obs.exact_traffic().write_bytes == ref.write_bytes
        est = obs.estimated_traffic()
        assert est.read_bytes == ref.read_bytes
        assert est.write_bytes == ref.write_bytes

    def test_replay_matches_exact_engine_when_sampling(self):
        # The replay stays exact at any sample rate — only the
        # *estimates* are statistical.
        kernel = Gemm(24)
        ref = _exact(kernel, SMALL_CACHE)
        obs = _observe(kernel, SMALL_CACHE, period=64, seed=2)
        assert obs.exact_traffic().read_bytes == ref.read_bytes
        assert obs.exact_traffic().write_bytes == ref.write_bytes


class TestEstimators:
    def test_segmentation_is_invisible(self):
        kernel = Gemm(24)
        fine = _observe(kernel, SMALL_CACHE, period=16, seed=9)
        # observe_kernel with a tiny target re-chunks the emitter;
        # triggers live on global axes so nothing may move.
        coarse = SamplingObserver(
            SMALL_CACHE, kernel.streams(),
            SamplingConfig(period=16, seed=9))
        for segment in kernel.segments(500):
            coarse.observe(segment)
        coarse.finish()
        assert fine.estimated_traffic() == coarse.estimated_traffic()
        assert np.array_equal(fine.records()["row"],
                              coarse.records()["row"])

    def test_same_seed_is_deterministic(self):
        kernel = Gemm(24)
        a = _observe(kernel, SMALL_CACHE, period=32, seed=11)
        b = _observe(kernel, SMALL_CACHE, period=32, seed=11)
        assert a.estimated_traffic() == b.estimated_traffic()
        assert np.array_equal(a.records()["addr"], b.records()["addr"])

    def test_different_seed_moves_samples(self):
        kernel = Gemm(24)
        a = _observe(kernel, SMALL_CACHE, period=32, seed=1)
        b = _observe(kernel, SMALL_CACHE, period=32, seed=2)
        assert not np.array_equal(a.records()["row"], b.records()["row"])

    def test_levels_partition_records(self):
        kernel = StreamKernel("triad", 2048)
        obs = _observe(kernel, SMALL_CACHE, period=8, seed=3)
        levels = obs.records()["level"]
        assert set(np.unique(levels)) <= {LEVEL_CACHE, LEVEL_MEMORY,
                                          LEVEL_WCB}
        # Triad's store stream bypasses: its samples must be WCB.
        assert (levels == LEVEL_WCB).any()

    def test_max_records_cap_counts_drops(self):
        kernel = Gemm(24)
        obs = _observe(kernel, SMALL_CACHE, period=16, seed=4,
                       max_records=10)
        assert obs.records_kept == 10
        assert obs.records_dropped > 0
        assert len(obs.records()["addr"]) == 10

    def test_hot_lines_ranked_and_aligned(self):
        kernel = Gemm(32)
        obs = _observe(kernel, SMALL_CACHE, period=8, seed=6)
        hot = obs.hot_lines(top=5)
        assert 0 < len(hot) <= 5
        bytes_ranked = [line["est_read_bytes"] for line in hot]
        assert bytes_ranked == sorted(bytes_ranked, reverse=True)
        for line in hot:
            assert line["line_addr"] % SMALL_CACHE.line_bytes == 0
            assert line["stream"] in {"A", "B", "C"}

    def test_observe_after_finish_raises(self):
        kernel = Gemm(16)
        obs = _observe(kernel, SMALL_CACHE, period=8, seed=1)
        with pytest.raises(SimulationError, match="finish"):
            obs.observe(kernel.exact_trace())


class TestSkid:
    def test_fixed_skid_shifts_records(self):
        kernel = Gemm(24)
        base = _observe(kernel, SMALL_CACHE, period=32, seed=7,
                        skid=0, skid_jitter=0)
        skidded = _observe(kernel, SMALL_CACHE, period=32, seed=7,
                           skid=5, skid_jitter=0)
        rows = base.records()["row"]
        srows = skidded.records()["row"]
        # Same trigger stream; every surviving record trails by
        # exactly the fixed skid (tail triggers may drop off the end).
        n = min(len(rows), len(srows))
        assert n > 0
        assert np.array_equal(srows[:n], rows[:n] + 5)

    def test_skid_past_trace_end_is_dropped_and_counted(self):
        kernel = StreamKernel("copy", 512)
        obs = _observe(kernel, SMALL_CACHE, period=4, seed=1,
                       skid=10_000, skid_jitter=0)
        assert obs.n_samples == 0
        assert obs.skid_dropped > 0

    def test_skid_jitter_is_seeded(self):
        kernel = Gemm(24)
        a = _observe(kernel, SMALL_CACHE, period=32, seed=13,
                     skid=2, skid_jitter=8)
        b = _observe(kernel, SMALL_CACHE, period=32, seed=13,
                     skid=2, skid_jitter=8)
        assert np.array_equal(a.records()["row"], b.records()["row"])


class TestMonotoneAccuracy:
    @given(base_seed=st.integers(0, 2**16))
    @settings(max_examples=5, deadline=None)
    def test_error_decreases_in_expectation_with_rate(self, base_seed):
        # stream-copy against a tiny cache: every 8th read misses and
        # every 8th store completes a WCB sector, so sampling events
        # are dense and the error scale is set by the rate, not by
        # rare-event luck. Averaged over seeds: 16x more samples must
        # not estimate worse (up to slack for residual noise).
        kernel = StreamKernel("copy", 4096)
        cache = CacheConfig(capacity_bytes=2 * KIB)

        def mean_error(period):
            errors = []
            for offset in range(4):
                obs = _observe(kernel, cache, period=period,
                               seed=base_seed * 7 + offset)
                errors.append(obs.relative_errors()["total"])
            return sum(errors) / len(errors)

        assert mean_error(4) <= mean_error(64) + 0.02


class TestFrozenAccuracy:
    """Estimator errors on GEMMs, frozen at one seed. GEMM N=256
    against 512 KiB misses on ~3.6% of its 33.6M accesses, dense
    enough that rare-event variance cannot mask a broken estimator; the
    N=128 sweep spans a 16x sample rate. Every swept estimate lands
    within 5% of the exact traffic. The observer is deterministic, so
    each metric must equal its frozen value to a relative 1e-9 (the
    rule of tests/test_experiment_metrics.py)."""

    #: (N, cache KiB, period) -> frozen metrics at :data:`FROZEN_SEED`
    FROZEN = {
        (256, 512, 128): {"total_rel_error": 0.012047298040257117,
                          "read_rel_error": 0.012714638310485025,
                          "write_rel_error": 0.08763388510223957,
                          "sample_fraction": 0.0080558970192952},
        (128, 128, 32): {"total_rel_error": 0.0020318448140893824},
        (128, 128, 128): {"total_rel_error": 0.02249886557352524},
        (128, 128, 512): {"total_rel_error": 0.0014836277311982473},
        (64, 128, 8): {"sample_fraction": 0.13278032642926357},
    }

    @pytest.mark.parametrize("case", list(FROZEN),
                             ids=lambda c: "gemm{}-{}k-p{}".format(*c))
    def test_estimates_match_frozen(self, case):
        n, cache_kib, period = case
        observer = _observe(Gemm(n),
                            CacheConfig(capacity_bytes=cache_kib * KIB),
                            period=period, seed=FROZEN_SEED)
        errors = observer.relative_errors()
        metrics = {f"{k}_rel_error": v for k, v in errors.items()}
        metrics["sample_fraction"] = (observer.n_samples
                                      / observer.accesses_observed)
        drift = frozen_drift(metrics, self.FROZEN[case])
        assert not drift, drift
        if "total_rel_error" in self.FROZEN[case]:
            assert errors["total"] < 0.05


class TestComponent:
    def test_papi_registers_component_when_observer_passed(
            self, summit_node):
        kernel = Gemm(24)
        observer = SamplingObserver(SMALL_CACHE, kernel.streams(),
                                    SamplingConfig(period=16, seed=1))
        papi = Papi(summit_node, sampling_observer=observer)
        assert "sampling" in papi.component_names()
        available, _ = papi.component("sampling").is_available()
        assert available
        events = papi.component("sampling").list_events()
        assert "sampling:::EST_TOTAL_BYTES" in events

        es = papi.create_eventset()
        es.add_events(["sampling:::EST_READ_BYTES",
                       "sampling:::SAMPLES",
                       "sampling:::ACCESSES_OBSERVED"])
        es.start()
        observer.observe_kernel(kernel)
        counts = es.stop_dict()
        est = observer.estimated_traffic()
        assert counts["sampling:::EST_READ_BYTES"] == int(
            round(est.read_bytes))
        assert counts["sampling:::SAMPLES"] == observer.n_samples
        assert (counts["sampling:::ACCESSES_OBSERVED"]
                == observer.accesses_observed)

    def test_papi_without_observer_has_no_sampling_component(
            self, summit_node):
        assert "sampling" not in Papi(summit_node).component_names()

    def test_unattached_component_reports_unavailable(self):
        component = SamplingComponent()
        available, reason = component.is_available()
        assert not available
        assert "attach" in reason
        # Events still open (PAPI semantics) and read as zero.
        handle = component.open_event("sampling:::SAMPLES")
        assert handle.read() == 0

    def test_attach_binds_observer(self):
        component = SamplingComponent()
        kernel = Gemm(16)
        observer = SamplingObserver(SMALL_CACHE, kernel.streams(),
                                    SamplingConfig(period=8, seed=1))
        observer.observe_kernel(kernel)
        component.attach(observer)
        assert component.is_available()[0]
        handle = component.open_event("sampling:::STORE_SAMPLES")
        assert handle.read() == observer.n_store_samples

    def test_unknown_event_raises(self):
        with pytest.raises(PapiNoEvent, match="NO_SUCH"):
            SamplingComponent().open_event("sampling:::NO_SUCH")


class TestPipelineTap:
    @pytest.mark.parametrize("kernel", [Gemm(24),
                                        StreamKernel("triad", 2048)])
    def test_segment_tap_profiles_pipelined_run(self, kernel):
        observer = SamplingObserver(SMALL_CACHE, kernel.streams(),
                                    SamplingConfig(period=32, seed=3))
        with PipelinedExactEngine(SMALL_CACHE, n_workers=0) as engine:
            engine.segment_tap = observer.observe
            traffic = engine.run_kernel(kernel)
        observer.finish()
        assert observer.accesses_observed == len(kernel.exact_trace())
        # The observer's replay agrees with the engine byte for byte.
        assert observer.exact_traffic().read_bytes == traffic.read_bytes
        assert (observer.exact_traffic().write_bytes
                == traffic.write_bytes)
        assert observer.n_samples > 0


# ----------------------------------------------------------------------
# vectorized replay: bit-identical to the scalar oracle
# ----------------------------------------------------------------------
def _pair(kernel, cache, **cfg):
    """Run the same kernel through both replay implementations."""
    out = []
    for vectorized in (False, True):
        obs = SamplingObserver(cache, kernel.streams(),
                               SamplingConfig(**cfg),
                               vectorized=vectorized)
        obs.observe_kernel(kernel)
        out.append(obs)
    return out


def _assert_identical(scalar, vector):
    s_rec, v_rec = scalar.records(), vector.records()
    for field in ("row", "addr", "size", "stream_id", "is_write",
                  "level", "channel"):
        np.testing.assert_array_equal(v_rec[field], s_rec[field], field)
    for attr in ("n_samples", "n_store_samples", "accesses_observed",
                 "stores_observed", "records_kept", "records_dropped",
                 "skid_dropped"):
        assert getattr(vector, attr) == getattr(scalar, attr), attr
    assert vector.estimated_traffic() == scalar.estimated_traffic()
    assert vector.exact_traffic() == scalar.exact_traffic()
    assert vector.hot_lines(10) == scalar.hot_lines(10)


class TestVectorizedReplay:
    @pytest.mark.parametrize("kernel,cache,cfg", [
        (Gemm(24), SMALL_CACHE,
         dict(period=8, seed=3)),
        (Gemm(24), SMALL_CACHE,
         dict(period=8, period_jitter=3, store_period=4, store_jitter=1,
              skid=7, skid_jitter=5, seed=17)),
        # Bypassed stores: WCB plane + LEVEL_WCB samples.
        (StreamKernel("triad", 2048), SMALL_CACHE,
         dict(period=8, store_period=2, skid=3, skid_jitter=2, seed=5)),
        (StreamKernel("copy", 1024), CacheConfig(capacity_bytes=4 * KIB),
         dict(period=1, store_period=1, seed=1)),
        # Record-cap truncation must drop the same tail.
        (Gemm(24), SMALL_CACHE,
         dict(period=16, seed=4, max_records=25)),
        # One sample per ~8 of GEMM N=64's 0.5M accesses.
        (Gemm(64), REPLAY_CACHE, dict(period=8, seed=FROZEN_SEED)),
    ], ids=["gemm", "gemm-jitter-skid", "triad-wcb", "copy-period1",
            "max-records", "gemm64-period8"])
    def test_bit_identical_to_scalar_oracle(self, kernel, cache, cfg):
        scalar, vector = _pair(kernel, cache, **cfg)
        _assert_identical(scalar, vector)
        assert vector.overhead()["span_guard_fallbacks"] == 0

    @pytest.mark.slow
    def test_vectorized_replay_at_least_3x_faster_than_scalar(self):
        kernel = Gemm(64)
        wall = {}
        for vectorized in (False, True):
            observer = SamplingObserver(
                REPLAY_CACHE, kernel.streams(),
                SamplingConfig(period=8, seed=FROZEN_SEED),
                vectorized=vectorized)
            t0 = time.perf_counter()
            observer.observe_kernel(kernel)
            wall[vectorized] = time.perf_counter() - t0
        assert wall[False] / wall[True] >= 3.0

    @given(period=st.integers(1, 48),
           skid=st.integers(0, 40),
           skid_jitter=st.integers(0, 20),
           seed=st.integers(0, 2**16))
    @settings(max_examples=10, deadline=None)
    def test_bit_identical_under_random_knobs(self, period, skid,
                                              skid_jitter, seed):
        jitter = min(period - 1, 3)
        scalar, vector = _pair(
            Gemm(16), SMALL_CACHE, period=period, period_jitter=jitter,
            store_period=max(1, period // 2), skid=skid,
            skid_jitter=skid_jitter, seed=seed)
        _assert_identical(scalar, vector)

    def test_wide_rows_take_span_guard_fallback(self):
        # A row spanning >= n_sets cache lines can self-interfere
        # within one set, which the batched probe cannot see; such
        # segments must fall back to the scalar slice replay — and
        # still match the oracle bit for bit.
        from repro.engine.stream import BatchTrace, StreamDecl

        tiny = CacheConfig(capacity_bytes=1024, line_bytes=128,
                           associativity=2)  # 4 sets
        assert tiny.n_sets == 4
        rng = np.random.default_rng(42)
        n = 600
        trace = BatchTrace(
            streams=("a",),
            stream_id=np.zeros(n, dtype=np.int16),
            addr=rng.integers(0, 1 << 14, size=n),
            size=rng.integers(700, 1000, size=n),  # spans 6-8 lines
            is_write=rng.random(n) < 0.3,
        )
        decl = StreamDecl(name="a", is_write=False, n_accesses=n,
                          elem_bytes=8, stride_bytes=8,
                          footprint_bytes=n * 8)
        results = []
        for vectorized in (False, True):
            obs = SamplingObserver(tiny, [decl],
                                   SamplingConfig(period=5, skid=2,
                                                  seed=9),
                                   vectorized=vectorized)
            obs.observe(trace)
            obs.finish()
            results.append(obs)
        scalar, vector = results
        assert vector._span_guard(trace.addr.astype(np.int64),
                                  trace.size.astype(np.int64))
        assert vector.overhead()["span_guard_fallbacks"] >= 1
        _assert_identical(scalar, vector)

    def test_pending_skids_cross_segment_boundaries(self):
        # Records skidded past a segment's end must land identically
        # whatever replay handles the next segment.
        kernel = Gemm(20)
        results = []
        for vectorized in (False, True):
            obs = SamplingObserver(
                SMALL_CACHE, kernel.streams(),
                SamplingConfig(period=6, skid=150, skid_jitter=40,
                               seed=21),
                vectorized=vectorized)
            for segment in kernel.segments(100):
                obs.observe(segment)
            obs.finish()
            results.append(obs)
        _assert_identical(*results)

    def test_cli_scalar_replay_flag(self, capsys):
        import json

        from repro.cli import main

        outputs = {}
        for flag in ([], ["--scalar-replay"]):
            rc = main(["sample", "--kernel", "gemm", "--size", "16",
                       "--cache-kib", "16", "--period", "8", "--seed",
                       "3", "--json"] + flag)
            assert rc == 0
            outputs[bool(flag)] = json.loads(capsys.readouterr().out)
        assert outputs[False]["replay"] == "vectorized"
        assert outputs[True]["replay"] == "scalar"
        for key in ("estimated", "exact", "levels", "hot_lines"):
            assert outputs[False][key] == outputs[True][key]


class TestTriggerArrays:
    @given(seed=st.integers(0, 2**16),
           period=st.integers(1, 40),
           jitter_cap=st.integers(0, 10),
           n_windows=st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_array_matches_scalar_draw_for_draw(self, seed, period,
                                                jitter_cap, n_windows):
        from repro.papi.sampling import _Channel

        jitter = min(period - 1, jitter_cap)
        scalar = _Channel(period, jitter, np.random.default_rng(seed))
        vector = _Channel(period, jitter, np.random.default_rng(seed))
        bounds_rng = np.random.default_rng(seed + 1)
        pos = 0
        for _ in range(n_windows):
            width = int(bounds_rng.integers(0, 4 * period + 1))
            got = vector.triggers_array(pos, pos + width)
            ref = scalar.triggers(pos, pos + width)
            np.testing.assert_array_equal(got, np.asarray(ref, np.int64))
            pos += width
        assert vector.next_at == scalar.next_at
        assert vector.fired == scalar.fired
        # Same RNG *state*, not just the same outputs so far: the two
        # implementations stay interchangeable mid-stream.
        assert (vector.rng.bit_generator.state
                == scalar.rng.bit_generator.state)

    def test_empty_window_still_advances_arm(self):
        from repro.papi.sampling import _Channel

        ch = _Channel(10, 0, np.random.default_rng(0))
        phase = ch.next_at
        out = ch.triggers_array(phase + 20, phase + 20)
        assert out.size == 0
        assert ch.next_at == phase + 20
        assert ch.fired == 0
