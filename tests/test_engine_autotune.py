"""Tests for the self-tuning execution layer (DESIGN.md §6.5).

The adaptive layer — AIMD segment sizing, sorted shard spans, worker
affinity, adaptive poll backoff — is pure control plane: it may change
*when* and *how much* work moves through the pipeline, never *what* is
simulated. The differentials here pin that invariant (autotuned pooled
runs are byte-identical to the monolithic batch engine for every
kernel family), and the unit tests pin the control law itself plus the
env-knob plumbing and its precedence rules.
"""

import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.autotune import (
    MIN_SEGMENT_ROWS,
    AdaptiveBackoff,
    AutotuneConfig,
    SegmentSizeController,
    resolve_autotune,
)
from repro.engine.envconfig import (
    AFFINITY_ENV,
    AUTOTUNE_ENV,
    RING_DEPTH_ENV,
    SEGMENT_ROWS_ENV,
    TARGET_OCCUPANCY_ENV,
    affinity_mode,
    default_autotune,
    default_target_occupancy,
    env_flag,
)
from repro.engine.pipeline import PipelinedExactEngine
from repro.errors import SimulationError
from repro.kernels.blas import Dot, Gemm
from repro.kernels.stream import StreamKernel
from tests.test_engine_pipeline import (
    FAMILY_KERNELS,
    SMALL,
    batch_reference,
    pipelined_state,
)

#: Controller config that can actually move inside tiny test segments
#: (the production MIN_SEGMENT_ROWS floor would pin rows to the slot).
TINY = AutotuneConfig(target_occupancy=0.75, min_rows=1)


# ----------------------------------------------------------------------
# AIMD controller law
# ----------------------------------------------------------------------
class TestSegmentSizeController:
    def test_grows_additively_while_starved(self):
        ctrl = SegmentSizeController(800, 100, TINY)
        assert ctrl.rows == 100
        ctrl.observe(0.0, stalled=False)
        assert ctrl.rows == 200  # +slot_rows//8
        ctrl.observe(0.5, stalled=False)
        assert ctrl.rows == 300
        for _ in range(20):
            ctrl.observe(0.0, stalled=False)
        assert ctrl.rows == 800  # clamped to the mmapped slot

    def test_high_occupancy_without_stall_holds_steady(self):
        ctrl = SegmentSizeController(800, 400, TINY)
        for _ in range(5):
            ctrl.observe(1.0, stalled=False)
        assert ctrl.rows == 400  # healthy pipeline: no change

    def test_shrinks_multiplicatively_on_congestion(self):
        ctrl = SegmentSizeController(800, 400, TINY)
        ctrl.observe(1.0, stalled=True)
        assert ctrl.rows == 300  # * 3/4
        ctrl.observe(0.9, stalled=True)
        assert ctrl.rows == 225
        for _ in range(40):
            ctrl.observe(1.0, stalled=True)
        assert ctrl.rows == 1  # floored at min_rows

    def test_stall_below_target_still_grows(self):
        ctrl = SegmentSizeController(800, 400, TINY)
        ctrl.observe(0.5, stalled=True)
        assert ctrl.rows == 500

    def test_initial_rows_clamped_to_bounds(self):
        assert SegmentSizeController(800, 10**9, TINY).rows == 800
        cfg = AutotuneConfig(min_rows=64)
        assert SegmentSizeController(800, 1, cfg).rows == 64
        # min_rows larger than the slot collapses to the slot.
        assert SegmentSizeController(32, 1, cfg).rows == 32

    def test_trace_records_every_decision(self):
        ctrl = SegmentSizeController(800, 100, TINY)
        ctrl.observe(0.125, stalled=False)
        ctrl.observe(1.0, stalled=True)
        assert ctrl.trace == [(1, 200, 0.125), (2, 150, 1.0)]

    def test_validation(self):
        with pytest.raises(SimulationError):
            SegmentSizeController(0, 100, TINY)
        with pytest.raises(SimulationError):
            SegmentSizeController(800, 0, TINY)
        assert MIN_SEGMENT_ROWS == AutotuneConfig().min_rows


class TestAdaptiveBackoff:
    def test_doubles_until_capped_then_resets(self):
        b = AdaptiveBackoff(min_s=0.001, max_s=0.005)
        assert [b.timeout() for _ in range(4)] == pytest.approx(
            [0.001, 0.002, 0.004, 0.005])
        assert b.timeout() == pytest.approx(0.005)
        b.reset()
        assert b.timeout() == pytest.approx(0.001)

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveBackoff(min_s=0.0, max_s=1.0)
        with pytest.raises(ValueError):
            AdaptiveBackoff(min_s=0.2, max_s=0.1)


# ----------------------------------------------------------------------
# config + env knobs
# ----------------------------------------------------------------------
class TestAutotuneConfig:
    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.5, "lots"])
    def test_bad_target_occupancy_rejected(self, bad):
        with pytest.raises(SimulationError, match="target_occupancy"):
            AutotuneConfig(target_occupancy=bad)

    def test_bad_min_rows_rejected(self):
        with pytest.raises(SimulationError, match="min_rows"):
            AutotuneConfig(min_rows=0)

    def test_resolved_target_prefers_explicit(self, monkeypatch):
        monkeypatch.setenv(TARGET_OCCUPANCY_ENV, "0.5")
        assert AutotuneConfig(target_occupancy=0.9).resolved_target() \
            == 0.9
        assert AutotuneConfig().resolved_target() == 0.5
        monkeypatch.delenv(TARGET_OCCUPANCY_ENV)
        assert AutotuneConfig().resolved_target() == 0.75


class TestEnvKnobs:
    def test_defaults_without_env(self, monkeypatch):
        for env in (AUTOTUNE_ENV, TARGET_OCCUPANCY_ENV, AFFINITY_ENV):
            monkeypatch.delenv(env, raising=False)
        assert default_autotune() is False
        assert default_target_occupancy() == 0.75
        assert affinity_mode() == "auto"

    @pytest.mark.parametrize("raw,expect", [
        ("1", True), ("true", True), ("YES", True), ("on", True),
        ("0", False), ("false", False), ("No", False), ("off", False),
    ])
    def test_flag_spellings(self, monkeypatch, raw, expect):
        monkeypatch.setenv(AUTOTUNE_ENV, raw)
        assert env_flag(AUTOTUNE_ENV) is expect

    def test_junk_values_fail_at_parse_time(self, monkeypatch):
        monkeypatch.setenv(AUTOTUNE_ENV, "maybe")
        with pytest.raises(SimulationError, match=AUTOTUNE_ENV):
            default_autotune()
        monkeypatch.setenv(TARGET_OCCUPANCY_ENV, "1.5")
        with pytest.raises(SimulationError, match=TARGET_OCCUPANCY_ENV):
            default_target_occupancy()
        monkeypatch.setenv(AFFINITY_ENV, "sometimes")
        with pytest.raises(SimulationError, match=AFFINITY_ENV):
            affinity_mode()

    def test_resolve_autotune_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(AUTOTUNE_ENV, "1")
        assert resolve_autotune(None) is True
        assert resolve_autotune(False) is False
        monkeypatch.setenv(AUTOTUNE_ENV, "0")
        assert resolve_autotune(None) is False
        assert resolve_autotune(True) is True

    def test_engine_picks_up_env_defaults(self, monkeypatch):
        monkeypatch.delenv(AFFINITY_ENV, raising=False)
        monkeypatch.setenv(AUTOTUNE_ENV, "1")
        eng = PipelinedExactEngine(SMALL, n_workers=0)
        assert eng.autotune is True
        assert eng.affinity is True  # auto mode follows autotune
        monkeypatch.setenv(AFFINITY_ENV, "off")
        assert PipelinedExactEngine(SMALL, n_workers=0).affinity is False
        assert PipelinedExactEngine(
            SMALL, n_workers=0, autotune=False).autotune is False

    def test_constructor_args_beat_sizing_env(self, monkeypatch):
        # Knob-precedence regression: explicit constructor arguments
        # always win; the env default applies only when None.
        monkeypatch.setenv(SEGMENT_ROWS_ENV, "777")
        monkeypatch.setenv(RING_DEPTH_ENV, "9")
        eng = PipelinedExactEngine(SMALL, n_workers=0,
                                   segment_rows=55, ring_depth=3)
        assert eng.segment_rows == 55
        assert eng.ring_depth == 3
        dflt = PipelinedExactEngine(SMALL, n_workers=0)
        assert dflt.segment_rows == 777
        assert dflt.ring_depth == 9


# ----------------------------------------------------------------------
# differential: any tuning trajectory is byte-identical
# ----------------------------------------------------------------------
_REFS = {}


def _ref(kernel_i):
    if kernel_i not in _REFS:
        _REFS[kernel_i] = batch_reference(FAMILY_KERNELS[kernel_i])
    return _REFS[kernel_i]


class TestAutotunedDifferential:
    @given(kernel_i=st.integers(0, len(FAMILY_KERNELS) - 1),
           segment_rows=st.integers(32, 2048),
           ring_depth=st.integers(2, 4),
           target=st.sampled_from([0.25, 0.5, 0.75, 1.0]),
           min_rows=st.integers(1, 256))
    @settings(max_examples=12, deadline=None)
    def test_autotuned_pool_matches_batch_engine(
            self, kernel_i, segment_rows, ring_depth, target, min_rows):
        kernel = FAMILY_KERNELS[kernel_i]
        cfg = AutotuneConfig(target_occupancy=target, min_rows=min_rows)
        with PipelinedExactEngine(SMALL, n_workers=2,
                                  segment_rows=segment_rows,
                                  ring_depth=ring_depth,
                                  autotune=True, autotune_config=cfg,
                                  affinity=False) as eng:
            traffic = eng.run_kernel(kernel)
        assert pipelined_state(eng, traffic) == _ref(kernel_i)
        stats = eng.last_pipeline_stats
        assert stats["autotune"] is True
        assert stats["final_segment_rows"] <= segment_rows
        assert len(stats["tuning_trace"]) == stats["segments"]

    def test_autotuned_many_kernels_persistent_pool(self):
        kernels = [Gemm(10), Dot(777), StreamKernel(op="triad", n=500)]
        refs = [batch_reference(k) for k in kernels]
        with PipelinedExactEngine(SMALL, n_workers=2, segment_rows=173,
                                  autotune=True, autotune_config=TINY,
                                  affinity=False) as eng:
            first = eng.run_many(kernels)
            pids = eng.worker_pids()
            converged = eng.last_pipeline_stats["final_segment_rows"]
            second = eng.run_many(kernels)
            assert eng.worker_pids() == pids  # pool persisted
            # The next run seeds from the converged operating point.
            assert eng.last_pipeline_stats["tuning_trace"][0][1] >= 1
        for results in (first, second):
            for traffic, ref in zip(results, refs):
                assert (traffic.read_bytes, traffic.write_bytes) \
                    == ref[:2]
        assert converged >= 1


# ----------------------------------------------------------------------
# checkpoint / resume across tuning-mode changes
# ----------------------------------------------------------------------
class TestCheckpointAcrossTuningModes:
    def test_resume_after_fault_with_tuning_flipped(self, tmp_path):
        """A suite checkpointed mid-run under one tuning mode must
        resume under the other without changing a byte: checkpoints
        are keyed by kernel and cache geometry, never by the control
        plane."""
        kernels = [Gemm(10), Dot(777), StreamKernel(op="triad", n=800)]
        refs = [batch_reference(k) for k in kernels]

        calls = []

        def hook(worker_id):
            calls.append(worker_id)
            if len(calls) == 2:
                raise RuntimeError("injected fault")

        eng = PipelinedExactEngine(SMALL, n_workers=2, segment_rows=173,
                                   autotune=False,
                                   checkpoint_dir=tmp_path / "ckpt")
        eng.after_shard_hook = hook
        with pytest.raises(RuntimeError, match="injected fault"):
            eng.run_many(kernels)

        fresh = PipelinedExactEngine(SMALL, n_workers=2,
                                     segment_rows=347, ring_depth=2,
                                     autotune=True, autotune_config=TINY,
                                     affinity=False,
                                     checkpoint_dir=tmp_path / "ckpt")
        with fresh:
            results = fresh.run_many(kernels)
        assert fresh.kernels_resumed >= 1
        for traffic, ref in zip(results, refs):
            assert (traffic.read_bytes, traffic.write_bytes) == ref[:2]

    def test_autotuned_checkpoint_satisfies_static_rerun(self, tmp_path):
        kernel = Gemm(10)
        ref = batch_reference(kernel)
        with PipelinedExactEngine(SMALL, n_workers=2, segment_rows=173,
                                  autotune=True, autotune_config=TINY,
                                  affinity=False,
                                  checkpoint_dir=tmp_path / "c") as eng:
            eng.run_many([kernel])
        with PipelinedExactEngine(SMALL, n_workers=0,
                                  checkpoint_dir=tmp_path / "c") as eng:
            results = eng.run_many([kernel])
        assert eng.kernels_resumed == 1
        assert (results[0].read_bytes, results[0].write_bytes) == ref[:2]


# ----------------------------------------------------------------------
# lifecycle: leak reporting + stats surface
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_del_reports_leaked_worker_pids(self):
        eng = PipelinedExactEngine(SMALL, n_workers=1, segment_rows=64)
        eng.run_kernel(Dot(300))
        eng.close()
        eng.close = lambda: [4242, 4243]  # simulate a missed join
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            eng.__del__()
        leaks = [w for w in caught
                 if issubclass(w.category, ResourceWarning)]
        assert len(leaks) == 1
        assert "4242" in str(leaks[0].message)
        assert "4243" in str(leaks[0].message)

    def test_del_is_silent_after_clean_close(self):
        eng = PipelinedExactEngine(SMALL, n_workers=1, segment_rows=64)
        eng.run_kernel(Dot(300))
        assert eng.close() == []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            eng.__del__()
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]

    def test_stats_surface_static_vs_tuned(self):
        with PipelinedExactEngine(SMALL, n_workers=1, segment_rows=101,
                                  autotune=False) as eng:
            eng.run_kernel(Gemm(10))
            static = eng.last_pipeline_stats
        assert static["autotune"] is False
        assert "final_segment_rows" not in static
        assert static["worker_cpus"] is None
        with PipelinedExactEngine(SMALL, n_workers=1, segment_rows=101,
                                  autotune=True, autotune_config=TINY,
                                  affinity=False) as eng:
            eng.run_kernel(Gemm(10))
            tuned = eng.last_pipeline_stats
        assert tuned["autotune"] is True
        assert tuned["target_occupancy"] == 0.75
        assert 1 <= tuned["final_segment_rows"] <= 101
        assert 0.0 <= tuned["mean_ring_occupancy"] <= 1.0
        assert tuned["tuning_trace"]


# ----------------------------------------------------------------------
# CLI smoke
# ----------------------------------------------------------------------
class TestAutotuneCli:
    def test_pipeline_autotune_json_and_trace(self, capsys, tmp_path):
        from repro.cli import main

        trace_path = tmp_path / "tuning.json"
        rc = main(["pipeline", "--kernel", "stream-triad", "--size",
                   "20000", "--workers", "2", "--segment-rows", "4096",
                   "--autotune", "--target-occupancy", "0.5",
                   "--tuning-trace-out", str(trace_path), "--json"])
        captured = capsys.readouterr()
        assert rc == 0
        report = json.loads(captured.out)
        assert report["pipeline"]["autotune"] is True
        assert report["pipeline"]["target_occupancy"] == 0.5
        assert report["pipeline"]["final_segment_rows"] >= 1
        artifact = json.loads(trace_path.read_text())
        assert artifact["autotune"] is True
        assert artifact["target_occupancy"] == 0.5
        assert artifact["final_segment_rows"] \
            == report["pipeline"]["final_segment_rows"]
        assert artifact["trace"]

    def test_pipeline_autotune_human_output(self, capsys):
        from repro.cli import main

        rc = main(["pipeline", "--kernel", "dot", "--size", "4000",
                   "--workers", "1", "--segment-rows", "512",
                   "--autotune"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "autotune: final segment_rows=" in captured.out

    def test_env_autotune_smoke(self, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv(AUTOTUNE_ENV, "1")
        monkeypatch.setenv(AFFINITY_ENV, "off")
        rc = main(["pipeline", "--kernel", "dot", "--size", "2000",
                   "--workers", "1", "--segment-rows", "512", "--json"])
        captured = capsys.readouterr()
        assert rc == 0
        report = json.loads(captured.out)
        assert report["pipeline"]["autotune"] is True
