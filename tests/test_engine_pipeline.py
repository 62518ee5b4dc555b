"""Differential tests for the segment-pipelined exact engine.

DESIGN.md §6.3: segment boundaries must be invisible — every kernel's
``segments()`` emitter must concatenate byte-identically to its
monolithic ``exact_trace()``, and the pipelined engine (inline or
through the persistent worker pool) must reproduce the batch engine's
traffic, hit and miss counts exactly, for any segment size, ring
depth, worker count and entry point. Checkpointed multi-kernel runs
must resume after a fault without changing a single byte of the
totals, an aborted run must leave nothing behind for the next, and a
pool that had to be terminated is reported, never silently dropped.
"""

import json
import os
import signal
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.envconfig import (
    RING_DEPTH_ENV,
    SEGMENT_ROWS_ENV,
    default_ring_depth,
    default_segment_rows,
    resolve_segment_rows,
)
from repro.engine.exact import ExactEngine
from repro.engine.loopnest import AffineAccess, LoopNest
from repro.engine.pipeline import PipelinedExactEngine
from repro.errors import SimulationError
from repro.fft3d.decomp import LocalBlock
from repro.fft3d.resort import S1CB, S2CF
from repro.kernels.blas import CappedGemv, Dot, Gemm
from repro.kernels.sparse import SpmvKernel, random_csr
from repro.kernels.stream import StreamKernel
from repro.machine.config import CacheConfig
from repro.machine.prefetch import SoftwarePrefetch
from repro.units import MIB
from tests.test_exact_traffic_golden import case_key, check_exact_golden

SMALL = CacheConfig(capacity_bytes=64 * 1024)
#: The cross-validation cache (tests/test_engine_crossval.py).
BIG = CacheConfig(capacity_bytes=4 * MIB)

BLOCK = LocalBlock(planes=4, rows=6, cols=8)

#: One representative per kernel family (plus fft3d resort shapes):
#: every ``segments()`` implementation in the tree is exercised.
FAMILY_KERNELS = [
    Dot(777),
    Gemm(10),
    CappedGemv(m=9, n=7, p=3),
    StreamKernel(op="triad", n=500),
    SpmvKernel(random_csr(40, 5, seed=1)),
    LoopNest(
        name="nest-dup-arrays",
        bounds=(5, 4, 3),
        accesses=[
            AffineAccess("A", coeffs=(4, 0, 1)),
            AffineAccess("A", coeffs=(0, 3, 1), offset=2),
            AffineAccess("B", coeffs=(0, 1, 4), is_write=True,
                         elem_bytes=4),
        ],
    ),
    S2CF(BLOCK),
    S1CB(BLOCK),
]

_IDS = [k.name for k in FAMILY_KERNELS]


def batch_reference(kernel, cache=SMALL):
    eng = ExactEngine(cache)
    traffic = eng.run_nest(kernel.streams(), kernel.exact_trace())
    return (traffic.read_bytes, traffic.write_bytes,
            eng.sim.stats_hits, eng.sim.stats_misses)


def pipelined_state(engine, traffic):
    return (traffic.read_bytes, traffic.write_bytes,
            engine.last_stats["hits"], engine.last_stats["misses"])


# ----------------------------------------------------------------------
# segment protocol: concat(segments) == exact_trace, any target_rows
# ----------------------------------------------------------------------
class TestSegmentProtocol:
    @given(kernel_i=st.integers(0, len(FAMILY_KERNELS) - 1),
           target_rows=st.one_of(
               st.integers(1, 64),
               st.integers(65, 5000),
               st.just(10**9)))
    @settings(max_examples=60, deadline=None)
    def test_segments_concatenate_to_exact_trace(self, kernel_i,
                                                 target_rows):
        kernel = FAMILY_KERNELS[kernel_i]
        ref = kernel.exact_trace()
        segs = list(kernel.segments(target_rows))
        assert segs, "segments() emitted nothing"
        assert all(len(s) > 0 for s in segs), "empty segment emitted"
        assert all(s.streams == ref.streams for s in segs)
        total = sum(len(s) for s in segs)
        assert total == len(ref)
        for col in ("addr", "size", "stream_id", "is_write"):
            got = np.concatenate([getattr(s, col) for s in segs])
            np.testing.assert_array_equal(got, getattr(ref, col), col)

    def test_segments_reject_nonpositive_target(self):
        with pytest.raises(SimulationError):
            list(Dot(64).segments(0))
        with pytest.raises(SimulationError):
            list(Gemm(8).segments(-5))


# ----------------------------------------------------------------------
# hypothesis differential: pipelined inline == monolithic batch
# ----------------------------------------------------------------------
class TestInlinePipelineDifferential:
    @given(kernel_i=st.integers(0, len(FAMILY_KERNELS) - 1),
           segment_rows=st.integers(1, 2000))
    @settings(max_examples=40, deadline=None)
    def test_inline_matches_batch(self, kernel_i, segment_rows):
        kernel = FAMILY_KERNELS[kernel_i]
        ref = batch_reference(kernel)
        eng = PipelinedExactEngine(SMALL, n_workers=0,
                                   segment_rows=segment_rows)
        traffic = eng.run_kernel(kernel)
        assert pipelined_state(eng, traffic) == ref

    def test_inline_run_nest_from_batch_trace(self):
        kernel = Gemm(12)
        ref = batch_reference(kernel)
        eng = PipelinedExactEngine(SMALL, n_workers=0, segment_rows=97)
        traffic = eng.run_nest(kernel.streams(), kernel.exact_trace())
        assert pipelined_state(eng, traffic) == ref

    def test_rejects_partial_flush(self):
        kernel = Dot(128)
        eng = PipelinedExactEngine(SMALL, n_workers=0)
        with pytest.raises(SimulationError):
            eng.run_nest(kernel.streams(), kernel.exact_trace(),
                         flush_at_end=False)


# ----------------------------------------------------------------------
# worker-pool pipeline
# ----------------------------------------------------------------------
class TestPooledPipeline:
    @pytest.mark.parametrize("kernel", FAMILY_KERNELS, ids=_IDS)
    def test_pool_matches_batch(self, kernel):
        ref = batch_reference(kernel)
        with PipelinedExactEngine(SMALL, n_workers=2, segment_rows=131,
                                  ring_depth=3) as eng:
            traffic = eng.run_kernel(kernel)
            assert pipelined_state(eng, traffic) == ref

    def test_pool_matches_batch_on_crossval_gemm(self):
        """GEMM N=160 in the cross-validation cache: 8.2M rows through
        two workers at the default segment size."""
        kernel = Gemm(160)
        ref = batch_reference(kernel, BIG)
        with PipelinedExactEngine(BIG, n_workers=2) as eng:
            traffic = eng.run_kernel(kernel)
            assert pipelined_state(eng, traffic) == ref
        assert eng.last_pipeline_stats["rows"] == 8_217_600

    def test_pool_reproduces_frozen_gemm_256(self):
        """GEMM N=256 (33.6M rows) at the default segment size and
        worker count: the pool's counts equal the batch engine's,
        frozen in tests/exact_traffic.json."""
        kernel = Gemm(256)
        with PipelinedExactEngine(BIG) as eng:
            traffic = eng.run_kernel(kernel)
        check_exact_golden(case_key(kernel.name, BIG), {
            "read_bytes": traffic.read_bytes,
            "write_bytes": traffic.write_bytes,
            "stats_hits": eng.last_stats["hits"],
            "stats_misses": eng.last_stats["misses"]})
        stats = eng.last_pipeline_stats
        assert (stats["rows"], stats["segments"]) == (33_619_968, 37)

    @pytest.mark.parametrize("kernel", FAMILY_KERNELS, ids=_IDS)
    @given(segment_rows=st.integers(32, 2048),
           ring_depth=st.integers(1, 4),
           n_workers=st.integers(1, 3))
    @settings(max_examples=8, deadline=None)
    def test_pool_matches_batch_any_sizing(self, kernel, segment_rows,
                                           ring_depth, n_workers):
        ref = batch_reference(kernel)
        with PipelinedExactEngine(SMALL, n_workers=n_workers,
                                  segment_rows=segment_rows,
                                  ring_depth=ring_depth) as eng:
            traffic = eng.run_kernel(kernel)
            assert pipelined_state(eng, traffic) == ref

    def test_single_worker_and_tight_ring_backpressure(self):
        # ring_depth=1 forces a full producer/consumer handshake on
        # every segment; a slot-reuse race would corrupt the counters.
        kernel = Gemm(12)
        ref = batch_reference(kernel)
        for n_workers, depth in ((1, 1), (2, 1), (3, 2)):
            with PipelinedExactEngine(SMALL, n_workers=n_workers,
                                      segment_rows=53,
                                      ring_depth=depth) as eng:
                traffic = eng.run_kernel(kernel)
                assert pipelined_state(eng, traffic) == ref, \
                    (n_workers, depth)

    def test_pool_persists_across_runs(self):
        with PipelinedExactEngine(SMALL, n_workers=2,
                                  segment_rows=211) as eng:
            eng.run_kernel(Gemm(10))
            pids = eng.worker_pids()
            assert len(pids) == 2
            eng.run_kernel(Dot(999))
            assert eng.worker_pids() == pids  # no respawn per kernel
            eng.run_many([Gemm(8), StreamKernel(op="triad", n=700)])
            assert eng.worker_pids() == pids

    def test_run_many_matches_per_kernel_runs(self):
        kernels = [Gemm(10), Dot(777),
                   StreamKernel(op="triad", n=900),
                   SpmvKernel(random_csr(30, 4, seed=2))]
        refs = [batch_reference(k) for k in kernels]
        with PipelinedExactEngine(SMALL, n_workers=2,
                                  segment_rows=149) as eng:
            results = eng.run_many(kernels)
        assert len(results) == len(kernels)
        for traffic, ref in zip(results, refs):
            assert (traffic.read_bytes, traffic.write_bytes) == ref[:2]

    def test_pipeline_stats_recorded(self):
        with PipelinedExactEngine(SMALL, n_workers=2,
                                  segment_rows=101) as eng:
            eng.run_kernel(Gemm(10))
            stats = eng.last_pipeline_stats
        assert stats["mode"] == "pool"
        assert stats["n_workers"] == 2
        assert stats["segments"] > 1
        assert stats["rows"] == len(Gemm(10).exact_trace())
        assert 0.0 <= stats["utilization"] <= 1.0
        assert stats["max_queue_depth"] <= eng.ring_depth
        assert stats["mean_queue_depth"] <= stats["max_queue_depth"]

    def test_dead_worker_detected(self):
        eng = PipelinedExactEngine(SMALL, n_workers=2, segment_rows=64)
        try:
            eng.run_kernel(Dot(500))
            os.kill(eng.worker_pids()[0], signal.SIGKILL)
            with pytest.raises(SimulationError, match="died"):
                # Enough work that the producer must wait on the pool.
                eng.run_kernel(Gemm(24))
        finally:
            eng.close()

    def test_close_is_idempotent_and_engine_reusable(self):
        eng = PipelinedExactEngine(SMALL, n_workers=1, segment_rows=64)
        ref = batch_reference(Dot(300))
        traffic = eng.run_kernel(Dot(300))
        eng.close()
        eng.close()
        traffic2 = eng.run_kernel(Dot(300))  # pool respawns
        eng.close()
        assert (traffic.read_bytes, traffic.write_bytes) == ref[:2]
        assert (traffic2.read_bytes, traffic2.write_bytes) == ref[:2]


# ----------------------------------------------------------------------
# checkpoint / resume with fault injection
# ----------------------------------------------------------------------
class Boom(RuntimeError):
    pass


CRASH_KERNELS = [
    Gemm(16),                           # no bypassed stores
    StreamKernel(op="triad", n=4096),   # bypassed stores -> parent WCB
]


class TestCheckpointResume:
    def test_resume_after_hook_fault(self, tmp_path):
        kernels = [Gemm(10), Dot(777), StreamKernel(op="triad", n=800)]
        refs = [batch_reference(k) for k in kernels]

        calls = []

        def hook(worker_id):
            calls.append(worker_id)
            if len(calls) == 2:
                raise RuntimeError("injected fault")

        eng = PipelinedExactEngine(SMALL, n_workers=2, segment_rows=173,
                                   checkpoint_dir=tmp_path / "ckpt")
        eng.after_shard_hook = hook
        with pytest.raises(RuntimeError, match="injected fault"):
            eng.run_many(kernels)
        assert eng._pool is None  # pool torn down on fault

        fresh = PipelinedExactEngine(SMALL, n_workers=2,
                                     segment_rows=173,
                                     checkpoint_dir=tmp_path / "ckpt")
        with fresh:
            results = fresh.run_many(kernels)
        assert fresh.kernels_resumed >= 1
        for traffic, ref in zip(results, refs):
            assert (traffic.read_bytes, traffic.write_bytes) == ref[:2]

    def test_resume_after_fault_with_sizing_flipped(self, tmp_path):
        """A suite checkpointed mid-run under one segment size and ring
        depth must resume under another without changing a byte:
        checkpoints are keyed by kernel and cache geometry, never by
        sizing."""
        kernels = [Gemm(10), Dot(777), StreamKernel(op="triad", n=800)]
        refs = [batch_reference(k) for k in kernels]

        calls = []

        def hook(worker_id):
            calls.append(worker_id)
            if len(calls) == 2:
                raise RuntimeError("injected fault")

        eng = PipelinedExactEngine(SMALL, n_workers=2, segment_rows=173,
                                   checkpoint_dir=tmp_path / "ckpt")
        eng.after_shard_hook = hook
        with pytest.raises(RuntimeError, match="injected fault"):
            eng.run_many(kernels)

        fresh = PipelinedExactEngine(SMALL, n_workers=2,
                                     segment_rows=347, ring_depth=2,
                                     checkpoint_dir=tmp_path / "ckpt")
        with fresh:
            results = fresh.run_many(kernels)
        assert fresh.kernels_resumed >= 1
        for traffic, ref in zip(results, refs):
            assert (traffic.read_bytes, traffic.write_bytes) == ref[:2]

    def test_checkpoint_independent_of_worker_count(self, tmp_path):
        # Totals are identical regardless of sharding, so a checkpoint
        # written inline must satisfy a pooled rerun (and vice versa).
        kernel = Gemm(10)
        ref = batch_reference(kernel)
        inline = PipelinedExactEngine(SMALL, n_workers=0,
                                      checkpoint_dir=tmp_path / "c")
        inline.run_many([kernel])
        with PipelinedExactEngine(SMALL, n_workers=2,
                                  checkpoint_dir=tmp_path / "c") as eng:
            results = eng.run_many([kernel])
        assert eng.kernels_resumed == 1
        assert (results[0].read_bytes, results[0].write_bytes) == ref[:2]

    @pytest.mark.parametrize("kernel", CRASH_KERNELS, ids=lambda k: k.name)
    def test_killed_mid_run_resumes_to_identical_counters(
            self, kernel, tmp_path):
        kernels = [kernel, Dot(777)]
        refs = [batch_reference(k) for k in kernels]
        ckpt = tmp_path / "ckpt"
        eng = PipelinedExactEngine(SMALL, n_workers=2, segment_rows=509,
                                   checkpoint_dir=ckpt)
        survived = []

        def die_after_first_kernel(worker_id):
            survived.append(worker_id)
            raise Boom(f"injected kill after worker {worker_id}")

        eng.after_shard_hook = die_after_first_kernel
        with pytest.raises(Boom):
            eng.run_many(kernels)
        assert len(survived) == 1

        with PipelinedExactEngine(SMALL, n_workers=2, segment_rows=509,
                                  checkpoint_dir=ckpt) as resumed:
            first = resumed.run_many(kernels)
            assert resumed.kernels_resumed == 1
            # A third run resumes everything and recomputes nothing.
            again = resumed.run_many(kernels)
            assert resumed.kernels_resumed == 2
            # Resumed hits and misses come from the checkpoint.
            assert (resumed.last_stats["hits"],
                    resumed.last_stats["misses"]) == \
                (sum(r[2] for r in refs), sum(r[3] for r in refs))
        for results in (first, again):
            assert [(t.read_bytes, t.write_bytes) for t in results] == \
                [ref[:2] for ref in refs]

    @pytest.mark.parametrize("garbage", ["{broken", "[]"])
    def test_corrupt_checkpoint_is_recomputed(self, tmp_path, garbage):
        kernels = CRASH_KERNELS
        refs = [batch_reference(k) for k in kernels]
        ckpt = tmp_path / "ckpt"
        PipelinedExactEngine(SMALL, n_workers=0,
                             checkpoint_dir=ckpt).run_many(kernels)
        files = sorted(ckpt.rglob("kernel-*.json"))
        assert len(files) == 2
        files[0].write_text(garbage)

        with PipelinedExactEngine(SMALL, n_workers=2,
                                  checkpoint_dir=ckpt) as eng:
            results = eng.run_many(kernels)
        assert eng.kernels_resumed == 1
        assert [(t.read_bytes, t.write_bytes) for t in results] == \
            [ref[:2] for ref in refs]
        # The recomputed kernel's checkpoint is whole again.
        assert isinstance(json.loads(files[0].read_text()), dict)

    def test_checkpoints_keyed_by_run_configuration(self, tmp_path):
        kernels = [Gemm(64), StreamKernel(op="triad", n=4096)]
        ckpt = tmp_path / "ckpt"
        saved = PipelinedExactEngine(SMALL, n_workers=0,
                                     checkpoint_dir=ckpt).run_many(kernels)
        for cache, policy in (
                (CacheConfig(capacity_bytes=32 * 1024), "lru"),
                (SMALL, "fifo")):
            want = PipelinedExactEngine(cache, n_workers=0,
                                        policy=policy).run_many(kernels)
            # Another configuration moves the traffic, so a reused
            # checkpoint would show.
            assert want != saved, (cache, policy)
            eng = PipelinedExactEngine(cache, n_workers=0, policy=policy,
                                       checkpoint_dir=ckpt)
            assert eng.run_many(kernels) == want
            assert eng.kernels_resumed == 0
        same = PipelinedExactEngine(SMALL, n_workers=0,
                                    checkpoint_dir=ckpt)
        assert same.run_many(kernels) == saved
        assert same.kernels_resumed == 2


# ----------------------------------------------------------------------
# entry points: prefetch reaches store-bypass resolution everywhere
# ----------------------------------------------------------------------
class TestPrefetchPassThrough:
    @pytest.mark.parametrize("n_workers", [0, 2])
    def test_every_entry_point_matches_exact_engine(self, n_workers):
        # dcbtst turns STREAM copy's bypassed stores into write-allocate
        # stores, which read their lines: the read bytes double.
        kernel = StreamKernel(op="copy", n=4096)
        refs = {}
        for prefetch in (SoftwarePrefetch(),
                         SoftwarePrefetch(dcbt=True, dcbtst=True)):
            ref = ExactEngine(SMALL).run_nest(
                kernel.streams(), kernel.exact_trace(), prefetch)
            refs[prefetch] = (ref.read_bytes, ref.write_bytes)
            with PipelinedExactEngine(SMALL, n_workers=n_workers,
                                      segment_rows=1000) as eng:
                got = {
                    "run_nest": eng.run_nest(kernel.streams(), kernel,
                                             prefetch),
                    "run_kernel": eng.run_kernel(kernel, prefetch),
                    "run_many": eng.run_many([kernel], prefetch)[0],
                }
            for entry, traffic in got.items():
                assert (traffic.read_bytes, traffic.write_bytes) == \
                    refs[prefetch], (entry, prefetch)
        assert len(set(refs.values())) == 2


# ----------------------------------------------------------------------
# aborted runs: the next run starts clean
# ----------------------------------------------------------------------
class TestAbortedRun:
    @pytest.mark.parametrize("n_workers", [0, 1])
    def test_aborted_run_leaves_no_wcb_state(self, n_workers):
        # Triad's stores bypass the cache into the parent's WCB; a run
        # aborted mid-nest must not hand them to the next nest.
        kernel = StreamKernel(op="triad", n=20_000)
        ref = batch_reference(kernel)
        with PipelinedExactEngine(SMALL, n_workers=n_workers,
                                  segment_rows=4096) as eng:
            seen = []

            def tap(segment):
                seen.append(len(segment))
                if len(seen) == 3:
                    raise RuntimeError("injected tap fault")

            eng.segment_tap = tap
            with pytest.raises(RuntimeError, match="injected tap fault"):
                eng.run_kernel(kernel)
            eng.segment_tap = None
            traffic = eng.run_kernel(kernel)
        assert traffic.write_bytes == 160_000
        assert pipelined_state(eng, traffic) == ref


# ----------------------------------------------------------------------
# lifecycle: leak reporting
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


# ----------------------------------------------------------------------
# env knobs: parse-time validation and plumbing
# ----------------------------------------------------------------------
class TestEnvKnobs:
    def test_defaults_without_env(self, monkeypatch):
        for env in (SEGMENT_ROWS_ENV, RING_DEPTH_ENV):
            monkeypatch.delenv(env, raising=False)
        assert default_segment_rows() == 1 << 20
        assert default_ring_depth() == 4

    @pytest.mark.parametrize("env,resolver", [
        (SEGMENT_ROWS_ENV, default_segment_rows),
        (RING_DEPTH_ENV, default_ring_depth),
    ])
    @pytest.mark.parametrize("bad", ["0", "-3", "1.5", "lots"])
    def test_bad_values_fail_at_parse_time(self, monkeypatch, env,
                                           resolver, bad):
        monkeypatch.setenv(env, bad)
        with pytest.raises(SimulationError, match=env):
            resolver()

    def test_env_overrides_are_read(self, monkeypatch):
        monkeypatch.setenv(SEGMENT_ROWS_ENV, "777")
        monkeypatch.setenv(RING_DEPTH_ENV, "9")
        assert resolve_segment_rows(None) == 777
        assert resolve_segment_rows(55) == 55
        assert default_ring_depth() == 9

    def test_segment_env_flows_into_kernel_segments(self, monkeypatch):
        monkeypatch.setenv(SEGMENT_ROWS_ENV, "100")
        segs = list(Dot(400).segments())
        assert len(segs) == 8  # 800 rows / (100-row target => 50 iters)

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

    def test_pipelined_engine_rejects_bad_args(self):
        with pytest.raises(SimulationError):
            PipelinedExactEngine(SMALL, n_workers=-1)
        with pytest.raises(SimulationError):
            PipelinedExactEngine(SMALL, segment_rows=0)
        with pytest.raises(SimulationError):
            PipelinedExactEngine(SMALL, ring_depth=0)

    def test_segment_env_flows_into_exact_engine(self, monkeypatch):
        kernel = Dot(512)
        trace = kernel.exact_trace()
        ref = batch_reference(kernel)
        monkeypatch.setenv(SEGMENT_ROWS_ENV, "junk")
        with pytest.raises(SimulationError, match=SEGMENT_ROWS_ENV):
            ExactEngine(SMALL).run_nest(kernel.streams(), trace)
        with pytest.raises(SimulationError, match=SEGMENT_ROWS_ENV):
            list(kernel.segments())
        monkeypatch.setenv(SEGMENT_ROWS_ENV, "100")
        assert len(list(kernel.segments())) == 11  # 1,024 rows
        eng = ExactEngine(SMALL)
        traffic = eng.run_nest(kernel.streams(), trace)
        assert (traffic.read_bytes, traffic.write_bytes,
                eng.sim.stats_hits, eng.sim.stats_misses) == ref


# ----------------------------------------------------------------------
# CLI smoke
# ----------------------------------------------------------------------
class TestPipelineCli:
    def test_pipeline_subcommand_inline(self, capsys):
        from repro.cli import main

        rc = main(["pipeline", "--kernel", "dot", "--size", "2000",
                   "--workers", "0", "--segment-rows", "512",
                   "--compare-sequential", "--json"])
        captured = capsys.readouterr()
        assert rc == 0
        import json

        report = json.loads(captured.out)
        assert report["traffic_match"] is True
        assert report["pipeline"]["mode"] == "inline"
        assert (report["sequential"]["read_bytes"],
                report["sequential"]["write_bytes"]) == \
            (report["read_bytes"], report["write_bytes"])

    def test_pipeline_subcommand_pool(self, capsys):
        from repro.cli import main

        rc = main(["pipeline", "--kernel", "stream-triad", "--size",
                   "20000", "--workers", "2", "--segment-rows", "4096",
                   "--json"])
        captured = capsys.readouterr()
        assert rc == 0
        import json

        report = json.loads(captured.out)
        assert report["pipeline"]["mode"] == "pool"
        assert report["pipeline"]["n_workers"] == 2
