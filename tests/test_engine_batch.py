"""Differential tests: batch and set-sharded exact engines vs the
scalar oracle.

DESIGN.md §6: the scalar per-access path of :class:`CacheSim` is the
oracle; the columnar ``access_batch`` path and the set-sharded worker
pool of the pipelined engine must reproduce its traffic, hit/miss
counts, final cache state and write-combining buffer *exactly* on
every trace, both policies, any chunking. The vectorized
``exact_trace`` emitters must likewise be byte-identical to each
kernel's scalar ``exact_accesses`` generator.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.envconfig import SEGMENT_ROWS_ENV
from repro.engine.exact import ExactEngine
from repro.engine.loopnest import AffineAccess, LoopNest
from repro.engine.pipeline import PipelinedExactEngine
from repro.engine.stream import BatchTrace
from repro.engine.trace import kernel_fingerprint
from repro.engine.tracecache import TraceCache, cached_exact_trace
from repro.errors import SimulationError
from repro.fft3d.decomp import LocalBlock
from repro.fft3d.resort import (
    S1CB,
    S1CFCombined,
    S1CFLoopNest1,
    S1CFLoopNest2,
    S1PB,
    S1PF,
    S2CB,
    S2CF,
    S2PB,
    S2PF,
)
from repro.kernels.blas import CappedGemv, Dot, Gemm
from repro.kernels.sparse import SpmvKernel, random_csr
from repro.kernels.stream import StreamKernel
from repro.machine.cache import CacheSim, expand_to_sectors
from repro.machine.config import CacheConfig

SMALL = CacheConfig(capacity_bytes=64 * 1024)


def full_state(sim):
    """Everything the oracle and the batch path must agree on."""
    return (
        sim.traffic.read_bytes,
        sim.traffic.write_bytes,
        sim.stats_hits,
        sim.stats_misses,
        sim.snapshot(),
        dict(sim._wcb),
    )


def scalar_replay(sim, addr, size, w, byp):
    for i in range(len(addr)):
        sim.access(int(addr[i]), int(size[i]), bool(w[i]),
                   bypass=bool(byp[i]))


# ----------------------------------------------------------------------
# hypothesis differential property
# ----------------------------------------------------------------------
trace_strategy = st.lists(
    st.tuples(
        st.integers(0, 400_000),        # addr
        st.integers(1, 200),            # size (spans sectors and lines)
        st.booleans(),                  # is_write
        st.booleans(),                  # bypass candidate
    ),
    min_size=1,
    max_size=300,
)


class TestBatchDifferential:
    @given(trace=trace_strategy,
           policy=st.sampled_from(["lru", "fifo"]),
           chunk=st.integers(7, 101))
    @settings(max_examples=60, deadline=None)
    def test_batch_matches_scalar_oracle(self, trace, policy, chunk):
        addr = np.array([t[0] for t in trace], dtype=np.int64)
        size = np.array([t[1] for t in trace], dtype=np.int64)
        w = np.array([t[2] for t in trace], dtype=bool)
        byp = np.array([t[3] for t in trace], dtype=bool) & w

        oracle = CacheSim(SMALL, policy=policy)
        scalar_replay(oracle, addr, size, w, byp)
        batch = CacheSim(SMALL, policy=policy)
        batch.access_batch(addr, size, w, byp, chunk_size=chunk)
        assert full_state(batch) == full_state(oracle)

    @given(trace=st.lists(st.tuples(
        st.integers(-(1 << 30), 1 << 45),
        st.integers(1, 130), st.booleans(), st.booleans()),
        min_size=1, max_size=150),
        policy=st.sampled_from(["lru", "fifo"]))
    @settings(max_examples=30, deadline=None)
    def test_generic_path_negative_and_huge_addresses(self, trace, policy):
        # Outside the residency-bitmap window the batch path falls back
        # to full exact replay; it must still match the oracle.
        addr = np.array([t[0] for t in trace], dtype=np.int64)
        size = np.array([t[1] for t in trace], dtype=np.int64)
        w = np.array([t[2] for t in trace], dtype=bool)
        byp = np.array([t[3] for t in trace], dtype=bool) & w
        oracle = CacheSim(SMALL, policy=policy)
        scalar_replay(oracle, addr, size, w, byp)
        batch = CacheSim(SMALL, policy=policy)
        batch.access_batch(addr, size, w, byp, chunk_size=64)
        assert full_state(batch) == full_state(oracle)

    @given(seed=st.integers(0, 2**32 - 1),
           policy=st.sampled_from(["lru", "fifo"]))
    @settings(max_examples=15, deadline=None)
    def test_mixed_scalar_batch_interleaving(self, seed, policy):
        # Alternating scalar and batch phases exercises the residency
        # bitmap staleness protocol (scalar misses invalidate it).
        rng = np.random.default_rng(seed)
        oracle = CacheSim(SMALL, policy=policy)
        mixed = CacheSim(SMALL, policy=policy)
        for phase in range(4):
            n = 300
            addr = rng.integers(0, 150_000, n)
            size = rng.integers(1, 64, n)
            w = rng.random(n) < 0.5
            byp = np.zeros(n, dtype=bool)
            scalar_replay(oracle, addr, size, w, byp)
            if phase % 2 == 0:
                mixed.access_batch(addr, size, w, chunk_size=97)
            else:
                scalar_replay(mixed, addr, size, w, byp)
            if phase == 2:
                oracle.flush()
                mixed.flush()
        assert full_state(mixed) == full_state(oracle)

    @given(seed=st.integers(0, 2**32 - 1),
           policy=st.sampled_from(["lru", "fifo"]))
    @settings(max_examples=15, deadline=None)
    def test_bitmap_and_generic_batches_interleave(self, seed, policy):
        # Batches inside the residency bitmap's window, below it and
        # far above it, in turn: lines the generic path left must
        # neither wrap into nor overflow the bitmap the next
        # in-window batch rebuilds and evicts from.
        cfg = CacheConfig(capacity_bytes=1024, associativity=2)
        rng = np.random.default_rng(seed)
        oracle = CacheSim(cfg, policy=policy)
        mixed = CacheSim(cfg, policy=policy)
        for base, span in ((0, 4096), (-4096, 4096), (0, 16384),
                           (1 << 45, 4096), (0, 16384)):
            n = 60
            addr = base + rng.integers(0, span, n)
            size = rng.integers(1, 64, n)
            w = rng.random(n) < 0.5
            scalar_replay(oracle, addr, size, w, np.zeros(n, dtype=bool))
            if rng.random() < 0.5:
                mixed.access_batch(addr, size, w, chunk_size=16)
            else:
                mixed.access_batch_probed(addr, size, w,
                                          np.arange(0, n, 3),
                                          chunk_size=16)
        assert full_state(mixed) == full_state(oracle)

    def test_batch_after_scalar_keeps_recency_order(self):
        # One 2-way set: y, x scalar; y again as a batch; then z. The
        # batch's touch of y is more recent than x's, so z evicts x;
        # a batch stamp equal to the scalar clock would tie the two.
        cfg = CacheConfig(capacity_bytes=256, associativity=2)
        oracle, mixed = CacheSim(cfg), CacheSim(cfg)
        for sim in (oracle, mixed):
            sim.access(0, 8, False)
            sim.access(128, 8, False)
        oracle.access(0, 8, False)
        mixed.access_batch(np.array([0]), np.array([8]), np.array([False]))
        for sim in (oracle, mixed):
            sim.access(256, 8, False)
        assert full_state(mixed) == full_state(oracle)
        assert [tag for tag, _, _ in mixed.snapshot()[0]] == [0, 2]

    def test_thrashing_cache_forces_evictions(self):
        # Tiny, low-associativity cache: every chunk evicts, driving
        # the turbulent full-replay classification.
        cfg = CacheConfig(capacity_bytes=4 * 1024, associativity=2)
        rng = np.random.default_rng(3)
        n = 4000
        addr = rng.integers(0, 256 * 1024, n)
        size = rng.integers(1, 129, n)
        w = rng.random(n) < 0.4
        byp = np.zeros(n, dtype=bool)
        for policy in ("lru", "fifo"):
            oracle = CacheSim(cfg, policy=policy)
            scalar_replay(oracle, addr, size, w, byp)
            batch = CacheSim(cfg, policy=policy)
            batch.access_batch(addr, size, w, chunk_size=256)
            assert full_state(batch) == full_state(oracle)

    def test_expand_to_sectors_matches_manual_split(self):
        addr = np.array([0, 60, 127, 128, 1000], dtype=np.int64)
        size = np.array([8, 8, 2, 64, 200], dtype=np.int64)
        w = np.array([False, True, False, True, False])
        c_addr, c_size, c_write, c_byp = expand_to_sectors(
            addr, size, w, None, 64)
        assert c_byp is None
        # Each expanded element stays within one sector.
        assert np.all(c_addr % 64 + c_size <= 64)
        assert int(c_size.sum()) == int(size.sum())
        # Per-access write flags survive the split.
        starts = np.flatnonzero(np.isin(c_addr, addr))
        assert c_write[starts[1]]


# ----------------------------------------------------------------------
# adversarial turbulent-set replay
# ----------------------------------------------------------------------
def _reuse_trace(rng, cfg, n, write_frac, base):
    """``n`` accesses drawn from a pool of 1-3x the cache's lines, so
    every set both reuses and evicts lines within a chunk; offsets
    and sizes cross sector and line boundaries. A negative ``base``
    puts the trace outside the residency bitmap's window."""
    n_lines = cfg.n_lines
    pool_size = int(rng.integers(n_lines, 3 * n_lines + 1))
    pool = rng.choice(8 * pool_size, size=pool_size, replace=False)
    line = pool[rng.integers(0, pool_size, n)]
    addr = (base + line * cfg.line_bytes
            + rng.integers(0, cfg.line_bytes, n))
    size = rng.integers(1, cfg.line_bytes + cfg.granule_bytes, n)
    w = rng.random(n) < write_frac
    return addr.astype(np.int64), size.astype(np.int64), w


adversarial_cache = st.builds(
    lambda assoc, n_sets: CacheConfig(
        capacity_bytes=128 * assoc * n_sets, associativity=assoc),
    st.sampled_from([1, 2, 3, 4, 8]), st.integers(1, 8))
#: Bitmap path, or the no-bitmap replay of negative addresses.
trace_base = st.sampled_from([0, -(1 << 40)])


class TestTurbulentReplayAdversarial:
    """High-reuse traces on tiny caches: every chunk mixes guaranteed
    hits with evictions in the same set, and the trace is split over
    two calls so recency stamps of the first call reach the second
    through the dense overlay."""

    @given(cfg=adversarial_cache,
           seed=st.integers(0, 2**32 - 1),
           n=st.integers(1, 400),
           write_frac=st.floats(0.0, 0.5),
           chunk=st.integers(5, 300),
           policy=st.sampled_from(["lru", "fifo"]),
           base=trace_base)
    @settings(max_examples=100, deadline=None)
    def test_batch_matches_scalar_oracle(self, cfg, seed, n, write_frac,
                                         chunk, policy, base):
        rng = np.random.default_rng(seed)
        addr, size, w = _reuse_trace(rng, cfg, n, write_frac, base)
        oracle = CacheSim(cfg, policy=policy)
        scalar_replay(oracle, addr, size, w, np.zeros(n, dtype=bool))
        batch = CacheSim(cfg, policy=policy)
        cut = int(rng.integers(0, n + 1))
        batch.access_batch(addr[:cut], size[:cut], w[:cut],
                           chunk_size=chunk)
        batch.access_batch(addr[cut:], size[cut:], w[cut:],
                           chunk_size=chunk)
        assert full_state(batch) == full_state(oracle)

    @given(cfg=adversarial_cache,
           seed=st.integers(0, 2**32 - 1),
           n=st.integers(1, 300),
           write_frac=st.floats(0.0, 0.5),
           chunk=st.integers(5, 300),
           base=trace_base)
    @settings(max_examples=60, deadline=None)
    def test_probed_matches_probe_before_row(self, cfg, seed, n,
                                             write_frac, chunk, base):
        rng = np.random.default_rng(seed)
        addr, size, w = _reuse_trace(rng, cfg, n, write_frac, base)
        line = cfg.line_bytes
        span = (addr + size - 1) // line - addr // line
        # Rows spanning n_sets or more lines are the documented caveat
        # of access_batch_probed: never watch them.
        watchable = np.flatnonzero(span < cfg.n_sets)
        watch = watchable[rng.random(watchable.size) < 0.3]
        watched = set(watch.tolist())
        oracle = CacheSim(cfg)
        expect = []
        for i in range(n):
            if i in watched:
                expect += [(i, r, d) for r, d in
                           oracle.probe(int(addr[i]), int(size[i]))]
            oracle.access(int(addr[i]), int(size[i]), bool(w[i]))
        batch = CacheSim(cfg)
        cut = int(rng.integers(0, n + 1))
        got = []
        for lo, hi in ((0, cut), (cut, n)):
            part = watch[(watch >= lo) & (watch < hi)] - lo
            rows, res, dirty = batch.access_batch_probed(
                addr[lo:hi], size[lo:hi], w[lo:hi], part,
                chunk_size=chunk)
            got += list(zip((rows + lo).tolist(), res.tolist(),
                            dirty.tolist()))
        assert got == expect
        assert full_state(batch) == full_state(oracle)

    def test_calm_chunk_recency_reaches_later_eviction(self):
        # Chunks [a b] [a a] [c a] on one 2-way set: a's latest touch
        # before c is a calm-chunk hit kept only in the dense overlay,
        # and c's install must still evict b, not a.
        cfg = CacheConfig(capacity_bytes=256, associativity=2)
        addr = np.array([0, 128, 0, 0, 256, 0], dtype=np.int64)
        size = np.full(addr.size, 8, dtype=np.int64)
        w = np.zeros(addr.size, dtype=bool)
        oracle = CacheSim(cfg)
        scalar_replay(oracle, addr, size, w, w)
        batch = CacheSim(cfg)
        batch.access_batch(addr, size, w, chunk_size=2)
        assert full_state(batch) == full_state(oracle)


# ----------------------------------------------------------------------
# set-sharded worker pool (PipelinedExactEngine)
# ----------------------------------------------------------------------
class TestShardedEngine:
    def test_sharded_matches_batch_and_is_deterministic(self):
        kernel = Gemm(24)
        trace = kernel.exact_trace()
        batch = ExactEngine(SMALL)
        ref = batch.run_nest(kernel.streams(), trace)
        results = []
        for n_workers in (1, 2, 3):
            with PipelinedExactEngine(SMALL, n_workers=n_workers,
                                      segment_rows=997) as eng:
                got = eng.run_nest(kernel.streams(), trace)
            results.append((got.read_bytes, got.write_bytes,
                            eng.last_stats["hits"],
                            eng.last_stats["misses"]))
        # identical across worker counts, and to the batch engine
        assert set(results) == {(ref.read_bytes, ref.write_bytes,
                                 batch.sim.stats_hits,
                                 batch.sim.stats_misses)}

    def test_sharded_with_bypassed_stores(self):
        # STREAM triad bypasses its stores: the WCB is simulated in
        # the parent, cached reads in the shards.
        kernel = StreamKernel(op="triad", n=2048)
        trace = kernel.exact_trace()
        ref = ExactEngine(SMALL).run_nest(kernel.streams(), trace)
        with PipelinedExactEngine(SMALL, n_workers=3,
                                  segment_rows=1000) as eng:
            got = eng.run_nest(kernel.streams(), trace)
        assert (got.read_bytes, got.write_bytes) == \
            (ref.read_bytes, ref.write_bytes)

    def test_sharded_rejects_scalar_traces_and_partial_flush(self):
        kernel = Dot(256)
        for n_workers in (0, 2):  # inline and pooled
            with PipelinedExactEngine(SMALL, n_workers=n_workers) as eng:
                with pytest.raises(SimulationError, match="BatchTrace"):
                    eng.run_nest(kernel.streams(),
                                 kernel.exact_accesses())
                with pytest.raises(SimulationError, match="BatchTrace"):
                    eng.run_nest(kernel.streams(),
                                 [kernel.exact_trace(), "not a segment"])
                with pytest.raises(SimulationError):
                    eng.run_nest(kernel.streams(), kernel.exact_trace(),
                                 flush_at_end=False)

    def test_shard_count_clamped_to_sets(self):
        cfg = CacheConfig(capacity_bytes=4 * 1024, associativity=16)
        assert cfg.n_sets == 2
        eng = PipelinedExactEngine(cfg, n_workers=64)
        assert eng.n_workers <= cfg.n_sets
        assert eng.worker_pids() == []  # the pool spawns on first run
        kernel = Gemm(8)
        ref = ExactEngine(cfg).run_nest(kernel.streams(),
                                        kernel.exact_trace())
        with eng:
            got = eng.run_kernel(kernel)
            assert len(eng.worker_pids()) == eng.n_workers
        assert (got.read_bytes, got.write_bytes) == \
            (ref.read_bytes, ref.write_bytes)


# ----------------------------------------------------------------------
# vectorized trace emitters == scalar generators
# ----------------------------------------------------------------------
BLOCK = LocalBlock(planes=4, rows=6, cols=8)

EMITTER_KERNELS = [
    Dot(777),
    Gemm(10),
    CappedGemv(m=9, n=7, p=3),
    StreamKernel(op="copy", n=500),
    StreamKernel(op="scale", n=500),
    StreamKernel(op="add", n=500),
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
    S1CFLoopNest1(BLOCK),
    S1CFLoopNest2(BLOCK),
    S1CFCombined(BLOCK),
    S2CF(BLOCK),
    S1PF(BLOCK),
    S1CB(BLOCK),
    S1PB(BLOCK),
    S2PF(BLOCK),
    S2CB(BLOCK),
    S2PB(BLOCK),
]


class TestExactTraceEmitters:
    @pytest.mark.parametrize(
        "kernel", EMITTER_KERNELS, ids=lambda k: k.name)
    def test_trace_matches_scalar_generator(self, kernel):
        trace = kernel.exact_trace()
        ref = list(kernel.exact_accesses())
        assert len(trace) == len(ref)
        names = list(trace.streams)
        for i, acc in enumerate(ref):
            assert int(trace.addr[i]) == acc.addr, i
            assert int(trace.size[i]) == acc.size, i
            assert bool(trace.is_write[i]) == acc.is_write, i
            assert names[trace.stream_id[i]] == acc.stream, i

    @pytest.mark.parametrize(
        "kernel", [Gemm(8), StreamKernel(op="triad", n=300)],
        ids=lambda k: k.name)
    def test_engine_traffic_identical_scalar_vs_batch(self, kernel):
        scalar = ExactEngine(SMALL).run_nest(
            kernel.streams(), kernel.exact_accesses())
        batch = ExactEngine(SMALL).run_nest(
            kernel.streams(), kernel.exact_trace())
        assert (scalar.read_bytes, scalar.write_bytes) == \
            (batch.read_bytes, batch.write_bytes)


# ----------------------------------------------------------------------
# streamed segments == one-call batch == scalar oracle
# ----------------------------------------------------------------------
DUP_ARRAYS_NEST = LoopNest(
    name="nest-dup-arrays",
    bounds=(5, 4, 3),
    accesses=[
        AffineAccess("A", coeffs=(4, 0, 1)),
        AffineAccess("A", coeffs=(0, 3, 1), offset=2),
        AffineAccess("B", coeffs=(0, 1, 4), is_write=True,
                     elem_bytes=4),
    ],
)

#: One representative per kernel family: the segment-streamed paths
#: must agree with the one-call batch engine and the scalar oracle on
#: every emitter shape, including bypassed stores.
SEGMENT_KERNELS = [
    Dot(777),
    Gemm(10),
    CappedGemv(m=9, n=7, p=3),
    StreamKernel(op="triad", n=500),
    SpmvKernel(random_csr(40, 5, seed=1)),
    DUP_ARRAYS_NEST,
    S2CF(BLOCK),
]


class TestStreamedTraceDifferential:
    @pytest.mark.parametrize(
        "kernel", SEGMENT_KERNELS, ids=lambda k: k.name)
    def test_streamed_segments_match_oracle(self, kernel, monkeypatch):
        scalar = ExactEngine(SMALL).run_nest(
            kernel.streams(), kernel.exact_accesses())
        batch = ExactEngine(SMALL).run_nest(
            kernel.streams(), kernel.exact_trace())
        # Tiny segments force many of them even on small traces.
        monkeypatch.setenv(SEGMENT_ROWS_ENV, "257")
        streamed = ExactEngine(SMALL).run_nest(
            kernel.streams(), kernel.exact_trace())
        assert (streamed.read_bytes, streamed.write_bytes) == \
            (batch.read_bytes, batch.write_bytes) == \
            (scalar.read_bytes, scalar.write_bytes)

    @pytest.mark.parametrize(
        "kernel", [Gemm(10), StreamKernel(op="triad", n=500)],
        ids=lambda k: k.name)
    def test_sharded_from_kernel_matches_batch(self, kernel):
        ref = ExactEngine(SMALL).run_nest(
            kernel.streams(), kernel.exact_trace())
        with PipelinedExactEngine(SMALL, n_workers=2,
                                  segment_rows=509) as eng:
            got = eng.run_nest(kernel.streams(), kernel)
        assert eng.last_pipeline_stats["segments"] > 1
        assert (got.read_bytes, got.write_bytes) == \
            (ref.read_bytes, ref.write_bytes)


# ----------------------------------------------------------------------
# trace memoization
# ----------------------------------------------------------------------
class TestTraceCache:
    def test_hit_returns_same_object(self):
        cache = TraceCache()
        k = Gemm(6)
        first = cache.get(k)
        second = cache.get(Gemm(6))  # same shape, fresh instance
        assert first is second
        assert cache.hits == 1 and cache.misses == 1

    def test_distinct_shapes_distinct_entries(self):
        cache = TraceCache()
        assert cache.get(Gemm(6)) is not cache.get(Gemm(7))
        assert cache.misses == 2

    def test_entry_eviction_lru_order(self):
        cache = TraceCache(max_entries=2)
        a = cache.get(Gemm(5))
        cache.get(Gemm(6))
        cache.get(Dot(64))  # evicts Gemm(5)
        assert cache.get(Gemm(5)) is not a
        assert cache.stats()["entries"] == 2

    def test_byte_budget_and_oversized_traces(self):
        tiny = TraceCache(max_bytes=1)  # nothing fits
        k = Dot(128)
        t1 = tiny.get(k)
        t2 = tiny.get(k)
        assert t1 is not t2  # uncached, regenerated
        assert tiny.stats()["bytes"] == 0

    def test_global_helper(self):
        trace = cached_exact_trace(Gemm(4))
        assert isinstance(trace, BatchTrace)
        assert cached_exact_trace(Gemm(4)) is trace


# ----------------------------------------------------------------------
# keying: same-named kernels with different shapes never collide
# ----------------------------------------------------------------------
def _nest(bounds):
    return LoopNest(name="same-name", bounds=bounds,
                    accesses=[AffineAccess("A", coeffs=(1,) * len(bounds))])


class TestKeying:
    def test_same_name_different_shape_distinct_fingerprints(self):
        assert kernel_fingerprint(_nest((4, 4))) != \
            kernel_fingerprint(_nest((8, 3)))
        # Same shape, fresh instances: stable.
        assert kernel_fingerprint(_nest((4, 4))) == \
            kernel_fingerprint(_nest((4, 4)))

    def test_ram_cache_does_not_alias_same_named_kernels(self):
        cache = TraceCache()
        a = cache.get(_nest((4, 4)))
        b = cache.get(_nest((8, 3)))
        assert a is not b
        assert len(a) != len(b)
        assert cache.misses == 2
        # And the hit path still works per shape.
        assert cache.get(_nest((4, 4))) is a

    @pytest.mark.parametrize("kernel, digest", [
        (Gemm(8), "ffddcc4d71cbed5bce4c4687d902e7af"
                  "c5c4663e2322cf7dadf87bc35080a9b5"),
        (DUP_ARRAYS_NEST, "55a814e822d268d4e14b2f73a6660a92"
                          "af5068c7efff423d8dc25b3664379b66"),
        (S2CF(BLOCK), "407bc4b160b2d6500ad6a7f9561923106"
                      "f40e913206bf9b2c3f9ef09b74afb79"),
    ], ids=["gemm-8", "loopnest", "s2cf"])
    def test_fingerprints_are_pinned(self, kernel, digest):
        # The digest names RAM cache entries and every run_many
        # checkpoint on disk: a change to it orphans saved checkpoints.
        assert kernel_fingerprint(kernel) == digest
