"""Property and fault-injection tests for the on-disk trace store.

DESIGN.md §6.2: a stored trace must round-trip byte-identically
through the columnar format, a corrupt entry (truncated, bit-flipped,
or stale-manifest) must never be returned as data, eviction is
LRU-by-bytes, and concurrent writers of one entry converge on a single
valid copy. (Resume after a kill is the pipelined engine's per-kernel
checkpoint, tested in ``tests/test_engine_pipeline.py``.)
"""

import json
import multiprocessing
import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.loopnest import AffineAccess, LoopNest
from repro.engine.stream import BatchTrace
from repro.engine.trace import KernelModel
from repro.engine.tracecache import TraceCache
from repro.engine.tracestore import (
    EMITTER_VERSION,
    MANIFEST_NAME,
    StoredTrace,
    TraceStore,
    kernel_fingerprint,
)
from repro.errors import (
    SimulationError,
    TraceCorruptionError,
    TraceStoreError,
)
from repro.kernels.blas import Gemm


class SyntheticKernel(KernelModel):
    """Test fixture: a kernel whose exact trace is handed in directly."""

    def __init__(self, name, trace, blocks=None):
        self.name = name
        self._trace = trace
        self._blocks = blocks

    def streams(self):
        return []

    def traffic(self, ctx, prefetch=None):
        raise NotImplementedError

    def flops(self):
        return 0.0

    def exact_trace(self):
        return self._trace

    def segments(self, target_rows=None):
        yield from (self._blocks if self._blocks is not None
                    else [self._trace])

    def trace_key(self):
        t = self._trace
        return {"name": self.name, "rows": len(t),
                "digest": [int(t.addr.sum()), int(t.size.sum())]}


def assert_traces_equal(got, want):
    assert got.streams == want.streams
    assert np.array_equal(got.addr, want.addr)
    assert np.array_equal(got.size, want.size)
    assert np.array_equal(got.stream_id, want.stream_id)
    assert np.array_equal(got.is_write, want.is_write)


# ----------------------------------------------------------------------
# hypothesis: round-trip is byte-identical, any bit flip is rejected
# ----------------------------------------------------------------------
@st.composite
def traces(draw):
    n_streams = draw(st.integers(1, 4))
    n = draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return BatchTrace(
        streams=tuple(f"s{i}" for i in range(n_streams)),
        stream_id=rng.integers(0, n_streams, n).astype(np.int16),
        addr=rng.integers(0, 1 << 44, n).astype(np.int64),
        size=rng.integers(1, 300, n).astype(np.int32),
        is_write=rng.random(n) < 0.5,
    )


def _split_blocks(trace, n_blocks):
    """Row-partition a trace into ``n_blocks`` contiguous blocks."""
    edges = np.linspace(0, len(trace), n_blocks + 1).astype(int)
    return [
        BatchTrace(trace.streams, trace.stream_id[a:b], trace.addr[a:b],
                   trace.size[a:b], trace.is_write[a:b])
        for a, b in zip(edges[:-1], edges[1:])
    ]


class TestRoundTrip:
    @given(trace=traces(), n_blocks=st.integers(1, 5),
           target_rows=st.integers(3, 64))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_byte_identical(self, trace, n_blocks, target_rows):
        root = tempfile.mkdtemp(prefix="repro-ts-")
        try:
            kernel = SyntheticKernel(
                "synth", trace, _split_blocks(trace, n_blocks))
            store = TraceStore(root, verify="full")
            store.put(kernel, kernel.segments())

            entry = TraceStore(root, verify="full").get(kernel)
            assert entry is not None and entry.rows == len(trace)
            assert_traces_equal(entry.load(), trace)

            chunks = list(entry.segments(target_rows))
            assert sum(len(c) for c in chunks) == len(trace)
            assert all(c.streams == trace.streams for c in chunks)
            assert_traces_equal(
                BatchTrace(trace.streams,
                           np.concatenate([c.stream_id for c in chunks]),
                           np.concatenate([c.addr for c in chunks]),
                           np.concatenate([c.size for c in chunks]),
                           np.concatenate([c.is_write for c in chunks])),
                trace)
            entry.close()
        finally:
            shutil.rmtree(root, ignore_errors=True)

    @given(trace=traces(), column=st.sampled_from(
        ["addr", "size", "stream_id", "is_write"]),
        pos=st.floats(0.0, 1.0), bit=st.integers(0, 7))
    @settings(max_examples=40, deadline=None)
    def test_any_bit_flip_is_detected(self, trace, column, pos, bit):
        root = tempfile.mkdtemp(prefix="repro-ts-")
        try:
            kernel = SyntheticKernel("synth", trace)
            store = TraceStore(root, verify="full")
            store.put(kernel, kernel.segments())
            fpath = store.path_for(kernel) / f"{column}.bin"
            raw = bytearray(fpath.read_bytes())
            offset = min(int(pos * len(raw)), len(raw) - 1)
            raw[offset] ^= 1 << bit
            fpath.write_bytes(raw)
            with pytest.raises(TraceCorruptionError):
                store.get(kernel)
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def test_empty_trace_round_trips(self, tmp_path):
        trace = BatchTrace(("a",), np.empty(0, np.int16),
                           np.empty(0, np.int64), np.empty(0, np.int32),
                           np.empty(0, bool))
        store = TraceStore(tmp_path, verify="full")
        store.put(SyntheticKernel("empty", trace), [trace])
        entry = store.get(SyntheticKernel("empty", trace))
        assert entry.rows == 0
        assert len(list(entry.segments(8))) == 0
        assert_traces_equal(entry.load(), trace)

    def test_segments_validate_target_rows(self, tmp_path):
        # Validated like every kernel's segments(), not by a store rule.
        entry = TraceStore(tmp_path, verify="full").get_or_create(Gemm(8))
        for bad in (0, -5, "lots"):
            with pytest.raises(SimulationError, match="target_rows"):
                list(entry.segments(bad))
        entry.close()


# ----------------------------------------------------------------------
# corruption: never returned as data, always quarantined + regenerated
# ----------------------------------------------------------------------
def _corrupt_truncate(path):
    f = path / "addr.bin"
    f.write_bytes(f.read_bytes()[:-1])


def _corrupt_bitflip(path):
    f = path / "size.bin"
    raw = bytearray(f.read_bytes())
    raw[len(raw) // 2] ^= 0x40
    f.write_bytes(raw)


def _corrupt_stale_emitter(path):
    m = json.loads((path / MANIFEST_NAME).read_text())
    m["emitter_version"] = EMITTER_VERSION + 1
    (path / MANIFEST_NAME).write_text(json.dumps(m))


def _corrupt_row_count(path):
    m = json.loads((path / MANIFEST_NAME).read_text())
    m["rows"] += 1
    (path / MANIFEST_NAME).write_text(json.dumps(m))


def _corrupt_dtype(path):
    m = json.loads((path / MANIFEST_NAME).read_text())
    m["columns"]["addr"]["dtype"] = "<i4"
    (path / MANIFEST_NAME).write_text(json.dumps(m))


def _corrupt_manifest_garbage(path):
    (path / MANIFEST_NAME).write_bytes(b"\x00not json{")


def _corrupt_missing_column(path):
    (path / "is_write.bin").unlink()


CORRUPTIONS = [
    _corrupt_truncate,
    _corrupt_bitflip,
    _corrupt_stale_emitter,
    _corrupt_row_count,
    _corrupt_dtype,
    _corrupt_manifest_garbage,
    _corrupt_missing_column,
]


class TestCorruption:
    @pytest.mark.parametrize("corrupt", CORRUPTIONS,
                             ids=lambda f: f.__name__[9:])
    def test_rejected_then_regenerated(self, corrupt, tmp_path):
        kernel = Gemm(8)
        pristine = kernel.exact_trace()
        store = TraceStore(tmp_path, verify="full")
        store.get_or_create(kernel)
        corrupt(store.path_for(kernel))

        with pytest.raises(TraceStoreError):
            store.get(kernel)
        report = store.verify_all()
        assert any(err is not None for err in report.values())

        # get_or_create quarantines the bad entry and rebuilds it; the
        # caller only ever sees pristine data.
        entry = store.get_or_create(kernel)
        assert_traces_equal(entry.load(), pristine)
        entry.close()
        assert all(e is None for e in store.verify_all().values())

    def test_meta_verify_skips_crc_but_not_shape(self, tmp_path):
        kernel = Gemm(8)
        store = TraceStore(tmp_path, verify="meta")
        store.get_or_create(kernel)
        path = store.path_for(kernel)
        _corrupt_bitflip(path)
        # Shape-preserving bit rot passes the cheap meta check...
        assert store.get(kernel) is not None
        # ...but never a full verify.
        with pytest.raises(TraceCorruptionError):
            StoredTrace.open(path, verify="full")
        _corrupt_truncate(path)
        with pytest.raises(TraceCorruptionError):
            store.get(kernel)


# ----------------------------------------------------------------------
# eviction: LRU by bytes
# ----------------------------------------------------------------------
class TestEviction:
    def _fill(self, root, names):
        store = TraceStore(root, verify="meta")
        kernels = {}
        for i, name in enumerate(names):
            rng = np.random.default_rng(i)
            n = 1000
            trace = BatchTrace(("a",),
                               np.zeros(n, np.int16),
                               rng.integers(0, 1 << 30, n),
                               np.full(n, 8, np.int32),
                               np.zeros(n, bool))
            k = SyntheticKernel(name, trace)
            store.put(k, [trace])
            kernels[name] = k
        return store, kernels

    def test_gc_evicts_least_recently_used_first(self, tmp_path):
        store, kernels = self._fill(tmp_path, ["old", "mid", "new"])
        # Deterministic recency: manifest mtimes 100 < 200 < 300.
        for t, name in [(100, "old"), (200, "mid"), (300, "new")]:
            mpath = store.path_for(kernels[name]) / MANIFEST_NAME
            os.utime(mpath, (t, t))
        per_entry = store.entries()[0].nbytes
        evicted = store.gc(2 * per_entry)
        assert evicted == [store.key_for(kernels["old"])]
        assert store.total_bytes() <= 2 * per_entry

        # A fresh use moves "mid" to the back of the queue.
        store.get(kernels["mid"]).close()
        now = store.path_for(kernels["new"]) / MANIFEST_NAME
        os.utime(now, (400, 400))
        evicted = store.gc(per_entry)
        assert evicted == [store.key_for(kernels["new"])]

    def test_gc_keep_exempts_fresh_write(self, tmp_path):
        store, kernels = self._fill(tmp_path, ["a", "b"])
        keep = store.key_for(kernels["a"])
        evicted = store.gc(0, keep=keep)
        assert store.contains(kernels["a"])
        assert evicted == [store.key_for(kernels["b"])]

    def test_gc_clears_stale_tmp_dirs(self, tmp_path):
        store, kernels = self._fill(tmp_path, ["a"])
        writer = store.writer(kernels["a"])
        writer.append(kernels["a"].exact_trace())
        tmp_dir = writer.tmp_dir
        assert tmp_dir.is_dir()
        # Pretend the writer's process died an hour ago.
        os.utime(tmp_dir, (1, 1))
        store.gc(1 << 30)
        assert not tmp_dir.exists()
        writer.abort()


# ----------------------------------------------------------------------
# cache keying: same-named kernels with different shapes never collide
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

    def test_disk_store_does_not_alias_same_named_kernels(self, tmp_path):
        store = TraceStore(tmp_path, verify="full")
        ea = store.get_or_create(_nest((4, 4)))
        eb = store.get_or_create(_nest((8, 3)))
        assert ea.path != eb.path
        assert len(store.entries()) == 2

    def test_cache_disk_tier_round_trip(self, tmp_path):
        store = TraceStore(tmp_path, verify="full")
        kernel = Gemm(8)
        c1 = TraceCache(store=store)
        t1 = c1.get(kernel)
        assert store.contains(kernel)
        # A fresh RAM cache sharing the store loads from disk.
        c2 = TraceCache(store=store)
        t2 = c2.get(kernel)
        assert c2.stats()["disk_hits"] == 1
        assert_traces_equal(t2, t1)


# ----------------------------------------------------------------------
# concurrency: two writers of one entry converge on one valid copy
# ----------------------------------------------------------------------
def _writer_proc(root, n):
    store = TraceStore(root, verify="full")
    entry = store.get_or_create(Gemm(n))
    rows = entry.rows
    entry.close()
    return rows


class TestConcurrency:
    def test_lost_rename_race_adopts_winner(self, tmp_path):
        kernel = Gemm(8)
        store = TraceStore(tmp_path, verify="full")
        wa = store.writer(kernel)
        wb = store.writer(kernel)
        for block in kernel.segments():
            wa.append(block)
            wb.append(block)
        ea = wa.commit()
        eb = wb.commit()  # loses the rename race, adopts ea's entry
        assert ea.path == eb.path
        assert len(store.entries()) == 1
        assert not any(p.name.startswith(".tmp-")
                       for p in store.root.iterdir())
        assert_traces_equal(eb.load(), kernel.exact_trace())

    def test_two_processes_same_entry(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        procs = [ctx.Process(target=_writer_proc,
                             args=(str(tmp_path), 12)) for _ in range(2)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(120)
        assert [p.exitcode for p in procs] == [0, 0]
        store = TraceStore(tmp_path, verify="full")
        assert all(e is None for e in store.verify_all().values())
        entry = store.get(Gemm(12))
        assert_traces_equal(entry.load(), Gemm(12).exact_trace())
        entry.close()
