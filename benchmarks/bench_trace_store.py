"""Disk trace-store tiers: cold write, warm mmap load, streamed sim.

The on-disk columnar store only earns its keep if (a) a warm mmap
load beats regenerating the trace by a wide margin, (b) streaming the
stored columns through the batch engine and through the pipelined
engine's two-worker pool reproduces the in-RAM batch counters
byte-for-byte, and (c) neither the cold write nor the
streamed simulation falls below a conservative throughput floor.
Raw timings drift with machine load, so only one-sided ``_gap``
shortfalls and exactness ``_dev`` metrics are gated.
"""

import shutil
import tempfile
import time

from repro.bench import benchmark
from repro.engine.exact import ExactEngine
from repro.engine.pipeline import PipelinedExactEngine
from repro.engine.tracestore import TraceStore
from repro.kernels import Gemm
from repro.machine.config import CacheConfig
from repro.measure import format_table
from repro.units import MIB

#: The cross-validation configuration (tests/test_engine_crossval.py).
CACHE = CacheConfig(capacity_bytes=4 * MIB)
N = 128

#: Conservative floors in M accesses/s — the dev box does ~7 Macc/s
#: cold write (generation dominates), ~25 Macc/s full-CRC warm load
#: and ~40 Macc/s streamed simulation.
COLD_WRITE_FLOOR = 1.5
WARM_LOAD_FLOOR = 8.0
STREAM_SIM_FLOOR = 8.0


def _rel_dev(got: int, ref: int) -> float:
    return abs(got - ref) / ref if ref else float(got != ref)


def _gap(required: float, got: float) -> float:
    """One-sided shortfall: 0 while ``got`` clears ``required``."""
    return max(0.0, (required - got) / required)


@benchmark("trace-store", tags=("engine", "store", "perf"))
def bench_trace_store(ctx):
    kernel = Gemm(N)
    streams = kernel.streams()
    root = tempfile.mkdtemp(prefix="repro-bench-store-")
    try:
        store = TraceStore(root, verify="full")

        trace = kernel.exact_trace()
        batch = ExactEngine(CACHE).run_nest(streams, trace)
        macc = len(trace) / 1e6

        t0 = time.perf_counter()
        store.put(kernel, kernel.segments())
        t_write = time.perf_counter() - t0

        t_load = float("inf")
        for _ in range(3):  # best-of-3: page cache is warm after one
            t0 = time.perf_counter()
            entry = store.get(kernel)
            loaded = entry.load()
            t_load = min(t_load, time.perf_counter() - t0)
        roundtrip_dev = float(not (
            (loaded.addr == trace.addr).all()
            and (loaded.size == trace.size).all()
            and (loaded.stream_id == trace.stream_id).all()
            and (loaded.is_write == trace.is_write).all()
            and loaded.streams == trace.streams))
        del loaded

        t_stream = float("inf")
        for _ in range(3):
            entry = store.get(kernel, verify="meta")
            t0 = time.perf_counter()
            streamed = ExactEngine(CACHE).run_nest(streams, entry)
            t_stream = min(t_stream, time.perf_counter() - t0)
            entry.close()

        entry = store.get(kernel, verify="meta")
        t0 = time.perf_counter()
        with PipelinedExactEngine(CACHE, n_workers=2) as eng:
            piped = eng.run_nest(streams, entry)
        t_piped = time.perf_counter() - t0
        entry.close()

        w_th, l_th, s_th = macc / t_write, macc / t_load, macc / t_stream
        ctx.log(format_table(
            ["tier", "seconds", "Macc/s", "read bytes", "write bytes"],
            [["cold write (gen + persist)", round(t_write, 3),
              round(w_th, 1), "-", "-"],
             ["warm load (full CRC + mmap)", round(t_load, 3),
              round(l_th, 1), "-", "-"],
             ["streamed simulation", round(t_stream, 3),
              round(s_th, 1), streamed.read_bytes, streamed.write_bytes],
             ["pipelined-from-disk x2", round(t_piped, 3),
              round(macc / t_piped, 1), piped.read_bytes,
              piped.write_bytes]],
            title=f"[store] GEMM N={N} ({len(trace):,} accesses, "
                  f"{store.total_bytes() / 1e6:.1f} MB on disk)"))
        return {
            "trace_macc": macc,
            "cold_write_gap": _gap(COLD_WRITE_FLOOR, w_th),
            "warm_load_gap": _gap(WARM_LOAD_FLOOR, l_th),
            "stream_sim_gap": _gap(STREAM_SIM_FLOOR, s_th),
            # Exactness: a stored trace must round-trip byte-identical
            # and simulate to the in-RAM batch counters exactly.
            "roundtrip_dev": roundtrip_dev,
            "stream_read_dev": _rel_dev(streamed.read_bytes,
                                        batch.read_bytes),
            "stream_write_dev": _rel_dev(streamed.write_bytes,
                                         batch.write_bytes),
            "piped_read_dev": _rel_dev(piped.read_bytes,
                                       batch.read_bytes),
            "piped_write_dev": _rel_dev(piped.write_bytes,
                                        batch.write_bytes),
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


def test_trace_store_tiers(run_bench):
    _, metrics = run_bench(bench_trace_store)
    assert metrics["roundtrip_dev"] == 0.0
    assert metrics["stream_read_dev"] == 0.0
    assert metrics["stream_write_dev"] == 0.0
    assert metrics["piped_read_dev"] == 0.0
    assert metrics["piped_write_dev"] == 0.0
    assert metrics["cold_write_gap"] == 0.0
    assert metrics["warm_load_gap"] == 0.0
    assert metrics["stream_sim_gap"] == 0.0
