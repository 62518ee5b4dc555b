"""Exact-engine speed tiers: scalar oracle vs batch vs pooled pipeline.

The vectorized batch path must (a) reproduce the scalar oracle's
traffic byte-for-byte and (b) beat it by at least 25x on the GEMM
cross-validation trace — the margin that makes N=256 cross-validation
tractable in test time. The pipelined engine's two-worker pool (the
multi-process path) must agree exactly too; its wall-clock win depends
on free cores, so only its correctness is gated here (timings are
logged for inspection).
"""

import time

from repro.bench import benchmark
from repro.engine.exact import ExactEngine
from repro.engine.pipeline import PipelinedExactEngine
from repro.engine.tracecache import cached_exact_trace
from repro.kernels import Gemm
from repro.machine.config import CacheConfig
from repro.measure import format_table
from repro.units import MIB

#: The cross-validation configuration (tests/test_engine_crossval.py).
CACHE = CacheConfig(capacity_bytes=4 * MIB)
N = 160
REQUIRED_SPEEDUP = 25.0


def _rel_dev(got: int, ref: int) -> float:
    return abs(got - ref) / ref if ref else float(got != ref)


@benchmark("exact-engine", tags=("engine", "perf"))
def bench_exact_engine(ctx):
    kernel = Gemm(N)
    streams = kernel.streams()

    t0 = time.perf_counter()
    trace = cached_exact_trace(kernel)
    t_trace = time.perf_counter() - t0

    t0 = time.perf_counter()
    scalar = ExactEngine(CACHE).run_nest(streams,
                                         kernel.exact_accesses())
    t_scalar = time.perf_counter() - t0

    t_batch = float("inf")
    for _ in range(3):  # best-of-3: the batch pass is cheap
        t0 = time.perf_counter()
        batch = ExactEngine(CACHE).run_nest(streams, trace)
        t_batch = min(t_batch, time.perf_counter() - t0)

    t0 = time.perf_counter()
    with PipelinedExactEngine(CACHE, n_workers=2) as eng:
        piped = eng.run_nest(streams, trace)
    t_piped = time.perf_counter() - t0

    speedup = t_scalar / t_batch
    ctx.log(format_table(
        ["tier", "seconds", "read bytes", "write bytes"],
        [["trace generation", round(t_trace, 3), "-", "-"],
         ["scalar oracle", round(t_scalar, 3),
          scalar.read_bytes, scalar.write_bytes],
         ["batch", round(t_batch, 3),
          batch.read_bytes, batch.write_bytes],
         ["pipelined x2", round(t_piped, 3),
          piped.read_bytes, piped.write_bytes]],
        title=f"[engine] exact GEMM N={N} "
              f"({len(trace):,} accesses), batch speedup "
              f"{speedup:.1f}x"))
    # The raw speedup is logged, not returned: timings drift with
    # machine load, so only the one-sided shortfall below is gated.
    return {
        "trace_macc": len(trace) / 1e6,
        # One-sided gate: 0 while the batch path clears the required
        # 25x; any positive value is a regression.
        "speedup_shortfall_gap": max(
            0.0, (REQUIRED_SPEEDUP - speedup) / REQUIRED_SPEEDUP),
        # Exactness: all tiers must match the oracle byte-for-byte.
        "batch_read_dev": _rel_dev(batch.read_bytes, scalar.read_bytes),
        "batch_write_dev": _rel_dev(batch.write_bytes,
                                    scalar.write_bytes),
        "piped_read_dev": _rel_dev(piped.read_bytes, scalar.read_bytes),
        "piped_write_dev": _rel_dev(piped.write_bytes,
                                    scalar.write_bytes),
    }


def test_exact_engine_tiers(run_bench):
    _, metrics = run_bench(bench_exact_engine)
    assert metrics["batch_read_dev"] == 0.0
    assert metrics["batch_write_dev"] == 0.0
    assert metrics["piped_read_dev"] == 0.0
    assert metrics["piped_write_dev"] == 0.0
    assert metrics["speedup_shortfall_gap"] == 0.0
