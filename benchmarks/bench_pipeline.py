"""Pipelined exact engine vs sequential generate-then-simulate.

The streaming subsystem (DESIGN.md §6.3) overlaps segment generation
with a persistent shard-worker pool. On a GEMM N=256 trace (~33.6M
accesses) it must reproduce the sequential pipeline — materialize the
full ``exact_trace()``, then feed it to the single-process batch
:class:`ExactEngine` — byte for byte. The end-to-end speedup over that
sequential path, worker utilization and producer queue depth are
recorded as ``info_`` metrics: real observability data, but
machine-dependent (the speedup needs free cores), so the baseline gate
ignores them.
"""

import time

from repro.bench import benchmark
from repro.engine.exact import ExactEngine
from repro.engine.pipeline import PipelinedExactEngine
from repro.kernels import Gemm
from repro.machine.config import CacheConfig
from repro.measure import format_table
from repro.units import MIB

CACHE = CacheConfig(capacity_bytes=4 * MIB)
N = 256


def _rel_dev(got: int, ref: int) -> float:
    return abs(got - ref) / ref if ref else float(got != ref)


@benchmark("pipeline-engine", tags=("engine", "pipeline", "perf"))
def bench_pipeline(ctx):
    kernel = Gemm(N)
    streams = kernel.streams()

    # Sequential: generate the whole trace, then simulate it in batch.
    t0 = time.perf_counter()
    trace = kernel.exact_trace()
    t_gen = time.perf_counter() - t0
    t0 = time.perf_counter()
    seq = ExactEngine(CACHE).run_nest(streams, trace)
    t_seq_sim = time.perf_counter() - t0
    del trace
    t_seq = t_gen + t_seq_sim

    # Pipelined: segments stream into the worker pool as they land.
    t0 = time.perf_counter()
    with PipelinedExactEngine(CACHE) as eng:
        piped = eng.run_kernel(kernel)
    t_piped = time.perf_counter() - t0
    stats = eng.last_pipeline_stats

    speedup = t_seq / t_piped
    ctx.log(format_table(
        ["path", "seconds", "read bytes", "write bytes"],
        [["generate", round(t_gen, 3), "-", "-"],
         ["batch sim", round(t_seq_sim, 3),
          seq.read_bytes, seq.write_bytes],
         ["sequential total", round(t_seq, 3), "-", "-"],
         [f"pipelined ({stats['mode']}, "
          f"{stats['n_workers']} workers)", round(t_piped, 3),
          piped.read_bytes, piped.write_bytes]],
        title=f"[pipeline] GEMM N={N} ({stats['rows']:,} accesses), "
              f"speedup {speedup:.2f}x, utilization "
              f"{stats['utilization']:.2f}, queue depth "
              f"{stats['mean_queue_depth']:.2f}/"
              f"{stats['max_queue_depth']}"))
    return {
        "rows_macc": stats["rows"] / 1e6,
        "segments": float(stats["segments"]),
        # Exactness: segment streaming must not move a byte.
        "piped_read_dev": _rel_dev(piped.read_bytes, seq.read_bytes),
        "piped_write_dev": _rel_dev(piped.write_bytes, seq.write_bytes),
        # Observability, never gated (machine-dependent).
        "info_speedup_vs_batch": speedup,
        "info_utilization": stats["utilization"],
        "info_mean_queue_depth": stats["mean_queue_depth"],
        "info_max_queue_depth": float(stats["max_queue_depth"]),
        "info_producer_stall_s": stats["producer_stall_s"],
    }


def test_pipeline_matches_sequential(run_bench):
    _, metrics = run_bench(bench_pipeline)
    assert metrics["piped_read_dev"] == 0.0
    assert metrics["piped_write_dev"] == 0.0
