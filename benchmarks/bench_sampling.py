"""Sampling profiler accuracy-vs-overhead ablation.

The tentpole claim of the sampling subsystem (DESIGN.md §6.4): on
GEMM N=256 against a 512 KiB nest cache (~33.6M accesses, miss
fraction ~3.6% — dense enough that rare-event variance cannot mask a
broken estimator), the period-scaled traffic estimate at sample
period 128 must land within 5% relative error of the exact engine.
The observer's replay *is* the exact engine state (equality is
property-tested in tests/test_papi_sampling.py), so the reference
costs nothing extra here.

The ablation benchmark sweeps the sample period on a smaller GEMM
and records the estimate error at each rate next to the observer
overhead counters: more samples → more replay slices and records
(the overhead axis) → lower error (the accuracy axis). Error metrics
are deterministic for a fixed seed, so they are gated against the
frozen baseline; wall-clock is machine-dependent and rides along as
``info_``.

The replay benchmark (DESIGN.md §6.5) pins the vectorized segment
replay: it must run ``observe`` at least 3x faster than the scalar
slice-per-sample oracle at period 8, with *bit-identical* estimator
output (the scalar path stays in the tree exactly to make this
differential cheap to assert forever). The scalar reference runs
alongside, so its ``info_`` wall stays comparable across machines.
"""

import time

from repro.bench import benchmark
from repro.kernels import Gemm
from repro.machine.config import CacheConfig
from repro.measure import format_table
from repro.papi.sampling import SamplingConfig, SamplingObserver
from repro.units import KIB

#: The acceptance bound: estimate within 5% of exact at period <= 128.
ERROR_BOUND = 0.05
GATE_N = 256
GATE_CACHE_KIB = 512
GATE_PERIOD = 128

ABLATION_N = 128
ABLATION_CACHE_KIB = 128
ABLATION_PERIODS = (32, 128, 512)

REPLAY_N = 64
REPLAY_CACHE_KIB = 128
REPLAY_PERIOD = 8
REQUIRED_REPLAY_SPEEDUP = 3.0


def _rel_dev(got: int, ref: int) -> float:
    return abs(got - ref) / ref if ref else float(got != ref)


def _observe(n: int, cache_kib: int, period: int, seed: int):
    kernel = Gemm(n)
    cache = CacheConfig(capacity_bytes=cache_kib * KIB)
    config = SamplingConfig(period=period, seed=seed)
    observer = SamplingObserver(cache, kernel.streams(), config)
    t0 = time.perf_counter()
    observer.observe_kernel(kernel)
    wall = time.perf_counter() - t0
    return observer, wall


@benchmark("sampling-accuracy-gate", tags=("papi", "sampling", "perf"))
def bench_sampling_gate(ctx):
    observer, wall = _observe(GATE_N, GATE_CACHE_KIB, GATE_PERIOD,
                              ctx.seed)
    errors = observer.relative_errors()
    exact = observer.exact_traffic()
    est = observer.estimated_traffic()
    overhead = observer.overhead()
    ctx.log(format_table(
        ["quantity", "exact", "estimated", "rel error"],
        [["read bytes", exact.read_bytes, round(est.read_bytes),
          f"{errors['read']:.4%}"],
         ["write bytes", exact.write_bytes, round(est.write_bytes),
          f"{errors['write']:.4%}"],
         ["total bytes", exact.read_bytes + exact.write_bytes,
          round(est.total_bytes), f"{errors['total']:.4%}"]],
        title=f"[sampling] GEMM N={GATE_N}, "
              f"{GATE_CACHE_KIB} KiB cache, period {GATE_PERIOD}: "
              f"{overhead['samples']:,} samples / "
              f"{observer.accesses_observed:,} accesses "
              f"in {wall:.2f}s"))
    return {
        # One-sided acceptance gate: 0 while the total estimate is
        # within the 5% bound; any positive value regresses.
        "error_bound_gap": max(
            0.0, (errors["total"] - ERROR_BOUND) / ERROR_BOUND),
        # The error values themselves (deterministic for fixed seed).
        "total_rel_error": errors["total"],
        "read_rel_error": errors["read"],
        "write_rel_error": errors["write"],
        "sample_fraction": (overhead["samples"]
                            / observer.accesses_observed),
        # Machine/timing observability, never gated.
        "info_wall_s": wall,
        "info_replay_slices": float(overhead["replay_slices"]),
        "info_records_kept": float(overhead["records_kept"]),
    }


@benchmark("sampling-period-ablation", tags=("papi", "sampling"))
def bench_sampling_ablation(ctx):
    rows = []
    metrics = {}
    for period in ABLATION_PERIODS:
        observer, wall = _observe(ABLATION_N, ABLATION_CACHE_KIB,
                                  period, ctx.seed)
        errors = observer.relative_errors()
        overhead = observer.overhead()
        rows.append([period, overhead["samples"],
                     overhead["replay_slices"],
                     f"{errors['total']:.4%}", f"{wall:.2f}"])
        metrics[f"total_rel_error_p{period}"] = errors["total"]
        metrics[f"info_wall_s_p{period}"] = wall
        metrics[f"info_samples_p{period}"] = float(overhead["samples"])
    ctx.log(format_table(
        ["period", "samples", "slices", "total err", "wall s"], rows,
        title=f"[sampling] GEMM N={ABLATION_N}, "
              f"{ABLATION_CACHE_KIB} KiB cache: accuracy vs overhead"))
    # No single-seed monotonicity gate: one draw of a 0.2% error can
    # land above or below one draw of a 0.15% error. The monotone-in-
    # expectation law is asserted over averaged seeds by the
    # hypothesis property test in tests/test_papi_sampling.py; here
    # the per-period errors themselves are gated (deterministic for
    # the frozen seed).
    return metrics


def test_sampling_period_ablation(run_bench):
    _, metrics = run_bench(bench_sampling_ablation)
    # Every swept period satisfies the acceptance bound at this
    # (dense-miss) operating point; the sweep spans a 16x rate range.
    for period in ABLATION_PERIODS:
        assert metrics[f"total_rel_error_p{period}"] < ERROR_BOUND


@benchmark("sampling-replay", tags=("papi", "sampling", "perf"))
def bench_sampling_replay(ctx):
    kernel = Gemm(REPLAY_N)
    cache = CacheConfig(capacity_bytes=REPLAY_CACHE_KIB * KIB)

    results = {}
    for label, vectorized in (("scalar", False), ("vectorized", True)):
        observer = SamplingObserver(
            cache, kernel.streams(),
            SamplingConfig(period=REPLAY_PERIOD, seed=ctx.seed),
            vectorized=vectorized)
        t0 = time.perf_counter()
        observer.observe_kernel(kernel)
        results[label] = (observer, time.perf_counter() - t0)

    scalar, t_scalar = results["scalar"]
    vector, t_vector = results["vectorized"]
    speedup = t_scalar / t_vector if t_vector else 0.0
    s_est = scalar.estimated_traffic()
    v_est = vector.estimated_traffic()
    ctx.log(format_table(
        ["replay", "seconds", "samples", "slices", "est read B",
         "est write B"],
        [["scalar", round(t_scalar, 3), scalar.n_samples,
          scalar.slices, round(s_est.read_bytes), round(s_est.write_bytes)],
         ["vectorized", round(t_vector, 3), vector.n_samples,
          vector.slices, round(v_est.read_bytes),
          round(v_est.write_bytes)]],
        title=f"[sampling] replay GEMM N={REPLAY_N}, "
              f"{REPLAY_CACHE_KIB} KiB cache, period {REPLAY_PERIOD}: "
              f"replay speedup {speedup:.2f}x"))
    return {
        # One-sided gate: 0 while the vectorized replay clears 3x.
        "replay_speedup_shortfall_gap": max(
            0.0, (REQUIRED_REPLAY_SPEEDUP - speedup)
            / REQUIRED_REPLAY_SPEEDUP),
        # Bit-identical estimators: any deviation regresses.
        "replay_read_dev": _rel_dev(v_est.read_bytes, s_est.read_bytes),
        "replay_write_dev": _rel_dev(v_est.write_bytes,
                                     s_est.write_bytes),
        "replay_sample_dev": _rel_dev(vector.n_samples,
                                      scalar.n_samples),
        "sample_fraction": (scalar.n_samples
                            / scalar.accesses_observed),
        # Observability, never gated.
        "info_speedup": speedup,
        "info_scalar_wall_s": t_scalar,
        "info_vectorized_wall_s": t_vector,
        "info_vectorized_slices": float(vector.slices),
    }


def test_sampling_replay_bit_identical(run_bench):
    _, metrics = run_bench(bench_sampling_replay)
    assert metrics["replay_read_dev"] == 0.0
    assert metrics["replay_write_dev"] == 0.0
    assert metrics["replay_sample_dev"] == 0.0
    assert metrics["replay_speedup_shortfall_gap"] == 0.0
