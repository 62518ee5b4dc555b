"""Ablations: switch one modelled mechanism off and watch its feature go.

* ``ablation-noise`` — each figure feature has one owner among the
  noise mechanisms: the Fig 2 small-N floor needs the per-window
  components, the Fig 5 write excess the per-repetition one.
* ``ablation-repetitions`` — §III's Eq. 5 against one repetition,
  a fixed 500 and the min-of-runs aggregation of the paper's ref. [9].
* ``ablation-slices`` — single-thread GEMM with and without L3
  idle-slice re-appropriation: confined to its 5 MB share, the lone
  core would jump at N ≈ 809, which the paper does not observe.
* ``ablation-store-policy`` — the Fig 6a single read per element
  needs stores that bypass the cache; a write-allocate-everywhere
  model predicts a second read, which is what Fig 6b measures with
  ``-fprefetch-loop-arrays``.
* ``ablation-pcp-overhead`` — the same kernels through PCP and through
  direct perf_uncore reads on one machine (Tellico): the paths part
  only where the kernel is as short as the daemon round trip.

Every row carries its values unrounded, so a golden fixture pins them
bit for bit; ``extras["metrics"]`` holds the same values by name.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from ..engine.analytic import CacheContext
from ..engine.executor import Executor
from ..fft3d import S2CF, LocalBlock, S1CFLoopNest1
from ..kernels.blas import CappedGemv, Gemm
from ..machine.config import SUMMIT
from ..machine.node import Node
from ..machine.prefetch import SoftwarePrefetch
from ..measure.repetition import aggregate, repetitions_for
from ..measure.session import MeasurementSession
from ..noise import QUIET, NoiseConfig
from ..units import MIB
from .registry import ExperimentResult, register


@register("ablation-noise", "Noise mechanisms vs figure features",
          paper_ref="Figs 2 and 5 (noise model)")
def ablation_noise(seed: Optional[int] = None) -> ExperimentResult:
    full = NoiseConfig()
    no_window = dataclasses.replace(
        full, background_read_rate=0.0, background_write_rate=0.0,
        fixed_read_bytes=0.0, fixed_write_bytes=0.0,
        window_overhead_pcp=0.0, window_overhead_direct=0.0,
        capture_sigma0=0.0)
    no_per_rep = dataclasses.replace(
        full, per_rep_read_bytes=0.0, per_rep_write_bytes=0.0)
    ratio = {}
    # Fig 2 noise floor: owned by the window mechanisms.
    for label, cfg in (("full", full), ("no-window", no_window)):
        session = MeasurementSession("summit", seed=seed, noise=cfg)
        r = session.measure_kernel(Gemm(64), repetitions=1)
        ratio[("fig2", label)] = r.read_ratio
    # Fig 5 write excess: owned by the per-repetition mechanism.
    for label, cfg in (("full", full), ("no-per-rep", no_per_rep)):
        session = MeasurementSession("summit", seed=seed, noise=cfg)
        k = CappedGemv(m=512, n=512, p=512)
        r = session.measure_kernel(k, n_cores=21, repetitions=388)
        ratio[("fig5", label)] = r.write_ratio
    features = {"fig2": "fig2 small-N read floor",
                "fig5": "fig5 write excess"}
    return ExperimentResult(
        experiment_id="ablation-noise",
        title="Noise mechanisms vs figure features",
        headers=["feature", "noise config", "ratio"],
        rows=[[features[fig], label, value]
              for (fig, label), value in ratio.items()],
        notes=("Without the per-window components a 1-repetition GEMM "
               "N=64 loses most of its Fig 2 floor; without the "
               "per-repetition bytes capped-GEMV writes match their "
               "expectation."),
        extras={"metrics": {
            "fig2_full_ratio": ratio[("fig2", "full")],
            "fig2_no_window_ratio": ratio[("fig2", "no-window")],
            "fig5_full_write_ratio": ratio[("fig5", "full")],
            "fig5_no_per_rep_write_dev": abs(
                ratio[("fig5", "no-per-rep")] - 1.0),
        }},
    )


#: Noise-dominated sizes, well below the Eq. 3 boundary, so any error
#: is measurement noise rather than genuine cache-spill divergence.
REPETITION_SIZES = (96, 176, 256)


@register("ablation-repetitions", "Repetition and aggregation strategies",
          paper_ref="§III (Eq. 5)")
def ablation_repetitions(seed: Optional[int] = None) -> ExperimentResult:
    def error(ratio):
        return abs(ratio - 1.0)

    session = MeasurementSession("summit", via="pcp", seed=seed)
    rows = []
    metrics = {}
    for n in REPETITION_SIZES:
        kernel = Gemm(n)
        # Expected single-repetition error: the mean over runs, so a
        # lucky draw does not masquerade as accuracy.
        one_err = sum(
            error(session.measure_kernel(kernel,
                                         repetitions=1).read_ratio)
            for _ in range(10)) / 10
        eq5_reps = repetitions_for(n)
        eq5 = session.measure_kernel(kernel, repetitions=eq5_reps)
        fixed = session.measure_kernel(kernel, repetitions=500)
        min_runs = aggregate(
            [session.measure_kernel(kernel, repetitions=1).read_ratio
             for _ in range(15)], how="min")
        rows.append([n, one_err, error(eq5.read_ratio), eq5_reps,
                     error(fixed.read_ratio), error(min_runs)])
        metrics[f"n{n}_one_rep_err"] = one_err
        metrics[f"n{n}_eq5_err"] = error(eq5.read_ratio)
        metrics[f"n{n}_eq5_reps"] = eq5_reps
        metrics[f"n{n}_fixed_err"] = error(fixed.read_ratio)
        metrics[f"n{n}_min_runs_err"] = error(min_runs)
    return ExperimentResult(
        experiment_id="ablation-repetitions",
        title="Read error |measured/expected - 1| per strategy (GEMM)",
        headers=["N", "err @1 rep", "err @Eq.5", "Eq.5 reps",
                 "err @500 reps", "err @min-of-15"],
        rows=rows,
        notes=("Eq. 5 beats one repetition at every N and is within "
               "noise of a fixed 500 repetitions; the minimum over "
               "1-repetition runs also removes the additive floor."),
        extras={"metrics": metrics},
    )


SLICE_SIZES = (512, 1024, 1456)


@register("ablation-slices", "Single-thread GEMM with and without "
          "idle-slice re-appropriation", paper_ref="§IV (Fig 3a)")
def ablation_slices(seed: Optional[int] = None) -> ExperimentResult:
    """Noise-free model traffic on a node of fixed seed 1: ``seed`` is
    accepted like every experiment's, and does not enter."""
    rows = []
    metrics = {}
    for n in SLICE_SIZES:
        kernel = Gemm(n)
        expected = kernel.expected_traffic().read_bytes
        shared = Executor(Node(SUMMIT, seed=1, noise=QUIET)).run(
            kernel, noisy=False).true_traffic
        confined = Executor(Node(SUMMIT, seed=1, noise=QUIET)).run(
            kernel, noisy=False, assume_socket_busy=True).true_traffic
        rows.append([n, shared.read_bytes / expected,
                     confined.read_bytes / expected])
        metrics[f"n{n}_reappropriated_ratio"] = (
            shared.read_bytes / expected)
        metrics[f"n{n}_confined_ratio"] = confined.read_bytes / expected
    return ExperimentResult(
        experiment_id="ablation-slices",
        title="Single-thread GEMM read ratio with and without idle-slice "
              "re-appropriation",
        headers=["N", "read ratio (110 MB re-appropriated)",
                 "read ratio (confined to 5 MB)"],
        rows=rows,
        notes=("Confined to its 5 MB share the lone core would jump "
               "drastically past N ~ 809; re-appropriating the idle "
               "slices keeps the divergence gradual, as the paper "
               "measures."),
        extras={"metrics": metrics},
    )


#: dcbtst forces write-allocation: reused as the "no bypass anywhere"
#: knob, the ablation stays inside the same traffic law.
NO_BYPASS = SoftwarePrefetch(dcbt=False, dcbtst=True)
STORE_POLICY_BLOCK = LocalBlock(planes=512, rows=256, cols=1024)
#: The paper's measurements, reads per element copied (Figs 6 and 9).
OBSERVED = {"s1cf-ln1": 1.0, "s2cf": 1.0}
OBSERVED_WITH_FLAG = {"s1cf-ln1": 2.0, "s2cf": 2.0}


@register("ablation-store-policy", "Store-bypass policy vs naive "
          "write-allocate", paper_ref="Figs 6 and 9")
def ablation_store_policy(seed: Optional[int] = None) -> ExperimentResult:
    """Analytic traffic laws only: ``seed`` does not enter."""
    ctx = CacheContext(capacity_bytes=5 * MIB)
    rows = []
    metrics = {}
    for cls in (S1CFLoopNest1, S2CF):
        kernel = cls(STORE_POLICY_BLOCK)
        routine = kernel.routine
        with_policy = kernel.traffic(ctx).read_bytes / kernel.nbytes
        ablated = kernel.traffic(ctx, NO_BYPASS).read_bytes / kernel.nbytes
        rows.append([routine, with_policy, ablated, OBSERVED[routine],
                     OBSERVED_WITH_FLAG[routine]])
        metrics[f"{routine}_policy_read_dev"] = abs(
            with_policy - OBSERVED[routine])
        metrics[f"{routine}_no_bypass_reads"] = ablated
    return ExperimentResult(
        experiment_id="ablation-store-policy",
        title="Reads per element copied: store-bypass policy vs "
              "write-allocate everywhere",
        headers=["kernel", "reads/elem (policy model)",
                 "reads/elem (no bypass)", "paper observed",
                 "paper observed w/ flag"],
        rows=rows,
        notes=("Without the bypass the model reads one element more "
               "than Fig 6a/9a measure, and coincides with the "
               "flag-enabled Fig 6b/9b measurement instead."),
        extras={"metrics": metrics},
    )


PCP_OVERHEAD_SIZES = (64, 256, 1024)
#: One fixed draw for both paths: the comparison is on identical
#: hardware, not across seeds.
PCP_OVERHEAD_SEED = 4242


@register("ablation-pcp-overhead", "PCP daemon indirection vs direct "
          "reads on one machine", paper_ref="§IV (Figs 3 and 4)")
def ablation_pcp_overhead(seed: Optional[int] = None) -> ExperimentResult:
    """Both sessions use :data:`PCP_OVERHEAD_SEED`; ``seed`` is
    accepted like every experiment's, and does not enter."""
    rows = []
    metrics = {}
    for n in PCP_OVERHEAD_SIZES:
        reps = repetitions_for(n)
        via_pcp = MeasurementSession("tellico", via="pcp",
                                     seed=PCP_OVERHEAD_SEED)
        via_direct = MeasurementSession(
            "tellico", via="perf_event_uncore", seed=PCP_OVERHEAD_SEED)
        cores = via_pcp.batch_core_count()
        a = via_pcp.measure_kernel(Gemm(n), n_cores=cores,
                                   repetitions=reps)
        b = via_direct.measure_kernel(Gemm(n), n_cores=cores,
                                      repetitions=reps)
        gap = abs(a.read_ratio - b.read_ratio)
        kernel_ms = a.runtime_per_rep * 1e3
        rows.append([n, kernel_ms, a.read_ratio, b.read_ratio, gap])
        metrics[f"n{n}_kernel_ms"] = kernel_ms
        metrics[f"n{n}_pcp_gap"] = gap
    return ExperimentResult(
        experiment_id="ablation-pcp-overhead",
        title="Batched GEMM read ratio through PCP and direct on Tellico",
        headers=["N", "kernel ms", "read ratio via PCP",
                 "read ratio direct", "|gap|"],
        rows=rows,
        notes=("The daemon round trip costs milliseconds of extra "
               "window; from millisecond-scale kernels up the PCP "
               "measurement is as accurate as the direct one."),
        extras={"metrics": metrics},
    )
