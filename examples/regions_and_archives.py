#!/usr/bin/env python
"""Tool-style instrumentation: PAPI high-level regions + pmlogger.

Two workflows the paper's ecosystem builds on top of PAPI/PCP:

1. **Region instrumentation** (what TAU/Score-P/Caliper do): wrap the
   phases of a 3D-FFT rank in ``PAPI_hl_region``-style regions and get
   per-region memory-traffic totals without touching event sets.
2. **Archive logging** (what pmlogger does on Summit): sample the PCP
   nest metrics on an interval while an application runs, then replay
   the archive as bandwidth curves.

Run:  python examples/regions_and_archives.py
"""

from repro.fft3d import FFT3DApp
from repro.measure import sparkline
from repro.mpi import ProcessorGrid
from repro.papi import HighLevelApi, library_init
from repro.pcp import connect, start_pmcd_for_node
from repro.pmu.events import all_pcp_events, pcp_metric_name
from repro.units import fmt_bytes


def region_demo():
    app = FFT3DApp(n=512, grid=ProcessorGrid(2, 4), use_gpu=True, seed=23)
    node0 = app.cluster.nodes[0]
    papi = library_init(node0, pmcd=start_pmcd_for_node(node0))
    hl = HighLevelApi(papi, events=all_pcp_events(node0.config, 0))

    for step in app.steps(slices_per_phase=1):
        hl.region_begin(step.label)
        step.run()
        hl.region_end(step.label)
    hl.stop()

    print("Per-region report (PAPI high-level API, one 3D-FFT rank):")
    print(f"  {'region':10s} {'inst':>4s} {'seconds':>9s} "
          f"{'read':>12s} {'write':>12s}")
    for name, entry in hl.report().items():
        reads = sum(v for k, v in entry.items() if "READ" in k)
        writes = sum(v for k, v in entry.items() if "WRITE" in k)
        print(f"  {name:10s} {int(entry['instances']):4d} "
              f"{entry['seconds']:9.4f} {fmt_bytes(reads):>12s} "
              f"{fmt_bytes(writes):>12s}")
    print()


def pmlogger_demo():
    app = FFT3DApp(n=512, grid=ProcessorGrid(2, 4), use_gpu=True, seed=23)
    node0 = app.cluster.nodes[0]
    pmcd = start_pmcd_for_node(node0, round_trip_seconds=0.0)
    metrics = [pcp_metric_name(ch, write=False) for ch in range(8)]
    logger = connect(pmcd, node=node0).log(metrics, interval_seconds=1e-3)

    steps = app.steps(slices_per_phase=2)
    logger.sample()
    for step in steps:
        step.run()
        logger.sample()

    # Aggregate the 8 per-channel read counters into one bandwidth curve.
    curves = [logger.rates(m, "cpu87") for m in metrics]
    bandwidth = [sum(c[i][1] for c in curves) for i in range(len(curves[0]))]
    print(f"pmlogger archive: {len(logger)} samples of 8 channel counters")
    print(f"  socket read bandwidth |{sparkline(bandwidth)}|")
    print(f"  peak {max(bandwidth) / 1e9:.1f} GB/s, "
          f"mean {sum(bandwidth) / len(bandwidth) / 1e9:.1f} GB/s")


if __name__ == "__main__":
    region_demo()
    pmlogger_demo()
