"""Command-line entry point: regenerate any table/figure.

Examples::

    repro-experiments --list
    repro-experiments fig3
    repro-experiments fig11 --seed 42
    repro-experiments --check-golden tests/golden fig2 fig3
    python -m repro.cli fig5
    python -m repro.cli bench --compare benchmarks/baseline.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .experiments import (
    all_experiments,
    get_experiment,
    golden_mismatch,
    plain_cell,
    run_experiment,
)


def _result_to_json(result) -> str:
    """Machine-readable rendering (rows only; extras hold live objects)."""
    return json.dumps({
        "experiment_id": result.experiment_id,
        "title": result.title,
        "headers": list(result.headers),
        "rows": [list(map(plain_cell, row)) for row in result.rows],
        "notes": result.notes,
    }, indent=2)


def _check_golden(directory: str, ids: List[str]) -> int:
    """Compare each experiment (all when ``ids`` is empty) with its
    fixture in ``directory``; exit 1 on any mismatch or missing one."""
    ids = ids or [e.experiment_id for e in all_experiments()]
    for experiment_id in ids:
        get_experiment(experiment_id)  # an unknown id raises up front
    failed = 0
    for experiment_id in ids:
        mismatch = golden_mismatch(directory, experiment_id)
        if mismatch is None:
            print(f"ok        {experiment_id}")
        else:
            failed += 1
            print(f"MISMATCH  {mismatch}")
    print(f"{len(ids) - failed} of {len(ids)} experiments match "
          f"the fixtures in {directory}")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=("Regenerate the tables and figures of 'Memory "
                     "Traffic and Complete Application Profiling with "
                     "PAPI Multi-Component Measurements' on the "
                     "simulated POWER9 substrate."),
    )
    parser.add_argument("experiment", nargs="?",
                        help="experiment id (e.g. table1, fig2 ... fig12), "
                             "'pcp-load' for the concurrent daemon "
                             "load run, or 'bench' for the parallel "
                             "benchmark suite (see 'bench --help')")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments")
    parser.add_argument("--seed", type=int, default=None,
                        help="simulation seed (default: package default)")
    parser.add_argument("--all", action="store_true",
                        help="run every experiment in order")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of a table")
    parser.add_argument("--plot", action="store_true",
                        help="also render ASCII log-log plots of the "
                             "figure's sweeps (where available)")
    parser.add_argument("--check-golden", nargs="+", metavar=("DIR", "ID"),
                        help="run the listed experiments (all when none "
                             "are listed) at the default seed and compare "
                             "each with DIR/<id>.json; print the first "
                             "diverging row of each mismatch and exit 1 "
                             "on any mismatch or missing fixture")
    return parser


def build_pcp_load_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments pcp-load",
        description="Drive the asyncio PMCD fabric at service scale: "
                    "hundreds of concurrent async contexts pipelining "
                    "fetch PDUs for a wall-clock window, with optional "
                    "fault injection (shard kills, slow PMDA reads, "
                    "dropped connections, archive corruption). Exits "
                    "nonzero when a service invariant was violated or "
                    "a --min-rate/--max-p99-usec gate fails.",
    )
    parser.add_argument("--contexts", type=int, default=256,
                        help="concurrent async client sessions "
                             "(default: 256)")
    parser.add_argument("--duration", type=float, default=5.0,
                        help="wall-clock seconds of sustained load "
                             "(default: 5)")
    parser.add_argument("--pipeline-depth", type=int, default=8,
                        help="fetch PDUs in flight per context "
                             "(default: 8)")
    parser.add_argument("--pmids-per-fetch", type=int, default=4,
                        help="metrics per fetch PDU (default: 4)")
    parser.add_argument("--no-coalesce", action="store_true",
                        help="disable per-shard request coalescing")
    parser.add_argument("--kill-shards", type=int, default=0,
                        help="times to kill the perfevent shard worker "
                             "mid-run (supervisor must recover)")
    parser.add_argument("--slow-pmda", type=int, default=0,
                        help="PMDA reads to stall via fault injection")
    parser.add_argument("--slow-pmda-seconds", type=float, default=0.02,
                        help="stall length per slow PMDA read "
                             "(default: 0.02)")
    parser.add_argument("--drop-connections", type=int, default=0,
                        help="served responses to replace with a "
                             "connection drop (clients must reconnect)")
    parser.add_argument("--corrupt-archive", action="store_true",
                        help="seed an archive, bit-flip a sealed volume "
                             "mid-run, and require replay to fail "
                             "cleanly")
    parser.add_argument("--archive-dir", default=None,
                        help="directory for the --corrupt-archive "
                             "scratch archive (default: a temp dir)")
    parser.add_argument("--machine", default="summit",
                        help="machine config to simulate (default: "
                             "summit)")
    parser.add_argument("--seed", type=int, default=1,
                        help="simulation seed (default: 1)")
    parser.add_argument("--json", action="store_true",
                        help="emit the full report as JSON")
    parser.add_argument("--hist-out", metavar="PATH", default=None,
                        help="write the latency histogram + percentiles "
                             "as a JSON artifact to PATH")
    parser.add_argument("--min-rate", type=float, default=None,
                        help="exit nonzero when fetches/s falls below "
                             "this floor")
    parser.add_argument("--max-p99-usec", type=float, default=None,
                        help="exit nonzero when client-observed p99 "
                             "latency exceeds this bound")
    return parser


def _run_pcp_load(argv: List[str]) -> int:
    import tempfile

    from .pcp.load import healthy, run_load

    args = build_pcp_load_parser().parse_args(argv)
    archive_dir = args.archive_dir
    if args.corrupt_archive and archive_dir is None:
        archive_dir = tempfile.mkdtemp(prefix="pcp-load-")
    report = run_load(
        n_contexts=args.contexts, duration_seconds=args.duration,
        machine=args.machine, seed=args.seed,
        pipeline_depth=args.pipeline_depth,
        pmids_per_fetch=args.pmids_per_fetch,
        coalesce=not args.no_coalesce, shard_kills=args.kill_shards,
        slow_pmda=args.slow_pmda,
        slow_pmda_seconds=args.slow_pmda_seconds,
        drop_connections=args.drop_connections,
        corrupt_archive=args.corrupt_archive, archive_dir=archive_dir)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        width = max(len(k) for k in report)
        for key, value in report.items():
            print(f"{key:{width}s}  {value}")
    if args.hist_out:
        artifact = {
            "fetches_per_second": report["fetches_per_second"],
            "total_fetches": report["total_fetches"],
            "contexts": report["contexts"],
            "latency_p50_usec": report["latency_p50_usec"],
            "latency_p90_usec": report["latency_p90_usec"],
            "latency_p99_usec": report["latency_p99_usec"],
            "latency_max_usec": report["latency_max_usec"],
            "latency_histogram": report["latency_histogram"],
        }
        with open(args.hist_out, "w") as fh:
            json.dump(artifact, fh, indent=2)
            fh.write("\n")
        print(f"latency histogram written to {args.hist_out}",
              file=sys.stderr)
    exit_code = 0 if healthy(report) else 1
    if args.min_rate is not None \
            and report["fetches_per_second"] < args.min_rate:
        print(f"fetch rate {report['fetches_per_second']}/s below "
              f"--min-rate {args.min_rate}", file=sys.stderr)
        exit_code = 1
    if args.max_p99_usec is not None \
            and report["latency_p99_usec"] > args.max_p99_usec:
        print(f"p99 latency {report['latency_p99_usec']}us exceeds "
              f"--max-p99-usec {args.max_p99_usec}", file=sys.stderr)
        exit_code = 1
    return exit_code


def build_bench_parser() -> argparse.ArgumentParser:
    from .bench.registry import DEFAULT_SEED

    parser = argparse.ArgumentParser(
        prog="repro-experiments bench",
        description="Run the registered benchmarks in parallel worker "
                    "processes, write a BENCH_<git-sha>.json report, "
                    "and optionally gate it against a frozen baseline.",
    )
    parser.add_argument("--bench-dir", default=None,
                        help="directory holding bench_*.py scripts "
                             "(default: ./benchmarks, falling back to "
                             "the repository checkout)")
    parser.add_argument("--jobs", "-j", type=int, default=None,
                        help="parallel worker processes "
                             "(default: min(8, cpu count))")
    parser.add_argument("--timeout", type=float, default=120.0,
                        help="per-benchmark deadline in seconds "
                             "(default: 120)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="simulation seed benchmarks measure under")
    parser.add_argument("--filter", dest="name_filter", default=None,
                        help="only run benchmarks whose name contains "
                             "this substring")
    parser.add_argument("--tag", default=None,
                        help="only run benchmarks carrying this tag")
    parser.add_argument("--output-dir", default=".",
                        help="where to write BENCH_<sha>.json "
                             "(default: current directory)")
    parser.add_argument("--no-report", action="store_true",
                        help="skip writing the BENCH_<sha>.json file")
    parser.add_argument("--profile", action="store_true",
                        help="run each benchmark under cProfile and "
                             "write <name>.prof into the output "
                             "directory, next to BENCH_<sha>.json")
    parser.add_argument("--json", action="store_true",
                        help="print the full report as JSON instead of "
                             "the summary table")
    parser.add_argument("--compare", metavar="BASELINE", default=None,
                        help="compare against a frozen baseline report "
                             "(e.g. benchmarks/baseline.json)")
    parser.add_argument("--fail-on-regression",
                        action=argparse.BooleanOptionalAction,
                        default=True,
                        help="exit nonzero when --compare finds a "
                             "regression (default: on)")
    parser.add_argument("--freeze", metavar="PATH", default=None,
                        help="also freeze this run as a baseline file "
                             "(report + thresholds) at PATH")
    parser.add_argument("--wall-threshold", type=float, default=None,
                        help="relative wall-time growth allowed vs the "
                             "baseline (overrides the baseline's own "
                             "thresholds; e.g. 0.25)")
    parser.add_argument("--metric-rel", type=float, default=None,
                        help="relative tolerance for metric drift")
    parser.add_argument("--metric-abs", type=float, default=None,
                        help="absolute tolerance for metric drift")
    parser.add_argument("--rss-threshold", type=float, default=None,
                        help="relative peak-RSS growth allowed (off by "
                             "default)")
    return parser


def build_pipeline_parser() -> argparse.ArgumentParser:
    from .engine.envconfig import RING_DEPTH_ENV, SEGMENT_ROWS_ENV

    parser = argparse.ArgumentParser(
        prog="repro-experiments pipeline",
        description="Run a kernel through the segment-pipelined exact "
                    "engine: trace generation overlaps sharded cache "
                    "simulation in a persistent worker pool.",
    )
    parser.add_argument("--kernel", default="gemm",
                        choices=["gemm", "dot", "spmv", "stream-copy",
                                 "stream-scale", "stream-add",
                                 "stream-triad"],
                        help="kernel family to run (default: gemm)")
    parser.add_argument("--size", type=int, default=256,
                        help="problem size: matrix order for gemm/spmv, "
                             "vector length for dot/stream-* "
                             "(default: 256)")
    parser.add_argument("--cache-mib", type=float, default=4.0,
                        help="simulated cache capacity in MiB "
                             "(default: 4)")
    parser.add_argument("--workers", type=int, default=None,
                        help="simulation worker processes; 0 = inline "
                             "(default: cpu count - 1)")
    parser.add_argument("--segment-rows", type=int, default=None,
                        help="rows per streamed trace segment "
                             f"(default: ${SEGMENT_ROWS_ENV} or 2^20)")
    parser.add_argument("--ring-depth", type=int, default=None,
                        help="segment slots in the shared ring "
                             f"(default: ${RING_DEPTH_ENV} or 4)")
    parser.add_argument("--compare-sequential", action="store_true",
                        help="also run the sequential generate-then-"
                             "simulate path (the single-process batch "
                             "ExactEngine) and report the speedup and "
                             "traffic match; exit 1 on a mismatch")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON")
    return parser


def build_sample_parser() -> argparse.ArgumentParser:
    from .bench.registry import DEFAULT_SEED
    from .engine.envconfig import (
        SAMPLE_JITTER_ENV,
        SAMPLE_PERIOD_ENV,
        SAMPLE_SKID_ENV,
    )

    parser = argparse.ArgumentParser(
        prog="repro-experiments sample",
        description="Profile a kernel with the SPE/PEBS-style "
                    "statistical sampling observer: per-sample records "
                    "plus period-scaled traffic estimators, compared "
                    "against the exact replay.",
    )
    parser.add_argument("--kernel", default="gemm",
                        choices=["gemm", "dot", "spmv", "stream-copy",
                                 "stream-scale", "stream-add",
                                 "stream-triad"],
                        help="kernel family to profile (default: gemm)")
    parser.add_argument("--size", type=int, default=128,
                        help="problem size: matrix order for gemm/spmv, "
                             "vector length for dot/stream-* "
                             "(default: 128)")
    parser.add_argument("--cache-kib", type=float, default=128.0,
                        help="simulated cache capacity in KiB (default: "
                             "128 — small enough that miss events stay "
                             "dense and the estimators converge fast)")
    parser.add_argument("--period", type=int, default=None,
                        help="mean accesses per sample (default: "
                             f"${SAMPLE_PERIOD_ENV} or 64)")
    parser.add_argument("--period-jitter", type=int, default=None,
                        help="half-width of the uniform gap "
                             "randomization (default: period/4, floor "
                             "1; 0 risks aliasing)")
    parser.add_argument("--store-period", type=int, default=None,
                        help="mean stores per store-channel sample "
                             "(default: period/16, min 1)")
    parser.add_argument("--skid", type=int, default=None,
                        help="fixed record skid in accesses (default: "
                             f"${SAMPLE_SKID_ENV} or 0)")
    parser.add_argument("--skid-jitter", type=int, default=None,
                        help="random extra skid bound (default: "
                             f"${SAMPLE_JITTER_ENV} or 0)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="sampling RNG seed")
    parser.add_argument("--top", type=int, default=5,
                        help="hot cache lines to report (default: 5)")
    parser.add_argument("--scalar-replay", action="store_true",
                        help="use the scalar slice-per-sample replay "
                             "instead of the vectorized segment replay "
                             "(bit-identical results; the differential "
                             "oracle)")
    parser.add_argument("--max-error", type=float, default=None,
                        help="exit nonzero when the total-traffic "
                             "relative error exceeds this bound "
                             "(CI smoke gate)")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON")
    return parser


def _run_sample_cmd(argv: List[str]) -> int:
    import time as _time

    from .machine.config import CacheConfig
    from .papi.sampling import (
        LEVEL_NAMES,
        SamplingConfig,
        SamplingObserver,
    )
    from .units import KIB

    args = build_sample_parser().parse_args(argv)
    kernel = _pipeline_kernel(args.kernel, args.size)
    cache = CacheConfig(capacity_bytes=int(args.cache_kib * KIB))
    config = SamplingConfig(
        period=args.period, period_jitter=args.period_jitter,
        store_period=args.store_period, skid=args.skid,
        skid_jitter=args.skid_jitter, seed=args.seed)
    observer = SamplingObserver(cache, kernel.streams(), config,
                                vectorized=not args.scalar_replay)
    t0 = _time.perf_counter()
    observer.observe_kernel(kernel)
    wall = _time.perf_counter() - t0

    exact = observer.exact_traffic()
    est = observer.estimated_traffic()
    errors = observer.relative_errors()
    levels = observer.records()["level"]
    level_counts = {name: int((levels == level).sum())
                    for level, name in sorted(LEVEL_NAMES.items())}
    report = {
        "kernel": kernel.name,
        "cache_kib": args.cache_kib,
        "period": config.period,
        "period_jitter": config.period_jitter,
        "store_period": config.store_period,
        "store_jitter": config.store_jitter,
        "skid": config.skid,
        "skid_jitter": config.skid_jitter,
        "seed": args.seed,
        "exact": {"read_bytes": exact.read_bytes,
                  "write_bytes": exact.write_bytes},
        "estimated": {"read_bytes": round(est.read_bytes, 1),
                      "write_bytes": round(est.write_bytes, 1)},
        "relative_error": {k: round(v, 6) for k, v in errors.items()},
        "levels": level_counts,
        "replay": "scalar" if args.scalar_replay else "vectorized",
        "overhead": observer.overhead(),
        "hot_lines": observer.hot_lines(args.top),
        "wall_s": round(wall, 3),
    }
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        ov = report["overhead"]
        print(f"[sample] {kernel.name}: {observer.accesses_observed:,} "
              f"accesses, {ov['samples']:,} samples "
              f"(period {config.period}±{config.period_jitter}, "
              f"store period {config.store_period}"
              f"±{config.store_jitter}, skid {config.skid}"
              f"+U[0,{config.skid_jitter}], {report['replay']} replay) "
              f"in {wall:.3f}s")
        print(f"  exact     read {exact.read_bytes:,} B, "
              f"write {exact.write_bytes:,} B")
        print(f"  estimated read {est.read_bytes:,.0f} B, "
              f"write {est.write_bytes:,.0f} B "
              f"(rel err read {errors['read']:.3%}, "
              f"write {errors['write']:.3%}, "
              f"total {errors['total']:.3%})")
        print(f"  levels {level_counts}, records {ov['records_kept']:,} "
              f"kept / {ov['records_dropped']:,} dropped, "
              f"{ov['replay_slices']:,} replay slices")
        for line in report["hot_lines"]:
            print(f"  hot line 0x{line['line_addr']:x} "
                  f"[{line['stream']}] ~{line['est_read_bytes']:,.0f} B "
                  f"read ({line['samples']} sampled fetches)")
    if args.max_error is not None and errors["total"] > args.max_error:
        print(f"total relative error {errors['total']:.4f} exceeds "
              f"--max-error {args.max_error}", file=sys.stderr)
        return 1
    return 0


def _pipeline_kernel(name: str, size: int):
    from .kernels import Dot, Gemm, SpmvKernel, StreamKernel, random_csr

    if name == "gemm":
        return Gemm(size)
    if name == "dot":
        return Dot(size)
    if name == "spmv":
        return SpmvKernel(random_csr(size, 8, seed=1))
    return StreamKernel(name[len("stream-"):], size)


def _run_pipeline_cmd(argv: List[str]) -> int:
    import time as _time

    from .engine.exact import ExactEngine
    from .engine.pipeline import PipelinedExactEngine
    from .machine.config import CacheConfig
    from .units import MIB

    args = build_pipeline_parser().parse_args(argv)
    kernel = _pipeline_kernel(args.kernel, args.size)
    cache = CacheConfig(capacity_bytes=int(args.cache_mib * MIB))

    t0 = _time.perf_counter()
    with PipelinedExactEngine(cache, n_workers=args.workers,
                              segment_rows=args.segment_rows,
                              ring_depth=args.ring_depth) as engine:
        traffic = engine.run_kernel(kernel)
    wall = _time.perf_counter() - t0
    stats = dict(engine.last_pipeline_stats)

    report = {
        "kernel": kernel.name,
        "read_bytes": traffic.read_bytes,
        "write_bytes": traffic.write_bytes,
        "hits": engine.last_stats["hits"],
        "misses": engine.last_stats["misses"],
        "wall_s": round(wall, 3),
        "pipeline": stats,
    }
    if args.compare_sequential:
        t0 = _time.perf_counter()
        trace = kernel.exact_trace()
        t_gen = _time.perf_counter() - t0
        t0 = _time.perf_counter()
        seq_traffic = ExactEngine(cache).run_nest(kernel.streams(), trace)
        t_sim = _time.perf_counter() - t0
        report["sequential"] = {
            "generate_s": round(t_gen, 3),
            "simulate_s": round(t_sim, 3),
            "wall_s": round(t_gen + t_sim, 3),
            "read_bytes": seq_traffic.read_bytes,
            "write_bytes": seq_traffic.write_bytes,
        }
        report["speedup"] = round((t_gen + t_sim) / wall, 2) if wall else 0.0
        report["traffic_match"] = (
            traffic.read_bytes == seq_traffic.read_bytes
            and traffic.write_bytes == seq_traffic.write_bytes)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(f"[pipeline] {kernel.name}: "
              f"read {traffic.read_bytes:,} B, "
              f"write {traffic.write_bytes:,} B, "
              f"{report['hits']:,} hits / {report['misses']:,} misses "
              f"in {wall:.3f}s")
        print(f"  mode={stats['mode']} workers={stats['n_workers']} "
              f"segment_rows={stats['segment_rows']} "
              f"ring_depth={stats['ring_depth']}")
        print(f"  {stats['segments']} segments, {stats['rows']:,} rows "
              f"({stats['expanded_rows']:,} expanded), "
              f"utilization {stats['utilization']:.2f}, "
              f"queue depth mean {stats['mean_queue_depth']:.2f} "
              f"max {stats['max_queue_depth']}")
        if args.compare_sequential:
            seq_info = report["sequential"]
            match = "exact" if report["traffic_match"] else "MISMATCH"
            print(f"  sequential (gen {seq_info['generate_s']}s + "
                  f"batch sim {seq_info['simulate_s']}s) = "
                  f"{seq_info['wall_s']}s -> "
                  f"speedup {report['speedup']}x, traffic {match}")
    if args.compare_sequential and not report["traffic_match"]:
        return 1
    return 0


def _default_bench_dir():
    from pathlib import Path

    cwd_dir = Path.cwd() / "benchmarks"
    if cwd_dir.is_dir():
        return cwd_dir
    checkout = Path(__file__).resolve().parents[2] / "benchmarks"
    if checkout.is_dir():
        return checkout
    return cwd_dir  # let discovery raise with a clear path


def _run_bench(argv: List[str]) -> int:
    from pathlib import Path

    from .bench import (
        RunnerConfig,
        Thresholds,
        build_report,
        compare_reports,
        discover,
        format_comparison,
        load_report,
        run_benchmarks,
        write_report,
    )
    from .bench.compare import resolve_thresholds

    args = build_bench_parser().parse_args(argv)
    bench_dir = Path(args.bench_dir) if args.bench_dir \
        else _default_bench_dir()

    def wanted(name: str, tags) -> bool:
        return ((not args.name_filter or args.name_filter in name)
                and (not args.tag or args.tag in tags))

    specs = [s for s in discover(bench_dir) if wanted(s.name, s.tags)]
    if not specs:
        print(f"no benchmarks matched under {bench_dir}", file=sys.stderr)
        return 2
    config = RunnerConfig(max_workers=args.jobs,
                          timeout_s=args.timeout, seed=args.seed,
                          profile_dir=args.output_dir
                          if args.profile else None)

    def progress(record):
        wall = record["wall_s"]
        shown = f"{wall:8.2f}s" if wall is not None else " " * 9
        line = f"  {record['name']:<28s} {record['status']:>8s} {shown}"
        print(line, file=sys.stderr, flush=True)

    n = len(specs)
    workers = config.resolved_workers(n)
    print(f"running {n} benchmarks on {workers} workers "
          f"(timeout {config.timeout_s:.0f}s each)", file=sys.stderr)
    records = run_benchmarks(specs, config, progress=progress)
    report = build_report(
        records,
        config={"seed": config.seed, "timeout_s": config.timeout_s,
                "max_workers": workers},
    )
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        _print_bench_summary(report)
    if not args.no_report:
        path = write_report(report, args.output_dir)
        print(f"report written to {path}", file=sys.stderr)
    exit_code = 0
    failed = report["summary"]["total"] - report["summary"]["ok"]
    if failed:
        print(f"{failed} benchmark(s) did not finish ok",
              file=sys.stderr)
        exit_code = 1
    overrides = {"wall_rel": args.wall_threshold,
                 "metric_rel": args.metric_rel,
                 "metric_abs": args.metric_abs,
                 "rss_rel": args.rss_threshold}
    if args.compare:
        baseline = load_report(args.compare)
        thresholds = resolve_thresholds(baseline, overrides)
        # A --tag/--filter run is compared only on the baseline
        # benchmarks that the same filter selects.
        comparison = compare_reports(
            report, baseline, thresholds,
            selected=[r["name"] for r in baseline["benchmarks"]
                      if wanted(r["name"], r["tags"])])
        print(format_comparison(comparison))
        if not comparison.ok and args.fail_on_regression:
            exit_code = exit_code or 1
    if args.freeze:
        frozen = dict(report)
        frozen["thresholds"] = Thresholds.from_dict(
            {k: v for k, v in overrides.items() if v is not None}
        ).to_dict()
        freeze_path = Path(args.freeze)
        freeze_path.parent.mkdir(parents=True, exist_ok=True)
        freeze_path.write_text(json.dumps(frozen, indent=2) + "\n")
        print(f"baseline frozen to {freeze_path}", file=sys.stderr)
    return exit_code


def _print_bench_summary(report) -> None:
    from .measure.report import format_table

    rows = []
    for record in report["benchmarks"]:
        wall = record["wall_s"]
        rss = record["peak_rss_kb"]
        rows.append([
            record["name"],
            record["status"],
            f"{wall:.2f}" if wall is not None else "-",
            str(rss) if rss is not None else "-",
            len(record["metrics"]),
        ])
    summary = report["summary"]
    print(format_table(
        ["benchmark", "status", "wall s", "peak RSS kB", "metrics"],
        rows,
        title=f"[bench] {summary['ok']}/{summary['total']} ok, "
              f"{summary['wall_s']}s benchmark time, "
              f"sha {report['git_sha'][:12]}"))


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if "bench" in argv:
        # Dispatch to the bench sub-parser wherever the subcommand
        # sits, so leading global flags (`--seed 42 bench`) work; the
        # experiment parser has no string-valued options, so a bare
        # `bench` token can only be the subcommand.
        split = argv.index("bench")
        return _run_bench(argv[:split] + argv[split + 1:])
    if "pipeline" in argv:
        split = argv.index("pipeline")
        return _run_pipeline_cmd(argv[:split] + argv[split + 1:])
    if "sample" in argv:
        split = argv.index("sample")
        return _run_sample_cmd(argv[:split] + argv[split + 1:])
    if "pcp-load" in argv:
        split = argv.index("pcp-load")
        return _run_pcp_load(argv[:split] + argv[split + 1:])
    args = build_parser().parse_args(argv)
    if args.list:
        for exp in all_experiments():
            ref = f" ({exp.paper_ref})" if exp.paper_ref else ""
            print(f"{exp.experiment_id:8s} {exp.title}{ref}")
        print("pcp-load    Asyncio fabric load harness with fault "
              "injection (pcp-load --help)")
        print("bench       Parallel benchmark suite with regression "
              "baselines (bench --help)")
        print("pipeline    Segment-pipelined exact engine runner "
              "(pipeline --help)")
        print("sample      SPE/PEBS-style sampling profiler with "
              "accuracy report (sample --help)")
        return 0
    if args.check_golden:
        directory, *ids = args.check_golden
        if args.experiment:
            ids.insert(0, args.experiment)
        return _check_golden(directory, ids)
    render = _result_to_json if args.json else (lambda r: r.render())
    if args.all:
        for exp in all_experiments():
            result = run_experiment(exp.experiment_id, seed=args.seed)
            print(render(result))
            print()
        return 0
    if not args.experiment:
        build_parser().print_help()
        return 2
    result = run_experiment(args.experiment, seed=args.seed)
    print(render(result))
    if args.plot:
        _render_plots(result)
    return 0


def _render_plots(result) -> None:
    from .measure.figures import plot_ratio_sweep

    spec = result.extras.get("plot")
    if not spec:
        print("\n(no plottable sweep in this experiment)")
        return
    for panel, rows in spec["panels"].items():
        print()
        print(plot_ratio_sweep(rows, n_col=spec["n_col"],
                               ratio_cols=spec["ratio_cols"],
                               title=f"{result.experiment_id} {panel}",
                               width=64, height=16))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
