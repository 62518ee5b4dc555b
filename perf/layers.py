"""Per-layer ledger: what the traced run wraps, and the per-layer
metrics computed from its spans and from the counters the program
already exposes.

Spans come from traced repetitions; counters and workload-level
figures come from the untraced repetitions of the same run, so
tracing cannot distort them. Times are per repetition unless the name
says otherwise (``_us`` metrics are means per call). A metric whose
wrapped callable or counter no longer exists is ``None`` ("missing").
"""

from __future__ import annotations

import collections
import statistics
from typing import Dict, Iterable, List, Optional

from .spans import Span, Target, covered_ns, self_times
from .workloads import EXPERIMENT_IDS, RepResult, percentile


def _access_batch_name(args, kwargs) -> str:
    bypass = args[4] if len(args) > 4 else kwargs.get("bypass")
    return "cache.bypass" if bypass is not None else "cache.access_batch"


def _handle_name(args, kwargs) -> str:
    request = args[1] if len(args) > 1 else kwargs.get("request")
    return "pmcd.handle." + type(request).__name__


def _experiment_name(args, kwargs) -> str:
    return "experiments." + (args[0] if args
                             else kwargs.get("experiment_id", "?"))


_PAPI_READS = ("start", "read", "stop", "accum", "reset")

#: Public callables wrapped in a traced repetition.
TARGETS = (
    Target("repro.kernels.blas", "Gemm.segments", "kernels.segments"),
    Target("repro.kernels.stream", "StreamKernel.segments",
           "kernels.segments"),
    Target("repro.machine.cache", "expand_to_sectors", "cache.expand"),
    Target("repro.machine.cache", "CacheSim.access_batch", "cache.bypass",
           _access_batch_name),
    Target("repro.machine.cache", "CacheSim.access_batch_probed",
           "cache.probed"),
    Target("repro.engine.pipeline", "PipelinedExactEngine.run_many",
           "pipeline.run_many"),
    Target("repro.papi.sampling", "SamplingObserver.observe_kernel",
           "sampling.observe_kernel"),
    Target("repro.papi.sampling", "SamplingObserver.observe",
           "sampling.observe"),
    Target("repro.pcp.protocol", "encode_request", "protocol.encode"),
    Target("repro.pcp.protocol", "encode_response", "protocol.encode"),
    Target("repro.pcp.protocol", "decode_request", "protocol.decode"),
    Target("repro.pcp.protocol", "decode_response", "protocol.decode"),
    Target("repro.pcp.pmcd", "PMCD.handle", "pmcd.handle", _handle_name),
    Target("repro.pcp.pmda", "PerfeventPMDA.fetch", "pmcd.pmda_fetch"),
    Target("repro.pcp.session", "AsyncPcpSession.fetch", "session.fetch"),
    Target("repro.pcp.session", "AsyncPcpSession.fetch_archive",
           "session.fetch_archive"),
    Target("repro.pcp.session", "SessionLogger.run", "session.log"),
    Target("repro.pcp.archive", "MetricArchive.append", "archive.append"),
    Target("repro.pcp.archive", "MetricArchive.records", "archive.replay"),
    Target("repro.pcp.archive", "MetricArchive.close", "archive.close"),
    *(Target("repro.papi.eventset", f"EventSet.{method}", "papi.read")
      for method in _PAPI_READS),
    Target("repro.measure.session", "MeasurementSession.measure_kernel",
           "measure.measure_kernel"),
    Target("repro.experiments.registry", "run_experiment", "experiments",
           _experiment_name),
)


def _mean(key):
    return (key,), lambda rows: statistics.fmean(r[key] for r in rows)


def _median(key):
    return (key,), lambda rows: statistics.median(r[key] for r in rows)


def _max(key):
    return (key,), lambda rows: float(max(r[key] for r in rows))


def _ratio(num, *den):
    def ratio(rows):
        bottom = sum(r[d] for r in rows for d in den)
        return sum(r[num] for r in rows) / bottom if bottom else 0.0
    return (num,) + den, ratio


_ENGINES = ("engines",)
_PCP = ("pcp-mediated",)
#: Metrics read from the counters the program exposes and from the
#: workload-level figures in ``RepResult.extras`` of untraced
#: repetitions: name -> ((keys, aggregate), workloads that report it).
#: Elsewhere the layer is idle and reads 0.
COUNTER_METRICS = {
    "cache.miss_ratio": (_ratio("cache.misses", "cache.hits", "cache.misses"),
                         _ENGINES),
    "pipeline.producer_s": (_mean("pipeline.producer_s"), _ENGINES),
    "pipeline.producer_stall_s": (_mean("pipeline.producer_stall_s"),
                                  _ENGINES),
    "pipeline.worker_busy_s": (_mean("pipeline.worker_busy_s"), _ENGINES),
    "pipeline.utilization": (_mean("pipeline.utilization"), _ENGINES),
    "pipeline.mean_queue_depth": (_mean("pipeline.mean_queue_depth"),
                                  _ENGINES),
    "pipeline.segments": (_mean("pipeline.segments"), _ENGINES),
    "sampling.samples": (_mean("sampling.samples"), _ENGINES),
    "sampling.records_dropped": (_mean("sampling.records_dropped"),
                                 _ENGINES),
    "sample_rel_error": (_median("sample_rel_error"), _ENGINES),
    "pmcd.pmda_calls_per_fetch": (
        _ratio("pmcd.pmda_fetch_calls", "pmcd.fetches"), _PCP),
    "aserver.coalesced_frac": (
        _ratio("aserver.coalesced", "aserver.requests"), _PCP),
    "aserver.max_queue_depth": (_max("aserver.max_queue_depth"), _PCP),
    "fetch_per_s": (_median("fetch_per_s"), _PCP),
    "fetch_p50_us": (_median("fetch_p50_us"), _PCP),
    "fetch_p90_us": (_median("fetch_p90_us"), _PCP),
    "archive_log_per_s": (_median("archive_log_per_s"), _PCP),
    "archive_replay_per_s": (_median("archive_replay_per_s"), _PCP),
}


def layer_metrics(workload: str, traced: List[RepResult],
                  untraced: List[RepResult], spans: Iterable[Span],
                  counts: Dict[str, int], setup_extras: Dict[str, float],
                  missing: Iterable[str],
                  span_cost_ns: float = 0.0) -> Dict[str, Optional[float]]:
    """Every per-layer metric for one trace run (``None`` = missing).
    ``span_cost_ns`` is the measured cost of one wrapped call."""
    spans = list(spans)
    missing = set(missing)
    n_traced = max(1, len(traced))
    selfs = self_times(spans)
    by_name: Dict[str, List[Span]] = collections.defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def total_s(name: str) -> float:
        return sum(s.end - s.start for s in by_name[name]) / 1e9 / n_traced

    def mean_us(name: str, own: bool = False) -> float:
        group = by_name[name]
        if not group:
            return 0.0
        return sum(selfs[s.id] if own else s.end - s.start
                   for s in group) / len(group) / 1e3

    out: Dict[str, Optional[float]] = {}
    seg_s = total_s("kernels.segments")
    out["kernels.segments_s"] = seg_s
    out["kernels.mrows_per_s"] = (
        counts.get("kernels.segments.rows", 0) / n_traced / seg_s / 1e6
        if seg_s else 0.0)
    out["cache.expand_s"] = total_s("cache.expand")
    out["cache.bypass_s"] = total_s("cache.bypass")
    out["cache.probed_s"] = total_s("cache.probed")
    out["pipeline.pool_start_s"] = setup_extras.get(
        "pool_start_s", None if workload in _ENGINES else 0.0)
    out["sampling.observe_s"] = total_s("sampling.observe_kernel")
    out["sampling.bookkeeping_s"] = sum(
        selfs[s.id] for s in by_name["sampling.observe"]) / 1e9 / n_traced
    out["protocol.encode_us"] = mean_us("protocol.encode")
    out["protocol.decode_us"] = mean_us("protocol.decode")
    out["pmcd.handle_us"] = mean_us("pmcd.handle.FetchRequest")
    out["pmcd.pmda_fetch_us"] = mean_us("pmcd.pmda_fetch")
    out["session.fetch_us"] = mean_us("session.fetch", own=True)
    fetch_selfs = [selfs[s.id] / 1e3 for s in by_name["session.fetch"]]
    out["session.fetch_p99_us"] = (percentile(fetch_selfs, 0.99)
                                   if fetch_selfs else 0.0)
    out["session.fetch_spans"] = float(len(fetch_selfs))
    out["archive.append_us"] = mean_us("archive.append")
    out["archive.replay_us"] = mean_us("archive.replay")
    out["papi.read_us"] = mean_us("papi.read")
    out["papi.reads"] = len(by_name["papi.read"]) / n_traced
    out["measure.measure_kernel_s"] = total_s("measure.measure_kernel")
    for experiment_id in EXPERIMENT_IDS:
        out[f"experiments.{experiment_id}_s"] = total_s(
            f"experiments.{experiment_id}")

    # Names fed by each span label, for "missing" marking.
    span_metrics = {
        "kernels.segments": ("kernels.segments_s", "kernels.mrows_per_s"),
        "cache.expand": ("cache.expand_s",),
        "cache.bypass": ("cache.bypass_s",),
        "cache.probed": ("cache.probed_s",),
        "sampling.observe_kernel": ("sampling.observe_s",),
        "sampling.observe": ("sampling.bookkeeping_s",),
        "protocol.encode": ("protocol.encode_us",),
        "protocol.decode": ("protocol.decode_us",),
        "pmcd.handle": ("pmcd.handle_us",),
        "pmcd.pmda_fetch": ("pmcd.pmda_fetch_us",),
        "session.fetch": ("session.fetch_us", "session.fetch_p99_us",
                          "session.fetch_spans"),
        "archive.append": ("archive.append_us",),
        "archive.replay": ("archive.replay_us",),
        "papi.read": ("papi.read_us", "papi.reads"),
        "measure.measure_kernel": ("measure.measure_kernel_s",),
        "experiments": tuple(f"experiments.{e}_s" for e in EXPERIMENT_IDS),
    }
    for label in missing:
        for name in span_metrics.get(label, ()):
            out[name] = None

    rows = [r.extras for r in untraced]
    for name, ((keys, aggregate), sources) in COUNTER_METRICS.items():
        usable = [row for row in rows if all(k in row for k in keys)]
        out[name] = (aggregate(usable) if usable
                     else None if workload in sources else 0.0)

    # The raw walls behind the gated ``wall_rel``, and the reference
    # loop's wall it divides them by.
    for name, value in (("wall_s", lambda r: r.wall_s),
                        ("ops_per_s", lambda r: r.ops_per_s),
                        ("host.ref_s", lambda r: r.ref_s)):
        out[name] = (statistics.median(value(r) for r in untraced)
                     if untraced else None)

    # The benchmark's own ledger: tracing overhead and the share of
    # traced wall no top-level span covers. Repetitions alternate
    # untraced/traced, so each traced one is compared with the untraced
    # one just before it, both relative to their reference loops; the
    # host's drift cancels in the pair.
    pairs = [t.wall_rel / u.wall_rel for u, t in zip(untraced, traced)]
    out["trace.overhead"] = (statistics.median(pairs) - 1.0 if pairs
                             else None)
    # The same overhead estimated from span count × wrapper cost: free
    # of the host's run-to-run noise, which the measured ratio is not.
    out["trace.span_cost_frac"] = (
        len(spans) / n_traced * span_cost_ns / 1e9
        / statistics.median(r.wall_s for r in untraced)
        if untraced else None)
    roots: Dict[int, list] = collections.defaultdict(list)
    for span in spans:
        if span.parent is None:
            roots[span.run].append((span.start, span.end))
    wall = sum(r.t1 - r.t0 for r in traced)
    covered = sum(covered_ns(roots[run], r.t0, r.t1)
                  for run, r in enumerate(traced))
    out["trace.unattributed_frac"] = 1.0 - covered / wall if wall else None
    return out
