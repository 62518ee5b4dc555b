"""The benchmark's three workloads.

A workload turns a seed into inputs (:func:`make_inputs`); the program
sees only those inputs. :meth:`Workload.setup` builds what a user
builds before the first result (engine and worker pool, daemon and
sessions, imports); :meth:`Workload.rep` then runs one repetition of
fixed work and checks its outputs after the timed region. The seed
only permutes or picks among inputs of equal cost, so runs with
different seeds measure the same amount of work.

The layer modules are imported inside ``setup`` so that import time
is part of set-up and ``python -m perf compare`` runs without them.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import os
import random
import shutil
import sys
import time
import traceback
from typing import Dict, List, Optional

DEFAULT_SEED = 20230613

#: GEMM sizes of ``engines``; their three matrices fit the 2 MiB
#: cache, so traffic has the paper's closed form (3·N²·8 bytes read,
#: N²·8 written).
RESIDENT_GEMM_SIZES = (128, 160, 192)
#: STREAM ops by number of source arrays.
STREAM_OPS = {"copy": 1, "scale": 1, "add": 2, "triad": 2}
#: The seed picks one of these two-source ops of equal cost.
SPILL_STREAM_OPS = ("add", "triad")
#: STREAM array length of ``engines``: 4 MiB per array, twice the
#: cache, so every access misses and stores bypass into the WCB.
SPILL_STREAM_N = 1 << 19
EXACT_CACHE_BYTES = 2 << 20

#: The sampled GEMM of ``engines``: B (74 KB) exceeds the 64 KiB
#: cache, so the replay takes the miss path. Exact traffic was frozen
#: from the exact engine (checked by a self-test).
SAMPLE_GEMM_N = 96
SAMPLE_CACHE_BYTES = 64 << 10
SAMPLE_PERIOD = 128
SAMPLE_REFERENCE = {"read_bytes": 7225344, "write_bytes": 73728}
#: Relative error above which an observer run counts as failed. Over
#: 40 seeds the error had an RMS of 0.021 and a maximum of 0.041, so
#: the limit sits near five RMS out: a breach is a defect, not bad
#: luck.
SAMPLE_MAX_REL_ERROR = 0.10

#: Experiments registered at the benchmark's first commit. The list is
#: fixed so a later experiment does not change the work measured.
EXPERIMENT_IDS = (
    "ext-gridshape", "ext-power10", "ext-spmv", "fig10", "fig11",
    "fig12", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
    "fig9", "table1", "table2")
#: SHA-256 of the canonical JSON of ``tests/golden/fig{2..5}.json``.
GOLDEN_SHA256 = {
    "fig2": "0d19c642a90e01e750f338280d4450097e856ea596ff38b6012754d459a03343",
    "fig3": "311d1e791948952831c8fb93e1576b4d4378709dc2eed82f4ebb7754046eb170",
    "fig4": "e5c6d2ba1171f6838d0623d4daa2341ffad238c712997e8b405729e5213b18bd",
    "fig5": "4812e85a7c26351b5c1adf794fc508852d6667dedde19923176b7b4b99222e40",
}

#: PCP nest metrics per Summit socket: 8 memory channels × read/write.
NEST_METRICS = 16


def _gemm(n: int) -> dict:
    return {"kind": "gemm", "n": n, "rows": (2 * n + 1) * n * n,
            "read_bytes": 3 * n * n * 8, "write_bytes": n * n * 8}


def _stream(op: str, n: int) -> dict:
    sources = STREAM_OPS[op]
    return {"kind": "stream", "op": op, "n": n, "rows": (sources + 1) * n,
            "read_bytes": sources * n * 8, "write_bytes": n * 8}


def make_inputs(name: str, seed: int) -> dict:
    """The inputs of workload ``name`` for ``seed`` (JSON-serialisable;
    reference outputs included)."""
    rng = random.Random(f"{name}:{seed}")
    if name == "engines":
        kernels = ([_gemm(n) for n in RESIDENT_GEMM_SIZES]
                   + [_stream(rng.choice(SPILL_STREAM_OPS), SPILL_STREAM_N)])
        rng.shuffle(kernels)
        return {"cache_bytes": EXACT_CACHE_BYTES, "kernels": kernels,
                "sample": {"n": SAMPLE_GEMM_N,
                           "cache_bytes": SAMPLE_CACHE_BYTES,
                           "period": SAMPLE_PERIOD, "sampler_seed": seed,
                           "rows": _gemm(SAMPLE_GEMM_N)["rows"],
                           "reference": dict(SAMPLE_REFERENCE),
                           "max_rel_error": SAMPLE_MAX_REL_ERROR}}
    if name == "pcp-mediated":
        return {"machine": "summit", "node_seed": seed,
                "metric_items": rng.sample(range(NEST_METRICS), 4),
                "contexts": 2, "fetches_per_context": 3000,
                "log_records": 2000, "replay_window": 100}
    if name == "paper-figures":
        order = list(EXPERIMENT_IDS)
        rng.shuffle(order)
        return {"order": order, "golden_sha256": dict(GOLDEN_SHA256)}
    raise KeyError(f"unknown workload {name!r}; "
                   f"choose from {sorted(WORKLOADS)}")


@dataclasses.dataclass
class RepResult:
    """One repetition: timed region ``[t0, t1]`` (``perf_counter_ns``),
    its unit operations and the checks made on its outputs."""

    t0: int
    t1: int
    ops: int
    attempted: int
    failed: int
    #: Wall over which ``ops`` were done, when narrower than the rep.
    ops_wall_s: Optional[float] = None
    #: Workload-level figures and layer counters of this rep.
    extras: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Wall of the runner's reference loop, timed just before this rep.
    ref_s: Optional[float] = None

    @property
    def wall_s(self) -> float:
        return (self.t1 - self.t0) / 1e9

    @property
    def wall_rel(self) -> float:
        """The rep's wall in multiples of the reference loop's."""
        return self.wall_s / self.ref_s

    @property
    def ops_per_s(self) -> float:
        return self.ops / (self.ops_wall_s or self.wall_s)


class Workload:
    """Base class: ``setup`` once, ``rep`` many times, ``close``."""

    name = ""
    #: What ``ops_per_s`` counts.
    op = ""

    def __init__(self, inputs: dict, workdir: str):
        self.inputs = inputs
        self.workdir = workdir
        #: Set-up figures the per-layer ledger reports.
        self.setup_extras: Dict[str, float] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def rep(self) -> RepResult:
        raise NotImplementedError

    def close(self) -> None:
        pass


class Engines(Workload):
    """The two trace-driven engines, one after the other.

    A persistent ``PipelinedExactEngine`` (default worker pool) runs
    ``run_many`` over the input kernels: GEMMs that fit the cache take
    the hit path, a STREAM op on arrays twice its size the miss path
    and the producer's WCB bypass. Then a ``SamplingObserver`` replays one
    GEMM that spills a small cache, in this process. Each kernel's
    traffic is checked against its closed form, the observer's exact
    traffic against the frozen reference and its error against a
    limit.
    """

    name = "engines"
    op = "input access"

    def setup(self) -> None:
        from repro.engine.pipeline import PipelinedExactEngine
        from repro.kernels.blas import Gemm
        from repro.kernels.stream import StreamKernel
        from repro.machine.config import CacheConfig
        from repro.papi.sampling import SamplingConfig, SamplingObserver

        self.engine = PipelinedExactEngine(
            CacheConfig(capacity_bytes=self.inputs["cache_bytes"]))
        start = time.perf_counter()
        self.engine.run_many([Gemm(8)])  # spawns the worker pool
        self.setup_extras["pool_start_s"] = time.perf_counter() - start
        self.kernels = [Gemm(k["n"]) if k["kind"] == "gemm"
                        else StreamKernel(k["op"], k["n"])
                        for k in self.inputs["kernels"]]
        sample = self.inputs["sample"]
        self._observer_cls = SamplingObserver
        self._config_cls = SamplingConfig
        self.sample_cache = CacheConfig(capacity_bytes=sample["cache_bytes"])
        self.sample_kernel = Gemm(sample["n"])

    def rep(self) -> RepResult:
        refs = self.inputs["kernels"]
        sample = self.inputs["sample"]
        t0 = time.perf_counter_ns()
        results = self.engine.run_many(self.kernels)
        observer = self._observer_cls(
            self.sample_cache, self.sample_kernel.streams(),
            self._config_cls(period=sample["period"],
                             seed=sample["sampler_seed"]))
        observer.observe_kernel(self.sample_kernel)
        t1 = time.perf_counter_ns()

        failed = sum(
            1 for got, ref in zip(results, refs)
            if (got.read_bytes, got.write_bytes)
            != (ref["read_bytes"], ref["write_bytes"]))
        failed += abs(len(results) - len(refs))
        exact = observer.exact_traffic()
        error = observer.relative_errors()["total"]
        failed += int((exact.read_bytes, exact.write_bytes)
                      != (sample["reference"]["read_bytes"],
                          sample["reference"]["write_bytes"])
                      or not error <= sample["max_rel_error"])

        extras = {"sample_rel_error": error}
        stats = getattr(self.engine, "last_pipeline_stats", None) or {}
        for key in ("producer_s", "producer_stall_s", "utilization",
                    "mean_queue_depth", "segments"):
            if key in stats:
                extras["pipeline." + key] = float(stats[key])
        if "worker_busy_s" in stats:
            extras["pipeline.worker_busy_s"] = float(
                sum(stats["worker_busy_s"]))
        # Hits and misses of the exact engine and the observer's replay.
        hits = getattr(self.engine, "last_stats", None) or {}
        sim = getattr(observer, "sim", None)
        if ("hits" in hits and "misses" in hits
                and hasattr(sim, "stats_hits")
                and hasattr(sim, "stats_misses")):
            extras["cache.hits"] = hits["hits"] + sim.stats_hits
            extras["cache.misses"] = hits["misses"] + sim.stats_misses
        overhead = (observer.overhead() if hasattr(observer, "overhead")
                    else {})
        for key in ("samples", "records_dropped"):
            if key in overhead:
                extras["sampling." + key] = overhead[key]
        return RepResult(t0, t1,
                         ops=sum(k["rows"] for k in refs) + sample["rows"],
                         attempted=len(refs) + 1, failed=failed,
                         extras=extras)

    def close(self) -> None:
        self.engine.close()


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (0..1) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1,
                       max(0, int(q * len(ordered) + 0.5) - 1))]


class PcpMediated(Workload):
    """Closed loop over TCP, then archive logging and replay.

    One event loop hosts the ``AsyncPMCDServer`` and the client
    contexts. Each context keeps one fetch in flight (closed loop), so
    a slower fabric receives less load instead of queueing it.
    """

    name = "pcp-mediated"
    op = "fetch"

    def setup(self) -> None:
        from repro.machine.config import get_machine
        from repro.machine.node import Node
        from repro.noise import QUIET
        from repro.pcp import (
            AsyncPMCDServer,
            MetricArchive,
            connect,
            start_pmcd_for_node,
        )
        from repro.errors import PCPError
        from repro.pmu.events import pcp_metric_name

        inp = self.inputs
        self._archive_cls = MetricArchive
        self._fetch_errors = (PCPError, OSError)
        self.node = Node(get_machine(inp["machine"]), seed=inp["node_seed"],
                         noise=QUIET)
        self.pmcd = start_pmcd_for_node(self.node, round_trip_seconds=0.0)
        self.metrics = [pcp_metric_name(i // 2, bool(i % 2))
                        for i in inp["metric_items"]]
        self.server = AsyncPMCDServer(self.pmcd)
        self.loop = asyncio.new_event_loop()
        self.sessions = []
        self.loop.run_until_complete(self._start(connect))
        self.log_session = connect(self.pmcd, node=self.node)
        self._reps = 0

    async def _start(self, connect) -> None:
        await self.server.start()
        for _ in range(self.inputs["contexts"]):
            session = connect(self.server.address, mode="async")
            self.sessions.append(session)
            await session.open()
        self.pmids = tuple(await self.sessions[0].lookup_names(self.metrics))
        first = await self.sessions[0].fetch(self.pmids)
        self.instances = {pmid: set(values) for pmid, values in first.items()}

    def _stats(self) -> Dict[str, float]:
        out = {}
        for prefix, source in (("pmcd", self.pmcd), ("aserver", self.server)):
            stats = getattr(source, "stats", None)
            if stats is not None and hasattr(stats, "snapshot"):
                out.update({f"{prefix}.{k}": v
                            for k, v in stats.snapshot().items()})
        return out

    async def _fetch_loop(self, session, latencies: List[float]) -> int:
        bad = 0
        expected = set(self.pmids)
        for _ in range(self.inputs["fetches_per_context"]):
            start = time.perf_counter()
            try:
                values = await session.fetch(self.pmids)
            except self._fetch_errors:
                bad += 1
                continue
            latencies.append(time.perf_counter() - start)
            if (set(values) != expected
                    or any(set(values[p]) != self.instances[p]
                           for p in expected)):
                bad += 1  # cross-wired or malformed response
        return bad

    async def _replay(self, timestamps: List[float]):
        records, bad = [], 0
        window = self.inputs["replay_window"]
        for lo in range(0, len(timestamps), window):
            hi = min(lo + window, len(timestamps)) - 1
            try:
                records += await self.sessions[0].fetch_archive(
                    self.metrics, t0=timestamps[lo], t1=timestamps[hi])
            except self._fetch_errors:
                bad += 1
        return records, bad

    def rep(self) -> RepResult:
        return self.loop.run_until_complete(self._rep())

    async def _rep(self) -> RepResult:
        inp = self.inputs
        path = os.path.join(self.workdir, f"archive-{self._reps}")
        self._reps += 1
        latencies: List[float] = []
        fetches = inp["contexts"] * inp["fetches_per_context"]
        before = self._stats()
        t0 = time.perf_counter_ns()
        bad = sum(await asyncio.gather(*(
            self._fetch_loop(session, latencies)
            for session in self.sessions)))
        t_fetch = time.perf_counter_ns()
        after = self._stats()
        archive = self._archive_cls.create(path)
        logger = self.log_session.log(self.metrics, interval_seconds=1.0,
                                      store=archive)
        logger.run(inp["log_records"])
        archive.close()
        t_log = time.perf_counter_ns()
        self.pmcd.attach_archive(archive)
        logged = list(logger.archive)
        replayed, bad_windows = await self._replay(
            [record.timestamp for record in logged])
        t1 = time.perf_counter_ns()
        shutil.rmtree(path, ignore_errors=True)

        mismatched = sum(1 for got, want in zip(replayed, logged)
                         if got != want)
        mismatched += abs(len(replayed) - len(logged))
        windows = -(-len(logged) // inp["replay_window"])
        extras = {
            "fetches_ok": len(latencies),
            "fetch_p50_us": percentile(latencies or [0.0], 0.50) * 1e6,
            "fetch_p90_us": percentile(latencies or [0.0], 0.90) * 1e6,
            "fetch_p99_us": percentile(latencies or [0.0], 0.99) * 1e6,
            "fetch_per_s": fetches / ((t_fetch - t0) / 1e9),
            "archive_log_per_s": len(logged) / ((t_log - t_fetch) / 1e9),
            "archive_replay_per_s": len(replayed) / ((t1 - t_log) / 1e9),
        }
        for key in ("pmcd.fetches", "pmcd.pmda_fetch_calls",
                    "aserver.requests", "aserver.coalesced"):
            if key in before and key in after:
                extras[key] = after[key] - before[key]
        if "aserver.max_queue_depth" in after:
            extras["aserver.max_queue_depth"] = after[
                "aserver.max_queue_depth"]
        return RepResult(
            t0, t1, ops=fetches, ops_wall_s=(t_fetch - t0) / 1e9,
            attempted=fetches + len(logged) + windows,
            failed=bad + mismatched + bad_windows, extras=extras)

    def close(self) -> None:
        async def stop() -> None:
            for session in self.sessions:
                await session.close()
            await self.server.stop()

        try:
            self.loop.run_until_complete(stop())
        finally:
            self.loop.close()


def result_sha256(result) -> str:
    """SHA-256 of an experiment result in the golden-fixture layout."""
    def plain(cell):
        if isinstance(cell, (int, float, str, bool)) or cell is None:
            return cell
        return str(cell)

    payload = {"experiment_id": result.experiment_id,
               "title": result.title,
               "headers": list(result.headers),
               "rows": [[plain(c) for c in row] for row in result.rows]}
    return hashlib.sha256(json.dumps(
        payload, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


class PaperFigures(Workload):
    name = "paper-figures"
    op = "experiment"

    def setup(self) -> None:
        import repro.experiments

        self.experiments = repro.experiments

    def rep(self) -> RepResult:
        order = self.inputs["order"]
        results = {}
        failed = 0
        t0 = time.perf_counter_ns()
        for experiment_id in order:
            try:
                results[experiment_id] = self.experiments.run_experiment(
                    experiment_id)
            except Exception:  # one broken experiment must not stop the pass
                traceback.print_exc(file=sys.stderr)
                failed += 1
        t1 = time.perf_counter_ns()
        for experiment_id, digest in self.inputs["golden_sha256"].items():
            result = results.get(experiment_id)
            if result is not None and result_sha256(result) != digest:
                failed += 1
        return RepResult(t0, t1, ops=len(order), attempted=len(order),
                         failed=failed)


WORKLOADS = {cls.name: cls for cls in (Engines, PcpMediated, PaperFigures)}

