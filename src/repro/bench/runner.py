"""Parallel benchmark execution with timeouts and crash isolation.

Benchmarks run in worker processes from a
:class:`~concurrent.futures.ProcessPoolExecutor` (spawn start
method, one task per worker where the interpreter supports it, so a
worker's ``ru_maxrss`` high-water mark is that benchmark's peak
RSS). The orchestrating loop enforces a *per-benchmark* deadline
measured from the moment the worker actually picks the benchmark up
(workers stamp a start time into a shared dict), so queueing delay
never counts against a benchmark.

Failure containment:

* an exception inside a benchmark is caught in the worker and comes
  back as a ``status="error"`` record;
* a benchmark overrunning its deadline is recorded as
  ``status="timeout"`` and its hung worker is killed on the spot, so
  a stuck benchmark can never pin a worker slot for the rest of the
  run (hung workers filling the pool would otherwise starve queued
  benchmarks forever). Killing a worker breaks the whole
  ``ProcessPoolExecutor``, so the runner rebuilds the pool and
  resubmits every other in-flight or queued benchmark — the
  innocents restart with a fresh deadline rather than being blamed
  for the teardown;
* a worker that dies outright (``os._exit``, segfault, OOM kill)
  breaks the pool; the runner marks the benchmarks that were running
  at that moment ``status="crashed"``, rebuilds the pool, and
  resubmits the benchmarks that had not started yet.

Nothing a benchmark does can abort the run as a whole.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import sys
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Callable, Dict, List, Optional

from ..errors import ConfigurationError
from .registry import (
    DEFAULT_SEED,
    BenchContext,
    BenchmarkSpec,
    get_benchmark,
    load_script,
)

#: Poll interval of the orchestration loop (seconds).
_POLL_SECONDS = 0.1


@dataclasses.dataclass(frozen=True)
class RunnerConfig:
    """Knobs for one parallel benchmark run."""

    max_workers: Optional[int] = None
    timeout_s: float = 120.0
    seed: int = DEFAULT_SEED
    #: When set, each worker runs its benchmark under :mod:`cProfile`
    #: and dumps ``<name>.prof`` into this directory (loadable with
    #: ``python -m pstats`` or snakeviz).
    profile_dir: Optional[str] = None

    def resolved_workers(self, n_benchmarks: int) -> int:
        if self.max_workers is not None:
            return max(1, self.max_workers)
        cores = os.cpu_count() or 2
        return max(1, min(8, cores, n_benchmarks))


def _worker_run(source, name, seed, started, profile_dir=None):
    """Worker-side entry: import the script, run one benchmark.

    Returns a complete result record; ordinary benchmark failures are
    folded into the record rather than raised, so only a dying worker
    process surfaces as an executor error. With ``profile_dir`` the
    benchmark body runs under :mod:`cProfile` and the stats are
    dumped to ``<profile_dir>/<name>.prof`` (the profiler's overhead
    is inside the recorded ``wall_s``, so profiled wall times must
    not be compared against unprofiled baselines).
    """
    started[name] = (os.getpid(), time.monotonic())
    record = {
        "name": name,
        "tags": [],
        "status": "error",
        "wall_s": None,
        "peak_rss_kb": None,
        "metrics": {},
        "profile": None,
        "error": None,
    }
    try:
        load_script(Path(source))
        spec = get_benchmark(name)
        record["tags"] = list(spec.tags)
        cpu0 = _cpu_seconds()
        begun = time.perf_counter()
        if profile_dir is not None:
            import cProfile

            profiler = cProfile.Profile()
            profiler.enable()
            try:
                metrics = spec.run(BenchContext(seed))
            finally:
                profiler.disable()
                prof_path = Path(profile_dir) / f"{name}.prof"
                prof_path.parent.mkdir(parents=True, exist_ok=True)
                profiler.dump_stats(str(prof_path))
                record["profile"] = str(prof_path)
        else:
            metrics = spec.run(BenchContext(seed))
        wall = time.perf_counter() - begun
        cpu1 = _cpu_seconds()
        record["wall_s"] = wall
        if cpu0 is not None and cpu1 is not None and wall > 0:
            # CPU seconds burned per wall second, counting reaped
            # children (a pipelined benchmark's workers do their CPU
            # work in child processes). > 1.0 means real parallelism;
            # informational only, never gated.
            metrics = dict(metrics)
            metrics["info_cpu_util"] = round((cpu1 - cpu0) / wall, 4)
        record["metrics"] = metrics
        record["status"] = "ok"
    except Exception:
        record["error"] = traceback.format_exc(limit=20)
    record["peak_rss_kb"] = _peak_rss_kb()
    return record


def _cpu_seconds() -> Optional[float]:
    """User+system CPU seconds of this process and reaped children."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime
            + kids.ru_utime + kids.ru_stime)


def _peak_rss_kb() -> Optional[int]:
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - bytes there
        rss //= 1024
    return int(rss)


def _failure_record(spec: BenchmarkSpec, status: str, error: str):
    return {
        "name": spec.name,
        "tags": list(spec.tags),
        "status": status,
        "wall_s": None,
        "peak_rss_kb": None,
        "metrics": {},
        "error": error,
    }


def _make_pool(ctx, workers: int) -> ProcessPoolExecutor:
    kwargs = {"max_workers": workers, "mp_context": ctx}
    if sys.version_info >= (3, 11):
        # Fresh interpreter per benchmark: per-benchmark peak RSS and
        # no state bleed between figure scripts.
        kwargs["max_tasks_per_child"] = 1
    return ProcessPoolExecutor(**kwargs)


def _force_shutdown(pool: ProcessPoolExecutor) -> None:
    """Shut down without waiting; reap stragglers (hung workers)."""
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - defensive
        pass
    procs_map = getattr(pool, "_processes", None)
    procs = list(procs_map.values()) if isinstance(procs_map, dict) else []
    for proc in procs:
        try:
            if proc.is_alive():
                proc.terminate()
        except Exception:  # pragma: no cover - defensive
            pass
    for proc in procs:
        try:
            proc.join(timeout=1.0)
            if proc.is_alive():
                proc.kill()
        except Exception:  # pragma: no cover - defensive
            pass


def run_benchmarks(
    specs: List[BenchmarkSpec],
    config: Optional[RunnerConfig] = None,
    progress: Optional[Callable[[dict], None]] = None,
) -> List[dict]:
    """Run every spec in parallel workers; return result records.

    ``progress`` (if given) is called with each record as it lands.
    The returned list is sorted by benchmark name and contains
    exactly one record per input spec, whatever happened to it.
    """
    config = config or RunnerConfig()
    if not specs:
        raise ConfigurationError("no benchmarks to run")
    for spec in specs:
        if not spec.source:
            raise ConfigurationError(
                f"benchmark {spec.name!r} has no source file; "
                f"parallel workers re-import benchmarks from disk"
            )
    workers = config.resolved_workers(len(specs))
    ctx = multiprocessing.get_context("spawn")
    manager = ctx.Manager()
    records: Dict[str, dict] = {}

    def emit(record: dict) -> None:
        records[record["name"]] = record
        if progress is not None:
            progress(record)

    try:
        started = manager.dict()
        pool = _make_pool(ctx, workers)
        rebuilds = 0
        killed_pids: set = set()
        pending: Dict[object, BenchmarkSpec] = {}

        def submit(spec: BenchmarkSpec) -> None:
            future = pool.submit(
                _worker_run,
                str(spec.source),
                spec.name,
                config.seed,
                started,
                config.profile_dir,
            )
            pending[future] = spec

        for spec in specs:
            submit(spec)
        while pending:
            done, _ = futures_wait(
                set(pending),
                timeout=_POLL_SECONDS,
                return_when=FIRST_COMPLETED,
            )
            broken = False
            stranded: List[BenchmarkSpec] = []
            for future in done:
                spec = pending.pop(future)
                try:
                    emit(future.result())
                except BrokenProcessPool:
                    broken = True
                    stranded.append(spec)
                except Exception as exc:
                    emit(
                        _failure_record(
                            spec,
                            "error",
                            f"{type(exc).__name__}: {exc}",
                        )
                    )
            if broken:
                stranded.extend(pending.values())
                if killed_pids:
                    # We broke the pool ourselves terminating a hung
                    # worker; the other benchmarks it stranded are
                    # innocent — restart them with fresh deadlines.
                    survivors = list(stranded)
                    for spec in survivors:
                        started.pop(spec.name, None)
                else:
                    rebuilds += 1
                    survivors = _split_crash_victims(stranded, started, emit)
                killed_pids.clear()
                pending.clear()
                _force_shutdown(pool)
                if rebuilds > len(specs) + 1:
                    for spec in survivors:
                        emit(
                            _failure_record(
                                spec,
                                "crashed",
                                "worker pool kept breaking",
                            )
                        )
                    pool = None
                    break
                pool = _make_pool(ctx, workers)
                for spec in survivors:
                    submit(spec)
                continue
            expired_pids = _expire_deadlines(
                pending, started, config.timeout_s, emit
            )
            for pid in expired_pids:
                killed_pids.add(pid)
                _terminate_worker(pool, pid)
        if killed_pids:
            _force_shutdown(pool)
        elif pool is not None:
            # No worker was killed: wait for the executor's own
            # teardown. Shutting down without waiting races its
            # management thread, which may still be replacing a
            # max_tasks_per_child worker, and kills that thread with a
            # TypeError.
            pool.shutdown(wait=True)
    finally:
        manager.shutdown()
    ordered = sorted(records.values(), key=lambda r: r["name"])
    return ordered


def _crash_record(spec: BenchmarkSpec) -> dict:
    return _failure_record(
        spec,
        "crashed",
        "worker process died (crash or kill) while running this "
        "benchmark (or a pool-mate torn down with it)",
    )


def _split_crash_victims(stranded, started, emit):
    """The pool broke on its own: blame the in-flight, keep the rest.

    Every stranded benchmark that had stamped a start time was running
    in some worker when the pool died (the executor tears all workers
    down); each is reported as crashed. Benchmarks that never reached
    a worker are returned for resubmission to a fresh pool.
    """
    survivors = []
    for spec in stranded:
        if spec.name in started:
            emit(_crash_record(spec))
        else:
            survivors.append(spec)
    return survivors


def _expire_deadlines(pending, started, timeout_s, emit) -> List[int]:
    """Abandon benchmarks running past their deadline.

    Returns the pids of the workers that were running the expired
    benchmarks; the caller kills them so a hung benchmark frees its
    worker slot instead of occupying it until the end of the run.
    """
    now = time.monotonic()
    expired_pids: List[int] = []
    for future, spec in list(pending.items()):
        if future.done():
            # Finished between the futures_wait and this poll — let
            # the next loop iteration emit the real result.
            continue
        stamp = started.get(spec.name)
        if stamp is None:
            continue
        elapsed = now - stamp[1]
        if elapsed <= timeout_s:
            continue
        del pending[future]
        future.cancel()
        expired_pids.append(stamp[0])
        emit(
            _failure_record(
                spec,
                "timeout",
                f"exceeded {timeout_s:.1f}s deadline "
                f"(ran {elapsed:.1f}s); worker killed",
            )
        )
    return expired_pids


def _terminate_worker(pool: ProcessPoolExecutor, pid: int) -> None:
    """Kill one hung worker by pid (breaks the pool; caller rebuilds)."""
    procs_map = getattr(pool, "_processes", None)
    proc = procs_map.get(pid) if isinstance(procs_map, dict) else None
    if proc is None:
        return
    try:
        proc.kill()
    except Exception:  # pragma: no cover - defensive
        try:
            proc.terminate()
        except Exception:
            pass
