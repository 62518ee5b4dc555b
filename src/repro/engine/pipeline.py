"""Segment-pipelined streaming exact engine: the multi-process path.

:class:`PipelinedExactEngine` simulates a trace *online*, as it is
produced — the way PEBS-style tools process access records — instead
of materializing it first:

* kernels emit bounded-memory **trace segments** through the
  ``KernelModel.segments()`` protocol (every kernel family implements
  a bounded emitter; concatenation is byte-identical to
  ``exact_trace()``), and :func:`~repro.engine.exact.iter_segments`
  turns any source — kernel, materialized trace, iterable of
  segments — into that stream;
* the producer (parent process) resolves store-bypass once per nest,
  simulates bypassed stores through its private write-combining
  buffer (a global FIFO a set partition would not preserve), and
  alone checks and sector-expands the remaining rows, once. It
  writes each row's split address, write flag and set shard (10 B;
  no size) into a slot of a **shared-memory segment ring** (a
  mmapped temp file — visible to workers through the page cache);
* a **persistent pool** of shard workers — spawned once per engine,
  reused across nests and kernels — consumes slots as they land.
  Worker *i* owns the sets with ``(line % n_sets) % n_workers == i``
  and simulates its rows of each slot in place, in its private
  :class:`CacheSim`. Generation of segment *k+1* overlaps simulation
  of segment *k*.

Backpressure: the ring has ``ring_depth`` slots; slot ``seq %
ring_depth`` is rewritten only after **every** worker acknowledged
segment ``seq - ring_depth``, and a worker acks only after simulating
(so it may read the slot in place). A slow consumer stalls the
producer instead of buffering without bound, and peak RSS stays
bounded by the ring regardless of trace length.

Correctness argument (DESIGN.md §6.3): replacement state of a
set-associative cache is independent per set and every
sector-expanded row maps to exactly one set. Segments are produced in
program order; each worker receives every segment in order through
its private queue and filters a *stable* subsequence, so each set's
access sequence is simulated exactly as the single-process engine
would — per-worker counters sum to the monolithic totals, bit for
bit. Segment boundaries are invisible to the simulator because state
carries across calls, and each nest ends in a flush, so nests stay
independent.

``run_many()`` schedules several kernels back-to-back through the
same pool: per-worker queues are ordered, so the producer can start
generating kernel *k+1* while workers still drain kernel *k*'s
segments — no barrier at nest boundaries. With ``checkpoint_dir``
set, each completed kernel's totals are checkpointed and a re-run
resumes after the last completed kernel; this is the engines' only
resume scheme.

``n_workers=0`` selects an **inline** mode with no worker processes:
the expanded rows stream through a single simulator in the parent.
On a single-core host this degrades gracefully to the fastest
possible configuration (no IPC at all) while exercising the identical
segment/bypass/expand/flush logic — it is also what the hypothesis
equivalence tests drive.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import multiprocessing
import os
import queue as queue_mod
import tempfile
import time
import traceback
import warnings
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..errors import SimulationError
from ..machine.cache import CacheSim, TrafficCounters, expand_to_sectors
from ..machine.config import CacheConfig
from ..machine.prefetch import SoftwarePrefetch
from .envconfig import (
    default_ring_depth,
    positive_int,
    resolve_segment_rows,
)
from .exact import (
    SegmentSource,
    _bypass_column,
    _resolve_bypass,
    _with_capacity,
    iter_segments,
)
from .stream import BatchTrace, StreamDecl
from .trace import KernelModel, kernel_fingerprint

#: Ring slot column layout: (name, dtype, bytes per row).
_SLOT_COLUMNS = (("addr", "<i8", 8), ("shard", "|u1", 1),
                 ("is_write", "|b1", 1))
_SLOT_ROW_BYTES = sum(width for _, _, width in _SLOT_COLUMNS)

#: Seconds between worker-liveness checks while the producer waits.
_POLL_S = 0.2
#: Grace period for a stopping worker before it is terminated.
_JOIN_S = 5.0


def _slot_views(buf, slot_rows: int, depth: int) -> List[Dict]:
    """Per-slot numpy column views over the ring buffer."""
    views = []
    offset = 0
    for _ in range(depth):
        cols = {}
        for name, dtype, width in _SLOT_COLUMNS:
            cols[name] = np.frombuffer(buf, dtype=dtype, count=slot_rows,
                                       offset=offset)
            offset += slot_rows * width
        views.append(cols)
    return views


class _Checkpoints:
    """Atomic per-kernel checkpoint files for one resumable run.

    Layout: ``<dir>/<run_key>/kernel-<digest>.json``. Files are
    written via temp + ``os.replace`` so a kill mid-write leaves either
    the old state or the new one, never a torn file; any unreadable or
    mismatched checkpoint is ignored (that kernel is recomputed).
    """

    FIELDS = ("read_bytes", "write_bytes", "hits", "misses")

    def __init__(self, root, run_key: str):
        self.dir = Path(root) / run_key
        self.run_key = run_key
        self.dir.mkdir(parents=True, exist_ok=True)

    def load(self, name: str) -> Optional[Tuple[int, int, int, int]]:
        path = self.dir / f"{name}.json"
        try:
            data = json.loads(path.read_text())
            if data.get("run_key") != self.run_key:
                return None
            values = tuple(data[f] for f in self.FIELDS)
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            return None
        if not all(isinstance(v, int) and v >= 0 for v in values):
            return None
        return values  # type: ignore[return-value]

    def save(self, name: str, values: Tuple[int, int, int, int]) -> None:
        payload = {"run_key": self.run_key}
        payload.update(zip(self.FIELDS, (int(v) for v in values)))
        tmp = self.dir / f".{name}.tmp-{os.getpid()}"
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, self.dir / f"{name}.json")


def _worker_main(worker_id: int, n_workers: int, ring_path: str,
                 slot_rows: int, depth: int, config: CacheConfig,
                 policy: str, task_q, result_q) -> None:
    """Shard-worker loop: lives for the whole engine, one nest at a
    time. Messages arrive in program order through the private queue:
    ``("begin",)`` → fresh simulator, ``("seg", slot, rows, seq)`` →
    simulate, in place, the rows of slot ``slot`` whose shard is
    ``worker_id`` (all when it is the only worker) then ack, ``("end",
    nest_id)`` → flush and report counters, ``("stop",)`` → exit.
    The rows are checked and sector-split already, and the producer
    rewrites a slot only after every worker acked it."""
    sim = None
    busy = 0.0
    try:
        with open(ring_path, "rb") as handle:
            ring = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        views = _slot_views(ring, slot_rows, depth)
        while True:
            msg = task_q.get()
            kind = msg[0]
            if kind == "begin":
                sim = CacheSim(config, policy=policy)
                busy = 0.0
            elif kind == "seg":
                _, slot, rows, seq = msg
                start = time.perf_counter()
                cols = views[slot]
                addr = cols["addr"][:rows]
                is_write = cols["is_write"][:rows]
                if n_workers > 1:
                    mine = cols["shard"][:rows] == worker_id
                    addr, is_write = addr[mine], is_write[mine]
                sim.access_sectors(addr, is_write)
                busy += time.perf_counter() - start
                result_q.put(("ack", worker_id, seq))
            elif kind == "end":
                _, nest_id = msg
                start = time.perf_counter()
                sim.flush()
                busy += time.perf_counter() - start
                result_q.put((
                    "done", worker_id, nest_id,
                    sim.traffic.read_bytes, sim.traffic.write_bytes,
                    sim.stats_hits, sim.stats_misses, busy))
                sim = None
            elif kind == "stop":
                return
    except Exception:  # pragma: no cover - surfaced via parent raise
        result_q.put(("error", worker_id, traceback.format_exc()))


class PipelinedExactEngine:
    """Exact simulation with trace generation overlapping sharded
    simulation through a bounded shared-memory segment ring.

    Traffic, hits, and misses are bit-identical to
    :class:`~repro.engine.exact.ExactEngine` fed the monolithic
    ``exact_trace()`` (tested per kernel family with randomized
    segment sizes). ``n_workers`` defaults to ``cpu_count - 1`` (the
    producer keeps one core); ``0`` selects the no-subprocess inline
    mode. The worker pool persists across ``run_*`` calls until
    :meth:`close` (the engine is also a context manager).
    """

    def __init__(self, cache: CacheConfig,
                 n_workers: Optional[int] = None,
                 capacity_override: Optional[int] = None,
                 policy: str = "lru",
                 segment_rows: Optional[int] = None,
                 ring_depth: Optional[int] = None,
                 checkpoint_dir=None):
        cache = _with_capacity(cache, capacity_override)
        self.cache_config = cache
        self.policy = policy
        if n_workers is None:
            n_workers = max(0, (os.cpu_count() or 1) - 1)
        elif n_workers != 0:
            positive_int(n_workers, "n_workers")
        # One set-shard per worker: no more workers than sets (a worker
        # without sets would idle) or than the uint8 shard column holds.
        self.n_workers = max(0, min(int(n_workers), cache.n_sets, 255))
        # Knob precedence (locked by regression test): an explicit
        # constructor argument always wins; the env default is only
        # consulted when the argument is None.
        self.segment_rows = resolve_segment_rows(segment_rows)
        self.ring_depth = (default_ring_depth() if ring_depth is None
                           else positive_int(ring_depth, "ring_depth"))
        # The write-combining buffer lives in the parent simulator.
        self.sim = CacheSim(cache, policy=policy)
        #: Directory for per-kernel checkpoints of ``run_many`` suites
        #: (None disables resumability).
        self.checkpoint_dir = checkpoint_dir
        #: Fault-injection/test hook: called with the worker id after
        #: each worker's contribution to a completed nest has been
        #: accumulated (and the nest checkpointed, if enabled).
        self.after_shard_hook: Optional[Callable[[int], None]] = None
        #: Observer hook: called with every raw (pre-bypass,
        #: unexpanded) trace segment as the producer streams it, in
        #: program order — the attachment point for the sampling
        #: observer (``repro.papi.sampling``), which profiles the run
        #: in flight without a second generation pass.
        self.segment_tap: Optional[Callable[[BatchTrace], None]] = None
        #: How many kernels the last ``run_many`` restored from
        #: checkpoints instead of recomputing.
        self.kernels_resumed = 0
        self.last_stats: Optional[Dict[str, int]] = None
        self.last_pipeline_stats: Optional[Dict[str, object]] = None
        self._pool = None
        self._task_qs: List = []
        self._result_q = None
        self._nest_id = 0
        self._seq = 0
        self._acks: Dict[int, int] = {}
        self._dones: Dict[int, Dict[int, Tuple]] = {}
        self._ring = None
        self._ring_path: Optional[str] = None
        self._views = None

    # ------------------------------------------------------- lifecycle
    def __enter__(self) -> "PipelinedExactEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:
        # Best-effort, but never *silently* best-effort: a pool that
        # had to be terminated (or a close that failed outright) is a
        # resource leak the caller should hear about.
        try:
            leaked = self.close()
        except Exception as exc:  # pragma: no cover - interpreter teardown
            warnings.warn(
                f"PipelinedExactEngine.__del__: close() failed "
                f"({exc!r}); worker processes may have leaked",
                ResourceWarning, stacklevel=2)
            return
        if leaked:
            warnings.warn(
                f"PipelinedExactEngine.__del__: worker processes "
                f"(pids {leaked}) did not join within {_JOIN_S}s and "
                f"were terminated — call close() explicitly or use "
                f"the engine as a context manager",
                ResourceWarning, stacklevel=2)

    def _ensure_pool(self) -> None:
        if self.n_workers == 0 or self._pool is not None:
            return
        slot_bytes = self.segment_rows * _SLOT_ROW_BYTES
        fd, path = tempfile.mkstemp(prefix="repro-ring-", suffix=".bin")
        try:
            os.ftruncate(fd, slot_bytes * self.ring_depth)
            self._ring = mmap.mmap(fd, slot_bytes * self.ring_depth)
        finally:
            os.close(fd)
        self._ring_path = path
        self._views = _slot_views(self._ring, self.segment_rows,
                                  self.ring_depth)
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")
        self._result_q = ctx.Queue()
        self._task_qs = []
        self._pool = []
        for wid in range(self.n_workers):
            task_q = ctx.Queue()
            proc = ctx.Process(
                target=_worker_main,
                args=(wid, self.n_workers, path, self.segment_rows,
                      self.ring_depth, self.cache_config, self.policy,
                      task_q, self._result_q),
                daemon=True,
            )
            proc.start()
            self._task_qs.append(task_q)
            self._pool.append(proc)
        self._seq = 0
        self._acks = {}
        self._dones = {}

    def close(self) -> List[int]:
        """Stop the worker pool and release the segment ring. The
        engine stays usable — the next run respawns the pool.
        Returns the PIDs of workers that missed the join grace period
        and had to be terminated (empty on a clean shutdown)."""
        leaked: List[int] = []
        if self._pool is not None:
            for task_q in self._task_qs:
                try:
                    task_q.put(("stop",))
                except Exception:
                    pass
            deadline = time.monotonic() + _JOIN_S
            for proc in self._pool:
                proc.join(timeout=max(0.0, deadline - time.monotonic()))
                if proc.is_alive():
                    leaked.append(proc.pid)
                    proc.terminate()
                    proc.join(timeout=_JOIN_S)
            for q in self._task_qs + [self._result_q]:
                q.cancel_join_thread()
                q.close()
            self._pool = None
            self._task_qs = []
            self._result_q = None
        if self._ring is not None:
            self._views = None
            try:
                self._ring.close()
            except BufferError:
                # A traceback frame may still hold views into the ring;
                # the map dies with them (the file is unlinked below).
                pass
            self._ring = None
        if self._ring_path is not None:
            try:
                os.unlink(self._ring_path)
            except OSError:
                pass
            self._ring_path = None
        return leaked

    def worker_pids(self) -> List[int]:
        """PIDs of the live pool (empty in inline mode) — lets tests
        assert the pool persists across nests."""
        if self._pool is None:
            return []
        return [proc.pid for proc in self._pool]

    def reset(self) -> None:
        self.sim = CacheSim(self.cache_config, policy=self.policy)
        self.last_stats = None
        self.last_pipeline_stats = None

    # ----------------------------------------------------- message I/O
    def _broadcast(self, msg: Tuple) -> None:
        for task_q in self._task_qs:
            task_q.put(msg)

    def _handle(self, msg: Tuple) -> None:
        kind = msg[0]
        if kind == "ack":
            self._acks[msg[2]] = self._acks.get(msg[2], 0) + 1
        elif kind == "done":
            self._dones.setdefault(msg[2], {})[msg[1]] = msg[3:]
        elif kind == "error":
            raise SimulationError(
                f"pipeline worker {msg[1]} failed:\n{msg[2]}")

    def _drain(self) -> None:
        while True:
            try:
                self._handle(self._result_q.get_nowait())
            except queue_mod.Empty:
                return

    def _wait(self, ready: Callable[[], bool]) -> float:
        """Block until ``ready()``; returns seconds stalled.

        Each blocking ``get`` returns as soon as a worker message
        arrives; its ``_POLL_S`` timeout only bounds how late a dead
        worker is noticed."""
        start = time.perf_counter()
        self._drain()
        while not ready():
            try:
                self._handle(self._result_q.get(timeout=_POLL_S))
            except queue_mod.Empty:
                dead = [p.pid for p in self._pool if not p.is_alive()]
                if dead:
                    raise SimulationError(
                        f"pipeline workers died: pids {dead}") from None
        return time.perf_counter() - start

    def _segment_acked(self, seq: int) -> bool:
        return self._acks.get(seq, 0) >= self.n_workers

    # ------------------------------------------------------- producing
    def _submit_segment(self, c_addr, c_write, shard,
                        stats: Dict[str, float]) -> None:
        """Write expanded columns into ring slots, ``segment_rows``
        rows per slot, and announce each slot to every worker with a
        ``("seg", slot, rows, seq)`` message. Before a slot is
        rewritten, wait until every worker acked the segment it held
        (backpressure). With several workers the slot also carries
        each row's shard; each worker keeps only its own shard's
        rows."""
        total = int(c_addr.size)
        lo = 0
        while lo < total:
            hi = min(lo + self.segment_rows, total)
            rows = hi - lo
            seq = self._seq
            slot = seq % self.ring_depth
            if seq >= self.ring_depth:
                stats["stall_s"] += self._wait(
                    lambda s=seq: self._segment_acked(s - self.ring_depth))
                self._acks.pop(seq - self.ring_depth, None)
            in_flight = sum(
                1 for s in range(max(0, seq - self.ring_depth), seq)
                if not self._segment_acked(s))
            stats["depth_sum"] += in_flight
            stats["depth_max"] = max(stats["depth_max"], in_flight)
            cols = self._views[slot]
            cols["addr"][:rows] = c_addr[lo:hi]
            cols["is_write"][:rows] = c_write[lo:hi]
            if shard is not None:
                cols["shard"][:rows] = shard[lo:hi]
            self._broadcast(("seg", slot, rows, seq))
            self._seq += 1
            stats["segments"] += 1
            self._drain()
            lo = hi

    def _produce_nest(self, segments: Iterator[BatchTrace],
                      bypass: Dict[str, bool], sim_inline,
                      stats: Dict[str, float]) -> None:
        """Stream one nest's segments: bypassed stores through the
        parent WCB; the rest checked and sector-expanded, by no other
        stage, then simulated here (inline mode) or sharded into the
        ring (pool mode)."""
        cfg = self.cache_config
        for segment in segments:
            if not len(segment):
                continue
            if self.segment_tap is not None:
                self.segment_tap(segment)
            start = time.perf_counter()
            stats["rows"] += len(segment)
            byp_col = _bypass_column(segment, bypass)
            addr, size, is_write = (segment.addr, segment.size,
                                    segment.is_write)
            if byp_col is not None:
                keep = ~byp_col
                self.sim.access_batch(
                    addr[byp_col], size[byp_col], is_write[byp_col],
                    np.ones(int(byp_col.sum()), dtype=bool))
                addr, size, is_write = (addr[keep], size[keep],
                                        is_write[keep])
            if not addr.size:
                stats["producer_s"] += time.perf_counter() - start
                continue
            # Checked before expansion, which would drop a zero-size
            # row without a word.
            if int(size.min()) <= 0:
                raise SimulationError(
                    f"access size must be positive, got {int(size.min())}")
            c_addr, _, c_write, _ = expand_to_sectors(
                addr.astype(np.int64, copy=False), size, is_write, None,
                cfg.granule_bytes)
            stats["expanded_rows"] += int(c_addr.size)
            if sim_inline is not None:
                sim_inline.access_sectors(c_addr, c_write)
                stats["segments"] += 1
                stats["producer_s"] += time.perf_counter() - start
                continue
            shard = None
            if self.n_workers > 1:
                line = c_addr // cfg.line_bytes
                shard = ((line % cfg.n_sets)
                         % self.n_workers).astype(np.uint8)
            stats["producer_s"] += time.perf_counter() - start
            self._submit_segment(c_addr, c_write, shard, stats)

    # ---------------------------------------------------------- public
    def run_nest(self, streams: Iterable[StreamDecl],
                 source: SegmentSource,
                 prefetch: SoftwarePrefetch = SoftwarePrefetch(),
                 flush_at_end: bool = True) -> TrafficCounters:
        """Execute one loop nest, pipelining generation against
        simulation. ``source`` may be a :class:`KernelModel` (segments
        stream straight from the emitter), a materialized
        :class:`BatchTrace` (row-sliced), or any iterable of
        :class:`BatchTrace` segments; anything else raises
        :class:`SimulationError`."""
        if not flush_at_end:
            raise SimulationError(
                "pipelined simulation requires flush_at_end=True "
                "(shards are only independent between flushed nests)")
        return self._run_pipeline([(streams, source, None)], prefetch)[0]

    def run_kernel(self, kernel: KernelModel,
                   prefetch: SoftwarePrefetch = SoftwarePrefetch()
                   ) -> TrafficCounters:
        """Convenience: ``run_nest(kernel.streams(), kernel)``."""
        return self.run_nest(kernel.streams(), kernel, prefetch)

    def run_many(self, kernels: Sequence[KernelModel],
                 prefetch: SoftwarePrefetch = SoftwarePrefetch()
                 ) -> List[TrafficCounters]:
        """Run several kernels through the persistent pool, keeping it
        saturated: generation of kernel *k+1* overlaps simulation of
        kernel *k* (per-worker queues are ordered, so nest boundaries
        need no barrier). With ``checkpoint_dir`` set, each completed
        kernel's totals are checkpointed (keyed by kernel fingerprint,
        cache geometry, policy, and bypass resolution) and a re-run
        skips them — a crashed multi-kernel suite resumes where it
        died."""
        return self._run_pipeline(
            [(kernel.streams(), kernel, kernel) for kernel in kernels],
            prefetch)

    # ------------------------------------------------------- internals
    def _ckpt_name(self, kernel: KernelModel,
                   bypass: Dict[str, bool]) -> str:
        payload = json.dumps(
            [kernel_fingerprint(kernel), sorted(bypass.items())],
            separators=(",", ":"))
        return "kernel-" + hashlib.sha256(
            payload.encode()).hexdigest()[:16]

    def _checkpoints(self) -> Optional[_Checkpoints]:
        if self.checkpoint_dir is None:
            return None
        cfg = self.cache_config
        run_key = hashlib.sha256(json.dumps(
            [cfg.capacity_bytes, cfg.line_bytes, cfg.granule_bytes,
             cfg.associativity, self.policy],
            separators=(",", ":")).encode()).hexdigest()[:20]
        return _Checkpoints(self.checkpoint_dir, run_key)

    def _run_pipeline(self, nests, prefetch: SoftwarePrefetch
                      ) -> List[TrafficCounters]:
        """Pipelined execution of ``[(streams, source, kernel), ...]``
        (``kernel`` non-None enables checkpointing for that entry)."""
        ckpt = self._checkpoints()
        self.kernels_resumed = 0
        wall_start = time.perf_counter()
        stats = {"segments": 0, "rows": 0, "expanded_rows": 0,
                 "producer_s": 0.0, "stall_s": 0.0,
                 "depth_sum": 0.0, "depth_max": 0,
                 "hits": 0, "misses": 0, "busy": 0.0}
        results: List[Optional[TrafficCounters]] = [None] * len(nests)
        #: nest_id -> (result index, parent-WCB counters, ckpt name).
        active: Dict[int, Tuple[int, TrafficCounters, Optional[str]]] = {}
        worker_busy = [0.0] * max(1, self.n_workers)
        inline = self.n_workers == 0
        try:
            if not inline:
                self._ensure_pool()
            for idx, (streams, source, kernel) in enumerate(nests):
                bypass = _resolve_bypass(streams, prefetch)
                name = None
                if ckpt is not None and kernel is not None:
                    name = self._ckpt_name(kernel, bypass)
                    saved = ckpt.load(name)
                    if saved is not None:
                        results[idx] = TrafficCounters(
                            read_bytes=saved[0], write_bytes=saved[1])
                        stats["hits"] += saved[2]
                        stats["misses"] += saved[3]
                        self.kernels_resumed += 1
                        continue
                nest_id = self._nest_id
                self._nest_id += 1
                sim_inline = None
                if inline:
                    sim_inline = CacheSim(self.cache_config,
                                          policy=self.policy)
                else:
                    self._broadcast(("begin",))
                self._produce_nest(
                    iter_segments(source, self.segment_rows), bypass,
                    sim_inline, stats)
                start = time.perf_counter()
                self.sim.flush()  # drain this nest's parent WCB
                wcb = self.sim.reset_traffic()
                stats["producer_s"] += time.perf_counter() - start
                active[nest_id] = (idx, wcb, name)
                if inline:
                    start = time.perf_counter()
                    sim_inline.flush()
                    self._dones[nest_id] = {0: (
                        sim_inline.traffic.read_bytes,
                        sim_inline.traffic.write_bytes,
                        sim_inline.stats_hits, sim_inline.stats_misses,
                        time.perf_counter() - start)}
                else:
                    self._broadcast(("end", nest_id))
                    self._drain()
                # Fold nests the workers already finished so their
                # checkpoints land as early as possible.
                self._fold_finished(active, results, worker_busy,
                                    stats, ckpt)
            if not inline and active:
                pending = set(active)
                stats["stall_s"] += self._wait(lambda: all(
                    len(self._dones.get(nid, {})) >= self.n_workers
                    for nid in pending))
            self._fold_finished(active, results, worker_busy, stats,
                                ckpt)
        except Exception:
            # Workers may hold unconsumed messages for this aborted
            # run, and the parent WCB the aborted nest's stores: a
            # fresh pool and simulator are the only clean state.
            self.close()
            self.reset()
            raise
        wall = time.perf_counter() - wall_start
        n_lanes = max(1, self.n_workers)
        self.last_stats = {"hits": int(stats["hits"]),
                           "misses": int(stats["misses"])}
        self.last_pipeline_stats = {
            "mode": "inline" if inline else "pool",
            "n_workers": self.n_workers,
            "segment_rows": self.segment_rows,
            "ring_depth": self.ring_depth,
            "segments": int(stats["segments"]),
            "rows": int(stats["rows"]),
            "expanded_rows": int(stats["expanded_rows"]),
            "wall_s": wall,
            "producer_s": stats["producer_s"],
            "producer_stall_s": stats["stall_s"],
            "worker_busy_s": list(worker_busy),
            "utilization": (stats["busy"] / (n_lanes * wall)
                            if wall > 0 else 0.0),
            "mean_queue_depth": (stats["depth_sum"] / stats["segments"]
                                 if stats["segments"] else 0.0),
            "max_queue_depth": int(stats["depth_max"]),
        }
        return [r if r is not None else TrafficCounters()
                for r in results]

    def _fold_finished(self, active, results, worker_busy, stats,
                       ckpt) -> None:
        """Fold every fully-reported nest's worker counters into its
        total, checkpoint it, and fire the shard hook."""
        expected = max(1, self.n_workers)
        for nest_id in sorted(list(active)):
            done = self._dones.get(nest_id)
            if done is None or len(done) < expected:
                continue
            idx, wcb, name = active.pop(nest_id)
            del self._dones[nest_id]
            total = TrafficCounters(read_bytes=wcb.read_bytes,
                                    write_bytes=wcb.write_bytes)
            nest_hits = 0
            nest_misses = 0
            for wid in sorted(done):
                r, w, h, m, busy = done[wid]
                total.read_bytes += r
                total.write_bytes += w
                nest_hits += h
                nest_misses += m
                stats["busy"] += busy
                if wid < len(worker_busy):
                    worker_busy[wid] += busy
            stats["hits"] += nest_hits
            stats["misses"] += nest_misses
            results[idx] = total
            if ckpt is not None and name is not None:
                ckpt.save(name, (total.read_bytes, total.write_bytes,
                                 nest_hits, nest_misses))
            if self.after_shard_hook is not None:
                for wid in sorted(done):
                    self.after_shard_hook(wid)
