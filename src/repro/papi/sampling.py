"""Statistical sampling profiler (ARM SPE / Intel PEBS style).

The exact engines answer "what is the true nest traffic" by
simulating every access. Production memory profilers answer it by
*sampling*: a hardware unit tags every N-th access (ARM SPE) or
arms a precise-event counter that fires every N-th event (PEBS),
captures a record — address, access kind, latency, cache level hit —
and leaves the rest of the stream unobserved. Traffic totals are
then *estimated* by scaling per-sample observations back up by the
sampling period.

:class:`SamplingObserver` reproduces that pipeline against the same
columnar :class:`~repro.engine.stream.BatchTrace` segments the
pipelined exact engine streams (``KernelModel.segments()`` / the
``PipelinedExactEngine.segment_tap`` hook):

* **Replay.** The observer advances a private
  :class:`~repro.machine.cache.CacheSim` over every row. This mirrors
  hardware, where the cache state a sample describes exists for free;
  only the *records* are sampled. The replay also makes the
  observer's own exact traffic available as the reference for
  accuracy ablations (it equals the exact engine's, property-tested).
* **Two trigger channels.** An *access* channel fires every
  ``period``-th access (mean; the gap is randomized by
  ``period_jitter`` exactly the way PEBS randomizes counter reload)
  and drives the read-traffic estimator. A *store* channel fires
  every ``store_period``-th store and drives the write-traffic
  estimator — stores are rare in read-dominated nests, so sampling
  them on their own axis keeps the rare-event variance bounded.
  Without gap randomization a periodic trigger aliases with periodic
  access patterns (every GEMM store sample would land on the same
  C-sector phase) and the estimators become badly biased — see
  DESIGN.md §6.4.
* **Skid.** Real precise events are not perfectly precise: the
  recorded instruction trails the triggering one by a fixed plus
  variable number of operations. ``skid``/``skid_jitter`` shift the
  recorded access by that many accesses (seeded via
  :func:`repro.rng.substream`), including across segment boundaries.
* **Records.** Each sample captures address, stream, access kind,
  simulated hit level (nest cache / memory / write-combining buffer)
  and the derived latency class, bounded by ``max_records``.

Estimators (ratio form — the PMU counts *all* accesses for free, so
totals are scaled by observed-count / sample-count, not by summing
gaps):

* ``est_read_bytes = granule * fetch_sectors_at_samples *
  n_accesses / n_access_samples`` — a sampled access's non-resident
  sectors are exactly the demand fetches it is about to cause.
* ``est_write_bytes = granule * (clean-to-dirty transitions +
  WCB sector completions at store samples) * n_stores /
  n_store_samples`` — every clean→dirty transition causes exactly
  one eventual write-back (eviction or final flush); every completed
  write-combining sector drains as one write transaction.

Both are exact at period 1 and converge with sample rate
(monotonically in expectation — property-tested).

The replay has two implementations with bit-identical results. The
default *vectorized* path collects a whole segment's trigger rows up
front — array-drawn from the same RNG streams as the scalar path,
draw for draw — and replays the segment through a single
:meth:`~repro.machine.cache.CacheSim.access_batch_probed` call (plus
write-combining slices between bypassed-store samples, a plane that
is state-independent of the cache). The *scalar* path
(``vectorized=False``) replays slice-by-slice and probes each sample
row individually; it is kept as the differential oracle, and the
vectorized path falls back to it per segment when a row spans
``n_sets`` or more cache lines (the one geometry where in-batch
state extraction cannot mirror probe-before-row).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..engine.envconfig import (
    default_sample_period,
    default_sample_skid,
    default_sample_skid_jitter,
    nonnegative_int,
    positive_int,
)
from ..engine.stream import BatchTrace, StreamDecl, resolve_policies
from ..errors import SimulationError
from ..machine.cache import CacheSim, TrafficCounters, expand_to_sectors
from ..machine.config import CacheConfig
from ..machine.store import SoftwarePrefetch, StorePolicy
from ..rng import substream

#: Simulated hit levels attached to sample records.
LEVEL_CACHE = 0    #: all sectors resident in the nest cache
LEVEL_MEMORY = 1   #: at least one sector demand-fetched from memory
LEVEL_WCB = 2      #: bypassed store gathered in the write-combining buffer

LEVEL_NAMES = {LEVEL_CACHE: "cache", LEVEL_MEMORY: "memory",
               LEVEL_WCB: "wcb"}
#: Latency class per hit level (SPE latency buckets / PEBS data
#: source encodings collapse to the same three-way split here).
LATENCY_CLASSES = {LEVEL_CACHE: "nest-hit", LEVEL_MEMORY: "dram",
                   LEVEL_WCB: "store-buffer"}

#: Trigger channels.
CHANNEL_ACCESS = 0
CHANNEL_STORE = 1

DEFAULT_MAX_RECORDS = 1 << 16


@dataclasses.dataclass
class SamplingConfig:
    """Validated sampling parameters (env-backed defaults).

    ``None`` fields resolve against the environment knobs
    (``REPRO_SAMPLE_PERIOD``, ``REPRO_SAMPLE_SKID``,
    ``REPRO_SAMPLE_JITTER``) or derived defaults at construction
    time, with the same parse-time validation as the engine knobs.
    """

    #: Mean accesses between access-channel samples.
    period: Optional[int] = None
    #: Half-width of the uniform gap randomization (must stay below
    #: ``period``; default ``period // 4`` with a floor of 1 whenever
    #: ``period > 1``). Zero disables it — and exposes the estimators
    #: to aliasing with periodic traces.
    period_jitter: Optional[int] = None
    #: Mean *stores* between store-channel samples
    #: (default ``max(1, period // 16)``).
    store_period: Optional[int] = None
    #: Gap randomization of the store channel (default like
    #: ``period_jitter``, on ``store_period``).
    store_jitter: Optional[int] = None
    #: Fixed skid: the recorded access trails the trigger by this
    #: many accesses.
    skid: Optional[int] = None
    #: Upper bound of the uniform random skid added to the fixed one.
    skid_jitter: Optional[int] = None
    #: Root seed for the trigger/skid random streams.
    seed: Optional[int] = None
    #: Per-sample records kept before dropping (drops are counted).
    max_records: int = DEFAULT_MAX_RECORDS

    def __post_init__(self) -> None:
        self.period = (default_sample_period() if self.period is None
                       else positive_int(self.period, "period"))
        if self.period_jitter is None:
            # Never default to an unjittered period > 1: a systematic
            # trigger phase-locks with periodic traces and the
            # estimators alias (GEMM's store channel would see either
            # every or no sector-dirtying store). Observed, not
            # hypothetical — see DESIGN.md §6.4.
            self.period_jitter = (min(1, self.period - 1)
                                  if self.period < 8 else self.period // 4)
        else:
            self.period_jitter = nonnegative_int(
                self.period_jitter, "period_jitter")
        if self.period_jitter >= self.period:
            raise SimulationError(
                f"period_jitter must be smaller than period, got "
                f"{self.period_jitter} >= {self.period}")
        if self.store_period is None:
            self.store_period = max(1, self.period // 16)
        else:
            self.store_period = positive_int(
                self.store_period, "store_period")
        if self.store_jitter is None:
            self.store_jitter = (
                min(1, self.store_period - 1)
                if self.store_period < 8 else self.store_period // 4)
        else:
            self.store_jitter = nonnegative_int(
                self.store_jitter, "store_jitter")
        if self.store_jitter >= self.store_period:
            raise SimulationError(
                f"store_jitter must be smaller than store_period, got "
                f"{self.store_jitter} >= {self.store_period}")
        self.skid = (default_sample_skid() if self.skid is None
                     else nonnegative_int(self.skid, "skid"))
        self.skid_jitter = (
            default_sample_skid_jitter() if self.skid_jitter is None
            else nonnegative_int(self.skid_jitter, "skid_jitter"))
        self.max_records = nonnegative_int(self.max_records,
                                           "max_records")


@dataclasses.dataclass
class TrafficEstimate:
    """Period-scaled traffic estimate (floats: scaled counts)."""

    read_bytes: float = 0.0
    write_bytes: float = 0.0

    @property
    def total_bytes(self) -> float:
        return self.read_bytes + self.write_bytes


class _Channel:
    """One sampling trigger channel on its own event axis."""

    __slots__ = ("period", "jitter", "rng", "next_at", "fired")

    def __init__(self, period: int, jitter: int,
                 rng: np.random.Generator):
        self.period = period
        self.jitter = jitter
        self.rng = rng
        # Random initial phase in [0, period), like an armed counter
        # with a random preload — a fixed phase would bias systematic
        # sampling toward one pattern alignment. Period 1 degenerates
        # to phase 0: every event sampled.
        self.next_at = int(rng.integers(0, period))
        self.fired = 0

    def triggers(self, start: int, end: int) -> List[int]:
        """Trigger positions in ``[start, end)``; advances the arm."""
        out: List[int] = []
        pos = max(self.next_at, start)
        while pos < end:
            out.append(pos)
            if self.jitter:
                pos += int(self.rng.integers(
                    self.period - self.jitter,
                    self.period + self.jitter + 1))
            else:
                pos += self.period
        self.next_at = pos
        self.fired += len(out)
        return out

    def triggers_array(self, start: int, end: int) -> np.ndarray:
        """Vectorized :meth:`triggers`: same positions, *same RNG
        draws* (one per emitted trigger, in trigger order), returned
        as an int64 array.

        With jitter the trigger count is not known up front, so gaps
        are drawn in blocks sized by the worst case: starting from
        ``pos``, ``(end - 1 - pos) // (period + jitter) + 1`` triggers
        are guaranteed to land inside ``[start, end)`` even if every
        gap draws its maximum, so exactly that many gaps are drawn per
        block — never more than the scalar loop would have.
        """
        pos = max(self.next_at, start)
        if pos >= end:
            self.next_at = pos
            return np.empty(0, dtype=np.int64)
        if not self.jitter:
            out = np.arange(pos, end, self.period, dtype=np.int64)
            pos = int(out[-1]) + self.period
        else:
            lo = self.period - self.jitter
            hi = self.period + self.jitter
            blocks: List[np.ndarray] = []
            while pos < end:
                k = (end - 1 - pos) // hi + 1
                gaps = self.rng.integers(lo, hi + 1, size=k)
                offsets = np.empty(k, dtype=np.int64)
                offsets[0] = 0
                np.cumsum(gaps[:-1], out=offsets[1:])
                blocks.append(pos + offsets)
                pos += int(gaps.sum())
            out = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        self.next_at = pos
        self.fired += int(out.size)
        return out


class SamplingObserver:
    """Consume trace segments, emitting sampled records + estimators.

    Feed it segments directly (:meth:`observe` /
    :meth:`observe_kernel`) or hang :meth:`observe` on
    ``PipelinedExactEngine.segment_tap`` to profile a pipelined run
    in flight. Call :meth:`finish` (flushes the replay) before
    reading estimates.
    """

    def __init__(self, cache: CacheConfig,
                 streams: Iterable[StreamDecl],
                 config: Optional[SamplingConfig] = None,
                 prefetch: SoftwarePrefetch = SoftwarePrefetch(),
                 vectorized: bool = True):
        self.config = config if config is not None else SamplingConfig()
        #: Replay implementation: vectorized segment-level replay
        #: (default) or the scalar slice-per-sample oracle. Both
        #: produce bit-identical records, counters, and estimates.
        self.vectorized = bool(vectorized)
        self.sim = CacheSim(cache)
        policies = resolve_policies(list(streams), prefetch)
        self._bypass = {name: policy is StorePolicy.BYPASS
                        for name, policy in policies.items()}
        rng = substream(self.config.seed, "sampling")
        self._acc = _Channel(self.config.period,
                             self.config.period_jitter, rng)
        self._store = _Channel(self.config.store_period,
                               self.config.store_jitter, rng)
        self._skid_rng = substream(self.config.seed, "sampling", "skid")
        # Global axes: rows observed so far / stores observed so far.
        self.accesses_observed = 0
        self.stores_observed = 0
        # Skidded sample positions that spilled past the segments
        # seen so far: (absolute row, channel).
        self._pending: List[Tuple[int, int]] = []
        # Estimator accumulators.
        self.n_access_samples = 0
        self.n_store_samples = 0
        self.fetch_sectors = 0
        self.dirty_events = 0
        self.wcb_events = 0
        # Per-line fetch-sector counts at access samples (hot lines).
        self._line_fetches: Dict[int, List] = {}
        # Record columns (python lists; arrays built on demand).
        self._rec: Dict[str, List] = {
            k: [] for k in ("row", "addr", "size", "stream_id",
                            "is_write", "level", "channel")}
        self.records_dropped = 0
        self.skid_dropped = 0
        self.slices = 0
        #: Segments the span guard sent to the slice-per-sample replay.
        self.span_guard_fallbacks = 0
        self._bypass_cache: Tuple[int, Optional[np.ndarray]] = (-1, None)
        self.finished = False

    # ------------------------------------------------------- ingestion
    def observe(self, segment: BatchTrace) -> None:
        """Advance over one trace segment, sampling as configured."""
        if self.finished:
            raise SimulationError(
                "SamplingObserver.observe() after finish()")
        n = len(segment)
        if not n:
            return
        addr, size = segment.addr, segment.size
        is_write = segment.is_write
        byp = self._bypass_column(segment)
        base = self.accesses_observed
        store_rows = np.flatnonzero(is_write)

        if self.vectorized:
            srows, smask = self._collect_vectorized(n, base, store_rows)
            if self._span_guard(addr, size):
                # A row spanning >= n_sets cache lines can self-
                # interfere (its own early sector's eviction changing
                # a later sector's set), the one geometry where batch
                # extraction cannot mirror probe-before-row — see
                # CacheSim.access_batch_probed. Replay such segments
                # through the slice path; trigger state is unaffected
                # since both collectors make the same RNG draws.
                self.span_guard_fallbacks += 1
                self._replay_slices(segment, addr, size, is_write,
                                    byp, base, srows, smask)
            else:
                self._replay_vectorized(segment, addr, size, is_write,
                                        byp, base, srows, smask)
        else:
            srows, smask = self._collect_scalar(n, base, store_rows)
            self._replay_slices(segment, addr, size, is_write, byp,
                                base, srows, smask)
        self.accesses_observed += n
        self.stores_observed += int(store_rows.size)

    def observe_kernel(self, kernel,
                       target_rows: Optional[int] = None
                       ) -> "SamplingObserver":
        """Stream a :class:`KernelModel`'s segments end to end."""
        for segment in kernel.segments(target_rows):
            self.observe(segment)
        self.finish()
        return self

    def finish(self) -> None:
        """Flush the replay; drop skidded samples past the trace end."""
        if self.finished:
            return
        self.skid_dropped += len(self._pending)
        self._pending = []
        self.sim.flush()
        self.finished = True

    # ------------------------------------------------------- internals
    def _skidded(self, trigger: int) -> int:
        cfg = self.config
        row = trigger + cfg.skid
        if cfg.skid_jitter:
            row += int(self._skid_rng.integers(0, cfg.skid_jitter + 1))
        return row

    def _bypass_column(self, segment: BatchTrace) -> Optional[np.ndarray]:
        key = id(segment.streams)
        cached_key, cached = self._bypass_cache
        if cached_key == key:
            per_stream = cached
        else:
            per_stream = np.array(
                [self._bypass.get(name, False)
                 for name in segment.streams], dtype=bool)
            self._bypass_cache = (key, per_stream)
        if per_stream is None or not per_stream.any():
            return None
        return per_stream[segment.stream_id] & segment.is_write

    # ------------------------------------------------- trigger collection
    def _collect_scalar(self, n: int, base: int,
                        store_rows: np.ndarray
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """Scalar trigger collection: one RNG draw per trigger, one
        per skid. Returns sorted unique local sample rows and their
        OR-ed channel masks."""
        sample_rows: Dict[int, int] = {}

        def _add(abs_row: int, channel: int) -> None:
            if abs_row < base + n:
                sample_rows[abs_row - base] = (
                    sample_rows.get(abs_row - base, 0) | (1 << channel))
            else:
                self._pending.append((abs_row, channel))

        if self._pending:
            pending, self._pending = self._pending, []
            for abs_row, channel in pending:
                _add(abs_row, channel)
        for trigger in self._acc.triggers(base, base + n):
            _add(self._skidded(trigger), CHANNEL_ACCESS)
        m = int(store_rows.size)
        for trigger in self._store.triggers(self.stores_observed,
                                            self.stores_observed + m):
            row = base + int(store_rows[trigger - self.stores_observed])
            _add(self._skidded(row), CHANNEL_STORE)
        srows = np.array(sorted(sample_rows), dtype=np.int64)
        smask = np.array([sample_rows[p] for p in srows.tolist()],
                         dtype=np.uint8)
        return srows, smask

    def _collect_vectorized(self, n: int, base: int,
                            store_rows: np.ndarray
                            ) -> Tuple[np.ndarray, np.ndarray]:
        """Array trigger collection, draw-for-draw identical to
        :meth:`_collect_scalar`: acc gaps, acc skids, store gaps,
        store skids — in that order, block-drawn."""
        end = base + n
        rows_parts: List[np.ndarray] = []
        mask_parts: List[np.ndarray] = []
        if self._pending:
            pend_rows: List[int] = []
            pend_mask: List[int] = []
            pending, self._pending = self._pending, []
            for abs_row, channel in pending:
                if abs_row < end:
                    pend_rows.append(abs_row - base)
                    pend_mask.append(1 << channel)
                else:
                    self._pending.append((abs_row, channel))
            if pend_rows:
                rows_parts.append(np.array(pend_rows, dtype=np.int64))
                mask_parts.append(np.array(pend_mask, dtype=np.uint8))
        acc = self._skidded_array(self._acc.triggers_array(base, end))
        m = int(store_rows.size)
        st = self._store.triggers_array(self.stores_observed,
                                        self.stores_observed + m)
        st = self._skidded_array(base + store_rows[st - self.stores_observed])
        for rows, channel in ((acc, CHANNEL_ACCESS), (st, CHANNEL_STORE)):
            if not rows.size:
                continue
            inside = rows < end
            over = rows[~inside]
            if over.size:
                self._pending.extend(
                    (int(r), channel) for r in over.tolist())
            kept = rows[inside]
            if kept.size:
                rows_parts.append(kept - base)
                mask_parts.append(np.full(kept.size, 1 << channel,
                                          dtype=np.uint8))
        if not rows_parts:
            return (np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.uint8))
        rows_all = np.concatenate(rows_parts)
        mask_all = np.concatenate(mask_parts)
        order = np.argsort(rows_all, kind="stable")
        rows_all = rows_all[order]
        mask_all = mask_all[order]
        bnd = np.empty(rows_all.size, dtype=bool)
        bnd[0] = True
        np.not_equal(rows_all[1:], rows_all[:-1], out=bnd[1:])
        starts = np.flatnonzero(bnd)
        return rows_all[starts], np.bitwise_or.reduceat(mask_all, starts)

    def _skidded_array(self, rows: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`_skidded` (same draws on the skid RNG)."""
        cfg = self.config
        rows = rows + cfg.skid
        if cfg.skid_jitter and rows.size:
            rows = rows + self._skid_rng.integers(
                0, cfg.skid_jitter + 1, size=rows.size)
        return rows

    def _span_guard(self, addr: np.ndarray, size: np.ndarray) -> bool:
        """True when some row spans >= n_sets cache lines (vectorized
        extraction could diverge from probe-before-row; replay the
        segment through the scalar slice path instead)."""
        line = self.sim.line_bytes
        span = (addr + size - 1) // line - addr // line
        return int(span.max()) >= self.sim.n_sets

    # ---------------------------------------------------------- replay
    def _replay_slices(self, segment: BatchTrace, addr, size, is_write,
                       byp, base: int, srows: np.ndarray,
                       smask: np.ndarray) -> None:
        """Slice-per-sample replay: advance the replay to each sample
        row, probe it scalar-wise, continue. The differential oracle
        for the vectorized replay, and its fallback for segments the
        span guard rejects."""
        sim = self.sim
        n = len(segment)
        pos = 0
        for p, channels in zip(srows.tolist(), smask.tolist()):
            if p > pos:
                sim.access_batch(addr[pos:p], size[pos:p],
                                 is_write[pos:p],
                                 None if byp is None else byp[pos:p])
                self.slices += 1
            pos = p
            self._sample(channels, base + p, int(addr[p]),
                         int(size[p]), bool(is_write[p]),
                         bool(byp[p]) if byp is not None else False,
                         int(segment.stream_id[p]), segment.streams)
        if pos < n:
            sim.access_batch(addr[pos:], size[pos:], is_write[pos:],
                             None if byp is None else byp[pos:])
            self.slices += 1

    def _replay_vectorized(self, segment: BatchTrace, addr, size,
                           is_write, byp, base: int, srows: np.ndarray,
                           smask: np.ndarray) -> None:
        """Whole-segment replay in two state-independent planes.

        Cached plane: every non-bypassed row goes through one
        :meth:`CacheSim.access_batch_probed` call with the non-bypassed
        sample rows as the watch set — the returned per-sector
        pre-states are exactly what :meth:`CacheSim.probe` would have
        reported before each sampled row. WCB plane: bypassed stores
        are applied with :meth:`CacheSim._bypass_batch` slices between
        bypassed sample rows, each sampled with the same pre-row
        write-combining walk as the scalar path. Counters and records
        are then applied in sample-row order, reproducing
        :meth:`_sample` bit for bit.
        """
        sim = self.sim
        if not srows.size:
            sim.access_batch(addr, size, is_write, byp)
            self.slices += 1
            return
        s_byp = (byp[srows] if byp is not None
                 else np.zeros(srows.size, dtype=bool))
        nonres = np.zeros(srows.size, dtype=np.int64)
        dirty_new = np.zeros(srows.size, dtype=np.int64)
        level = np.full(srows.size, LEVEL_CACHE, dtype=np.uint8)

        # Cached plane: all non-bypassed rows, one probed batch.
        kept_samples = srows[~s_byp]
        rows_w = None
        if byp is None:
            rows_w, res_w, dirty_w = sim.access_batch_probed(
                addr, size, is_write, kept_samples)
            watch = kept_samples
            self.slices += 1
        else:
            kept_idx = np.flatnonzero(~byp)
            watch = np.searchsorted(kept_idx, kept_samples)
            if kept_idx.size:
                if kept_samples.size:
                    rows_w, res_w, dirty_w = sim.access_batch_probed(
                        addr[kept_idx], size[kept_idx],
                        is_write[kept_idx], watch)
                else:
                    sim.access_batch(addr[kept_idx], size[kept_idx],
                                     is_write[kept_idx])
                self.slices += 1
        if rows_w is not None and rows_w.size:
            starts = np.searchsorted(rows_w, watch)
            miss_k = np.add.reduceat((~res_w).astype(np.int64), starts)
            clean_k = np.add.reduceat((~dirty_w).astype(np.int64),
                                      starts)
            kpos = np.flatnonzero(~s_byp)
            nonres[kpos] = miss_k
            dirty_new[kpos] = np.where(is_write[kept_samples],
                                       clean_k, 0)
            level[kpos] = np.where(miss_k > 0, LEVEL_MEMORY,
                                   LEVEL_CACHE)
        level[s_byp] = LEVEL_WCB

        # WCB plane: bypassed stores, sliced at bypassed sample rows.
        if byp is not None:
            b_idx = np.flatnonzero(byp)
            if b_idx.size:
                granule = sim.granule
                e_addr, e_size, _, e_rows = expand_to_sectors(
                    addr[b_idx], size[b_idx], is_write[b_idx], b_idx,
                    granule)
                cursor = 0
                for i in np.flatnonzero(s_byp).tolist():
                    p = int(srows[i])
                    j = int(np.searchsorted(e_rows, p))
                    if j > cursor:
                        sim._bypass_batch(e_addr[cursor:j],
                                          e_size[cursor:j])
                        self.slices += 1
                    cursor = j
                    # Pre-row write-combining walk, as in _sample.
                    wcb_new = 0
                    a, end_a = int(addr[p]), int(addr[p]) + int(size[p])
                    while a < end_a:
                        sector_end = (a // granule + 1) * granule
                        chunk = min(end_a, sector_end) - a
                        if sim.wcb_gathered_bytes(a) + chunk >= granule:
                            wcb_new += 1
                        a = min(end_a, sector_end)
                    dirty_new[i] = wcb_new
                if cursor < e_rows.size:
                    sim._bypass_batch(e_addr[cursor:], e_size[cursor:])
                    self.slices += 1

        # Counters and records, in sample-row order.
        acc_bit = (smask & (1 << CHANNEL_ACCESS)) != 0
        st_bit = ((smask & (1 << CHANNEL_STORE)) != 0) & is_write[srows]
        self.n_access_samples += int(np.count_nonzero(acc_bit))
        self.fetch_sectors += int(nonres[acc_bit].sum())
        for i in np.flatnonzero(acc_bit & (nonres > 0)).tolist():
            p = int(srows[i])
            line_id = int(addr[p]) // sim.line_bytes
            entry = self._line_fetches.get(line_id)
            if entry is None:
                self._line_fetches[line_id] = [
                    int(nonres[i]),
                    segment.streams[int(segment.stream_id[p])]]
            else:
                entry[0] += int(nonres[i])
        self.n_store_samples += int(np.count_nonzero(st_bit))
        self.wcb_events += int(dirty_new[st_bit & s_byp].sum())
        self.dirty_events += int(dirty_new[st_bit & ~s_byp].sum())
        space = self.config.max_records - len(self._rec["row"])
        k = min(max(space, 0), int(srows.size))
        if k:
            keep = srows[:k]
            rec = self._rec
            rec["row"].extend((base + keep).tolist())
            rec["addr"].extend(addr[keep].tolist())
            rec["size"].extend(size[keep].tolist())
            rec["stream_id"].extend(segment.stream_id[keep].tolist())
            rec["is_write"].extend(is_write[keep].tolist())
            rec["level"].extend(level[:k].tolist())
            rec["channel"].extend(smask[:k].tolist())
        self.records_dropped += int(srows.size) - k

    def _sample(self, channels: int, row: int, addr: int, size: int,
                is_write: bool, bypassed: bool, stream_id: int,
                streams) -> None:
        sim = self.sim
        granule = sim.granule
        if bypassed:
            # Bypassed store: no cache interaction; a write-combining
            # sector completed by this store drains as one write
            # transaction.
            level = LEVEL_WCB
            wcb_new = 0
            a, end = addr, addr + size
            while a < end:
                sector_end = (a // granule + 1) * granule
                chunk = min(end, sector_end) - a
                if sim.wcb_gathered_bytes(a) + chunk >= granule:
                    wcb_new += 1
                a = min(end, sector_end)
            nonres = 0
            dirty_new = wcb_new
        else:
            nonres = 0
            dirty_new = 0
            for resident, dirty in sim.probe(addr, size):
                if not resident:
                    nonres += 1
                if is_write and not dirty:
                    dirty_new += 1
            level = LEVEL_MEMORY if nonres else LEVEL_CACHE
        if channels & (1 << CHANNEL_ACCESS):
            self.n_access_samples += 1
            self.fetch_sectors += nonres
            if nonres:
                line_id = addr // sim.line_bytes
                entry = self._line_fetches.get(line_id)
                if entry is None:
                    self._line_fetches[line_id] = [
                        nonres, streams[stream_id]]
                else:
                    entry[0] += nonres
        if channels & (1 << CHANNEL_STORE) and is_write:
            self.n_store_samples += 1
            if bypassed:
                self.wcb_events += dirty_new
            else:
                self.dirty_events += dirty_new
        # One record per sample, shared when both channels landed on
        # the same row.
        if len(self._rec["row"]) < self.config.max_records:
            rec = self._rec
            rec["row"].append(row)
            rec["addr"].append(addr)
            rec["size"].append(size)
            rec["stream_id"].append(stream_id)
            rec["is_write"].append(is_write)
            rec["level"].append(level)
            rec["channel"].append(channels)
        else:
            self.records_dropped += 1

    # ------------------------------------------------------- results
    def exact_traffic(self) -> TrafficCounters:
        """Ground-truth traffic of the replay (equals the exact
        engine's for the same nest — the ablation reference)."""
        return self.sim.traffic

    def estimated_traffic(self) -> TrafficEstimate:
        granule = self.sim.granule
        read = 0.0
        if self.n_access_samples:
            read = (granule * self.fetch_sectors
                    * self.accesses_observed / self.n_access_samples)
        write = 0.0
        if self.n_store_samples:
            write = (granule * (self.dirty_events + self.wcb_events)
                     * self.stores_observed / self.n_store_samples)
        return TrafficEstimate(read_bytes=read, write_bytes=write)

    def relative_errors(
            self, reference: Optional[TrafficCounters] = None
    ) -> Dict[str, float]:
        """Estimate error vs a reference (default: the exact replay)."""
        ref = reference if reference is not None else self.exact_traffic()
        est = self.estimated_traffic()

        def _rel(got: float, true: float) -> float:
            return abs(got - true) / true if true else float(got != 0)

        return {
            "read": _rel(est.read_bytes, ref.read_bytes),
            "write": _rel(est.write_bytes, ref.write_bytes),
            "total": _rel(est.total_bytes,
                          ref.read_bytes + ref.write_bytes),
        }

    def records(self) -> Dict[str, np.ndarray]:
        """Columnar sample records (copies)."""
        rec = self._rec
        return {
            "row": np.asarray(rec["row"], dtype=np.int64),
            "addr": np.asarray(rec["addr"], dtype=np.int64),
            "size": np.asarray(rec["size"], dtype=np.int64),
            "stream_id": np.asarray(rec["stream_id"], dtype=np.int16),
            "is_write": np.asarray(rec["is_write"], dtype=bool),
            "level": np.asarray(rec["level"], dtype=np.uint8),
            "channel": np.asarray(rec["channel"], dtype=np.uint8),
        }

    def hot_lines(self, top: int = 10) -> List[Dict[str, object]]:
        """Per-address heatmap: the cache lines with the largest
        estimated fetch traffic (the attribution the exact counters
        cannot provide)."""
        scale = (self.accesses_observed / self.n_access_samples
                 if self.n_access_samples else 0.0)
        granule = self.sim.granule
        ranked = sorted(self._line_fetches.items(),
                        key=lambda kv: (-kv[1][0], kv[0]))
        return [{
            "line_addr": line_id * self.sim.line_bytes,
            "stream": entry[1],
            "est_read_bytes": entry[0] * granule * scale,
            "samples": entry[0],
        } for line_id, entry in ranked[:top]]

    @property
    def n_samples(self) -> int:
        return self.n_access_samples + self.n_store_samples

    @property
    def records_kept(self) -> int:
        return len(self._rec["row"])

    def overhead(self) -> Dict[str, int]:
        """Observer-side cost counters (the "overhead" axis of the
        accuracy-vs-overhead ablation)."""
        return {
            "samples": self.n_samples,
            "access_samples": self.n_access_samples,
            "store_samples": self.n_store_samples,
            "records_kept": self.records_kept,
            "records_dropped": self.records_dropped,
            "skid_dropped": self.skid_dropped,
            "replay_slices": self.slices,
            "span_guard_fallbacks": self.span_guard_fallbacks,
        }
