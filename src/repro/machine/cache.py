"""Exact sectored, set-associative cache simulator.

This is the ground-truth model used to validate the fast analytic
traffic laws in :mod:`repro.engine.analytic` (see DESIGN.md §6). It
models a POWER9-style L3 slice:

* tags are kept at *line* granularity (128 B by default) with true LRU
  replacement within each set;
* data is fetched from memory at *sector* (granule) granularity (64 B,
  i.e. half lines), matching the POWER9 ability to "fetch only 64 bytes
  of data (half cache lines)";
* stores either *write-allocate* (read-for-ownership traffic for the
  missing sector, then dirty write-back on eviction) or *bypass* the
  cache entirely through a write-combining buffer that gathers
  consecutive bytes and emits one 64 B transaction per touched sector.

The simulator exposes byte-accurate read/write memory-traffic counters
via :class:`TrafficCounters`, which the nest counter block consumes.

Two access paths produce identical results (differential-tested):

* :meth:`CacheSim.access` — the scalar per-access oracle, one Python
  call per access;
* :meth:`CacheSim.access_batch` — the columnar fast path. Accesses
  arrive as NumPy arrays, are sector-expanded vectorized, and are
  processed in chunks: sets whose chunk touches only sectors resident
  at chunk entry perform no installs or evictions, so their accesses
  are all hits and are retired wholesale with array ops ("calm"
  sets); the remaining ("turbulent") sets are replayed exactly, in
  per-set program order. Under LRU that replay is a reuse-distance
  computation made of array passes (Mattson's stack property: a line
  access hits iff fewer than ``assoc`` distinct lines of its set were
  touched since its previous touch); FIFO, which has no stack
  property, replays runs of same-sector accesses in a Python loop.

Exactness of the split rests on two facts: replacement state is
*per-set* (sets never interact), and a set with zero non-resident
touches in a chunk cannot install, hence cannot evict, hence its
residency is frozen for the chunk. Recency bookkeeping for calm sets
is scattered into a dense ``last_use`` overlay array; the authoritative
per-line stamp is reconciled as ``max(line stamp, overlay stamp)``,
which is exact because the access clock is monotonic.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import SimulationError
from .config import CacheConfig

#: Ceiling (in sector ids) under which residency is tracked in a dense
#: boolean bitmap (fast gather); larger/negative address spaces fall
#: back to the generic per-set replay path.
BITMAP_SECTOR_LIMIT = 1 << 26

#: Default number of sector accesses processed per vectorized chunk.
DEFAULT_BATCH_CHUNK = 1 << 18


@dataclasses.dataclass
class TrafficCounters:
    """Accumulated memory traffic in bytes (64 B transaction multiples)."""

    read_bytes: int = 0
    write_bytes: int = 0

    def add(self, other: "TrafficCounters") -> None:
        self.read_bytes += other.read_bytes
        self.write_bytes += other.write_bytes

    def scaled(self, factor: float) -> "TrafficCounters":
        return TrafficCounters(
            read_bytes=int(round(self.read_bytes * factor)),
            write_bytes=int(round(self.write_bytes * factor)),
        )

    @property
    def total_bytes(self) -> int:
        return self.read_bytes + self.write_bytes

    def __iter__(self):
        yield self.read_bytes
        yield self.write_bytes


class _Line:
    """State of one resident cache line (valid/dirty bits per sector,
    plus the recency stamp replacement decisions compare)."""

    __slots__ = ("valid_mask", "dirty_mask", "last_use")

    def __init__(self, valid_mask: int = 0, dirty_mask: int = 0,
                 last_use: int = 0) -> None:
        self.valid_mask = valid_mask
        self.dirty_mask = dirty_mask
        self.last_use = last_use


def _floordiv(arr: np.ndarray, divisor: int) -> np.ndarray:
    """``arr // divisor`` using a shift when the divisor is a power of
    two (measurably faster on the multi-million-entry batch columns)."""
    if divisor & (divisor - 1) == 0:
        return arr >> (divisor.bit_length() - 1)
    return arr // divisor


def _mod(arr: np.ndarray, divisor: int) -> np.ndarray:
    if divisor & (divisor - 1) == 0:
        return arr & (divisor - 1)
    return arr % divisor


def expand_to_sectors(
    addr: np.ndarray,
    size: np.ndarray,
    is_write: np.ndarray,
    bypass: Optional[np.ndarray],
    granule: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Split accesses at sector boundaries, fully vectorized.

    Returns ``(addr, size, is_write, bypass)`` columns in which no
    entry crosses a ``granule`` boundary — the batch equivalent of the
    scalar splitting loop in :meth:`CacheSim.access`. When no access
    straddles a boundary the inputs are returned unchanged; a ``None``
    bypass column (all-False) stays ``None``.
    """
    if addr.size == 0:
        return addr, size, is_write, bypass
    if granule & (granule - 1) == 0:
        # Cheap no-split detection (the common aligned-element case).
        if int((((addr & (granule - 1)) + size)).max()) <= granule:
            return addr, size, is_write, bypass
    first = _floordiv(addr, granule)
    last = _floordiv(addr + size - 1, granule)
    counts = last - first + 1
    if int(counts.max()) == 1:
        return addr, size, is_write, bypass
    total = int(counts.sum())
    idx = np.repeat(np.arange(addr.size, dtype=np.int64), counts)
    run_start = np.cumsum(counts) - counts
    k = np.arange(total, dtype=np.int64) - np.repeat(run_start, counts)
    sec = first[idx] + k
    start = np.maximum(addr[idx], sec * granule)
    end = np.minimum((addr + size)[idx], (sec + 1) * granule)
    return (start, end - start, is_write[idx],
            None if bypass is None else bypass[idx])


#: What a replay returns for "no watched entries".
_NO_WATCH = (np.empty(0, dtype=np.int64), np.empty(0, dtype=bool),
             np.empty(0, dtype=bool))


def _fewer_distinct(ci: np.ndarray, pr: np.ndarray, nxt: np.ndarray,
                    assoc: int) -> np.ndarray:
    """For each run ``ci`` of the combined run sequence whose line's
    previous run ``pr`` lies more than ``assoc`` runs back: do fewer
    than ``assoc`` distinct lines lie strictly between the two?

    Counts backwards from ``ci`` in blocks of offsets. A run ``j`` in
    the window brings a line not yet counted iff that line's next run
    is ``ci`` or later (``nxt[j] >= ci``). A row leaves the loop as a
    miss once its count reaches ``assoc``, or as a hit once a block
    passes ``pr``; the rows still counting shrink every block.
    """
    out = np.empty(ci.size, dtype=bool)
    rows = np.arange(ci.size)
    count = np.zeros(ci.size, dtype=np.int32)
    d = 1
    while rows.size:
        # Blocks of 64 offsets (at least assoc), fewer for many rows.
        width = min(max(assoc, min(64, (1 << 19) // rows.size)), nxt.size)
        lo = ci - (d + width - 1)
        inside = lo > pr
        whole = np.flatnonzero(inside)
        if whole.size:
            # Blocks inside the window: rows of a strided view.
            block = sliding_window_view(nxt, width)[lo[whole]]
            count[whole] += np.count_nonzero(block >= ci[whole, None],
                                             axis=1)
        part = np.flatnonzero(~inside)
        if part.size:
            j = ci[part, None] - np.arange(d, d + width, dtype=ci.dtype)
            new = nxt[np.maximum(j, 0)] >= ci[part, None]
            new &= j > pr[part, None]
            count[part] += np.count_nonzero(new, axis=1)
        d += width
        miss = count >= assoc
        done = miss | (ci - d <= pr)
        out[rows[done]] = ~miss[done]
        keep = ~done
        rows, ci, pr, count = rows[keep], ci[keep], pr[keep], count[keep]
    return out


def _clear_sectors(bitmap: np.ndarray, base: int, mask: int) -> None:
    """Clear the bits of the sectors ``base + i`` for each bit ``i`` of
    ``mask``, skipping sectors outside the bitmap."""
    while mask:
        low = mask & -mask
        sid = base + low.bit_length() - 1
        if 0 <= sid < bitmap.size:
            bitmap[sid] = False
        mask ^= low


def _check_chunk_size(chunk_size) -> None:
    if (isinstance(chunk_size, bool)
            or not isinstance(chunk_size, (int, np.integer))
            or chunk_size <= 0):
        raise SimulationError(
            f"chunk_size must be a positive integer, got {chunk_size!r}")


def _prefix_state(sec: np.ndarray, w: np.ndarray,
                  wpos: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per watched position ``p``: was ``sec[p]`` touched (written)
    at any strictly earlier position of this chunk?

    Only positions whose sector is one of the watched sectors enter
    the sort, so the cost scales with the watched sectors' touch
    count, not the chunk size. Stable argsort by sector groups each
    sector's touches in program order; "earlier touch" is then
    "not the group head" and "earlier write" an exclusive per-group
    prefix sum of the write flags.
    """
    wsec = np.unique(sec[wpos])
    loc = np.searchsorted(wsec, sec)
    np.clip(loc, 0, wsec.size - 1, out=loc)
    sub = np.flatnonzero(wsec[loc] == sec)
    s_order = np.argsort(sec[sub], kind="stable")
    s_sec = sec[sub][s_order]
    s_w = w[sub][s_order]
    n = s_sec.size
    gs = np.empty(n, dtype=bool)
    gs[0] = True
    np.not_equal(s_sec[1:], s_sec[:-1], out=gs[1:])
    gidx = np.maximum.accumulate(
        np.where(gs, np.arange(n, dtype=np.int64), 0))
    cw = np.cumsum(s_w) - s_w  # exclusive running write count
    e_touch_sorted = ~gs
    e_write_sorted = (cw - cw[gidx]) > 0
    e_touch = np.empty(n, dtype=bool)
    e_write = np.empty(n, dtype=bool)
    e_touch[s_order] = e_touch_sorted
    e_write[s_order] = e_write_sorted
    at = np.searchsorted(sub, wpos)
    return e_touch[at], e_write[at]


class CacheSim:
    """Exact sectored set-associative cache with LRU replacement.

    Addresses are plain byte addresses in a flat simulated address
    space; allocation of that space is managed by the engine layer.
    """

    #: Supported replacement policies.
    POLICIES = ("lru", "fifo")

    def __init__(self, config: CacheConfig, policy: str = "lru"):
        if policy not in self.POLICIES:
            raise SimulationError(
                f"unknown replacement policy {policy!r}; "
                f"choose from {self.POLICIES}")
        self.policy = policy
        self.config = config
        self.line_bytes = config.line_bytes
        self.granule = config.granule_bytes
        self.sectors_per_line = config.line_bytes // config.granule_bytes
        self.n_sets = config.n_sets
        self.assoc = config.associativity
        # One dict per set: tag (= global line id) -> _Line. Recency is
        # carried by the monotonic access clock stamped into each line;
        # the replacement victim is the minimum effective stamp.
        self._sets: Tuple[Dict[int, _Line], ...] = tuple(
            {} for _ in range(self.n_sets)
        )
        self.traffic = TrafficCounters()
        # Write-combining buffer for bypassed (streaming) stores:
        # sector address -> count of bytes gathered.
        self._wcb: Dict[int, int] = {}
        self.stats_hits = 0
        self.stats_misses = 0
        # Monotonic access clock (never reset — monotonicity makes the
        # dense recency overlay below exact under max-reconciliation).
        self._clock = 0
        # Residency bitmap over sector ids (batch fast path) and the
        # dense last_use overlay over line ids; both lazily allocated.
        self._res_bitmap: Optional[np.ndarray] = None
        self._res_stale = True
        self._lu_dense: Optional[np.ndarray] = None
        # Dirty bitmap over sector ids: rebuilt at the start of every
        # watched batch (access_batch_probed) and maintained only for
        # its duration, so the unwatched hot paths never pay for it.
        self._dirty_bitmap: Optional[np.ndarray] = None
        self._dirty_active = False
        # int32 scratch over sector ids for first-touch detection.
        self._scratch: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # address helpers
    # ------------------------------------------------------------------
    def _split(self, addr: int) -> Tuple[int, int, int]:
        """Return (set index, tag, sector index within line) for ``addr``."""
        line_id = addr // self.line_bytes
        sector = (addr % self.line_bytes) // self.granule
        return line_id % self.n_sets, line_id, sector

    def _effective_last_use(self, tag: int, line: _Line) -> int:
        """Authoritative recency: per-line stamp reconciled against the
        dense overlay written by the batch calm path (max is exact
        because the clock is monotonic)."""
        stamp = line.last_use
        lud = self._lu_dense
        if lud is not None and 0 <= tag < lud.size:
            overlay = int(lud[tag])
            if overlay > stamp:
                return overlay
        return stamp

    # ------------------------------------------------------------------
    # core scalar access path (the oracle)
    # ------------------------------------------------------------------
    def access(self, addr: int, size: int, is_write: bool,
               bypass: bool = False) -> None:
        """Perform one memory access of ``size`` bytes at ``addr``.

        Accesses are split at sector boundaries; each sector is handled
        independently (hardware would do the same via separate beats).
        """
        if size <= 0:
            raise SimulationError(f"access size must be positive, got {size}")
        end = addr + size
        while addr < end:
            sector_end = (addr // self.granule + 1) * self.granule
            chunk = min(end, sector_end) - addr
            self._access_sector(addr, chunk, is_write, bypass)
            addr += chunk

    def _access_sector(self, addr: int, size: int, is_write: bool,
                       bypass: bool) -> None:
        if is_write and bypass:
            self._bypass_store(addr, size)
            return
        set_idx, tag, sector = self._split(addr)
        cache_set = self._sets[set_idx]
        line = cache_set.get(tag)
        sector_bit = 1 << sector
        self._clock += 1
        if line is not None and line.valid_mask & sector_bit:
            # sector hit; LRU refreshes recency, FIFO does not.
            if self.policy == "lru":
                line.last_use = self._clock
            if is_write:
                line.dirty_mask |= sector_bit
            self.stats_hits += 1
            return
        self.stats_misses += 1
        self._res_stale = True
        if line is None:
            line = self._install(cache_set, tag)
        elif self.policy == "lru":
            line.last_use = self._clock
        # Demand fetch of the missing sector (read-for-ownership applies
        # to write-allocate stores as well — this is the "read per
        # write" the paper observes for cached stores).
        self.traffic.read_bytes += self.granule
        line.valid_mask |= sector_bit
        if is_write:
            line.dirty_mask |= sector_bit

    def _install(self, cache_set: Dict[int, _Line], tag: int) -> _Line:
        """Insert a new line, evicting the stalest line if the set is
        full (minimum effective recency stamp: LRU victim under "lru",
        oldest install under "fifo")."""
        if len(cache_set) >= self.assoc:
            victim_tag = min(
                cache_set,
                key=lambda t: self._effective_last_use(t, cache_set[t]),
            )
            self._write_back(cache_set.pop(victim_tag))
        line = _Line()
        line.last_use = self._clock
        cache_set[tag] = line
        return line

    def _write_back(self, line: _Line) -> None:
        mask = line.dirty_mask
        while mask:
            mask &= mask - 1  # clear lowest set bit; one sector written
            self.traffic.write_bytes += self.granule

    # ------------------------------------------------------------------
    # streaming (cache-bypassing) stores
    # ------------------------------------------------------------------
    def _bypass_store(self, addr: int, size: int) -> None:
        """Gather a bypassed store into the write-combining buffer.

        Full sectors (or the gathered fragments of one) are emitted to
        memory as single 64 B write transactions when the buffer is
        drained; no read-for-ownership traffic occurs. This reproduces
        the POWER9 behaviour where stride-free store streams bypass the
        cache ("the writes indeed bypass the cache").
        """
        sector_addr = (addr // self.granule) * self.granule
        self._wcb[sector_addr] = self._wcb.get(sector_addr, 0) + size
        if self._wcb[sector_addr] >= self.granule:
            del self._wcb[sector_addr]
            self.traffic.write_bytes += self.granule
        elif len(self._wcb) > 64:
            # Hardware WCBs are small; drain the oldest entry as a full
            # transaction when the buffer overflows.
            old_addr = next(iter(self._wcb))
            del self._wcb[old_addr]
            self.traffic.write_bytes += self.granule

    # ------------------------------------------------------------------
    # columnar batch access path
    # ------------------------------------------------------------------
    def access_batch(self, addr, size, is_write, bypass=None, *,
                     chunk_size: int = DEFAULT_BATCH_CHUNK) -> None:
        """Process a columnar trace; bit-identical to looping
        :meth:`access` over the same rows, but vectorized.

        ``addr``/``size`` are integer arrays, ``is_write``/``bypass``
        boolean arrays (``bypass`` may be ``None`` for all-False). The
        traffic counters, hit/miss statistics, final line state, and
        replacement order all end up exactly as the scalar path would
        leave them (property-tested in ``tests/test_engine_batch.py``).
        """
        _check_chunk_size(chunk_size)
        addr = np.ascontiguousarray(addr, dtype=np.int64)
        size = np.ascontiguousarray(size, dtype=np.int64)
        is_write = np.ascontiguousarray(is_write, dtype=bool)
        n = addr.size
        if size.size != n or is_write.size != n:
            raise SimulationError(
                "access_batch columns must have equal lengths")
        if n == 0:
            return
        if int(size.min()) <= 0:
            raise SimulationError(
                f"access size must be positive, got {int(size.min())}")
        if bypass is None:
            c_addr, _, c_write, _ = expand_to_sectors(
                addr, size, is_write, None, self.granule)
        else:
            bypass = np.ascontiguousarray(bypass, dtype=bool)
            if bypass.size != n:
                raise SimulationError(
                    "access_batch columns must have equal lengths")
            c_addr, c_size, c_write, c_byp = expand_to_sectors(
                addr, size, is_write, bypass, self.granule)
            wcb_mask = c_write & c_byp
            if wcb_mask.any():
                self._bypass_batch(c_addr[wcb_mask], c_size[wcb_mask])
                keep = ~wcb_mask
                c_addr = c_addr[keep]
                c_write = c_write[keep]
        if c_addr.size:
            self._cached_batch(c_addr, c_write, chunk_size)

    def access_batch_probed(self, addr, size, is_write, watch, *,
                            chunk_size: int = DEFAULT_BATCH_CHUNK
                            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Process a columnar (non-bypass) trace exactly like
        :meth:`access_batch` while extracting, for every row index in
        ``watch``, the pre-access per-sector cache state.

        Returns ``(rows, resident, dirty)``: one entry per sector
        touched by a watched row, in program order — ``rows[i]`` is
        the watched row index, ``resident[i]``/``dirty[i]`` the state
        :meth:`probe` would have reported for that sector immediately
        *before* the row executed. This is the sampling observer's
        vectorized replacement for its per-sample
        replay-slice-then-``probe`` loop; the simulator ends in the
        identical state either way.

        Caveat: a watched row spanning ``n_sets`` or more cache lines
        could self-interfere (an early sector's eviction changing a
        later sector's set) in a way the in-batch extraction resolves
        at sector granularity while ``probe``-before-row would not.
        Callers guard against this (the observer falls back to its
        scalar replay for such segments); rows that wide do not occur
        in practice — it would take a single access touching
        ``n_sets * line_bytes`` contiguous bytes.
        """
        _check_chunk_size(chunk_size)
        addr = np.ascontiguousarray(addr, dtype=np.int64)
        size = np.ascontiguousarray(size, dtype=np.int64)
        is_write = np.ascontiguousarray(is_write, dtype=bool)
        n = addr.size
        if size.size != n or is_write.size != n:
            raise SimulationError(
                "access_batch columns must have equal lengths")
        watch = np.asarray(watch)
        if watch.size and watch.dtype.kind not in "iu":
            raise SimulationError(
                f"watch must hold integer row indices, got dtype "
                f"{watch.dtype}")
        watch = np.unique(watch.astype(np.int64))
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=bool),
                 np.empty(0, dtype=bool))
        if n == 0:
            if watch.size:
                raise SimulationError("watch row indices out of range")
            return empty
        if watch.size and (watch[0] < 0 or watch[-1] >= n):
            raise SimulationError("watch row indices out of range")
        if int(size.min()) <= 0:
            raise SimulationError(
                f"access size must be positive, got {int(size.min())}")
        rows = np.arange(n, dtype=np.int64)
        c_addr, _, c_write, c_rows = expand_to_sectors(
            addr, size, is_write, rows, self.granule)
        if not watch.size:
            self._cached_batch(c_addr, c_write, chunk_size)
            return empty
        loc = np.searchsorted(watch, c_rows)
        np.clip(loc, 0, watch.size - 1, out=loc)
        c_watch = watch[loc] == c_rows
        res_pre, dirty_pre = self._cached_batch(
            c_addr, c_write, chunk_size, watch=c_watch)
        return c_rows[c_watch], res_pre, dirty_pre

    # -- cached (non-bypass) entries -----------------------------------
    def _cached_batch(self, c_addr: np.ndarray, c_write: np.ndarray,
                      chunk_size: int,
                      watch: Optional[np.ndarray] = None):
        """Chunked vectorized simulation; with ``watch`` (a boolean
        mask over the expanded entries) also extracts each watched
        entry's pre-access (resident, dirty) state and returns the
        two arrays, ordered by entry position.

        Watched-state extraction rides the existing chunk
        classification: in eviction-free sets residency only grows
        and dirty bits only accrue, so pre-state is ``state at chunk
        entry OR touched/written earlier in the chunk`` (two gathers
        plus a prefix scan over the watched sectors' touches);
        turbulent sets get it from the exact replay. Dirty bits at
        chunk entry come from a dirty bitmap that exists only while a
        watched batch runs.
        """
        sec = _floordiv(c_addr, self.granule)
        lo = int(sec.min())
        hi = int(sec.max())
        use_bitmap = lo >= 0 and hi < BITMAP_SECTOR_LIMIT
        if use_bitmap:
            self._ensure_residency(hi)
            self._ensure_lu_overlay(hi // self.sectors_per_line)
        else:
            # Sectors outside the bitmap's window: the replays keep
            # the bitmap only while it is fresh, so rebuild it later.
            self._res_stale = True
        res_out = dirty_out = None
        if watch is not None:
            n_watched = int(watch.sum())
            res_out = np.empty(n_watched, dtype=bool)
            dirty_out = np.empty(n_watched, dtype=bool)
            if use_bitmap:
                self._ensure_dirty(hi)
                self._dirty_active = True
        replay = (self._replay_lru if self.policy == "lru"
                  else self._replay_fifo)
        wbase = 0
        # Entry i is stamped t0 + i: the clock value the scalar path
        # would give it (it advances the clock before stamping).
        t0 = self._clock + 1
        hits = 0
        spl = self.sectors_per_line
        for start in range(0, sec.size, chunk_size):
            chunk = sec[start:start + chunk_size]
            w = c_write[start:start + chunk_size]
            wpos = None
            if watch is not None:
                cw_mask = watch[start:start + chunk_size]
                if cw_mask.any():
                    wpos = np.flatnonzero(cw_mask)
                    slot0 = wbase
                    wbase += wpos.size
            lines = _floordiv(chunk, spl)
            if not use_bitmap:
                # No residency bitmap → the whole chunk replays
                # exactly, watched entries included.
                pos = t0 + start + np.arange(chunk.size, dtype=np.int64)
                out = replay(chunk, w, pos, lines, _mod(lines, self.n_sets),
                             None if wpos is None else cw_mask)
                if wpos is None:
                    hits += out
                else:
                    hits += out[0]
                    slots = slot0 + np.searchsorted(wpos, out[1])
                    res_out[slots] = out[2]
                    dirty_out[slots] = out[3]
                continue
            resident = self._res_bitmap[chunk]
            if wpos is not None:
                # Entry-state gathers must precede any mutation below.
                ent_res = resident[wpos]
                ent_dirty = self._dirty_bitmap[chunk[wpos]]
            if resident.all():
                hits += chunk.size
                self._apply_dirty(chunk, w, None)
                self._scatter_recency(lines, t0 + start)
                if wpos is not None:
                    _, e_write = _prefix_state(chunk, w, wpos)
                    res_out[slot0:slot0 + wpos.size] = True
                    dirty_out[slot0:slot0 + wpos.size] = ent_dirty | e_write
                continue
            # Only the first touch of a non-resident sector can miss in
            # a set that cannot evict: it installs the sector, and with
            # no eviction residency only grows, so every later touch in
            # the chunk hits. Their lines tell which sets could evict.
            nr_idx = np.flatnonzero(~resident)
            first = self._first_touch(chunk[nr_idx])
            fresh = nr_idx[first]
            later = nr_idx[~first]
            new_lines = lines[fresh]
            new_lines = new_lines[self._first_touch(new_lines)]
            new_counts = np.bincount(_mod(new_lines, self.n_sets),
                                     minlength=self.n_sets)
            new_sets = np.flatnonzero(new_counts)
            sets_local = self._sets
            assoc = self.assoc
            evicting = [
                s for s, c in zip(new_sets.tolist(),
                                  new_counts[new_sets].tolist())
                if len(sets_local[s]) + c > assoc
            ]
            calm_w = None
            if evicting:
                # Sets where an eviction could occur replay in full;
                # elsewhere only the first touches replay.
                turb_dense = np.zeros(self.n_sets, dtype=bool)
                turb_dense[evicting] = True
                turb = turb_dense[_mod(lines, self.n_sets)]
                later = later[~turb[later]]
                sel = turb.copy()
                sel[fresh[~turb[fresh]]] = True
                r_idx = np.flatnonzero(sel)
                calm_sel = resident & ~turb
                hits += int(np.count_nonzero(calm_sel))
                self._apply_dirty(chunk, w, calm_sel)
                r_watch = None
                if wpos is not None:
                    r_watch = cw_mask[r_idx] & turb[r_idx]
                    calm_w = np.flatnonzero(~turb[wpos])
            else:
                r_idx = fresh
                hits += chunk.size - nr_idx.size
                self._apply_dirty(chunk, w, resident)
                r_watch = None
                if wpos is not None:
                    calm_w = np.arange(wpos.size)
            hits += later.size
            out = replay(chunk[r_idx], w[r_idx], t0 + start + r_idx,
                         lines[r_idx], _mod(lines[r_idx], self.n_sets),
                         r_watch)
            if r_watch is None:
                hits += out
            else:
                hits += out[0]
                slots = slot0 + np.searchsorted(wpos, r_idx[out[1]])
                res_out[slots] = out[2]
                dirty_out[slots] = out[3]
            if calm_w is not None and calm_w.size:
                e_touch, e_write = _prefix_state(chunk, w, wpos[calm_w])
                slots = slot0 + calm_w
                res_out[slots] = ent_res[calm_w] | e_touch
                dirty_out[slots] = ent_dirty[calm_w] | e_write
            if later.size:
                # Later touches of freshly installed sectors: hits
                # whose dirty bits need the lines the replay made.
                self._apply_dirty(chunk[later], w[later], None)
            # Recency scatter strictly AFTER the replays, which read
            # the overlay as the stamps at chunk entry.
            self._scatter_recency(lines, t0 + start)
        self._clock = t0 + sec.size - 1
        self.stats_hits += hits
        if watch is not None:
            self._dirty_active = False
            return res_out, dirty_out
        return None

    def _first_touch(self, keys: np.ndarray) -> np.ndarray:
        """Mask of the entries of ``keys`` (non-negative, below the
        residency bitmap's size) that hold their key's first
        occurrence. A reverse-order scatter of entry indices into an
        int32 scratch leaves each key's first index; no sort."""
        scratch = self._scratch
        if scratch is None or scratch.size < self._res_bitmap.size:
            scratch = self._scratch = np.empty(self._res_bitmap.size,
                                               dtype=np.int32)
        idx = np.arange(keys.size, dtype=np.int32)
        scratch[keys[::-1]] = idx[::-1]
        return scratch[keys] == idx

    def _scatter_recency(self, lines: np.ndarray, base: int) -> None:
        """Record this chunk's touch times in the dense last_use
        overlay. With duplicate indices NumPy keeps the last value
        written — the latest touch of each line, which is exactly LRU
        recency; replayed lines also stamp the line directly and
        max-reconciliation picks the later of the two. FIFO never
        refreshes recency, so it skips the scatter."""
        if self.policy == "lru":
            self._lu_dense[lines] = \
                base + np.arange(lines.size, dtype=np.int64)

    def _apply_dirty(self, sec: np.ndarray, w: np.ndarray,
                     select: Optional[np.ndarray]) -> None:
        """OR dirty bits into resident lines for written hit accesses
        (``select`` restricts to the non-replayed subset)."""
        if not w.any():
            return
        written = w if select is None else (w & select)
        if self._dirty_active:
            self._dirty_bitmap[sec[written]] = True
        spl = self.sectors_per_line
        for sid in np.unique(sec[written]).tolist():
            tag = sid // spl
            line = self._sets[tag % self.n_sets][tag]
            line.dirty_mask |= 1 << (sid % spl)

    def _replay_lru(self, sec, w, pos, lines, sets_arr, watch=None):
        """Replay entries exactly under LRU, by reuse distance.

        The inputs hold, for each set they touch, either every entry
        of the chunk or (in a set that cannot evict) its first touches
        of non-resident sectors. Entries are ordered by set, program
        order within a set, and each touched set's resident lines are
        prepended oldest-first by effective stamp. A line-run (maximal
        block of one line's entries) then hits iff fewer than
        ``assoc`` distinct lines lie between it and its line's
        previous run (Mattson's stack property; :func:`_fewer_distinct`
        decides the long windows). A miss starts a line lifetime and
        hits continue it. A sector is valid from its first touch in a
        lifetime, or from the start for a prepended line's valid
        sectors, so fetches, dirty bits, write-backs, the lines left
        resident and watched pre-states all follow with array ops.
        Python reads and writes ``_sets`` once per touched set
        (DESIGN.md §6.1).

        Returns the number of hits; with ``watch`` (boolean mask over
        the inputs) ``(hits, in_idx, res_pre, dirty_pre)``: for each
        watched entry (``in_idx`` indexes the inputs) the sector state
        just before it executed.
        """
        n = sec.size
        if n == 0:
            return 0 if watch is None else (0,) + _NO_WATCH
        spl = self.sectors_per_line
        assoc = self.assoc
        n_sets = self.n_sets
        order = np.argsort(
            sets_arr.astype(np.int16) if n_sets <= 1 << 15 else sets_arr,
            kind="stable")
        ln = lines[order]
        head = np.empty(n, dtype=bool)
        head[0] = True
        np.not_equal(ln[1:], ln[:-1], out=head[1:])
        run_of = np.cumsum(head, dtype=np.int32) - 1
        r_end = np.append(np.flatnonzero(head)[1:], n) - 1
        r_line = ln[r_end]
        del ln, head
        r_set = _mod(r_line, n_sets)
        m = r_line.size

        # The touched sets' resident lines, read once, oldest first.
        touched = r_set[np.append(0, np.flatnonzero(np.diff(r_set)) + 1)]
        sets_local = self._sets
        objs: List[_Line] = []
        tags: List[int] = []
        for s in touched.tolist():
            tags += sets_local[s].keys()
            objs += sets_local[s].values()
        k = len(tags)
        p_line = np.array(tags, dtype=np.int64)
        p_raw = np.array([o.last_use for o in objs], dtype=np.int64)
        p_stamp = p_raw.copy()
        lud = self._lu_dense
        if lud is not None and k:
            inr = np.flatnonzero((p_line >= 0) & (p_line < lud.size))
            p_stamp[inr] = np.maximum(p_stamp[inr], lud[p_line[inr]])
        po = np.lexsort((p_stamp, _mod(p_line, n_sets)))
        p_line = p_line[po]
        p_set = _mod(p_line, n_sets)

        # Combined run sequence: per set, prepended lines, then runs.
        # Sorting it by line puts each line's runs in order, so a run's
        # predecessor there is its line's previous run.
        t = k + m
        real_ci = (np.arange(m, dtype=np.int64)
                   + np.searchsorted(p_set, r_set, side="right"))
        pseudo_ci = (np.arange(k, dtype=np.int64)
                     + np.searchsorted(r_set, p_set, side="left"))
        c_line = np.empty(t, dtype=np.int64)
        c_line[real_ci] = r_line
        c_line[pseudo_ci] = p_line
        c_lo = int(c_line.min())
        if (int(c_line.max()) - c_lo + 1) * t < 1 << 62:
            # Unique keys: the faster unstable sort keeps run order.
            by_line = np.argsort((c_line - c_lo) * t
                                 + np.arange(t, dtype=np.int64))
        else:
            by_line = np.argsort(c_line, kind="stable")
        same = c_line[by_line[1:]] == c_line[by_line[:-1]]
        nxt = np.full(t, t, dtype=np.int32)
        nxt[by_line[:-1][same]] = by_line[1:][same]

        # Line hit per run, in line order: certain when at most assoc-1
        # runs lie between it and its predecessor, else counted. A
        # miss, or a line's first (prepended or cold) run, starts a
        # lifetime; hits continue it.
        gap = np.diff(by_line)
        hit = np.zeros(t, dtype=bool)
        hit[1:] = same & (gap <= assoc)
        far = np.flatnonzero(same & (gap > assoc)) + 1
        del same, gap
        if far.size:
            hit[far] = _fewer_distinct(by_line[far].astype(np.int32),
                                       by_line[far - 1].astype(np.int32),
                                       nxt, assoc)
        c_life = np.empty(t, dtype=np.int32)
        c_life[by_line] = np.cumsum(~hit, dtype=np.int32) - 1
        n_life = int(c_life[by_line[-1]]) + 1
        del by_line, hit
        life_line = np.empty(n_life, dtype=np.int64)
        life_line[c_life] = c_line

        # Sector state per (lifetime, sector) key.
        nk = n_life * spl
        key = c_life[real_ci][run_of] * spl
        key += _mod(sec[order], spl)
        del run_of
        init_v = np.zeros(nk, dtype=bool)
        init_d = np.zeros(nk, dtype=bool)
        p_key = c_life[pseudo_ci].astype(np.int64) * spl
        p_valid = np.array([o.valid_mask for o in objs], np.int64)[po]
        p_dirty = np.array([o.dirty_mask for o in objs], np.int64)[po]
        for b in range(spl):
            init_v[p_key + b] = (p_valid >> b) & 1
            init_d[p_key + b] = (p_dirty >> b) & 1
        idx = np.arange(n, dtype=np.int32)
        first = np.empty(nk, dtype=np.int32)
        first[key[::-1]] = idx[::-1]
        hit_e = init_v[key]
        hit_e |= first[key] < idx
        misses = n - int(np.count_nonzero(hit_e))
        w = w[order]
        valid = init_v.copy()
        valid[key] = True
        dirty = init_d.copy()
        dirty[key[w]] = True
        valid = valid.reshape(n_life, spl)
        dirty = dirty.reshape(n_life, spl)

        # Each set keeps its assoc most recently used lines; every
        # other lifetime ended in an eviction.
        last = np.flatnonzero(nxt == t)
        del nxt
        l_set = _mod(c_line[last], n_sets)
        rank = (np.searchsorted(l_set, l_set, side="right") - 1
                - np.arange(last.size))
        res_ci = last[rank < assoc]
        res_life = c_life[res_ci]
        ended = np.ones(n_life, dtype=bool)
        ended[res_life] = False
        writebacks = int(np.count_nonzero(dirty[ended]))
        for bmp, bits in ((self._res_bitmap, valid),
                          (self._dirty_bitmap if self._dirty_active
                           else None, dirty)):
            if bmp is None or self._res_stale:
                continue
            sids = life_line[:, None] * spl + np.arange(spl)
            for sel, value in ((ended, False), (res_life, True)):
                sid = sids[sel][bits[sel]]
                bmp[sid[(sid >= 0) & (sid < bmp.size)]] = value

        # Write the touched sets back: each kept line with its final
        # masks, stamped with its last entry's position (an untouched
        # line keeps its stamp).
        c_src = np.empty(t, dtype=np.int64)
        c_src[real_ci] = r_end
        c_src[pseudo_ci] = -1 - np.arange(k)
        src = c_src[res_ci]
        stamp = np.where(src >= 0, pos[order[np.maximum(src, 0)]],
                         p_raw[po[np.maximum(-1 - src, 0)]] if k else 0)
        weights = 1 << np.arange(spl)
        kept = list(map(_Line, (valid[res_life] @ weights).tolist(),
                        (dirty[res_life] @ weights).tolist(),
                        stamp.tolist()))
        res_tags = c_line[res_ci].tolist()
        cuts = np.searchsorted(l_set[rank < assoc], touched).tolist()
        for s, a, b in zip(touched.tolist(), cuts, cuts[1:] + [len(kept)]):
            cache_set = sets_local[s]
            cache_set.clear()
            cache_set.update(zip(res_tags[a:b], kept[a:b]))
        self.stats_misses += misses
        self.traffic.read_bytes += misses * self.granule
        self.traffic.write_bytes += writebacks * self.granule
        if watch is None:
            return n - misses
        ws = np.flatnonzero(watch[order])
        if not ws.size:
            return (n - misses,) + _NO_WATCH
        wi = np.flatnonzero(w)
        first[:] = n
        first[key[wi[::-1]]] = wi[::-1]
        kw = key[ws]
        res_pre = hit_e[ws]
        dirty_pre = res_pre & (init_d[kw] | (first[kw] < ws))
        return n - misses, order[ws], res_pre, dirty_pre

    def _replay_fifo(self, sec, w, pos, lines, sets_arr, watch=None):
        """Replay entries exactly under FIFO, in per-set program order,
        one Python iteration per run of consecutive same-sector
        entries. A FIFO hit does not refresh its line, so there is no
        stack property to vectorize on; victims are the oldest install
        stamp. Same inputs and returns as :meth:`_replay_lru`; a
        watched entry's pre-state is its run head's state before the
        head executed, promoted to resident for non-head members (the
        head fetched the sector and only hits lie between) and to
        dirty after an earlier same-run write.
        """
        order = np.argsort(sets_arr, kind="stable")
        sec = sec[order]
        n = sec.size
        if n == 0:
            return 0 if watch is None else (0,) + _NO_WATCH
        w = w[order]
        pos = pos[order]
        # A run = consecutive equal sector ids inside one set's
        # subsequence. Equal sector ids imply equal set, so a sector
        # change is the only boundary needed.
        bnd = np.empty(n, dtype=bool)
        bnd[0] = True
        np.not_equal(sec[1:], sec[:-1], out=bnd[1:])
        starts = np.flatnonzero(bnd)
        lengths = np.diff(np.append(starts, n))
        any_w = np.logical_or.reduceat(w, starts)
        head_pos = pos[starts]
        run_sec = sec[starts]
        spl = self.sectors_per_line
        run_tag = _floordiv(run_sec, spl)
        run_set = _mod(run_tag, self.n_sets)
        run_sector = _mod(run_sec, spl)

        watching = False
        if watch is not None:
            wsorted = np.flatnonzero(watch[order])
            if wsorted.size:
                watching = True
                runs_of = np.searchsorted(starts, wsorted,
                                          side="right") - 1
                need = np.zeros(starts.size, dtype=bool)
                need[runs_of] = True
                run_res = np.zeros(starts.size, dtype=bool)
                run_dirty = np.zeros(starts.size, dtype=bool)
        sets_local = self._sets
        bitmap = None if self._res_stale else self._res_bitmap
        dbitmap = self._dirty_bitmap if self._dirty_active else None
        assoc = self.assoc
        hits = 0
        misses = 0
        writebacks = 0
        for ri, (sid, tag, st, sct, anyw, ln, hp) in enumerate(zip(
                run_sec.tolist(), run_tag.tolist(), run_set.tolist(),
                run_sector.tolist(), any_w.tolist(), lengths.tolist(),
                head_pos.tolist())):
            cache_set = sets_local[st]
            line = cache_set.get(tag)
            bit = 1 << sct
            if line is not None and line.valid_mask & bit:
                if watching and need[ri]:
                    run_res[ri] = True
                    run_dirty[ri] = bool(line.dirty_mask & bit)
                hits += ln
                if anyw:
                    line.dirty_mask |= bit
                    if dbitmap is not None:
                        dbitmap[sid] = True
                continue
            # Head access misses; the rest of the run hits the sector
            # the head just fetched.
            misses += 1
            hits += ln - 1
            if line is None:
                if len(cache_set) >= assoc:
                    victim_tag = None
                    for t, cand in cache_set.items():
                        lu = cand.last_use
                        if victim_tag is None or lu < victim_lu:
                            victim_tag = t
                            victim_lu = lu
                    victim = cache_set.pop(victim_tag)
                    mask = victim.dirty_mask
                    writebacks += bin(mask).count("1")
                    for bmp, bits in ((bitmap, victim.valid_mask),
                                      (dbitmap, mask)):
                        if bmp is not None:
                            _clear_sectors(bmp, victim_tag * spl, bits)
                line = _Line(last_use=hp)
                cache_set[tag] = line
            line.valid_mask |= bit
            if anyw:
                line.dirty_mask |= bit
                if dbitmap is not None:
                    dbitmap[sid] = True
            if bitmap is not None:
                bitmap[sid] = True
        self.stats_misses += misses
        self.traffic.read_bytes += misses * self.granule
        self.traffic.write_bytes += writebacks * self.granule
        if not watching:
            return hits if watch is None else (hits,) + _NO_WATCH
        res_pre = run_res[runs_of] | (wsorted > starts[runs_of])
        cw = np.cumsum(w) - w  # exclusive write count, sorted domain
        in_run_w = (cw[wsorted] - cw[starts[runs_of]]) > 0
        dirty_pre = run_dirty[runs_of] | in_run_w
        return hits, order[wsorted], res_pre, dirty_pre

    # -- bypassed stores (write-combining buffer) ----------------------
    def _bypass_batch(self, c_addr: np.ndarray, c_size: np.ndarray) -> None:
        """Feed bypassed store chunks through the WCB, coalescing runs
        of consecutive same-sector stores.

        A run whose sector starts empty, whose chunk sizes are uniform
        divisors of the granule, and which cannot interact with the
        overflow drain is retired in closed form; anything irregular
        replays through the scalar WCB logic, so semantics (including
        partial-sector loss on over-accumulation and oldest-entry
        overflow drains) are preserved exactly.
        """
        granule = self.granule
        sec_addr = _floordiv(c_addr, granule) * granule
        n = sec_addr.size
        bnd = np.empty(n, dtype=bool)
        bnd[0] = True
        np.not_equal(sec_addr[1:], sec_addr[:-1], out=bnd[1:])
        starts = np.flatnonzero(bnd)
        lengths = np.diff(np.append(starts, n))
        totals = np.add.reduceat(c_size, starts)
        size_min = np.minimum.reduceat(c_size, starts)
        size_max = np.maximum.reduceat(c_size, starts)
        wcb = self._wcb
        emitted = 0
        for i, (sa, st, ln, tot, mn, mx) in enumerate(zip(
                sec_addr[starts].tolist(), starts.tolist(),
                lengths.tolist(), totals.tolist(),
                size_min.tolist(), size_max.tolist())):
            if (mn == mx and granule % mn == 0 and sa not in wcb
                    and len(wcb) < 64):
                # Uniform divisors accumulate to exactly the granule at
                # every firing point: no bytes lost, no overflow drain
                # possible (the buffer gains at most this one entry).
                emitted += tot // granule
                rem = tot % granule
                if rem:
                    wcb[sa] = rem
            else:
                for sz in c_size[st:st + ln].tolist():
                    self._bypass_store(sa, sz)
        self.traffic.write_bytes += emitted * granule

    # -- residency / recency maintenance -------------------------------
    def _ensure_residency(self, max_sector: int) -> None:
        """Guarantee the residency bitmap covers ``max_sector`` and
        reflects the current line state."""
        needed = max_sector + 1
        bitmap = self._res_bitmap
        if bitmap is None or self._res_stale or bitmap.size < needed:
            capacity = max(needed,
                           2 * (bitmap.size if bitmap is not None else 0))
            if bitmap is not None and not self._res_stale:
                grown = np.zeros(capacity, dtype=bool)
                grown[:bitmap.size] = bitmap
                self._res_bitmap = grown
                return
            self._res_bitmap = self._sector_bitmap(capacity, "valid_mask")
            self._res_stale = False

    def _ensure_dirty(self, max_sector: int) -> None:
        """Rebuild the dirty bitmap from line state. Unlike the
        residency bitmap it is not kept fresh between batches — each
        watched batch rebuilds it, keeping every unwatched path free
        of maintenance cost."""
        self._dirty_bitmap = self._sector_bitmap(max_sector + 1,
                                                 "dirty_mask")

    def _sector_bitmap(self, size: int, mask_attr: str) -> np.ndarray:
        """Bitmap over sector ids, at least ``size`` long, of the
        sectors set in ``mask_attr`` of every resident line whose
        sectors lie in the bitmap window (lines outside it, left by
        scalar or no-bitmap calls, are never touched by a bitmap-mode
        batch, and the replays skip them when they evict)."""
        spl = self.sectors_per_line
        marks = [(tag * spl, getattr(line, mask_attr))
                 for cache_set in self._sets
                 for tag, line in cache_set.items()
                 if 0 <= tag * spl < BITMAP_SECTOR_LIMIT]
        bitmap = np.zeros(max([size] + [b + spl for b, _ in marks]),
                          dtype=bool)
        for base, mask in marks:
            while mask:
                low = mask & -mask
                bitmap[base + low.bit_length() - 1] = True
                mask ^= low
        return bitmap

    def _ensure_lu_overlay(self, max_tag: int) -> None:
        needed = max_tag + 1
        lud = self._lu_dense
        if lud is None:
            self._lu_dense = np.zeros(
                max(needed, 1024), dtype=np.int64)
        elif lud.size < needed:
            grown = np.zeros(max(needed, 2 * lud.size), dtype=np.int64)
            grown[:lud.size] = lud
            self._lu_dense = grown

    # ------------------------------------------------------------------
    # bulk helpers used by the exact engine
    # ------------------------------------------------------------------
    def access_many(self, addrs: Iterable[int], size: int, is_write: bool,
                    bypass: bool = False) -> None:
        """Access each address in ``addrs`` with a fixed ``size``."""
        for a in addrs:
            self.access(int(a), size, is_write, bypass)

    def touch_array(self, base: int, count: int, elem_size: int,
                    stride: int, is_write: bool, bypass: bool = False) -> None:
        """Access ``count`` elements starting at ``base`` with ``stride``
        bytes between element starts (vector-described strided stream)."""
        addrs = base + stride * np.arange(count, dtype=np.int64)
        self.access_many(addrs.tolist(), elem_size, is_write, bypass)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Write back all dirty data and invalidate the cache; drain the
        write-combining buffer. Counts write-back traffic."""
        for cache_set in self._sets:
            for line in cache_set.values():
                self._write_back(line)
            cache_set.clear()
        for _ in list(self._wcb):
            self.traffic.write_bytes += self.granule
        self._wcb.clear()
        self._res_stale = True

    def invalidate(self) -> None:
        """Drop all cache state *without* counting write-back traffic
        (used between independent experiment repetitions)."""
        for cache_set in self._sets:
            cache_set.clear()
        self._wcb.clear()
        self._res_stale = True

    def resident_bytes(self) -> int:
        """Bytes of valid data currently resident (sector granularity)."""
        total = 0
        for cache_set in self._sets:
            for line in cache_set.values():
                total += bin(line.valid_mask).count("1") * self.granule
        return total

    def dirty_bytes(self) -> int:
        total = 0
        for cache_set in self._sets:
            for line in cache_set.values():
                total += bin(line.dirty_mask).count("1") * self.granule
        return total

    def probe(self, addr: int, size: int) -> List[Tuple[bool, bool]]:
        """Per-sector ``(resident, dirty)`` state of a span *without*
        touching it: no recency update, no traffic, no hit/miss stats.

        The sampling observer (``repro.papi.sampling``) uses this to
        classify a sampled access against the exact state the access
        is about to see — the information a PEBS/SPE sample record
        carries for free in hardware.
        """
        if size <= 0:
            raise SimulationError(f"probe size must be positive, got {size}")
        out: List[Tuple[bool, bool]] = []
        end = addr + size
        while addr < end:
            sector_end = (addr // self.granule + 1) * self.granule
            set_idx, tag, sector = self._split(addr)
            line = self._sets[set_idx].get(tag)
            bit = 1 << sector
            resident = line is not None and bool(line.valid_mask & bit)
            dirty = resident and bool(line.dirty_mask & bit)
            out.append((resident, dirty))
            addr = min(end, sector_end)
        return out

    def wcb_gathered_bytes(self, addr: int) -> int:
        """Bytes already gathered in the write-combining buffer for the
        sector containing ``addr`` (0 when that sector has no pending
        fragment). Read-only, like :meth:`probe`."""
        sector_addr = (addr // self.granule) * self.granule
        return self._wcb.get(sector_addr, 0)

    def snapshot(self) -> Dict[int, List[Tuple[int, int, int]]]:
        """Full replacement-relevant state: per non-empty set, the
        resident ``(tag, valid_mask, dirty_mask)`` triples ordered from
        stalest to most recent. Two simulators that processed the same
        trace — by any mix of scalar and batch calls — snapshot equal.
        """
        out: Dict[int, List[Tuple[int, int, int]]] = {}
        for idx, cache_set in enumerate(self._sets):
            if cache_set:
                ordered = sorted(
                    cache_set.items(),
                    key=lambda kv: self._effective_last_use(kv[0], kv[1]),
                )
                out[idx] = [(tag, line.valid_mask, line.dirty_mask)
                            for tag, line in ordered]
        return out

    def reset_traffic(self) -> TrafficCounters:
        """Return and zero the accumulated traffic counters."""
        out = self.traffic
        self.traffic = TrafficCounters()
        return out
