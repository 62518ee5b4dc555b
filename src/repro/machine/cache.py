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

The cache state is one set of NumPy arrays with a row per (set, way)
slot: the line's tag, its recency stamp (0 marks a free way) and a
valid and a dirty bit per sector. A dense index over the sector ids
of a window (:data:`INDEX_SECTOR_LIMIT`) holds each sector's bit
position, slot * sectors-per-line + sector: the line -> slot map
spelled out per sector, so the hit test is one gather. Every install
and eviction writes it, so it is never stale. Two access paths read
and write that state and produce identical results
(differential-tested):

* :meth:`CacheSim.access` — the scalar per-access oracle, one Python
  call per access;
* :meth:`CacheSim.access_batch` — the columnar fast path. Accesses
  arrive as NumPy arrays, are sector-expanded vectorized, and are
  processed in chunks. A set whose new lines in a chunk fit its free
  ways cannot evict ("calm"): its lines take free ways by scatter,
  the first touch of each non-resident sector is its only miss, and
  recency and dirty bits are one scatter each. The remaining
  ("turbulent") sets are replayed exactly, in per-set program order.
  Under LRU that replay is a reuse-distance computation made of array
  passes (Mattson's stack property: a line access hits iff fewer than
  ``assoc`` distinct lines of its set were touched since its previous
  touch); FIFO, which has no stack property, replays runs of
  same-sector accesses in a Python loop.

Exactness of the split rests on two facts: replacement state is
*per-set* (sets never interact), and a set with room for every line
the chunk brings cannot evict, hence its residency only grows during
the chunk.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import SimulationError
from .config import CacheConfig

#: Ceiling (in sector ids) of the window the index covers; lines
#: outside it (negative or larger ids) are found by scanning their
#: set, and a batch touching any of them replays every chunk.
INDEX_SECTOR_LIMIT = 1 << 26

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


def _floordiv(arr: np.ndarray, divisor: int,
              out: Optional[np.ndarray] = None) -> np.ndarray:
    """``arr // divisor`` using a shift when the divisor is a power of
    two (measurably faster on the multi-million-entry batch columns)."""
    if divisor & (divisor - 1) == 0:
        return np.right_shift(arr, divisor.bit_length() - 1, out=out)
    return np.floor_divide(arr, divisor, out=out)


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
        # One row per slot (set * assoc + way), plus a trailing row no
        # line ever occupies: the index sends absent lines there, so
        # their sectors read as neither valid nor dirty. A stamp is the
        # access clock of the line's last touch (LRU) or of its install
        # (FIFO); the victim is the smallest, and a free way's 0 comes
        # first. Valid and dirty bits sit at slot * spl + sector.
        n_slots = self.n_sets * self.assoc
        self._absent = n_slots
        self._tag = np.zeros(n_slots + 1, dtype=np.int64)
        self._stamp = np.zeros(n_slots + 1, dtype=np.int64)
        self._valid = np.zeros((n_slots + 1) * self.sectors_per_line,
                               dtype=bool)
        self._dirty = np.zeros_like(self._valid)
        # Sector id -> the position of its bits (slot * spl + sector),
        # in the trailing row when its line is absent: the line -> slot
        # map spelled out per sector, so the hit test is one gather.
        # It covers whole lines from sector 0 and grows on demand up to
        # the window's _sector_limit.
        self._index = np.empty(0, dtype=np.intp)
        self._sector_limit = (INDEX_SECTOR_LIMIT
                              - INDEX_SECTOR_LIMIT % self.sectors_per_line)
        # Views of the same buffers for the scalar path: an element
        # read or write through a memoryview costs about half as much
        # as a NumPy scalar index. _grow_index renews _index_mv.
        self._index_mv = memoryview(self._index)
        self._valid_mv = memoryview(self._valid)
        self._dirty_mv = memoryview(self._dirty)
        self._stamp_mv = memoryview(self._stamp)
        # int32 scratch over the index's sector ids for first-touch
        # detection; it holds nothing between calls.
        self._scratch: Optional[np.ndarray] = None
        self.traffic = TrafficCounters()
        # Write-combining buffer for bypassed (streaming) stores:
        # sector address -> count of bytes gathered.
        self._wcb: Dict[int, int] = {}
        self.stats_hits = 0
        self.stats_misses = 0
        # Monotonic access clock, never reset: stamps stay unique.
        self._clock = 0

    # ------------------------------------------------------------------
    # state helpers
    # ------------------------------------------------------------------
    def _find(self, sid: int) -> int:
        """Bit position of sector ``sid`` (see ``_index``). A sector the
        index covers is one lookup. The index grows to cover a sector
        at most its own size past its end (a batch grows it further);
        any other sector's line is found by scanning its set's ways."""
        size = len(self._index_mv)
        if not 0 <= sid < size:
            if not 0 <= sid < min(2 * size + 1024, self._sector_limit):
                line, sector = divmod(sid, self.sectors_per_line)
                base = (line % self.n_sets) * self.assoc
                ways = np.flatnonzero(
                    (self._tag[base:base + self.assoc] == line)
                    & (self._stamp[base:base + self.assoc] > 0))
                slot = base + int(ways[0]) if ways.size else self._absent
                return slot * self.sectors_per_line + sector
            self._grow_index(sid // self.sectors_per_line)
        return self._index_mv[sid]

    def _grow_index(self, line: int) -> None:
        """Extend the index to cover ``line`` (at least doubling, capped
        at the window) and enter the resident lines it newly covers: a
        replay of a batch that leaves the window may install them."""
        spl = self.sectors_per_line
        index = self._index
        size = min(max((line + 1) * spl, 2 * index.size, 1024 * spl),
                   self._sector_limit)
        grown = np.empty(size, dtype=np.intp)
        grown[:index.size] = index
        grown.reshape(-1, spl)[index.size // spl:] = (
            self._absent * spl + np.arange(spl))
        self._index = grown
        self._index_mv = memoryview(grown)
        occupied = np.flatnonzero(self._stamp[:self._absent] > 0)
        tags = self._tag[occupied]
        new = tags >= index.size // spl
        self._point(tags[new], occupied[new])

    def _point(self, lines: np.ndarray, slots: np.ndarray) -> None:
        """Index ``lines`` at ``slots`` (``self._absent`` drops them);
        lines the index does not cover are skipped."""
        spl = self.sectors_per_line
        index = self._index.reshape(-1, spl)
        inside = (lines >= 0) & (lines < index.shape[0])
        index[lines[inside]] = slots[inside, None] * spl + np.arange(spl)

    def _ways(self, sets: np.ndarray) -> np.ndarray:
        """Every slot of ``sets``, set by set."""
        return (sets[:, None] * self.assoc
                + np.arange(self.assoc)).reshape(-1)

    def _occupied(self, sets: np.ndarray) -> np.ndarray:
        """Occupied slots of ``sets`` (ascending), oldest first in each."""
        slots = self._ways(sets)
        slots = slots[self._stamp[slots] > 0]
        return slots[np.lexsort((self._stamp[slots],
                                 _floordiv(slots, self.assoc)))]

    def _clear_sets(self, sets: np.ndarray) -> None:
        """Empty every way of ``sets`` (no write-back counted)."""
        slots = self._ways(sets)
        old = self._tag[slots[self._stamp[slots] > 0]]
        self._point(old, np.full(old.size, self._absent))
        self._stamp[slots] = 0
        spl = self.sectors_per_line
        self._valid.reshape(-1, spl)[slots] = False
        self._dirty.reshape(-1, spl)[slots] = False

    def _put(self, slots: np.ndarray, tags: np.ndarray,
             stamps: np.ndarray, valid: Optional[np.ndarray] = None,
             dirty: Optional[np.ndarray] = None) -> None:
        """Place lines ``tags`` in the free ``slots``, with per-sector
        ``valid``/``dirty`` rows (none set when omitted)."""
        self._tag[slots] = tags
        self._stamp[slots] = stamps
        if valid is not None:
            spl = self.sectors_per_line
            self._valid.reshape(-1, spl)[slots] = valid
            self._dirty.reshape(-1, spl)[slots] = dirty
        self._point(tags, slots)

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
        sid = addr // self.granule
        index = self._index_mv  # _find's common case, inline
        key = index[sid] if 0 <= sid < len(index) else self._find(sid)
        slot = key // self.sectors_per_line
        self._clock += 1
        if self._valid_mv[key]:
            # sector hit; LRU refreshes recency, FIFO does not.
            if self.policy == "lru":
                self._stamp_mv[slot] = self._clock
            if is_write:
                self._dirty_mv[key] = True
            self.stats_hits += 1
            return
        self.stats_misses += 1
        if slot == self._absent:
            line, sector = divmod(sid, self.sectors_per_line)
            key = self._install(line) * self.sectors_per_line + sector
        elif self.policy == "lru":
            self._stamp_mv[slot] = self._clock
        # Demand fetch of the missing sector (read-for-ownership applies
        # to write-allocate stores as well — this is the "read per
        # write" the paper observes for cached stores).
        self.traffic.read_bytes += self.granule
        self._valid_mv[key] = True
        if is_write:
            self._dirty_mv[key] = True

    def _install(self, line: int) -> int:
        """Put ``line`` in its set's way with the smallest stamp (a free
        way, else the LRU victim under "lru" or the oldest install
        under "fifo"), writing back the line it evicts."""
        stamp = self._stamp_mv
        base = (line % self.n_sets) * self.assoc
        slot = min(range(base, base + self.assoc), key=stamp.__getitem__)
        if stamp[slot]:
            valid, dirty = self._valid_mv, self._dirty_mv
            spl = self.sectors_per_line
            for k in range(slot * spl, slot * spl + spl):
                if dirty[k]:
                    self.traffic.write_bytes += self.granule
                valid[k] = dirty[k] = False
            self._point_one(self._tag.item(slot), self._absent)
        self._tag[slot] = line
        stamp[slot] = self._clock
        self._point_one(line, slot)
        return slot

    def _point_one(self, line: int, slot: int) -> None:
        """:meth:`_point` for one line, at scalar cost."""
        spl = self.sectors_per_line
        index = self._index_mv
        if 0 <= line * spl < len(index):
            for k in range(spl):
                index[line * spl + k] = slot * spl + k

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
        self.access_sectors(c_addr, c_write, chunk_size=chunk_size)

    def access_sectors(self, c_addr, c_write, *,
                       chunk_size: int = DEFAULT_BATCH_CHUNK) -> None:
        """:meth:`access_batch` on rows its caller already checked and
        split at sector boundaries (int64 addresses and boolean write
        flags, as :func:`expand_to_sectors` returns them), none
        bypassed: neither step runs again."""
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

        Watched-state extraction rides the chunk classification: in a
        calm set residency only grows and dirty bits only accrue, so
        pre-state is ``state at chunk entry OR touched/written earlier
        in the chunk`` (two gathers plus a prefix scan over the
        watched sectors' touches); turbulent sets get it from the
        exact replay.
        """
        sec = _floordiv(c_addr, self.granule)
        spl = self.sectors_per_line
        top = int(sec.max())
        indexed = int(sec.min()) >= 0 and top < self._sector_limit
        if indexed and top >= self._index.size:
            self._grow_index(top // spl)
        res_out = dirty_out = None
        if watch is not None:
            n_watched = int(watch.sum())
            res_out = np.empty(n_watched, dtype=bool)
            dirty_out = np.empty(n_watched, dtype=bool)
        replay = (self._replay_lru if self.policy == "lru"
                  else self._replay_fifo)
        wbase = 0
        # Entry i is stamped t0 + i: the clock value the scalar path
        # would give it (it advances the clock before stamping).
        t0 = self._clock + 1
        hits = misses = 0
        for start in range(0, sec.size, chunk_size):
            chunk = sec[start:start + chunk_size]
            w = c_write[start:start + chunk_size]
            pos0 = t0 + start
            wpos = None
            if watch is not None:
                cw_mask = watch[start:start + chunk_size]
                if cw_mask.any():
                    wpos = np.flatnonzero(cw_mask)
                    slot0 = wbase
                    wbase += wpos.size
            if indexed:
                key = self._index[chunk]
                resident = self._valid[key]
                if wpos is not None:
                    # Entry-state gathers must precede any mutation.
                    ent_res = resident[wpos]
                    ent_dirty = self._dirty[key[wpos]]
                turb, n_fresh = None, 0
                if not resident.all():
                    turb, fresh = self._settle(chunk, key, resident, pos0)
                    # Lines that took free ways now have slots.
                    key = self._index[chunk]
                    self._valid[key[fresh]] = True
                    n_fresh = fresh.size
                calm = None if turb is None else np.flatnonzero(~turb)
                misses += n_fresh
                hits += (chunk.size if calm is None else calm.size) - n_fresh
                self._touch(key, w, pos0, calm)
                if wpos is not None:
                    calm_w = (np.arange(wpos.size) if turb is None
                              else np.flatnonzero(~turb[wpos]))
                    if calm_w.size:
                        e_touch, e_write = _prefix_state(chunk, w,
                                                         wpos[calm_w])
                        slots = slot0 + calm_w
                        res_out[slots] = ent_res[calm_w] | e_touch
                        dirty_out[slots] = ent_dirty[calm_w] | e_write
                if turb is None:
                    continue
                r_idx = np.flatnonzero(turb)
            else:
                # Outside the index window every set replays.
                r_idx = np.arange(chunk.size)
            r_watch = None if wpos is None else cw_mask[r_idx]
            lines = _floordiv(chunk[r_idx], spl)
            out = replay(chunk[r_idx], w[r_idx], pos0 + r_idx, lines,
                         _mod(lines, self.n_sets), r_watch)
            if r_watch is None:
                hits += out
            else:
                hits += out[0]
                slots = slot0 + np.searchsorted(wpos, r_idx[out[1]])
                res_out[slots] = out[2]
                dirty_out[slots] = out[3]
        self._clock = t0 + sec.size - 1
        self.stats_hits += hits
        self.stats_misses += misses
        self.traffic.read_bytes += misses * self.granule
        if watch is not None:
            return res_out, dirty_out
        return None

    def _settle(self, chunk, key, resident, pos0):
        """Split a chunk's sets into calm and turbulent ones, and give
        the calm sets' new lines free ways.

        In a set that cannot evict, only the first touch of a
        non-resident sector misses, and a line not resident takes a
        free way at its first touch; so a set evicts iff it has fewer
        free ways than such new lines. Returns the mask of turbulent
        entries (None if every set is calm) and the calm sets' misses
        (entry indices).
        """
        spl = self.sectors_per_line
        nr_idx = np.flatnonzero(~resident)
        fresh = nr_idx[self._first_touch(chunk[nr_idx])]
        new = fresh[key[fresh] >= self._absent * spl]
        new_lines = _floordiv(chunk[new], spl)
        first = self._first_touch(new_lines)
        new, new_lines = new[first], new_lines[first]
        turb = self._overfull(_mod(new_lines, self.n_sets))
        if turb is not None:
            turb = turb[_mod(_floordiv(chunk, spl), self.n_sets)]
            calm = ~turb[new]
            fresh = fresh[~turb[fresh]]
            new, new_lines = new[calm], new_lines[calm]
        if new.size:
            self._fill(new_lines, pos0 + new)
        return turb, fresh

    def _first_touch(self, keys: np.ndarray) -> np.ndarray:
        """Mask of the entries of ``keys`` (sector or line ids inside
        the index window) that hold their key's first occurrence. A
        reverse-order scatter of entry indices into an int32 scratch
        leaves each key's first index; no sort."""
        scratch = self._scratch
        if scratch is None or scratch.size < self._index.size:
            scratch = self._scratch = np.empty(self._index.size,
                                               dtype=np.int32)
        idx = np.arange(keys.size, dtype=np.int32)
        scratch[keys[::-1]] = idx[::-1]
        return scratch[keys] == idx

    def _overfull(self, new_sets: np.ndarray) -> Optional[np.ndarray]:
        """Dense mask of the sets with fewer free ways than new lines
        (one entry of ``new_sets`` per new line), or None if none."""
        if not new_sets.size:
            return None
        counts = np.bincount(new_sets, minlength=self.n_sets)
        sets = np.flatnonzero(counts)
        free = np.count_nonzero(
            self._stamp[self._ways(sets)].reshape(sets.size, -1) == 0,
            axis=1)
        over = sets[counts[sets] > free]
        if not over.size:
            return None
        mask = np.zeros(self.n_sets, dtype=bool)
        mask[over] = True
        return mask

    def _fill(self, new_lines: np.ndarray, stamps: np.ndarray) -> None:
        """Install distinct absent lines, stamped ``stamps``, in free
        ways: the i-th new line of a set takes its i-th free way."""
        sets = _mod(new_lines, self.n_sets)
        order = np.argsort(sets, kind="stable")
        sets = sets[order]
        free = np.flatnonzero(self._stamp[:self._absent] == 0)
        rank = np.arange(sets.size) - np.searchsorted(sets, sets)
        slots = free[np.searchsorted(_floordiv(free, self.assoc), sets)
                     + rank]
        self._put(slots, new_lines[order], stamps[order])

    def _touch(self, key: np.ndarray, w: np.ndarray, pos0: int,
               calm: Optional[np.ndarray]) -> None:
        """Dirty bits of the written entries ``calm`` (all when None),
        then under LRU their lines' recency: one scatter each. A slot
        touched twice keeps the last value written, its latest touch.
        Overwrites ``key`` (a chunk's largest temporary, dead here)."""
        if calm is not None:
            key, w = key[calm], w[calm]
        self._dirty[key[w]] = True
        if self.policy == "lru":
            pos = (np.arange(pos0, pos0 + key.size) if calm is None
                   else pos0 + calm)
            self._stamp[_floordiv(key, self.sectors_per_line, out=key)] = pos

    def _replay_lru(self, sec, w, pos, lines, sets_arr, watch=None):
        """Replay entries exactly under LRU, by reuse distance.

        The inputs hold every entry of a chunk in each set they touch.
        Entries are ordered by set, program order within a set, and
        each touched set's resident lines are prepended oldest-first
        by stamp. A line-run (maximal block of one line's entries)
        then hits iff fewer than ``assoc`` distinct lines lie between
        it and its line's previous run (Mattson's stack property;
        :func:`_fewer_distinct` decides the long windows). A miss
        starts a line lifetime and hits continue it. A sector is valid
        from its first touch in a lifetime, or from the start for a
        prepended line's valid sectors, so fetches, dirty bits,
        write-backs, the lines left resident and watched pre-states
        all follow with array ops. The touched sets' rows are read
        from the state arrays and written back with one scatter each
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

        # The touched sets' resident lines, oldest first.
        touched = r_set[np.append(0, np.flatnonzero(np.diff(r_set)) + 1)]
        p_slot = self._occupied(touched)
        k = p_slot.size
        p_line = self._tag[p_slot]
        p_stamp = self._stamp[p_slot]
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

        # Sector state per (lifetime, sector) key.
        key = c_life[real_ci][run_of] * spl
        key += _mod(sec[order], spl)
        del run_of
        init_v = np.zeros((n_life, spl), dtype=bool)
        init_d = np.zeros((n_life, spl), dtype=bool)
        p_life = c_life[pseudo_ci]
        init_v[p_life] = self._valid.reshape(-1, spl)[p_slot]
        init_d[p_life] = self._dirty.reshape(-1, spl)[p_slot]
        init_v = init_v.reshape(-1)
        init_d = init_d.reshape(-1)
        idx = np.arange(n, dtype=np.int32)
        first = np.empty(n_life * spl, dtype=np.int32)
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
        kept = rank < assoc
        res_ci = last[kept]
        res_life = c_life[res_ci]
        ended = np.ones(n_life, dtype=bool)
        ended[res_life] = False
        writebacks = int(np.count_nonzero(dirty[ended]))

        # Write the touched sets back: each kept line, in the way of its
        # recency rank, with its final masks, stamped with its last
        # entry's position (an untouched line keeps its stamp).
        c_src = np.empty(t, dtype=np.int64)
        c_src[real_ci] = r_end
        c_src[pseudo_ci] = -1 - np.arange(k)
        src = c_src[res_ci]
        stamp = np.where(src >= 0, pos[order[np.maximum(src, 0)]],
                         p_stamp[np.maximum(-1 - src, 0)] if k else 0)
        self._clear_sets(touched)
        self._put(l_set[kept] * assoc + rank[kept], c_line[res_ci], stamp,
                  valid[res_life], dirty[res_life])
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
        entries, over the touched sets' rows read into lists and
        written back once. A FIFO hit does not refresh its line, so
        there is no stack property to vectorize on; victims are the
        oldest install stamp. Same inputs and returns as
        :meth:`_replay_lru`; a watched entry's pre-state is its run
        head's state before the head executed, promoted to resident
        for non-head members (the head fetched the sector and only
        hits lie between) and to dirty after an earlier same-run write.
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
        assoc = self.assoc
        touched = run_set[np.append(0, np.flatnonzero(np.diff(run_set)) + 1)]
        slots = self._ways(touched)
        bits = np.arange(spl)
        tags = self._tag[slots].tolist()
        stamps = self._stamp[slots].tolist()
        valid = (self._valid.reshape(-1, spl)[slots] @ (1 << bits)).tolist()
        dirty = (self._dirty.reshape(-1, spl)[slots] @ (1 << bits)).tolist()
        # Line -> position in the lists, and each run's set's first one.
        where = {tag: i for i, (tag, stamp) in enumerate(zip(tags, stamps))
                 if stamp}
        run_base = np.searchsorted(touched, run_set) * assoc
        hits = 0
        misses = 0
        writebacks = 0
        for ri, (tag, base, sct, anyw, ln, hp) in enumerate(zip(
                run_tag.tolist(), run_base.tolist(), run_sector.tolist(),
                any_w.tolist(), lengths.tolist(), head_pos.tolist())):
            i = where.get(tag)
            bit = 1 << sct
            if i is not None and valid[i] & bit:
                if watching and need[ri]:
                    run_res[ri] = True
                    run_dirty[ri] = bool(dirty[i] & bit)
                hits += ln
                if anyw:
                    dirty[i] |= bit
                continue
            # Head access misses; the rest of the run hits the sector
            # the head just fetched.
            misses += 1
            hits += ln - 1
            if i is None:
                i = min(range(base, base + assoc), key=stamps.__getitem__)
                if stamps[i]:
                    writebacks += bin(dirty[i]).count("1")
                    del where[tags[i]]
                tags[i], stamps[i], valid[i], dirty[i] = tag, hp, 0, 0
                where[tag] = i
            valid[i] |= bit
            if anyw:
                dirty[i] |= bit
        stamps = np.array(stamps, dtype=np.int64)
        kept = stamps > 0
        self._clear_sets(touched)
        self._put(slots[kept], np.array(tags, dtype=np.int64)[kept],
                  stamps[kept],
                  (np.array(valid)[kept, None] >> bits) & 1 == 1,
                  (np.array(dirty)[kept, None] >> bits) & 1 == 1)
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
        self.traffic.write_bytes += (
            int(np.count_nonzero(self._dirty)) * self.granule)
        self.traffic.write_bytes += len(self._wcb) * self.granule
        self.invalidate()

    def invalidate(self) -> None:
        """Drop all cache state *without* counting write-back traffic
        (used between independent experiment repetitions)."""
        self._clear_sets(np.arange(self.n_sets))
        self._wcb.clear()

    def resident_bytes(self) -> int:
        """Bytes of valid data currently resident (sector granularity)."""
        return int(np.count_nonzero(self._valid)) * self.granule

    def dirty_bytes(self) -> int:
        return int(np.count_nonzero(self._dirty)) * self.granule

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
            key = self._find(addr // self.granule)
            # A dirty sector is always valid; the absent row is neither.
            out.append((bool(self._valid[key]), bool(self._dirty[key])))
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
        slots = self._occupied(np.arange(self.n_sets))
        spl = self.sectors_per_line
        weights = 1 << np.arange(spl)
        out: Dict[int, List[Tuple[int, int, int]]] = {}
        for s, tag, valid, dirty in zip(
                _floordiv(slots, self.assoc).tolist(),
                self._tag[slots].tolist(),
                (self._valid.reshape(-1, spl)[slots] @ weights).tolist(),
                (self._dirty.reshape(-1, spl)[slots] @ weights).tolist()):
            out.setdefault(s, []).append((tag, valid, dirty))
        return out

    def reset_traffic(self) -> TrafficCounters:
        """Return and zero the accumulated traffic counters."""
        out = self.traffic
        self.traffic = TrafficCounters()
        return out
