"""Disk-backed columnar trace store: persistent, memory-mapped
:class:`~repro.engine.stream.BatchTrace` entries.

The batch engine made simulation ~35x faster than the scalar oracle,
which moved the bottleneck to the traces themselves: a Gemm N=512
trace is ~4 GB of columns, regenerated on every process start and far
beyond what the in-process LRU of :mod:`repro.engine.tracecache` can
hold. This module persists traces on disk so billion-access
cross-validation runs generate each trace once and stream it through
the exact engines segment by segment (``StoredTrace.segments``)
without materializing it in RAM.

Layout — one directory per entry under the store root::

    <root>/<kernel-name>-<digest12>/
        manifest.json    # kernel identity, streams, rows, column meta
        addr.bin         # int64[rows]   little-endian raw columns
        size.bin         # int32[rows]
        stream_id.bin    # int16[rows]
        is_write.bin     # bool (uint8 0/1) [rows]

Entries are keyed by a *content fingerprint*: kernel class
(module + qualname), kernel name, the kernel's shape/seed parameters
(:meth:`KernelModel.trace_key`), and :data:`EMITTER_VERSION` (bumped
whenever any vectorized emitter changes). Two same-named kernels with
different shape parameters therefore never alias.

Durability and integrity:

* writes are atomic — columns stream into a temp directory that is
  fsynced and ``os.rename``-ed into place, so readers only ever see
  complete entries and a concurrent writer losing the rename race
  simply adopts the winner's entry;
* every column carries length, dtype, and a CRC32 in the manifest;
  opening an entry validates structure and file sizes always, and the
  checksums too unless ``verify="meta"`` is requested (for entries
  already verified);
* eviction is LRU-by-bytes over entries (``gc``), with last-use
  tracked via the manifest's mtime (``os.utime`` on access).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import mmap
import os
import shutil
import tempfile
import time
import uuid
import zlib
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import TraceCorruptionError, TraceStoreError
from .envconfig import resolve_segment_rows
from .stream import BatchTrace
from .trace import KernelModel

#: Version of the kernel trace emitters. Bump on any change to the
#: *bytes* an ``exact_trace``/``segments`` implementation produces:
#: the fingerprint includes it, so stale entries become unreachable
#: (and collectable by ``gc``) instead of silently wrong. Segment
#: boundary changes alone do not require a bump — checksums stream
#: over the concatenated columns.
EMITTER_VERSION = 1

#: On-disk layout version (manifest schema + column encoding).
FORMAT_VERSION = 1

MANIFEST_NAME = "manifest.json"

#: Environment variable selecting the default store root; also the
#: switch that attaches a disk tier to the global trace cache.
TRACE_DIR_ENV = "REPRO_TRACE_DIR"

#: Environment variable overriding open-time verification depth
#: ("full" = structure + checksums, "meta" = structure only).
TRACE_VERIFY_ENV = "REPRO_TRACE_VERIFY"

#: The four columns of a BatchTrace, in manifest order.
COLUMN_DTYPES = (
    ("addr", np.dtype("<i8")),
    ("size", np.dtype("<i4")),
    ("stream_id", np.dtype("<i2")),
    ("is_write", np.dtype("|b1")),
)


# ----------------------------------------------------------------------
# kernel fingerprinting
# ----------------------------------------------------------------------
def _canonical(value):
    """JSON-able canonical form of a trace-key value (stable across
    processes; arrays are content-hashed, not repr-ed)."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        digest = hashlib.sha256(np.ascontiguousarray(value).tobytes())
        return ["ndarray", str(value.dtype), list(value.shape),
                digest.hexdigest()]
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if hasattr(value, "trace_key"):
        return _canonical(value.trace_key())
    if hasattr(value, "__dict__"):
        return {k: _canonical(v) for k, v in sorted(value.__dict__.items())
                if not k.startswith("_")}
    return [type(value).__name__, repr(value)]


def kernel_fingerprint(kernel: KernelModel) -> str:
    """Hex digest identifying the *content* of a kernel's exact trace:
    class identity + name + shape/seed parameters + emitter version."""
    cls = type(kernel)
    payload = json.dumps(
        [cls.__module__, cls.__qualname__, kernel.name,
         _canonical(kernel.trace_key()), EMITTER_VERSION],
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def _safe_name(name: str) -> str:
    return "".join(c if (c.isalnum() or c in "-_.") else "_"
                   for c in name)[:48] or "trace"


def entry_key(kernel: KernelModel) -> str:
    """Directory name of a kernel's store entry."""
    return f"{_safe_name(kernel.name)}-{kernel_fingerprint(kernel)[:12]}"


# ----------------------------------------------------------------------
# stored entries
# ----------------------------------------------------------------------
def _require(cond: bool, path: Path, detail: str) -> None:
    if not cond:
        raise TraceCorruptionError(f"{path}: {detail}")


class StoredTrace:
    """One validated on-disk trace entry.

    Provides two access styles:

    * :meth:`load` — the whole trace as a zero-copy mmap-backed
      :class:`BatchTrace` (random access; pages fault in on demand);
    * :meth:`segments` — bounded-RSS streaming: row-slices of the
      mmapped columns, with already-consumed pages dropped back to the
      OS (``madvise(DONTNEED)``) between segments so peak RSS stays at
      a few segments regardless of trace size.
    """

    def __init__(self, path: Path, manifest: Dict):
        self.path = Path(path)
        self.manifest = manifest
        self.streams: Tuple[str, ...] = tuple(manifest["streams"])
        self.rows: int = int(manifest["rows"])
        self._maps: Optional[List[Tuple[np.ndarray, mmap.mmap]]] = None

    # -- opening / validation ------------------------------------------
    @classmethod
    def open(cls, path, verify: str = "full") -> "StoredTrace":
        """Open and validate an entry directory.

        ``verify="full"`` additionally checks every column's CRC32
        (the default; set ``REPRO_TRACE_VERIFY=meta`` or pass
        ``verify="meta"`` to trust previously verified entries).
        Raises :class:`TraceCorruptionError` on any mismatch — a
        corrupt entry is never returned as data.
        """
        path = Path(path)
        mpath = path / MANIFEST_NAME
        if not mpath.is_file():
            raise TraceStoreError(f"{path}: no manifest — not a trace entry")
        try:
            manifest = json.loads(mpath.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise TraceCorruptionError(
                f"{mpath}: unreadable manifest ({exc})") from None
        cls._validate(path, manifest, verify=verify)
        return cls(path, manifest)

    @staticmethod
    def _validate(path: Path, manifest: Dict, verify: str) -> None:
        _require(isinstance(manifest, dict), path, "manifest is not an object")
        _require(manifest.get("format_version") == FORMAT_VERSION, path,
                 f"format_version {manifest.get('format_version')!r} "
                 f"!= {FORMAT_VERSION}")
        _require(manifest.get("emitter_version") == EMITTER_VERSION, path,
                 f"stale emitter_version "
                 f"{manifest.get('emitter_version')!r}")
        rows = manifest.get("rows")
        _require(isinstance(rows, int) and rows >= 0, path,
                 f"bad row count {rows!r}")
        streams = manifest.get("streams")
        _require(isinstance(streams, list) and
                 all(isinstance(s, str) for s in streams), path,
                 "bad streams list")
        columns = manifest.get("columns")
        _require(isinstance(columns, dict), path, "missing columns object")
        for name, dtype in COLUMN_DTYPES:
            meta = columns.get(name)
            _require(isinstance(meta, dict), path, f"column {name}: no meta")
            _require(meta.get("dtype") == dtype.str, path,
                     f"column {name}: dtype {meta.get('dtype')!r} "
                     f"!= {dtype.str}")
            _require(meta.get("rows") == rows, path,
                     f"column {name}: {meta.get('rows')!r} rows, "
                     f"manifest says {rows}")
            fpath = path / f"{name}.bin"
            _require(fpath.is_file(), path, f"column {name}: file missing")
            expect = rows * dtype.itemsize
            actual = fpath.stat().st_size
            _require(actual == expect, path,
                     f"column {name}: {actual} bytes on disk, "
                     f"expected {expect}")
            if verify == "full":
                crc = _crc_file(fpath)
                _require(crc == meta.get("crc32"), path,
                         f"column {name}: CRC32 {crc:#010x} != manifest "
                         f"{meta.get('crc32')!r} (bit corruption)")

    def verify(self) -> None:
        """Re-run full validation (including checksums) in place."""
        self._validate(self.path, self.manifest, verify="full")

    # -- sizes ----------------------------------------------------------
    def __len__(self) -> int:
        return self.rows

    @property
    def nbytes(self) -> int:
        return sum(self.rows * dtype.itemsize for _, dtype in COLUMN_DTYPES)

    # -- data access ----------------------------------------------------
    def _mapped(self) -> List[Tuple[np.ndarray, mmap.mmap]]:
        if self._maps is None:
            maps = []
            for name, dtype in COLUMN_DTYPES:
                with open(self.path / f"{name}.bin", "rb") as fh:
                    if self.rows == 0:
                        maps.append((np.empty(0, dtype), None))
                        continue
                    mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
                arr = np.frombuffer(mm, dtype=dtype)
                maps.append((arr, mm))
            self._maps = maps
        return self._maps

    def load(self) -> BatchTrace:
        """The whole trace as a read-only mmap-backed BatchTrace
        (zero-copy; invariants were validated at persist time)."""
        cols = [arr for arr, _ in self._mapped()]
        return BatchTrace.trusted(self.streams, stream_id=cols[2],
                                  addr=cols[0], size=cols[1],
                                  is_write=cols[3])

    def segments(self, target_rows: Optional[int] = None,
                 ) -> Iterator[BatchTrace]:
        """Stream the trace as row-slices of ``target_rows`` rows
        (default ``REPRO_SEGMENT_ROWS``): the :class:`KernelModel`
        ``segments`` protocol, so a stored trace is a segment source
        for both exact engines.

        Segments are views into the read-only maps; consumed pages are
        released with ``madvise(DONTNEED)`` so resident set size stays
        bounded by a few segments however large the trace is. A
        segment is only valid until the next iteration step.
        """
        target_rows = resolve_segment_rows(target_rows)
        maps = self._mapped()
        cols = [arr for arr, _ in maps]
        page = mmap.PAGESIZE
        for start in range(0, self.rows, target_rows):
            stop = min(start + target_rows, self.rows)
            yield BatchTrace.trusted(
                self.streams,
                stream_id=cols[2][start:stop],
                addr=cols[0][start:stop],
                size=cols[1][start:stop],
                is_write=cols[3][start:stop],
            )
            for (_, dtype), (_, mm) in zip(COLUMN_DTYPES, maps):
                if mm is None or not hasattr(mm, "madvise"):
                    continue
                done = (stop * dtype.itemsize) // page * page
                if done:
                    mm.madvise(mmap.MADV_DONTNEED, 0, done)

    def close(self) -> None:
        """Drop the column maps (best effort: a map with live NumPy
        views stays open until those views die — closing under them
        would invalidate their memory)."""
        if self._maps is not None:
            maps, self._maps = self._maps, None
            for _, mm in maps:
                if mm is not None:
                    try:
                        mm.close()
                    except BufferError:
                        pass


def _crc_file(path: Path, bufsize: int = 1 << 22) -> int:
    crc = 0
    with open(path, "rb") as fh:
        while True:
            block = fh.read(bufsize)
            if not block:
                return crc
            crc = zlib.crc32(block, crc)


# ----------------------------------------------------------------------
# streaming writer
# ----------------------------------------------------------------------
class TraceStoreWriter:
    """Stream BatchTrace blocks into a new entry, then commit
    atomically.

    Columns accumulate in a temp directory next to the final location
    (same filesystem, so the final ``os.rename`` is atomic); CRC32s
    are computed as bytes stream through, so commit never re-reads the
    data. If another process commits the same entry first, ``commit``
    discards the temp directory and returns the winner's entry.
    """

    def __init__(self, store: "TraceStore", key: str, kernel_meta: Dict):
        self.store = store
        self.key = key
        self.kernel_meta = kernel_meta
        self.final_dir = store.root / key
        self.tmp_dir = store.root / f".tmp-{key}-{uuid.uuid4().hex[:8]}"
        self.tmp_dir.mkdir(parents=True)
        self._files = {
            name: open(self.tmp_dir / f"{name}.bin", "wb")
            for name, _ in COLUMN_DTYPES
        }
        self._crcs = {name: 0 for name, _ in COLUMN_DTYPES}
        self.rows = 0
        self.streams: Optional[Tuple[str, ...]] = None
        self._done = False

    def append(self, block: BatchTrace) -> None:
        if self._done:
            raise TraceStoreError("writer already committed/aborted")
        if self.streams is None:
            self.streams = tuple(block.streams)
        elif tuple(block.streams) != self.streams:
            raise TraceStoreError(
                f"inconsistent streams across blocks: "
                f"{block.streams} != {self.streams}")
        columns = {
            "addr": block.addr, "size": block.size,
            "stream_id": block.stream_id, "is_write": block.is_write,
        }
        for name, dtype in COLUMN_DTYPES:
            data = np.ascontiguousarray(columns[name], dtype).tobytes()
            self._files[name].write(data)
            self._crcs[name] = zlib.crc32(data, self._crcs[name])
        self.rows += len(block)

    def commit(self) -> StoredTrace:
        if self._done:
            raise TraceStoreError("writer already committed/aborted")
        manifest = {
            "format_version": FORMAT_VERSION,
            "emitter_version": EMITTER_VERSION,
            "kernel": self.kernel_meta,
            "streams": list(self.streams or ()),
            "rows": self.rows,
            "created": time.time(),
            "columns": {
                name: {"dtype": dtype.str, "rows": self.rows,
                       "crc32": self._crcs[name]}
                for name, dtype in COLUMN_DTYPES
            },
        }
        for fh in self._files.values():
            fh.flush()
            os.fsync(fh.fileno())
            fh.close()
        mpath = self.tmp_dir / MANIFEST_NAME
        with open(mpath, "w") as fh:
            json.dump(manifest, fh, indent=1)
            fh.flush()
            os.fsync(fh.fileno())
        self._done = True
        try:
            os.rename(self.tmp_dir, self.final_dir)
        except OSError:
            # Lost the race to a concurrent writer of the same entry:
            # adopt the committed winner, drop our copy.
            shutil.rmtree(self.tmp_dir, ignore_errors=True)
            if not (self.final_dir / MANIFEST_NAME).is_file():
                raise
        return StoredTrace.open(self.final_dir, verify="meta")

    def abort(self) -> None:
        if not self._done:
            self._done = True
            for fh in self._files.values():
                fh.close()
            shutil.rmtree(self.tmp_dir, ignore_errors=True)


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------
@dataclasses.dataclass
class EntryInfo:
    """One entry as listed by :meth:`TraceStore.entries`."""

    key: str
    path: Path
    nbytes: int
    rows: int
    kernel: Dict
    last_used: float


def default_root() -> Path:
    env = os.environ.get(TRACE_DIR_ENV)
    if env:
        return Path(env)
    return Path(tempfile.gettempdir()) / "repro-trace-store"


class TraceStore:
    """Persistent store of kernel batch traces under one root
    directory; safe for concurrent use by multiple processes."""

    def __init__(self, root=None, verify: Optional[str] = None,
                 max_bytes: Optional[int] = None):
        self.root = Path(root) if root is not None else default_root()
        self.root.mkdir(parents=True, exist_ok=True)
        if verify is None:
            verify = os.environ.get(TRACE_VERIFY_ENV, "full")
        if verify not in ("full", "meta"):
            raise TraceStoreError(
                f"verify must be 'full' or 'meta', got {verify!r}")
        self.verify = verify
        #: When set, every ``put``/``get_or_create`` triggers an LRU
        #: sweep down to this budget (the just-written entry included
        #: in the accounting but never evicted).
        self.max_bytes = max_bytes

    # -- keys -----------------------------------------------------------
    def key_for(self, kernel: KernelModel) -> str:
        return entry_key(kernel)

    def path_for(self, kernel: KernelModel) -> Path:
        return self.root / self.key_for(kernel)

    def contains(self, kernel: KernelModel) -> bool:
        return (self.path_for(kernel) / MANIFEST_NAME).is_file()

    # -- read path ------------------------------------------------------
    def get(self, kernel: KernelModel,
            verify: Optional[str] = None) -> Optional[StoredTrace]:
        """The kernel's stored trace, or ``None`` on miss.

        Corrupt entries raise :class:`TraceCorruptionError`; callers
        that prefer regeneration over failure use
        :meth:`get_or_create`, which quarantines and rebuilds them.
        """
        path = self.path_for(kernel)
        if not (path / MANIFEST_NAME).is_file():
            return None
        entry = StoredTrace.open(path, verify=verify or self.verify)
        self._touch(path)
        return entry

    def open_key(self, key: str,
                 verify: Optional[str] = None) -> StoredTrace:
        """Open an entry by directory key (CLI path)."""
        entry = StoredTrace.open(self.root / key,
                                 verify=verify or self.verify)
        self._touch(self.root / key)
        return entry

    # -- write path -----------------------------------------------------
    def writer(self, kernel: KernelModel) -> TraceStoreWriter:
        return TraceStoreWriter(self, self.key_for(kernel), {
            "module": type(kernel).__module__,
            "qualname": type(kernel).__qualname__,
            "name": kernel.name,
            "fingerprint": kernel_fingerprint(kernel),
        })

    def put(self, kernel: KernelModel,
            blocks: Iterable[BatchTrace]) -> StoredTrace:
        """Persist a trace from BatchTrace blocks (atomic)."""
        writer = self.writer(kernel)
        try:
            for block in blocks:
                writer.append(block)
            entry = writer.commit()
        except BaseException:
            writer.abort()
            raise
        self._auto_gc(keep=entry.path.name)
        return entry

    def get_or_create(self, kernel: KernelModel) -> StoredTrace:
        """The kernel's stored trace, generating and persisting it
        through the kernel's bounded-memory block emitter on miss.
        A corrupt entry is quarantined (deleted) and regenerated."""
        try:
            entry = self.get(kernel)
        except TraceCorruptionError:
            self.remove(self.key_for(kernel))
            entry = None
        if entry is not None:
            return entry
        return self.put(kernel, kernel.segments())

    # -- maintenance ----------------------------------------------------
    def entries(self) -> List[EntryInfo]:
        out = []
        for path in sorted(self.root.iterdir()):
            mpath = path / MANIFEST_NAME
            if path.name.startswith(".tmp-") or not mpath.is_file():
                continue
            try:
                manifest = json.loads(mpath.read_text())
                rows = int(manifest["rows"])
                nbytes = sum(rows * dtype.itemsize
                             for _, dtype in COLUMN_DTYPES)
                out.append(EntryInfo(
                    key=path.name, path=path, nbytes=nbytes, rows=rows,
                    kernel=manifest.get("kernel", {}),
                    last_used=mpath.stat().st_mtime,
                ))
            except (TraceStoreError, ValueError, KeyError, OSError):
                continue
        return out

    def total_bytes(self) -> int:
        return sum(e.nbytes for e in self.entries())

    def remove(self, key: str) -> bool:
        path = self.root / key
        if not path.is_dir() or os.path.sep in key or key.startswith("."):
            return False
        shutil.rmtree(path, ignore_errors=True)
        return not path.exists()

    def gc(self, max_bytes: int, keep: Optional[str] = None) -> List[str]:
        """Evict least-recently-used entries until the store holds at
        most ``max_bytes``; returns the evicted keys. ``keep`` names
        one entry exempt from eviction (a caller's fresh write)."""
        entries = sorted(self.entries(), key=lambda e: e.last_used)
        total = sum(e.nbytes for e in entries)
        evicted = []
        for entry in entries:
            if total <= max_bytes:
                break
            if entry.key == keep:
                continue
            if self.remove(entry.key):
                total -= entry.nbytes
                evicted.append(entry.key)
        # Stale temp dirs from crashed writers are garbage too.
        for path in self.root.glob(".tmp-*"):
            age = time.time() - path.stat().st_mtime
            if age > 3600:
                shutil.rmtree(path, ignore_errors=True)
        return evicted

    def verify_all(self) -> Dict[str, Optional[str]]:
        """Full-checksum every entry; maps key -> error (None = ok).

        Scans directories rather than :meth:`entries` so an entry
        whose manifest no longer even parses is still reported as
        corrupt instead of silently skipped.
        """
        report: Dict[str, Optional[str]] = {}
        for path in sorted(self.root.iterdir()):
            if path.name.startswith(".tmp-") or not path.is_dir():
                continue
            try:
                StoredTrace.open(path, verify="full")
                report[path.name] = None
            except TraceStoreError as exc:
                report[path.name] = str(exc)
        return report

    # -- internals ------------------------------------------------------
    def _auto_gc(self, keep: Optional[str]) -> None:
        if self.max_bytes is not None:
            self.gc(self.max_bytes, keep=keep)

    @staticmethod
    def _touch(path: Path) -> None:
        try:
            os.utime(path / MANIFEST_NAME)
        except OSError:
            pass
