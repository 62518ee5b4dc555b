"""On-disk PCP metric archives (the pmlogger archive subsystem).

Real PCP deployments keep ``pmlogger`` archives next to PMCD: append-only
volume files plus an index, which replay tools (``pmdumplog``, ``pmval -a``)
read long after the samples were taken. :class:`MetricArchive` is that
subsystem for the simulated stack: a directory of append-only JSONL
*volumes* with a per-record CRC32 prefix, an atomically-replaced
``index.json`` naming the sealed volumes (with record counts, time range
and a whole-file checksum), and a replay surface (:meth:`records`,
:meth:`series`, :meth:`rates`) whose semantics match the in-memory
``SessionLogger`` exactly — so replaying an archive is byte-identical
to having watched the live fetches.

Durability rules:

* every record line is ``"%08x %s\n" % (crc32(body), body)`` — a
  truncated or bit-flipped tail is *detected*, and recovery on
  :meth:`open` truncates the tail volume back to its last good record
  (a crash mid-append loses at most the record being written);
* ``index.json`` is written to a temp file, fsynced, then ``os.replace``d
  — readers never observe a half-written index;
* sealed volumes are immutable and carry a whole-file CRC32 in the
  index; a mismatch on read raises
  :class:`~repro.errors.ArchiveCorruptionError` (or quarantines the
  volume in non-strict mode) — corrupted records are never returned as
  data.

Retention (:meth:`retain`) drops whole sealed volumes oldest-first;
compaction (:meth:`compact`) merges sealed volumes into one. Both are
record-preserving within the retained window, so ``rates()`` over a
compacted archive equals ``rates()`` over the original.

A :class:`MetricArchive` has one writer (the daemon's logger task) and
any number of readers; cross-process write locking is out of scope.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import zlib
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import ArchiveCorruptionError, ArchiveError, PCPError

ARCHIVE_MAGIC = "repro-pcp-archive"
ARCHIVE_FORMAT = 1
LABEL_NAME = "label.json"
INDEX_NAME = "index.json"
#: Records per volume before ``append`` auto-rotates.
DEFAULT_VOLUME_RECORDS = 4096
#: Validated sealed volumes an archive remembers for windowed replay;
#: two cover a window that straddles a volume boundary.
_REMEMBERED_VOLUMES = 2


@dataclasses.dataclass(frozen=True)
class ArchiveRecord:
    """One timestamped sample of every logged metric instance."""

    timestamp: float
    values: Dict[Tuple[str, str], int]  # (metric, instance) -> value
    #: True when the daemon restarted since the previous sample; the
    #: interval ending at this record is unusable for rates.
    gap: bool = False


@dataclasses.dataclass(frozen=True)
class VolumeInfo:
    """Index entry for one sealed (immutable) volume file.

    ``t0``/``t1`` are the smallest and largest timestamps in the volume
    (its first and last for in-order archives), so a replay window
    skips the volume only when none of its records can fall inside.
    """

    name: str
    records: int
    t0: float
    t1: float
    crc32: int


# ----------------------------------------------------------------------
# Record line codec.

def _encode_record(record: ArchiveRecord) -> str:
    values = {}
    for (metric, instance), value in sorted(record.values.items()):
        if "|" in metric or "|" in instance:
            raise ArchiveError(
                f"metric/instance names may not contain '|': "
                f"{metric!r}[{instance!r}]")
        values[f"{metric}|{instance}"] = int(value)
    body = json.dumps(
        {"t": record.timestamp, "gap": bool(record.gap), "v": values},
        sort_keys=True, separators=(",", ":"))
    return "%08x %s\n" % (zlib.crc32(body.encode("utf-8")), body)


def _decode_record(line: bytes, where: str) -> ArchiveRecord:
    """Decode one record line, given as bytes without its newline.

    Any damage, undecodable UTF-8 included, raises
    :class:`~repro.errors.ArchiveCorruptionError`.
    """
    if len(line) < 10 or line[8:9] != b" ":
        raise ArchiveCorruptionError(f"{where}: malformed record line")
    crc_hex, body = line[:8], line[9:]
    try:
        expected = int(crc_hex, 16)
    except ValueError:
        field = crc_hex.decode("ascii", "backslashreplace")
        raise ArchiveCorruptionError(
            f"{where}: bad record checksum field {field!r}") from None
    if zlib.crc32(body) != expected:
        raise ArchiveCorruptionError(f"{where}: record checksum mismatch")
    try:
        data = json.loads(body.decode("utf-8"))
        values = {}
        for key, value in data["v"].items():
            metric, _, instance = key.rpartition("|")
            values[(metric, instance)] = int(value)
        return ArchiveRecord(timestamp=float(data["t"]),
                             values=values, gap=bool(data["gap"]))
    except (ValueError, KeyError, TypeError, AttributeError):
        raise ArchiveCorruptionError(
            f"{where}: record body failed to parse") from None


def _in_window(timestamp: float, t0: float, t1: float) -> bool:
    """True when ``timestamp`` lies in ``[t0, t1]`` (``t1 < 0``: no bound)."""
    return not (timestamp < t0 or 0 <= t1 < timestamp)


def _file_crc32(path: str) -> int:
    crc = 0
    with open(path, "rb") as fh:
        while True:
            block = fh.read(1 << 20)
            if not block:
                return crc
            crc = zlib.crc32(block, crc)


def _atomic_write_json(path: str, payload: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


class MetricArchive:
    """An append-only on-disk archive of :class:`ArchiveRecord` samples."""

    def __init__(self, path: str, *, hostname: str = "",
                 volume_records: int = DEFAULT_VOLUME_RECORDS,
                 _create: bool = False):
        if volume_records < 1:
            raise ArchiveError("volume_records must be >= 1")
        self.path = os.path.abspath(path)
        self.volume_records = int(volume_records)
        self.hostname = hostname
        self.volumes: List[VolumeInfo] = []
        #: Volume names skipped by non-strict reads (checksum mismatch).
        self.quarantined: List[str] = []
        self._next_seq = 0
        self._tail_name: Optional[str] = None
        self._tail_records = 0
        self._tail_t0 = 0.0
        self._tail_t1 = 0.0
        self._tail_fh = None
        self._closed = False
        #: Validated sealed volumes, keyed by index entry: the file's
        #: bytes, each record's timestamp and the byte offsets where its
        #: lines start (one more offset than records).
        self._remembered: Dict[
            VolumeInfo, Tuple[bytes, List[float], List[int]]] = {}
        if _create:
            self._create_on_disk()
        else:
            self._recover_from_disk()

    # -- construction ---------------------------------------------------
    @classmethod
    def create(cls, path: str, *, hostname: str = "",
               volume_records: int = DEFAULT_VOLUME_RECORDS
               ) -> "MetricArchive":
        """Create a new empty archive directory (must not exist yet)."""
        return cls(path, hostname=hostname,
                   volume_records=volume_records, _create=True)

    @classmethod
    def open(cls, path: str, *,
             volume_records: int = DEFAULT_VOLUME_RECORDS
             ) -> "MetricArchive":
        """Open an existing archive, recovering from a crashed writer.

        A partial (or checksum-failing) tail record left by a crash
        mid-append is truncated away; everything before it is kept.
        """
        return cls(path, volume_records=volume_records, _create=False)

    def _create_on_disk(self) -> None:
        os.makedirs(self.path, exist_ok=False)
        _atomic_write_json(os.path.join(self.path, LABEL_NAME), {
            "magic": ARCHIVE_MAGIC,
            "format": ARCHIVE_FORMAT,
            "hostname": self.hostname,
        })
        self._write_index()

    def _recover_from_disk(self) -> None:
        label_path = os.path.join(self.path, LABEL_NAME)
        try:
            with open(label_path, "r", encoding="utf-8") as fh:
                label = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ArchiveError(
                f"not a metric archive: {self.path} ({exc})") from None
        if label.get("magic") != ARCHIVE_MAGIC:
            raise ArchiveError(f"not a metric archive: {self.path}")
        if label.get("format") != ARCHIVE_FORMAT:
            raise ArchiveError(
                f"unsupported archive format {label.get('format')!r}")
        self.hostname = str(label.get("hostname", ""))

        index_path = os.path.join(self.path, INDEX_NAME)
        try:
            with open(index_path, "r", encoding="utf-8") as fh:
                index = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ArchiveCorruptionError(
                f"archive index unreadable: {index_path} ({exc})") from None
        self.volumes = [VolumeInfo(**entry) for entry in index["volumes"]]
        self._next_seq = int(index["next_seq"])
        tail = index.get("tail")
        if tail is not None:
            self._recover_tail(str(tail))

    def _recover_tail(self, name: str) -> None:
        """Scan the tail volume, truncating after the last good record."""
        tail_path = os.path.join(self.path, name)
        try:
            with open(tail_path, "rb") as fh:
                data = fh.read()
        except OSError:
            # Tail file vanished (crash between volume create and first
            # append): restart it empty.
            return
        self._tail_name = name
        good_bytes = 0
        # The piece after the last newline is empty or a partial line
        # left by a crash mid-append.
        for line in data.split(b"\n")[:-1]:
            try:
                record = _decode_record(line, name)
            except ArchiveCorruptionError:
                break  # torn write: keep everything before it
            self._track_tail_range(record.timestamp)
            good_bytes += len(line) + 1
        if len(data) != good_bytes:
            with open(tail_path, "r+b") as fh:
                fh.truncate(good_bytes)

    # -- writing --------------------------------------------------------
    def _require_open(self) -> None:
        if self._closed:
            raise ArchiveError("archive is closed")

    def _open_tail(self) -> None:
        if self._tail_name is None:
            self._tail_name = f"volume.{self._next_seq:05d}.jsonl"
            self._next_seq += 1
            self._tail_records = 0
            self._write_index()
        if self._tail_fh is None:
            self._tail_fh = open(
                os.path.join(self.path, self._tail_name), "ab")

    def append(self, record: ArchiveRecord) -> None:
        """Append one record, auto-rotating at ``volume_records``."""
        self._require_open()
        if self._tail_records >= self.volume_records:
            self.rotate()
        self._open_tail()
        self._tail_fh.write(_encode_record(record).encode("utf-8"))
        self._tail_fh.flush()
        self._track_tail_range(record.timestamp)

    def _track_tail_range(self, timestamp: float) -> None:
        """Count one more tail record, widening the tail's time range."""
        if self._tail_records == 0:
            self._tail_t0 = self._tail_t1 = timestamp
        else:
            self._tail_t0 = min(self._tail_t0, timestamp)
            self._tail_t1 = max(self._tail_t1, timestamp)
        self._tail_records += 1

    def extend(self, records: Iterable[ArchiveRecord]) -> None:
        for record in records:
            self.append(record)

    def _seal_tail(self) -> None:
        if self._tail_name is None:
            return
        if self._tail_fh is not None:
            self._tail_fh.flush()
            os.fsync(self._tail_fh.fileno())
            self._tail_fh.close()
            self._tail_fh = None
        if self._tail_records == 0:
            # Never seal an empty volume; just drop the file.
            try:
                os.unlink(os.path.join(self.path, self._tail_name))
            except OSError:
                pass
        else:
            self.volumes.append(VolumeInfo(
                name=self._tail_name, records=self._tail_records,
                t0=self._tail_t0, t1=self._tail_t1,
                crc32=_file_crc32(os.path.join(self.path, self._tail_name)),
            ))
        self._tail_name = None
        self._tail_records = 0

    def rotate(self) -> None:
        """Seal the tail volume (making it immutable) and start a new one
        on the next append."""
        self._require_open()
        self._seal_tail()
        self._write_index()

    def close(self) -> None:
        """Seal the tail and write the final index. Idempotent."""
        if self._closed:
            return
        self._seal_tail()
        self._write_index()
        self._closed = True

    def __enter__(self) -> "MetricArchive":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _write_index(self) -> None:
        _atomic_write_json(os.path.join(self.path, INDEX_NAME), {
            "format": ARCHIVE_FORMAT,
            "volumes": [dataclasses.asdict(v) for v in self.volumes],
            "tail": self._tail_name,
            "next_seq": self._next_seq,
        })

    # -- reading --------------------------------------------------------
    def _read_volume(self, info: VolumeInfo, strict: bool,
                     t0: float = -math.inf, t1: float = -1.0
                     ) -> List[ArchiveRecord]:
        """Decode a sealed volume's records with timestamps in ``[t0, t1]``.

        The file is read on every call. The first read validates all of
        it: the whole-file checksum against ``info``, every record line
        and the record count. It then remembers the bytes, keyed by
        ``info``, with each record's timestamp and byte span. When a
        later read finds the same bytes it decodes only the lines inside
        the window: validation is a function of the bytes, so its result
        cannot differ. Different bytes take the full path again. Every
        call returns freshly decoded records.

        A damaged or unreadable volume raises
        :class:`~repro.errors.ArchiveCorruptionError`, or in non-strict
        mode is quarantined and reads as empty.
        """
        try:
            return self._decode_volume(info, t0, t1)
        except ArchiveCorruptionError:
            if strict:
                raise
            if info.name not in self.quarantined:
                self.quarantined.append(info.name)
            return []

    def _decode_volume(self, info: VolumeInfo, t0: float, t1: float
                       ) -> List[ArchiveRecord]:
        """:meth:`_read_volume` in strict mode."""
        try:
            with open(os.path.join(self.path, info.name), "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise ArchiveCorruptionError(
                f"{info.name}: unreadable ({exc})") from None
        known = self._remembered.get(info)
        if known is not None and known[0] == data:
            _, stamps, starts = known
            return [_decode_record(data[starts[i]:starts[i + 1] - 1],
                                   info.name)
                    for i, stamp in enumerate(stamps)
                    if _in_window(stamp, t0, t1)]
        if zlib.crc32(data) != info.crc32:
            raise ArchiveCorruptionError(
                f"{info.name}: volume checksum mismatch")
        lines = data.split(b"\n")
        if not lines[-1]:
            lines.pop()
        records = [_decode_record(line, info.name) for line in lines]
        if len(records) != info.records:
            raise ArchiveCorruptionError(
                f"{info.name}: expected {info.records} records, "
                f"found {len(records)}")
        starts = list(itertools.accumulate(
            (len(line) + 1 for line in lines), initial=0))
        remembered = list(self._remembered.items())
        remembered.append((info, (
            data, [record.timestamp for record in records], starts)))
        # Replace rather than mutate, so a concurrent reader never sees
        # the dict change under it.
        self._remembered = dict(remembered[-_REMEMBERED_VOLUMES:])
        return [record for record in records
                if _in_window(record.timestamp, t0, t1)]

    def _read_tail(self) -> List[ArchiveRecord]:
        """Decode every complete record of the unsealed tail volume."""
        if self._tail_name is None:
            return []
        if self._tail_fh is not None:
            self._tail_fh.flush()
        path = os.path.join(self.path, self._tail_name)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError:
            return []
        # The piece after the last newline is empty or still being written.
        return [_decode_record(line, self._tail_name)
                for line in data.split(b"\n")[:-1]]

    def records(self, t0: float = 0.0, t1: float = -1.0,
                metrics: Optional[Sequence[str]] = None,
                strict: bool = True) -> List[ArchiveRecord]:
        """Replay archived records with timestamps in ``[t0, t1]``.

        ``t1 < 0`` means no upper bound. With ``metrics``, each record's
        values are filtered to those metric names and records left empty
        by the filter are dropped. In non-strict mode a corrupted sealed
        volume is quarantined (named in :attr:`quarantined`) instead of
        raising, and the replay continues with the surviving volumes.
        Corruption in the unsealed tail raises in either mode.

        Sealed volumes whose time range misses the window are not read.
        A sealed volume read again with unchanged bytes decodes only the
        records inside the window (see :meth:`_read_volume`); the tail
        is decoded in full on every call. The returned records are fresh
        objects that share no state with earlier or later calls.
        """
        out: List[ArchiveRecord] = []
        for info in self.volumes:
            if info.records and (info.t1 < t0 or (t1 >= 0 and info.t0 > t1)):
                continue  # volume entirely outside the window
            out.extend(self._read_volume(info, strict, t0, t1))
        out.extend(self._read_tail())
        wanted = set(metrics) if metrics is not None else None
        selected: List[ArchiveRecord] = []
        for rec in out:
            if not _in_window(rec.timestamp, t0, t1):
                continue
            if wanted is not None:
                values = {key: v for key, v in rec.values.items()
                          if key[0] in wanted}
                if not values:
                    continue
                rec = ArchiveRecord(timestamp=rec.timestamp,
                                    values=values, gap=rec.gap)
            selected.append(rec)
        return selected

    def series(self, metric: str, instance: str
               ) -> List[Tuple[float, int]]:
        """Replay one metric instance as (timestamp, value) pairs."""
        key = (metric, instance)
        out = [(rec.timestamp, rec.values[key])
               for rec in self.records() if key in rec.values]
        if not out:
            raise PCPError(f"no archived data for {metric}[{instance}]")
        return out

    def rates(self, metric: str, instance: str
              ) -> List[Tuple[float, float]]:
        """Counter metric -> rate curve; identical semantics to the live
        ``SessionLogger.rates`` (gap records restart the curve)."""
        return rates_from_records(self.records(), metric, instance)

    def instances_of(self, metric: str) -> List[str]:
        for rec in self.records():
            found = sorted(inst for (m, inst) in rec.values if m == metric)
            if found:
                return found
        return []

    def __len__(self) -> int:
        return sum(v.records for v in self.volumes) + self._tail_records

    # -- maintenance ----------------------------------------------------
    def retain(self, max_volumes: Optional[int] = None,
               max_records: Optional[int] = None) -> List[str]:
        """Drop the oldest sealed volumes until within budget.

        The tail volume is never dropped. Returns the names of the
        volumes removed. The index is updated (atomically) *before* the
        files are unlinked, so a crash mid-retention leaves orphan files
        but never a dangling index entry.
        """
        self._require_open()
        keep = list(self.volumes)
        dropped: List[VolumeInfo] = []
        while keep:
            over = ((max_volumes is not None and len(keep) > max_volumes)
                    or (max_records is not None
                        and sum(v.records for v in keep)
                        + self._tail_records > max_records))
            if not over:
                break
            dropped.append(keep.pop(0))
        if not dropped:
            return []
        self.volumes = keep
        self._write_index()
        for info in dropped:
            try:
                os.unlink(os.path.join(self.path, info.name))
            except OSError:
                pass
        return [info.name for info in dropped]

    def compact(self) -> Optional[str]:
        """Merge all sealed volumes into one, record for record.

        Replay output (``records``/``series``/``rates``) is unchanged —
        compaction only reduces file count. Returns the new volume name,
        or None if there was nothing to merge. Uses the same
        index-before-unlink ordering as :meth:`retain`.
        """
        self._require_open()
        if len(self.volumes) < 2:
            return None
        merged: List[ArchiveRecord] = []
        for info in self.volumes:
            merged.extend(self._read_volume(info, strict=True))
        name = f"volume.{self._next_seq:05d}.jsonl"
        self._next_seq += 1
        path = os.path.join(self.path, name)
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            for record in merged:
                fh.write(_encode_record(record).encode("utf-8"))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        old = self.volumes
        self.volumes = [VolumeInfo(
            name=name, records=len(merged),
            t0=min(record.timestamp for record in merged),
            t1=max(record.timestamp for record in merged),
            crc32=_file_crc32(path),
        )]
        self._write_index()
        for info in old:
            try:
                os.unlink(os.path.join(self.path, info.name))
            except OSError:
                pass
        return name

    def verify(self) -> Dict[str, str]:
        """Check every sealed volume against its index entry.

        Returns ``{volume_name: error}`` — empty means healthy.
        """
        problems: Dict[str, str] = {}
        for info in self.volumes:
            try:
                self._read_volume(info, strict=True)
            except ArchiveCorruptionError as exc:
                problems[info.name] = str(exc)
        return problems


def rates_from_records(records: Sequence[ArchiveRecord], metric: str,
                       instance: str) -> List[Tuple[float, float]]:
    """PCP rate conversion over a record sequence (gap-aware).

    Shared by the live ``SessionLogger`` and archive replay so the two
    can never drift apart.
    """
    key = (metric, instance)
    out: List[Tuple[float, float]] = []
    prev: Optional[ArchiveRecord] = None
    for rec in records:
        if key not in rec.values:
            continue
        if rec.gap or prev is None:
            prev = rec
            continue
        t0, t1 = prev.timestamp, rec.timestamp
        if t1 <= t0:
            raise PCPError("archive timestamps not increasing")
        out.append((t1, (rec.values[key] - prev.values[key]) / (t1 - t0)))
        prev = rec
    return out
