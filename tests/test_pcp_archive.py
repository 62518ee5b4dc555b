"""On-disk metric archive: durability, crash recovery, maintenance.

The archive is the fabric's pmlogger subsystem; its contract is that
replay is indistinguishable from having watched the live samples, no
matter how the writer died or how many times the volumes were rotated,
retained or compacted in between.
"""

import dataclasses
import json
import os
import random
import sys
import tempfile
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ArchiveCorruptionError, ArchiveError, PCPError
from repro.pcp import archive as archive_module
from repro.pcp.archive import (
    ArchiveRecord,
    MetricArchive,
    _encode_record,
    rates_from_records,
)
from repro.pcp.pmcd import PMCD
from repro.pcp.protocol import ArchiveFetchRequest, ErrorResponse, PCPStatus

METRIC = "perfevent.hwcounters.nest_mcs01.reads.value"
#: XOR masks for one flipped byte: one keeps the line ASCII, the other
#: leaves bytes that are not UTF-8.
FLIPS = {"ascii": 0x01, "non-utf8": 0xFF}


def make_record(i, value=None, gap=False):
    return ArchiveRecord(
        timestamp=float(i),
        values={(METRIC, "cpu87"): 1000 * i if value is None else value},
        gap=gap)


def flip_byte(path, offset, mask):
    with open(path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([byte[0] ^ mask]))


def flip_last_record(path, mask):
    """Flip one byte inside the body of the file's last record line."""
    with open(path, "rb") as fh:
        data = fh.read()
    flip_byte(path, data.rstrip(b"\n").rfind(b"\n") + 1 + 12, mask)


@pytest.fixture
def archive(tmp_path):
    with MetricArchive.create(str(tmp_path / "arch"),
                              hostname="simnode",
                              volume_records=4) as arch:
        yield arch


class TestRoundTrip:
    def test_append_replay(self, archive):
        for i in range(1, 11):
            archive.append(make_record(i))
        records = archive.records()
        assert [r.timestamp for r in records] == [float(i)
                                                 for i in range(1, 11)]
        assert records[0].values[(METRIC, "cpu87")] == 1000

    def test_auto_rotation_seals_volumes(self, archive):
        for i in range(1, 11):
            archive.append(make_record(i))
        # volume_records=4 -> two sealed volumes + a 2-record tail.
        assert len(archive.volumes) == 2
        assert all(v.records == 4 for v in archive.volumes)
        assert len(archive) == 10

    def test_reopen_replays_identically(self, archive):
        for i in range(1, 8):
            archive.append(make_record(i))
        before = archive.records()
        archive.close()
        reopened = MetricArchive.open(archive.path)
        assert reopened.records() == before
        assert reopened.hostname == "simnode"

    def test_series_and_window(self, archive):
        for i in range(1, 9):
            archive.append(make_record(i))
        series = archive.series(METRIC, "cpu87")
        assert series[0] == (1.0, 1000)
        windowed = archive.records(t0=3.0, t1=5.0)
        assert [r.timestamp for r in windowed] == [3.0, 4.0, 5.0]

    def test_rates_match_shared_helper(self, archive):
        for i in range(1, 6):
            archive.append(make_record(i))
        assert archive.rates(METRIC, "cpu87") == rates_from_records(
            archive.records(), METRIC, "cpu87")
        assert all(rate == pytest.approx(1000.0)
                   for _, rate in archive.rates(METRIC, "cpu87"))

    def test_gap_records_restart_rate_curve(self, archive):
        for i in range(1, 7):
            archive.append(make_record(i, gap=(i == 4)))
        rates = archive.rates(METRIC, "cpu87")
        # The interval ending at the gap record (t=4) is unusable; the
        # gap record then baselines the next interval.
        assert [t for t, _ in rates] == [2.0, 3.0, 5.0, 6.0]

    def test_pipe_in_names_rejected(self, archive):
        with pytest.raises(ArchiveError):
            archive.append(ArchiveRecord(
                timestamp=1.0, values={("a|b", "cpu87"): 1}))


class TestCrashRecovery:
    def _seed(self, tmp_path, n=6):
        arch = MetricArchive.create(str(tmp_path / "arch"),
                                    volume_records=4)
        for i in range(1, n + 1):
            arch.append(make_record(i))
        # Simulate a crash: no close(), no final index write.
        if arch._tail_fh is not None:
            arch._tail_fh.flush()
        return arch.path

    def test_open_after_crash_keeps_all_records(self, tmp_path):
        path = self._seed(tmp_path)
        arch = MetricArchive.open(path)
        assert [r.timestamp for r in arch.records()] == [
            float(i) for i in range(1, 7)]

    def test_partial_tail_line_truncated(self, tmp_path):
        path = self._seed(tmp_path)
        tail = os.path.join(path, "volume.00001.jsonl")
        with open(tail, "ab") as fh:
            fh.write(b'deadbeef {"t": 99')  # torn mid-append
        arch = MetricArchive.open(path)
        assert [r.timestamp for r in arch.records()] == [
            float(i) for i in range(1, 7)]
        # The torn bytes are physically gone: the tail is writable again.
        assert os.path.getsize(tail) > 0

    def test_corrupt_tail_record_truncated(self, tmp_path):
        path = self._seed(tmp_path)
        tail = os.path.join(path, "volume.00001.jsonl")
        with open(tail, "ab") as fh:
            fh.write(b"00000000 {}\n")  # checksum mismatch
        arch = MetricArchive.open(path)
        assert len(arch.records()) == 6

    def test_append_resumes_after_recovery(self, tmp_path):
        path = self._seed(tmp_path)
        arch = MetricArchive.open(path)
        arch.append(make_record(7))
        arch.close()
        assert len(MetricArchive.open(path).records()) == 7

    def test_vanished_tail_restarts_empty(self, tmp_path):
        path = self._seed(tmp_path)
        os.unlink(os.path.join(path, "volume.00001.jsonl"))
        arch = MetricArchive.open(path)
        # The sealed volume survives; only the unsealed tail is lost.
        assert [r.timestamp for r in arch.records()] == [
            1.0, 2.0, 3.0, 4.0]
        arch.append(make_record(9))
        assert len(arch.records()) == 5

    def test_open_non_archive_raises(self, tmp_path):
        with pytest.raises(ArchiveError):
            MetricArchive.open(str(tmp_path))


class TestTailCorruption:
    """A damaged record in the unsealed tail is corruption, whatever bytes
    the damage leaves, UTF-8 or not."""

    @pytest.fixture
    def live(self, tmp_path):
        """An open writer whose tail holds records 5-6, and the tail path."""
        arch = MetricArchive.create(str(tmp_path / "arch"),
                                    volume_records=4)
        for i in range(1, 7):
            arch.append(make_record(i))
        yield arch, os.path.join(arch.path, "volume.00001.jsonl")
        arch._tail_fh.close()

    @pytest.mark.parametrize("flip", sorted(FLIPS))
    def test_open_truncates_at_flipped_record(self, live, flip):
        arch, tail = live
        arch._tail_fh.close()  # crash: no seal, no final index
        good_size = os.path.getsize(tail)
        flip_last_record(tail, FLIPS[flip])
        with open(tail, "rb") as fh:
            kept = len(fh.read().rstrip(b"\n").rsplit(b"\n", 1)[0]) + 1
        reopened = MetricArchive.open(arch.path)
        assert [r.timestamp for r in reopened.records()] == [
            1.0, 2.0, 3.0, 4.0, 5.0]
        assert os.path.getsize(tail) == kept < good_size
        reopened.append(make_record(7))
        assert len(reopened.records()) == 6
        reopened.close()

    @pytest.mark.parametrize("strict", [True, False],
                             ids=["strict", "lenient"])
    @pytest.mark.parametrize("flip", sorted(FLIPS))
    def test_replay_raises_corruption(self, live, flip, strict):
        arch, tail = live
        flip_last_record(tail, FLIPS[flip])
        with pytest.raises(ArchiveCorruptionError):
            arch.records(strict=strict)

    @pytest.mark.parametrize("flip", sorted(FLIPS))
    def test_pmcd_answers_with_error(self, live, flip):
        arch, tail = live
        flip_last_record(tail, FLIPS[flip])
        pmcd = PMCD()
        pmcd.attach_archive(arch)
        response = pmcd.handle(ArchiveFetchRequest(metrics=(METRIC,)))
        assert isinstance(response, ErrorResponse)
        assert response.status == PCPStatus.PM_ERR_NODATA
        assert pmcd.stats.errors == 1


def _flip_sealed(arch, index):
    flip_byte(os.path.join(arch.path, arch.volumes[index].name), 15, 0xFF)


def _append_sealed(arch, index):
    with open(os.path.join(arch.path, arch.volumes[index].name), "ab") as fh:
        fh.write(_encode_record(make_record(99)).encode("utf-8"))


def _unlink_sealed(arch, index):
    os.unlink(os.path.join(arch.path, arch.volumes[index].name))


def _miscount_sealed(arch, index):
    """The index entry disagrees with the (unchanged) file's count."""
    info = arch.volumes[index]
    arch.volumes[index] = dataclasses.replace(info, records=info.records + 1)


#: Ways to damage sealed volume ``index`` of an archive.
DAMAGE = {"bit-flip": _flip_sealed, "appended-record": _append_sealed,
          "missing": _unlink_sealed, "index-count": _miscount_sealed}


class TestCorruptionDetection:
    def _sealed(self, tmp_path):
        arch = MetricArchive.create(str(tmp_path / "arch"),
                                    volume_records=3)
        for i in range(1, 10):
            arch.append(make_record(i))
        arch.rotate()
        return arch

    def test_bit_flip_detected_strict(self, tmp_path):
        arch = self._sealed(tmp_path)
        victim = os.path.join(arch.path, arch.volumes[0].name)
        with open(victim, "r+b") as fh:
            fh.seek(15)
            byte = fh.read(1)
            fh.seek(15)
            fh.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(ArchiveCorruptionError):
            arch.records()
        assert arch.volumes[0].name in arch.verify()

    def test_bit_flip_quarantined_non_strict(self, tmp_path):
        arch = self._sealed(tmp_path)
        victim = os.path.join(arch.path, arch.volumes[1].name)
        with open(victim, "r+b") as fh:
            fh.seek(15)
            byte = fh.read(1)
            fh.seek(15)
            fh.write(bytes([byte[0] ^ 0xFF]))
        survivors = arch.records(strict=False)
        assert arch.quarantined == [arch.volumes[1].name]
        # Only the corrupt volume's 3 records are lost.
        assert len(survivors) == 6

    def test_missing_volume_detected(self, tmp_path):
        arch = self._sealed(tmp_path)
        os.unlink(os.path.join(arch.path, arch.volumes[0].name))
        with pytest.raises(ArchiveCorruptionError):
            arch.records()

    def test_record_count_mismatch_detected(self, tmp_path):
        arch = self._sealed(tmp_path)
        victim = os.path.join(arch.path, arch.volumes[0].name)
        extra = _encode_record(make_record(99))
        with open(victim, "a", encoding="utf-8") as fh:
            fh.write(extra)
        with pytest.raises(ArchiveCorruptionError):
            arch.records()

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_damage_detected_in_every_mode(self, tmp_path, damage):
        arch = self._sealed(tmp_path)
        victim = arch.volumes[0].name
        DAMAGE[damage](arch, 0)
        with pytest.raises(ArchiveCorruptionError):
            arch.records(t0=2.0, t1=3.0)
        assert victim in arch.verify()
        survivors = arch.records(strict=False)
        assert arch.quarantined == [victim]
        assert [r.timestamp for r in survivors] == [
            float(i) for i in range(4, 10)]


class TestCorruptionDetectionWarm(TestCorruptionDetection):
    """The same damage, made after a windowed read of the victims.

    The read validates and remembers volumes 0 and 1, the ones the tests
    damage, so a replay that trusted what it remembered over the disk
    would miss the damage.
    """

    def _sealed(self, tmp_path):
        arch = super()._sealed(tmp_path)
        assert [r.timestamp for r in arch.records(t0=2.0, t1=5.0)] == [
            2.0, 3.0, 4.0, 5.0]
        return arch


class TestOutOfOrderTimestamps:
    def test_window_finds_early_record_after_sealing(self, tmp_path):
        def window(arch):
            return [r.timestamp for r in arch.records(t0=0.0, t1=2.0)]

        arch = MetricArchive.create(str(tmp_path / "arch"),
                                    volume_records=3)
        arch.append(make_record(5))
        arch.append(make_record(1))
        assert window(arch) == [1.0]  # in the tail
        arch._tail_fh.close()  # crash: the reopened writer recovers 5, 1
        arch = MetricArchive.open(arch.path, volume_records=3)
        assert window(arch) == [1.0]
        for i in (6, 7):
            arch.append(make_record(i))  # seals 5, 1, 6
        assert (arch.volumes[0].t0, arch.volumes[0].t1) == (1.0, 6.0)
        assert window(arch) == [1.0]
        for i in (8, 9):
            arch.append(make_record(i))
        arch.close()
        arch = MetricArchive.open(arch.path)
        assert window(arch) == [1.0]
        assert arch.compact() is not None
        assert (arch.volumes[0].t0, arch.volumes[0].t1) == (1.0, 9.0)
        assert window(arch) == [1.0]

    def test_in_order_ranges_are_first_and_last(self, archive):
        for i in range(1, 10):
            archive.append(make_record(i))
        assert [(v.t0, v.t1) for v in archive.volumes] == [
            (1.0, 4.0), (5.0, 8.0)]


class TestWindowedReplay:
    """Sealed volumes read again decode only the requested window."""

    def _sealed(self, tmp_path, n):
        arch = MetricArchive.create(str(tmp_path / "arch"))
        for i in range(1, n + 1):
            arch.append(make_record(i))
        arch.close()
        return arch

    def test_windows_decode_only_their_records(self, tmp_path,
                                               monkeypatch):
        arch = self._sealed(tmp_path, 200)
        decode = archive_module._decode_record
        calls = []

        def counting_decode(line, where):
            calls.append(where)
            return decode(line, where)

        monkeypatch.setattr(archive_module, "_decode_record",
                            counting_decode)
        replayed = []
        for lo in range(1, 201, 10):
            replayed += arch.records(t0=float(lo), t1=float(lo + 9),
                                     metrics=[METRIC])
        assert replayed == [make_record(i) for i in range(1, 201)]
        # One full validation (200) plus 19 windows of 10; re-decoding
        # the volume for every window would take 4000.
        assert len(calls) <= 400

    def test_returned_records_share_no_state(self, tmp_path):
        arch = self._sealed(tmp_path, 20)
        for _ in range(3):  # cold, then warm twice
            replayed = arch.records(t0=3.0, t1=7.0)
            assert replayed == [make_record(i) for i in range(3, 8)]
            for record in replayed:
                record.values.clear()

    def test_concurrent_readers_replay_exactly(self, tmp_path):
        arch = MetricArchive.create(str(tmp_path / "arch"),
                                    volume_records=25)
        for i in range(1, 101):
            arch.append(make_record(i))
        arch.close()  # four sealed volumes, two remembered at a time
        errors = []

        def reader(seed):
            rng = random.Random(seed)
            try:
                for _ in range(40):
                    lo = rng.randint(1, 100)
                    hi = rng.randint(lo, 100)
                    got = arch.records(t0=float(lo), t1=float(hi))
                    if got != [make_record(i) for i in range(lo, hi + 1)]:
                        errors.append((lo, hi))
            except Exception as exc:  # reported by the assert below
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(seed,))
                   for seed in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    def test_changed_index_entry_revalidates(self, tmp_path):
        arch = self._sealed(tmp_path, 20)
        assert len(arch.records(t0=3.0, t1=7.0)) == 5
        info = arch.volumes[0]
        arch.volumes[0] = dataclasses.replace(info, crc32=info.crc32 ^ 1)
        with pytest.raises(ArchiveCorruptionError, match="checksum"):
            arch.records(t0=3.0, t1=7.0)
        arch.volumes[0] = info
        assert len(arch.records(t0=3.0, t1=7.0)) == 5


#: Metric instances for generated records; records may hold none.
KEYS = [(metric, instance)
        for metric in (METRIC, "perfevent.hwcounters.nest_mcs01.writes.value",
                       "pmcd.pdu_in")
        for instance in ("cpu0", "cpu87")]
#: Half-second steps: duplicates and out-of-order timestamps are common.
halves = st.integers(-2, 42).map(lambda n: n / 2)
generated_records = st.builds(
    ArchiveRecord,
    timestamp=halves.filter(lambda t: t >= 0),
    values=st.dictionaries(st.sampled_from(KEYS), st.integers(0, 10**6),
                           max_size=4),
    gap=st.booleans())
#: ``(t0, t1, metrics)``; ``t1 < 0`` is unbounded, ``None`` unfiltered.
windows = st.tuples(
    halves, halves,
    st.none() | st.lists(st.sampled_from(sorted({m for m, _ in KEYS})),
                         max_size=2, unique=True))


def filtered(records, t0, t1, metrics):
    """The replay contract, applied by hand to a list of records."""
    out = []
    for record in records:
        if record.timestamp < t0 or (t1 >= 0 and record.timestamp > t1):
            continue
        if metrics is not None:
            values = {key: value for key, value in record.values.items()
                      if key[0] in metrics}
            if not values:
                continue
            record = ArchiveRecord(record.timestamp, values, record.gap)
        out.append(record)
    return out


class TestReplayDifferential:
    @settings(max_examples=60, deadline=None)
    @given(records=st.lists(generated_records, min_size=1, max_size=30),
           volume_records=st.integers(1, 6), seal_tail=st.booleans(),
           queries=st.lists(windows, min_size=1, max_size=8))
    def test_windowed_equals_filtered_full_replay(
            self, records, volume_records, seal_tail, queries):
        with tempfile.TemporaryDirectory() as tmp, MetricArchive.create(
                os.path.join(tmp, "arch"),
                volume_records=volume_records) as writer:
            path = writer.path
            writer.extend(records)
            if seal_tail:
                writer.rotate()
            full = MetricArchive.open(path).records()
            assert full == records
            for t0, t1, metrics in queries:
                expected = filtered(full, t0, t1, metrics)
                fresh = MetricArchive.open(path)
                assert fresh.records(t0, t1, metrics) == expected  # cold
                assert fresh.records(t0, t1, metrics) == expected  # warm
                # The writer remembers volumes across differing windows.
                assert writer.records(t0, t1, metrics) == expected


class TestMaintenance:
    def _filled(self, tmp_path, n=12, volume_records=3):
        arch = MetricArchive.create(str(tmp_path / "arch"),
                                    volume_records=volume_records)
        for i in range(1, n + 1):
            arch.append(make_record(i))
        return arch

    def test_retain_max_volumes_drops_oldest(self, tmp_path):
        arch = self._filled(tmp_path)  # 3 sealed + 3-record tail
        dropped = arch.retain(max_volumes=1)
        assert dropped == ["volume.00000.jsonl", "volume.00001.jsonl"]
        assert [r.timestamp for r in arch.records()] == [
            float(i) for i in range(7, 13)]
        for name in dropped:
            assert not os.path.exists(os.path.join(arch.path, name))

    def test_retain_max_records_counts_tail(self, tmp_path):
        arch = self._filled(tmp_path)
        arch.retain(max_records=7)
        # Tail (3 records) is never dropped; sealed volumes go oldest
        # first until <= 7 records remain.
        assert len(arch) == 6

    def test_retain_never_drops_tail(self, tmp_path):
        arch = self._filled(tmp_path)
        arch.retain(max_volumes=0, max_records=0)
        assert len(arch) == 3  # the unsealed tail survives
        assert arch.volumes == []

    def test_retain_noop_returns_empty(self, tmp_path):
        arch = self._filled(tmp_path)
        assert arch.retain(max_volumes=10) == []

    def test_retain_survives_reopen(self, tmp_path):
        arch = self._filled(tmp_path)
        arch.retain(max_volumes=1)
        arch.close()
        assert len(MetricArchive.open(arch.path).records()) == 6

    def test_compact_preserves_replay(self, tmp_path):
        arch = self._filled(tmp_path)
        before_records = arch.records()
        before_rates = arch.rates(METRIC, "cpu87")
        name = arch.compact()
        assert name is not None
        assert len(arch.volumes) == 1
        assert arch.records() == before_records
        assert arch.rates(METRIC, "cpu87") == before_rates
        assert not arch.verify()

    def test_compact_single_volume_noop(self, tmp_path):
        arch = self._filled(tmp_path, n=3)
        arch.rotate()
        assert arch.compact() is None

    def test_compact_then_append_then_reopen(self, tmp_path):
        arch = self._filled(tmp_path)
        arch.compact()
        arch.append(make_record(13))
        arch.close()
        reopened = MetricArchive.open(arch.path)
        assert [r.timestamp for r in reopened.records()] == [
            float(i) for i in range(1, 14)]

    def test_closed_archive_refuses_writes(self, tmp_path):
        arch = self._filled(tmp_path, n=2)
        arch.close()
        with pytest.raises(ArchiveError):
            arch.append(make_record(3))
        with pytest.raises(ArchiveError):
            arch.retain(max_volumes=0)
        arch.close()  # idempotent

    def test_empty_tail_not_sealed(self, tmp_path):
        arch = MetricArchive.create(str(tmp_path / "arch"))
        arch.rotate()
        arch.close()
        assert arch.volumes == []


class TestIndexDurability:
    def test_index_is_valid_json_after_every_rotate(self, tmp_path):
        arch = MetricArchive.create(str(tmp_path / "arch"),
                                    volume_records=2)
        for i in range(1, 7):
            arch.append(make_record(i))
            with open(os.path.join(arch.path, "index.json")) as fh:
                index = json.load(fh)
            assert index["format"] == 1
        arch.close()

    def test_no_tmp_files_left_behind(self, tmp_path):
        arch = MetricArchive.create(str(tmp_path / "arch"),
                                    volume_records=2)
        for i in range(1, 9):
            arch.append(make_record(i))
        arch.compact()
        arch.close()
        leftovers = [n for n in os.listdir(arch.path)
                     if n.endswith(".tmp")]
        assert leftovers == []


class TestRatesFromRecords:
    def test_non_increasing_timestamps_rejected(self):
        records = [make_record(2), make_record(2)]
        with pytest.raises(PCPError):
            rates_from_records(records, METRIC, "cpu87")

    def test_missing_instance_skipped(self):
        records = [make_record(1),
                   ArchiveRecord(timestamp=2.0, values={}),
                   make_record(3)]
        rates = rates_from_records(records, METRIC, "cpu87")
        assert rates == [(3.0, pytest.approx(1000.0))]
