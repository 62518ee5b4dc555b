"""Property-based tests (hypothesis) for core invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.analytic import cache_fit_fraction
from repro.machine.cache import CacheSim
from repro.machine.config import CacheConfig
from repro.machine.memory import MemoryController
from repro.machine.prefetch import StreamDetector
from repro.measure.repetition import repetitions_for
from repro.mpi.comm import Cluster, SimComm
from repro.machine.config import SUMMIT
from repro.noise import QUIET
from repro.pcp.pmns import PMNS
from repro.units import round_up, transactions

SMALL_CACHE = CacheConfig(capacity_bytes=16 * 1024, associativity=4)


class TestCacheProperties:
    @given(st.lists(st.tuples(st.integers(0, 1 << 16),
                              st.booleans()), min_size=1, maxsize=200)
           if False else
           st.lists(st.tuples(st.integers(0, 1 << 16), st.booleans()),
                    min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_traffic_is_granule_aligned_and_nonnegative(self, accesses):
        sim = CacheSim(SMALL_CACHE)
        for addr, is_write in accesses:
            sim.access(addr, 8, is_write)
        sim.flush()
        assert sim.traffic.read_bytes % 64 == 0
        assert sim.traffic.write_bytes % 64 == 0
        assert sim.traffic.read_bytes >= 0

    @given(st.lists(st.integers(0, 1 << 16), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_read_traffic_bounded_by_footprint_and_accesses(self, addrs):
        sim = CacheSim(SMALL_CACHE)
        for addr in addrs:
            sim.access(addr, 8, is_write=False)
        distinct_granules = len({a // 64 for a in addrs}
                                | {(a + 7) // 64 for a in addrs})
        # At least one fetch per distinct granule touched; at most two
        # fetches per access (an 8 B access can straddle two granules).
        assert sim.traffic.read_bytes >= distinct_granules * 64
        assert sim.traffic.read_bytes <= 2 * len(addrs) * 64

    @given(st.lists(st.integers(0, 1 << 14), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_writeback_conservation(self, addrs):
        """Every dirty byte is written back exactly once on flush."""
        sim = CacheSim(SMALL_CACHE)
        for addr in addrs:
            sim.access(addr, 8, is_write=True)
        sim.flush()
        distinct_granules = len({a // 64 for a in addrs} |
                                {(a + 7) // 64 for a in addrs})
        assert sim.traffic.write_bytes == distinct_granules * 64

    @given(st.integers(1, 500), st.integers(8, 512))
    @settings(max_examples=30, deadline=None)
    def test_resident_never_exceeds_capacity(self, count, stride):
        sim = CacheSim(SMALL_CACHE)
        sim.touch_array(0, count, 8, stride, is_write=False)
        assert sim.resident_bytes() <= SMALL_CACHE.capacity_bytes


class TestUnitsProperties:
    @given(st.integers(0, 1 << 40), st.sampled_from([32, 64, 128]))
    def test_round_up_properties(self, n, granule):
        rounded = round_up(n, granule)
        assert rounded >= n
        assert rounded - n < granule
        assert rounded % granule == 0

    @given(st.integers(0, 1 << 30))
    def test_transactions_consistent_with_round_up(self, n):
        assert transactions(n) * 64 == round_up(n)


class TestDetectorProperties:
    @given(st.integers(-(1 << 20), 1 << 20).filter(lambda s: s != 0),
           st.integers(6, 64))
    @settings(max_examples=50)
    def test_any_constant_stride_detected(self, stride, count):
        d = StreamDetector()
        for i in range(count):
            d.observe("s", 1 << 22 + i * 0 if False else (1 << 22) + i * stride)
        assert d.is_detected("s")

    @given(st.lists(st.integers(0, 1 << 16), min_size=2, max_size=50))
    @settings(max_examples=50)
    def test_detection_requires_stability(self, addrs):
        d = StreamDetector()
        for a in addrs:
            d.observe("s", a)
        if d.is_detected("s"):
            # Some window of >= threshold equal strides must exist.
            strides = [b - a for a, b in zip(addrs, addrs[1:])]
            threshold = d.config.detect_threshold
            found = any(
                len(set(strides[i:i + threshold - 1])) == 1
                and strides[i] != 0
                for i in range(len(strides) - threshold + 2)
                if strides[i:i + threshold - 1]
            )
            assert found


class TestMemoryControllerProperties:
    @given(st.lists(st.integers(1, 1 << 20), min_size=1, max_size=50))
    @settings(max_examples=50)
    def test_channel_sum_equals_total(self, sizes):
        mc = MemoryController(n_channels=8)
        expected = 0
        for nbytes in sizes:
            mc.record_read(nbytes)
            expected += round_up(nbytes)
        assert mc.total_read_bytes == expected

    @given(st.lists(st.integers(1, 1 << 16), min_size=5, max_size=50))
    @settings(max_examples=50)
    def test_channels_balanced_within_one_transaction_per_record(self, sizes):
        mc = MemoryController(n_channels=8)
        for nbytes in sizes:
            mc.record_read(nbytes)
        counts = [ch.read_bytes for ch in mc.channels]
        assert max(counts) - min(counts) <= 64 * len(sizes)

    @given(st.integers(1, 16), st.sampled_from([64, 128]),
           st.lists(st.tuples(st.sampled_from(["read", "write", "record"]),
                              st.integers(0, 1 << 20),
                              st.integers(0, 1 << 20)),
                    min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_channels_match_round_robin_dealing(self, n_channels, granule,
                                                calls):
        """Differential against an oracle that deals each transaction
        to the next channel of its direction, round-robin."""
        mc = MemoryController(n_channels=n_channels, granule=granule)
        dealt = {False: [0] * n_channels, True: [0] * n_channels}
        cursor = {False: 0, True: 0}

        def deal(nbytes, is_write):
            txns = -(-nbytes // granule)
            # n_channels consecutive deals give every channel one
            # granule and leave the cursor where it was.
            full, rest = divmod(txns, n_channels)
            counts = dealt[is_write]
            for ch in range(n_channels):
                counts[ch] += full * granule
            for _ in range(rest):
                counts[cursor[is_write]] += granule
                cursor[is_write] = (cursor[is_write] + 1) % n_channels

        for kind, a, b in calls:
            if kind == "read":
                mc.record_read(a)
                deal(a, False)
            elif kind == "write":
                mc.record_write(a)
                deal(a, True)
            else:
                mc.record(read_bytes=a, write_bytes=b)
                deal(a, False)
                deal(b, True)
            assert [ch.read_bytes for ch in mc.channels] == dealt[False]
            assert [ch.write_bytes for ch in mc.channels] == dealt[True]
            assert mc.total_read_bytes == sum(dealt[False])
            assert mc.total_write_bytes == sum(dealt[True])
            snap = mc.snapshot()
            assert [(ch.read_bytes, ch.write_bytes) for ch in snap] == list(
                zip(dealt[False], dealt[True]))
            # A returned copy is the caller's: mutating it leaves the
            # controller's counts alone.
            snap[0].read_bytes += granule
            snap[-1].write_bytes += granule
            assert [ch.read_bytes for ch in mc.snapshot()] == dealt[False]
            assert [ch.write_bytes for ch in mc.snapshot()] == dealt[True]


class TestPMNSProperties:
    @given(st.lists(
        st.lists(st.sampled_from("abcd"), min_size=1, max_size=4)
        .map(lambda parts: ".".join("".join(p) for p in [parts])),
        min_size=1, max_size=20, unique=True))
    @settings(max_examples=30)
    def test_register_then_lookup(self, names):
        tree = PMNS()
        registered = {}
        for i, name in enumerate(names):
            try:
                tree.register(name, i)
                registered[name] = i
            except Exception:
                continue  # prefix conflicts are allowed to fail
        for name, pmid in registered.items():
            assert tree.lookup(name) == pmid
            assert tree.name_of(pmid) == name
        assert sorted(tree.traverse()) == sorted(registered)


class TestRepetitionProperties:
    @given(st.integers(0, 10000))
    def test_eq5_bounds(self, n):
        reps = repetitions_for(n)
        assert 10 <= reps <= 514


class TestAlltoallConservation:
    @given(st.integers(1, 3), st.integers(64, 1 << 16))
    @settings(max_examples=10, deadline=None)
    def test_bytes_sent_equal_bytes_received(self, n_nodes, per_pair):
        cluster = Cluster(SUMMIT, n_nodes=n_nodes, seed=1, noise=QUIET)
        comm = SimComm(cluster)
        comm.alltoall_bytes(per_pair)
        xmit = sum(nic.xmit_octets for node in cluster.nodes
                   for nic in node.nics)
        recv = sum(nic.recv_octets for node in cluster.nodes
                   for nic in node.nics)
        assert xmit == recv
        reads = sum(node.socket(s).memory.total_read_bytes
                    for node in cluster.nodes for s in (0, 1))
        writes = sum(node.socket(s).memory.total_write_bytes
                     for node in cluster.nodes for s in (0, 1))
        assert reads == writes  # every sent byte is received


class TestAnalyticProperties:
    @given(st.integers(1, 1 << 28), st.integers(1, 1 << 28))
    def test_fit_fraction_in_unit_interval(self, ws, cap):
        f = cache_fit_fraction(ws, cap)
        assert 0.0 <= f <= 1.0

    @given(st.integers(1, 1 << 26))
    def test_fit_fraction_monotone_in_working_set(self, cap):
        vals = [cache_fit_fraction(int(cap * f), cap)
                for f in (0.5, 0.9, 1.0, 1.2, 1.5)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
