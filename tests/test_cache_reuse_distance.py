"""Long-window differentials for the exact batch replay.

Under LRU a line access hits exactly when fewer than ``assoc``
distinct lines of its set were touched since its line's previous
touch. ``TestTurbulentReplayAdversarial`` (tests/test_engine_batch.py)
draws lines uniformly from 1-3x the cache, so those windows stay a few
line-runs long. Here every set mixes a hot subset of fewer than
``assoc`` lines with a few cold lines: a cold line comes back after
hundreds of line-runs, while the number of distinct lines in between
sits at or just around ``assoc``. The scalar ``CacheSim.access`` is the
oracle, on the residency-bitmap and the no-bitmap paths, under both
policies.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.cache import CacheSim
from repro.machine.config import CacheConfig
from tests.test_engine_batch import full_state, scalar_replay, trace_base

LINE = 128


def _hot_cold_trace(rng, cfg, n, hot_frac, n_cold, write_frac, base):
    """``n`` accesses; each picks a set, then one of its hot lines (one
    or two fewer than ``assoc``) with probability ``hot_frac``, else
    one of its ``n_cold`` cold lines. Sizes stay inside one line, so
    each access touches the set it picked. With cold touches rare, a
    cold line often returns after more than 64 line-runs of hot lines
    alone, with one other cold line far back in the window deciding
    whether ``assoc`` distinct lines came between."""
    n_sets, assoc = cfg.n_sets, cfg.associativity
    n_hot = rng.integers(max(0, assoc - 2), assoc, size=n_sets)
    sets = rng.integers(0, n_sets, n)
    hot = (rng.random(n) < hot_frac) & (n_hot[sets] > 0)
    slot = np.where(
        hot, rng.integers(0, 1 << 30, n) % np.maximum(n_hot[sets], 1),
        n_hot[sets] + rng.integers(0, n_cold, n))
    line = sets + n_sets * slot
    offset = rng.integers(0, LINE, n)
    size = rng.integers(1, LINE - offset + 1)
    addr = base + line * LINE + offset
    return (addr.astype(np.int64), size.astype(np.int64),
            rng.random(n) < write_frac)


long_window_cache = st.builds(
    lambda assoc, n_sets: CacheConfig(
        capacity_bytes=LINE * assoc * n_sets, associativity=assoc),
    st.integers(1, 16), st.integers(1, 8))


def _draw(cfg, seed, n, hot_frac, n_cold, write_frac, base):
    rng = np.random.default_rng(seed)
    trace = _hot_cold_trace(rng, cfg, n, hot_frac, n_cold, write_frac,
                            base)
    return rng, trace


class TestLongWindowReplay:
    @given(cfg=long_window_cache,
           seed=st.integers(0, 2**32 - 1),
           n=st.integers(300, 3000),
           hot_frac=st.floats(0.97, 0.995),
           n_cold=st.integers(1, 4),
           write_frac=st.floats(0.0, 0.5),
           chunk=st.integers(1000, 4096),
           policy=st.sampled_from(CacheSim.POLICIES),
           base=trace_base)
    @settings(max_examples=40, deadline=None)
    def test_batch_matches_scalar_oracle(self, cfg, seed, n, hot_frac,
                                         n_cold, write_frac, chunk,
                                         policy, base):
        rng, (addr, size, w) = _draw(cfg, seed, n, hot_frac, n_cold,
                                     write_frac, base)
        oracle = CacheSim(cfg, policy=policy)
        scalar_replay(oracle, addr, size, w, np.zeros(n, dtype=bool))
        batch = CacheSim(cfg, policy=policy)
        cut = int(rng.integers(0, n + 1))
        for lo, hi in ((0, cut), (cut, n)):
            batch.access_batch(addr[lo:hi], size[lo:hi], w[lo:hi],
                               chunk_size=chunk)
        assert full_state(batch) == full_state(oracle)

    @given(cfg=long_window_cache,
           seed=st.integers(0, 2**32 - 1),
           n=st.integers(300, 3000),
           hot_frac=st.floats(0.97, 0.995),
           n_cold=st.integers(1, 4),
           write_frac=st.floats(0.0, 0.5),
           chunk=st.integers(1000, 4096),
           policy=st.sampled_from(CacheSim.POLICIES),
           base=trace_base)
    @settings(max_examples=25, deadline=None)
    def test_probed_matches_probe_before_row(self, cfg, seed, n,
                                             hot_frac, n_cold,
                                             write_frac, chunk, policy,
                                             base):
        rng, (addr, size, w) = _draw(cfg, seed, n, hot_frac, n_cold,
                                     write_frac, base)
        watch = np.flatnonzero(rng.random(n) < 0.2)
        watched = set(watch.tolist())
        oracle = CacheSim(cfg, policy=policy)
        expect = []
        for i in range(n):
            if i in watched:
                expect += [(i, r, d) for r, d in
                           oracle.probe(int(addr[i]), int(size[i]))]
            oracle.access(int(addr[i]), int(size[i]), bool(w[i]))
        batch = CacheSim(cfg, policy=policy)
        cut = int(rng.integers(0, n + 1))
        got = []
        for lo, hi in ((0, cut), (cut, n)):
            part = watch[(watch >= lo) & (watch < hi)] - lo
            rows, res, dirty = batch.access_batch_probed(
                addr[lo:hi], size[lo:hi], w[lo:hi], part,
                chunk_size=chunk)
            got += list(zip((rows + lo).tolist(), res.tolist(),
                            dirty.tolist()))
        assert got == expect
        assert full_state(batch) == full_state(oracle)


class TestStackDistanceThreshold:
    """One 4-way set. Line ``x`` is re-touched after 30 cycles over
    ``assoc - 1`` hot lines, 90 line-runs, far more than ``assoc``.
    With only those lines in between it must hit; with one more
    distinct line, touched right after ``x`` and never again, it must
    miss. A line ``y`` touched before ``x`` makes the set evict in the
    re-touching call either way. ``x`` is either resident before that
    call or first touched inside it."""

    ASSOC = 4
    CFG = CacheConfig(capacity_bytes=LINE * ASSOC, associativity=ASSOC)

    def _rows(self, extra):
        # Line ids on a one-set cache: y = 5, x = 0, hot = 1..3 and
        # extra = 4. x's first touch writes sector 0; its re-touch
        # reads sector 0. Hot lines alternate sectors and sometimes
        # write.
        head = [(5 * LINE, False), (0, True)]
        if extra:
            head.append((4 * LINE, False))
        cycle = [(k * LINE + 64 * (r % 2), r % 3 == 0)
                 for r in range(30) for k in range(1, self.ASSOC)]
        return head, cycle + [(0, False)]

    def _run(self, extra, resident_before, probed, base):
        head, tail = self._rows(extra)
        rows = head + tail
        addr = base + np.array([a for a, _ in rows], dtype=np.int64)
        w = np.array([x for _, x in rows], dtype=bool)
        size = np.full(addr.size, 8, dtype=np.int64)
        oracle = CacheSim(self.CFG)
        scalar_replay(oracle, addr[:-1], size[:-1], w[:-1],
                      np.zeros(addr.size - 1, dtype=bool))
        expect = oracle.probe(int(addr[-1]), 8)[0]
        oracle.access(int(addr[-1]), 8, False)
        batch = CacheSim(self.CFG)
        cuts = ([(0, len(head)), (len(head), addr.size)]
                if resident_before else [(0, addr.size)])
        state = None
        for lo, hi in cuts:
            if probed:
                _, res, dirty = batch.access_batch_probed(
                    addr[lo:hi], size[lo:hi], w[lo:hi], [hi - lo - 1])
                state = (bool(res[-1]), bool(dirty[-1]))
            else:
                batch.access_batch(addr[lo:hi], size[lo:hi], w[lo:hi])
        assert full_state(batch) == full_state(oracle)
        if probed:
            assert state == expect
        return expect, batch

    @pytest.mark.parametrize("base", [0, -(1 << 40)])
    @pytest.mark.parametrize("probed", [False, True])
    @pytest.mark.parametrize("resident_before", [False, True])
    def test_assoc_minus_one_distinct_lines_hit(self, resident_before,
                                                probed, base):
        expect, batch = self._run(False, resident_before, probed, base)
        # x stayed resident and dirty. Misses: y, x, and both sectors
        # of each hot line.
        assert expect == (True, True)
        assert batch.stats_misses == 2 + 2 * (self.ASSOC - 1)
        assert batch.traffic.write_bytes == 0

    @pytest.mark.parametrize("base", [0, -(1 << 40)])
    @pytest.mark.parametrize("probed", [False, True])
    @pytest.mark.parametrize("resident_before", [False, True])
    def test_assoc_distinct_lines_miss(self, resident_before, probed,
                                       base):
        expect, batch = self._run(True, resident_before, probed, base)
        # The extra line pushed x out: its dirty sector was written
        # back, and the re-touch fetches sector 0 again.
        assert expect == (False, False)
        assert batch.stats_misses == 3 + 2 * (self.ASSOC - 1) + 1
        assert batch.traffic.write_bytes == 64
