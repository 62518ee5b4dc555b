"""Exact-traffic golden: the exact engine's counts, frozen byte for byte.

The cross-validation tests compare the analytic laws with the exact
engine within a tolerance of 2-15%, so a change to the exact replay
that moved a count by one sector would pass them. This module pins the
exact engine's ``read_bytes``, ``write_bytes``, ``stats_hits`` and
``stats_misses`` for every cross-validation case (checked inside
``crossval()`` itself, so no trace runs twice), for eviction-heavy
cases under both replacement policies, and the sampling observer's
counters on a GEMM that spills its cache.

``tests/exact_traffic.json`` holds the frozen values. Regenerate it
only from a commit whose replay is trusted::

    PYTHONPATH=src python -m tests.test_exact_traffic_golden
"""

import functools
import json
import pathlib

import pytest

from repro.engine.exact import ExactEngine
from repro.engine.tracecache import cached_exact_trace
from repro.fft3d.decomp import LocalBlock
from repro.fft3d.resort import (
    S1CFCombined,
    S1CFLoopNest1,
    S1CFLoopNest2,
    S2CF,
)
from repro.kernels.blas import CappedGemv, Dot, Gemm
from repro.kernels.stream import StreamKernel
from repro.machine.cache import CacheSim
from repro.machine.config import CacheConfig
from repro.machine.prefetch import SoftwarePrefetch
from repro.papi.sampling import SamplingConfig, SamplingObserver
from repro.units import KIB, MIB

FIXTURE = pathlib.Path(__file__).parent / "exact_traffic.json"

#: The cross-validation geometries (tests/test_engine_crossval.py).
BIG = CacheConfig(capacity_bytes=4 * MIB)
SMALL = CacheConfig(capacity_bytes=64 * KIB)
THRASH = CacheConfig(capacity_bytes=8 * KIB, associativity=4)
CROSSVAL_BLOCK = LocalBlock(planes=8, rows=8, cols=16)
PREFETCH = SoftwarePrefetch(dcbt=True, dcbtst=True)

#: Every exact run of tests/test_engine_crossval.py, as
#: ``(kernel, cache, prefetch)``; ``crossval()`` looks its own run up
#: by key, so a case missing here fails there.
CROSSVAL_CASES = (
    [(Dot(4096), BIG, SoftwarePrefetch())]
    + [(Gemm(n), BIG, SoftwarePrefetch()) for n in (16, 40, 64, 256)]
    + [(CappedGemv(m=m, n=n, p=p), BIG, SoftwarePrefetch())
       for m, n, p in ((64, 32, 32), (100, 20, 20), (48, 48, 48))]
    + [(CappedGemv(m=256, n=256, p=64), SMALL, SoftwarePrefetch())]
    + [(cls(CROSSVAL_BLOCK), BIG, SoftwarePrefetch())
       for cls in (S1CFLoopNest1, S1CFLoopNest2, S1CFCombined, S2CF)]
    + [(cls(CROSSVAL_BLOCK), BIG, PREFETCH)
       for cls in (S1CFLoopNest1, S2CF)]
    + [(S1CFLoopNest2(LocalBlock(planes=16, rows=16, cols=16)), THRASH,
        SoftwarePrefetch())]
)

#: Traces whose sets evict on almost every chunk: the turbulent
#: replay carries the whole result, under both policies.
EVICTION_CASES = {
    "gemm-96": (lambda: Gemm(96), SMALL),
    "stream-triad-65536": (lambda: StreamKernel("triad", 1 << 16),
                           CacheConfig(capacity_bytes=256 * KIB)),
    "s2cf-16x16x16": (lambda: S2CF(LocalBlock(16, 16, 16)), THRASH),
    "s1cf-ln2-16x16x16": (lambda: S1CFLoopNest2(LocalBlock(16, 16, 16)),
                          THRASH),
}

#: The observer run: GEMM N=96 spills the 64 KiB cache.
OBSERVER_KERNEL_N = 96
OBSERVER_CONFIG = dict(period=128, seed=11, skid=0, skid_jitter=0)
OBSERVER_COUNTERS = ("n_access_samples", "n_store_samples",
                     "fetch_sectors", "dirty_events", "wcb_events",
                     "records_dropped")


def case_key(kernel_name, cache, prefetch=SoftwarePrefetch(),
             policy="lru"):
    key = (f"{kernel_name}/{cache.capacity_bytes // KIB}KiB-"
           f"{cache.associativity}way/{policy}")
    if prefetch.dcbt or prefetch.dcbtst:
        key += f"/dcbt={int(prefetch.dcbt)},dcbtst={int(prefetch.dcbtst)}"
    return key


def engine_counts(engine, traffic):
    """The four frozen figures of one ``run_nest``."""
    return {"read_bytes": traffic.read_bytes,
            "write_bytes": traffic.write_bytes,
            "stats_hits": engine.sim.stats_hits,
            "stats_misses": engine.sim.stats_misses}


def run_exact(kernel, cache, prefetch=SoftwarePrefetch(), policy="lru"):
    engine = ExactEngine(cache)
    engine.sim = CacheSim(cache, policy=policy)
    traffic = engine.run_nest(kernel.streams(), cached_exact_trace(kernel),
                              prefetch=prefetch)
    return engine_counts(engine, traffic)


def observer_counts():
    observer = SamplingObserver(SMALL, Gemm(OBSERVER_KERNEL_N).streams(),
                                SamplingConfig(**OBSERVER_CONFIG))
    observer.observe_kernel(Gemm(OBSERVER_KERNEL_N))
    return {name: getattr(observer, name) for name in OBSERVER_COUNTERS}


@functools.lru_cache(maxsize=None)
def frozen():
    return json.loads(FIXTURE.read_text())


def check_exact_golden(key, counts):
    """Assert ``counts`` equal the frozen entry ``key``."""
    cases = frozen()["exact"]
    assert key in cases, f"no frozen exact traffic for {key!r}"
    assert counts == cases[key], key


def freeze():
    """Recompute every frozen figure (the fixture's content)."""
    exact = {}
    for kernel, cache, prefetch in CROSSVAL_CASES:
        exact[case_key(kernel.name, cache, prefetch)] = run_exact(
            kernel, cache, prefetch)
    for name, (make, cache) in EVICTION_CASES.items():
        for policy in CacheSim.POLICIES:
            exact[case_key(name, cache, policy=policy)] = run_exact(
                make(), cache, policy=policy)
    return {"exact": dict(sorted(exact.items())),
            "observer": observer_counts()}


@pytest.mark.parametrize("policy", CacheSim.POLICIES)
@pytest.mark.parametrize("name", sorted(EVICTION_CASES))
def test_eviction_heavy_exact_traffic(name, policy):
    make, cache = EVICTION_CASES[name]
    check_exact_golden(case_key(name, cache, policy=policy),
                       run_exact(make(), cache, policy=policy))


def test_observer_counters():
    assert observer_counts() == frozen()["observer"]


def test_fixture_holds_every_case_once():
    keys = {case_key(k.name, c, p) for k, c, p in CROSSVAL_CASES}
    keys |= {case_key(name, cache, policy=policy)
             for name, (_, cache) in EVICTION_CASES.items()
             for policy in CacheSim.POLICIES}
    assert set(frozen()["exact"]) == keys


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(freeze(), indent=1) + "\n")
    print(f"wrote {FIXTURE}")
