"""Cross-validation: analytic traffic laws vs the exact cache simulator.

DESIGN.md §6 requires every analytic law to be validated against
ground-truth simulation at small sizes. Tolerances are tight where the
laws are exact (streaming kernels) and looser near cache-capacity
roll-offs (the analytic model smooths what LRU does discretely).
"""

import pytest

from repro.engine.analytic import CacheContext
from repro.engine.exact import ExactEngine
from repro.engine.tracecache import cached_exact_trace
from repro.fft3d.decomp import LocalBlock
from repro.fft3d.resort import S1CFCombined, S1CFLoopNest1, S1CFLoopNest2, S2CF
from repro.kernels.blas import CappedGemv, Dot, Gemm
from repro.machine.config import CacheConfig
from repro.machine.prefetch import SoftwarePrefetch
from repro.units import MIB
from tests.test_exact_traffic_golden import (
    case_key,
    check_exact_golden,
    engine_counts,
)

BIG = CacheConfig(capacity_bytes=4 * MIB)
BIG_CTX = CacheContext(capacity_bytes=4 * MIB)


def crossval(kernel, cache_cfg=BIG, ctx=BIG_CTX, prefetch=SoftwarePrefetch(),
             rel=0.02):
    # Batch fast path (differentially tested against the scalar oracle
    # in test_engine_batch.py); memoized so repeated configurations of
    # the same kernel shape reuse the trace.
    engine = ExactEngine(cache_cfg)
    exact = engine.run_nest(kernel.streams(), cached_exact_trace(kernel),
                            prefetch=prefetch)
    # Byte-exact against the frozen counts, before the tolerances.
    check_exact_golden(case_key(kernel.name, cache_cfg, prefetch),
                       engine_counts(engine, exact))
    analytic = kernel.traffic(ctx, prefetch)
    assert analytic.read_bytes == pytest.approx(exact.read_bytes, rel=rel), \
        f"{kernel.name}: analytic reads {analytic.read_bytes} vs exact {exact.read_bytes}"
    assert analytic.write_bytes == pytest.approx(exact.write_bytes, rel=rel), \
        f"{kernel.name}: analytic writes {analytic.write_bytes} vs exact {exact.write_bytes}"
    return exact, analytic


class TestBlasCrossval:
    def test_dot(self):
        crossval(Dot(4096))

    @pytest.mark.parametrize("n", [16, 40, 64])
    def test_gemm_cached(self, n):
        crossval(Gemm(n))

    def test_gemm_large_batch_only(self):
        # N=256 (~100M accesses) is far beyond what the scalar oracle
        # can validate in test time; the vectorized batch engine makes
        # it tractable. Working set (one A row + B + one C row) still
        # fits the 4 MiB cache, so the analytic law stays exact.
        crossval(Gemm(256))

    @pytest.mark.parametrize("m,n,p", [(64, 32, 32), (100, 20, 20),
                                       (48, 48, 48)])
    def test_capped_gemv_cached(self, m, n, p):
        crossval(CappedGemv(m=m, n=n, p=p))

    def test_capped_gemv_thrashing_matrix(self):
        # Cache far smaller than A: every pass re-streams A, matching
        # the paper's capped expectation M*N + M + N.
        cache = CacheConfig(capacity_bytes=64 * 1024)
        ctx = CacheContext(capacity_bytes=64 * 1024)
        kernel = CappedGemv(m=256, n=256, p=64)  # A = 128 KiB > cache
        exact, analytic = crossval(kernel, cache, ctx, rel=0.15)
        expected = kernel.expected_traffic()
        assert exact.read_bytes == pytest.approx(expected.read_bytes,
                                                 rel=0.15)


class TestResortCrossval:
    BLOCK = LocalBlock(planes=8, rows=8, cols=16)

    @pytest.mark.parametrize("cls", [S1CFLoopNest1, S1CFLoopNest2,
                                     S1CFCombined, S2CF])
    def test_plain(self, cls):
        crossval(cls(self.BLOCK))

    @pytest.mark.parametrize("cls", [S1CFLoopNest1, S2CF])
    def test_with_prefetch(self, cls):
        crossval(cls(self.BLOCK),
                 prefetch=SoftwarePrefetch(dcbt=True, dcbtst=True))

    def test_ln2_thrashing_reaches_five_reads_per_write(self):
        # Past Eq. 7's boundary: 4 granule-reads for tmp + 1 RFO for out.
        block = LocalBlock(planes=16, rows=16, cols=16)
        cache = CacheConfig(capacity_bytes=8 * 1024, associativity=4)
        ctx = CacheContext(capacity_bytes=8 * 1024)
        kernel = S1CFLoopNest2(block)
        engine = ExactEngine(cache)
        exact = engine.run_nest(kernel.streams(), cached_exact_trace(kernel))
        check_exact_golden(case_key(kernel.name, cache),
                           engine_counts(engine, exact))
        analytic = kernel.traffic(ctx)
        exact_ratio = exact.read_bytes / exact.write_bytes
        analytic_ratio = analytic.read_bytes / analytic.write_bytes
        assert exact_ratio == pytest.approx(5.0, rel=0.1)
        assert analytic_ratio == pytest.approx(exact_ratio, rel=0.1)
