"""Nightly scale validation: GEMM N=512 through the disk trace store.

The N=512 exact trace (~270M accesses, ~4 GB of columns) cannot be
materialized next to a full in-RAM reference, which is exactly the
workload the store exists for. A helper subprocess generates the
trace through the bounded-memory segment emitter, simulates it twice —
streamed through the batch engine and through the pipelined engine's
two-worker pool — and reports its peak RSS (workers included). The
parent asserts the two disk paths agree byte-for-byte, the analytic
law cross-validates within the usual 2%, and peak RSS stayed well
below the full-trace footprint.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

N = 512

_HELPER = r"""
import json, resource, sys

from repro.engine.analytic import CacheContext
from repro.engine.exact import ExactEngine
from repro.engine.pipeline import PipelinedExactEngine
from repro.engine.tracestore import TraceStore
from repro.kernels.blas import Gemm
from repro.machine.config import CacheConfig
from repro.units import MIB

n, root = int(sys.argv[1]), sys.argv[2]
kernel = Gemm(n)
cache = CacheConfig(capacity_bytes=4 * MIB)

store = TraceStore(root, verify="meta")
entry = store.get_or_create(kernel)

streamed = ExactEngine(cache).run_nest(kernel.streams(), entry)
with PipelinedExactEngine(cache, n_workers=2) as engine:
    piped = engine.run_nest(kernel.streams(), entry)
analytic = kernel.traffic(CacheContext(capacity_bytes=4 * MIB))

usage = resource.getrusage(resource.RUSAGE_SELF)
children = resource.getrusage(resource.RUSAGE_CHILDREN)
print(json.dumps({
    "rows": entry.rows,
    "trace_bytes": entry.nbytes,
    "streamed": [streamed.read_bytes, streamed.write_bytes],
    "piped": [piped.read_bytes, piped.write_bytes],
    "analytic": [analytic.read_bytes, analytic.write_bytes],
    "peak_rss_kb": max(usage.ru_maxrss, children.ru_maxrss),
}))
"""


@pytest.mark.slow
def test_gemm_512_cross_validates_from_disk_bounded_rss(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{src}{os.pathsep}" + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _HELPER, str(N), str(tmp_path / "store")],
        env=env, capture_output=True, text=True, timeout=3600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    report = json.loads(proc.stdout.splitlines()[-1])

    # Both disk-fed paths must agree exactly, and cross-validate the
    # analytic law like the in-RAM N=256 test does.
    assert report["streamed"] == report["piped"]
    for got, want in zip(report["streamed"], report["analytic"]):
        assert want == pytest.approx(got, rel=0.02)

    # The point of the store: peak RSS bounded far below the ~4 GB
    # column footprint (segments, the ring and sector-expansion
    # temporaries only).
    trace_mb = report["trace_bytes"] / 1e6
    rss_mb = report["peak_rss_kb"] / 1e3
    assert report["rows"] > 100_000_000
    assert trace_mb > 3000
    assert rss_mb < trace_mb / 3, (
        f"peak RSS {rss_mb:.0f} MB not bounded vs {trace_mb:.0f} MB trace")
    assert rss_mb < 1300
