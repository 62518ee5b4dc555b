"""Nightly scale validation of the streaming exact engine.

GEMM N=512 (~270M accesses, ~4 GB of trace columns) streams from its
bounded emitter through ``PipelinedExactEngine`` twice in a helper
subprocess, inline and through a two-worker pool. The parent asserts
the two runs agree byte-for-byte, both cross-validate the analytic law
within the usual 2%, and peak RSS (workers included) stayed far below
the trace's column footprint.

Three kernel families (~1.02B total accesses — GEMM N=512, STREAM
triad over 1e8 doubles, and a capped GEMV) flow through
``PipelinedExactEngine.run_many`` in one helper subprocess, twice:
first with a fault injected through ``after_shard_hook`` after two
kernels have checkpointed, then a fresh engine pointed at the same
checkpoint directory that must resume the finished kernels and
complete the rest. The parent asserts the resumed totals match the
analytic laws (triad exactly, GEMM within the usual 2%), and that
peak RSS stayed bounded — the whole point of segment streaming: the
~21 GB of trace columns never exist at once.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_GEMM_HELPER = r"""
import json, resource, sys

from repro.engine.analytic import CacheContext
from repro.engine.pipeline import PipelinedExactEngine
from repro.kernels.blas import Gemm
from repro.machine.config import CacheConfig
from repro.units import MIB

kernel = Gemm(int(sys.argv[1]))
cache = CacheConfig(capacity_bytes=4 * MIB)

runs, rows = {}, {}
for mode, n_workers in (("inline", 0), ("pooled", 2)):
    with PipelinedExactEngine(cache, n_workers=n_workers) as engine:
        traffic = engine.run_kernel(kernel)
    runs[mode] = [traffic.read_bytes, traffic.write_bytes]
    rows[mode] = engine.last_pipeline_stats["rows"]
analytic = kernel.traffic(CacheContext(capacity_bytes=4 * MIB))

usage = resource.getrusage(resource.RUSAGE_SELF)
children = resource.getrusage(resource.RUSAGE_CHILDREN)
print(json.dumps({
    "runs": runs,
    "rows": rows,
    "analytic": [analytic.read_bytes, analytic.write_bytes],
    "peak_rss_kb": max(usage.ru_maxrss, children.ru_maxrss),
}))
"""

_HELPER = r"""
import json, resource, sys

from repro.engine.analytic import CacheContext
from repro.engine.pipeline import PipelinedExactEngine
from repro.kernels.blas import CappedGemv, Gemm
from repro.kernels.stream import StreamKernel
from repro.machine.config import CacheConfig
from repro.units import MIB

ckpt = sys.argv[1]
cache = CacheConfig(capacity_bytes=4 * MIB)
kernels = [
    Gemm(512),
    StreamKernel(op="triad", n=100_000_000),
    CappedGemv(m=56_000, n=4_000, p=64),
]
total_rows = sum(sum(d.n_accesses for d in k.streams())
                 for k in kernels)

calls = []

def hook(worker_id):
    calls.append(worker_id)
    if len(calls) == 3:
        # Nests 1 and 2 are checkpointed by now (saves precede hooks);
        # the run dies mid-flight like a preempted nightly worker.
        raise RuntimeError("injected fault")

eng = PipelinedExactEngine(cache, n_workers=2, checkpoint_dir=ckpt)
eng.after_shard_hook = hook
faulted = False
try:
    eng.run_many(kernels)
except RuntimeError:
    faulted = True

resumed_eng = PipelinedExactEngine(cache, n_workers=2, checkpoint_dir=ckpt)
with resumed_eng:
    results = resumed_eng.run_many(kernels)
stats = resumed_eng.last_pipeline_stats

ctx = CacheContext(capacity_bytes=4 * MIB)
usage = resource.getrusage(resource.RUSAGE_SELF)
children = resource.getrusage(resource.RUSAGE_CHILDREN)
print(json.dumps({
    "total_rows": total_rows,
    "faulted": faulted,
    "kernels_resumed": resumed_eng.kernels_resumed,
    "results": [[t.read_bytes, t.write_bytes] for t in results],
    "analytic": [[a.read_bytes, a.write_bytes]
                 for a in (k.traffic(ctx) for k in kernels)],
    "triad_n": kernels[1].n,
    "pipeline": {"segments": stats["segments"],
                 "utilization": stats["utilization"],
                 "mean_queue_depth": stats["mean_queue_depth"]},
    "peak_rss_kb": max(usage.ru_maxrss, children.ru_maxrss),
}))
"""


def _run_helper(script, *args):
    """Run ``script`` in a fresh interpreter; return its JSON report."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{src}{os.pathsep}" + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env=env, capture_output=True, text=True, timeout=3600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.slow
def test_gemm_512_streams_from_emitter_bounded_rss():
    report = _run_helper(_GEMM_HELPER, 512)

    # Inline and pooled streaming must agree exactly, and
    # cross-validate the analytic law like the in-RAM N=256 test does.
    assert report["runs"]["inline"] == report["runs"]["pooled"]
    for got in report["runs"].values():
        for value, want in zip(got, report["analytic"]):
            assert want == pytest.approx(value, rel=0.02)

    # Peak RSS bounded far below the ~4 GB column footprint (segments,
    # the ring and sector-expansion temporaries only). Trace bytes are
    # the BatchTrace columns: 8 + 4 + 2 + 1 bytes per row.
    rows = report["rows"]["inline"]
    assert report["rows"]["pooled"] == rows
    trace_mb = rows * 15 / 1e6
    rss_mb = report["peak_rss_kb"] / 1e3
    assert rows > 100_000_000
    assert trace_mb > 3000
    assert rss_mb < trace_mb / 3, (
        f"peak RSS {rss_mb:.0f} MB not bounded vs {trace_mb:.0f} MB trace")
    assert rss_mb < 1300


@pytest.mark.slow
def test_billion_access_pipelined_run_resumes_bounded_rss(tmp_path):
    report = _run_helper(_HELPER, tmp_path / "ckpt")

    # The scenario the test exists for: a genuinely large multi-kernel
    # run, a mid-flight fault, and a checkpoint-driven resume.
    assert report["total_rows"] >= 1_000_000_000
    assert report["faulted"]
    assert report["kernels_resumed"] >= 1

    # Resumed totals must be the real totals. Triad is exactly
    # predictable (cold sequential reads, WCB-coalesced stores);
    # GEMM cross-validates the analytic law as at N=256.
    n = report["triad_n"]
    assert report["results"][1] == [16 * n, 8 * n]
    gemm_got, gemm_law = report["results"][0], report["analytic"][0]
    assert gemm_law[0] == pytest.approx(gemm_got[0], rel=0.02)
    assert gemm_law[1] == pytest.approx(gemm_got[1], rel=0.02)

    # Bounded memory: the full column set would be ~21 GB; the
    # streaming run must never come near it.
    rss_mb = report["peak_rss_kb"] / 1e3
    trace_mb = report["total_rows"] * 21 / 1e6
    assert rss_mb < trace_mb / 10
    assert rss_mb < 2000, f"peak RSS {rss_mb:.0f} MB not bounded"
