"""Self-tests of the benchmark: ``PYTHONPATH=src python -m pytest perf -q``."""

import asyncio
import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

from perf import workloads as wl
from perf.__main__ import verdict
from perf.layers import TARGETS, layer_metrics
from perf.run import ROOT, load_benchmark, run_workload
from perf.spans import Span, Target, Tracer, self_times, write_chrome_trace

BENCHMARK = load_benchmark()


def tiny_inputs(name):
    """Default inputs of ``name`` shrunk to run in well under a second."""
    inputs = wl.make_inputs(name, seed=7)
    if name == "engines":
        from repro.engine.pipeline import PipelinedExactEngine
        from repro.kernels.blas import Gemm
        from repro.machine.config import CacheConfig

        cache = CacheConfig(capacity_bytes=2 << 10)
        with PipelinedExactEngine(cache, n_workers=0) as engine:
            exact = engine.run_kernel(Gemm(16))
        # The GEMMs fit the 32 KiB cache; the STREAM arrays spill it.
        inputs.update(cache_bytes=32 << 10, kernels=[
            wl._gemm(24), wl._stream("triad", 4096), wl._gemm(16),
            wl._stream("copy", 4096)])
        inputs["sample"].update(
            n=16, cache_bytes=2 << 10, period=4, rows=wl._gemm(16)["rows"],
            max_rel_error=1.0, reference={"read_bytes": exact.read_bytes,
                                         "write_bytes": exact.write_bytes})
    elif name == "pcp-mediated":
        inputs.update(fetches_per_context=20, log_records=30,
                      replay_window=10)
    elif name == "paper-figures":
        inputs["order"] = ["table1", "fig2"]
    return inputs


@pytest.mark.parametrize("trace", [False, True], ids=["run", "trace"])
@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_tiny_workload_reports_every_metric(name, trace, tmp_path):
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    values, summary, detail = run_workload(
        name, tiny_inputs(name), seconds=0, trace=trace,
        workdir=str(tmp_path), probes=1, warmup_s=0,
        trace_path=str(tmp_path / "trace.json"))
    assert summary["failed"] == 0 and summary["correct"]
    assert summary["attempted"] >= 1
    assert set(values) == {m["name"] for m in declared}
    missing = [m for m, v in values.items() if v is None]
    assert not missing, f"{name}: metrics missing: {missing}"
    if not trace:
        assert all(values[m] > 0 for m in values), values
    assert all(m["unit"] for m in declared)
    assert detail["reps"]


@pytest.mark.parametrize("part", ["exact", "sampled"])
def test_wrong_reference_traffic_fails(part, tmp_path):
    inputs = tiny_inputs("engines")
    if part == "exact":
        inputs["kernels"][0]["read_bytes"] += 64
    else:
        inputs["sample"]["reference"]["write_bytes"] += 64
    _, summary, _ = run_workload("engines", inputs, seconds=0, trace=False,
                                 workdir=str(tmp_path), probes=0,
                                 warmup_s=0)
    assert summary["failed"] > 0 and not summary["correct"]


def test_wrong_golden_digest_fails(tmp_path):
    inputs = tiny_inputs("paper-figures")
    inputs["golden_sha256"]["fig2"] = "0" * 64
    _, summary, _ = run_workload("paper-figures", inputs, seconds=0,
                                 trace=False, workdir=str(tmp_path),
                                 probes=0, warmup_s=0)
    assert summary["failed"] > 0 and not summary["correct"]


def test_frozen_golden_digests_match_fixtures():
    golden = os.path.join(ROOT, "tests", "golden")
    if not os.path.isdir(golden):
        pytest.skip("no golden fixtures in this checkout")
    for experiment_id, digest in wl.GOLDEN_SHA256.items():
        with open(os.path.join(golden, f"{experiment_id}.json")) as fh:
            payload = json.load(fh)
        canonical = json.dumps(payload, sort_keys=True,
                               separators=(",", ":")).encode()
        assert hashlib.sha256(canonical).hexdigest() == digest


def test_inputs_are_seeded():
    for name in wl.WORKLOADS:
        assert wl.make_inputs(name, 3) == wl.make_inputs(name, 3)
    orders = {tuple(wl.make_inputs("paper-figures", s)["order"])
              for s in range(5)}
    assert len(orders) > 1
    # Every seed gives the engines the same amount of work.
    work = {sum(k["rows"] for k in wl.make_inputs("engines", s)["kernels"])
            for s in range(20)}
    assert len(work) == 1


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.WORKLOADS)
    assert BENCHMARK["command"][1:] == ["perf/run.py"]
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_self_times_on_nested_tree():
    spans = [
        Span("root", 0, 100, 1, None, 0),
        Span("a", 10, 40, 2, 1, 0),
        Span("b", 30, 60, 3, 1, 0),   # overlaps a: concurrent children
        Span("a.leaf", 15, 20, 4, 2, 0),
        Span("late", 90, 130, 5, 1, 0),  # runs past its parent's end
    ]
    assert self_times(spans) == {1: 100 - 50 - 10, 2: 30 - 5, 3: 30,
                                 4: 5, 5: 40}


def test_trace_json_loads_with_parent_ids(tmp_path):
    tracer = Tracer()
    leaf = tracer.wrap(lambda x: x + 1, "leaf")
    outer = tracer.wrap(lambda x: leaf(x) * 2, "outer")

    async def aleaf_impl():
        await asyncio.sleep(0.001)

    aleaf = tracer.wrap(aleaf_impl, "aleaf")

    async def aouter_impl():
        await aleaf()

    aouter = tracer.wrap(aouter_impl, "aouter")

    async def two_tasks():
        await asyncio.gather(aouter(), aouter())

    assert outer(1) == 4
    asyncio.run(two_tasks())
    path = tmp_path / "trace.json"
    write_chrome_trace(tracer.spans, str(path))
    events = json.loads(path.read_text())["traceEvents"]
    by_id = {e["args"]["id"]: e for e in events}
    parents = {e["name"]: by_id.get(e["args"]["parent"], {}).get("name")
               for e in events}
    assert parents["leaf"] == "outer" and parents["outer"] is None
    # Each task's leaf hangs off its own outer span, not the other's.
    aleafs = [e for e in events if e["name"] == "aleaf"]
    assert {by_id[e["args"]["parent"]]["name"] for e in aleafs} == {"aouter"}
    assert len({e["args"]["parent"] for e in aleafs}) == 2


def test_install_patches_lookup_sites_and_uninstall_restores():
    import repro.pcp.protocol as protocol
    import repro.pcp.session as session

    original = protocol.encode_request
    tracer = Tracer()
    tracer.install(TARGETS)
    try:
        assert session.encode_request is protocol.encode_request
        assert session.encode_request is not original
    finally:
        tracer.uninstall()
    assert session.encode_request is original
    assert protocol.encode_request is original


def test_missing_layer_is_reported_not_raised():
    tracer = Tracer()
    tracer.install([Target("repro.machine.cache", "CacheSim.no_such_call",
                           "cache.probed"),
                    Target("repro.no_such_module", "f", "papi.read")])
    tracer.uninstall()
    assert sorted(tracer.missing) == ["cache.probed", "papi.read"]
    rep = wl.RepResult(0, 10, ops=1, attempted=1, failed=0, ref_s=1.0)
    values = layer_metrics("engines", [rep], [rep], [], {}, {},
                           tracer.missing)
    assert values["cache.probed_s"] is None and values["papi.reads"] is None
    assert values["sampling.samples"] is None  # counter source absent
    idle = layer_metrics("paper-figures", [rep], [rep], [], {}, {}, [])
    assert idle["pipeline.segments"] == 0.0  # layer idle here


@pytest.mark.parametrize("a, b, better, expected", [
    ([1.0, 1.01, 0.99], [1.02, 1.03, 1.01], "lower", "same"),
    ([1.0, 1.01, 0.99], [1.2, 1.21, 1.19], "lower", "worse"),
    ([1.0, 1.01, 0.99], [1.2, 1.21, 1.19], "higher", "better"),
    ([1.0, 1.5, 0.7, 1.2], [1.1, 0.8, 1.4, 1.0], "lower", "unresolved"),
    ([1.0, 1.5, 0.7, 1.2], [0.5, 0.4, 0.6, 0.45], "lower", "better"),
])
def test_compare_verdicts(a, b, better, expected):
    assert verdict(a, b, better, 0.1) == expected


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perf"), tmp_path / "perf",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "engines",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert done.returncode not in (0, None)
    assert not done.stdout.strip()


def test_frozen_sample_reference_is_exact_engine_traffic():
    from repro.engine.pipeline import PipelinedExactEngine
    from repro.kernels.blas import Gemm
    from repro.machine.config import CacheConfig

    cache = CacheConfig(capacity_bytes=wl.SAMPLE_CACHE_BYTES)
    with PipelinedExactEngine(cache, n_workers=0) as engine:
        exact = engine.run_kernel(Gemm(wl.SAMPLE_GEMM_N))
    assert {"read_bytes": exact.read_bytes,
            "write_bytes": exact.write_bytes} == wl.SAMPLE_REFERENCE
