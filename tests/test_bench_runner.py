"""Unit tests for the parallel benchmark runner.

These synthesise tiny benchmark scripts in a temp directory and drive
the real process pool against them, covering the three containment
guarantees: in-benchmark exceptions become ``error`` records, deadline
overruns become ``timeout`` records without stalling the queue, and a
worker killed outright becomes a ``crashed`` record while the
not-yet-started benchmarks still run to completion.
"""

import textwrap
import threading
from concurrent.futures import process as futures_process

import pytest

from repro.bench import RunnerConfig, run_benchmarks
from repro.bench import runner as runner_mod
from repro.bench.registry import _REGISTRY, load_script
from repro.errors import ConfigurationError

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


def _write_script(tmp_path, filename, body):
    path = tmp_path / filename
    path.write_text(textwrap.dedent(body))
    return path


@pytest.fixture
def scratch_registry():
    """Track and evict the names the test registers."""
    before = set(_REGISTRY)
    yield None
    for name in set(_REGISTRY) - before:
        _REGISTRY.pop(name, None)


def _specs_from(tmp_path, scripts):
    specs = []
    for filename, body in scripts.items():
        specs.extend(load_script(_write_script(tmp_path, filename, body)))
    return sorted(specs, key=lambda s: s.name)


OK_SCRIPT = """
    from repro.bench import benchmark

    @benchmark("runner-ok-{n}", tags=("selftest",))
    def bench_ok(ctx):
        return {{"value": {value}, "seed_echo": float(ctx.seed)}}
"""

FAILING_SCRIPT = """
    from repro.bench import benchmark

    @benchmark("runner-raises", tags=("selftest",))
    def bench_raises(ctx):
        raise ValueError("deliberate benchmark failure")
"""

SLOW_SCRIPT = """
    import time

    from repro.bench import benchmark

    @benchmark("runner-sleeps", tags=("selftest",))
    def bench_sleeps(ctx):
        time.sleep(60.0)
        return {"never": 1.0}
"""

CRASH_SCRIPT = """
    import os

    from repro.bench import benchmark

    @benchmark("runner-crashes", tags=("selftest",))
    def bench_crashes(ctx):
        os._exit(17)
"""

HANG_SCRIPT = """
    import time

    from repro.bench import benchmark

    @benchmark("runner-hang-{n}", tags=("selftest",))
    def bench_hang(ctx):
        time.sleep(60.0)
        return {{"never": 1.0}}
"""

# Hangs on its first invocation, returns instantly on the second —
# distinguishes "restarted after being stranded" from "ran once".
RESTART_SCRIPT = """
    import time
    from pathlib import Path

    from repro.bench import benchmark

    MARKER = Path({marker!r})

    @benchmark("runner-z-restart", tags=("selftest",))
    def bench_restart(ctx):
        runs = 1
        if MARKER.exists():
            runs = int(MARKER.read_text()) + 1
        MARKER.write_text(str(runs))
        if runs == 1:
            time.sleep(60.0)
        return {{"runs": float(runs)}}
"""


def test_runner_requires_specs():
    with pytest.raises(ConfigurationError):
        run_benchmarks([])


def test_runner_happy_path_and_error_containment(
    tmp_path, scratch_registry
):
    specs = _specs_from(
        tmp_path,
        {
            "bench_a.py": OK_SCRIPT.format(n=1, value=1.25),
            "bench_b.py": OK_SCRIPT.format(n=2, value=2.5),
            "bench_c.py": FAILING_SCRIPT,
        },
    )
    seen = []
    records = run_benchmarks(
        specs,
        RunnerConfig(max_workers=2, timeout_s=60.0, seed=777),
        progress=seen.append,
    )
    assert [r["name"] for r in records] == [
        "runner-ok-1",
        "runner-ok-2",
        "runner-raises",
    ]
    assert sorted(r["name"] for r in seen) == [
        r["name"] for r in records
    ]
    by_name = {r["name"]: r for r in records}
    for name, value in (("runner-ok-1", 1.25), ("runner-ok-2", 2.5)):
        record = by_name[name]
        assert record["status"] == "ok"
        # info_cpu_util is injected by the worker and machine-dependent.
        assert record["metrics"].pop("info_cpu_util") >= 0.0
        assert record["metrics"] == {"value": value, "seed_echo": 777.0}
        assert record["wall_s"] >= 0.0
        assert record["peak_rss_kb"] > 0
        assert record["tags"] == ["selftest"]
        assert record["error"] is None
    failed = by_name["runner-raises"]
    assert failed["status"] == "error"
    assert "deliberate benchmark failure" in failed["error"]
    assert failed["metrics"] == {}


def test_timeout_is_recorded_without_stalling_the_run(
    tmp_path, scratch_registry
):
    specs = _specs_from(
        tmp_path,
        {
            "bench_slow.py": SLOW_SCRIPT,
            "bench_fast.py": OK_SCRIPT.format(n=3, value=3.0),
        },
    )
    records = run_benchmarks(
        specs, RunnerConfig(max_workers=2, timeout_s=1.0)
    )
    by_name = {r["name"]: r for r in records}
    timed_out = by_name["runner-sleeps"]
    assert timed_out["status"] == "timeout"
    assert "deadline" in timed_out["error"]
    assert by_name["runner-ok-3"]["status"] == "ok"


def test_hung_workers_do_not_starve_queued_benchmarks(
    tmp_path, scratch_registry
):
    """Two hung benchmarks fill both workers while a third is queued.

    The runner must kill the hung workers at their deadline so the
    queued benchmark still gets a slot — previously the hung workers
    kept their slots until the end of the run and the queued
    benchmark (never started, so never expirable) spun forever.
    """
    specs = _specs_from(
        tmp_path,
        {
            "bench_hang_a.py": HANG_SCRIPT.format(n="a"),
            "bench_hang_b.py": HANG_SCRIPT.format(n="b"),
            # Sorts after the hang benchmarks, so it is the queued one.
            "bench_zfast.py": OK_SCRIPT.format(n=9, value=9.0),
        },
    )
    records = run_benchmarks(
        specs, RunnerConfig(max_workers=2, timeout_s=1.5)
    )
    by_name = {r["name"]: r for r in records}
    assert len(records) == 3
    assert by_name["runner-hang-a"]["status"] == "timeout"
    assert by_name["runner-hang-b"]["status"] == "timeout"
    assert by_name["runner-ok-9"]["status"] == "ok"
    # Nobody gets blamed for the pool teardown the runner caused.
    assert not [r for r in records if r["status"] == "crashed"]


def test_innocent_inflight_benchmark_restarts_after_timeout_kill(
    tmp_path, scratch_registry
):
    """Killing a hung worker must not fail its pool-mates.

    hang-a and the instant ok-1 start first on the two workers; the
    restart benchmark is queued, starts once ok-1 finishes, and hangs
    on its first invocation. When hang-a hits the deadline the runner
    kills its worker, which tears down the whole pool while the
    restart benchmark is innocently in flight — it must be
    resubmitted (observed as a second invocation), not reported as
    crashed or timed out.
    """
    marker = tmp_path / "restart-marker.txt"
    specs = _specs_from(
        tmp_path,
        {
            "bench_hang_a.py": HANG_SCRIPT.format(n="a"),
            "bench_ok.py": OK_SCRIPT.format(n=1, value=1.0),
            "bench_restart.py": RESTART_SCRIPT.format(
                marker=str(marker)
            ),
        },
    )
    records = run_benchmarks(
        specs, RunnerConfig(max_workers=2, timeout_s=3.0)
    )
    by_name = {r["name"]: r for r in records}
    assert by_name["runner-hang-a"]["status"] == "timeout"
    assert by_name["runner-ok-1"]["status"] == "ok"
    restarted = by_name["runner-z-restart"]
    assert restarted["status"] == "ok"
    assert restarted["metrics"]["runs"] == 2.0


def test_worker_crash_is_isolated_and_queue_drains(
    tmp_path, scratch_registry
):
    specs = _specs_from(
        tmp_path,
        {
            "bench_crash.py": CRASH_SCRIPT,
            "bench_d.py": OK_SCRIPT.format(n=4, value=4.0),
            "bench_e.py": OK_SCRIPT.format(n=5, value=5.0),
        },
    )
    # One worker makes attribution deterministic: the crasher is the
    # only benchmark in flight when the pool breaks, and the other two
    # must be resubmitted to the rebuilt pool.
    records = run_benchmarks(
        specs, RunnerConfig(max_workers=1, timeout_s=60.0)
    )
    by_name = {r["name"]: r for r in records}
    assert len(records) == 3
    assert by_name["runner-crashes"]["status"] == "crashed"
    assert by_name["runner-ok-4"]["status"] == "ok"
    assert by_name["runner-ok-5"]["status"] == "ok"


def test_clean_run_shutdown_leaves_executor_thread_alive(
    tmp_path, scratch_registry, monkeypatch
):
    # A clean run must let the executor's management thread finish
    # replacing the last one-task worker before the pool is torn down;
    # torn down under it, the thread dies with a TypeError ("Exception
    # in thread ..."). The thread only gets that far while the
    # executor is still referenced, so the test keeps every pool alive.
    caught = []
    monkeypatch.setattr(threading, "excepthook", caught.append)
    pools = []
    make_pool = runner_mod._make_pool

    def kept_pool(ctx, workers):
        pools.append(make_pool(ctx, workers))
        return pools[-1]

    monkeypatch.setattr(runner_mod, "_make_pool", kept_pool)
    specs = _specs_from(
        tmp_path, {"bench_a.py": OK_SCRIPT.format(n=11, value=1.0)}
    )
    for _ in range(3):
        [record] = run_benchmarks(
            specs, RunnerConfig(max_workers=1, timeout_s=60.0)
        )
        assert record["status"] == "ok"
        for thread in threading.enumerate():
            if isinstance(thread, futures_process._ExecutorManagerThread):
                thread.join(timeout=10.0)
    assert not caught, [
        f"{args.exc_type.__name__}: {args.exc_value}" for args in caught
    ]


def test_resolved_workers_bounds():
    assert RunnerConfig(max_workers=3).resolved_workers(100) == 3
    assert RunnerConfig(max_workers=0).resolved_workers(100) == 1
    auto = RunnerConfig().resolved_workers(100)
    assert 1 <= auto <= 8
    assert RunnerConfig().resolved_workers(1) == 1


def test_profile_dir_writes_pstats_dump(tmp_path, scratch_registry):
    import pstats

    specs = _specs_from(
        tmp_path, {"bench_a.py": OK_SCRIPT.format(n=9, value=9.0)}
    )
    prof_dir = tmp_path / "profiles"
    records = run_benchmarks(
        specs,
        RunnerConfig(max_workers=1, timeout_s=60.0,
                     profile_dir=str(prof_dir)),
    )
    [record] = records
    assert record["status"] == "ok"
    prof_path = prof_dir / "runner-ok-9.prof"
    assert record["profile"] == str(prof_path)
    assert prof_path.is_file()
    stats = pstats.Stats(str(prof_path))
    assert stats.total_calls > 0


def test_profile_written_even_when_benchmark_raises(
    tmp_path, scratch_registry
):
    specs = _specs_from(tmp_path, {"bench_c.py": FAILING_SCRIPT})
    records = run_benchmarks(
        specs,
        RunnerConfig(max_workers=1, timeout_s=60.0,
                     profile_dir=str(tmp_path)),
    )
    [record] = records
    assert record["status"] == "error"
    assert (tmp_path / "runner-raises.prof").is_file()


def test_no_profile_dir_leaves_record_unprofiled(
    tmp_path, scratch_registry
):
    specs = _specs_from(
        tmp_path, {"bench_a.py": OK_SCRIPT.format(n=8, value=8.0)}
    )
    [record] = run_benchmarks(
        specs, RunnerConfig(max_workers=1, timeout_s=60.0)
    )
    assert record["profile"] is None
    assert not list(tmp_path.glob("*.prof"))
