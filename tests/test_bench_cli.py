"""End-to-end tests for ``repro.cli bench`` and the pcp-load gates."""

import json

import pytest

from repro.bench.registry import _REGISTRY
from repro.cli import main

SCRIPT = (
    "from repro.bench import benchmark\n\n"
    "@benchmark('cli-tiny', tags=('selftest',))\n"
    "def bench_cli_tiny(ctx):\n"
    "    return {'answer': 42.0, 'acc_dev': 0.05}\n"
)


@pytest.fixture(scope="module")
def bench_env(tmp_path_factory):
    """One frozen-baseline bench run shared by the module's tests."""
    root = tmp_path_factory.mktemp("clibench")
    bench_dir = root / "benchmarks"
    bench_dir.mkdir()
    (bench_dir / "bench_cli_tiny.py").write_text(SCRIPT)
    baseline = root / "baseline.json"
    rc = main([
        "bench", "--bench-dir", str(bench_dir),
        "--output-dir", str(root), "--freeze", str(baseline),
        "--jobs", "1", "--timeout", "60",
    ])
    assert rc == 0
    yield {"dir": bench_dir, "baseline": baseline, "root": root}
    _REGISTRY.pop("cli-tiny", None)


def test_bench_writes_schema_valid_report(bench_env):
    from repro.bench import load_report

    artifacts = list(bench_env["root"].glob("BENCH_*.json"))
    assert len(artifacts) == 1
    report = load_report(artifacts[0])
    assert report["summary"] == {
        "total": 1, "ok": 1, "error": 0, "timeout": 0, "crashed": 0,
        "wall_s": report["summary"]["wall_s"],
    }
    [rec] = report["benchmarks"]
    assert rec["name"] == "cli-tiny"
    # The runner injects CPU utilization into every record; it is
    # machine-dependent, so only its presence and sanity are pinned.
    util = rec["metrics"].pop("info_cpu_util")
    assert util >= 0.0
    assert rec["metrics"] == {"answer": 42.0, "acc_dev": 0.05}
    assert report["environment"]["calibration_s"] > 0
    assert report["config"]["seed"] == 20230613


def test_bench_frozen_baseline_embeds_thresholds(bench_env):
    frozen = json.loads(bench_env["baseline"].read_text())
    assert frozen["schema"] == "repro-bench/1"
    assert "thresholds" in frozen


def test_bench_compare_against_own_baseline_passes(bench_env, capsys):
    rc = main([
        "bench", "--bench-dir", str(bench_env["dir"]), "--no-report",
        "--jobs", "1", "--compare", str(bench_env["baseline"]),
    ])
    assert rc == 0
    assert "no regressions" in capsys.readouterr().out


def test_bench_compare_tightened_baseline_fails(bench_env, capsys):
    tightened = json.loads(bench_env["baseline"].read_text())
    for rec in tightened["benchmarks"]:
        rec["metrics"]["acc_dev"] = 0.0
    tightened["thresholds"] = {"metric_abs": 0.01, "metric_rel": 0.0}
    path = bench_env["root"] / "tightened.json"
    path.write_text(json.dumps(tightened))
    argv = [
        "bench", "--bench-dir", str(bench_env["dir"]), "--no-report",
        "--jobs", "1", "--compare", str(path),
    ]
    assert main(argv) == 1
    assert "regression" in capsys.readouterr().out
    assert main(argv + ["--no-fail-on-regression"]) == 0


def test_bench_json_output_is_the_report(bench_env, capsys):
    rc = main([
        "bench", "--bench-dir", str(bench_env["dir"]), "--no-report",
        "--jobs", "1", "--json",
    ])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == "repro-bench/1"
    assert [r["name"] for r in report["benchmarks"]] == ["cli-tiny"]


def test_bench_without_matches_exits_two(bench_env):
    rc = main([
        "bench", "--bench-dir", str(bench_env["dir"]),
        "--filter", "no-such-benchmark", "--no-report",
    ])
    assert rc == 2


def test_bench_dispatches_with_leading_global_flags(bench_env, capsys):
    """`--seed 42 bench` must reach the bench parser, not the
    experiment parser (the subcommand needn't be argv[0])."""
    rc = main([
        "--seed", "99", "bench", "--bench-dir", str(bench_env["dir"]),
        "--no-report", "--jobs", "1", "--json",
    ])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["seed"] == 99


def test_bench_listed_in_cli_index(capsys):
    assert main(["--list"]) == 0
    assert "bench" in capsys.readouterr().out


# ------------------------------------------------------------ pcp-load


HEALTHY_LOAD = {
    "contexts": 2,
    "total_fetches": 1000,
    "fetches_per_second": 5000,
    "latency_p99_usec": 800,
    "errors": [],
    "cross_wired": 0,
    "non_monotone_timestamps": 0,
    "unrecovered_faults": 0,
    "archive_corruption": None,
}


def _patch_load(monkeypatch, **overrides):
    import repro.pcp.load as load

    fake_report = dict(HEALTHY_LOAD, **overrides)
    monkeypatch.setattr(load, "run_load", lambda **kwargs: dict(fake_report))


def test_pcp_load_healthy_run_exits_zero(monkeypatch, capsys):
    _patch_load(monkeypatch)
    assert main(["pcp-load", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["unrecovered_faults"] == 0


def test_pcp_load_unrecovered_fault_exits_nonzero(monkeypatch, capsys):
    _patch_load(
        monkeypatch,
        unrecovered_faults=1,
        errors=["context 1: ConnectionResetError()"],
    )
    assert main(["pcp-load", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["unrecovered_faults"] == 1


@pytest.mark.parametrize("gate", [
    ["--min-rate", "5001"],
    ["--max-p99-usec", "799"],
])
def test_pcp_load_missed_gate_exits_nonzero(monkeypatch, capsys, gate):
    _patch_load(monkeypatch)
    assert main(["pcp-load", "--json"] + gate) == 1
    assert json.loads(capsys.readouterr().out)["errors"] == []


def test_bench_profile_flag_writes_prof_next_to_report(
    tmp_path, capsys
):
    bench_dir = tmp_path / "benchmarks"
    bench_dir.mkdir()
    (bench_dir / "bench_cli_prof.py").write_text(
        "from repro.bench import benchmark\n\n"
        "@benchmark('cli-prof', tags=('selftest',))\n"
        "def bench_cli_prof(ctx):\n"
        "    return {'answer': 1.0}\n"
    )
    try:
        rc = main([
            "bench", "--bench-dir", str(bench_dir),
            "--output-dir", str(tmp_path), "--profile",
            "--jobs", "1", "--timeout", "60",
        ])
        assert rc == 0
        assert (tmp_path / "cli-prof.prof").is_file()
        assert list(tmp_path.glob("BENCH_*.json"))
    finally:
        _REGISTRY.pop("cli-prof", None)
