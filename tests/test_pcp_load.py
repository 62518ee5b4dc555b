"""The pcp-load harness: sustained async load with fault injection.

Short windows keep the suite fast; the CI nightly smoke runs the
full-scale version (256 contexts, 60 s, 10k/s floor). The
``pcp-load`` subcommand's exit codes are checked against a patched
``run_load``.
"""

import json

import pytest

from repro.cli import main
from repro.pcp.load import (
    LATENCY_BUCKETS_USEC,
    healthy,
    latency_histogram,
    percentile_usec,
    run_load,
)


def small_load(**kwargs):
    kwargs.setdefault("n_contexts", 8)
    kwargs.setdefault("duration_seconds", 0.4)
    kwargs.setdefault("pipeline_depth", 2)
    return run_load(**kwargs)


class TestHealthyRun:
    def test_baseline_run_is_healthy(self):
        report = small_load()
        assert healthy(report), report["errors"]
        assert report["total_fetches"] > 0
        assert report["fetches_per_second"] > 0
        assert report["coalesced"] > 0
        assert report["cross_wired"] == 0
        assert report["non_monotone_timestamps"] == 0

    def test_histogram_counts_every_fetch(self):
        report = small_load()
        hist = report["latency_histogram"]
        assert sum(hist.values()) == report["total_fetches"]
        assert report["latency_p50_usec"] <= report["latency_p99_usec"] \
            <= report["latency_max_usec"]

    def test_no_coalesce_costs_more_pmda_reads(self):
        coalesced = small_load(seed=3)
        naive = small_load(seed=3, coalesce=False)
        assert naive["coalesced"] == 0
        assert coalesced["coalesced"] > 0
        # Without coalescing every fetch PDU pays its own PMDA reads;
        # with it, fetches share reads.
        assert naive["pmda_fetch_calls"] == (naive["total_fetches"]
                                             * naive["pmids_per_fetch"])
        assert coalesced["pmda_fetch_calls"] < (
            coalesced["total_fetches"] * coalesced["pmids_per_fetch"])


class TestFaultScenarios:
    def test_shard_kills_recovered(self):
        report = small_load(shard_kills=1)
        assert healthy(report), report["errors"]
        assert report["shard_kills"] == 1
        assert report["shard_restarts"] >= 1

    def test_dropped_connections_recovered(self):
        report = small_load(drop_connections=2)
        assert healthy(report), report["errors"]
        assert report["client_reconnects"] >= 1
        assert report["faults_injected"] >= 2

    def test_slow_pmda_absorbed(self):
        report = small_load(slow_pmda=1, slow_pmda_seconds=0.01)
        assert healthy(report), report["errors"]
        assert report["faults_injected"] == 1

    def test_archive_corruption_detected(self, tmp_path):
        report = small_load(corrupt_archive=True,
                            archive_dir=str(tmp_path))
        assert report["archive_corruption"] == "detected"
        assert healthy(report), report["errors"]

    def test_all_faults_together(self, tmp_path):
        report = small_load(n_contexts=12, duration_seconds=0.6,
                            shard_kills=1, slow_pmda=1,
                            drop_connections=2, corrupt_archive=True,
                            archive_dir=str(tmp_path))
        assert healthy(report), report["errors"]


@pytest.fixture(scope="module")
def clean_burst():
    return run_load(n_contexts=64, duration_seconds=1.0, seed=613)


@pytest.fixture(scope="module")
def faulted_burst():
    return run_load(n_contexts=32, duration_seconds=0.8, seed=613,
                    shard_kills=1, slow_pmda=1, slow_pmda_seconds=0.005,
                    drop_connections=2)


class TestServiceScale:
    """A 64-context burst, and a 32-context one under a shard kill, a
    slow PMDA read and two dropped connections. The fetch-rate floors
    leave wide headroom (both bursts fetched about 23,000/s on a 2-vCPU
    host) and run with the slow tests."""

    def test_clean_burst_is_healthy_and_coalesced(self, clean_burst):
        assert healthy(clean_burst), clean_burst["errors"]
        assert clean_burst["coalesced"] > 0

    def test_faulted_burst_recovers_every_fault(self, faulted_burst):
        assert healthy(faulted_burst), faulted_burst["errors"]
        assert faulted_burst["shard_restarts"] >= 1

    @pytest.mark.slow
    def test_clean_fetch_rate_floor(self, clean_burst):
        assert clean_burst["fetches_per_second"] >= 1200

    @pytest.mark.slow
    def test_faulted_fetch_rate_floor(self, faulted_burst):
        assert faulted_burst["fetches_per_second"] >= 400


class TestHealthPredicate:
    def test_errors_flip_health(self):
        report = small_load()
        assert healthy(report)
        bad = dict(report, errors=["context 0: boom"])
        assert not healthy(bad)
        assert not healthy(dict(report, cross_wired=1))
        assert not healthy(dict(report, non_monotone_timestamps=1))
        assert not healthy(dict(report, unrecovered_faults=1))
        assert not healthy(dict(report,
                                archive_corruption="undetected"))
        assert healthy(dict(report, archive_corruption="detected"))


class TestLatencyMath:
    def test_percentile_edges(self):
        assert percentile_usec([], 0.99) == 0
        assert percentile_usec([0.001], 0.5) == 1000
        sample = sorted([0.001 * i for i in range(1, 101)])
        assert percentile_usec(sample, 0.0) == 1000
        assert percentile_usec(sample, 1.0) == 100000

    def test_histogram_bucketing(self):
        hist = latency_histogram([50e-6, 150e-6, 0.9])
        assert hist["<=100us"] == 1
        assert hist["<=200us"] == 1
        assert hist[f">{LATENCY_BUCKETS_USEC[-1]}us"] == 1
        assert sum(hist.values()) == 3


# ------------------------------------------------------------ pcp-load CLI


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
