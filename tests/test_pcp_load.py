"""The pcp-load harness: sustained async load with fault injection.

Short windows keep the suite fast; the CI nightly smoke runs the
full-scale version (256 contexts, 60 s, 10k/s floor).
"""

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
