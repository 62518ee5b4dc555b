"""Unit tests for report assembly, validation, and baseline gating."""

import pytest

from repro.bench import (
    Thresholds,
    build_report,
    compare_reports,
    format_comparison,
    load_report,
    report_filename,
    validate_report,
    write_report,
)
from repro.bench.compare import (
    WALL_ABS_SLACK_S,
    is_deviation_metric,
    is_info_metric,
    resolve_thresholds,
)
from repro.errors import ConfigurationError


def record(name, wall=1.0, rss=50_000, metrics=None, status="ok",
           error=None):
    return {
        "name": name,
        "tags": ["selftest"],
        "status": status,
        "wall_s": wall if status == "ok" else None,
        "peak_rss_kb": rss,
        "metrics": dict(metrics or {}) if status == "ok" else {},
        "error": error,
    }


def report(records, calibration=None):
    environment = {"python": "3.x"}
    if calibration is not None:
        environment["calibration_s"] = calibration
    return build_report(
        records, config={"seed": 1}, sha="f" * 40,
        environment=environment,
    )


# ---------------------------------------------------------------- report


def test_build_report_counts_and_filename(tmp_path):
    rep = report([
        record("a", wall=1.5, metrics={"m": 1.0}),
        record("b", status="timeout", error="deadline"),
    ])
    assert rep["summary"] == {
        "total": 2, "ok": 1, "error": 0, "timeout": 1, "crashed": 0,
        "wall_s": 1.5,
    }
    assert report_filename(rep) == f"BENCH_{'f' * 12}.json"
    path = write_report(rep, tmp_path)
    assert path.name == report_filename(rep)
    assert load_report(path)["summary"]["total"] == 2


@pytest.mark.parametrize(
    "mutate, detail",
    [
        (lambda r: r.update(schema="bogus/9"), "schema"),
        (lambda r: r["benchmarks"].append(
            dict(record("a"), name="a")), "duplicate"),
        (lambda r: r["benchmarks"][0].pop("metrics"), "missing keys"),
        (lambda r: r["benchmarks"][0].update(status="exploded"),
         "bad status"),
        (lambda r: r["benchmarks"][0]["metrics"].update(m=True),
         "str -> number"),
        (lambda r: r["summary"].update(total=99), "summary.total"),
        (lambda r: r["benchmarks"][0].update(wall_s="fast"),
         "number or null"),
    ],
)
def test_validate_report_rejects_drift(mutate, detail):
    rep = report([record("a", metrics={"m": 1.0})])
    mutate(rep)
    with pytest.raises(ConfigurationError, match="invalid benchmark"):
        validate_report(rep)


def test_load_report_missing_file(tmp_path):
    with pytest.raises(ConfigurationError, match="cannot read"):
        load_report(tmp_path / "absent.json")


# ------------------------------------------------------------- comparing


def test_identical_reports_pass():
    base = report([record("a", metrics={"m": 1.0, "x_dev": 0.1})])
    result = compare_reports(base, base)
    assert result.ok
    assert result.regressions == []
    assert "OK" in format_comparison(result)


def test_wall_regression_beyond_threshold():
    base = report([record("a", wall=2.0)])
    cur = report([record("a", wall=3.0)])
    result = compare_reports(cur, base)
    assert [r.kind for r in result.regressions] == ["wall"]
    assert "wall time" in str(result.regressions[0])


def test_small_wall_jitter_is_absorbed_by_absolute_slack():
    base = report([record("a", wall=0.02)])
    cur = report([record("a", wall=0.02 + WALL_ABS_SLACK_S * 0.9)])
    assert compare_reports(cur, base).ok


def test_calibration_rescales_wall_threshold():
    base = report([record("a", wall=2.0)], calibration=0.1)
    cur = report([record("a", wall=3.0)], calibration=0.2)
    scaled = compare_reports(cur, base)
    assert scaled.ok
    assert scaled.wall_scale == pytest.approx(2.0)
    unscaled = compare_reports(
        cur, base, Thresholds(use_calibration=False)
    )
    assert [r.kind for r in unscaled.regressions] == ["wall"]


def test_calibration_ratio_is_clamped():
    base = report([record("a", wall=1.0)], calibration=0.001)
    cur = report([record("a", wall=1.0)], calibration=10.0)
    assert compare_reports(cur, base).wall_scale == 4.0


def test_deviation_metric_is_one_sided():
    base = report([record("a", metrics={"read_dev": 0.10})])
    better = report([record("a", metrics={"read_dev": 0.0})])
    worse = report([record("a", metrics={"read_dev": 0.30})])
    assert compare_reports(better, base).ok
    result = compare_reports(worse, base)
    assert [r.kind for r in result.regressions] == ["metric"]
    assert "worsened" in result.regressions[0].detail


def test_plain_metric_gates_drift_in_both_directions():
    base = report([record("a", metrics={"events": 100.0})])
    for drifted in (80.0, 120.0):
        cur = report([record("a", metrics={"events": drifted})])
        result = compare_reports(cur, base)
        assert [r.kind for r in result.regressions] == ["metric"]
        assert "drifted" in result.regressions[0].detail
    within = report([record("a", metrics={"events": 105.0})])
    assert compare_reports(within, base).ok


def test_info_metrics_never_gate():
    # Machine-dependent observability readings: free to drift wildly,
    # disappear, or appear without tripping the determinism gate.
    base = report([record("a", metrics={"m": 1.0,
                                        "info_utilization": 0.9,
                                        "info_queue_depth": 3.0})])
    cur = report([record("a", metrics={"m": 1.0,
                                       "info_utilization": 0.01,
                                       "info_new_reading": 7.0})])
    assert compare_reports(cur, base).ok
    assert is_info_metric("info_utilization")
    assert not is_info_metric("utilization_info")


def test_disappeared_metric_is_a_regression():
    base = report([record("a", metrics={"m": 1.0, "gone": 2.0})])
    cur = report([record("a", metrics={"m": 1.0})])
    result = compare_reports(cur, base)
    assert [r.kind for r in result.regressions] == ["metric"]
    assert "disappeared" in result.regressions[0].detail


def test_missing_benchmark_is_a_regression_new_one_is_a_note():
    base = report([record("a"), record("b")])
    cur = report([record("b"), record("c")])
    result = compare_reports(cur, base)
    assert [(r.benchmark, r.kind) for r in result.regressions] == [
        ("a", "missing")
    ]
    assert any("new benchmark" in note for note in result.notes)


def test_selection_skips_unselected_and_keeps_selected_missing():
    base = report([record("a"), record("b", wall=0.1), record("gone")])
    cur = report([record("b", wall=9.0)])
    result = compare_reports(cur, base, selected=["b", "gone"])
    assert sorted((r.benchmark, r.kind) for r in result.regressions) == [
        ("b", "wall"), ("gone", "missing")]
    [note] = result.notes
    assert "1 baseline benchmark(s)" in note and note.endswith(": a")


def test_status_regression_carries_error_hint():
    base = report([record("a")])
    cur = report([
        record("a", status="error",
               error="Traceback...\nValueError: boom"),
    ])
    result = compare_reports(cur, base)
    assert [r.kind for r in result.regressions] == ["status"]
    assert "ValueError: boom" in result.regressions[0].detail


def test_non_ok_baseline_entry_is_skipped_with_note():
    base = report([record("a", status="timeout", error="deadline")])
    cur = report([record("a", status="crashed", error="boom")])
    result = compare_reports(cur, base)
    assert result.ok
    assert any("comparison skipped" in note for note in result.notes)


def test_rss_gates_only_when_enabled():
    base = report([record("a", rss=10_000)])
    cur = report([record("a", rss=30_000)])
    assert compare_reports(cur, base).ok
    result = compare_reports(cur, base, Thresholds(rss_rel=0.5))
    assert [r.kind for r in result.regressions] == ["rss"]


def test_resolve_thresholds_layers_baseline_and_overrides():
    base = report([record("a")])
    base["thresholds"] = {"wall_rel": 0.5, "metric_rel": 0.2}
    resolved = resolve_thresholds(
        base, {"metric_rel": 0.05, "metric_abs": None}
    )
    assert resolved.wall_rel == 0.5
    assert resolved.metric_rel == 0.05
    assert resolved.metric_abs == Thresholds().metric_abs
    assert Thresholds.from_dict(resolved.to_dict()) == resolved


def test_deviation_suffix_convention():
    for name in ("read_dev", "one_rep_err", "pcp_gap", "tail_excess"):
        assert is_deviation_metric(name)
    for name in ("noise_floor", "events", "ratio", "device"):
        assert not is_deviation_metric(name)
