"""Baseline comparison: the regression gate behind ``bench --compare``.

A *baseline* is a frozen benchmark report (see
:mod:`repro.bench.report`), optionally carrying a ``"thresholds"``
object that tunes the gate. Comparison rules:

* a benchmark present in the baseline must be present and ``ok`` in
  the current report (missing/erroring/timing out is a regression);
* wall time may grow at most ``wall_rel`` (default +25%) over the
  baseline, after rescaling by the two machines' calibration probe
  ratio (so a slower CI runner is not punished for being slower);
* metrics whose name marks them as accuracy deviations (suffixes
  ``_dev``/``_err``/``_gap``/``_excess``) are one-sided: they may
  improve freely but may not *worsen* beyond
  ``metric_abs + metric_rel * |baseline|``;
* metrics prefixed ``info_`` are machine-dependent observability
  readings (worker utilization, queue depths, ...): recorded in the
  report, never gated, and allowed to appear or disappear freely;
* every other metric is a determinism check: it must stay within the
  same tolerance of the frozen value in either direction;
* peak RSS is reported but gates only when ``rss_rel`` is set.

New benchmarks (present now, absent from the baseline) are reported
as notes, never failures — growth must not be penalised. A run narrowed
to some benchmarks (``bench --tag``/``--filter``) is compared only on
the baseline benchmarks it selected; the rest are noted as skipped.
"""

from __future__ import annotations

import dataclasses
from typing import Collection, Dict, List, Optional

#: Metric-name suffixes treated as "lower is better" deviations.
DEVIATION_SUFFIXES = ("_dev", "_err", "_gap", "_excess")

#: Metric-name prefix for machine-dependent observability readings
#: (utilization, queue depths): reported, never gated.
INFO_PREFIX = "info_"

#: Ignore wall regressions below this many seconds of slack — a
#: microbenchmark doubling from 20 ms to 40 ms is scheduler noise,
#: not a perf regression.
WALL_ABS_SLACK_S = 0.25

#: Calibration ratio is clamped to this band; a probe more than 4x
#: off suggests a broken probe, not a 4x machine.
_CAL_CLAMP = (0.25, 4.0)


@dataclasses.dataclass(frozen=True)
class Thresholds:
    """Gate tunables; may be embedded in the baseline file."""

    wall_rel: float = 0.25
    metric_rel: float = 0.10
    metric_abs: float = 0.01
    rss_rel: Optional[float] = None
    use_calibration: bool = True

    @classmethod
    def from_dict(cls, data: Dict) -> "Thresholds":
        fields = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in fields})

    def to_dict(self) -> Dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class Regression:
    """One gate violation."""

    benchmark: str
    kind: str  # "missing" | "status" | "wall" | "metric" | "rss"
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.benchmark}: {self.detail}"


@dataclasses.dataclass
class ComparisonResult:
    regressions: List[Regression]
    notes: List[str]
    wall_scale: float

    @property
    def ok(self) -> bool:
        return not self.regressions


def resolve_thresholds(
    baseline: Dict,
    overrides: Optional[Dict] = None,
) -> Thresholds:
    """Baseline-embedded thresholds, patched by CLI overrides."""
    data = dict(baseline.get("thresholds") or {})
    for key, value in (overrides or {}).items():
        if value is not None:
            data[key] = value
    return Thresholds.from_dict(data)


def _wall_scale(current: Dict, baseline: Dict) -> float:
    cur = current.get("environment", {}).get("calibration_s")
    base = baseline.get("environment", {}).get("calibration_s")
    if not cur or not base:
        return 1.0
    lo, hi = _CAL_CLAMP
    return min(hi, max(lo, float(cur) / float(base)))


def is_deviation_metric(name: str) -> bool:
    return name.endswith(DEVIATION_SUFFIXES)


def is_info_metric(name: str) -> bool:
    return name.startswith(INFO_PREFIX)


def compare_reports(
    current: Dict,
    baseline: Dict,
    thresholds: Optional[Thresholds] = None,
    selected: Optional[Collection[str]] = None,
) -> ComparisonResult:
    """Gate ``current`` against ``baseline``; collect regressions.

    ``selected`` names the baseline benchmarks the run was asked for
    (None: all of them). The others are skipped with a note; a selected
    one absent from the run is still ``missing``.
    """
    if thresholds is None:
        thresholds = resolve_thresholds(baseline)
    scale = (
        _wall_scale(current, baseline)
        if thresholds.use_calibration
        else 1.0
    )
    cur_by_name = {r["name"]: r for r in current["benchmarks"]}
    base_by_name = {r["name"]: r for r in baseline["benchmarks"]}
    regressions: List[Regression] = []
    notes: List[str] = []
    if selected is not None:
        skipped = sorted(set(base_by_name) - set(selected))
        if skipped:
            notes.append(
                f"{len(skipped)} baseline benchmark(s) outside this "
                f"run's selection, not compared: {', '.join(skipped)}"
            )
        base_by_name = {n: r for n, r in base_by_name.items() if n in selected}
    for name in sorted(base_by_name):
        base = base_by_name[name]
        cur = cur_by_name.get(name)
        if cur is None:
            regressions.append(
                Regression(
                    name,
                    "missing",
                    "present in baseline but not in this run",
                )
            )
            continue
        if base["status"] != "ok":
            notes.append(
                f"{name}: baseline status is {base['status']!r}; "
                f"comparison skipped"
            )
            continue
        if cur["status"] != "ok":
            regressions.append(
                Regression(
                    name,
                    "status",
                    f"was ok in baseline, now {cur['status']!r}"
                    + _error_hint(cur),
                )
            )
            continue
        regressions.extend(_compare_wall(name, cur, base, thresholds, scale))
        regressions.extend(_compare_rss(name, cur, base, thresholds))
        regressions.extend(_compare_metrics(name, cur, base, thresholds))
    for name in sorted(set(cur_by_name) - set(base_by_name)):
        notes.append(
            f"{name}: new benchmark, not in baseline "
            f"(re-freeze to start gating it)"
        )
    return ComparisonResult(regressions, notes, scale)


def _error_hint(record: Dict) -> str:
    error = record.get("error")
    if not error:
        return ""
    last_line = str(error).strip().splitlines()[-1]
    return f" ({last_line})"


def _compare_wall(name, cur, base, thresholds, scale):
    base_wall = base.get("wall_s")
    cur_wall = cur.get("wall_s")
    if base_wall is None or cur_wall is None:
        return []
    allowed = (
        base_wall * scale * (1.0 + thresholds.wall_rel) + WALL_ABS_SLACK_S
    )
    if cur_wall <= allowed:
        return []
    return [
        Regression(
            name,
            "wall",
            f"wall time {cur_wall:.3f}s exceeds "
            f"{allowed:.3f}s allowed "
            f"(baseline {base_wall:.3f}s, scale x{scale:.2f}, "
            f"threshold +{thresholds.wall_rel:.0%})",
        )
    ]


def _compare_rss(name, cur, base, thresholds):
    if thresholds.rss_rel is None:
        return []
    base_rss = base.get("peak_rss_kb")
    cur_rss = cur.get("peak_rss_kb")
    if not base_rss or not cur_rss:
        return []
    allowed = base_rss * (1.0 + thresholds.rss_rel)
    if cur_rss <= allowed:
        return []
    return [
        Regression(
            name,
            "rss",
            f"peak RSS {cur_rss} kB exceeds {allowed:.0f} kB allowed "
            f"(baseline {base_rss} kB)",
        )
    ]


def _compare_metrics(name, cur, base, thresholds):
    regressions = []
    cur_metrics = cur.get("metrics") or {}
    for key, base_val in sorted((base.get("metrics") or {}).items()):
        if is_info_metric(key):
            continue
        if key not in cur_metrics:
            regressions.append(
                Regression(
                    name,
                    "metric",
                    f"metric {key!r} disappeared from the report",
                )
            )
            continue
        cur_val = cur_metrics[key]
        tol = thresholds.metric_abs + thresholds.metric_rel * abs(base_val)
        if is_deviation_metric(key):
            if cur_val > base_val + tol:
                regressions.append(
                    Regression(
                        name,
                        "metric",
                        f"deviation {key} worsened: "
                        f"{base_val:.6g} -> {cur_val:.6g} "
                        f"(tolerance {tol:.6g})",
                    )
                )
        elif abs(cur_val - base_val) > tol:
            regressions.append(
                Regression(
                    name,
                    "metric",
                    f"metric {key} drifted: "
                    f"{base_val:.6g} -> {cur_val:.6g} "
                    f"(tolerance +/-{tol:.6g})",
                )
            )
    return regressions


def format_comparison(result: ComparisonResult) -> str:
    lines: List[str] = []
    if result.wall_scale != 1.0:
        lines.append(
            f"wall-time thresholds rescaled x{result.wall_scale:.2f} "
            f"by machine calibration"
        )
    for note in result.notes:
        lines.append(f"note: {note}")
    if result.ok:
        lines.append("baseline comparison: OK (no regressions)")
    else:
        n = len(result.regressions)
        lines.append(f"baseline comparison: {n} regression(s)")
        for regression in result.regressions:
            lines.append(f"  {regression}")
    return "\n".join(lines)
