"""Frozen metrics and shape claims of every experiment at seed 20230613.

Each experiment runs once, with the sweep its figure uses, and an
extractor below reads the result into a flat dict of named metrics;
``tests/experiment_metrics.json`` freezes their values. Every
experiment is deterministic, so a metric must equal its frozen value:
an integer exactly, a float to a relative ``1e-9`` (room for float
formatting, not for a model change), whichever way it moves. A
deviation that shrinks is a change too: refreeze it deliberately. The
golden fixtures pin the same tables bit for bit at the default seed;
these tests pin the quantities the paper's claims are about at a second
seed, and assert the claims themselves on the same runs.
"""

import functools
import json
import math
import pathlib

import pytest

from repro.experiments import all_experiments, run_experiment
from repro.experiments.ablations import OBSERVED, OBSERVED_WITH_FLAG

SEED = 20230613
FIXTURE = pathlib.Path(__file__).parent / "experiment_metrics.json"
FROZEN = json.loads(FIXTURE.read_text())
REL_TOL = 1e-9


def frozen_drift(metrics, frozen):
    """The metrics that moved from their frozen value, one line each."""
    drift = []
    for key, want in frozen.items():
        if key not in metrics:
            drift.append(f"{key}: missing")
            continue
        got = metrics[key]
        if isinstance(want, int):
            moved = got != want
        else:
            moved = not math.isclose(got, want, rel_tol=REL_TOL)
        if moved:
            drift.append(f"{key}: {got!r}, frozen {want!r}")
    return drift


# ---------------------------------------------------------------- extractors


def fig2_metrics(result):
    lo, hi = result.extras["band"]
    metrics = {"band_lo": lo, "band_hi": hi}
    for machine in ("summit", "tellico"):
        by_n = {r[0]: r for r in result.extras[machine]}
        smallest = min(by_n)
        largest = max(by_n)
        metrics[f"{machine}_noise_floor"] = abs(by_n[smallest][7] - 1.0)
        metrics[f"{machine}_large_n_ratio"] = by_n[largest][7]
    return metrics


def fig3_metrics(result):
    single = {r[0]: r[7] for r in result.extras["single"]}
    batched = {r[0]: r[7] for r in result.extras["batched"]}
    sizes = sorted(single)
    below = [n for n in sizes if n <= 720]
    inside = [n for n in sizes if 720 <= n <= 2048]
    above = [n for n in sizes if n >= 1024]
    return {
        "single_small_dev": abs(single[below[0]] - 1.0),
        "single_max_step": max(single[b] / single[a]
                               for a, b in zip(inside, inside[1:])),
        "batched_below_dev": max(abs(batched[n] - 1.0)
                                 for n in below[2:]),
        "batched_above_min": min(batched[n] for n in above),
    }


def fig4_metrics(result):
    single = {r[0]: r[7] for r in result.extras["single"]}
    batched = {r[0]: r[7] for r in result.extras["batched"]}
    sizes = sorted(single)
    small = [n for n in sizes if n <= 640]
    large = [n for n in sizes if n >= 1024]
    return {
        "batched_small_dev": max(abs(batched[n] - 1.0)
                                 for n in small[2:]),
        "batched_large_min": min(batched[n] for n in large),
        "single_large_max": max(single[n] for n in large),
    }


def fig5_metrics(result):
    metrics = {}
    for panel in ("summit", "tellico"):
        by_m = {r[0]: r for r in result.extras[panel]}
        small = [m for m in by_m if m <= 1280]
        large = [m for m in by_m if m >= 65536]
        metrics[f"{panel}_read_dev"] = max(abs(row[8] - 1.0)
                                           for row in by_m.values())
        metrics[f"{panel}_write_small_min"] = min(by_m[m][9]
                                                  for m in small)
        metrics[f"{panel}_write_tail_excess"] = max(by_m[m][9] - 1.0
                                                    for m in large)
    return metrics


def fig6_metrics(result):
    plain = {r[0]: r for r in result.extras["plain"]}
    flagged = {r[0]: r for r in result.extras["prefetch"]}
    stable = [n for n in plain if n >= 768]
    return {
        "plain_read_dev": max(abs(plain[n][2] - 1.0) for n in stable),
        "plain_write_dev": max(abs(plain[n][4] - 1.0) for n in stable),
        "flagged_read_dev": max(abs(flagged[n][2] - 2.0)
                                for n in stable),
        "flagged_write_dev": max(abs(flagged[n][4] - 1.0)
                                 for n in stable),
    }


def fig7_metrics(result):
    plain = {r[0]: r for r in result.extras["plain"]}
    flagged = {r[0]: r for r in result.extras["prefetch"]}
    below = [n for n in plain if 384 <= n <= 640]
    above = [n for n in plain if n >= 896]
    return {
        "eq7_boundary": result.extras["eq7_boundary"],
        "below_read_dev": max(abs(plain[n][2] - 2.0) for n in below),
        "above_read_dev": max(abs(plain[n][2] - 5.0) for n in above),
        "above_write_dev": max(abs(plain[n][4] - 1.0) for n in above),
        "flag_speedup_min": min(flagged[n][8] / plain[n][8]
                                for n in above),
    }


def fig8_metrics(result):
    stable = [r for r in result.extras["plain"] if r[0] >= 512]
    return {
        "read_dev": max(abs(row[2] - 2.0) for row in stable),
        "write_dev": max(abs(row[4] - 1.0) for row in stable),
    }


FIG9_SIZES = (768, 1024, 1280)


def fig9_metrics(result):
    plain = {r[0]: r for r in result.extras["plain"]}
    flagged = {r[0]: r for r in result.extras["prefetch"]}
    return {
        "plain_read_dev": max(abs(plain[n][2] - 1.0) for n in FIG9_SIZES),
        "plain_write_dev": max(abs(plain[n][4] - 1.0)
                               for n in FIG9_SIZES),
        "flagged_read_dev": max(abs(flagged[n][2] - 2.0)
                                for n in FIG9_SIZES),
    }


def fig10_metrics(result):
    per = result.extras["per_routine"]
    metrics = {}
    for n in (1344, 2016):
        metrics[f"s1cf_n{n}_ratio_dev"] = abs(
            per["s1cf"][n]["ratio"] - 2.0)
        metrics[f"s2cf_n{n}_ratio_dev"] = abs(
            per["s2cf"][n]["ratio"] - 1.0)
        reads = per["s1cf"][n]["reads"]
        metrics[f"s1cf_n{n}_band_spread"] = max(reads) / min(reads)
    return metrics


def fig11_metrics(result):
    totals = result.extras["phase_totals"]

    def rw_ratio(phase):
        return totals[phase]["read_bytes"] / totals[phase]["write_bytes"]

    def bandwidth(phase):
        agg = totals[phase]
        return (agg["read_bytes"] + agg["write_bytes"]) / agg["seconds"]

    timeline = result.extras["timeline"]
    return {
        "s1_ratio_dev": max(abs(rw_ratio(p) - 2.0)
                            for p in ("s1cf", "s1pf")),
        "s2_ratio_dev": max(abs(rw_ratio(p) - 1.0)
                            for p in ("s2cf", "s2pf")),
        "locality_bw_gain": bandwidth("s2cf") / bandwidth("s1cf"),
        "fft_peak_w": max(s.gpu_power_w for s in timeline.phase("fft-y")),
        "resort_peak_w": max(s.gpu_power_w
                             for s in timeline.phase("s2cf")),
    }


def fig12_metrics(result):
    totals = result.extras["phase_totals"]
    power = {name: agg["gpu_energy_j"] / agg["seconds"]
             for name, agg in totals.items()}
    exact = result.extras["exact_energy"]
    energies = result.extras["energies"]
    return {
        "power_vmc_nodrift_w": power["vmc-nodrift"],
        "power_vmc_drift_w": power["vmc-drift"],
        "power_dmc_w": power["dmc"],
        "dmc_net_recv_mb": totals["dmc"]["net_recv_bytes"] / 1e6,
        "vmc_net_recv_mb": (totals["vmc-nodrift"]["net_recv_bytes"]
                            + totals["vmc-drift"]["net_recv_bytes"])
        / 1e6,
        "energy_err": max(abs(energy - exact)
                          for energy in energies.values()),
    }


def table1_metrics(result):
    return {
        "summit_events": len(result.extras["summit_events"]),
        "tellico_events": len(result.extras["tellico_events"]),
        "summit_uncore": int(result.extras["summit_uncore_available"]),
        "tellico_uncore": int(result.extras["tellico_uncore_available"]),
    }


def table2_metrics(result):
    nvml = result.extras["nvml_events"]
    ib = result.extras["ib_events"]
    return {
        "nvml_events": len(nvml),
        "ib_events": len(ib),
        "nvml_power_events": sum(1 for e in nvml if ":power" in e),
        "ib_recv_events": sum(1 for e in ib if "port_recv_data" in e),
    }


def ext_gridshape_metrics(result):
    per = result.extras["per_shape"]
    return {
        "s1cf_ratio_dev": max(abs(data["s1cf_ratio"] - 2.0)
                              for data in per.values()),
        "net_2x4_over_1x8": (per[(2, 4)]["net_bytes"]
                             / per[(1, 8)]["net_bytes"]),
        "net_2x4_over_8x1": (per[(2, 4)]["net_bytes"]
                             / per[(8, 1)]["net_bytes"]),
    }


def ext_power10_metrics(result):
    lo, hi = result.extras["band"]
    batched = result.extras["batched"]
    return {
        "band_lo": lo,
        "band_hi": hi,
        "batched_512_dev": abs(batched[512] - 1.0),
        "batched_720_dev": abs(batched[720] - 1.0),
        "batched_1024_ratio": batched[1024],
        "batched_2048_ratio": batched[2048],
    }


def ext_spmv_metrics(result):
    per_nnz = result.extras["per_nnz"]
    boundary = result.extras["boundary"]
    cached = [v for n, v in per_nnz.items() if n < boundary]
    amplified = [v for n, v in per_nnz.items() if n > boundary]
    return {
        "boundary": boundary,
        "cached_sizes": len(cached),
        "amplified_sizes": len(amplified),
        "cached_dev": max(abs(v - 14.0) for v in cached),
        "amplified_dev": max(abs(v - 78.0) for v in amplified),
    }


def ablation_metrics(result):
    return result.extras["metrics"]


#: experiment id -> (run arguments beyond the seed, extractor)
EXTRACTORS = {
    "ablation-noise": ({}, ablation_metrics),
    "ablation-pcp-overhead": ({}, ablation_metrics),
    "ablation-repetitions": ({}, ablation_metrics),
    "ablation-slices": ({}, ablation_metrics),
    "ablation-store-policy": ({}, ablation_metrics),
    "ext-gridshape": ({"n": 1024}, ext_gridshape_metrics),
    "ext-power10": ({}, ext_power10_metrics),
    "ext-spmv": ({}, ext_spmv_metrics),
    "fig2": ({}, fig2_metrics),
    "fig3": ({}, fig3_metrics),
    "fig4": ({}, fig4_metrics),
    "fig5": ({}, fig5_metrics),
    "fig6": ({}, fig6_metrics),
    "fig7": ({}, fig7_metrics),
    "fig8": ({}, fig8_metrics),
    "fig9": ({}, fig9_metrics),
    "fig10": ({"n_runs": 2}, fig10_metrics),
    "fig11": ({"n": 2016, "slices_per_phase": 3}, fig11_metrics),
    "fig12": ({"n_nodes": 2}, fig12_metrics),
    "table1": ({}, table1_metrics),
    "table2": ({}, table2_metrics),
}


@functools.lru_cache(maxsize=None)
def result_of(experiment_id):
    kwargs, _ = EXTRACTORS[experiment_id]
    return run_experiment(experiment_id, seed=SEED, **kwargs)


def metrics_of(experiment_id):
    _, extract = EXTRACTORS[experiment_id]
    return extract(result_of(experiment_id))


def test_every_experiment_has_frozen_metrics():
    ids = {e.experiment_id for e in all_experiments()}
    assert set(EXTRACTORS) == set(FROZEN) == ids


@pytest.mark.parametrize("experiment_id", sorted(EXTRACTORS))
def test_metrics_match_frozen(experiment_id):
    drift = frozen_drift(metrics_of(experiment_id), FROZEN[experiment_id])
    assert not drift, "\n".join(drift)


def test_drift_rule():
    frozen = {"ratio": 2.0, "read_dev": 0.5, "zero_dev": 0.0, "events": 32}
    exact = {"ratio": 2.0, "read_dev": 0.5, "zero_dev": 0.0, "events": 32}
    assert frozen_drift(exact, frozen) == []
    # A float may differ by formatting noise, relative 1e-9, either way.
    assert frozen_drift(dict(exact, ratio=2.0 * (1 + 5e-10),
                             read_dev=0.5 * (1 - 5e-10)), frozen) == []
    assert frozen_drift(dict(exact, ratio=2.0 * (1 + 2e-9)), frozen) == [
        f"ratio: {2.0 * (1 + 2e-9)!r}, frozen 2.0"]
    # Two-sided: a deviation that shrinks has moved too.
    assert frozen_drift(dict(exact, read_dev=0.49), frozen) == [
        "read_dev: 0.49, frozen 0.5"]
    assert frozen_drift(dict(exact, zero_dev=1e-12), frozen) == [
        "zero_dev: 1e-12, frozen 0.0"]
    # Integers compare exactly.
    assert frozen_drift(dict(exact, events=33), frozen) == [
        "events: 33, frozen 32"]
    assert frozen_drift({"read_dev": 0.5, "zero_dev": 0.0, "events": 32},
                        frozen) == ["ratio: missing"]


# ------------------------------------------------------------- shape claims


def test_fig2_shape():
    """Noise floor at the small end and divergence at the large end,
    on both measurement paths."""
    result = result_of("fig2")
    metrics = metrics_of("fig2")
    for rows in (result.extras["summit"], result.extras["tellico"]):
        by_n = {r[0]: r for r in rows}
        assert abs(by_n[min(by_n)][7] - 1.0) > 0.5
        assert by_n[max(by_n)][7] > 1.5
    assert metrics["summit_noise_floor"] > 0.5
    assert metrics["tellico_large_n_ratio"] > 1.5


def test_fig3_shape():
    """(a) Repetitions clean up small sizes; single-thread divergence
    is gradual inside the 110 MB budget. (b) Batched runs are clean
    below the boundary and jump drastically above it."""
    result = result_of("fig3")
    metrics = metrics_of("fig3")
    single = {r[0]: r[7] for r in result.extras["single"]}
    batched = {r[0]: r[7] for r in result.extras["batched"]}
    sizes = sorted(single)
    below = [n for n in sizes if n <= 720]
    inside = [n for n in sizes if 720 <= n <= 2048]
    assert metrics["single_small_dev"] < 1.5
    assert all(single[n] > 1.2 for n in inside[1:])
    assert metrics["single_max_step"] < 10
    assert all(abs(batched[n] - 1.0) < 0.1 for n in below[2:])
    assert metrics["batched_below_dev"] < 0.1
    assert metrics["batched_above_min"] > 50


def test_fig4_shape():
    """The Fig 3 shape without PCP in the loop."""
    result = result_of("fig4")
    metrics = metrics_of("fig4")
    batched = {r[0]: r[7] for r in result.extras["batched"]}
    small = [n for n in sorted(batched) if n <= 640]
    assert all(abs(batched[n] - 1.0) < 0.12 for n in small[2:])
    assert metrics["batched_small_dev"] < 0.12
    assert metrics["batched_large_min"] > 50
    assert metrics["single_large_max"] > 1.5


def test_fig5_shape():
    """Reads match throughout; writes settle only past M ~ 1e4; the
    square-to-capped transition sits at exactly M = 1280."""
    result = result_of("fig5")
    metrics = metrics_of("fig5")
    for panel in ("summit", "tellico"):
        by_m = {r[0]: r for r in result.extras[panel]}
        for m, row in by_m.items():
            assert row[8] == pytest.approx(1.0, abs=0.35), (panel, m)
        assert metrics[f"{panel}_read_dev"] < 0.35
        assert metrics[f"{panel}_write_small_min"] > 1.5
        assert metrics[f"{panel}_write_tail_excess"] < 0.25
        assert by_m[1280][2] == "square"
        first_above = min(m for m in by_m if m > 1280)
        assert by_m[first_above][2] == "capped"


def test_fig6_shape():
    """~1 read per element without flags, ~2 with the prefetch flag."""
    result = result_of("fig6")
    metrics = metrics_of("fig6")
    plain = {r[0]: r for r in result.extras["plain"]}
    flagged = {r[0]: r for r in result.extras["prefetch"]}
    for n in [n for n in plain if n >= 768]:
        assert plain[n][2] == pytest.approx(1.0, abs=0.15), n
        assert plain[n][4] == pytest.approx(1.0, abs=0.15), n
        assert flagged[n][2] == pytest.approx(2.0, abs=0.25), n
        assert flagged[n][4] == pytest.approx(1.0, abs=0.15), n
    assert metrics["plain_read_dev"] < 0.15
    assert metrics["flagged_read_dev"] < 0.25


def test_fig7_shape():
    """Reads ramp from 2 to 5 per element across Eq. 7's boundary,
    writes stay at 1, and the flag more than doubles the bandwidth."""
    result = result_of("fig7")
    metrics = metrics_of("fig7")
    plain = {r[0]: r for r in result.extras["plain"]}
    flagged = {r[0]: r for r in result.extras["prefetch"]}
    for n in [n for n in plain if 384 <= n <= 640]:
        assert plain[n][2] == pytest.approx(2.0, abs=0.4), n
    for n in [n for n in plain if n >= 896]:
        assert plain[n][2] == pytest.approx(5.0, abs=0.4), n
        assert plain[n][4] == pytest.approx(1.0, abs=0.15), n
        assert flagged[n][8] > 2 * plain[n][8], n
    assert metrics["below_read_dev"] < 0.4
    assert metrics["flag_speedup_min"] > 2.0


def test_fig8_shape():
    """Two reads and one write per element at every stable size."""
    metrics = metrics_of("fig8")
    for row in result_of("fig8").extras["plain"]:
        if row[0] >= 512:  # the smallest sizes are noise-dominated
            assert row[2] == pytest.approx(2.0, abs=0.25), row[0]
            assert row[4] == pytest.approx(1.0, abs=0.15), row[0]
    assert metrics["read_dev"] < 0.25
    assert metrics["write_dev"] < 0.15


def test_fig9_shape():
    """1 read : 1 write without flags, 2 : 1 with the prefetch flag."""
    result = result_of("fig9")
    metrics = metrics_of("fig9")
    plain = {r[0]: r for r in result.extras["plain"]}
    flagged = {r[0]: r for r in result.extras["prefetch"]}
    for n in FIG9_SIZES:
        assert plain[n][2] == pytest.approx(1.0, abs=0.15), n
        assert plain[n][4] == pytest.approx(1.0, abs=0.15), n
        assert flagged[n][2] == pytest.approx(2.0, abs=0.25), n
    assert metrics["plain_read_dev"] < 0.15
    assert metrics["flagged_read_dev"] < 0.25


def test_fig10_shape():
    """2:1 in S1CF and 1:1 in S2CF at both sizes, with min/max bands
    within 20% across ranks and runs."""
    per = result_of("fig10").extras["per_routine"]
    metrics = metrics_of("fig10")
    for n in (1344, 2016):
        assert per["s1cf"][n]["ratio"] == pytest.approx(2.0, abs=0.1)
        assert per["s2cf"][n]["ratio"] == pytest.approx(1.0, abs=0.1)
        reads = per["s1cf"][n]["reads"]
        assert max(reads) < 1.2 * min(reads)
        assert metrics[f"s1cf_n{n}_band_spread"] < 1.2


def test_fig11_shape():
    """Every phase of the N=2016 rank has its own signature, and each
    FFT's power spike sits between an H2D read and a D2H write burst."""
    result = result_of("fig11")
    metrics = metrics_of("fig11")
    totals = result.extras["phase_totals"]
    for phase in ("s1cf", "s1pf"):
        ratio = totals[phase]["read_bytes"] / totals[phase]["write_bytes"]
        assert ratio == pytest.approx(2.0, abs=0.2), phase
    for phase in ("s2cf", "s2pf"):
        ratio = totals[phase]["read_bytes"] / totals[phase]["write_bytes"]
        assert ratio == pytest.approx(1.0, abs=0.2), phase
    assert metrics["s1_ratio_dev"] < 0.2
    assert metrics["s2_ratio_dev"] < 0.2
    assert metrics["locality_bw_gain"] > 1.0
    for name, agg in totals.items():
        if name.startswith("all2all"):
            assert agg["net_recv_bytes"] > 0, name
        else:
            assert agg["net_recv_bytes"] == 0, name
    assert metrics["fft_peak_w"] > 250
    assert metrics["resort_peak_w"] < 50
    h2d, kernel, d2h = result.extras["timeline"].phase("fft-z")[:3]
    assert h2d.mem_read_rate > 10 * h2d.mem_write_rate
    assert kernel.gpu_power_w > 250
    assert d2h.mem_write_rate > 10 * d2h.mem_read_rate


def test_fig12_shape():
    """Rising GPU power across the stages, network traffic only in
    DMC, and every stage near the exact energy."""
    result = result_of("fig12")
    metrics = metrics_of("fig12")
    assert (metrics["power_vmc_nodrift_w"]
            < metrics["power_vmc_drift_w"]
            < metrics["power_dmc_w"])
    assert metrics["dmc_net_recv_mb"] > 0
    assert metrics["vmc_net_recv_mb"] == 0
    exact = result.extras["exact_energy"]
    for phase, energy in result.extras["energies"].items():
        assert energy == pytest.approx(exact, abs=0.2), phase
    assert metrics["energy_err"] < 0.2


def test_table1_shape():
    result = result_of("table1")
    assert len(result.extras["summit_events"]) == 32
    assert len(result.extras["tellico_events"]) == 32


def test_table2_shape():
    metrics = metrics_of("table2")
    assert metrics["nvml_power_events"] >= 1
    assert metrics["ib_recv_events"] >= 1


def test_ext_power10_shape():
    """Clean below the 8 MB boundary, a drastic jump past it."""
    metrics = metrics_of("ext-power10")
    assert metrics["batched_512_dev"] < 0.05
    assert metrics["batched_720_dev"] < 0.05
    assert metrics["batched_1024_ratio"] > 50
    assert metrics["batched_2048_ratio"] > 100


def test_ext_spmv_shape():
    """~14 B per non-zero while x fits, one more 64 B granule past."""
    result = result_of("ext-spmv")
    metrics = metrics_of("ext-spmv")
    per_nnz = result.extras["per_nnz"]
    boundary = result.extras["boundary"]
    cached = [v for n, v in per_nnz.items() if n < boundary]
    amplified = [v for n, v in per_nnz.items() if n > boundary]
    assert cached and amplified
    for v in cached:
        assert v == pytest.approx(14.0, abs=2.0)
    for v in amplified:
        assert v == pytest.approx(14.0 + 64.0, abs=4.0)
    assert metrics["cached_dev"] < 2.0
    assert metrics["amplified_dev"] < 4.0


def test_ext_gridshape_shape():
    """The 2:1 S1CF signature holds on every grid at N=1024."""
    per = result_of("ext-gridshape").extras["per_shape"]
    metrics = metrics_of("ext-gridshape")
    for shape, data in per.items():
        assert data["s1cf_ratio"] == pytest.approx(2.0, abs=0.1), shape
    assert metrics["s1cf_ratio_dev"] < 0.1
    assert metrics["net_2x4_over_1x8"] > 1.0
    assert metrics["net_2x4_over_8x1"] > 1.0


def test_ablation_noise_shape():
    """The Fig 2 floor is a window effect; the Fig 5 write excess a
    per-repetition one."""
    metrics = metrics_of("ablation-noise")
    assert metrics["fig2_full_ratio"] > 3.0
    assert metrics["fig2_no_window_ratio"] < 2.5
    assert metrics["fig5_full_write_ratio"] > 2.0
    assert metrics["fig5_no_per_rep_write_dev"] == pytest.approx(
        0.0, abs=0.15)


def test_ablation_repetitions_shape():
    """Eq. 5 beats one repetition, is within noise of a fixed 500, and
    min-of-runs also suppresses the additive floor."""
    metrics = metrics_of("ablation-repetitions")
    for n in (96, 176, 256):
        assert metrics[f"n{n}_eq5_err"] < metrics[f"n{n}_one_rep_err"]
        assert (metrics[f"n{n}_eq5_err"]
                < metrics[f"n{n}_fixed_err"] + 0.05)
        assert (metrics[f"n{n}_min_runs_err"]
                < metrics[f"n{n}_one_rep_err"])


def test_ablation_slices_shape():
    """Re-appropriation keeps the divergence gradual; confinement to
    5 MB would jump drastically past N ~ 809."""
    metrics = metrics_of("ablation-slices")
    assert metrics["n512_confined_ratio"] == pytest.approx(1.0, abs=0.1)
    assert metrics["n512_reappropriated_ratio"] < 2.0
    for n in (1024, 1456):
        assert metrics[f"n{n}_reappropriated_ratio"] < 10
        assert metrics[f"n{n}_confined_ratio"] > 50


def test_ablation_store_policy_shape():
    """The bypass model matches the paper; without the bypass the
    model reads one element more and matches the flagged runs."""
    metrics = metrics_of("ablation-store-policy")
    for routine, observed in OBSERVED.items():
        assert metrics[f"{routine}_policy_read_dev"] < 0.05
        assert metrics[f"{routine}_no_bypass_reads"] == pytest.approx(
            observed + 1.0, abs=0.05)
        assert metrics[f"{routine}_no_bypass_reads"] == pytest.approx(
            OBSERVED_WITH_FLAG[routine], abs=0.05)


def test_ablation_pcp_overhead_shape():
    """From millisecond-scale kernels up, PCP and direct reads agree."""
    metrics = metrics_of("ablation-pcp-overhead")
    assert metrics["n1024_pcp_gap"] < 0.05
    assert metrics["n256_pcp_gap"] < 0.10
