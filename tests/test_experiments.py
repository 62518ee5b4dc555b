"""Experiment registry and the qualitative claims of every reproduction.

These are the integration tests that pin the *shape* of each table and
figure: who wins, by what factor, where crossovers fall. Small sweeps
keep them fast; the full sweeps run in tests/test_experiment_metrics.py.
"""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import all_experiments, get_experiment, run_experiment

SEED = 20230613


PAPER_ITEMS = {"table1", "table2", "fig2", "fig3", "fig4", "fig5",
               "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12"}


class TestRegistry:
    def test_every_paper_item_registered(self):
        ids = {e.experiment_id for e in all_experiments()}
        assert PAPER_ITEMS <= ids
        # Anything beyond the paper must be clearly marked an extension
        # or an ablation.
        assert all(extra.startswith(("ext-", "ablation-"))
                   for extra in ids - PAPER_ITEMS)

    def test_unknown_experiment(self):
        with pytest.raises(ConfigurationError):
            get_experiment("fig99")

    def test_render_smoke(self):
        result = run_experiment("table1", seed=SEED)
        text = result.render()
        assert "Summit" in text and "Tellico" in text


class TestTable1:
    def test_event_spellings(self):
        result = run_experiment("table1", seed=SEED)
        summit = result.extras["summit_events"]
        tellico = result.extras["tellico_events"]
        assert ("pcp:::perfevent.hwcounters.nest_mba0_imc."
                "PM_MBA0_READ_BYTES.value:cpu87") in summit
        assert ("pcp:::perfevent.hwcounters.nest_mba7_imc."
                "PM_MBA7_WRITE_BYTES.value:cpu175") in summit
        assert "power9_nest_mba0::PM_MBA0_READ_BYTES:cpu=0" in tellico

    def test_privilege_asymmetry(self):
        result = run_experiment("table1", seed=SEED)
        assert not result.extras["summit_uncore_available"]
        assert result.extras["tellico_uncore_available"]


class TestTable2:
    def test_supplemental_events(self):
        result = run_experiment("table2", seed=SEED)
        assert any("Tesla_V100" in e and ":power" in e
                   for e in result.extras["nvml_events"])
        assert "infiniband:::mlx5_0_1_ext:port_recv_data" in \
            result.extras["ib_events"]
        assert "infiniband:::mlx5_1_1_ext:port_recv_data" in \
            result.extras["ib_events"]


SMALL = (64, 256, 720, 1024, 2048)


class TestFig2:
    def test_single_rep_noisy_small_and_divergent_large(self):
        result = run_experiment("fig2", sizes=SMALL, seed=SEED)
        for rows in (result.extras["summit"], result.extras["tellico"]):
            by_n = {r[0]: r for r in rows}
            # Small problems: measured read is way off expectation.
            assert abs(by_n[64][7] - 1.0) > 0.5
            # Large problems (cached, single thread): diverges upward.
            assert by_n[2048][7] > 1.5

    def test_pcp_and_direct_agree_qualitatively(self):
        result = run_experiment("fig2", sizes=SMALL, seed=SEED)
        summit = {r[0]: r[7] for r in result.extras["summit"]}
        tellico = {r[0]: r[7] for r in result.extras["tellico"]}
        # Both paths diverge in the same direction at every size.
        for n in (1024, 2048):
            assert summit[n] > 1.3 and tellico[n] > 1.3


class TestFig3:
    def test_repetitions_clean_up_small_sizes(self):
        fig2 = run_experiment("fig2", sizes=(64, 256), seed=SEED)
        fig3 = run_experiment("fig3", sizes=(64, 256), seed=SEED)
        noisy = {r[0]: abs(r[7] - 1) for r in fig2.extras["summit"]}
        clean = {r[0]: abs(r[7] - 1) for r in fig3.extras["single"]}
        assert clean[64] < noisy[64]

    def test_batched_matches_then_jumps(self):
        result = run_experiment("fig3", sizes=(256, 720, 1024, 2048),
                                seed=SEED)
        batched = {r[0]: r[7] for r in result.extras["batched"]}
        # Below the 5 MB per-core boundary (N<809): matches.
        assert batched[256] == pytest.approx(1.0, abs=0.05)
        assert batched[720] == pytest.approx(1.0, abs=0.05)
        # Past it: "jumps drastically".
        assert batched[1024] > 50
        assert batched[2048] > 100

    def test_single_thread_no_jump_at_809(self):
        result = run_experiment("fig3", sizes=(720, 1024), seed=SEED)
        single = {r[0]: r[7] for r in result.extras["single"]}
        # Gradual (same order of magnitude), unlike the batched jump.
        assert single[1024] < 10 * single[720]


class TestFig4:
    def test_direct_path_same_shape_as_pcp(self):
        fig3 = run_experiment("fig3", sizes=(256, 2048), seed=SEED)
        fig4 = run_experiment("fig4", sizes=(256, 2048), seed=SEED)
        for key in ("single", "batched"):
            a = {r[0]: r[7] for r in fig3.extras[key]}
            b = {r[0]: r[7] for r in fig4.extras[key]}
            assert (a[256] > 2) == (b[256] > 2)
            assert (a[2048] > 2) == (b[2048] > 2)


class TestFig5:
    SIZES = (512, 1280, 4096, 16384, 262144)

    def test_reads_track_expectation_everywhere(self):
        result = run_experiment("fig5", sizes=self.SIZES, seed=SEED)
        for rows in (result.extras["summit"], result.extras["tellico"]):
            for row in rows:
                assert row[8] == pytest.approx(1.0, abs=0.35)

    def test_writes_converge_only_past_1e4(self):
        result = run_experiment("fig5", sizes=self.SIZES, seed=SEED)
        for rows in (result.extras["summit"], result.extras["tellico"]):
            by_m = {r[0]: r[9] for r in rows}
            assert by_m[512] > 1.5          # extraneous writes
            assert by_m[262144] < 1.25      # settled

    def test_regime_transition_at_1280(self):
        result = run_experiment("fig5", sizes=self.SIZES, seed=SEED)
        regimes = {r[0]: r[2] for r in result.extras["summit"]}
        assert regimes[1280] == "square"
        assert regimes[4096] == "capped"


RESORT_SIZES = (256, 512, 1024)


class TestFig6:
    def test_bypass_vs_prefetch(self):
        result = run_experiment("fig6", sizes=RESORT_SIZES, seed=SEED)
        plain = {r[0]: r for r in result.extras["plain"]}
        flagged = {r[0]: r for r in result.extras["prefetch"]}
        # At the stable size: ~1 read/elem plain, ~2 with dcbtst.
        assert plain[1024][2] == pytest.approx(1.0, abs=0.1)
        assert flagged[1024][2] == pytest.approx(2.0, abs=0.15)


class TestFig7:
    def test_ramp_to_five_reads(self):
        result = run_experiment("fig7", sizes=(512, 1024), seed=SEED)
        plain = {r[0]: r for r in result.extras["plain"]}
        assert plain[512][2] == pytest.approx(2.0, abs=0.2)
        assert plain[1024][2] == pytest.approx(5.0, abs=0.3)
        assert result.extras["eq7_boundary"] == pytest.approx(724, abs=1)

    def test_prefetch_improves_bandwidth(self):
        result = run_experiment("fig7", sizes=(1024,), seed=SEED)
        plain_bw = result.extras["plain"][0][8]
        flagged_bw = result.extras["prefetch"][0][8]
        assert flagged_bw > 2 * plain_bw


class TestFig8:
    def test_two_reads_one_write_at_all_sizes(self):
        result = run_experiment("fig8", sizes=RESORT_SIZES, seed=SEED)
        for row in result.extras["plain"]:
            if row[0] >= 512:  # skip the noisy smallest size
                assert row[2] == pytest.approx(2.0, abs=0.2)
                assert row[4] == pytest.approx(1.0, abs=0.15)


class TestFig9:
    def test_one_to_one_vs_two_to_one(self):
        result = run_experiment("fig9", sizes=(1024,), seed=SEED)
        assert result.extras["plain"][0][2] == pytest.approx(1.0, abs=0.1)
        assert result.extras["prefetch"][0][2] == pytest.approx(2.0,
                                                                abs=0.15)


class TestFig10:
    def test_ratios_at_scale(self):
        result = run_experiment("fig10", sizes=(1344,), n_runs=2, seed=SEED)
        per = result.extras["per_routine"]
        assert per["s1cf"][1344]["ratio"] == pytest.approx(2.0, abs=0.1)
        assert per["s2cf"][1344]["ratio"] == pytest.approx(1.0, abs=0.1)


class TestFig11:
    def test_phase_signatures(self):
        result = run_experiment("fig11", n=512, slices_per_phase=2,
                                seed=SEED)
        totals = result.extras["phase_totals"]
        # Resort ratios.
        s1 = totals["s1cf"]
        s2 = totals["s2cf"]
        assert s1["read_bytes"] / s1["write_bytes"] == pytest.approx(
            2.0, abs=0.2)
        assert s2["read_bytes"] / s2["write_bytes"] == pytest.approx(
            1.0, abs=0.2)
        # Network activity only in the All2All phases.
        for name, agg in totals.items():
            if name.startswith("all2all"):
                assert agg["net_recv_bytes"] > 0
            else:
                assert agg["net_recv_bytes"] == 0
        # GPU energy concentrated in the FFT phases.
        fft_power = totals["fft-z"]["gpu_energy_j"] / totals["fft-z"]["seconds"]
        resort_power = totals["s1cf"]["gpu_energy_j"] / totals["s1cf"]["seconds"]
        assert fft_power > resort_power

    def test_gpu_spike_between_read_and_write_bursts(self):
        result = run_experiment("fig11", n=512, slices_per_phase=1,
                                seed=SEED)
        timeline = result.extras["timeline"]
        fft_samples = timeline.phase("fft-z")
        assert len(fft_samples) == 3  # H2D, kernel, D2H
        h2d, kernel, d2h = fft_samples
        assert h2d.mem_read_rate > 10 * h2d.mem_write_rate
        assert kernel.gpu_power_w > 250
        assert d2h.mem_write_rate > 10 * d2h.mem_read_rate


class TestFig12:
    def test_phases_distinguishable(self):
        result = run_experiment("fig12", n_nodes=1, seed=SEED)
        totals = result.extras["phase_totals"]
        power = {name: agg["gpu_energy_j"] / agg["seconds"]
                 for name, agg in totals.items()}
        assert power["vmc-nodrift"] < power["vmc-drift"] < power["dmc"]

    def test_physics_sane(self):
        result = run_experiment("fig12", n_nodes=1, seed=SEED)
        energies = result.extras["energies"]
        exact = result.extras["exact_energy"]
        for phase, energy in energies.items():
            assert energy == pytest.approx(exact, abs=0.2), phase
