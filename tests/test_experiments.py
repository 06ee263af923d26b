"""Experiment registry: every paper artifact reproduces with the right shape."""

import pytest

from repro.calibration import PAPER
from repro.errors import ConfigError
from repro.experiments import EXPERIMENTS, Lab, get_experiment, run_experiment
from repro.fingerprint import ContentMemo
from repro.pipelines import base, science
from repro.service.http import result_digest
from repro.workloads.fio import FioRunner


@pytest.fixture(scope="module")
def lab() -> Lab:
    return Lab(seed=2015)


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        expected = {
            "table1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
            "fig10", "fig11", "table2", "sec5c", "table3", "sec5d",
        }
        assert expected <= set(EXPERIMENTS)

    def test_extensions_registered(self):
        assert {"ext-devices", "ext-multinode", "ext-advisor"} <= set(EXPERIMENTS)

    def test_unknown_id_rejected(self):
        with pytest.raises(ConfigError):
            get_experiment("fig99")

    def test_result_has_text_and_data(self, lab):
        result = run_experiment("table1", lab)
        assert result.id == "table1"
        assert "Xeon" in result.text
        assert result.data["CPU"] == "2x Intel Xeon E5-2665"


class TestFigureShapes:
    """Each reproduced artifact must carry the paper's qualitative result."""

    def test_fig4_shares(self, lab):
        shares = run_experiment("fig4", lab).data
        for case, expected in PAPER["fig4_shares"].items():
            for stage, frac in expected.items():
                assert shares[case][stage] == pytest.approx(frac, abs=0.012)

    def test_fig5_has_six_panels(self, lab):
        profiles = run_experiment("fig5", lab).data
        assert len(profiles) == 6
        post1 = profiles[("post-processing", 1)]
        # Two distinct power phases in post-processing (Sec V.A).
        phases = post1.phase_average()
        assert phases["simulate+write"] > phases["read+visualize"] + 5

    def test_fig5_insitu_flat(self, lab):
        profiles = run_experiment("fig5", lab).data
        insitu1 = profiles[("in-situ", 1)]
        assert len(insitu1.phase_average()) == 1

    def test_fig6_stage_powers(self, lab):
        profiles = run_experiment("fig6", lab).data
        assert profiles["nnwrite"].average() == pytest.approx(114.8, abs=1.0)
        assert profiles["nnread"].average() == pytest.approx(115.1, abs=1.0)

    def test_fig7_insitu_always_faster(self, lab):
        rows = run_experiment("fig7", lab).data
        for r in rows:
            assert r.time_insitu_s < r.time_post_s
        # Benefit shrinks as I/O cadence drops.
        reductions = [r.time_reduction_pct for r in rows]
        assert reductions == sorted(reductions, reverse=True)

    def test_fig8_insitu_power_higher(self, lab):
        rows = run_experiment("fig8", lab).data
        for r in rows:
            assert 0 < r.avg_power_increase_pct < 12

    def test_fig9_peak_similar(self, lab):
        rows = run_experiment("fig9", lab).data
        for r in rows:
            assert abs(r.peak_power_delta_pct) < 4

    def test_fig10_savings_match_paper(self, lab):
        rows = run_experiment("fig10", lab).data
        by_case = {r.case_index: r.energy_savings_pct for r in rows}
        assert by_case[1] == pytest.approx(43, abs=2)
        assert by_case[2] == pytest.approx(30, abs=2.5)
        # Case 3: the paper prints 18 %; its own Figs 8+10 imply ~12 %
        # (see EXPERIMENTS.md) — we assert the consistent value.
        assert by_case[3] == pytest.approx(12, abs=2.5)
        # Monotone decline with decreasing I/O share.
        assert by_case[1] > by_case[2] > by_case[3]

    def test_fig11_efficiency_ordering(self, lab):
        norm = run_experiment("fig11", lab).data
        for post_eff, insitu_eff in norm.values():
            assert insitu_eff > post_eff
        assert max(v for pair in norm.values() for v in pair) == pytest.approx(1.0)

    def test_table2(self, lab):
        table = run_experiment("table2", lab).data
        t2 = PAPER["table2"]
        assert table["nnread"].avg_total_w == pytest.approx(
            t2["nnread"]["total_w"], abs=1.0)
        assert table["nnwrite"].avg_total_w == pytest.approx(
            t2["nnwrite"]["total_w"], abs=1.0)
        assert table["nnread"].avg_dynamic_w == pytest.approx(
            t2["nnread"]["dynamic_w"], abs=1.0)

    def test_sec5c_static_dominates(self, lab):
        analyses = run_experiment("sec5c", lab).data
        b = analyses[1].breakdown
        assert b.static_fraction == pytest.approx(0.91, abs=0.03)

    def test_table3_who_wins(self, lab):
        results = run_experiment("table3", lab).data
        assert results["rand_read"].elapsed_s > 50 * results["seq_read"].elapsed_s
        assert results["rand_write"].elapsed_s == pytest.approx(31.0, rel=0.03)

    def test_sec5d_headline(self, lab):
        report = run_experiment("sec5d", lab).data
        assert report.random_io_energy_j == pytest.approx(242_200, rel=0.03)
        assert report.sequential_io_energy_j == pytest.approx(7_300, rel=0.06)

    def test_ext_devices_gap_collapses(self, lab):
        data = run_experiment("ext-devices", lab).data
        assert data["hdd"]["rand_seq_energy_ratio"] > 20
        assert data["ssd"]["rand_seq_energy_ratio"] < 5
        assert data["nvram"]["rand_seq_energy_ratio"] < 2

    def test_ext_multinode_total_energy(self, lab):
        data = run_experiment("ext-multinode", lab).data
        # Two nodes must cost more than the in-transit compute node alone.
        assert data["total_energy_j"] > data["intransit"].energy_j

    def test_ext_advisor_decisions(self, lab):
        from repro.runtime import Technique

        data = run_experiment("ext-advisor", lab).data
        decisions = {name: rec.technique for name, rec in data.items()}
        assert decisions["batch, random I/O, no exploration"] is Technique.IN_SITU
        assert decisions["random I/O, exploration needed"] is Technique.DATA_REORGANIZATION


class TestReuse:
    """Shared caches and memos change how much runs, never the bytes."""

    def test_ext_devices_reads_table3_hdd_runs(self, monkeypatch):
        lab = Lab(seed=2015)
        table3 = lab.fio()
        calls = []
        run = FioRunner.run

        def counting(self, job):
            calls.append(job.name)
            return run(self, job)

        monkeypatch.setattr(FioRunner, "run", counting)
        hdd = run_experiment("ext-devices", lab).data["hdd"]
        assert len(calls) == 6
        seq, rand = table3["seq_read"], table3["rand_read"]
        assert (hdd["seq_read_s"], hdd["rand_read_s"]) == (seq.elapsed_s,
                                                           rand.elapsed_s)
        assert hdd["seq_read_kj"] == seq.system_energy_j / 1000
        assert hdd["rand_read_kj"] == rand.system_energy_j / 1000

    def test_caches_never_change_bytes(self, monkeypatch):
        def digests():
            lab = Lab(seed=2015)
            return [result_digest(fn(lab)) for fn in EXPERIMENTS.values()]

        first = digests()
        second = digests()
        monkeypatch.setattr(science, "_CACHE", science.ScienceCache())
        monkeypatch.setattr(base, "_FRAME_CACHE", ContentMemo(max_entries=256))
        cold = digests()
        assert first and first == second == cold
