"""Smoke + shape tests for the experiment drivers (small scales)."""

import numpy as np
import pytest

from repro.analysis.metrics import EpisodeScore, EpisodeTruth
from repro.analysis.report import Series, Table
from repro.campaign import execute
from repro.core.ild import NaiveBayesBaseline
from repro.experiments import (
    CAMPAIGNS,
    fig05_current_correlation,
    fig10_misdetection,
    fig13_replication_sweep,
    table2_ild_accuracy,
    table4_protected_area,
    table5_workloads,
    table8_dev_overhead,
    run_experiment,
)
from repro.experiments.common import (
    SelBenchConfig,
    SelTestbench,
    run_schemes,
    summarize,
)
from repro.workloads import AesWorkload


@pytest.fixture(scope="module")
def small_bench():
    return SelTestbench(
        SelBenchConfig(
            tick=8e-3,
            episode_seconds=420.0,
            n_episodes=3,
            training_seconds=700.0,
            onset_window=(0.4, 0.7),
        )
    )


def _report(entry):
    return run_experiment(entry)[1]


class TestRegistry:
    def test_all_experiments_registered(self):
        paper = {
            "fig1", "fig2", "fig5", "fig10", "fig11", "fig12", "fig13",
            "fig14", "table2", "table3", "table4", "table5", "table6",
            "table7", "table8", "hmr_frontier",
        }
        ablations = {
            "scheduling_order", "rolling_window", "bubble_cadence",
            "redundancy_level",
        }
        extensions = {
            "checksum_comparison", "physics_rates", "flightsw_ild",
            "feature_selection", "mission_survival", "adaptive_table7",
        }
        assert set(CAMPAIGNS) == (
            paper
            | {f"ablation:{name}" for name in ablations}
            | {f"extension:{name}" for name in extensions}
        )

    def test_cheap_drivers_return_renderables(self):
        for name in ("fig1", "table4", "table5", "table8"):
            result = _report(CAMPAIGNS[name]())
            assert isinstance(result, (Table, Series))
            assert result.render()


class TestSelTestbench:
    def test_training_trace_has_quiescence_and_bursts(self, small_bench):
        trace = small_bench.training_trace()
        assert 0.4 < trace.quiescent_truth.mean() < 0.999
        assert trace.n_ticks == pytest.approx(
            small_bench.config.training_seconds / small_bench.config.tick, rel=0.02
        )

    def test_episode_truth(self, small_bench):
        rng = np.random.default_rng(0)
        trace, truth = small_bench.episode(rng)
        assert truth.sel_onset is not None
        low, high = small_bench.config.onset_window
        assert low * truth.duration <= truth.sel_onset <= high * truth.duration
        onset_tick = int(truth.sel_onset / small_bench.config.tick)
        assert trace.sel_delta[onset_tick + 2] == pytest.approx(0.07)

    def test_clean_episode(self, small_bench):
        rng = np.random.default_rng(1)
        trace, truth = small_bench.episode(rng, with_sel=False)
        assert truth.sel_onset is None
        assert trace.sel_delta.sum() == 0

    def test_ild_beats_baselines_on_small_run(self, small_bench):
        detectors = {
            "ILD": small_bench.train_ild(),
            "RF": small_bench.train_random_forest(),
        }
        values = execute(small_bench.campaign(detectors, n_episodes=3)).values
        summaries = summarize(values, detectors)
        assert summaries["ILD"].false_negative_rate == 0.0
        assert summaries["ILD"].false_positive_rate <= 0.01
        # With only 3 short episodes the RF baseline may get lucky; the
        # full separation is asserted in bench_table2. Here it must at
        # least never beat ILD.
        assert (
            summaries["RF"].false_positive_rate
            >= summaries["ILD"].false_positive_rate
        )
        assert (
            summaries["RF"].false_negative_rate
            >= summaries["ILD"].false_negative_rate
        )

    def test_naive_bayes_baseline_trains(self, small_bench):
        rng = np.random.default_rng(2)
        nominal = rng.normal(1.7, 0.02, 2000)
        baseline = NaiveBayesBaseline()
        baseline.train(nominal, nominal + small_bench.config.sel_delta_amps)
        trace, _ = small_bench.episode(rng, with_sel=False)
        baseline.process(trace)  # must not crash; alarms allowed

    def test_static_baselines_named_by_threshold(self, small_bench):
        statics = small_bench.static_baselines()
        assert len(statics) == 3
        for name, baseline in statics.items():
            assert f"{baseline.threshold_amps:.2f}" in name


class TestRunSchemes:
    def test_triplet_consistent(self):
        workload = AesWorkload(chunk_bytes=64, chunks=9)
        runs = run_schemes(workload, replication_threshold=0.5)
        assert runs.emr.outputs == runs.sequential.outputs == runs.unprotected.outputs
        assert runs.sequential_relative > runs.emr_relative >= 0.95


class TestDriverShapes:
    def test_fig5_high_correlation(self):
        figure = _report(fig05_current_correlation.campaign(step_duration=1.0))
        assert float(figure.notes.split("=")[1].split("%")[0]) > 95.0

    def test_fig10_monotone_tail(self):
        figure = _report(fig10_misdetection.campaign(
            deltas=np.array([0.01, 0.07]),
            trials_per_delta=2,
            config=SelBenchConfig(tick=8e-3, n_episodes=1, training_seconds=600.0),
        ))
        _, rates = figure.series["false_negative_rate"]
        assert rates[0] == 1.0 and rates[1] == 0.0

    def test_table2_small(self):
        table = _report(table2_ild_accuracy.campaign(
            SelBenchConfig(
                tick=8e-3, episode_seconds=420.0, n_episodes=2,
                training_seconds=700.0,
            )
        ))
        assert table.rows[0][1] == "0.0%"  # ILD FN

    def test_table2_note_without_ild_detections(self):
        """An ILD that never fires still reports the episode count and
        simulated hours; only the latency clause changes."""
        config = SelBenchConfig(episode_seconds=900.0, n_episodes=4)
        missed = EpisodeScore(
            truth=EpisodeTruth(duration=900.0, sel_onset=400.0,
                               sel_delta_amps=0.07),
            detected=False, detection_latency=None, false_alarms=0,
            pre_onset_alarm_ticks=0, pre_onset_ticks=100_000,
        )
        values = [[("ILD", missed)] for _ in range(config.n_episodes)]
        table = table2_ild_accuracy.build_table(
            summarize(values, ["ILD"]), config
        )
        assert table.rows[0][1] == "100.0%"
        assert table.notes == (
            "4 episodes (1.0 h simulated), SEL +0.07 A per episode; "
            "no ILD detections"
        )

    def test_table4_values(self):
        table = _report(table4_protected_area.campaign())
        assert table.column("Relative Area Protected") == ["0%", "75%", "100%", "100%"]

    def test_table5_all_match(self):
        table = _report(table5_workloads.campaign())
        assert all(m == "yes" for m in table.column("Match"))

    def test_table8_single_digit(self):
        table = _report(table8_dev_overhead.campaign())
        assert all(1 <= c <= 12 for c in table.column("Net line change"))

    def test_fig13_distinct_thresholds(self):
        thresholds = fig13_replication_sweep.distinct_thresholds(
            AesWorkload(chunk_bytes=64, chunks=10)
        )
        assert thresholds[0] == 1.5
        assert len(thresholds) == 3  # none / key-only / everything
