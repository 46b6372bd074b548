"""The adaptive sampler: features, HT estimator, and the closed loop.

The statistical property under test is *unbiasedness despite bias*:
the sampler deliberately skews where strikes land (importance
sampling toward predicted-sensitive cells), and the Horvitz–Thompson
weights must exactly cancel that skew so the SDC-rate estimate still
targets the uniform flux-weighted rate. The smoke surface makes this
checkable: its true rate is known in closed form.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.adaptive import (
    AdaptiveConfig,
    AdaptiveSource,
    FEATURE_NAMES,
    HTEstimate,
    SURFACES,
    build_source,
    cells_from_census,
    feature_matrix,
    ht_estimate,
    make_smoke_source,
    normal_quantile,
    smoke_census,
    smoke_sensitivity,
)
from repro.adaptive.smoke import smoke_trial
from repro.campaign.stream import StreamHistory, execute_stream, stream_status
from repro.errors import ConfigurationError


class TestFeatures:
    def test_cells_cover_every_live_bit_exactly_once(self):
        census = smoke_census()
        cells = cells_from_census(census, band_bits=1 << 14, max_bands=4)
        total = sum(entry.region.bits for entry in census)
        assert sum(cell.bits for cell in cells) == total
        # Bands within a region tile it without gaps or overlap.
        by_region = {}
        for cell in cells:
            by_region.setdefault((cell.domain, cell.region), []).append(cell)
        for group in by_region.values():
            group.sort(key=lambda c: c.band)
            assert group[0].start_bit == 0
            for prev, nxt in zip(group, group[1:]):
                assert prev.start_bit + prev.bits == nxt.start_bit

    def test_feature_matrix_shape_and_labels(self):
        cells = cells_from_census(smoke_census())
        matrix = feature_matrix(cells)
        assert matrix.shape == (len(cells), len(FEATURE_NAMES))
        assert len({cell.label for cell in cells}) == len(cells)

    def test_zero_bit_regions_dropped(self):
        from repro.sim.faults import CensusEntry, FaultRegion

        entries = (
            CensusEntry("dram", FaultRegion("empty", 0, "none", "shared")),
            CensusEntry("dram", FaultRegion("live", 64, "none", "shared")),
        )
        cells = cells_from_census(entries)
        assert [cell.region for cell in cells] == ["live"]


class TestEstimator:
    def test_normal_quantile(self):
        # Reference values to 1e-6 (Abramowitz & Stegun table).
        assert abs(normal_quantile(0.975) - 1.959964) < 1e-5
        assert abs(normal_quantile(0.995) - 2.575829) < 1e-5
        assert abs(normal_quantile(0.5)) < 1e-12
        assert abs(normal_quantile(0.025) + 1.959964) < 1e-5

    def test_uniform_weights_reduce_to_sample_mean(self):
        ys = [1.0, 0.0, 0.0, 1.0, 1.0]
        est = ht_estimate([(y, 1.0) for y in ys])
        assert est.n == 5
        assert abs(est.estimate - np.mean(ys)) < 1e-12
        se = np.std([y for y in ys], ddof=1) / math.sqrt(5)
        assert abs(est.se - se) < 1e-12
        lo, hi = est.interval
        assert abs((hi - lo) - est.width) < 1e-12

    def test_degenerate_sizes(self):
        assert ht_estimate([]).n == 0
        one = ht_estimate([(1.0, 2.0)])
        assert one.n == 1 and one.estimate == 2.0
        assert one.width == float("inf")

    def test_to_dict_round_trips(self):
        est = ht_estimate([(1.0, 0.5), (0.0, 2.0), (1.0, 1.0)])
        d = est.to_dict()
        assert d["n"] == 3
        assert isinstance(est, HTEstimate)


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"wave_size": 0},
        {"max_rounds": 0},
        {"min_rounds": 5, "max_rounds": 4},
        {"epsilon": 1.5},
        {"epsilon": -0.1},
        {"target_width": 0.0},
        {"confidence": 1.0},
        {"score_floor": 0.7},
        {"min_positives": -1},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ConfigurationError):
            AdaptiveConfig(**kwargs)

    def test_source_rejects_empty_cells(self):
        with pytest.raises(ConfigurationError, match="cell"):
            AdaptiveSource(
                "empty", [], smoke_trial, lambda c, o, b: {}, bool,
            )


def _drain(seed, *, uniform=False, store=None, workers=None, **overrides):
    source, true_rate = build_source("smoke", seed=seed, uniform=uniform,
                                     **overrides)
    result = execute_stream(source, store=store, workers=workers)
    history = StreamHistory(list(result.rounds))
    return source, result, source.estimate(history), true_rate


class TestSmokeSurface:
    def test_true_rate_matches_hand_sum(self):
        source, true_rate = make_smoke_source()
        hand = sum(
            float(f) * smoke_sensitivity(cell)
            for f, cell in zip(source.flux, source.cells)
        )
        assert abs(true_rate - hand) < 1e-12
        assert 0.0 < true_rate < 0.1

    def test_uniform_baseline_never_trains(self):
        source, _ = build_source("smoke", uniform=True)
        assert source.config.epsilon == 1.0
        # Whatever the history, the proposal is the flux distribution.
        assert np.array_equal(source.proposal(StreamHistory()), source.flux)
        assert source.name.endswith("-uniform")

    def test_surfaces_catalog(self):
        assert set(SURFACES) == {"smoke", "table7"}
        with pytest.raises(ConfigurationError, match="unknown surface"):
            build_source("nope")


class TestAdaptiveLoop:
    def test_beats_uniform_by_half_on_pinned_seed(self):
        _, adaptive, a_est, true_rate = _drain(0)
        _, uniform, u_est, _ = _drain(0, uniform=True)
        assert adaptive.trials <= uniform.trials / 2
        # Both estimates must still cover the truth.
        assert abs(a_est.estimate - true_rate) <= a_est.width
        assert abs(u_est.estimate - true_rate) <= u_est.width

    def test_proposal_concentrates_on_hot_cells(self):
        source, result, _, _ = _drain(0)
        history = StreamHistory(list(result.rounds))
        q = source.proposal(history)
        hot = [
            i for i, cell in enumerate(source.cells)
            if smoke_sensitivity(cell) > 0
        ]
        # The hot cells carry under 4% of the flux; the trained
        # proposal must overweight them several-fold.
        flux_mass = source.flux[hot].sum()
        assert flux_mass < 0.05
        assert q[hot].sum() > 3.0 * flux_mass
        assert abs(q.sum() - 1.0) < 1e-9
        # Every flux-bearing cell keeps epsilon-floor mass.
        assert np.all(q >= source.config.epsilon * source.flux - 1e-12)

    def test_min_positives_guard_blocks_early_stop(self):
        # With the guard off, a stream that sees zero positives would
        # stop the moment the (degenerate, zero-variance) width test
        # passes; the guard keeps it striking.
        config = AdaptiveConfig(
            wave_size=8, max_rounds=6, min_rounds=2, target_width=0.5,
            epsilon=1.0, min_positives=10,
        )
        cells = cells_from_census(smoke_census(), band_bits=1 << 14,
                                  max_bands=4)

        def cold_item(cell, offset, bit):
            return {"p": 0.0}  # no strike ever upsets anything

        source = AdaptiveSource(
            "all-cold", cells, smoke_trial, cold_item, lambda v: v["sdc"],
            config=config, seed=1,
        )
        result = execute_stream(source)
        assert len(result.rounds) == config.max_rounds

    def test_mid_round_resume_byte_identical(self, tmp_path):
        _, cold, cold_est, _ = _drain(3, max_rounds=3, target_width=0)
        from repro.campaign import TrialStore

        store = TrialStore(tmp_path)
        _, first, _, _ = _drain(3, max_rounds=3, target_width=0, store=store)
        assert first.digest == cold.digest
        # Kill mid-round: drop entries from the last round.
        for spec in first.rounds[-1].result.specs[::2]:
            fp = spec.fingerprint
            (tmp_path / fp[:2] / f"{fp}.json").unlink()
        source, resumed, res_est, _ = _drain(
            3, max_rounds=3, target_width=0, store=store
        )
        assert resumed.digest == cold.digest
        assert resumed.values == cold.values
        assert res_est.estimate == cold_est.estimate
        assert resumed.executed > 0 and resumed.store_hits > 0
        st = stream_status(source, store)
        assert st.exhausted and st.trials_stored == cold.trials

    def test_pooled_equals_serial(self):
        _, serial, _, _ = _drain(2, max_rounds=2, target_width=0)
        _, pooled, _, _ = _drain(2, max_rounds=2, target_width=0, workers=2)
        assert pooled.digest == serial.digest

    def test_pooled_stream_forks_each_worker_once(
        self, worker_starts, round_reports
    ):
        source, _ = build_source("smoke", seed=0)
        result = execute_stream(source, workers=2, force_pool=True)
        assert len(result.rounds) == len(round_reports) > 1
        assert all(report.mode == "fork-pool" for report in round_reports)
        assert len(worker_starts) == 2
        assert {
            t.pid for report in round_reports for t in report.timings
        } == set(worker_starts)

    def test_estimate_from_replayed_specs_alone(self, tmp_path):
        # The estimator reads f/q from stored params, so a pure store
        # replay reproduces the estimate without any re-planning.
        from repro.campaign import TrialStore

        store = TrialStore(tmp_path)
        _, live, live_est, _ = _drain(4, max_rounds=2, target_width=0,
                                      store=store)
        source, replayed, rep_est, _ = _drain(
            4, max_rounds=2, target_width=0, store=store
        )
        assert replayed.executed == 0
        assert rep_est.to_dict() == live_est.to_dict()


class TestUnbiasedness:
    def test_ht_estimate_unbiased_over_seeds(self):
        # Mean of per-seed estimates must converge on the closed-form
        # rate. 30 short adaptive streams, each heavily skewed toward
        # the hot cells — only correct reweighting lands this close.
        estimates = []
        true_rate = None
        for seed in range(30):
            _, _, est, true_rate = _drain(
                seed, max_rounds=4, target_width=0, wave_size=24,
            )
            estimates.append(est.estimate)
        mean = float(np.mean(estimates))
        se = float(np.std(estimates, ddof=1) / math.sqrt(len(estimates)))
        assert abs(mean - true_rate) <= 3.0 * se, (
            f"mean {mean:.4f} vs true {true_rate:.4f} (3*SE {3 * se:.4f})"
        )

    def test_weights_follow_stored_proposal(self):
        source, result, _, _ = _drain(0, max_rounds=3, target_width=0)
        for rnd in result.rounds:
            for spec in rnd.result.specs:
                f, q = spec.params["f"], spec.params["q"]
                assert f > 0 and q > 0
                # Defensive mixture bounds the weight by 1/epsilon.
                assert f / q <= 1.0 / source.config.epsilon + 1e-9
