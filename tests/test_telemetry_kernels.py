"""Contracts of the telemetry and ILD kernels.

The power, sensor, DVFS and rolling-minimum kernels work in place in
buffers they allocate, so these tests check that no kernel writes into
an array its caller passed (``np.asarray(x, dtype=float)`` returns the
caller's own float64 array). They also pin the counter layout: one
C-contiguous matrix per :class:`CounterFrame`, with every named metric
a view into it.
"""

import pickle

import numpy as np
import pytest

from repro.core.ild import CurrentModel
from repro.core.ild.rolling_filter import RollingMinimumFilter
from repro.errors import ConfigurationError
from repro.sim import (
    ActivitySegment,
    CounterFrame,
    CurrentSensor,
    Machine,
    OndemandGovernor,
    PerfCounterSampler,
    PowerModel,
    TelemetryConfig,
    TraceGenerator,
    quiescent_segment,
)
from repro.sim.perfcounters import GLOBAL_METRICS, PER_CORE_METRICS, feature_names, sum_cores

METRICS = PER_CORE_METRICS + GLOBAL_METRICS


def _unchanged(call, *arrays):
    """Run ``call`` and assert that none of ``arrays`` changed."""
    before = [a.copy() for a in arrays]
    result = call()
    for old, new in zip(before, arrays):
        assert old.tobytes() == new.tobytes()
    return result


@pytest.fixture(scope="module")
def trace():
    generator = TraceGenerator(TelemetryConfig(tick=2e-3))
    busy = ActivitySegment(duration=2.0, core_util=(0.7, 0.5, 0.9, 0.2), dram_gbs=0.4)
    return generator.generate(
        [quiescent_segment(3.0), busy, quiescent_segment(1.0)], rng=np.random.default_rng(4)
    )


class TestKernelsLeaveInputsAlone:
    def test_sensor_sample_and_oversample(self):
        sensor = CurrentSensor()
        current = np.linspace(1.6, 2.4, 500)
        _unchanged(lambda: sensor.sample(current, np.random.default_rng(0)), current)
        fine = _unchanged(
            lambda: sensor.oversample(current, 4, np.random.default_rng(0)), current
        )
        assert fine.shape == (2000,) and fine.flags.c_contiguous and fine.flags.writeable

    def test_oversample_draws_like_sampling_the_repeated_stream(self):
        sensor = CurrentSensor()
        current = np.linspace(1.6, 2.4, 333)
        fine = sensor.oversample(current, 3, np.random.default_rng(5))
        repeated = sensor.sample(np.repeat(current, 3), np.random.default_rng(5))
        assert fine.tobytes() == repeated.tobytes()

    def test_board_current(self):
        rng = np.random.default_rng(1)
        util = rng.uniform(-0.2, 1.2, (300, 4))  # out of range: exercises the clip
        freq = rng.uniform(0.6e9, 1.4e9, (300, 4))
        dram, disk, miss = rng.random(300), rng.random(300) * 100, rng.random(300) * 0.05
        total = _unchanged(
            lambda: PowerModel().board_current(
                util, freq, dram_gbs=dram, disk_iops=disk, branch_miss_rate=miss
            ),
            util, freq, dram, disk, miss,
        )
        assert total.shape == (300,)

    def test_board_current_of_one_machine_is_a_scalar(self):
        total = PowerModel().board_current(np.full(4, 0.5), np.full(4, 1e9))
        assert isinstance(total, np.float64)

    def test_steady_state_freq_array(self):
        governor = OndemandGovernor()
        util = np.random.default_rng(2).random((200, 4))
        freq = _unchanged(lambda: governor.steady_state_freq_array(util), util)
        expected = [[governor.steady_state_freq(u) for u in row] for row in util]
        assert np.array_equal(freq, expected)

    def test_rolling_minimum_per_tick(self):
        samples = np.random.default_rng(3).random(1001)
        _unchanged(lambda: RollingMinimumFilter(4).per_tick(samples, 4), samples)

    def test_residuals(self, trace):
        model = CurrentModel().fit(trace.counters, trace.true_current)
        measured = trace.true_current.copy()
        _unchanged(lambda: model.residuals(trace.counters, measured),
                   measured, trace.counters.matrix)


class TestRollingMinimumPerTick:
    @pytest.mark.parametrize("halfwidth", [0, 1, 2, 4, 7])
    @pytest.mark.parametrize("samples_per_tick", [1, 2, 3, 4, 5, 8])
    def test_equals_full_filter_at_tick_centres(self, halfwidth, samples_per_tick):
        rng = np.random.default_rng(halfwidth * 10 + samples_per_tick)
        filt = RollingMinimumFilter(halfwidth)
        centre = samples_per_tick // 2
        # Empty, shorter than one tick or one window, ragged last tick.
        for length in (0, 1, 2, 3, 5, 8, 9, 17, 64, 101, 1000):
            samples = rng.normal(2.0, 0.3, length)
            expected = filt.apply(samples)[centre::samples_per_tick]
            got = filt.per_tick(samples, samples_per_tick)
            assert got.dtype == np.float64
            assert got.tobytes() == expected.tobytes(), length

    def test_rejects_bad_input(self):
        with pytest.raises(ConfigurationError):
            RollingMinimumFilter(2).per_tick(np.ones(8), 0)
        with pytest.raises(ConfigurationError):
            RollingMinimumFilter(2).per_tick(np.ones((2, 4)), 4)


class TestCounterLayout:
    def test_one_matrix_with_views(self, trace):
        frame = trace.counters
        matrix = frame.feature_matrix()
        assert matrix is frame.matrix
        assert matrix.flags.c_contiguous and matrix.dtype == np.float64
        assert matrix.shape == (frame.n_ticks, len(feature_names(frame.n_cores)))
        names = feature_names(frame.n_cores)
        for metric in METRICS:
            view = getattr(frame, metric)
            assert np.shares_memory(view, matrix), metric
            if metric in GLOBAL_METRICS:
                assert view.shape == (frame.n_ticks,)
                assert np.array_equal(view, matrix[:, names.index(metric)])
            else:
                assert view.shape == (frame.n_ticks, frame.n_cores)
                for core in range(frame.n_cores):
                    column = names.index(f"core{core}.{metric}")
                    assert np.array_equal(view[:, core], matrix[:, column])

    def test_pack_copies_each_metric_into_its_columns(self):
        rng = np.random.default_rng(6)
        metrics = {name: rng.random((50, 3)) for name in PER_CORE_METRICS}
        metrics.update({name: rng.random(50) for name in GLOBAL_METRICS})
        frame = CounterFrame.pack(**metrics)
        assert frame.n_ticks == 50 and frame.n_cores == 3
        for name, values in metrics.items():
            assert np.array_equal(getattr(frame, name), values)
            assert not np.shares_memory(getattr(frame, name), values)

    def test_pack_and_constructor_reject_bad_shapes(self):
        metrics = {name: np.zeros((5, 2)) for name in PER_CORE_METRICS}
        metrics.update({name: np.zeros(5) for name in GLOBAL_METRICS})
        with pytest.raises(ConfigurationError):
            CounterFrame.pack(**{**metrics, "cpu_freq": np.zeros((5, 3))})
        with pytest.raises(ConfigurationError):
            CounterFrame.pack(**metrics, extra=np.zeros(5))
        with pytest.raises(ConfigurationError):
            CounterFrame(np.zeros((5, 13)))  # not n_cores * 5 + 2 columns
        with pytest.raises(ConfigurationError):
            CounterFrame(np.zeros((12, 5)).T)  # not C-contiguous

    def test_slice_and_concatenate_round_trip(self, trace):
        frame = trace.counters
        head = np.arange(frame.n_ticks) < frame.n_ticks // 3
        joined = CounterFrame.concatenate([frame.slice(head), frame.slice(~head)])
        assert joined.matrix.tobytes() == frame.matrix.tobytes()
        assert not np.shares_memory(joined.matrix, frame.matrix)
        assert joined.matrix.flags.c_contiguous
        every_other = frame.slice(slice(None, None, 2))
        assert np.array_equal(every_other.instruction_rate, frame.instruction_rate[::2])

    def test_pickles_as_one_matrix(self, trace):
        clone = pickle.loads(pickle.dumps(trace.counters))
        assert clone.matrix.tobytes() == trace.counters.matrix.tobytes()
        assert np.shares_memory(clone.instruction_rate, clone.matrix)

    def test_sampler_yields_a_valid_frame(self):
        machine = Machine.rpi_zero2w(seed=0)
        sampler = PerfCounterSampler(machine.cores)
        sampler.note_disk_ios(reads=3, writes=5)
        frame = sampler.sample(0.5)
        assert frame.matrix.shape == (1, len(feature_names(machine.n_cores)))
        assert frame.disk_read_ios[0] == 6.0 and frame.disk_write_ios[0] == 10.0
        assert np.array_equal(frame.cpu_freq[0], [core.freq for core in machine.cores])
        assert np.all(frame.cache_hit_rate == 1.0)  # no references yet
        assert sampler.sample(0.5).disk_read_ios[0] == 0.0


@pytest.mark.parametrize("n_cores", range(1, 8))
def test_sum_cores_matches_numpy_below_eight_cores(n_cores):
    values = np.random.default_rng(n_cores).random((1000, n_cores))
    values *= np.random.default_rng(7).choice([1e-3, 1.0, 1e9], values.shape)
    assert sum_cores(values).tobytes() == values.sum(axis=-1).tobytes()
    strided = np.repeat(values, 3, axis=1)[:, ::3]
    assert sum_cores(strided).tobytes() == values.sum(axis=-1).tobytes()
