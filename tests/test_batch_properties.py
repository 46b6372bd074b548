"""Property-based identity: BatchMachines == N scalar Machines.

Hypothesis drives randomized machine specs, lane counts, tick
schedules, events and run segmentations through both backends and
requires equal engine digests *after every tick* — the strongest form
of the lockstep contract, covering RNG draw order across block
boundaries, event application order, DVFS transitions, ILD filter
state and death freezing. The fast tier stays at small N; the slow
tier repeats the invariant at N=256.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.radiation.thermal import ThermalParams
from repro.sim import Machine, MachineSpec
from repro.sim import batch as batch_module
from repro.sim.batch import (
    BatchMachines,
    FleetTicker,
    LaneEvents,
    SelStep,
    SeuStrike,
    TickConfig,
    TickLaneMode,
    TickProgram,
    merge_reports,
)

CONFIG = TickConfig()


def small_spec(n_cores: int) -> MachineSpec:
    return MachineSpec(
        n_cores=n_cores,
        dram_size=1 << 16,
        l1_lines=8,
        l2_lines=16,
        flash_capacity=1 << 16,
    )


@st.composite
def schedules(draw, max_ticks=48):
    """A utilization matrix plus optional overrides and events."""
    n_cores = draw(st.integers(1, 4))
    ticks = draw(st.integers(4, max_ticks))
    util = np.array(
        [
            [draw(st.integers(0, 10)) / 10.0 for _ in range(n_cores)]
            for _ in range(ticks)
        ]
    )
    override = None
    if draw(st.booleans()):
        spec = small_spec(n_cores)
        levels = spec.core_spec.freq_levels
        override = np.full(ticks, np.nan)
        for _ in range(draw(st.integers(1, 3))):
            tick = draw(st.integers(0, ticks - 1))
            override[tick] = levels[draw(st.integers(0, len(levels) - 1))]
    sels = tuple(
        SelStep(draw(st.integers(0, ticks - 1)),
                draw(st.sampled_from([0.02, 0.05, 0.09])))
        for _ in range(draw(st.integers(0, 2)))
    )
    seus = tuple(
        SeuStrike(draw(st.integers(0, ticks - 1)),
                  draw(st.integers(0, n_cores - 1)))
        for _ in range(draw(st.integers(0, 2)))
    )
    return n_cores, TickProgram(util, freq_override=override,
                                sels=sels, seus=seus)


def per_tick_programs(program: TickProgram):
    """Split a schedule into 1-tick programs, re-anchoring event ticks."""
    for k in range(program.n_ticks):
        override = (
            None
            if program.freq_override is None
            else program.freq_override[k : k + 1]
        )
        yield TickProgram(
            program.utilization[k : k + 1],
            freq_override=override,
            sels=tuple(SelStep(0, s.delta_amps)
                       for s in program.sels if s.tick == k),
            seus=tuple(SeuStrike(0, s.core)
                       for s in program.seus if s.tick == k),
        )


@given(data=schedules(), n=st.integers(1, 4), seed0=st.integers(0, 1 << 16))
@settings(max_examples=25, deadline=None)
def test_batch_equals_scalar_tick_for_tick(data, n, seed0):
    n_cores, program = data
    spec = small_spec(n_cores)
    seeds = [seed0 + i for i in range(n)]
    tickers = [FleetTicker(Machine(spec, seed=s), CONFIG) for s in seeds]
    batch = BatchMachines.from_specs(spec, seeds=seeds, config=CONFIG)
    for step in per_tick_programs(program):
        for ticker in tickers:
            ticker.run(step)
        batch.run(step)
        assert batch.lane_digests() == [t.state_digest() for t in tickers]


@given(data=schedules(), seed0=st.integers(0, 1 << 16))
@settings(max_examples=20, deadline=None)
def test_batch_equals_scalar_with_lane_events(data, seed0):
    n_cores, program = data
    spec = small_spec(n_cores)
    ticks = program.n_ticks
    events = [
        None,
        LaneEvents(sels=(SelStep(ticks // 2, 0.04),)),
        LaneEvents(seus=(SeuStrike(ticks // 3, n_cores - 1),)),
    ]
    seeds = [seed0, seed0 + 1, seed0 + 2]
    tickers = [FleetTicker(Machine(spec, seed=s), CONFIG) for s in seeds]
    for i, ticker in enumerate(tickers):
        ticker.run(program, events[i])
    batch = BatchMachines.from_specs(spec, seeds=seeds, config=CONFIG)
    batch.run(program, events)
    assert batch.lane_digests() == [t.state_digest() for t in tickers]


@pytest.mark.slow
@given(data=schedules(max_ticks=96), seed0=st.integers(0, 1 << 16))
@settings(max_examples=5, deadline=None)
def test_batch_equals_scalar_at_n256(data, seed0):
    n_cores, program = data
    spec = small_spec(n_cores)
    seeds = [seed0 + i for i in range(256)]
    tickers = [FleetTicker(Machine(spec, seed=s), CONFIG) for s in seeds]
    for ticker in tickers:
        ticker.run(program)
    batch = BatchMachines.from_specs(spec, seeds=seeds, config=CONFIG)
    batch.run(program)
    assert batch.lane_digests() == [t.state_digest() for t in tickers]


# ----------------------------------------------------------------------
# Hard cases: block boundaries, firing ILD windows, mid-block deaths,
# lane modes and programs split across run() calls. The strategies
# above draw at most 48 ticks against a 256-tick block and a
# 3,000-tick ILD window, so they never reach these.
# ----------------------------------------------------------------------

HARD_DT = 1e-3


@st.composite
def hard_configs(draw):
    """Short blocks, 1-5 tick ILD windows, varied filter shapes and a
    fast thermal model, so latchups of 0.07 A and up kill lanes within
    a few ticks."""
    window = draw(st.integers(1, 5))
    config = TickConfig(
        dt=HARD_DT,
        samples_per_tick=draw(st.integers(1, 4)),
        block_ticks=draw(st.integers(1, 16)),
        persistence_seconds=window * HARD_DT,
        filter_halfwidth_samples=draw(st.integers(0, 5)),
        thermal=ThermalParams(
            time_constant_s=draw(st.sampled_from([0.002, 0.005, 0.02]))
        ),
    )
    assert config.window_ticks == window
    return config


@st.composite
def hard_cases(draw, max_ticks=40):
    """A config, a mostly quiescent program with events, per-lane
    modes and events, and the cut points that split the program
    across run() calls."""
    config = draw(hard_configs())
    n_cores = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    ticks = draw(st.integers(4, max_ticks))
    rows = []
    for _ in range(ticks):
        top = 2 if draw(st.integers(0, 3)) else 10  # quiescent 3 in 4
        rows.append([draw(st.integers(0, top)) / 10.0 for _ in range(n_cores)])
    override = None
    if draw(st.booleans()):
        levels = small_spec(n_cores).core_spec.freq_levels
        override = np.full(ticks, np.nan)
        for _ in range(draw(st.integers(1, 3))):
            tick = draw(st.integers(0, ticks - 1))
            override[tick] = levels[draw(st.integers(0, len(levels) - 1))]
    deltas = st.sampled_from([0.02, 0.05, 0.07, 0.09, -0.02])
    tick = st.integers(0, ticks - 1)
    core = st.integers(0, n_cores - 1)
    program = TickProgram(
        np.array(rows),
        freq_override=override,
        sels=tuple(SelStep(draw(tick), draw(deltas))
                   for _ in range(draw(st.integers(0, 2)))),
        seus=tuple(SeuStrike(draw(tick), draw(core))
                   for _ in range(draw(st.integers(0, 2)))),
    )
    lane_events = [
        LaneEvents(
            sels=tuple(SelStep(draw(tick), draw(deltas))
                       for _ in range(draw(st.integers(0, 2)))),
            seus=tuple(SeuStrike(draw(tick), draw(core))
                       for _ in range(draw(st.integers(0, 1)))),
        )
        if draw(st.booleans()) else None
        for _ in range(n)
    ]
    modes = [
        draw(st.sampled_from([
            None,
            TickLaneMode("low", residual_threshold_amps=0.01),
            TickLaneMode("hot", extra_current_amps=0.3,
                         residual_threshold_amps=0.03),
            TickLaneMode("wide", residual_threshold_amps=0.2),
        ]))
        for _ in range(n)
    ]
    cuts = sorted(set(draw(st.lists(st.integers(1, ticks - 1), max_size=2))))
    return config, n_cores, program, lane_events, modes, cuts


def _events_in(events, start: int, stop: int, cls, field: str):
    return tuple(
        cls(ev.tick - start, getattr(ev, field))
        for ev in events
        if start <= ev.tick < stop
    )


def split_program(program: TickProgram, lane_events, cuts):
    """Cut a program (and its lane events) into consecutive pieces,
    re-anchoring every event tick to its piece."""
    bounds = [0, *cuts, program.n_ticks]
    for start, stop in zip(bounds, bounds[1:]):
        override = (
            None if program.freq_override is None
            else program.freq_override[start:stop]
        )
        piece = TickProgram(
            program.utilization[start:stop],
            freq_override=override,
            sels=_events_in(program.sels, start, stop, SelStep, "delta_amps"),
            seus=_events_in(program.seus, start, stop, SeuStrike, "core"),
        )
        events = [
            None if ev is None else LaneEvents(
                sels=_events_in(ev.sels, start, stop, SelStep, "delta_amps"),
                seus=_events_in(ev.seus, start, stop, SeuStrike, "core"),
            )
            for ev in lane_events
        ]
        yield piece, events


def check_hard_case(case, seed0):
    config, n_cores, program, lane_events, modes, cuts = case
    spec = small_spec(n_cores)
    seeds = [seed0 + i for i in range(len(modes))]
    tickers = [
        FleetTicker(Machine(spec, seed=s), config, lane_id=i, mode=mode)
        for i, (s, mode) in enumerate(zip(seeds, modes))
    ]
    batch = BatchMachines.from_specs(spec, seeds=seeds, config=config)
    batch.set_lane_modes(modes)
    for piece, events in split_program(program, lane_events, cuts):
        scalar = merge_reports(
            t.run(piece, ev) for t, ev in zip(tickers, events)
        )
        assert batch.run(piece, events) == scalar
        assert batch.lane_digests() == [t.state_digest() for t in tickers]


@given(case=hard_cases(), seed0=st.integers(0, 1 << 16))
@settings(max_examples=60, deadline=None)
def test_batch_equals_scalar_on_hard_cases(case, seed0):
    check_hard_case(case, seed0)


@given(
    case=hard_cases(),
    seed0=st.integers(0, 1 << 16),
    chunk=st.sampled_from([1, 7, 40]),
)
@settings(max_examples=30, deadline=None)
def test_batch_equals_scalar_across_lane_chunks(case, seed0, chunk):
    """A small lane-tick budget splits every segment into chunks of
    one or a few lanes, each evaluated on its own."""
    with mock.patch.object(batch_module, "_CHUNK_LANE_TICKS", chunk):
        check_hard_case(case, seed0)
