"""Performance benchmark for the vectorized kernels and campaign engine.

Measures the three optimizations this repo carries on top of the
straightforward reference implementation, verifies each one is
*output-identical* to the slow path, and writes the numbers to
``BENCH_perf.json``:

1. AES-256 ECB over >= 64 KiB: per-block scalar loop vs the batched
   numpy kernel (table lookups over an ``(n, 16)`` state array).
2. Template search: per-window ``match_scores`` loop vs the chunked
   ``batch_match_scores`` sweep over a sliding-window view.
3. The Table 7 fault-injection campaign: seed-style configuration
   (eagerly zeroed simulated DRAM, per-dataset golden-output loop,
   serial) vs the current engine (calloc-backed devices, batched
   golden outputs, ``--workers N`` deterministic pool).
4. The campaign trial store: a cold Table 7 campaign against an empty
   store vs the warm rerun, which must execute **zero** trials (every
   result replays from disk) while producing identical values.
5. The SoA batch simulator (``repro.sim.batch``): machine-ticks/sec
   scalar vs batched at N in {1, 32, 256, 1024}, with a byte-identity
   digest check at every N; plus a 1000-machine fleet tick sweep and a
   batched 960-hour ground-testbed trace (the paper's §5 campaign
   duration) to show fleet-scale volumes complete in minutes.
6. The constellation engine (``repro.fleet``): one ``run_fleet`` over
   the smoke fleet (``--smoke``) or the 1,110-craft / >= 1M
   machine-hour reference fleet, calibration pre-warmed, with a
   batched-vs-scalar byte-identity spot check.

``--smoke`` shrinks every section to CI size. Either way the script
loads ``BENCH_floors.json`` (committed next to ``BENCH_perf.json``)
and fails if any recorded ``identical*`` flag is false or a speedup
lands below its floor — the CI benchmark-regression gate.

Usage::

    PYTHONPATH=src python scripts/bench_perf.py [--runs 20] [--workers 4] [--smoke]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - start


def bench_aes(size: int = 1 << 16) -> dict:
    from repro.workloads.aes import ecb_encrypt, ecb_encrypt_scalar

    key = bytes(range(32))
    plaintext = np.random.default_rng(7).bytes(size)
    # Warm the table caches before timing.
    ecb_encrypt(plaintext[:256], key)
    vec, vec_s = _timed(ecb_encrypt, plaintext, key)
    scalar, scalar_s = _timed(ecb_encrypt_scalar, plaintext, key)
    assert vec == scalar, "vectorized AES diverged from the scalar loop"
    return {
        "bytes": size,
        "scalar_s": scalar_s,
        "vectorized_s": vec_s,
        "speedup": scalar_s / vec_s,
        "identical": True,
    }


def bench_imageproc(map_size: int = 256, n: int = 24) -> dict:
    from repro.workloads.imageproc import (
        make_terrain,
        match_scores,
        search_template,
    )

    terrain = make_terrain(np.random.default_rng(0), map_size, map_size)
    template = terrain[40 : 40 + n, 80 : 80 + n].copy()
    (ncc, sad), batch_s = _timed(search_template, terrain, template, 1)

    def loop() -> "tuple[np.ndarray, np.ndarray]":
        limit = map_size - n + 1
        ncc_grid = np.empty((limit, limit))
        sad_grid = np.empty((limit, limit))
        for r in range(limit):
            for c in range(limit):
                ncc_grid[r, c], sad_grid[r, c] = match_scores(
                    terrain[r : r + n, c : c + n], template
                )
        return ncc_grid, sad_grid

    (ncc_loop, sad_loop), loop_s = _timed(loop)
    identical = bool(
        np.array_equal(ncc, ncc_loop) and np.array_equal(sad, sad_loop)
    )
    assert identical, "batched template search diverged from the loop"
    return {
        "map_size": map_size,
        "windows": int(ncc.size),
        "loop_s": loop_s,
        "batch_s": batch_s,
        "speedup": loop_s / batch_s,
        "identical": True,
    }


def _loop_golden_workload(**kwargs):
    """Seed-style workload: golden outputs via the per-dataset loop."""
    from repro.workloads.base import Workload
    from repro.workloads.imageproc import ImageProcessingWorkload

    class LoopGolden(ImageProcessingWorkload):
        def reference_outputs(self, spec):
            return Workload.reference_outputs(self, spec)

    return LoopGolden(**kwargs)


def _eager_machine_factory():
    """Seed-style machine: every device byte touched up front, the way
    ``bytearray(size)`` memset the whole store on construction."""
    from repro.sim.machine import Machine

    machine = Machine.rpi_zero2w()
    machine.memory._data[:] = 0
    if machine.memory._checks is not None:
        machine.memory._checks[:] = 0
    backing = machine.storage._backing
    backing._data[:] = 0
    if backing._checks is not None:
        backing._checks[:] = 0
    return machine


def bench_table7(runs_per_scheme: int, workers: int) -> dict:
    from repro.radiation.injector import CampaignConfig, FaultInjectionCampaign
    from repro.workloads.imageproc import ImageProcessingWorkload

    schemes = ("none", "3mr", "emr")
    config = CampaignConfig(runs_per_scheme=runs_per_scheme)
    workload_kwargs = dict(map_size=64, template_size=16, stride=8)

    before_campaign = FaultInjectionCampaign(
        _loop_golden_workload(**workload_kwargs),
        config,
        machine_factory=_eager_machine_factory,
        seed=3,
    )
    before, before_s = _timed(before_campaign.run, schemes=schemes, workers=1)

    after_campaign = FaultInjectionCampaign(
        ImageProcessingWorkload(**workload_kwargs), config, seed=3
    )
    after, after_s = _timed(after_campaign.run, schemes=schemes, workers=workers)
    serial = FaultInjectionCampaign(
        ImageProcessingWorkload(**workload_kwargs), config, seed=3
    ).run(schemes=schemes, workers=1)

    assert after == before, "optimized campaign changed the outcome table"
    assert after == serial, "parallel campaign diverged from serial"
    return {
        "runs_per_scheme": runs_per_scheme,
        "schemes": list(schemes),
        "workers": workers,
        "mode": after_campaign.last_report.mode,
        "before_s": before_s,
        "after_s": after_s,
        "speedup": before_s / after_s,
        "identical_outcomes": True,
        "parallel_equals_serial": True,
    }


def bench_campaign_store(runs_per_scheme: int, workers: int) -> dict:
    import tempfile

    from repro.campaign import TrialStore, execute
    from repro.experiments.table7_fault_injection import campaign
    from repro.obs import MetricsRegistry

    camp = campaign(runs_per_scheme=runs_per_scheme, seed=3)
    with tempfile.TemporaryDirectory() as root:
        store = TrialStore(root)
        cold, cold_s = _timed(
            execute, camp, workers=workers, store=store,
            metrics=MetricsRegistry(),
        )
        warm_metrics = MetricsRegistry()
        warm, warm_s = _timed(
            execute, camp, workers=workers, store=store,
            metrics=warm_metrics,
        )
    assert warm.executed == 0, "warm campaign re-ran stored trials"
    assert warm.store_hits == len(camp.trials), "store missed trials"
    assert warm.values == cold.values, "warm values diverged from cold"
    counters = warm_metrics.snapshot()["counters"]
    return {
        "trials": len(camp.trials),
        "workers": workers,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "speedup": cold_s / warm_s,
        "warm_executed": int(counters["campaign.trials.executed"]),
        "warm_store_hits": int(counters["campaign.store.hits"]),
        "identical_values": True,
    }


def _tick_spec():
    """A small-device spec for tick benchmarks: the tick engine never
    touches DRAM/flash contents, so shrink them to keep Machine
    construction (and the scalar twin fleet) cheap."""
    from repro.sim import MachineSpec

    return MachineSpec(
        dram_size=1 << 16, l1_lines=8, l2_lines=16, flash_capacity=1 << 16
    )


def _activity_program(ticks: int, n_cores: int, phase: int = 0):
    """A deterministic, varied activity schedule (no RNG draws): ramps
    and plateaus spanning quiescent through saturated utilization."""
    from repro.sim.batch import TickProgram

    t = np.arange(ticks + phase, dtype=float)[phase:]
    base = 0.45 + 0.35 * np.sin(t / 37.0) * np.cos(t / 211.0)
    rows = np.clip(
        base[:, None] + 0.08 * np.sin(t[:, None] / 13.0 + np.arange(n_cores)),
        0.0,
        1.0,
    )
    return TickProgram(rows)


def _scalar_fleet_run(spec, config, seeds, program, lane_events=None):
    """The scalar twin: N independent FleetTickers, one per seed."""
    from repro.sim import Machine
    from repro.sim.batch import FleetTicker, merge_reports

    tickers = [FleetTicker(Machine(spec, seed=s), config) for s in seeds]
    reports = []
    for lane, ticker in enumerate(tickers):
        ticker.lane_id = lane
        events = None if lane_events is None else lane_events[lane]
        reports.append(ticker.run(program, events))
    return merge_reports(reports), [t.state_digest() for t in tickers]


def bench_batch_sim(smoke: bool) -> dict:
    from repro.sim.batch import BatchMachines, SelStep, SeuStrike, TickConfig

    spec = _tick_spec()
    config = TickConfig()
    budget = 131_072 if smoke else 524_288  # scalar machine-ticks per N
    entries = []
    for n in (1, 32, 256, 1024):
        ticks = int(np.clip(budget // n, 128, 4096))
        program = _activity_program(ticks, spec.n_cores)
        program.sels = (SelStep(ticks // 3, 0.03),)
        program.seus = (SeuStrike(ticks // 2, 1),)
        seeds = range(1000, 1000 + n)

        (scalar_report, scalar_digests), scalar_s = _timed(
            _scalar_fleet_run, spec, config, seeds, program
        )
        batch = BatchMachines.from_specs(spec, seeds=seeds, config=config)
        batch_report, batch_s = _timed(batch.run, program)
        identical = bool(
            batch.lane_digests() == scalar_digests
            and batch_report.alarms == scalar_report.alarms
            and batch_report.deaths == scalar_report.deaths
        )
        assert identical, f"batch diverged from scalar fleet at N={n}"
        entries.append(
            {
                "n": n,
                "ticks": ticks,
                "scalar_s": scalar_s,
                "batch_s": batch_s,
                "scalar_mtps": n * ticks / scalar_s,
                "batch_mtps": n * ticks / batch_s,
                "speedup": scalar_s / batch_s,
                "identical": True,
            }
        )
        print(f"  N={n:5d}  scalar {entries[-1]['scalar_mtps']:9.0f} mt/s   "
              f"batch {entries[-1]['batch_mtps']:9.0f} mt/s   "
              f"{entries[-1]['speedup']:6.1f}x")
    return {
        "dt": config.dt,
        "entries": entries,
        "speedup_n1": entries[0]["speedup"],
        "speedup_n1024": entries[-1]["speedup"],
        "identical": all(e["identical"] for e in entries),
    }


def bench_fleet_sweep(smoke: bool) -> dict:
    """1000-machine fleet: one batched tick sweep at dt=1 s."""
    from repro.sim.batch import BatchMachines, TickConfig

    spec = _tick_spec()
    config = TickConfig(dt=1.0)
    n, ticks = 1000, (120 if smoke else 3600)
    program = _activity_program(ticks, spec.n_cores)

    spot_ticks = min(ticks, 300)
    spot_seeds = range(5000, 5002)
    _, spot_digests = _scalar_fleet_run(
        spec, config, spot_seeds, _activity_program(spot_ticks, spec.n_cores)
    )
    spot = BatchMachines.from_specs(spec, seeds=spot_seeds, config=config)
    spot.run(_activity_program(spot_ticks, spec.n_cores))
    identical = bool(spot.lane_digests() == spot_digests)
    assert identical, "fleet spot-check diverged from scalar"

    batch = BatchMachines.from_specs(spec, seeds=range(5000, 5000 + n),
                                     config=config)
    report, wall_s = _timed(batch.run, program)
    return {
        "machines": n,
        "ticks": ticks,
        "dt": config.dt,
        "simulated_machine_hours": n * ticks * config.dt / 3600.0,
        "wall_s": wall_s,
        "machine_ticks_per_s": n * ticks / wall_s,
        "alarms": len(report.alarms),
        "identical_spot_check": True,
    }


def _testbed_program(ticks: int, n_cores: int, phase: int = 0):
    """An episode schedule with a quiescent middle third — the regime
    ILD actually monitors — bracketed by active stretches."""
    program = _activity_program(ticks, n_cores, phase)
    program.utilization[ticks // 3 : 2 * ticks // 3, :] = 0.05
    return program


def bench_testbed_trace(smoke: bool) -> dict:
    """The paper's 960-hour ground-testbed trace, batched: 64 lanes of
    sequential 30-minute episodes with inject-then-clear micro-SELs
    (detected by ILD during each episode's quiescent stretch),
    totalling 960 simulated hours at dt=1 s."""
    from repro.sim.batch import (
        BatchMachines,
        LaneEvents,
        SelStep,
        TickConfig,
    )

    spec = _tick_spec()
    # At dt=1 s the rolling-min filter spans whole seconds, so its
    # downward noise bias (~2 sigma) eats more of the residual than at
    # the flight dt of 1 ms; drop the threshold so the 0.06 A
    # micro-SEL (below the 0.062 A damage asymptote — no burnouts)
    # latches one alarm per quiescent stretch instead of flapping.
    config = TickConfig(dt=1.0, residual_threshold_amps=0.02)
    lanes = 64
    episode_ticks = 450 if smoke else 1800
    episodes = 2 if smoke else 30

    def episode_events(ep: int):
        events = []
        for lane in range(lanes):
            if (lane * 7 + ep) % 3 == 0:
                events.append(
                    LaneEvents(
                        sels=(
                            SelStep(episode_ticks // 6, 0.06),
                            SelStep(2 * episode_ticks // 3, -0.06),
                        )
                    )
                )
            else:
                events.append(None)
        return events

    spot_program = _testbed_program(episode_ticks, spec.n_cores)
    spot_seeds = range(9000, 9002)
    _, spot_digests = _scalar_fleet_run(
        spec, config, spot_seeds, spot_program, episode_events(0)[:2]
    )
    spot = BatchMachines.from_specs(spec, seeds=spot_seeds, config=config)
    spot.run(spot_program, episode_events(0)[:2])
    identical = bool(spot.lane_digests() == spot_digests)
    assert identical, "testbed spot-check diverged from scalar"

    batch = BatchMachines.from_specs(spec, seeds=range(9000, 9000 + lanes),
                                     config=config)
    alarms = 0
    start = time.perf_counter()
    for ep in range(episodes):
        program = _testbed_program(episode_ticks, spec.n_cores, phase=ep * 97)
        report = batch.run(program, episode_events(ep))
        alarms += len(report.alarms)
    wall_s = time.perf_counter() - start
    total_ticks = lanes * episodes * episode_ticks
    return {
        "lanes": lanes,
        "episodes": episodes,
        "episode_ticks": episode_ticks,
        "dt": config.dt,
        "simulated_hours": total_ticks * config.dt / 3600.0,
        "wall_s": wall_s,
        "machine_ticks_per_s": total_ticks / wall_s,
        "alarms": alarms,
        "identical_spot_check": True,
    }


def bench_fleet_scale(smoke: bool) -> dict:
    """The constellation engine end to end: one ``run_fleet`` over the
    smoke fleet (CI) or the reference fleet (1,110 craft, >= 1M
    machine-hours). The SEU calibration is pre-warmed into the store
    first, so the timed section is the survey tier itself — sharding,
    batch lockstep, scalar SEL remainders, aggregation."""
    import tempfile

    from repro.fleet import (
        BandSpec,
        FleetSpec,
        calibrate_fleet,
        reference_spec,
        report_json,
        run_fleet,
        smoke_spec,
    )

    spec = smoke_spec() if smoke else reference_spec()

    with tempfile.TemporaryDirectory() as root:
        # Identity spot-check on a CI-sized sibling fleet (same seed
        # and calibration_runs, so it also pre-warms the calibration
        # cells): the batched-lockstep path against the all-scalar
        # path must produce byte-identical report JSON.
        spot = FleetSpec(
            name="bench-spot",
            seed=spec.seed,
            dt=spec.dt,
            calibration_runs=spec.calibration_runs,
            bands=tuple(
                BandSpec(preset=band.preset, craft=min(band.craft, 2),
                         schemes=band.schemes, profile=band.profile,
                         days=min(band.days, 1.0))
                for band in spec.bands[:2]
            ),
        )
        batched = run_fleet(spot, store=root, workers=1)
        scalar = run_fleet(spot, workers=1, use_batch=False)
        identical = bool(
            report_json(batched.report) == report_json(scalar.report)
        )
        assert identical, "batched fleet diverged from the scalar path"

        calibrate_fleet(spec, store=root)
        result, wall_s = _timed(
            run_fleet, spec, store=root, workers=None
        )

    hours = result.report["machine_hours"]
    return {
        "fleet": spec.name,
        "craft": spec.total_craft,
        "planned_machine_hours": spec.planned_machine_hours,
        "machine_hours": hours,
        "sel_total": int(result.report["totals"]["sel_total"]),
        "craft_lost": int(
            result.report["totals"]["craft"]
            - result.report["totals"]["survived"]
        ),
        "wall_s": wall_s,
        "machine_hours_per_s": hours / wall_s,
        "identical_batched_vs_scalar": True,
    }


def bench_hmr_frontier(smoke: bool) -> dict:
    """The HMR frontier sweep: cold campaign vs pure store replay,
    with the two required byte-identical on the canonical frontier
    JSON."""
    import tempfile

    from repro.experiments import run_experiment
    from repro.experiments.fig_hmr_frontier import campaign, frontier_json

    scale = 1 if smoke else 2

    def sweep(**kwargs):
        return run_experiment(campaign(scale=scale, seed=7), **kwargs)[1]

    with tempfile.TemporaryDirectory() as root:
        cold, cold_s = _timed(sweep, workers=1, store=root)
        replay, replay_s = _timed(sweep, store=root)
    assert frontier_json(replay) == frontier_json(cold), "frontier paths diverged"
    return {
        "scale": scale,
        "trials": len(campaign(scale=scale, seed=7).trials),
        "cold_s": cold_s,
        "replay_s": replay_s,
        "replay_speedup": cold_s / replay_s,
        "identical_paths": True,
    }


def bench_adaptive_sampling(smoke: bool) -> dict:
    """Trials-to-target-CI-width: the ML importance sampler vs the
    uniform flux-weighted baseline on the smoke surface (known
    sensitivities, shared stopping rule — docs/adaptive.md), with a
    serial-vs-store-replay identity check on the stream digest.
    ``trial_ratio`` is uniform/adaptive: >= 2 means the adaptive
    stream converged in at most half the trials."""
    import tempfile

    from repro.adaptive import build_source
    from repro.campaign import TrialStore
    from repro.campaign.stream import StreamHistory, execute_stream

    def drain(seed: int, uniform: bool, store=None):
        source, _ = build_source("smoke", seed=seed, uniform=uniform)
        result = execute_stream(source, store=store)
        width = source.estimate(StreamHistory(list(result.rounds))).width
        return result, width

    entries = []
    seeds = (0,) if smoke else (0, 1, 2, 3, 4)
    for seed in seeds:
        (adaptive, a_width), adaptive_s = _timed(drain, seed, False)
        (uniform, u_width), _ = _timed(drain, seed, True)
        entries.append({
            "seed": seed,
            "adaptive_trials": adaptive.trials,
            "uniform_trials": uniform.trials,
            "ratio": uniform.trials / adaptive.trials,
            "adaptive_width": a_width,
            "uniform_width": u_width,
            "adaptive_s": adaptive_s,
        })
        print(f"  seed {seed}: adaptive {adaptive.trials:4d} trials, "
              f"uniform {uniform.trials:4d}  "
              f"({entries[-1]['ratio']:.1f}x fewer)")

    with tempfile.TemporaryDirectory() as root:
        cold, _ = drain(seeds[0], False, store=TrialStore(root))
        replay, _ = drain(seeds[0], False, store=TrialStore(root))
    identical = bool(replay.digest == cold.digest and replay.executed == 0)
    assert identical, "adaptive store replay diverged from the cold run"
    return {
        "entries": entries,
        "trial_ratio": min(e["ratio"] for e in entries),
        "identical_replay": True,
    }


def _walk_identical_flags(value, path=""):
    """Yield ``(path, bool)`` for every ``identical*`` flag in the tree."""
    if isinstance(value, dict):
        for key, sub in value.items():
            sub_path = f"{path}.{key}" if path else str(key)
            if key.startswith("identical"):
                yield sub_path, bool(sub)
            else:
                yield from _walk_identical_flags(sub, sub_path)
    elif isinstance(value, list):
        for i, sub in enumerate(value):
            yield from _walk_identical_flags(sub, f"{path}[{i}]")


def _lookup(results: dict, dotted: str):
    """Resolve a ``section.key`` floor path against the results tree."""
    node = results
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def check_floors(results: dict, floors_path: Path) -> "list[str]":
    """The regression gate: every ``identical*`` flag true, every
    floored metric at or above its committed floor."""
    failures = []
    for path, flag in _walk_identical_flags(results):
        if not flag:
            failures.append(f"identity flag {path} is false")
    if floors_path.exists():
        floors = json.loads(floors_path.read_text())
        for dotted, floor in floors.items():
            value = _lookup(results, dotted)
            if value is None:
                failures.append(f"floor {dotted}: metric missing from results")
            elif float(value) < float(floor):
                failures.append(
                    f"floor {dotted}: {float(value):.3g} < {float(floor):.3g}"
                )
    return failures


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=20,
                        help="Table 7 injections per scheme")
    parser.add_argument("--workers", type=int, default=4,
                        help="worker processes for the campaign benchmark")
    parser.add_argument("--out", default="BENCH_perf.json")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized sections (same identity checks)")
    args = parser.parse_args(argv)
    if args.smoke:
        args.runs = min(args.runs, 6)

    import platform

    results = {
        "cpu_count": os.cpu_count(),
        "meta": {
            "cpu_count": os.cpu_count(),
            "workers": args.workers,
            "smoke": bool(args.smoke),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }

    print("AES-256 ECB, 64 KiB ...")
    results["aes_ecb_64kib"] = bench_aes()
    aes = results["aes_ecb_64kib"]
    print(f"  scalar {aes['scalar_s'] * 1e3:8.1f} ms   "
          f"vectorized {aes['vectorized_s'] * 1e3:8.1f} ms   "
          f"{aes['speedup']:.1f}x")

    print("template search, 256x256 map, 24x24 template, stride 1 ...")
    results["imageproc_search"] = bench_imageproc()
    img = results["imageproc_search"]
    print(f"  loop   {img['loop_s'] * 1e3:8.1f} ms   "
          f"batch      {img['batch_s'] * 1e3:8.1f} ms   "
          f"{img['speedup']:.1f}x")

    print(f"Table 7 campaign, {args.runs} runs/scheme, "
          f"workers={args.workers} ...")
    results["table7_campaign"] = bench_table7(args.runs, args.workers)
    t7 = results["table7_campaign"]
    print(f"  before {t7['before_s']:8.2f} s    "
          f"after      {t7['after_s']:8.2f} s    "
          f"{t7['speedup']:.1f}x  (mode={t7['mode']})")

    print(f"campaign store, cold vs warm, {args.runs} runs/scheme ...")
    results["campaign_store"] = bench_campaign_store(args.runs, args.workers)
    cs = results["campaign_store"]
    print(f"  cold   {cs['cold_s']:8.2f} s    "
          f"warm       {cs['warm_s']:8.2f} s    "
          f"{cs['speedup']:.1f}x  "
          f"(warm executed {cs['warm_executed']}/{cs['trials']} trials)")

    print("batch tick engine, scalar vs SoA, N in {1, 32, 256, 1024} ...")
    results["batch_sim"] = bench_batch_sim(args.smoke)

    print("1000-machine fleet tick sweep ...")
    results["fleet_sweep"] = bench_fleet_sweep(args.smoke)
    fleet = results["fleet_sweep"]
    print(f"  {fleet['simulated_machine_hours']:.0f} machine-hours in "
          f"{fleet['wall_s']:.2f} s  "
          f"({fleet['machine_ticks_per_s']:.0f} machine-ticks/s)")

    print("batched ground-testbed trace (paper's 960-hour campaign) ...")
    results["testbed_trace"] = bench_testbed_trace(args.smoke)
    tb = results["testbed_trace"]
    print(f"  {tb['simulated_hours']:.0f} simulated hours in "
          f"{tb['wall_s']:.2f} s  ({tb['alarms']} ILD alarms)")

    print("HMR frontier sweep (repro hmr sweep) ...")
    results["hmr_frontier"] = bench_hmr_frontier(args.smoke)
    hf = results["hmr_frontier"]
    print(f"  cold   {hf['cold_s']:8.2f} s    "
          f"replay     {hf['replay_s']:8.2f} s    "
          f"{hf['replay_speedup']:.1f}x  ({hf['trials']} trials)")

    print("adaptive sampler vs uniform baseline (smoke surface) ...")
    results["adaptive_sampling"] = bench_adaptive_sampling(args.smoke)
    ad = results["adaptive_sampling"]
    print(f"  worst-seed trial ratio {ad['trial_ratio']:.1f}x "
          f"(floor 2.0 = 'half the trials')")

    print("constellation fleet engine (repro.fleet.run_fleet) ...")
    results["fleet_scale"] = bench_fleet_scale(args.smoke)
    fs = results["fleet_scale"]
    print(f"  {fs['fleet']!r}: {fs['craft']} craft, "
          f"{fs['machine_hours']:,.0f} machine-hours in "
          f"{fs['wall_s']:.2f} s  "
          f"({fs['machine_hours_per_s']:,.0f} machine-hours/s; "
          f"{fs['sel_total']} latchups, {fs['craft_lost']} craft lost)")

    floors_path = Path(__file__).resolve().parent.parent / "BENCH_floors.json"
    failures = check_floors(results, floors_path)
    failures += [] if cs["warm_executed"] == 0 else ["warm campaign executed trials"]
    for failure in failures:
        print(f"FAIL: {failure}")
    ok = not failures
    results["pass"] = bool(ok)
    Path(args.out).write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.out}  (pass={ok})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
