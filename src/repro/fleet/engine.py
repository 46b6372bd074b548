"""The constellation scheduler: calibrate, simulate, persist, aggregate.

One :func:`run_fleet` call turns a :class:`FleetSpec` into a store of
per-craft trials and a fleet-level report, in four moves:

1. **Calibrate** — real Table-7 injections per (scheme, target, bits)
   cell become the SEU outcome table (:mod:`repro.fleet.calibration`),
   itself a resumable campaign.
2. **Simulate** — the canonical craft campaign (one trial per
   spacecraft) runs through one :func:`repro.campaign.execute` call
   that routes each pending craft: every craft starts in its band's
   SoA lockstep group (the campaign's ``batch_fn`` over
   :class:`repro.sim.batch.BatchMachines`, one pool task per
   ``(preset, profile, days, dt)`` program), and craft whose pinned
   trial stream samples latchups return
   :class:`~repro.campaign.Diverged` — they leave lockstep (power
   cycles, fine-tick detection episodes, deaths) and re-run as scalar
   trials in the same :func:`repro.parallel.pmap_report` batch as the
   groups, on the run's one worker pool. Both routes share
   one campaign identity — same fingerprints, same
   :class:`TrialStore` entries — so the aggregate report is
   byte-identical at any worker count, batched or not, cold or
   resumed.
3. **Flight-check** — optionally, a small per-cell sample of
   full-fidelity :class:`~repro.missions.simulator.MissionSimulator`
   missions runs chunk-lockstep through ``MissionSimulator.run_batch``
   as a third campaign, anchoring the survey tier's statistics.
4. **Aggregate** — per (orbit band x redundancy scheme) SEL/SDC/
   recovery tables, machine-hours, and a canonical-JSON report
   (:mod:`repro.fleet.report`).

Per-craft physics, survey tier (coarse ``spec.dt`` ticks, default
60 s): the trial stream first samples the craft's SEL arrivals and its
SEU census (Poisson counts split by target weights and MBU fraction —
count-based, because a 40-day LEO mission sees ~5e5 upsets), then
classifies every upset against the calibration table, then hands the
rest of the stream to the tick engine. A craft with no SELs is one
uninterrupted engine run. A craft with SELs advances segment by
segment: amp-class steps trip the PSU breaker instantly (power cycle);
micro-SELs drop to a 1 s fine-tick *detection episode* with injected
quiescent bubbles every 180 s, where the ILD either catches the
residual (power cycle, latency recorded) or the thermal deadline
expires (craft lost).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from ..campaign import (
    Campaign,
    CampaignStatus,
    Diverged,
    Trial,
    TrialStore,
    execute,
    status,
)
from ..errors import ConfigurationError
from ..missions.simulator import MissionConfig, MissionSimulator
from ..parallel import WorkerPool
from ..radiation.thermal import time_to_damage
from ..sim.batch import (
    BatchMachines,
    FleetTicker,
    LaneEvents,
    SelStep,
    TickConfig,
    TickProgram,
)
from ..sim.machine import Machine, MachineSpec
from ..sim.psu import OcpConfig
from .calibration import (
    OUTCOME_ORDER,
    calibrate_fleet,
    calibration_campaign,
)
from .presets import build_utilization, get_preset, get_profile
from .report import build_report
from .spec import FleetSpec, fleet_mode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..ground.supervision import QuarantinedTrial

__all__ = [
    "FleetRunResult",
    "fleet_campaign",
    "fleet_status",
    "flight_campaign",
    "run_fleet",
]

_FLEET_SALT = "fleet-v1"

#: The craft avionics model: tick-engine state only, so the simulated
#: memory system stays small and scalar lanes materialise cheaply.
CRAFT_SPEC = MachineSpec(
    name="fleet-craft",
    dram_size=1 << 16,
    l1_lines=8,
    l2_lines=16,
    flash_capacity=1 << 16,
)

#: Fine-tier detection episodes: 1 s ticks, the threshold
#: ``docs/batch.md`` derives for coarse grids (the rolling-min filter
#: bias at dt >= 1 s eats most of a micro-SEL's 0.055 A budget).
FINE_DT = 1.0
FINE_THRESHOLD_AMPS = 0.02
#: Detection-opportunity cadence during an episode: a 12 s quiescent
#: window (persistence 3 s plus filter settling, with margin) every
#: 60 s. This stands in for the paper's injected 180 s bubbles *plus*
#: the natural idle windows of the mission profile, which the
#: fine tier's constant-activity program does not model individually.
BUBBLE_PERIOD_TICKS = 60
BUBBLE_TICKS = 12
#: A sub-damage latchup that survives this many bubbles undetected is
#: left latched (it is below the detectable residual).
MAX_QUIET_BUBBLES = 3

_OCP = OcpConfig()


def _coarse_config(dt: float) -> TickConfig:
    return TickConfig(dt=dt)


def _fine_config() -> TickConfig:
    return TickConfig(dt=FINE_DT, residual_threshold_amps=FINE_THRESHOLD_AMPS)


# ----------------------------------------------------------------------
# Event sampling and SEU classification (identical draw order in the
# scalar and batched routes — this is the lockstep contract).
# ----------------------------------------------------------------------

def _sample_seu_cells(env, duration_s: float, rng) -> list:
    """Count-based SEU census: total ~ Poisson, split by target weights
    (multinomial) and MBU fraction (binomial), in fixed target order."""
    mean = env.seu_per_day * duration_s / 86400.0
    total = int(rng.poisson(mean))
    targets = sorted(env.target_weights, key=lambda t: t.value)
    weights = np.array([env.target_weights[t] for t in targets], dtype=float)
    weights = weights / weights.sum()
    per_target = rng.multinomial(total, weights)
    mbu = rng.binomial(per_target, env.mbu_fraction)
    cells = []
    for i, target in enumerate(targets):
        cells.append((target.value, 1, int(per_target[i] - mbu[i])))
    for i, target in enumerate(targets):
        cells.append((target.value, 2, int(mbu[i])))
    return cells


def _classify_seus(cells, calib: dict, scheme: str, rng) -> dict:
    """Multinomial outcome draw per census cell, in cell order."""
    out = {k: 0 for k in OUTCOME_ORDER}
    table = calib[scheme]
    for target, bits, count in cells:
        probs = np.asarray(table[target][str(bits)], dtype=float)
        draws = rng.multinomial(count, probs)
        for key, n in zip(OUTCOME_ORDER, draws):
            out[key] += int(n)
    return out


def _reduce(
    item,
    *,
    survived: bool,
    machine_hours: float,
    sels: dict,
    seu: dict,
    alarms: int,
    false_alarms: int,
    power_cycles: int,
    downtime_s: float,
    detections: int,
    detect_latency_s: float,
    energy_j: float,
) -> dict:
    # Observable SEU errors each demand a software reboot; counted but
    # (matching MissionSimulator's accounting) not charged as downtime.
    reboots = int(seu["error"])
    return {
        "preset": item["params"]["preset"],
        "scheme": item["params"]["scheme"],
        "profile": item["params"]["profile"],
        "survived": bool(survived),
        "machine_hours": float(machine_hours),
        "sels": sels,
        "seu": seu,
        "alarms": int(alarms),
        "false_alarms": int(false_alarms),
        "power_cycles": int(power_cycles),
        "reboots": reboots,
        "downtime_s": float(downtime_s),
        "detections": int(detections),
        "detect_latency_s": float(detect_latency_s),
        "energy_j": float(energy_j),
    }


# ----------------------------------------------------------------------
# The scalar craft trial (also the batched route's divergence fallback)
# ----------------------------------------------------------------------

def _craft_trial(item, rng, tracer):
    env = get_preset(item["params"]["preset"]).environment
    profile = get_profile(item["params"]["profile"])
    dt = item["dt"]
    duration_s = item["params"]["days"] * 86400.0
    ticks = max(1, int(round(duration_s / dt)))

    sel_events = env.sample_sel_events(duration_s, rng)
    cells = _sample_seu_cells(env, duration_s, rng)
    seu = _classify_seus(cells, item["calib"], item["params"]["scheme"], rng)
    util = build_utilization(profile, ticks, CRAFT_SPEC.n_cores, dt)
    # The craft's scheme, as the fixed HMR mode it flies: replica cores
    # held hot are a standing draw on the board (energy accounting).
    mode = fleet_mode(item["params"]["scheme"]).as_tick_mode()

    if not sel_events:
        machine = Machine(CRAFT_SPEC, seed=0)
        machine.rng = rng
        ticker = FleetTicker(machine, _coarse_config(dt), mode=mode)
        report = ticker.run(TickProgram(util))
        n_alarms = len(report.alarms)
        return _reduce(
            item,
            survived=True,
            machine_hours=ticks * dt / 3600.0,
            sels={"total": 0, "ocp": 0, "ild": 0, "latched": 0, "fatal": 0},
            seu=seu,
            alarms=n_alarms,
            false_alarms=n_alarms,
            power_cycles=0,
            downtime_s=0.0,
            detections=0,
            detect_latency_s=0.0,
            energy_j=float(ticker.state.energy_joules),
        )
    return _run_sel_craft(
        item, rng, sel_events, seu, util, ticks, dt, profile, mode
    )


def _run_episode(machine, fine_cfg, delta: float, active_util: float,
                 mode=None):
    """A 1 s-tick detection episode for one micro-SEL.

    The machine flies it as a one-lane :class:`BatchMachines`, which
    carries the lane's tick state from one bubble period to the next;
    :meth:`~BatchMachines.sync` writes the lane back into ``machine``
    before it is read or power-cycled.

    Returns ``("cleared", latency_s, downtime_s, energy_j)``,
    ``("died", clock_time, energy_j)`` or ``("latched", energy_j)``.
    """
    onset = machine.clock.now
    chunk = np.full(
        (BUBBLE_PERIOD_TICKS + BUBBLE_TICKS, machine.spec.n_cores),
        active_util,
    )
    chunk[BUBBLE_PERIOD_TICKS:, :] = 0.0
    program = TickProgram(chunk)
    total_after = machine.extra_current_draw + delta
    finite_deadline = np.isfinite(
        time_to_damage(fine_cfg.thermal, total_after)
    )
    batch = BatchMachines([machine], fine_cfg)
    batch.set_lane_modes([mode])
    events = [LaneEvents(sels=(SelStep(0, delta),))]
    bubbles = 0
    while True:
        rep = batch.run(program, events)
        events = None
        batch.sync()
        energy = float(batch.lane_state(0).energy_joules)
        if rep.deaths:
            return ("died", float(rep.deaths[0].time), energy)
        if rep.alarms:
            latency = float(rep.alarms[0].time) - onset
            downtime = machine.power_cycle()
            machine.extra_current_draw = 0.0
            return ("cleared", latency, float(downtime), energy)
        bubbles += 1
        if not finite_deadline and bubbles >= MAX_QUIET_BUBBLES:
            return ("latched", energy)


def _run_sel_craft(item, rng, sel_events, seu, util, ticks, dt, profile,
                   mode=None):
    machine = Machine(CRAFT_SPEC, seed=0)
    machine.rng = rng
    coarse_cfg = _coarse_config(dt)
    fine_cfg = _fine_config()
    max_load = machine.power_model.max_current(machine.spec.n_cores)

    # "total" counts only latchups the craft lived to experience: the
    # disposition counters always sum to it.
    stats = {"total": 0, "ocp": 0, "ild": 0, "latched": 0, "fatal": 0}
    power_cycles = 0
    downtime = 0.0
    alarms = 0
    false_alarms = 0
    detections = 0
    latency_sum = 0.0
    energy = 0.0
    died_at = None
    latched_onset = None
    cur = 0

    def run_coarse(upto: int):
        nonlocal alarms, false_alarms, detections, latency_sum
        nonlocal power_cycles, downtime, energy, cur, latched_onset
        if upto <= cur:
            return
        batch = BatchMachines([machine], coarse_cfg)
        batch.set_lane_modes([mode])
        rep = batch.run(TickProgram(util[cur:upto]))
        batch.sync()
        energy += float(batch.lane_state(0).energy_joules)
        alarms += len(rep.alarms)
        if rep.alarms and machine.extra_current_draw > 0.0:
            # A previously latched micro-SEL finally crossed the
            # coarse threshold: clear it.
            stats["latched"] -= 1
            stats["ild"] += 1
            detections += 1
            if latched_onset is not None:
                latency_sum += float(rep.alarms[0].time) - latched_onset
                latched_onset = None
            downtime_local = machine.power_cycle()
            machine.extra_current_draw = 0.0
            power_cycles += 1
            downtime += float(downtime_local)
        elif rep.alarms:
            false_alarms += len(rep.alarms)
        cur = upto

    for sel in sel_events:
        sel_tick = min(ticks - 1, int(sel.time // dt))
        run_coarse(sel_tick)
        if cur >= ticks:
            break
        stats["total"] += 1
        if machine.extra_current_draw + sel.delta_amps + max_load >= (
            _OCP.trip_threshold_amps
        ):
            # Amp-class step: the PSU breaker clears it instantly.
            stats["ocp"] += 1
            downtime += float(machine.power_cycle())
            machine.extra_current_draw = 0.0
            power_cycles += 1
        else:
            outcome = _run_episode(
                machine, fine_cfg, sel.delta_amps,
                profile.active_utilization, mode=mode,
            )
            if outcome[0] == "cleared":
                stats["ild"] += 1
                detections += 1
                alarms += 1
                latency_sum += outcome[1]
                downtime += outcome[2]
                energy += outcome[3]
                power_cycles += 1
            elif outcome[0] == "died":
                stats["fatal"] += 1
                energy += outcome[2]
                died_at = outcome[1]
                break
            else:  # latched
                stats["latched"] += 1
                latched_onset = machine.clock.now
                energy += outcome[1]
        cur = max(cur, min(ticks, int(np.ceil(machine.clock.now / dt))))
        if cur >= ticks:
            break

    if died_at is None:
        run_coarse(ticks)
        machine_hours = item["params"]["days"] * 24.0
    else:
        machine_hours = died_at / 3600.0
        planned_s = ticks * dt
        frac = min(1.0, died_at / planned_s)
        # Thin the full-mission SEU census down to the time survived.
        seu = {k: int(rng.binomial(seu[k], frac)) for k in OUTCOME_ORDER}

    return _reduce(
        item,
        survived=died_at is None,
        machine_hours=machine_hours,
        sels=stats,
        seu=seu,
        alarms=alarms,
        false_alarms=false_alarms,
        power_cycles=power_cycles,
        downtime_s=downtime,
        detections=detections,
        detect_latency_s=latency_sum,
        energy_j=energy,
    )


# ----------------------------------------------------------------------
# The batched route: zero-SEL craft in SoA lockstep
# ----------------------------------------------------------------------

def _fleet_lockstep_key(item) -> tuple:
    """The one tick program a craft flies: its band's preset, profile,
    mission length and tick."""
    params = item["params"]
    return (params["preset"], params["profile"], params["days"], item["dt"])


def _fleet_batch_fn(items, rngs):
    """Advance one lockstep group of pending craft (one
    :func:`_fleet_lockstep_key`, so one shared program) lane-lockstep.
    Craft that turn out to have SELs return :class:`Diverged` and re-run
    through the scalar path with a fresh stream."""
    key = _fleet_lockstep_key(items[0])
    if any(_fleet_lockstep_key(item) != key for item in items):
        # A wrapper that drops ``lockstep_key`` hands over a whole round.
        raise ConfigurationError(
            "_fleet_batch_fn got craft of more than one lockstep key; "
            "group lanes by _fleet_batch_fn.lockstep_key"
        )
    preset_name, profile_name, days, dt = key
    env = get_preset(preset_name).environment
    profile = get_profile(profile_name)
    duration_s = days * 86400.0
    ticks = max(1, int(round(duration_s / dt)))
    results = [None] * len(items)
    pre = {}
    for i, (item, rng) in enumerate(zip(items, rngs)):
        if env.sample_sel_events(duration_s, rng):
            results[i] = Diverged("sel-bearing craft left lockstep")
            continue
        cells = _sample_seu_cells(env, duration_s, rng)
        pre[i] = _classify_seus(
            cells, item["calib"], item["params"]["scheme"], rng
        )
    if not pre:
        return results
    lanes = list(pre)
    batch = BatchMachines.from_specs(
        CRAFT_SPEC,
        config=_coarse_config(dt),
        rngs=[rngs[i] for i in lanes],
    )
    # A group mixes schemes (the key is band-shaped, not scheme-shaped),
    # so modes apply as per-lane masks.
    batch.set_lane_modes(
        [fleet_mode(items[i]["params"]["scheme"]).as_tick_mode() for i in lanes]
    )
    util = build_utilization(profile, ticks, CRAFT_SPEC.n_cores, dt)
    rep = batch.run(TickProgram(util))
    for lane, i in enumerate(lanes):
        n_alarms = len(rep.lane_alarms(lane))
        results[i] = _reduce(
            items[i],
            survived=True,
            machine_hours=ticks * dt / 3600.0,
            sels={"total": 0, "ocp": 0, "ild": 0, "latched": 0, "fatal": 0},
            seu=pre[i],
            alarms=n_alarms,
            false_alarms=n_alarms,
            power_cycles=0,
            downtime_s=0.0,
            detections=0,
            detect_latency_s=0.0,
            energy_j=float(batch.lane_state(lane).energy_joules),
        )
    return results


_fleet_batch_fn.lockstep_key = _fleet_lockstep_key


# ----------------------------------------------------------------------
# Campaign construction
# ----------------------------------------------------------------------

def _env_snapshot(env) -> dict:
    return {
        "seu_per_day": env.seu_per_day,
        "sel_per_year": env.sel_per_year,
        "mbu_fraction": env.mbu_fraction,
        "sel_delta_amps_range": list(env.sel_delta_amps_range),
    }


def fleet_campaign(spec: FleetSpec, calibration: dict) -> Campaign:
    """The canonical craft campaign: one trial per spacecraft, seed
    index pinned to the grid position so every route (the batched
    group, a diverged craft's scalar re-run, a resume) reproduces the
    same fingerprints and streams. It declares :func:`_fleet_batch_fn`
    as its batch function."""
    trials = []
    for index, params in enumerate(spec.expand()):
        env = get_preset(params["preset"]).environment
        params = dict(params, env=_env_snapshot(env))
        trials.append(
            Trial(
                params=params,
                item={"params": params, "dt": spec.dt, "calib": calibration},
                seed_index=index,
            )
        )
    return Campaign(
        name=f"fleet/{spec.name}",
        trial_fn=_craft_trial,
        trials=trials,
        seed=spec.seed,
        context={"dt": spec.dt, "calibration_runs": spec.calibration_runs},
        salt=_FLEET_SALT,
        batch_fn=_fleet_batch_fn,
    )


# ----------------------------------------------------------------------
# Flight tier: full-fidelity MissionSimulator samples
# ----------------------------------------------------------------------

def _flight_trial(item, rng, tracer):
    config = MissionConfig(
        duration_days=item["days"],
        environment=get_preset(item["preset"]).environment,
        emr_enabled=item["scheme"] == "emr",
        seed=item["seed"],
    )
    return _flight_reduce(item, MissionSimulator(config).run())


def _flight_batch_fn(items, rngs):
    configs = [
        MissionConfig(
            duration_days=item["days"],
            environment=get_preset(item["preset"]).environment,
            emr_enabled=item["scheme"] == "emr",
            seed=item["seed"],
        )
        for item in items
    ]
    reports = MissionSimulator.run_batch(configs)
    return [
        _flight_reduce(item, report)
        for item, report in zip(items, reports)
    ]


def _flight_reduce(item, report) -> dict:
    return {
        "preset": item["preset"],
        "scheme": item["scheme"],
        "survived": bool(report.survived),
        "availability": float(report.availability),
        "downtime_s": float(report.downtime_seconds),
        "power_cycles": int(report.power_cycles),
        "silent_corruptions": int(report.silent_corruptions),
        "workload_runs": int(report.workload_runs),
    }


def flight_campaign(spec: FleetSpec) -> Campaign:
    """Per-(band, scheme) full-fidelity mission samples. Missions own
    their seeds (recorded in params), so the campaign is unseeded. Its
    declared :func:`_flight_batch_fn` has no lockstep key, so a round's
    pending samples are one ``MissionSimulator.run_batch`` pool task."""
    trials = []
    for bi, band in enumerate(spec.bands):
        for scheme in band.schemes:
            if scheme not in ("none", "emr"):
                continue  # MissionSimulator models ILD+EMR, not 3-MR
            for j in range(spec.flight_sample):
                mseed = (
                    spec.seed * 1_000_003
                    + bi * 10_007
                    + (101 if scheme == "emr" else 0)
                    + j
                )
                params = {
                    "band": bi,
                    "preset": band.preset,
                    "scheme": scheme,
                    "sample": j,
                    "days": spec.flight_days,
                    "seed": mseed,
                }
                trials.append(
                    Trial(
                        params=params,
                        item={
                            "preset": band.preset,
                            "scheme": scheme,
                            "days": spec.flight_days,
                            "seed": mseed,
                        },
                    )
                )
    return Campaign(
        name=f"fleet/{spec.name}/flight",
        trial_fn=_flight_trial,
        trials=trials,
        seed=None,
        context={"days": spec.flight_days},
        salt=_FLEET_SALT,
        batch_fn=_flight_batch_fn,
    )


# ----------------------------------------------------------------------
# The scheduler
# ----------------------------------------------------------------------

@dataclass
class FleetRunResult:
    """Everything one fleet invocation produced.

    ``quarantined`` is non-empty only for supervised runs: craft whose
    trials exhausted their retry budget. Their slots in ``values`` are
    ``None`` and the aggregate report covers the surviving craft.
    """

    spec: FleetSpec
    values: "list[object]"
    flight_values: "list[object]"
    report: dict
    executed: int
    store_hits: int
    quarantined: "tuple[QuarantinedTrial, ...]" = ()


def run_fleet(
    spec: FleetSpec,
    *,
    store=None,
    workers: "int | None" = 1,
    metrics=None,
    use_batch: bool = True,
    supervision=None,
    force_pool: bool = False,
) -> FleetRunResult:
    """Simulate (or resume) the whole constellation.

    The calibration, craft and flight campaigns run on one
    :class:`~repro.parallel.WorkerPool` (``workers``, ``force_pool``),
    so each worker is forked once per run. With ``use_batch`` every
    pending craft first rides its band program's SoA lockstep group
    (the craft campaign's declared :func:`_fleet_batch_fn`, one pool
    task per :func:`_fleet_lockstep_key`); craft that sample latchups
    come back :class:`~repro.campaign.Diverged` and re-run through
    :func:`_craft_trial` in the same pooled batch. ``use_batch=False``
    is the scalar reference: the craft campaign runs without its batch
    function, so every craft takes :func:`_craft_trial`.
    ``supervision`` (a
    :class:`repro.ground.GroundPolicy`) hardens the craft batch against
    host faults — crashed or hung workers are replaced and poison craft
    quarantined (under their grid index) instead of killing a
    million-machine-hour run.
    """
    store = TrialStore.coerce(store)
    with WorkerPool(workers, force_pool=force_pool) as pool:
        calib = calibrate_fleet(spec, store=store, metrics=metrics, pool=pool)
        craft_campaign = fleet_campaign(spec, calib)
        if not use_batch:
            craft_campaign = replace(craft_campaign, batch_fn=None)
        craft = execute(
            craft_campaign,
            store=store,
            metrics=metrics,
            supervision=supervision,
            pool=pool,
        )
        executed = craft.executed
        store_hits = craft.store_hits

        flight_values = []
        if spec.flight_sample > 0:
            flight_result = execute(
                flight_campaign(spec), store=store, metrics=metrics, pool=pool,
            )
            executed += flight_result.executed
            store_hits += flight_result.store_hits
            flight_values = list(flight_result.values)

    # Quarantined craft leave None in their grid slots; the aggregate
    # report covers the survivors (the quarantine manifest names the
    # rest, so nothing goes missing silently).
    report = build_report(
        spec, [v for v in craft.values if v is not None], flight_values
    )
    return FleetRunResult(
        spec=spec,
        values=craft.values,
        flight_values=flight_values,
        report=report,
        executed=executed,
        store_hits=store_hits,
        quarantined=craft.quarantined,
    )


def fleet_status(spec: FleetSpec, store) -> "dict[str, CampaignStatus]":
    """Completed-vs-total per fleet campaign, without running anything."""
    store = TrialStore.coerce(store)
    if store is None:
        raise ConfigurationError("fleet status needs a --store directory")
    # The craft campaign's fingerprints do not depend on the
    # calibration values, only on the spec — an empty table suffices.
    craft = fleet_campaign(spec, calibration={})
    out = {
        "calibration": status(calibration_campaign(spec), store),
        "craft": status(craft, store),
    }
    if spec.flight_sample > 0:
        out["flight"] = status(flight_campaign(spec), store)
    return out
