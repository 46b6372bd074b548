"""HMR frontier: throughput vs SDC coverage across the mode lattice.

Not a paper figure — the paper deploys one fixed configuration — but
the question its Sec 7 dials beg: what does each point of the hybrid
modular redundancy lattice buy, and what do blended schedules (part of
the workload independent, part voted) trade? One campaign measures
both axes:

* **throughput** — the EMR runtime executes the image workload under
  each policy's mode schedule on the paper's Pi Zero 2 W model;
  throughput is committed output bytes per simulated second;
* **coverage** — per *mode*, real fault injections (the Table 7
  machinery) under that mode's scheme/replication; coverage is the
  fraction of injections that did **not** end in silent data
  corruption. A blend's coverage is the dataset-weighted mix of its
  modes' coverages.

Everything is one resumable campaign: serial, ``--workers N``, the
batched path and a store replay produce byte-identical canonical JSON
(:func:`frontier_json`).
"""

from __future__ import annotations

import json

import numpy as np

from ..analysis.report import Table
from ..campaign import Campaign, Trial
from ..core.emr.runtime import EmrConfig, EmrRuntime
from ..hmr import HMRScheduler, WorkloadPhase, mode_named
from ..radiation.events import OutcomeClass
from ..radiation.injector import (
    CampaignConfig,
    FaultInjectionCampaign,
    run_campaign_trial,
)
from ..sim.machine import Machine
from ..workloads import ImageProcessingWorkload

#: The swept policies: every pure mode plus independent/voted blends,
#: as (policy name, ((mode name, weight), ...)).
FRONTIER_POLICIES = (
    ("independent", (("independent", 1.0),)),
    ("mostly-independent", (("independent", 0.75), ("emr-voted", 0.25))),
    ("balanced", (("independent", 0.5), ("emr-voted", 0.5))),
    ("mostly-voted", (("independent", 0.25), ("emr-voted", 0.75))),
    ("duplex-checkpoint", (("duplex-checkpoint", 1.0),)),
    ("emr-voted", (("emr-voted", 1.0),)),
    ("3mr-lockstep", (("3mr-lockstep", 1.0),)),
)

#: Modes whose coverage the sweep measures with real injections.
COVERAGE_MODES = (
    "independent", "duplex-checkpoint", "emr-voted", "3mr-lockstep"
)


def _default_workload() -> ImageProcessingWorkload:
    return ImageProcessingWorkload(map_size=64, template_size=16, stride=8)


def _schedule(blend, n_datasets: int):
    """The blend's deterministic mode schedule over ``n_datasets``."""
    scheduler = HMRScheduler(
        phases=tuple(
            WorkloadPhase(name, float(weight), mode_named(name))
            for name, weight in blend
        )
    )
    return scheduler.plan_segments(n_datasets)


def _frontier_trial(task, rng, tracer=None) -> dict:
    """One trial of either kind, dispatched on the item's tag."""
    kind = task[0]
    if kind == "throughput":
        _, policy_name, blend, seed = task
        workload = _default_workload()
        spec = workload.build(np.random.default_rng(seed))
        schedule = _schedule(blend, len(spec.datasets))
        runtime = EmrRuntime(
            Machine.rpi_zero2w(seed=seed),
            workload,
            config=EmrConfig(),
        )
        result = runtime.run(spec=spec, mode_schedule=schedule)
        out_bytes = sum(len(blob) for blob in result.outputs)
        return {
            "kind": "throughput",
            "policy": policy_name,
            "bytes": int(out_bytes),
            "wall_seconds": float(result.wall_seconds),
        }
    _, mode_name, inj_task = task
    outcome = run_campaign_trial(inj_task, rng, tracer)
    return {
        "kind": "coverage",
        "mode": mode_name,
        "outcome": outcome.outcome.value,
    }


def _frontier_batch_fn(items, rngs):
    """The batched shard evaluates lanes in pinned-stream order — the
    injection trials have no SoA form, so batching here is about the
    execution path (shared campaign identity, one process), not
    vectorized arithmetic."""
    return [
        _frontier_trial(item, rng) for item, rng in zip(items, rngs)
    ]


def campaign(scale: int = 1, seed: int = 7) -> Campaign:
    """The full sweep as one resumable grid: one throughput trial per
    policy, then ``8 * scale`` injections per coverage mode."""
    runs_per_mode = 8 * max(1, int(scale))
    workload = _default_workload()
    n_datasets = len(workload._window_origins(workload.map_size))
    trials = []
    for policy_name, blend in FRONTIER_POLICIES:
        trials.append(
            Trial(
                params={"kind": "throughput", "policy": policy_name},
                item=("throughput", policy_name, blend, seed),
            )
        )
    for offset, mode_name in enumerate(COVERAGE_MODES):
        mode = mode_named(mode_name)
        injector = FaultInjectionCampaign(
            workload,
            CampaignConfig(
                runs_per_scheme=runs_per_mode,
                replication_threshold=mode.replication_threshold,
                n_executors=max(2, mode.replicas),
            ),
            seed=seed + 1 + offset,
        )
        for trial in injector.trials((mode.scheme,)):
            trials.append(
                Trial(
                    params={
                        "kind": "coverage",
                        "mode": mode_name,
                        "run": trial.params["run"],
                    },
                    item=("coverage", mode_name, trial.item),
                )
            )
    def aggregate(values, metrics=None) -> Table:
        """Fold trial values into the frontier table — pure over the
        grid-ordered values, so every execution path aggregates
        identically."""
        throughput = {
            v["policy"]: v["bytes"] / v["wall_seconds"]
            for v in values
            if v["kind"] == "throughput"
        }
        sdc = {name: 0 for name in COVERAGE_MODES}
        for v in values:
            if (
                v["kind"] == "coverage"
                and v["outcome"] == OutcomeClass.SDC.value
            ):
                sdc[v["mode"]] += 1
        coverage = {
            name: 1.0 - sdc[name] / runs_per_mode
            for name in COVERAGE_MODES
        }
        if metrics is not None:
            for name in COVERAGE_MODES:
                metrics.counter(f"hmr.sdc.{name}").inc(sdc[name])
        table = Table(
            title="HMR frontier: throughput vs SDC coverage per policy",
            columns=[
                "Policy", "Throughput (KiB/s)", "Relative", "SDC coverage",
            ],
        )
        base = throughput["independent"]
        for policy_name, blend in FRONTIER_POLICIES:
            segments = _schedule(blend, n_datasets)
            mixed = sum(
                coverage[seg.name] * seg.datasets for seg in segments
            ) / n_datasets
            table.add_row(
                policy_name,
                round(throughput[policy_name] / 1024.0, 2),
                round(throughput[policy_name] / base, 3),
                round(mixed, 3),
            )
        table.notes = (
            f"{runs_per_mode} injections per mode; blend coverage is the "
            "dataset-weighted mix of its modes' measured coverages; "
            "throughput from the EMR runtime on the Pi Zero 2 W model"
        )
        return table

    return Campaign(
        name="hmr-frontier",
        trial_fn=_frontier_trial,
        trials=trials,
        seed=seed,
        context={"scale": int(scale), "runs_per_mode": runs_per_mode},
        aggregate=aggregate,
    )


def frontier_json(table: Table) -> str:
    """Canonical JSON of the frontier table — the byte-identity
    surface the bench and the CLI compare across execution paths."""
    return json.dumps(
        {
            "title": table.title,
            "columns": table.columns,
            "rows": table.rows,
            "notes": table.notes,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
