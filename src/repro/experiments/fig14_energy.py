"""Fig 14: relative energy of serial 3-MR, EMR, and Radshield
(EMR + ILD), normalized to unprotected parallel 3-MR, DRAM frontier.

Paper shape: EMR saves substantial energy over serial 3-MR on most
workloads (encryption and packet processing best); conflict-heavy DNNs
are the exception; ILD adds only a marginal increment over EMR alone.
"""

from __future__ import annotations

from ..analysis.energy import radshield_energy_joules
from ..analysis.report import Series
from ..campaign import Campaign, Trial
from ..core.emr import Frontier
from ..radiation.injector import workload_identity
from ..workloads import paper_workloads
from .common import run_schemes


def _energy_trial(task, rng, tracer=None) -> dict:
    workload, scale, seed = task
    runs = run_schemes(workload, frontier=Frontier.DRAM, scale=scale, seed=seed)
    base = runs.unprotected.energy.total_joules
    return {
        "name": runs.workload,
        "sequential_relative": runs.sequential.energy.total_joules / base,
        "emr_relative": runs.emr.energy.total_joules / base,
        "radshield_relative": radshield_energy_joules(runs.emr) / base,
    }


def campaign(scale: int = 1, seed: int = 0) -> Campaign:
    return Campaign(
        name="fig14-energy",
        trial_fn=_energy_trial,
        trials=[
            Trial(
                params={"workload": workload_identity(workload),
                        "scale": scale, "seed": seed},
                item=(workload, scale, seed),
            )
            for workload in paper_workloads()
        ],
        context={"frontier": "DRAM"},
        aggregate=_aggregate,
    )


def _aggregate(values, metrics=None) -> Series:
    figure = Series(
        title="Fig 14: relative energy vs. unprotected parallel 3-MR (DRAM frontier)",
        x_label="workload",
        y_label="relative energy",
    )
    names = [value["name"] for value in values]
    seq_rel = [round(value["sequential_relative"], 3) for value in values]
    emr_rel = [round(value["emr_relative"], 3) for value in values]
    shield_rel = [round(value["radshield_relative"], 3) for value in values]
    figure.add("serial_3MR", names, seq_rel)
    figure.add("EMR", names, emr_rel)
    figure.add("Radshield (EMR+ILD)", names, shield_rel)
    ild_increment = max(
        s - e for s, e in zip(shield_rel, emr_rel)
    )
    figure.notes = (
        f"ILD adds at most {ild_increment:.3f} relative energy over EMR "
        "(paper: 'marginal'); serial 3-MR is the energy ceiling"
    )
    return figure
