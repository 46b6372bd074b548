"""Table 4: relative protected circuit area per reliability scheme.

The rows are no longer hand-tabulated: each scheme's figure is derived
from a live :class:`~repro.sim.faults.FaultSurface` census of the
paper's testbed machine. The :class:`~repro.analysis.vulnerability.
DieModel` still supplies the physical area shares; the census supplies
which die buckets hold shared, ECC-less state — the common-mode
exposure that decides what concurrent replication leaves unprotected.
"""

from __future__ import annotations

from dataclasses import asdict, is_dataclass

from ..analysis.report import Table
from ..analysis.vulnerability import DieModel
from ..campaign import Campaign
from ..sim.machine import Machine
from .common import report_campaign


def _build(task, rng, tracer=None) -> Table:
    (die,) = task
    census = Machine.rpi_zero2w().fault_surface.census()
    table = Table(
        title="Table 4: relative protected circuit area (Snapdragon-845-like die)",
        columns=["Reliability Scheme", "Relative Area Protected"],
    )
    rows = (
        ("None", "none"),
        ("Unprotected parallel 3-MR", "unprotected-parallel-3mr"),
        ("3-MR", "3mr"),
        ("EMR", "emr"),
    )
    for label, scheme in rows:
        fraction = die.protected_fraction_from_census(census, scheme)
        table.add_row(label, f"{fraction * 100:.0f}%")
    table.notes = (
        f"die shares: pipelines {die.pipelines:.0%}, L1 {die.l1_caches:.0%}, "
        f"shared cache {die.shared_cache:.0%}, uncore {die.uncore:.0%}"
    )
    return table


def campaign(die: "DieModel | None" = None) -> Campaign:
    die = die or DieModel()
    return report_campaign(
        "table4-protected-area", _build,
        {"die": asdict(die) if is_dataclass(die) else vars(die)}, (die,),
    )
