"""Table 3: worst-case ILD overhead per hour of compute.

Two rows in the paper: the measurement (bubble) overhead when every
quiescent period must be induced, and the additional downtime when a
false-positive reboot fires. Both are analytic functions of the bubble
policy and the machine's reboot time, plus the measured FP rate.
"""

from __future__ import annotations

from dataclasses import replace

from ..analysis.report import Table
from ..campaign import Campaign
from ..core.ild.quiescence import BubblePolicy
from ..sim.machine import MachineSpec
from .common import SelBenchConfig, SelTestbench, summarize


def campaign(
    policy: "BubblePolicy | None" = None,
    config: "SelBenchConfig | None" = None,
) -> Campaign:
    """SEL-free episodes scored by ILD: the measured spurious-alarm
    rate behind the reboot row."""
    policy = policy or BubblePolicy()
    bench = SelTestbench(config or SelBenchConfig(n_episodes=4))

    def aggregate(values, metrics=None) -> Table:
        fp_per_hour = summarize(values, ["ILD"])["ILD"].spurious_alarms_per_hour
        power_cycle = MachineSpec().power_cycle_seconds
        measurement = policy.overhead_seconds_per_hour()
        table = Table(
            title="Table 3: worst-case ILD overhead per hour of compute",
            columns=["Measurement Overhead", "Reboot-Only Overhead"],
        )
        table.add_row(
            f"+{measurement:.0f} s/hr",
            f"+{measurement + fp_per_hour * power_cycle:.0f} s/hr",
        )
        table.notes = (
            f"bubble policy {policy.bubble_seconds:.0f}s per "
            f"{policy.pause_seconds:.0f}s ({policy.worst_case_overhead * 100:.1f}% "
            f"worst case); measured {fp_per_hour:.3f} spurious alarms/hr x "
            f"{power_cycle:.0f}s power cycle. Paper: +72 and +91 s/hr."
        )
        return table

    grid = bench.campaign({"ILD": bench.train_ild()}, with_sel=False)
    return replace(grid, aggregate=aggregate)
