"""Table 8: code changes to move each workload from 3-MR to EMR.

Measured as real diff churn between the paired integration snippets in
``repro/analysis/snippets`` (paper: 6–9 net lines per workload).
"""

from __future__ import annotations

from ..analysis.devoverhead import available_workloads, measure_overhead
from ..analysis.report import Table
from ..campaign import Campaign
from .common import report_campaign


def _build(task, rng, tracer=None) -> Table:
    table = Table(
        title="Table 8: net line change to adopt EMR from a 3-MR implementation",
        columns=["Operation", "Net line change", "Added", "Removed"],
    )
    for workload in available_workloads():
        m = measure_overhead(workload)
        table.add_row(workload, m.net_line_change, m.added, m.removed)
    changes = table.column("Net line change")
    table.notes = (
        f"range {min(changes)}-{max(changes)} lines (paper: 6-9); measured by "
        "diffing runnable snippet pairs, comments and blanks excluded"
    )
    return table


def campaign() -> Campaign:
    return report_campaign("table8-dev-overhead", _build)
