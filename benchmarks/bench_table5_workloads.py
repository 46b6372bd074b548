"""Table 5: workload suite and automatically-chosen replication."""

from repro.experiments import table5_workloads


def test_table5_workloads(record_experiment):
    table = record_experiment("table5", table5_workloads.campaign)
    assert len(table.rows) == 5
    # EMR's frequency rule reproduces the paper's strategy everywhere.
    assert all(match == "yes" for match in table.column("Match"))
