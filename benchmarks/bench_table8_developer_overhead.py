"""Table 8: net code change to adopt EMR from 3-MR."""

from repro.experiments import table8_dev_overhead


def test_table8_dev_overhead(record_experiment):
    table = record_experiment("table8", table8_dev_overhead.campaign, rounds=3)
    changes = table.column("Net line change")
    assert len(changes) == 5
    assert all(1 <= change <= 12 for change in changes)  # paper: 6-9
