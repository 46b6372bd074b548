"""Table 7: fault-injection outcomes per scheme."""

from repro.experiments import table7_fault_injection


def test_table7_fault_injection(record_experiment):
    table = record_experiment(
        "table7", lambda: table7_fault_injection.campaign(runs_per_scheme=15)
    )
    rows = {row[0]: row[1:] for row in table.rows}
    # Unprotected runs suffer silent corruption and/or visible errors.
    none_corrected, _, none_error, none_sdc = rows["None"]
    assert none_sdc + none_error > 0
    assert none_corrected == 0
    # Redundancy schemes never commit an SDC (the headline claim).
    for scheme in ("3-MR", "EMR", "EMR + MBU"):
        assert rows[scheme][3] == 0, scheme
