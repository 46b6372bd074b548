"""Table 4: relative protected die area per scheme."""

from repro.experiments import table4_protected_area


def test_table4_protected_area(record_experiment):
    table = record_experiment("table4", table4_protected_area.campaign, rounds=3)
    areas = dict(zip(table.column("Reliability Scheme"),
                     table.column("Relative Area Protected")))
    assert areas["None"] == "0%"
    assert areas["Unprotected parallel 3-MR"] == "75%"
    assert areas["3-MR"] == "100%"
    assert areas["EMR"] == "100%"
