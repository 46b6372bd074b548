"""Table 2: ILD vs. black-box baselines, FN/FP rates."""

from repro.experiments import table2_ild_accuracy


def test_table2_ild_accuracy(record_experiment):
    table = record_experiment("table2", table2_ild_accuracy.campaign)
    fn_row = table.rows[0]
    fp_row = table.rows[1]
    # Column 1 is ILD: zero missed latchups, near-zero false alarms.
    assert fn_row[1] == "0.0%"
    assert float(fp_row[1].rstrip("%")) < 1.0
    # Every baseline misses latchups ILD catches.
    baseline_fns = [float(cell.rstrip("%")) for cell in fn_row[2:]]
    assert min(baseline_fns) > 10.0
