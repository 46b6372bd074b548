"""Table 6: image-processing runtime breakdown by operation."""

from repro.experiments import table6_breakdown


def test_table6_breakdown(record_experiment):
    table = record_experiment("table6", table6_breakdown.campaign)
    rows = {row[0]: (row[1], row[2]) for row in table.rows}
    seq_disk, emr_disk = rows["Disk Read"]
    # Sequential 3-MR re-reads inputs every pass: ~3x the disk time.
    assert seq_disk > 2.5 * emr_disk
    seq_total, emr_total = rows["Total Runtime"]
    assert emr_total / seq_total < 0.6  # paper: ~0.41
    # Compute dominates EMR's runtime (paper: 96 %).
    assert rows["Compute"][1] / emr_total > 0.6
