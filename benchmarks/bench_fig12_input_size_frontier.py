"""Fig 12: AES-256 runtime vs. input size on both frontiers."""

from repro.experiments import fig12_input_size


def test_fig12_input_size(record_experiment):
    figure = record_experiment("fig12", fig12_input_size.campaign)
    emr_dram = figure.series["EMR (DRAM)"][1]
    seq_dram = figure.series["3MR (DRAM)"][1]
    emr_disk = figure.series["EMR (disk)"][1]
    seq_disk = figure.series["3MR (disk)"][1]
    # 3-MR consistently slower than EMR on both frontiers.
    assert all(s > e for s, e in zip(seq_dram, emr_dram))
    assert all(s > e for s, e in zip(seq_disk, emr_disk))
    # Disk frontier slower than DRAM at every size.
    assert all(d > m for d, m in zip(emr_disk, emr_dram))
    # The absolute gap grows with input size.
    gaps = [s - e for s, e in zip(seq_dram, emr_dram)]
    assert gaps[-1] > gaps[0]
