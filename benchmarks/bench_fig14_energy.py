"""Fig 14: relative energy of 3-MR, EMR, and Radshield (EMR+ILD)."""

from repro.experiments import fig14_energy


def test_fig14_energy(record_experiment):
    figure = record_experiment("fig14", fig14_energy.campaign)
    names, seq = figure.series["serial_3MR"]
    _, emr = figure.series["EMR"]
    _, shield = figure.series["Radshield (EMR+ILD)"]
    # EMR saves energy vs serial 3-MR on every workload.
    assert all(e < s for e, s in zip(emr, seq))
    # ILD's increment over EMR is marginal (paper's wording).
    assert all(r - e < 0.08 for r, e in zip(shield, emr))
    assert all(r >= e for r, e in zip(shield, emr))
