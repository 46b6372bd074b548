"""Fig 11: EMR and serial 3-MR runtimes vs. unprotected parallel."""

from repro.experiments import fig11_emr_runtime


def test_fig11_emr_runtime(record_experiment):
    figure = record_experiment("fig11", fig11_emr_runtime.campaign)
    _, emr = figure.series["EMR"]
    _, seq = figure.series["serial_3MR"]
    # EMR beats serial 3-MR on every workload; both pay for safety.
    assert all(e < s for e, s in zip(emr, seq))
    assert all(e >= 0.98 for e in emr)  # never faster than unprotected
    assert all(2.0 < s < 3.5 for s in seq)  # serial ~ 3x
    assert max(emr) < 2.0  # paper: worst case +77 %
