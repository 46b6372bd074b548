"""Fig 2: nav-workload current before/after SEL vs. a 4 A threshold."""

from repro.experiments import fig02_sel_current_trace


def test_fig02_sel_current_trace(record_experiment):
    figure = record_experiment("fig02", fig02_sel_current_trace.campaign)
    # The SEL trace's quiescent draw never reaches the threshold, while
    # nominal compute exceeds it: static thresholds cannot win.
    assert "never reaches" in figure.notes
