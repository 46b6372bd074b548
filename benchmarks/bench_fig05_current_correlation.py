"""Fig 5: current vs. CPU frequency and instruction rate (staircase)."""

from repro.experiments import fig05_current_correlation


def test_fig05_current_correlation(record_experiment):
    figure = record_experiment("fig05", fig05_current_correlation.campaign)
    correlation = float(figure.notes.split("=")[1].split("%")[0]) / 100
    assert correlation > 0.97  # paper: 99.7 %
