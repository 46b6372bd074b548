"""Fig 1: launch cost vs. LEO satellite count (background data)."""

from repro.experiments import fig01_launch_costs


def test_fig01_launch_costs(record_experiment):
    figure = record_experiment("fig01", fig01_launch_costs.campaign, rounds=3)
    costs = figure.series["cost_per_kg"][1]
    assert costs[0] / costs[-1] > 50  # paper: ~63x decline
