"""Ablations beyond the paper: scheduling order, filter window, bubbles."""

from repro.experiments import ablations


def test_ablation_scheduling_order(record_experiment):
    table = record_experiment(
        "ablation_scheduling", ablations.scheduling_order_campaign
    )
    rotated, naive = table.rows
    assert rotated[2] > naive[2]  # balance
    assert rotated[3] < naive[3]  # runtime


def test_ablation_rolling_window(record_experiment):
    table = record_experiment(
        "ablation_rolling_window", ablations.rolling_window_campaign
    )
    sigmas = table.column("filtered sigma (A)")
    assert sigmas[0] > 0.08  # unfiltered noise is hopeless
    assert all(s < 0.03 for s in sigmas[1:])  # any window helps a lot


def test_ablation_bubble_cadence(record_experiment):
    table = record_experiment(
        "ablation_bubbles", ablations.bubble_cadence_campaign, rounds=3
    )
    overheads = table.column("overhead %")
    assert overheads == sorted(overheads, reverse=True)


def test_ablation_redundancy_level(record_experiment):
    table = record_experiment(
        "ablation_redundancy", ablations.redundancy_level_campaign
    )
    outcomes = dict(zip(table.column("executors"),
                        table.column("poisoned replica outcome")))
    assert outcomes[2].startswith("detected")
    assert outcomes[3].startswith("corrected")
    assert outcomes[5].startswith("corrected")
    energies = table.column("energy (J)")
    assert energies == sorted(energies)  # more replicas, more joules
