"""Extension experiments beyond the paper's tables/figures."""

from repro.experiments import extensions


def test_extension_checksum_comparison(record_experiment):
    table = record_experiment(
        "extension_checksum",
        lambda: extensions.checksum_comparison_campaign(injection_runs=6),
    )
    rows = {row[0]: row for row in table.rows}
    # The checksum guard's blind spot: every pipeline strike is an SDC.
    assert rows["Checksum"][3] == 6
    assert rows["EMR"][3] == 0 and rows["3-MR"][3] == 0
    # Serial 3-MR pays ~3x runtime; EMR stays near the unprotected bound.
    assert rows["3-MR"][1] > 2.5
    assert rows["EMR"][1] < 1.5


def test_extension_physics_rates(record_experiment):
    table = record_experiment(
        "extension_physics", extensions.physics_rates_campaign, rounds=2
    )
    rates = dict(zip(table.column("Environment"),
                     (float(v) for v in table.column("Upsets/day (device)"))))
    assert rates["mars-surface"] == __import__("pytest").approx(1.6, rel=0.15)
    assert rates["deep-space"] > rates["low-earth-orbit"] > rates["mars-surface"]
    assert rates["sea-level"] < 1e-3


def test_extension_flightsw_ild(record_experiment):
    table = record_experiment(
        "extension_flightsw", extensions.flightsw_ild_campaign
    )
    rows = dict((row[0], row[1]) for row in table.rows)
    assert rows["False negative rate"] == "0.0%"
    assert float(rows["False positive rate"].rstrip("%")) < 1.0


def test_extension_feature_selection(record_experiment):
    table = record_experiment(
        "extension_features", extensions.feature_selection_campaign
    )
    importances = dict(zip(table.column("Table 1 metric"),
                           table.column("summed importance")))
    # The paper's claim: instruction rate (with its collinear bus-cycle
    # twin) and frequency dominate the model.
    compute_signals = (
        importances["instruction_rate"]
        + importances.get("bus_cycle_rate", 0.0)
        + importances["cpu_freq"]
    )
    assert compute_signals > 0.8


def test_extension_mission_survival(record_experiment):
    table = record_experiment(
        "extension_missions",
        lambda: extensions.mission_survival_campaign(n_seeds=2, duration_days=0.4),
    )
    assert all(v == "yes" for v in table.column("protected survives"))
    assert all(v == 0 for v in table.column("protected SDCs"))
