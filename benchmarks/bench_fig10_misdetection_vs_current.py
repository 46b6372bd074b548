"""Fig 10: ILD misdetection rate vs. latchup current magnitude."""

from repro.experiments import fig10_misdetection


def test_fig10_misdetection(record_experiment):
    figure = record_experiment("fig10", fig10_misdetection.campaign)
    deltas, fn_rates = figure.series["false_negative_rate"]
    by_delta = dict(zip(deltas, fn_rates))
    assert by_delta[0.01] == 1.0  # invisible below the threshold
    # Paper: zero false negatives above ~0.05-0.06 A, comfortably under
    # the smallest measured real SEL (0.07 A).
    assert all(by_delta[d] == 0.0 for d in deltas if d >= 0.065)
