"""Table 2: ILD vs. black-box baselines, FN/FP rates.

Paper protocol (§4.1.1): latchups of +0.07 A emulated once per episode
over a long campaign on the Raspberry-Pi-class testbed running flight
software; compare ILD against a current-only random forest and static
thresholds.

Paper result: ILD 0.00 % FN / 0.02 % FP; random forest 35 % / 62 %;
static thresholds 38–62 % FN with 28–41 % FP.
"""

from __future__ import annotations

from dataclasses import replace

from ..analysis.report import Table
from ..campaign import Campaign
from ..obs import LATENCY_BUCKETS_S
from .common import SelBenchConfig, SelTestbench, summarize


def campaign(config: "SelBenchConfig | None" = None) -> Campaign:
    """The episode grid, scored by ILD, the random forest and the
    static thresholds."""
    bench = SelTestbench(config)
    detectors: "dict[str, object]" = {"ILD": bench.train_ild()}
    detectors["Random Forest"] = bench.train_random_forest()
    detectors.update(bench.static_baselines())

    def aggregate(values, metrics=None) -> Table:
        summaries = summarize(values, detectors)
        if metrics is not None:
            _tally_metrics(metrics, summaries)
        return build_table(summaries, bench.config)

    return replace(bench.campaign(detectors), aggregate=aggregate)


def build_table(summaries, config: SelBenchConfig) -> Table:
    """Table 2 from per-detector summaries (columns in their order)."""
    table = Table(
        title="Table 2: accuracy of ILD in detecting latchups",
        columns=["metric"] + list(summaries),
    )
    table.add_row(
        "False negative rate",
        *(f"{s.false_negative_rate * 100:.1f}%" for s in summaries.values()),
    )
    table.add_row(
        "False positive rate",
        *(f"{s.false_positive_rate * 100:.1f}%" for s in summaries.values()),
    )
    table.add_row(
        "Spurious alarms / hr",
        *(f"{s.spurious_alarms_per_hour:.2f}" for s in summaries.values()),
    )
    latency = summaries["ILD"].mean_latency()
    detection = (
        f"ILD mean detection latency {latency:.1f} s"
        if latency is not None else "no ILD detections"
    )
    hours = config.n_episodes * config.episode_seconds / 3600.0
    table.notes = (
        f"{config.n_episodes} episodes ({hours:.1f} h simulated), SEL +"
        f"{config.sel_delta_amps:.2f} A per episode; {detection}"
    )
    return table


def _tally_metrics(metrics, summaries) -> None:
    """Fold episode scores into the caller's registry (deterministic:
    built from the aggregated summaries, not from worker processes)."""
    for name, summary in summaries.items():
        key = name.replace(" ", "_").lower()
        metrics.gauge(f"sel.{key}.false_negative_rate").set(
            summary.false_negative_rate
        )
        metrics.gauge(f"sel.{key}.false_positive_rate").set(
            summary.false_positive_rate
        )
        metrics.counter(f"sel.{key}.false_trips").inc(
            sum(s.false_alarms for s in summary.scores)
        )
    ild = summaries.get("ILD")
    if ild is not None:
        histogram = metrics.histogram(
            "sel.ild.detection_latency_s", bounds=LATENCY_BUCKETS_S
        )
        for score in ild.scores:
            if score.detection_latency is not None:
                histogram.observe(score.detection_latency)
