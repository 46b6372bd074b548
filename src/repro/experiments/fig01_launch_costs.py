"""Fig 1: launch cost per kg vs. active LEO satellite count."""

from __future__ import annotations

from ..analysis.launchcosts import (
    cost_decline_factor,
    cost_series,
    satellite_growth_factor,
    satellite_series,
)
from ..analysis.report import Series
from ..campaign import Campaign
from .common import report_campaign


def _build(task, rng, tracer=None) -> Series:
    figure = Series(
        title="Fig 1: cost of launching 1 kg to LEO vs. active LEO satellites",
        x_label="year",
        y_label="$/kg (2023$) | satellites",
    )
    figure.add("cost_per_kg", *cost_series())
    figure.add("active_leo_satellites", *satellite_series())
    figure.notes = (
        f"cost decline {cost_decline_factor():.0f}x (paper: $88K -> $1.4K ≈ 63x); "
        f"satellite count since 2010 up {satellite_growth_factor():.0f}x"
    )
    return figure


def campaign() -> Campaign:
    return report_campaign("fig1-launch-costs", _build)
