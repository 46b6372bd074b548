"""Radiation environments: how often particles strike, per orbit.

Rates are drawn from the paper's numbers and sources:

* Sea level: SEUs at 2.3e-12 /bit/day (§2.3); effectively zero SELs.
* LEO: ~700,000× the sea-level SEU rate (§2.3); SELs observed across
  decades of missions [37–39].
* Mars surface: CRÈME-MC modeling predicts ~1.6 bit flips/day on a
  Snapdragon 801 (§2.2), and the RAD750 logs about one SEU per sol.
* Deep space: outside any magnetosphere; harsher than either surface.

SEU arrivals are Poisson in time; each event picks a die component
weighted by that component's share of sensitive area (Table 4's die
model lives in :mod:`repro.analysis.vulnerability`; the environment
just carries relative weights).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError
from .events import SelEvent, SeuEvent, SeuTarget

#: Relative sensitive-area weights per target for a commodity SoC
#: (approximating a Snapdragon-class die: most area is cache + DRAM
#: interface; pipelines are small but always active).
DEFAULT_TARGET_WEIGHTS = {
    SeuTarget.DRAM: 0.42,
    SeuTarget.L2_CACHE: 0.25,
    SeuTarget.L1_CACHE: 0.12,
    SeuTarget.PIPELINE: 0.13,
    SeuTarget.POINTER: 0.04,
    SeuTarget.PAGE_CACHE: 0.04,
}


@dataclass(frozen=True)
class RadiationEnvironment:
    """Event-rate description of one mission environment."""

    name: str
    seu_per_day: float  # device-level upsets per day
    sel_per_year: float  # latchups per year
    mbu_fraction: float = 0.08  # fraction of SEUs that are multi-bit
    sel_delta_amps_range: tuple = (0.05, 0.4)
    target_weights: dict = field(default_factory=lambda: dict(DEFAULT_TARGET_WEIGHTS))

    def __post_init__(self) -> None:
        if self.seu_per_day < 0 or self.sel_per_year < 0:
            raise ConfigurationError("rates must be >= 0")
        if not 0 <= self.mbu_fraction <= 1:
            raise ConfigurationError("mbu_fraction must be in [0, 1]")
        total = sum(self.target_weights.values())
        if total <= 0:
            raise ConfigurationError("target weights must sum to > 0")

    def _normalized_weights(self):
        targets = list(self.target_weights)
        weights = np.array([self.target_weights[t] for t in targets], dtype=float)
        return targets, weights / weights.sum()

    def sample_seu_events(
        self, duration_seconds: float, rng: np.random.Generator
    ) -> "list[SeuEvent]":
        """Poisson-sample the upsets striking within a window."""
        if duration_seconds < 0:
            raise ConfigurationError("duration must be >= 0")
        rate_per_second = self.seu_per_day / 86400.0
        count = rng.poisson(rate_per_second * duration_seconds)
        targets, weights = self._normalized_weights()
        events = []
        for time in np.sort(rng.uniform(0, duration_seconds, count)):
            target = targets[rng.choice(len(targets), p=weights)]
            bits = 2 if rng.random() < self.mbu_fraction else 1
            events.append(SeuEvent(time=float(time), target=target, bits=bits))
        return events

    def sample_sel_events(
        self, duration_seconds: float, rng: np.random.Generator
    ) -> "list[SelEvent]":
        """Poisson-sample latchups within a window."""
        if duration_seconds < 0:
            raise ConfigurationError("duration must be >= 0")
        rate_per_second = self.sel_per_year / (365.25 * 86400.0)
        count = rng.poisson(rate_per_second * duration_seconds)
        low, high = self.sel_delta_amps_range
        return [
            SelEvent(time=float(t), delta_amps=float(rng.uniform(low, high)))
            for t in np.sort(rng.uniform(0, duration_seconds, count))
        ]


#: A Snapdragon-class device at sea level: §2.3's 2.3e-12 /bit/day over
#: ~8 Gbit of sensitive state ≈ 0.02 upsets/day.
SEA_LEVEL = RadiationEnvironment(
    name="sea-level", seu_per_day=2.3e-12 * 8e9, sel_per_year=0.0
)

#: LEO: 700,000× the sea-level rate (§2.3); SmallSat operators lose
#: boards to SELs often enough that the paper's collaborator lost one.
LOW_EARTH_ORBIT = RadiationEnvironment(
    name="low-earth-orbit",
    seu_per_day=2.3e-12 * 8e9 * 7e5,
    sel_per_year=2.0,
    sel_delta_amps_range=(0.05, 0.6),
)

#: Mars surface: CRÈME-MC predicts 1.6 flips/day on the Snapdragon 801.
MARS_SURFACE = RadiationEnvironment(
    name="mars-surface", seu_per_day=1.6, sel_per_year=0.8
)

#: Deep space / cruise: no magnetospheric shielding at all.
DEEP_SPACE = RadiationEnvironment(
    name="deep-space", seu_per_day=4.5, sel_per_year=3.5,
    sel_delta_amps_range=(0.05, 1.2),
)

ENVIRONMENTS = {
    env.name: env
    for env in (SEA_LEVEL, LOW_EARTH_ORBIT, MARS_SURFACE, DEEP_SPACE)
}
