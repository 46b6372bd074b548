"""DVFS frequency governor.

Current draw tracks frequency and voltage, so the governor is a large
part of why a static current threshold cannot see a 0.07 A latchup:
frequency scaling alone swings the board's current by amperes (Fig 2).
The model implements an ``ondemand``-style governor: frequency steps up
with utilization and decays when idle.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from .core import CoreSpec


class OndemandGovernor:
    """Maps per-core utilization to a DVFS level, with hysteresis."""

    def __init__(
        self,
        spec: "CoreSpec | None" = None,
        up_threshold: float = 0.80,
        down_threshold: float = 0.30,
    ) -> None:
        self.spec = spec or CoreSpec()
        if not 0 < down_threshold < up_threshold <= 1:
            raise ConfigurationError(
                "need 0 < down_threshold < up_threshold <= 1, got "
                f"{down_threshold}, {up_threshold}"
            )
        self.up_threshold = up_threshold
        self.down_threshold = down_threshold

    def steady_state_freq(self, utilization: float) -> float:
        """Frequency the governor converges to under constant load."""
        levels = self.spec.freq_levels
        if utilization >= self.up_threshold:
            return levels[-1]
        if utilization <= self.down_threshold:
            return levels[0]
        # Partial load settles proportionally between min and max.
        span = (utilization - self.down_threshold) / (
            self.up_threshold - self.down_threshold
        )
        index = int(round(span * (len(levels) - 1)))
        return levels[index]

    def steady_state_freq_array(self, utilization: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`steady_state_freq` for telemetry generation."""
        levels = np.asarray(self.spec.freq_levels)
        index = np.array(utilization, dtype=float)  # the one working buffer
        index -= self.down_threshold
        index /= self.up_threshold - self.down_threshold
        index *= len(levels) - 1
        np.round(index, out=index)
        np.clip(index, 0, len(levels) - 1, out=index)
        return levels.take(index.astype(np.intp))
