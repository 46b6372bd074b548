"""INA3221-style current sensor.

The sensor is where the SEL-detection problem gets hard: the *true*
board current is a clean function of activity, but what ILD sees is a
sampled, quantized, noisy measurement contaminated by microsecond
compute transients. The paper attacks the transients with a rolling
minimum over the ±250 µs around each measurement, dropping quiescent
σ from 0.14 A to 0.02 A (§3.1); the same filter lives in
:mod:`repro.core.ild.rolling_filter` and is evaluated against traces
produced here.

The sensor model:

* samples at ``sample_period`` (default 250 µs, four per 1 ms tick);
* adds Gaussian measurement/board noise (``noise_sigma``);
* with probability ``spike_probability`` per sample, a transient spike
  of 0.1–1.2 A rides on top (interrupts, housekeeping wakeups, power
  state switches);
* quantizes to the device LSB (1 mA for an INA3221-class part).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError


@dataclass(frozen=True)
class SensorParams:
    sample_period: float = 250e-6
    noise_sigma: float = 0.012
    spike_probability: float = 0.055
    spike_min: float = 0.10
    spike_max: float = 1.20
    lsb: float = 1e-3

    def __post_init__(self) -> None:
        if self.sample_period <= 0:
            raise ConfigurationError("sample_period must be positive")
        if not 0 <= self.spike_probability <= 1:
            raise ConfigurationError("spike_probability must be in [0, 1]")
        if self.spike_min > self.spike_max:
            raise ConfigurationError("spike_min must be <= spike_max")


class CurrentSensor:
    """Turns true current into measured samples."""

    def __init__(self, params: "SensorParams | None" = None) -> None:
        self.params = params or SensorParams()

    def sample(self, true_current: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Measure an array of true currents (one sensor sample each)
        into a new array; ``true_current`` may be a broadcast view."""
        p = self.params
        true_current = np.asarray(true_current, dtype=float)
        measured = rng.normal(0.0, p.noise_sigma, true_current.shape)
        measured += true_current
        spikes = rng.random(true_current.shape) < p.spike_probability
        if spikes.any():
            magnitude = rng.uniform(p.spike_min, p.spike_max, int(spikes.sum()))
            measured[spikes] += magnitude
        np.maximum(measured, 0.0, out=measured)
        measured /= p.lsb
        np.round(measured, out=measured)
        measured *= p.lsb
        return measured

    def oversample(
        self,
        tick_current: np.ndarray,
        samples_per_tick: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Expand per-tick true currents into fine sensor samples.

        Returns shape ``(len(tick_current) * samples_per_tick,)``. The
        true current is held constant within a tick (ticks are 1 ms;
        activity changes slower than that), but noise and spikes are
        drawn independently per fine sample — which is exactly the
        structure the rolling-minimum filter exploits.
        """
        if samples_per_tick <= 0:
            raise ConfigurationError("samples_per_tick must be positive")
        column = np.asarray(tick_current, dtype=float).reshape(-1, 1)
        held = np.broadcast_to(column, (len(column), samples_per_tick))
        return self.sample(held, rng).reshape(-1)
