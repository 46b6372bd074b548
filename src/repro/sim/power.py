"""Board power model: activity -> current draw, and energy accounting.

The model is calibrated to the magnitudes the paper reports for its
Raspberry Pi Zero 2 W testbed:

* quiescent draw ≈ 1.70 A, full 4-core load ≈ 4.5 A ("normal current
  draw ranges from 1.7–4.5 A on a commodity ARM SoC", §2.1);
* raw quiescent standard deviation ≈ 0.14 A, dominated by transient
  compute spikes lasting microseconds (§3.1);
* a micro-SEL adds a *persistent* step as small as 0.07 A [45].

Per-core current scales with utilization and super-linearly with
frequency (dynamic power ∝ f·V², and V rises with f), which is what
makes black-box thresholding hopeless: DVFS swings dwarf the SEL step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from .perfcounters import sum_cores


@dataclass(frozen=True)
class PowerModelParams:
    """Calibration constants for :class:`PowerModel`."""

    supply_voltage: float = 5.0
    idle_current: float = 1.70  # board draw with all cores at min freq, idle
    core_max_current: float = 0.62  # one core, 100 % util at max freq
    freq_exponent: float = 1.6  # current ∝ (f / f_max) ** exponent
    static_freq_current: float = 0.06  # per core: clock tree cost at max freq
    dram_current_per_gbs: float = 0.11  # amps per GB/s of DRAM traffic
    disk_current_per_kiops: float = 0.25  # amps per 1000 IO/s
    branch_miss_current: float = 0.02  # extra amps at 100 % miss rate, full load

    def __post_init__(self) -> None:
        if self.supply_voltage <= 0 or self.idle_current < 0:
            raise ConfigurationError("voltage/idle current must be positive")


class PowerModel:
    """Deterministic part of the board's current draw.

    The *measurement* noise and microsecond transient spikes live in
    :mod:`repro.sim.sensor`; radiation-induced extra draw is added by
    :mod:`repro.radiation.sel`. This class is pure activity -> amps.
    """

    def __init__(self, params: "PowerModelParams | None" = None, max_freq: float = 1.4e9):
        self.params = params or PowerModelParams()
        if max_freq <= 0:
            raise ConfigurationError("max_freq must be positive")
        self.max_freq = max_freq

    def board_current(
        self,
        core_utilization: np.ndarray,
        core_freq: np.ndarray,
        dram_gbs=0.0,
        disk_iops=0.0,
        branch_miss_rate=0.0,
    ) -> np.ndarray:
        """Total board current.

        ``core_utilization``/``core_freq`` have shape ``(..., n_cores)``;
        the trailing axis is summed. The other terms broadcast over the
        leading axes.
        """
        p = self.params
        util = np.clip(np.asarray(core_utilization, dtype=float), 0.0, 1.0)
        util_mean = sum_cores(util) / util.shape[-1]
        # Per-core current, in place in ``util``: dynamic
        # (max current * util * rel_freq ** exponent) + static.
        rel_freq = np.asarray(core_freq, dtype=float) / self.max_freq
        util *= p.core_max_current
        util *= rel_freq**p.freq_exponent
        rel_freq *= p.static_freq_current
        util += rel_freq
        total = sum_cores(util)
        total += p.idle_current
        total += p.dram_current_per_gbs * np.asarray(dram_gbs, dtype=float)
        total += p.disk_current_per_kiops * np.asarray(disk_iops, dtype=float) / 1e3
        miss = np.asarray(branch_miss_rate, dtype=float)
        total += p.branch_miss_current * miss * util_mean
        return total

    def quiescent_current(self, n_cores: int, min_freq: float) -> float:
        """Expected draw with every core idle at minimum frequency."""
        util = np.zeros(n_cores)
        freq = np.full(n_cores, min_freq)
        return float(self.board_current(util, freq))

    def max_current(self, n_cores: int) -> float:
        """Expected draw with every core saturated at maximum frequency."""
        util = np.ones(n_cores)
        freq = np.full(n_cores, self.max_freq)
        return float(self.board_current(util, freq, dram_gbs=1.5))


@dataclass
class EnergyReport:
    """Joules consumed by one run, split by source."""

    idle_joules: float
    core_joules: float
    dram_joules: float
    disk_joules: float

    @property
    def total_joules(self) -> float:
        return self.idle_joules + self.core_joules + self.dram_joules + self.disk_joules


class EnergyMeter:
    """Integrates the power model over a run's activity summary.

    The EMR experiments need relative energy (Fig 14), which is the
    integral of current × voltage over the run. Rather than tick the
    power model, the meter takes the run's aggregate activity — wall
    time, per-core busy time, DRAM bytes moved, disk IOs — and applies
    the same coefficients analytically.
    """

    def __init__(self, model: "PowerModel | None" = None) -> None:
        self.model = model or PowerModel()

    def measure(
        self,
        wall_seconds: float,
        core_busy_seconds: "dict[int, float] | list[float]",
        dram_bytes: int = 0,
        disk_ios: int = 0,
        busy_freq: "float | None" = None,
    ) -> EnergyReport:
        if wall_seconds < 0:
            raise ConfigurationError("wall time must be >= 0")
        p = self.model.params
        v = p.supply_voltage
        busy_freq = busy_freq if busy_freq is not None else self.model.max_freq
        rel = busy_freq / self.model.max_freq
        per_core_current = (
            p.core_max_current * rel**p.freq_exponent + p.static_freq_current * rel
        )
        busy_values = (
            list(core_busy_seconds.values())
            if isinstance(core_busy_seconds, dict)
            else list(core_busy_seconds)
        )
        for busy in busy_values:
            if busy < 0:
                raise ConfigurationError("core busy time must be >= 0")
        idle_joules = v * p.idle_current * wall_seconds
        core_joules = v * per_core_current * sum(busy_values)
        dram_joules = v * p.dram_current_per_gbs * (dram_bytes / 1e9)
        disk_joules = v * p.disk_current_per_kiops * disk_ios * 1e-3 * 0.002
        return EnergyReport(idle_joules, core_joules, dram_joules, disk_joules)
