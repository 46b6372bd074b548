"""OS-visible performance counters (the Table 1 metric set).

ILD's whole premise is that userspace can *estimate* current draw from
counters Linux already exposes: per-core instruction completion rate,
branch miss rate, CPU frequency, bus cycle rate, cache hit rate, plus
disk read/write IO counts. This module fixes the feature layout used
everywhere (telemetry generation, model training, detection) and
provides adapters from the functional machine's raw PMU counts.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from .core import Core

#: The per-core metrics of Table 1, in canonical order.
PER_CORE_METRICS = (
    "instruction_rate",
    "branch_miss_rate",
    "cpu_freq",
    "bus_cycle_rate",
    "cache_hit_rate",
)

#: The global (non-per-core) metrics of Table 1.
GLOBAL_METRICS = ("disk_read_ios", "disk_write_ios")


def feature_names(n_cores: int) -> tuple:
    """Column names of the ILD feature matrix for an ``n_cores`` machine."""
    if n_cores <= 0:
        raise ConfigurationError("n_cores must be positive")
    names = [
        f"core{c}.{metric}" for c in range(n_cores) for metric in PER_CORE_METRICS
    ]
    names.extend(GLOBAL_METRICS)
    return tuple(names)


def n_features(n_cores: int) -> int:
    return n_cores * len(PER_CORE_METRICS) + len(GLOBAL_METRICS)


def sum_cores(per_core: np.ndarray) -> np.ndarray:
    """Sum over the trailing (core) axis, adding the columns left to
    right: the same bytes as ``per_core.sum(axis=-1)`` for fewer than
    eight cores (numpy's pairwise summation starts at eight), without
    numpy's per-row reduction loop."""
    total = np.positive(per_core[..., 0])  # a copy; a scalar for 1-D input
    for column in range(1, per_core.shape[-1]):
        total += per_core[..., column]
    return total


#: Rows per block when :meth:`CounterFrame.pack` interleaves metrics.
_PACK_ROWS = 2048


def _view(name: str) -> property:
    """A named metric as a view into :attr:`CounterFrame.matrix`."""
    if name in GLOBAL_METRICS:
        column = GLOBAL_METRICS.index(name) - len(GLOBAL_METRICS)
        return property(lambda self: self.matrix[:, column])
    first, step = PER_CORE_METRICS.index(name), len(PER_CORE_METRICS)
    return property(lambda self: self.matrix[:, first : self.n_cores * step : step])


class CounterFrame:
    """Table 1 metrics over ``n_ticks`` sampling intervals.

    The frame is one C-contiguous float64 ``matrix`` of shape
    ``(n_ticks, n_features)`` in :func:`feature_names` column order.
    The seven named metrics are views into it: a per-core metric is an
    ``(n_ticks, n_cores)`` stride over the core blocks, a global one an
    ``(n_ticks,)`` column. Rates are per second; ``cpu_freq`` is in Hz;
    ``cache_hit_rate``/``branch_miss_rate`` are ratios in [0, 1]; disk
    IO columns are IOs per second.
    """

    instruction_rate = _view("instruction_rate")
    branch_miss_rate = _view("branch_miss_rate")
    cpu_freq = _view("cpu_freq")
    bus_cycle_rate = _view("bus_cycle_rate")
    cache_hit_rate = _view("cache_hit_rate")
    disk_read_ios = _view("disk_read_ios")
    disk_write_ios = _view("disk_write_ios")

    def __init__(self, matrix: np.ndarray) -> None:
        per_core = matrix.shape[-1] - len(GLOBAL_METRICS)
        if (matrix.ndim != 2 or matrix.dtype != np.float64 or not matrix.flags.c_contiguous
                or per_core <= 0 or per_core % len(PER_CORE_METRICS)):
            raise ConfigurationError(
                f"need a C-contiguous float64 (n_ticks, n_features) counter matrix, "
                f"got {matrix.dtype} {matrix.shape}"
            )
        self.matrix = matrix

    @classmethod
    def pack(cls, **metrics: np.ndarray) -> "CounterFrame":
        """Copy one array per metric name into a new frame."""
        n_ticks, n_cores = np.shape(metrics["instruction_rate"])
        frame = cls(np.empty((n_ticks, n_features(n_cores))))
        pairs = [(getattr(frame, name), metrics.pop(name))
                 for name in PER_CORE_METRICS + GLOBAL_METRICS]
        if metrics or any(np.shape(values) != view.shape for view, values in pairs):
            raise ConfigurationError("pack takes one array per metric, shaped as its view")
        # Row blocks that stay in cache: each matrix line goes to memory
        # once, not once per metric.
        for lo in range(0, n_ticks, _PACK_ROWS):
            for view, values in pairs:
                view[lo : lo + _PACK_ROWS] = values[lo : lo + _PACK_ROWS]
        return frame

    @property
    def n_ticks(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_cores(self) -> int:
        return (self.matrix.shape[1] - len(GLOBAL_METRICS)) // len(PER_CORE_METRICS)

    def feature_matrix(self) -> np.ndarray:
        """The ``(n_ticks, n_features)`` matrix itself, not a copy."""
        return self.matrix

    def slice(self, mask: np.ndarray) -> "CounterFrame":
        return CounterFrame(np.ascontiguousarray(self.matrix[mask]))

    @staticmethod
    def concatenate(frames: "list[CounterFrame]") -> "CounterFrame":
        if not frames:
            raise ConfigurationError("cannot concatenate zero frames")
        return CounterFrame(np.concatenate([f.matrix for f in frames]))


class PerfCounterSampler:
    """Reads PMU deltas off functional-mode cores at intervals.

    Functional mode advances time in large discrete steps, so the
    sampler converts counter deltas over a span into the same per-second
    rates telemetry mode generates directly.
    """

    def __init__(self, cores: "list[Core]") -> None:
        if not cores:
            raise ConfigurationError("need at least one core")
        self._cores = cores
        self._snapshots = [core.counters.snapshot() for core in cores]
        self._disk_read_ios = 0
        self._disk_write_ios = 0

    def note_disk_ios(self, reads: int = 0, writes: int = 0) -> None:
        self._disk_read_ios += reads
        self._disk_write_ios += writes

    def sample(self, interval_seconds: float) -> CounterFrame:
        """Rates since the previous sample, attributed to one tick."""
        if interval_seconds <= 0:
            raise ConfigurationError("interval must be positive")
        frame = CounterFrame(np.zeros((1, n_features(len(self._cores)))))
        for i, core in enumerate(self._cores):
            delta = core.counters.delta(self._snapshots[i])
            self._snapshots[i] = core.counters.snapshot()
            frame.instruction_rate[0, i] = delta.instructions / interval_seconds
            frame.bus_cycle_rate[0, i] = delta.bus_cycles / interval_seconds
            frame.cpu_freq[0, i] = core.freq
            frame.branch_miss_rate[0, i] = (
                delta.branch_misses / delta.branches if delta.branches else 0.0
            )
            frame.cache_hit_rate[0, i] = (
                delta.cache_hits / delta.cache_references
                if delta.cache_references
                else 1.0
            )
        frame.disk_read_ios[0] = self._disk_read_ios / interval_seconds
        frame.disk_write_ios[0] = self._disk_write_ios / interval_seconds
        self._disk_read_ios = 0
        self._disk_write_ios = 0
        return frame
