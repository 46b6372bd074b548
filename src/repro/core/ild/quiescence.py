"""Quiescence detection and bubble injection (§3.1).

Quiescence is when the *payload application* is idle while OS
housekeeping may still run — the only regime in which a 0.07 A step is
visible above activity noise. ILD finds it two ways:

* passively, from CPU load ("we use CPU load to determine when the
  system is quiescent") — total instruction rate below a fraction of
  machine capacity, high enough that housekeeping chores still count
  as quiescent (the white-box model explains their draw);
* actively, by *injecting bubbles*: 3-second pauses forced into
  long-running jobs, at most once per 180-second pause period, giving
  a worst-case 3/180 ≈ 2 % runtime overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ...errors import ConfigurationError
from ...sim.perfcounters import CounterFrame, sum_cores
from ...sim.telemetry import ActivitySegment, quiescent_segment


class QuiescenceDetector:
    """Classifies metric ticks as quiescent from CPU load."""

    def __init__(self, max_instruction_rate: float,
                 utilization_threshold: float = 0.22) -> None:
        if max_instruction_rate <= 0:
            raise ConfigurationError("max_instruction_rate must be positive")
        if not 0 < utilization_threshold < 1:
            raise ConfigurationError("utilization_threshold must be in (0, 1)")
        self.max_instruction_rate = max_instruction_rate
        self.utilization_threshold = utilization_threshold

    def mask(self, frame: CounterFrame) -> np.ndarray:
        """Per-tick quiescence from aggregate instruction rate."""
        total = sum_cores(frame.instruction_rate)
        capacity = self.max_instruction_rate * frame.n_cores
        return total < self.utilization_threshold * capacity


@dataclass(frozen=True)
class BubblePolicy:
    """The 3 s / 180 s bubble cadence."""

    bubble_seconds: float = 3.0
    pause_seconds: float = 180.0

    def __post_init__(self) -> None:
        if self.bubble_seconds <= 0 or self.pause_seconds <= 0:
            raise ConfigurationError("bubble and pause must be positive")
        if self.bubble_seconds >= self.pause_seconds:
            raise ConfigurationError("bubble must be shorter than the pause")

    @property
    def worst_case_overhead(self) -> float:
        """3 ÷ 180 = 2 % (§3.1)."""
        return self.bubble_seconds / self.pause_seconds

    def overhead_seconds_per_hour(self) -> float:
        """Worst case: a bubble per pause period, a full hour of compute."""
        periods_per_hour = 3600.0 / self.pause_seconds
        return periods_per_hour * self.bubble_seconds


def inject_bubbles(
    segments: "list[ActivitySegment]",
    policy: "BubblePolicy | None" = None,
    n_cores: int = 4,
) -> "list[ActivitySegment]":
    """Split long busy segments with quiescent bubbles.

    A busy segment longer than the pause period is cut into
    pause-length slices separated by ``bubble_seconds`` of quiescence
    (labelled ``bubble`` so experiments can attribute the overhead).
    Natural quiescent segments reset the pause timer — "If no SEL is
    detected during a bubble, ILD institutes a pause period of three
    minutes, where no bubbles are injected."
    """
    policy = policy or BubblePolicy()
    out: "list[ActivitySegment]" = []
    since_quiescence = 0.0
    for segment in segments:
        if segment.quiescent:
            out.append(segment)
            since_quiescence = 0.0
            continue
        remaining = segment.duration
        while remaining > 0:
            budget = policy.pause_seconds - since_quiescence
            if budget <= 0:
                bubble = quiescent_segment(policy.bubble_seconds, n_cores)
                out.append(replace(bubble, label="bubble"))
                since_quiescence = 0.0
                continue
            slice_duration = min(remaining, budget)
            out.append(replace(segment, duration=slice_duration))
            remaining -= slice_duration
            since_quiescence += slice_duration
    return out


def bubble_overhead(segments: "list[ActivitySegment]") -> float:
    """Fraction of total time spent in injected bubbles."""
    total = sum(seg.duration for seg in segments)
    bubbles = sum(seg.duration for seg in segments if seg.label == "bubble")
    return bubbles / total if total else 0.0
