"""Residual-threshold calibration (§3.1).

"a difference between 0.04 A to 0.08 A was tested against simulated
datasets in 0.005 A increments, and 0.055 A presented no false
negative rates while minimizing false positive rates."

The sweep re-runs a ready detector at each candidate threshold over a
set of labelled calibration traces and picks the smallest threshold
with zero false negatives — because "the cost of a false negative
(losing the spacecraft) far outweigh[s] the cost of a false positive
(a spurious reboot)" — breaking ties toward fewer false positives.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ...errors import ConfigurationError
from ...parallel import pmap_report
from ...sim.telemetry import TelemetryTrace
from .detector import IldConfig, IldDetector


@dataclass(frozen=True)
class LabelledTrace:
    """A calibration trace plus its ground truth."""

    trace: TelemetryTrace
    sel_onset: "float | None"  # None = clean trace


@dataclass(frozen=True)
class ThresholdScore:
    threshold_amps: float
    false_negatives: int
    false_positives: int
    sel_traces: int
    clean_traces: int

    @property
    def fn_rate(self) -> float:
        return self.false_negatives / self.sel_traces if self.sel_traces else 0.0

    @property
    def fp_rate(self) -> float:
        return self.false_positives / self.clean_traces if self.clean_traces else 0.0


@dataclass(frozen=True)
class CalibrationResult:
    scores: "tuple[ThresholdScore, ...]"
    chosen: ThresholdScore


def _score_one(
    detector: IldDetector, labelled: LabelledTrace, window_seconds: float
) -> "tuple[int, int]":
    """Returns (false_negative, false_positive) ∈ {0,1} for one trace."""
    detector.reset()
    detections = detector.process(labelled.trace)
    if labelled.sel_onset is None:
        return 0, int(bool(detections))
    in_window = [
        d for d in detections
        if labelled.sel_onset <= d.time <= labelled.sel_onset + window_seconds
    ]
    false_positive = int(any(d.time < labelled.sel_onset for d in detections))
    return int(not in_window), false_positive


def _score_task(task: "tuple[IldDetector, LabelledTrace, float]") -> "tuple[int, int]":
    """Pool-side unit of the calibration grid: one (threshold-ready
    detector, trace) cell. Top-level so it pickles."""
    detector, labelled, window_seconds = task
    return _score_one(detector, labelled, window_seconds)


def sweep_thresholds(
    detector_factory,
    labelled_traces: "list[LabelledTrace]",
    thresholds: "np.ndarray | None" = None,
    base_config: "IldConfig | None" = None,
    workers: "int | None" = 1,
) -> CalibrationResult:
    """Run the paper's 0.04–0.08 A sweep.

    ``detector_factory(config) -> IldDetector`` builds a trained
    detector at a given config (the model itself is threshold-free, so
    factories usually close over one fitted model).

    The threshold × trace grid is embarrassingly parallel and scoring
    is deterministic (no randomness), so any ``workers`` value yields
    identical scores; detectors are built in-process (factories are
    usually closures) and shipped to workers per grid cell.
    """
    if not labelled_traces:
        raise ConfigurationError("need at least one calibration trace")
    base = base_config or IldConfig()
    if thresholds is None:
        thresholds = np.arange(0.040, 0.0801, 0.005)
    sel_traces = sum(1 for lt in labelled_traces if lt.sel_onset is not None)
    clean_traces = len(labelled_traces) - sel_traces
    detectors = [
        detector_factory(replace(base, residual_threshold_amps=float(threshold)))
        for threshold in thresholds
    ]
    grid = [
        (detector, labelled, base.detection_window_seconds)
        for detector in detectors
        for labelled in labelled_traces
    ]
    cell_scores = pmap_report(_score_task, grid, workers=workers).values
    scores = []
    n_traces = len(labelled_traces)
    for t_index, threshold in enumerate(thresholds):
        fn = fp = 0
        for dfn, dfp in cell_scores[t_index * n_traces : (t_index + 1) * n_traces]:
            fn += dfn
            fp += dfp
        scores.append(
            ThresholdScore(
                threshold_amps=float(threshold),
                false_negatives=fn,
                false_positives=fp,
                sel_traces=sel_traces,
                clean_traces=max(clean_traces, sel_traces),  # FP chances exist on SEL traces too
            )
        )
    zero_fn = [s for s in scores if s.false_negatives == 0]
    if zero_fn:
        chosen = min(zero_fn, key=lambda s: (s.false_positives, s.threshold_amps))
    else:
        chosen = min(scores, key=lambda s: (s.false_negatives, s.false_positives))
    return CalibrationResult(scores=tuple(scores), chosen=chosen)
