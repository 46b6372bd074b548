"""Pinned bytes of telemetry generation and ILD scoring.

A seeded :meth:`TraceGenerator.generate` run covers housekeeping
chores, a ``freq_override`` segment, an SEL step that ends and one
that stays open, and ``extra_baseline_amps``. Every array the trace
carries is hashed, as are the coefficients :func:`train_ild` fits and
the detections and alarm masks :meth:`IldDetector.process` returns
over two contiguous chunks (so the residual tail and the alarm latch
cross a chunk boundary). Any rework of the telemetry or ILD kernels
must keep every RNG draw and every floating-point operation order, so
these literals must not move.

Regenerate the table with ``python tests/test_telemetry_pin.py`` (with
``src`` on ``PYTHONPATH``) only when a change is meant to move it.
"""

import hashlib

import numpy as np

from repro.core.ild import train_ild
from repro.sim import (
    ActivitySegment,
    CurrentStep,
    TelemetryConfig,
    TraceGenerator,
    quiescent_segment,
)
from repro.sim.telemetry import HousekeepingParams

HOUSEKEEPING = HousekeepingParams(events_per_hour=1800.0)


def _digest(array) -> str:
    array = np.ascontiguousarray(array)
    h = hashlib.sha256(f"{array.dtype.str}{array.shape}".encode())
    h.update(array.tobytes())
    return h.hexdigest()


def _busy(duration, util=0.7, **kwargs):
    return ActivitySegment(duration=duration, core_util=(util,) * 4, dram_gbs=0.6,
                           disk_read_iops=40.0, **kwargs)


def _trace_digests(trace) -> dict:
    return {
        "feature_matrix": _digest(trace.counters.feature_matrix()),
        "true_current": _digest(trace.true_current),
        "fine_samples": _digest(trace.fine_samples),
        "sel_delta": _digest(trace.sel_delta),
        "labels": _digest(trace.labels),
        "quiescent_truth": _digest(trace.quiescent_truth),
        "label_names": list(trace.label_names),
    }


def _run() -> dict:
    generator = TraceGenerator(TelemetryConfig(tick=2e-3))
    pinned = _busy(4.0, util=0.3, label="pinned", freq_override=0.9e9)
    training = generator.generate(
        [quiescent_segment(20.0), _busy(5.0), quiescent_segment(15.0), pinned],
        rng=np.random.default_rng(1),
        housekeeping=HOUSEKEEPING,
    )
    detector = train_ild(training)
    regression = detector.model._regression

    first = generator.generate(
        [quiescent_segment(10.0), _busy(3.0), quiescent_segment(12.0)],
        rng=np.random.default_rng(2),
        current_steps=[CurrentStep(2.0, 0.09, end=6.0), CurrentStep(18.0, 0.12)],
        housekeeping=HOUSEKEEPING,
        extra_baseline_amps=0.01,
    )
    second = generator.generate(
        [quiescent_segment(8.0), pinned],
        rng=np.random.default_rng(3),
        current_steps=[CurrentStep(0.0, 0.12)],
        housekeeping=HOUSEKEEPING,
        extra_baseline_amps=0.01,
        start_time=first.duration,
    )
    chunks = []
    for trace in (first, second):
        detections = detector.process(trace)
        chunks.append({
            "detections": [(repr(d.time), repr(d.mean_residual)) for d in detections],
            "alarm_mask": _digest(detector.last_alarm_mask),
        })
    return {
        "training": _trace_digests(training),
        "first": _trace_digests(first),
        "second": _trace_digests(second),
        "coef": _digest(regression.coef_),
        "intercept": repr(regression.intercept_),
        "max_instruction_rate": repr(detector.quiescence.max_instruction_rate),
        "chunks": chunks,
    }


# Recorded before the counter frame became one matrix and the power,
# sensor and rolling-minimum kernels went in place.
PINNED = {'training': {'feature_matrix': 'dac3c7b774fcbcc5e1b326851231ffdff95d5c0ae1c537d2451a6c61748b48e6',
                       'true_current': '3340342d36f754bf63df5be2611432c2bbcfc6af9883d0f3e918200b495cdfb9',
                       'fine_samples': 'b442f7eb11b74ca162d0c32105a3ec37bc3376d06aea471597c5c9893ee2d530',
                       'sel_delta': '9179de0f826ba6ea77b27de01684f9d8a89042d311415f142819e42ce9d4f0f5',
                       'labels': 'f942f3b8d0f0ef9f37ec42acb7c822eb12238f37dde8c747570f3578214d3264',
                       'quiescent_truth': '5c055fb4a529cf9b6d715c58fea232c517eb077afffe6f842a718c7dba7408fd',
                       'label_names': ['quiescent', 'workload', 'pinned']},
          'first': {'feature_matrix': 'e511adbab6606c7303d4afc2aa19030aec0f7b05e903053c50644f4765d3b1d5',
                    'true_current': 'ffd59ae6762b84c67daf5520b62b85dcf3207ce578682327b3af092ce91457c9',
                    'fine_samples': 'a7fb46de5e61a0d58fa79605bc1015b8af9e17dec044a9f4489125754e447f0c',
                    'sel_delta': '1c0f599c31a22d5b92f16d84489453a344dc7b6db531b500e73ec5395fcede68',
                    'labels': '51cb2040dd8946d8371cd54bd6574ff8dd000a9f125d7551610da826e26f216c',
                    'quiescent_truth': 'fe1f7b0300e2cb8ba0582c4667c123eb1c30b79db4a0b4b82d98f6b29984ffa0',
                    'label_names': ['quiescent', 'workload']},
          'second': {'feature_matrix': '9c8972b05f8b3532d552f269e2210d9e49a2d18cb734c8e09d60c5baf30fc1f4',
                     'true_current': '477c829fb48f9eda6c787a099cf13d7c8ebc49a055745e7257e671feb371db24',
                     'fine_samples': 'ee3889d88e563dc71d330e74cbc4416814f54399f3e9fe734624d68184f0536f',
                     'sel_delta': 'e06c33db7ae8087e680f67adb5ab9a89db6c9d22dcef872a4b94661ec17f0faa',
                     'labels': 'b7e1f90125d1e99df3682257b4afa7fa839a8d89b8a6de97590cd2b87f071598',
                     'quiescent_truth': 'bc552c1205858c73c072ffa14a89ead864e82f806a581b08b0d727c43cdf6849',
                     'label_names': ['quiescent', 'pinned']},
          'coef': '1fea1c4a3df76b91b1e2672311d33ec9706f153c2090ab39bc27f802ca11810d',
          'intercept': '1.5609396614476165',
          'max_instruction_rate': '1470860559.3214262',
          'chunks': [{'detections': [('3.451', '0.05502543845134594'),
                                     ('19.143', '0.055057091647610135')],
                      'alarm_mask': '21e42a8d7f146b853744999d19c07acd73eb2261d0678b3337200c240211344b'},
                     {'detections': [],
                      'alarm_mask': 'bc552c1205858c73c072ffa14a89ead864e82f806a581b08b0d727c43cdf6849'}]}


def test_telemetry_and_ild_bytes_are_pinned():
    assert _run() == PINNED


if __name__ == "__main__":
    import pprint

    pprint.pprint(_run(), width=88, sort_dicts=False)
