"""Shared experiment machinery.

* :class:`SelTestbench` — the ground SEL rig of §4.1.1: a simulated
  Raspberry-Pi-class board running a flight-software-shaped duty cycle,
  a potentiometer-style latchup injector, and the detector lineup
  (ILD + black-box baselines), evaluated episode by episode so
  hundreds of hours stream through constant memory.
* :func:`run_schemes` — the EMR rig of §4.2.1: run one workload under
  EMR / sequential 3-MR / unprotected parallel 3-MR on fresh machines.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..analysis.metrics import DetectionSummary, EpisodeScore, EpisodeTruth, score_episode
from ..campaign import Campaign, Trial, execute
from ..core.emr import EmrConfig, EmrRuntime, sequential_3mr, unprotected_parallel_3mr
from ..core.emr.runtime import RunResult
from ..core.ild import (
    IldConfig,
    NaiveBayesBaseline,
    RandomForestBaseline,
    RollingMinimumFilter,
    StaticThresholdBaseline,
    inject_bubbles,
    train_ild,
)
from ..errors import ConfigurationError
from ..obs import NULL_OBS, MetricsRegistry, Observability
from ..sim.machine import Machine, SnapshotFactory
from ..sim.telemetry import CurrentStep, TelemetryConfig, TraceGenerator
from ..workloads.base import Workload
from ..workloads.navigation import navigation_schedule


@dataclass(frozen=True)
class SelBenchConfig:
    """Scale knobs for the SEL experiments.

    The paper's run is 960 hours of 1 ms ticks; the defaults here are
    bench-scale (hours at 4 ms ticks) and the full run is the same code
    at ``tick=1e-3, n_episodes=1920, episode_seconds=1800``.
    """

    tick: float = 4e-3
    samples_per_tick: int = 4
    n_cores: int = 4
    episode_seconds: float = 900.0
    n_episodes: int = 12
    training_seconds: float = 1500.0
    sel_delta_amps: float = 0.07
    onset_window: "tuple[float, float]" = (0.35, 0.80)  # fraction of episode
    detection_window_seconds: float = 180.0
    static_offsets: "tuple[float, ...]" = (0.05, 0.10, 0.15)
    #: Quiescent gap between compute bursts. Spacecraft idle most of
    #: the time (§3.1); long gaps make burst arrival genuinely random
    #: relative to SEL onset.
    quiescent_range: "tuple[float, float]" = (180.0, 480.0)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.episode_seconds <= 0 or self.n_episodes <= 0:
            raise ConfigurationError("episode count/length must be positive")


class SelTestbench:
    """Generates episodes and evaluates the detector lineup on them."""

    def __init__(self, config: "SelBenchConfig | None" = None) -> None:
        self.config = config or SelBenchConfig()
        self.generator = TraceGenerator(
            TelemetryConfig(
                tick=self.config.tick,
                samples_per_tick=self.config.samples_per_tick,
                n_cores=self.config.n_cores,
            )
        )
        self._quiescent_stats: "tuple[float, float] | None" = None

    # ------------------------------------------------------------------
    # Schedules and traces
    # ------------------------------------------------------------------
    def _mission_segments(self, duration: float, rng: np.random.Generator):
        segments = navigation_schedule(
            duration,
            self.config.n_cores,
            rng,
            quiescent_range=self.config.quiescent_range,
        )
        return inject_bubbles(segments, n_cores=self.config.n_cores)

    def training_trace(self, rng: "np.random.Generator | None" = None):
        """Ground-calibration trace: mission-shaped, fault-free."""
        rng = rng or np.random.default_rng(self.config.seed)
        return self.generator.generate(
            self._mission_segments(self.config.training_seconds, rng), rng=rng
        )

    def episode(
        self,
        rng: np.random.Generator,
        with_sel: bool = True,
        delta_amps: "float | None" = None,
        start_time: float = 0.0,
    ):
        """One evaluation episode; returns (trace, truth)."""
        cfg = self.config
        onset = None
        steps = []
        if with_sel:
            low, high = cfg.onset_window
            onset = float(rng.uniform(low, high) * cfg.episode_seconds)
            steps = [
                CurrentStep(
                    start=onset, delta_amps=delta_amps or cfg.sel_delta_amps
                )
            ]
        trace = self.generator.generate(
            self._mission_segments(cfg.episode_seconds, rng),
            rng=rng,
            current_steps=steps,
            start_time=start_time,
        )
        truth = EpisodeTruth(
            duration=cfg.episode_seconds,
            sel_onset=onset,
            sel_delta_amps=delta_amps or cfg.sel_delta_amps if with_sel else 0.0,
        )
        return trace, truth

    # ------------------------------------------------------------------
    # Detector lineup
    # ------------------------------------------------------------------
    def quiescent_current_stats(self) -> "tuple[float, float]":
        """(mean, sigma) of filtered quiescent current on ground data."""
        if self._quiescent_stats is None:
            rng = np.random.default_rng(self.config.seed + 7)
            trace = self.training_trace(rng)
            filt = RollingMinimumFilter(4)
            filtered = filt.per_tick(trace.fine_samples, self.config.samples_per_tick)
            filtered = filtered[: trace.n_ticks]
            mask = trace.quiescent_truth
            self._quiescent_stats = (
                float(filtered[mask].mean()),
                float(filtered[mask].std()),
            )
        return self._quiescent_stats

    def train_ild(self, config: "IldConfig | None" = None):
        rng = np.random.default_rng(self.config.seed)
        cfg = config or IldConfig(
            detection_window_seconds=self.config.detection_window_seconds
        )
        return train_ild(
            self.training_trace(rng),
            config=cfg,
            max_instruction_rate=self.generator.max_instruction_rate,
        )

    def _current_only_training_set(self):
        """Black-box training data: *raw* quiescent current labelled
        nominal, the same samples plus the SEL step labelled latchup.
        (Raw, not rolling-min filtered: the filter is part of
        Radshield, not of the prior-art baselines.)"""
        rng = np.random.default_rng(self.config.seed + 13)
        trace = self.training_trace(rng)
        raw = trace.measured_per_tick()
        nominal = raw[trace.quiescent_truth]
        sel = nominal + self.config.sel_delta_amps
        return nominal, sel

    def train_random_forest(self, seed: int = 0) -> RandomForestBaseline:
        baseline = RandomForestBaseline(n_trees=15, seed=seed)
        nominal, sel = self._current_only_training_set()
        # Subsample: the forest needs class structure, not volume.
        step = max(1, len(nominal) // 4000)
        baseline.train(nominal[::step], sel[::step])
        return baseline

    def train_naive_bayes(self) -> NaiveBayesBaseline:
        baseline = NaiveBayesBaseline()
        nominal, sel = self._current_only_training_set()
        step = max(1, len(nominal) // 4000)
        baseline.train(nominal[::step], sel[::step])
        return baseline

    def static_baselines(self) -> "dict[str, StaticThresholdBaseline]":
        mean, _sigma = self.quiescent_current_stats()
        out = {}
        for offset in self.config.static_offsets:
            threshold = mean + offset
            out[f"static {threshold:.2f}A"] = StaticThresholdBaseline(threshold)
        return out

    # ------------------------------------------------------------------
    # Evaluation loop
    # ------------------------------------------------------------------
    def campaign(
        self,
        detectors: "dict[str, object]",
        n_episodes: "int | None" = None,
        with_sel: bool = True,
        delta_amps: "float | None" = None,
    ) -> Campaign:
        """Declarative episode grid behind :meth:`evaluate`.

        One trial per episode; the seed root ``seed + 1000`` with the
        episode index as spawn key reproduces the historical
        ``pmap(seed=...)`` streams exactly, so results are stable
        across worker counts and across resumes from a trial store.
        """
        cfg = self.config
        episodes = n_episodes or cfg.n_episodes
        item = (self, detectors, with_sel, delta_amps)
        return Campaign(
            name="sel-evaluate",
            trial_fn=_evaluate_episode,
            trials=[
                Trial(params={"episode": i}, item=item) for i in range(episodes)
            ],
            seed=cfg.seed + 1000,
            context={
                "config": asdict(cfg),
                "detectors": {
                    name: type(det).__name__ for name, det in detectors.items()
                },
                "with_sel": with_sel,
                "delta_amps": delta_amps,
            },
            encode=_encode_episode_scores,
            decode=_decode_episode_scores,
        )

    def evaluate(
        self,
        detectors: "dict[str, object]",
        n_episodes: "int | None" = None,
        with_sel: bool = True,
        delta_amps: "float | None" = None,
        workers: "int | None" = 1,
        trace_path: "str | None" = None,
        store=None,
        metrics: "MetricsRegistry | None" = None,
    ) -> "dict[str, DetectionSummary]":
        """Score every detector episode by episode.

        Episodes are independent: each draws its schedule, noise, and
        SEL onset from its own generator spawned off ``seed + 1000``,
        so serial and parallel evaluation produce identical summaries
        (aggregation happens in episode order either way). With
        ``trace_path``, each episode records the SEL ground truth
        (``inject.sel``) and the ILD pipeline's spans/detections into
        one merged JSONL trace. With ``store``, completed episodes are
        kept in the trial store and skipped on re-runs.
        """
        summaries = {name: DetectionSummary() for name in detectors}
        result = execute(
            self.campaign(
                detectors, n_episodes=n_episodes, with_sel=with_sel,
                delta_amps=delta_amps,
            ),
            workers=workers, trace_path=trace_path, store=store,
            metrics=metrics,
        )
        for episode_scores in result.values:
            for name, score in episode_scores:
                summaries[name].add(score)
        return summaries


def _evaluate_episode(
    task, rng: np.random.Generator, tracer: "object | None" = None
) -> "list[tuple[str, object]]":
    """Generate one episode and score every detector on it.

    Top-level (picklable) worker for :meth:`SelTestbench.evaluate`;
    detectors arrive as pickled copies under the pool, so their
    streaming state never leaks between episodes or processes. The
    optional ``tracer`` (built by the campaign engine when the run
    traces) records the SEL truth and is handed to every detector that
    carries an ``obs`` attribute (the ILD pipeline instruments itself).
    """
    bench, detectors, with_sel, delta_amps = task
    cfg = bench.config
    obs = NULL_OBS
    if tracer is not None:
        obs = Observability(tracer=tracer, metrics=MetricsRegistry())
    trace, truth = bench.episode(rng, with_sel=with_sel, delta_amps=delta_amps)
    if obs.enabled and truth.sel_onset is not None:
        obs.tracer.event(
            "inject.sel", t=float(truth.sel_onset),
            delta_amps=float(truth.sel_delta_amps),
        )
    onset_tick = (
        int(truth.sel_onset / cfg.tick) if truth.sel_onset is not None
        else trace.n_ticks
    )
    scores = []
    for name, detector in detectors.items():
        reset = getattr(detector, "reset", None)
        if reset is not None:
            reset()
        saved_obs = getattr(detector, "obs", None)
        if saved_obs is not None:
            detector.obs = obs
        detections = detector.process(trace)
        if saved_obs is not None:
            detector.obs = saved_obs
        mask = getattr(detector, "last_alarm_mask", None)
        if mask is not None and len(mask):
            pre = mask[:onset_tick]
            alarm_ticks, total_ticks = int(pre.sum()), len(pre)
        else:
            alarm_ticks, total_ticks = 0, 0
        scores.append(
            (
                name,
                score_episode(
                    detections, truth,
                    detection_window=cfg.detection_window_seconds,
                    pre_onset_alarm_ticks=alarm_ticks,
                    pre_onset_ticks=total_ticks,
                ),
            )
        )
    return scores


def _encode_episode_scores(scores) -> "list[dict]":
    """JSON-safe form of one episode's ``[(name, EpisodeScore)]``."""
    return [
        {
            "name": name,
            "truth": {
                "duration": score.truth.duration,
                "sel_onset": score.truth.sel_onset,
                "sel_delta_amps": score.truth.sel_delta_amps,
            },
            "detected": score.detected,
            "detection_latency": score.detection_latency,
            "false_alarms": score.false_alarms,
            "pre_onset_alarm_ticks": score.pre_onset_alarm_ticks,
            "pre_onset_ticks": score.pre_onset_ticks,
        }
        for name, score in scores
    ]


def _decode_episode_scores(data) -> "list[tuple[str, EpisodeScore]]":
    return [
        (
            entry["name"],
            EpisodeScore(
                truth=EpisodeTruth(**entry["truth"]),
                detected=entry["detected"],
                detection_latency=entry["detection_latency"],
                false_alarms=entry["false_alarms"],
                pre_onset_alarm_ticks=entry["pre_onset_alarm_ticks"],
                pre_onset_ticks=entry["pre_onset_ticks"],
            ),
        )
        for entry in data
    ]


# ----------------------------------------------------------------------
# EMR scheme runner
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SchemeRun:
    """Results of one workload under the three schemes."""

    workload: str
    emr: RunResult
    sequential: RunResult
    unprotected: RunResult

    @property
    def emr_relative(self) -> float:
        return self.emr.wall_seconds / self.unprotected.wall_seconds

    @property
    def sequential_relative(self) -> float:
        return self.sequential.wall_seconds / self.unprotected.wall_seconds


def run_schemes(
    workload: Workload,
    machine_factory=Machine.rpi_zero2w,
    frontier=None,
    replication_threshold: "float | None" = None,
    scale: int = 1,
    seed: int = 0,
) -> SchemeRun:
    """Run EMR and both baselines on identical fresh machines.

    The base factory runs once; each scheme receives a clone stamped
    from the captured :meth:`Machine.snapshot`, so all three schemes
    start from byte-identical state by construction.
    """
    spec = workload.build(np.random.default_rng(seed), scale=scale)
    threshold = (
        replication_threshold
        if replication_threshold is not None
        else workload.default_replication_threshold
    )
    config = EmrConfig(replication_threshold=threshold, frontier=frontier)
    provision = SnapshotFactory(machine_factory)
    emr = EmrRuntime(provision(), workload, config=config).run(spec=spec)
    sequential = sequential_3mr(provision(), workload, spec=spec, config=config)
    unprotected = unprotected_parallel_3mr(
        provision(), workload, spec=spec, config=config
    )
    return SchemeRun(
        workload=workload.name,
        emr=emr,
        sequential=sequential,
        unprotected=unprotected,
    )
