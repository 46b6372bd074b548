"""Pinned-address strike trials: the adaptive sampler's real backend.

Where the Table 7 injector (:mod:`repro.radiation.injector`) samples
its own target per trial, the adaptive sampler needs the opposite:
the *planner* picks the exact ``(domain, region, offset, bit)``
address (importance-sampled over census cells) and the trial must
strike precisely there. :func:`run_pinned_strike` runs one such
trial: a fresh machine, the workload under the unprotected scheme
(``none`` — the scheme whose SDC surface the sensitivity model
learns), one strike through
:meth:`repro.sim.faults.FaultSurface.strike` at a uniformly-chosen
job ordinal, then the standard Table 7 outcome taxonomy.

A planned address may not be live when the strike fires — the census
the planner featurized is a snapshot of a *warmed reference machine*
(:func:`reference_cells`), while occupancy during the actual run
varies with phase. Those strikes raise
:class:`~repro.errors.InvalidAddressError` / ``SimulationError`` and
are classified ``NO_EFFECT`` (dead silicon), exactly as the Table 7
injector treats a particle landing on unoccupied state.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.emr.baselines import single_run
from ..core.emr.jobs import Job
from ..core.emr.runtime import EmrConfig, EmrHooks
from ..errors import (
    DetectedFaultError,
    InvalidAddressError,
    SimulationError,
)
from ..radiation.events import OutcomeClass, classify_outcome
from ..sim.machine import Machine
from ..workloads.base import Workload, WorkloadSpec
from .features import SurfaceCell, cells_from_census

__all__ = [
    "PinnedStrikeTask",
    "StrikeOutcome",
    "decode_strike",
    "encode_strike",
    "reference_cells",
    "run_pinned_strike",
    "strike_is_sdc",
]


@dataclass(frozen=True)
class PinnedStrikeTask:
    """Everything one pinned strike needs, picklable for the pool."""

    workload: Workload
    spec: WorkloadSpec
    golden: "tuple[bytes, ...]"
    domain: str
    region: str
    offset: int
    bit: int
    machine_factory: "object" = Machine.rpi_zero2w
    replication_threshold: float = 0.2


@dataclass
class StrikeOutcome:
    """One pinned strike's classification (Table 7 taxonomy)."""

    outcome: OutcomeClass
    detail: str


class _PinnedStrikeHooks(EmrHooks):
    """Fires exactly one strike at a pinned address and job ordinal."""

    def __init__(
        self, machine: Machine, task: PinnedStrikeTask, job_ordinal: int
    ) -> None:
        self.machine = machine
        self.task = task
        self.job_ordinal = job_ordinal
        self.applied = False
        self.detail = "never fired"
        self._counter = 0

    def before_job(self, runtime, job: Job) -> None:
        if self._counter == self.job_ordinal and not self.applied:
            self._apply()
        self._counter += 1

    def _apply(self) -> None:
        task = self.task
        self.applied = True
        try:
            record = self.machine.fault_surface.strike(
                task.domain, task.region, task.offset, task.bit
            )
        except (InvalidAddressError, SimulationError) as exc:
            # The planned address is not live in this run phase: the
            # particle hit dead silicon.
            self.detail = f"dead silicon: {exc}"
            return
        self.detail = str(record)


def run_pinned_strike(
    task: PinnedStrikeTask, rng, tracer=None
) -> StrikeOutcome:
    """One pinned-strike trial: fresh machine, one strike, one outcome.

    Pure in ``(task, rng)`` like every campaign trial function. The
    strike fires before a uniformly-chosen job (time-uniform within
    the run, matching the paper's injection protocol); only the
    *address* is importance-sampled, and that bias is what the
    Horvitz–Thompson weights correct.
    """
    machine = task.machine_factory()
    n_jobs = max(1, len(task.spec.datasets))
    hooks = _PinnedStrikeHooks(machine, task, int(rng.integers(0, n_jobs)))
    config = EmrConfig(
        replication_threshold=task.replication_threshold,
        raise_on_inconclusive=True,
    )
    error: "str | None" = None
    result = None
    try:
        result = single_run(
            machine, task.workload, spec=task.spec, config=config,
            hooks=hooks,
        )
    except DetectedFaultError as exc:
        error = str(exc)

    return StrikeOutcome(
        outcome=classify_outcome(result, task.golden, error),
        detail=error or hooks.detail,
    )


def encode_strike(outcome: StrikeOutcome) -> dict:
    return {"outcome": outcome.outcome.value, "detail": outcome.detail}


def decode_strike(data: dict) -> StrikeOutcome:
    return StrikeOutcome(
        outcome=OutcomeClass(data["outcome"]), detail=data["detail"]
    )


def strike_is_sdc(value: StrikeOutcome) -> bool:
    """The sensitivity model's training label."""
    return value.outcome is OutcomeClass.SDC


def reference_cells(
    workload: Workload,
    spec: WorkloadSpec,
    machine_factory=Machine.rpi_zero2w,
    *,
    band_bits: int = 1 << 14,
    max_bands: int = 4,
) -> "list[SurfaceCell]":
    """Census cells of a machine warmed by one reference run.

    Runs ``workload`` once (no strike) on a fresh machine so caches,
    DRAM and flash hold representative live state, then bands the
    resulting census. Deterministic for a given
    ``(workload, spec, factory)``, so every process plans over
    identical cells.
    """
    machine = machine_factory()
    single_run(
        machine, workload, spec=spec,
        config=EmrConfig(raise_on_inconclusive=True),
    )
    return cells_from_census(
        machine.fault_surface.census(), band_bits=band_bits,
        max_bands=max_bands,
    )
