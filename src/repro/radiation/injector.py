"""Synthetic fault-injection campaigns (§4.2.6, Table 7).

The paper injects SEUs with a GDB-based tool "randomly ... within the
runtime of the program, following a uniform distribution based on each
component's runtime and memory overhead", then buckets outcomes into
Corrected / No Effect / Error / SDC. This driver does the same against
the simulated machine — with one upgrade the paper explicitly could
not do: its QEMU memory model made cache injection impossible ("We did
not simulate error injection into the cache"), whereas our cache model
is first-class, so strikes land in the live L1/L2 line copies too.

Outcome taxonomy (per run, one injection):

* ``ERROR`` — the run surfaced a detected failure: a segfault from a
  corrupted job pointer, an ECC double-bit detection, an inconclusive
  vote, or a crash of the scheme itself.
* ``SDC`` — the committed outputs differ from the golden reference and
  nothing noticed. The catastrophic bucket.
* ``CORRECTED`` — redundancy voted a corrupted replica down (ECC
  corrections do *not* count here, matching the paper's accounting).
* ``NO_EFFECT`` — outputs match and no vote was contested (includes
  strikes on dead state and ECC-scrubbed DRAM flips).
"""

from __future__ import annotations

import hashlib
import pickle
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ..campaign import Campaign, Trial, execute
from ..campaign.spec import canonical_json
from ..core.emr import baselines, checksum
from ..core.emr import runtime as emr_runtime
from ..core.emr.jobs import Job
from ..core.emr.runtime import EmrConfig, EmrHooks, RunResult
from ..errors import ConfigurationError, DetectedFaultError, SimulationError
from ..obs import NULL_OBS, MetricsRegistry, Observability
from ..parallel import ParallelReport
from ..sim.machine import Machine
from ..workloads.base import Workload, WorkloadSpec
from .events import OutcomeClass, SeuTarget, classify_outcome
from .seu import flip_dram, flip_l1, flip_l2, poison_pipeline

#: Injection-site weights ≈ (component die share × live time share).
DEFAULT_INJECTION_WEIGHTS = {
    SeuTarget.DRAM: 0.35,
    SeuTarget.L2_CACHE: 0.25,
    SeuTarget.L1_CACHE: 0.10,
    SeuTarget.PIPELINE: 0.20,
    SeuTarget.POINTER: 0.10,
}

#: Which fault-surface domains feed each injectable target's share of
#: a census-derived weighting (POINTER is runtime metadata with no
#: surface domain; it keeps its hand-set share).
_TARGET_DOMAINS = {
    SeuTarget.DRAM: ("dram",),
    SeuTarget.L2_CACHE: ("l2",),
    SeuTarget.L1_CACHE: None,  # every l1[*] domain
    SeuTarget.PIPELINE: None,  # every core* domain
}


def census_injection_weights(
    machine: Machine,
    pointer_weight: float = 0.10,
) -> "dict[SeuTarget, float]":
    """Injection-site weights derived from the machine's live census.

    Each hardware target's weight is proportional to the live bit
    count its fault-surface domains report *right now* — warm the
    machine (stage inputs, run a jobset) before calling, or the cache
    targets will report dead silicon. This is the census-driven
    sensitivity-sweep hook: build a warmed machine, take its weights,
    hand them to :class:`CampaignConfig`.
    """
    census = machine.fault_surface.census()
    bits: "dict[SeuTarget, int]" = {}
    for target in (SeuTarget.DRAM, SeuTarget.L2_CACHE,
                   SeuTarget.L1_CACHE, SeuTarget.PIPELINE):
        domains = _TARGET_DOMAINS[target]
        if domains is None:
            prefix = "l1[" if target is SeuTarget.L1_CACHE else "core"
            total = sum(e.bits for e in census if e.domain.startswith(prefix))
        else:
            total = sum(e.bits for e in census if e.domain in domains)
        bits[target] = total
    live = sum(bits.values())
    if live == 0:
        raise ConfigurationError(
            "machine census reports no live bits; warm the machine before "
            "deriving injection weights"
        )
    hardware_share = 1.0 - pointer_weight
    weights = {
        target: hardware_share * count / live for target, count in bits.items()
    }
    weights[SeuTarget.POINTER] = pointer_weight
    return weights


#: Every scheme a trial can run, by name: the module, the attribute of
#: its entry point, each called as ``runner(machine, workload, spec=,
#: config=, hooks=, obs=)``, and the attribute of the function that
#: takes the same keywords and returns the scheme's
#: :class:`~repro.core.emr.runtime.SchemeRun` before its first job (the
#: injection groups' path). Both are looked up when a trial runs, so a
#: wrapper put on the module attribute sees the call.
SCHEMES = {
    "none": (baselines, "single_run", "start_single_run"),
    "3mr": (baselines, "sequential_3mr", "start_sequential_3mr"),
    "unprotected-parallel": (
        baselines, "unprotected_parallel_3mr", "start_unprotected_parallel_3mr",
    ),
    "emr": (emr_runtime, "emr_protect", "start_emr"),
    "checksum": (checksum, "checksum_protected_run", "start_checksum_run"),
}


@dataclass(frozen=True)
class CampaignConfig:
    runs_per_scheme: int = 20
    bits: int = 1  # 2 = MBU
    replication_threshold: float = 0.2
    #: EMR replicas per job for the ``emr`` scheme (the degradation
    #: policy's economy level drops this to 2). The 3-MR baselines are
    #: structurally triple and ignore it.
    n_executors: int = 3
    weights: "dict[SeuTarget, float]" = field(
        default_factory=lambda: dict(DEFAULT_INJECTION_WEIGHTS)
    )

    def __post_init__(self) -> None:
        if self.runs_per_scheme < 1 or self.bits < 1:
            raise ConfigurationError("runs_per_scheme and bits must be >= 1")
        if self.n_executors < 2:
            raise ConfigurationError("n_executors must be >= 2")


@dataclass
class InjectionOutcome:
    scheme: str
    outcome: OutcomeClass
    target: SeuTarget
    detail: str


class _InjectionHooks(EmrHooks):
    """Applies exactly one strike, at a uniformly-chosen job ordinal.
    ``jobs_run`` is the ordinal of the first job the hooks see (a run
    resumed from a checkpoint has run the jobs before it)."""

    def __init__(
        self,
        machine: Machine,
        target: SeuTarget,
        job_ordinal: int,
        bits: int,
        rng: np.random.Generator,
        obs: Observability = NULL_OBS,
        jobs_run: int = 0,
    ) -> None:
        self.machine = machine
        self.target = target
        self.job_ordinal = job_ordinal
        self.bits = bits
        self.rng = rng
        self.obs = obs
        self.applied = False
        self.detail = "never fired"
        self._counter = jobs_run

    def before_job(self, runtime, job: Job) -> None:
        if self._counter == self.job_ordinal and not self.applied:
            self._apply(job)
        self._counter += 1

    def _apply(self, job: Job) -> None:
        record = None
        try:
            record = self._strike(job)
        except SimulationError as exc:
            # The target had no live state (e.g. a DRAM strike on a
            # storage-frontier run that keeps nothing in DRAM): the
            # particle hit dead silicon.
            self.applied = True
            self.detail = f"{self.target}: {exc}"
            self._record_strike(dead_silicon=True)
            return
        self.applied = True
        self.detail = str(record) if record is not None else f"{self.target}: no live state"
        self._record_strike(dead_silicon=record is None)

    def _record_strike(self, dead_silicon: bool) -> None:
        if not self.obs.enabled:
            return
        self.obs.tracer.event(
            "inject.seu", t=self.machine.clock.now,
            target=self.target.value, bits=self.bits,
            job_ordinal=self.job_ordinal, dead_silicon=dead_silicon,
            detail=self.detail,
        )
        self.obs.metrics.counter("inject.strikes").inc()
        if dead_silicon:
            self.obs.metrics.counter("inject.dead_silicon").inc()

    def _strike(self, job: Job):
        machine, rng = self.machine, self.rng
        record = None
        if self.target is SeuTarget.DRAM:
            record = flip_dram(machine, rng, bits=self.bits)
        elif self.target is SeuTarget.L2_CACHE:
            record = flip_l2(machine, rng, bits=self.bits)
        elif self.target is SeuTarget.L1_CACHE:
            record = flip_l1(machine, rng, group=job.group, bits=self.bits)
        elif self.target is SeuTarget.PIPELINE:
            core_id = job.group if job.group < machine.n_cores else 0
            record = poison_pipeline(machine, rng, core_id=core_id)
        elif self.target is SeuTarget.POINTER:
            role = list(job.pointers)[int(rng.integers(0, len(job.pointers)))]
            offset, length = job.pointers[role]
            bit = int(rng.integers(0, 28))
            job.pointers[role] = (offset ^ (1 << bit), length)
            record = f"pointer {role} bit {bit} of job ds={job.dataset_index}"
        return record


@dataclass(frozen=True)
class TrialTask:
    """Everything one injection trial needs, picklable for the pool."""

    scheme: str
    workload: Workload
    spec: WorkloadSpec
    golden: "tuple[bytes, ...]"
    config: CampaignConfig
    machine_factory: "object"


def _pick_target(weights: "dict[SeuTarget, float]", rng: np.random.Generator) -> SeuTarget:
    targets = list(weights)
    probabilities = np.array([weights[t] for t in targets], dtype=float)
    probabilities /= probabilities.sum()
    return targets[int(rng.choice(len(targets), p=probabilities))]


def _scheme(name: str) -> tuple:
    try:
        return SCHEMES[name]
    except KeyError:
        raise ConfigurationError(f"unknown scheme {name!r}") from None


def _emr_config(task: TrialTask) -> EmrConfig:
    """The scheme configuration of ``task``'s run; the 3-MR baselines
    are structurally triple."""
    return EmrConfig(
        replication_threshold=task.config.replication_threshold,
        n_executors=task.config.n_executors if task.scheme == "emr" else 3,
        raise_on_inconclusive=True,
    )


def _draw_strike(task: TrialTask, rng: np.random.Generator) -> "tuple[SeuTarget, int]":
    """The trial's first draws: its target, then the ordinal of the job
    the strike lands before."""
    target = _pick_target(task.config.weights, rng)
    single_pass = task.scheme in ("none", "checksum")
    n_replicas = 1 if single_pass else _emr_config(task).n_executors
    n_jobs = len(task.spec.datasets) * n_replicas
    return target, int(rng.integers(0, n_jobs))


def _outcome(task, target, hooks, run, obs=NULL_OBS) -> InjectionOutcome:
    """Run the struck run (``run()``) and classify what it produced."""
    result: "RunResult | None" = None
    error: "str | None" = None
    try:
        result = run()
    except DetectedFaultError as exc:
        error = str(exc)
    outcome = classify_outcome(result, task.golden, error)
    if obs.enabled:
        obs.tracer.event(
            "campaign.outcome", t=hooks.machine.clock.now,
            scheme=task.scheme, outcome=outcome.value, target=target.value,
        )
    return InjectionOutcome(
        scheme=task.scheme,
        outcome=outcome,
        target=target,
        detail=error or hooks.detail,
    )


def run_campaign_trial(
    task: TrialTask,
    rng: np.random.Generator,
    tracer: "object | None" = None,
) -> InjectionOutcome:
    """One injection trial, from its machine's first cycle: one
    machine, one strike, one outcome. This is the scalar reference
    path; :func:`run_injection_group` runs a group of trials that share
    their prefix to the same outcomes.

    Pure in ``(task, rng)`` — no closure over campaign state — so it
    runs identically under the process pool and the serial path. With
    ``tracer`` (built by the campaign engine when the campaign
    traces), the trial's injection, any corruption/fault/vote
    records, and the final outcome ride back with the result.
    """
    module, runner_name, _ = _scheme(task.scheme)
    obs = NULL_OBS
    if tracer is not None:
        obs = Observability(tracer=tracer, metrics=MetricsRegistry())
    machine = task.machine_factory()
    target, ordinal = _draw_strike(task, rng)
    hooks = _InjectionHooks(machine, target, ordinal, task.config.bits, rng, obs=obs)
    runner = getattr(module, runner_name)
    return _outcome(
        task, target, hooks,
        lambda: runner(
            machine, task.workload, spec=task.spec,
            config=_emr_config(task), hooks=hooks, obs=obs,
        ),
        obs,
    )


def run_injection_group(
    tasks: "list[TrialTask]", rngs: "list[np.random.Generator]"
) -> "list[InjectionOutcome]":
    """Injection trials of one lockstep key (:func:`injection_lockstep_key`),
    with the generators their scalar trials get: the outcomes
    :func:`run_campaign_trial` gives each of them, in order.

    Every trial of a group runs the same jobs on the same bytes until
    its strike, so the group runs that prefix once. Each lane draws its
    target and job ordinal as the scalar trial does. One fault-free
    golden pass, on the first lane's machine, runs to the largest
    ordinal and checkpoints the run
    (:meth:`~repro.core.emr.runtime.SchemeRun.checkpoint`) before each
    ordinal a lane needs. Then each lane, in order, builds its own
    machine through the factory (the first lane reuses the golden
    pass's), restores its checkpoint onto it, strikes, runs the rest,
    and is classified. So one machine is built per lane, in lane order,
    and each ends at its scalar trial's clock. A one-lane group is its
    scalar trial.
    """
    if len(tasks) == 1:
        return [run_campaign_trial(tasks[0], rngs[0])]
    first = tasks[0]
    module, _, start_name = _scheme(first.scheme)
    draws = [_draw_strike(task, rng) for task, rng in zip(tasks, rngs)]
    run = getattr(module, start_name)(
        first.machine_factory(), first.workload, spec=first.spec,
        config=_emr_config(first),
    )
    checkpoints = {}
    for ordinal in sorted({ordinal for _, ordinal in draws}):
        run.advance(ordinal)
        checkpoints[ordinal] = run.checkpoint()
    return [
        _run_lane(
            run, checkpoints[ordinal],
            # Built only once the previous lane's machine is released.
            task.machine_factory() if lane else run.machine,
            task, rng, target, ordinal,
        )
        for lane, (task, rng, (target, ordinal)) in enumerate(zip(tasks, rngs, draws))
    ]


def _run_lane(run, checkpoint, machine, task, rng, target, ordinal) -> InjectionOutcome:
    """One lane of an injection group: ``run`` resumed from
    ``checkpoint`` on ``machine``, struck before job ``ordinal``."""
    hooks = _InjectionHooks(
        machine, target, ordinal, task.config.bits, rng, jobs_run=ordinal,
    )
    run.restore(checkpoint, machine, hooks)
    try:
        return _outcome(task, target, hooks, run.complete)
    finally:
        run.release()


def _workload_key(workload: Workload) -> tuple:
    kind = type(workload)
    return kind.__module__, kind.__qualname__, canonical_json(workload_identity(workload))


def _spec_key(spec: WorkloadSpec) -> str:
    """SHA-256 of everything a run reads from ``spec``, derived once
    per spec."""

    def digest() -> str:
        h = hashlib.sha256()
        h.update(repr((spec.name, spec.output_size)).encode())
        for name, blob in sorted(spec.blobs.items()):
            h.update(repr((name, len(blob))).encode() + blob)
        for ds in spec.datasets:
            regions = [(role, ref.blob, ref.offset, ref.length) for role, ref in ds.regions.items()]
            h.update(repr((ds.index, regions, sorted(ds.params.items()))).encode())
        return h.hexdigest()

    return spec.memo(("content-digest",), digest)


def _factory_digest(factory) -> "str | None":
    """SHA-256 of ``factory``'s pickle; ``None`` when it has none. The
    protocol is pinned because the digest enters trial fingerprints."""
    try:
        return hashlib.sha256(pickle.dumps(factory, protocol=4)).hexdigest()
    except (pickle.PicklingError, AttributeError, TypeError):
        return None


def _factory_key(factory) -> object:
    """A machine factory by content: a named function by its qualified
    name, anything else picklable by its pickle's digest. A factory
    that is neither (a closure) keys as itself, so it groups only with
    trials that hold that very factory."""
    name = getattr(factory, "__qualname__", "")
    if name and "<" not in name:
        return _factory_id(factory)
    digest = _factory_digest(factory)
    return factory if digest is None else digest


def injection_lockstep_key(task: TrialTask) -> tuple:
    """What the run before a trial's strike depends on: the scheme, the
    workload, the spec, the scheme configuration and the machine
    factory. The trial's ``bits`` and target weights act only at the
    strike, so trials that differ in them share a group."""
    config = _emr_config(task)
    return (
        task.scheme,
        _workload_key(task.workload),
        _spec_key(task.spec),
        config.replication_threshold,
        config.n_executors,
        _factory_key(task.machine_factory),
    )


run_injection_group.lockstep_key = injection_lockstep_key


def encode_outcome(outcome: InjectionOutcome) -> dict:
    """JSON-safe form of one trial outcome (for the campaign store)."""
    return {
        "scheme": outcome.scheme,
        "outcome": outcome.outcome.value,
        "target": outcome.target.value,
        "detail": outcome.detail,
    }


def decode_outcome(data: dict) -> InjectionOutcome:
    return InjectionOutcome(
        scheme=data["scheme"],
        outcome=OutcomeClass(data["outcome"]),
        target=SeuTarget(data["target"]),
        detail=data["detail"],
    )


def tally_outcome_metrics(outcomes: "list[InjectionOutcome]") -> MetricsRegistry:
    """Fold a (deterministic) outcome list into campaign metrics —
    post-hoc, so it needs no cross-process merging."""
    metrics = MetricsRegistry()
    metrics.counter("inject.trials").inc(len(outcomes))
    for outcome in outcomes:
        metrics.counter(
            f"campaign.{outcome.scheme}.{outcome.outcome.value}"
        ).inc()
        metrics.counter(f"inject.target.{outcome.target.value}").inc()
        if outcome.outcome is OutcomeClass.NO_EFFECT:
            metrics.counter("inject.masked").inc()
        else:
            metrics.counter("inject.hits").inc()
    return metrics


def _factory_id(factory) -> str:
    """Deterministic identity of a machine factory (for fingerprints):
    a named one by its qualified name, anything else (a
    ``functools.partial``, say) by its type and its pickle's digest, so
    two such factories share an id only if they pickle alike. One that
    cannot be pickled is named by its type alone."""
    name = getattr(factory, "__qualname__", None)
    if name:
        return f"{getattr(factory, '__module__', '')}.{name}"
    kind = type(factory).__name__
    digest = _factory_digest(factory)
    return kind if digest is None else f"{kind}:{digest}"


def workload_identity(workload: Workload) -> dict:
    """JSON-safe identity of a workload instance: its registered name
    plus every scalar constructor attribute (scale knobs)."""
    return {
        "name": workload.name,
        "params": {
            key: value
            for key, value in sorted(vars(workload).items())
            if isinstance(value, (bool, int, float, str))
        },
    }


class FaultInjectionCampaign:
    """Runs the Table 7 experiment for one workload."""

    def __init__(
        self,
        workload: Workload,
        config: "CampaignConfig | None" = None,
        machine_factory=Machine.rpi_zero2w,
        seed: int = 0,
    ) -> None:
        self.workload = workload
        self.config = config or CampaignConfig()
        self.machine_factory = machine_factory
        self.seed = seed
        #: Accounting of the most recent :meth:`run` (per-trial timing,
        #: worker count, pool/serial mode).
        self.last_report: "ParallelReport | None" = None
        #: Campaign-level metrics of the most recent :meth:`run`.
        #: Populated post-hoc from the (deterministic) outcome list, so
        #: it needs no cross-process merging.
        self.metrics = MetricsRegistry()

    def _golden(self, spec: WorkloadSpec) -> "list[bytes]":
        return self.workload.reference_outputs(spec)

    def trials(
        self, schemes: "tuple[str, ...]" = ("none", "3mr", "emr")
    ) -> "list[Trial]":
        """The scheme x run grid as campaign trials (scheme-major, the
        order the original hand-rolled loop used — trial *i* draws the
        generator spawned at index *i*, exactly as before)."""
        rng = np.random.default_rng(self.seed)
        spec = self.workload.build(rng)
        golden = tuple(self._golden(spec))
        return [
            Trial(
                params={"scheme": scheme, "run": run},
                item=TrialTask(
                    scheme=scheme,
                    workload=self.workload,
                    spec=spec,
                    golden=golden,
                    config=self.config,
                    machine_factory=self.machine_factory,
                ),
            )
            for scheme in schemes
            for run in range(self.config.runs_per_scheme)
        ]

    def campaign(
        self, schemes: "tuple[str, ...]" = ("none", "3mr", "emr")
    ) -> Campaign:
        """This injection campaign as a declarative ``repro.campaign``
        grid — the unit the engine fingerprints, runs, and resumes."""
        context = {
            "workload": workload_identity(self.workload),
            "machine_factory": _factory_id(self.machine_factory),
            "runs_per_scheme": self.config.runs_per_scheme,
            "bits": self.config.bits,
            "replication_threshold": self.config.replication_threshold,
            "weights": {
                target.value: weight
                for target, weight in self.config.weights.items()
            },
        }
        # Only a non-default replication level enters the fingerprint:
        # stores written before the knob existed stay resumable.
        if self.config.n_executors != 3:
            context["n_executors"] = self.config.n_executors
        return Campaign(
            name=f"fault-injection:{self.workload.name}",
            trial_fn=run_campaign_trial,
            trials=self.trials(schemes),
            seed=self.seed,
            context=context,
            encode=encode_outcome,
            decode=decode_outcome,
            batch_fn=run_injection_group,
        )

    def run(
        self,
        schemes: "tuple[str, ...]" = ("none", "3mr", "emr"),
        workers: "int | None" = 1,
        trace_path: "str | None" = None,
        store=None,
        metrics=None,
    ) -> "dict[str, Counter]":
        """Returns scheme -> Counter over :class:`OutcomeClass`.

        Trials are independent: each gets its own generator pinned to
        ``(seed, trial_index)``, so any ``workers`` value — serial
        included — produces the same outcomes in the same order. The
        campaign declares :func:`run_injection_group` as its batch
        function, so the pending trials of each scheme run as one group
        that shares the run before their strikes (one task per group
        when pooled), to the outcomes their scalar trials give. With
        ``trace_path``, every trial runs alone through
        :func:`run_campaign_trial` and its records merge (in trial
        order) into one JSONL trace, byte-identical at any worker
        count. With ``store``, completed trials are skipped on rerun and
        their stored outcomes (and trace records) replayed — a resumed
        campaign is byte-identical to a cold one.
        """
        result = execute(
            self.campaign(schemes),
            workers=workers,
            store=store,
            trace_path=trace_path,
            metrics=metrics,
        )
        self.last_report = result.report
        self.outcomes: "list[InjectionOutcome]" = list(result.values)
        table: "dict[str, Counter]" = {}
        for scheme in schemes:
            counts: Counter = Counter()
            for outcome in self.outcomes:
                if outcome.scheme == scheme:
                    counts[outcome.outcome] += 1
            table[scheme] = counts
        self.metrics = tally_outcome_metrics(self.outcomes)
        return table
