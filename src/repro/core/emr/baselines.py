"""The paper's comparison schemes (§4.2.1).

* ``sequential_3mr`` — the state of the art: run the whole computation
  three times on one core, clearing all cache (and the page cache)
  between passes, then vote. Safe, slow, and hot.
* ``unprotected_parallel_3mr`` — the "optimal performance" strawman:
  three executors in parallel with no jobset constraints and no cache
  hygiene. Replicas share lines in the unprotected L2, so one SEU can
  corrupt all three the same way (~25 % of die area unprotected,
  Table 4). Fig 11/14 normalize against this scheme.
* ``single_run`` — no redundancy at all (Table 7's "None" row).

Each is a program of steps for
:class:`~repro.core.emr.runtime.SchemeRun`, which owns the run's
set-up, vote, commit and closing accounting; ``single_run``'s program
is :meth:`SchemeRun.single_pass`, which the checksum scheme runs too.
Each ``start_*`` function returns its scheme's run before the first
job, for callers that stop and resume runs at a job
(:meth:`SchemeRun.checkpoint`).
"""

from __future__ import annotations

import numpy as np

from ...obs import Observability
from ...sim.machine import Machine
from ...workloads.base import Workload, WorkloadSpec
from .jobs import Job
from .runtime import BUCKET_AND_BUSY, EmrConfig, EmrHooks, RunResult, SchemeRun


def start_sequential_3mr(
    machine: Machine,
    workload: Workload,
    spec: "WorkloadSpec | None" = None,
    config: "EmrConfig | None" = None,
    hooks: "EmrHooks | None" = None,
    seed: int = 0,
    obs: "Observability | None" = None,
) -> SchemeRun:
    """:func:`sequential_3mr`'s run, before its first job."""
    cfg = config or EmrConfig()
    machine.cores[0].set_freq(machine.spec.core_spec.max_freq)
    run = SchemeRun(
        machine, workload, cfg, hooks, obs, np.random.default_rng(seed), spec,
        cfg.n_executors,
    )
    steps: "list[tuple]" = []
    for replica in range(cfg.n_executors):
        if replica > 0:
            steps.append((SchemeRun.restage,))
        steps += [
            run.job_step(
                Job(dataset=ds, executor_id=replica, cache_group=0), 0,
                expected=cfg.n_executors,
            )
            for ds in run.spec.datasets
        ]
    # The last pass completes every dataset, in order: vote them all.
    steps.append((SchemeRun.settle,))
    return run.load("sequential-3mr", steps)


def sequential_3mr(
    machine: Machine,
    workload: Workload,
    spec: "WorkloadSpec | None" = None,
    config: "EmrConfig | None" = None,
    hooks: "EmrHooks | None" = None,
    seed: int = 0,
    obs: "Observability | None" = None,
) -> RunResult:
    """Three sequential full passes on one core, vote at the end."""
    return start_sequential_3mr(
        machine, workload, spec, config, hooks, seed, obs
    ).complete()


def start_unprotected_parallel_3mr(
    machine: Machine,
    workload: Workload,
    spec: "WorkloadSpec | None" = None,
    config: "EmrConfig | None" = None,
    hooks: "EmrHooks | None" = None,
    seed: int = 0,
    obs: "Observability | None" = None,
) -> SchemeRun:
    """:func:`unprotected_parallel_3mr`'s run, before its first job."""
    cfg = config or EmrConfig()
    groups = machine.default_core_groups(cfg.n_executors)
    for group in groups:
        machine.cores[group.core_ids[0]].set_freq(machine.spec.core_spec.max_freq)
    run = SchemeRun(
        machine, workload, cfg, hooks, obs, np.random.default_rng(seed), spec,
        cfg.n_executors,
    )
    # Interleave replicas per dataset: approximates the concurrent
    # access pattern (all three replicas touch a line within one
    # residency window).
    steps = [
        run.job_step(
            Job(dataset=ds, executor_id=executor), groups[executor].core_ids[0],
            executor, cfg.n_executors, BUCKET_AND_BUSY,
        )
        for ds in run.spec.datasets
        for executor in range(cfg.n_executors)
    ]
    # Wall time: the slowest executor (they ran concurrently).
    steps += [(SchemeRun.charge_straggler,), (SchemeRun.settle,)]
    return run.load("unprotected-parallel-3mr", steps, cfg.n_executors)


def unprotected_parallel_3mr(
    machine: Machine,
    workload: Workload,
    spec: "WorkloadSpec | None" = None,
    config: "EmrConfig | None" = None,
    hooks: "EmrHooks | None" = None,
    seed: int = 0,
    obs: "Observability | None" = None,
) -> RunResult:
    """Three parallel executors, zero cache hygiene. The replicas read
    shared inputs back to back, so replicas 2 and 3 ride replica 1's
    warm L2 lines — fast, and exactly the unprotected surface."""
    return start_unprotected_parallel_3mr(
        machine, workload, spec, config, hooks, seed, obs
    ).complete()


def start_single_run(
    machine: Machine,
    workload: Workload,
    spec: "WorkloadSpec | None" = None,
    config: "EmrConfig | None" = None,
    hooks: "EmrHooks | None" = None,
    seed: int = 0,
    obs: "Observability | None" = None,
) -> SchemeRun:
    """:func:`single_run`'s run, before its first job."""
    cfg = config or EmrConfig()
    machine.cores[0].set_freq(machine.spec.core_spec.max_freq)
    run = SchemeRun(
        machine, workload, cfg, hooks, obs, np.random.default_rng(seed), spec, 1
    )
    return run.load("none", run.single_pass())


def single_run(
    machine: Machine,
    workload: Workload,
    spec: "WorkloadSpec | None" = None,
    config: "EmrConfig | None" = None,
    hooks: "EmrHooks | None" = None,
    seed: int = 0,
    obs: "Observability | None" = None,
) -> RunResult:
    """No redundancy: one pass, outputs committed unverified."""
    return start_single_run(machine, workload, spec, config, hooks, seed, obs).complete()
