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

Each is a job loop on :class:`~repro.core.emr.runtime.SchemeRun`,
which owns the run's set-up, vote, commit and closing accounting;
``single_run``'s loop is :meth:`SchemeRun.single_pass`, which the
checksum scheme runs too.
"""

from __future__ import annotations

import numpy as np

from ...obs import Observability
from ...sim.machine import Machine
from ...workloads.base import Workload, WorkloadSpec
from .jobs import Job
from .runtime import EmrConfig, EmrHooks, RunResult, SchemeRun


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
    cfg = config or EmrConfig()
    core = machine.cores[0]
    core.set_freq(machine.spec.core_spec.max_freq)
    run = SchemeRun(
        machine, workload, cfg, hooks, obs, np.random.default_rng(seed), spec,
        cfg.n_executors,
    )
    datasets = run.spec.datasets
    replica_results: "dict[int, list]" = {ds.index: [] for ds in datasets}
    busy = 0.0
    for replica in range(cfg.n_executors):
        if replica > 0:
            # Fresh process: cold caches, cold page cache, re-read inputs.
            flushed = machine.caches.flush_all()
            run.stats.flushed_lines += flushed
            run.charge(
                {"cache_clear": flushed * cfg.flush_cycles_per_line / core.freq}
            )
            run.materialized.restage()
            run.materialized.end_of_jobset()
        for ds in datasets:
            job = Job(dataset=ds, executor_id=replica, cache_group=0)
            result, timings = run.engine.run_job(job, core_id=0, flush_after=False)
            replica_results[ds.index].append(result)
            busy += run.charge(timings)
    for ds in datasets:
        run.vote(ds.index, replica_results[ds.index])
    return run.finish("sequential-3mr", [busy])


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
    cfg = config or EmrConfig()
    groups = machine.default_core_groups(cfg.n_executors)
    for group in groups:
        machine.cores[group.core_ids[0]].set_freq(machine.spec.core_spec.max_freq)
    run = SchemeRun(
        machine, workload, cfg, hooks, obs, np.random.default_rng(seed), spec,
        cfg.n_executors,
    )
    datasets = run.spec.datasets
    replica_results: "dict[int, list]" = {ds.index: [] for ds in datasets}
    executor_busy = [0.0] * cfg.n_executors
    executor_buckets = [
        {"compute": 0.0, "cache_clear": 0.0, "disk_read": 0.0}
        for _ in range(cfg.n_executors)
    ]
    # Interleave replicas per dataset: approximates the concurrent
    # access pattern (all three replicas touch a line within one
    # residency window).
    for ds in datasets:
        for executor in range(cfg.n_executors):
            job = Job(dataset=ds, executor_id=executor)
            result, timings = run.engine.run_job(
                job, core_id=groups[executor].core_ids[0], flush_after=False
            )
            replica_results[ds.index].append(result)
            executor_busy[executor] += sum(timings.values())
            for bucket, seconds in timings.items():
                executor_buckets[executor][bucket] += seconds
    # Wall time: the slowest executor (they ran concurrently).
    straggler = int(np.argmax(executor_busy))
    run.charge(executor_buckets[straggler], elapsed=executor_busy[straggler])
    for ds in datasets:
        run.vote(ds.index, replica_results[ds.index])
    return run.finish("unprotected-parallel-3mr", executor_busy)


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
    cfg = config or EmrConfig()
    machine.cores[0].set_freq(machine.spec.core_spec.max_freq)
    run = SchemeRun(
        machine, workload, cfg, hooks, obs, np.random.default_rng(seed), spec, 1
    )
    return run.finish("none", [run.single_pass()])
