"""Deterministic parallel experiment engine.

Every paper artifact in this reproduction (the fault-injection
campaigns, the calibration sweep, the misdetection and accuracy
figures) is an embarrassingly parallel Monte-Carlo loop. This module
gives those drivers one primitive, :func:`pmap`, with a hard
determinism contract:

* **Randomness is split, never shared.** When a ``seed`` is given,
  each task receives its own :class:`numpy.random.Generator` built
  from ``numpy.random.SeedSequence(seed).spawn(n)[i]``. Task *i*'s
  stream depends only on ``(seed, i)`` — not on how many workers ran,
  which process picked the task up, or what any other task consumed —
  so parallel results are bit-identical to serial results.
* **``workers=1`` is a pure fallback.** The serial path is a plain
  in-process loop over the same spawned generators; no pool, no
  pickling, no import-time side effects.
* **Graceful degradation.** If the host has too few CPUs, fork is
  unavailable (e.g. Windows), or the pool cannot be created, the call
  silently degrades to the in-process loop and still returns the
  same values.

Task functions must be *top-level* callables (picklable by qualified
name) and pure in their arguments: ``fn(item, rng)`` when a seed is
given, ``fn(item)`` otherwise. Per-task wall time and the executing
PID are captured for every task; :func:`pmap_report` exposes them so
benchmarks can attribute cost.

**Tracing.** When ``trace_path`` is given, every task additionally
receives a fresh in-memory :class:`repro.obs.TraceRecorder` as its
last argument (``fn(item, rng, tracer)``); the records each task
emitted ride back with its result and are merged into one JSON-lines
file *in task order*, each line stamped with its task index. Because
record content carries only simulated time (never PIDs or wall
clocks) and the merge order is the task order, the merged trace is
byte-identical at any ``workers`` setting.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .ground.supervision import QuarantinedTask
    from .obs.trace import TraceRecord

__all__ = [
    "TaskTiming",
    "ParallelReport",
    "pmap",
    "pmap_report",
    "resolve_workers",
    "spawn_generators",
]


@dataclass(frozen=True)
class TaskTiming:
    """Wall-clock accounting for one task."""

    index: int
    seconds: float
    pid: int


@dataclass(frozen=True)
class ParallelReport:
    """Everything :func:`pmap` learned while running a batch.

    The last five fields are populated only by supervised runs
    (``supervision=`` / :mod:`repro.ground`): quarantined tasks carry
    ``None`` in ``values`` and their identities ride in
    ``quarantined`` (:class:`repro.ground.supervision.QuarantinedTask`
    entries); ``ground_events`` holds per-task host-fault trace
    records (retries, timeouts, worker losses) aligned to the input
    order.
    """

    values: "list[object]"
    timings: "tuple[TaskTiming, ...]"
    workers: int  # effective worker count actually used
    mode: str  # "serial", "fork-pool", "ground-pool", or "ground-serial"
    wall_seconds: float
    quarantined: "tuple[QuarantinedTask, ...]" = ()
    retries: int = 0
    timeouts: int = 0
    worker_losses: int = 0
    serial_fallback: bool = False
    ground_events: "tuple[list[TraceRecord], ...]" = ()

    @property
    def task_seconds(self) -> float:
        """Sum of per-task times (CPU-side cost, ignoring overlap)."""
        return sum(t.seconds for t in self.timings)


def spawn_generators(seed, n: int) -> "list[np.random.Generator]":
    """``n`` independent generators from one root seed.

    The *i*-th generator depends only on ``(seed, i)``; this is the
    primitive :func:`pmap` uses, exposed for drivers that manage their
    own loops but want the same determinism contract.
    """
    if n < 0:
        raise ConfigurationError(f"cannot spawn {n} generators")
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in root.spawn(n)]


def resolve_workers(workers: "int | None", n_items: "int | None" = None) -> int:
    """Effective worker count: explicit request, else one per CPU,
    never more than the number of items."""
    count = os.cpu_count() or 1
    effective = count if workers is None else int(workers)
    if n_items is not None:
        effective = min(effective, n_items)
    return max(1, effective)


def _pool_usable(min_cpus: int = 2) -> bool:
    """Whether a fork pool is worth (and capable of) starting."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return False
    return (os.cpu_count() or 1) >= min_cpus


def _invoke(payload):
    """Run one task; returns (value, seconds, pid, trace_records).
    Top-level so the pool can pickle it."""
    fn, item, child_seed, with_tracer = payload
    tracer = None
    extra = ()
    if with_tracer:
        from .obs import TraceRecorder

        tracer = TraceRecorder(ring_size=None)
        extra = (tracer,)
    started = time.perf_counter()
    if child_seed is None:
        value = fn(item, *extra)
    else:
        value = fn(item, np.random.default_rng(child_seed), *extra)
    records = tracer.drain() if tracer is not None else None
    return value, time.perf_counter() - started, os.getpid(), records


def _payloads(fn, items, seed, with_tracer: bool) -> list:
    """One ``_invoke`` payload per item: task *i* carries the child seed
    spawned at index *i* (``None`` when unseeded)."""
    items = list(items)
    if seed is None:
        child_seeds = [None] * len(items)
    else:
        root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        child_seeds = root.spawn(len(items))
    return [
        (fn, item, child, with_tracer)
        for item, child in zip(items, child_seeds)
    ]


def _build_report(
    outcomes,
    *,
    workers: int,
    mode: str,
    wall_seconds: float,
    trace_path: "str | None",
    ground_events: "tuple[list[TraceRecord], ...]" = (),
    **supervised,
) -> ParallelReport:
    """Assemble a :class:`ParallelReport` from per-task ``_invoke``
    outcomes (``None`` for a task that never completed) and, when
    tracing, merge each task's ground events and own records into
    ``trace_path`` in task order."""
    values = [None if o is None else o[0] for o in outcomes]
    timings = tuple(
        TaskTiming(
            index=i,
            seconds=0.0 if o is None else o[1],
            pid=0 if o is None else o[2],
        )
        for i, o in enumerate(outcomes)
    )
    if trace_path is not None:
        from .obs import merge_task_records

        merged = []
        for i, outcome in enumerate(outcomes):
            records = list(ground_events[i]) if ground_events else []
            if outcome is not None and outcome[3]:
                records.extend(outcome[3])
            merged.append(records)
        merge_task_records(merged, trace_path)
    return ParallelReport(
        values=values,
        timings=timings,
        workers=workers,
        mode=mode,
        wall_seconds=wall_seconds,
        ground_events=ground_events,
        **supervised,
    )


def pmap_report(
    fn,
    items,
    *,
    seed=None,
    workers: "int | None" = None,
    force_pool: bool = False,
    trace_path: "str | None" = None,
    on_result=None,
    supervision=None,
    metrics=None,
) -> ParallelReport:
    """Map ``fn`` over ``items``, deterministically, maybe in parallel.

    Parameters
    ----------
    fn:
        Top-level callable. Called as ``fn(item, rng)`` when ``seed``
        is given, else ``fn(item)``. With ``trace_path`` set, a fresh
        :class:`repro.obs.TraceRecorder` is appended to the argument
        list (``fn(item, rng, tracer)``).
    seed:
        Root seed (int or :class:`numpy.random.SeedSequence`). Task
        *i* gets the generator spawned at index *i* regardless of the
        worker count, so results never depend on scheduling.
    workers:
        Desired parallelism. ``None`` = one per CPU; ``1`` = the pure
        serial path. Small hosts / missing fork degrade to serial.
    force_pool:
        Start the pool even on a single-CPU host (used by the
        determinism tests so the pool path is always exercised).
    trace_path:
        Merge every task's trace records into this JSONL file, in
        task order (byte-identical at any worker count).
    on_result:
        Optional ``on_result(index, value)`` callback, invoked in the
        *parent* process, in ascending task order, as each task's
        result arrives (the pool path streams through ``imap``). This
        is the campaign engine's incremental-persistence hook: a run
        killed mid-grid keeps every trial already absorbed. Under
        ``supervision`` results stream in *completion* order instead —
        retries reorder arrivals — so the callback must key on the
        index, not on call order.
    supervision:
        A :class:`repro.ground.GroundPolicy`. Routes the batch through
        the fault-tolerant ground executor (per-task wall-clock
        timeouts, bounded retry with byte-identical reseeding,
        crashed/hung-worker replacement, poison-task quarantine,
        serial fallback when the pool is repeatedly lost). ``metrics``
        (a :class:`repro.obs.MetricsRegistry`) then receives the
        ``ground.*`` counters; both are ignored on the plain path.
    """
    if supervision is not None:
        from .ground.supervision import supervised_pmap_report

        return supervised_pmap_report(
            fn,
            items,
            seed=seed,
            policy=supervision,
            workers=workers,
            trace_path=trace_path,
            on_result=on_result,
            metrics=metrics,
        )
    payloads = _payloads(fn, items, seed, trace_path is not None)
    n = len(payloads)
    effective = resolve_workers(workers, n)
    use_pool = n > 0 and effective > 1 and (force_pool or _pool_usable())

    def _stream(iterable) -> "list":
        collected = []
        for index, outcome in enumerate(iterable):
            collected.append(outcome)
            if on_result is not None:
                on_result(index, outcome[0])
        return collected

    started = time.perf_counter()
    outcomes = None
    mode = "serial"
    if use_pool:
        try:
            context = multiprocessing.get_context("fork")
            with context.Pool(processes=effective) as pool:
                outcomes = _stream(
                    pool.imap(
                        _invoke, payloads, chunksize=max(1, n // (effective * 4))
                    )
                )
            mode = "fork-pool"
        except (OSError, ValueError):
            outcomes = None  # fall through to the serial path
    if outcomes is None:
        effective = 1
        outcomes = _stream(_invoke(payload) for payload in payloads)

    return _build_report(
        outcomes,
        workers=effective,
        mode=mode,
        wall_seconds=time.perf_counter() - started,
        trace_path=trace_path,
    )


def pmap(
    fn,
    items,
    *,
    seed=None,
    workers: "int | None" = None,
    force_pool: bool = False,
    trace_path: "str | None" = None,
) -> "list":
    """:func:`pmap_report` without the accounting — just the values,
    in input order."""
    return pmap_report(
        fn,
        items,
        seed=seed,
        workers=workers,
        force_pool=force_pool,
        trace_path=trace_path,
    ).values
