"""The campaign executor: run a declared grid, skip what's done.

:func:`execute` is the one way any experiment's trials reach
:func:`repro.parallel.pmap_report`. Since the round-based refactor it is a
thin wrapper: the campaign becomes the trivial one-round
:class:`~repro.campaign.stream.TrialSource`
(:class:`~repro.campaign.stream.GridSource`) and drains through
:func:`~repro.campaign.stream.execute_stream` — the same core that
runs multi-round adaptive streams (:mod:`repro.adaptive`). Each round
runs through :func:`run_round`, the one round executor, which:

1. resolves the round's trial fingerprints (:meth:`Campaign.specs`);
2. consults the :class:`~repro.campaign.store.TrialStore` (if given)
   and **skips** trials whose fingerprint is already stored;
3. runs the missing trials as one ``pmap_report`` batch on the run's
   :class:`~repro.parallel.WorkerPool` — each trial in a worker with
   its own :func:`~repro.campaign.spec.trial_rng` generator and (when
   tracing) a fresh per-trial :class:`~repro.obs.TraceRecorder`;
4. when the campaign declares a ``batch_fn`` and the round is
   untraced, advances them as lockstep groups instead
   (:mod:`repro.campaign.batch`): one batch task per group — the
   round's pending trials, or one per ``lockstep_key`` when the batch
   function declares one — largest first, whose lanes that return
   :class:`~repro.campaign.batch.Diverged` join the running batch as
   scalar trials when their group lands;
5. canonicalises every result — stored hit or fresh execution alike —
   through an ``encode -> JSON -> decode`` round-trip, so resumed and
   cold runs aggregate **byte-identically**;
6. persists each fresh result (with its trace records) *as it lands*
   — not after the batch — so a run killed mid-grid keeps every
   completed trial; while a pooled batch computes, it syncs the landed
   entries on the pool's I/O thread, and it ends the round with one
   :meth:`~repro.campaign.store.TrialStore.barrier` (also when the
   round raises) that makes the rest durable; finally the stream
   merges all trace records, in round-major grid order, into one JSONL
   file.

Store accounting lands in the caller's
:class:`~repro.obs.metrics.MetricsRegistry` under
``campaign.store.hits`` / ``campaign.store.misses`` /
``campaign.trials.executed`` — the counters CI uses to prove a resume
actually skipped completed work.
"""

from __future__ import annotations

import json
from concurrent.futures import Future
from concurrent.futures import wait as wait_futures
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import ConfigurationError, StoreWriteError
from ..parallel import ParallelReport, WorkerPool, pmap_report
from .batch import Diverged
from .spec import Campaign, TrialSpec, jsonify, trial_rng
from .store import STORE_SCHEMA, TrialStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..ground.supervision import QuarantinedTrial

__all__ = ["CampaignResult", "CampaignStatus", "execute", "status"]


def _execute_trial(payload):
    """Run one trial in a worker; top-level so the pool can pickle it.

    Returns ``(value, records)`` where ``records`` is the trial's
    trace (``None`` when tracing is off). The tracer is created here,
    in the process that runs the trial, so the records can ride into
    the store and a resumed run can replay them without re-executing
    the trial.
    """
    fn, item, seed_root, seed_index, with_tracer = payload
    tracer = None
    if with_tracer:
        from ..obs import TraceRecorder

        tracer = TraceRecorder(ring_size=None)
    value = fn(item, trial_rng(seed_root, seed_index), tracer)
    return value, (tracer.drain() if tracer is not None else None)


def _execute_task(task):
    """Run one round task, ``(runner, payload)``, in a worker: a trial
    (:func:`_execute_trial`) or a lockstep group (:func:`_execute_group`)."""
    runner, payload = task
    return runner(payload)


def _execute_group(payload):
    """Run one lockstep group in a worker; top-level so the pool can
    pickle it. Each lane gets the generator its scalar trial would."""
    batch_fn, items, seeds = payload
    return list(batch_fn(items, [trial_rng(root, index) for root, index in seeds]))


@dataclass(frozen=True)
class CampaignStatus:
    """How much of a campaign a store already holds.

    ``corrupt`` counts defective entries (bad checksum, truncation,
    stale schema) the scan quarantined — they show as pending because
    they will be re-run. A fast scan (``status(..., fast=True)``)
    never reads entries, so it always reports ``corrupt=0``.
    """

    name: str
    total: int
    completed: int
    corrupt: int = 0

    @property
    def pending(self) -> int:
        return self.total - self.completed


@dataclass
class CampaignResult:
    """Everything one campaign (or stream round) produced, grid order.

    ``quarantined`` is non-empty only for supervised runs
    (``supervision=``): trials that exhausted their retry budget, as
    :class:`repro.ground.supervision.QuarantinedTrial` entries. Their
    slots in ``values`` hold ``None``; the campaign still completed.
    """

    name: str
    values: "list[object]"
    specs: "list[TrialSpec]"
    executed: int
    store_hits: int
    report: "ParallelReport | None"
    quarantined: "tuple[QuarantinedTrial, ...]" = ()

    @property
    def fingerprints(self) -> "list[str]":
        return [spec.fingerprint for spec in self.specs]


@dataclass
class RoundExecution:
    """One executed round, before the stream folds it.

    ``canonical`` holds the JSON-safe (pre-``decode``) values the
    outcome digest — and therefore the next round's seeds — derive
    from. ``records`` carries per-trial trace-record lists in grid
    order (``None`` when tracing is off); the stream merges them
    across rounds into one file.
    """

    result: CampaignResult
    canonical: "list[object]"
    records: "list[list] | None"


def _canonical_result(campaign: Campaign, value):
    """Encode + JSON round-trip: the exact object a store hit yields."""
    encoded = campaign.encode(value) if campaign.encode is not None else value
    return json.loads(json.dumps(jsonify(encoded)))


def _defects(store: "TrialStore | None") -> int:
    """Total defective-entry observations on a store handle."""
    if store is None:
        return 0
    return sum(
        store.counters[k] for k in ("corrupt", "stale", "unreadable")
    )


def run_round(
    campaign: Campaign,
    *,
    pool: WorkerPool,
    store: "TrialStore | None" = None,
    with_tracer: bool = False,
    metrics=None,
    supervision=None,
) -> RoundExecution:
    """Execute one round (a fully resolved grid): the one round executor.

    Stored trials are replayed; the rest run as **one** ``pmap_report``
    batch on ``pool`` under ``supervision`` (its report is
    ``CampaignResult.report``), each absorbed — canonicalised and put
    into the store — the moment it lands. An untraced round of a
    campaign that declares a ``batch_fn`` advances its pending trials as
    lockstep groups (:mod:`repro.campaign.batch`), each one batch task
    (never split), largest first: one group of every pending trial, or,
    when the batch function has a top-level ``lockstep_key(item)``
    attribute, one group per key. Lanes that return
    :class:`~repro.campaign.batch.Diverged` run as scalar trials that
    join the running batch when their group lands, so group tasks and
    diverged lanes alike get timeouts, retries and quarantine (a poison
    group under every one of its lanes' grid indices).

    While a pooled batch computes, each landing defers a store
    :meth:`~repro.campaign.store.TrialStore.barrier` to the pool's I/O
    thread, one at a time; the round-end barrier (run also when the
    round raises) then syncs only the tail, and a serial round runs it
    alone. Records are *returned* (``RoundExecution.records``) so the
    stream can merge every round into one file. Callers outside the
    stream machinery want :func:`execute` /
    :func:`~repro.campaign.stream.execute_stream`.
    """
    store = TrialStore.coerce(store)
    specs = campaign.specs()
    batch_fn = None if with_tracer else campaign.batch_fn

    defects_before = _defects(store)
    hits: "dict[int, dict]" = {}
    if store is not None:
        for index, spec in enumerate(specs):
            entry = store.get(spec.fingerprint)
            if entry is not None:
                hits[index] = entry
    defect_count = _defects(store) - defects_before

    pending = [i for i in range(len(specs)) if i not in hits]
    canonical: "dict[int, object]" = {}
    record_dicts: "dict[int, list | None]" = {}

    def _absorb(i: int, value, records=None) -> None:
        """Canonicalise and persist one trial the moment it lands —
        incremental, so a run killed mid-grid keeps its progress."""
        canonical[i] = _canonical_result(campaign, value)
        record_dicts[i] = (
            None if records is None else [r.to_dict() for r in records]
        )
        if store is not None:
            spec = specs[i]
            store.put(
                spec.fingerprint,
                {
                    "schema": STORE_SCHEMA,
                    "fingerprint": spec.fingerprint,
                    "campaign": campaign.name,
                    "params": spec.params,
                    "seed_root": spec.seed_root,
                    "seed_index": spec.seed_index,
                    "result": canonical[i],
                    "records": record_dicts[i],
                },
            )

    def _task(is_group: bool, lanes: "list[int]"):
        if is_group:
            return _execute_group, (
                batch_fn,
                [campaign.trials[i].item for i in lanes],
                [(specs[i].seed_root, specs[i].seed_index) for i in lanes],
            )
        i = lanes[0]
        return _execute_trial, (
            campaign.trial_fn,
            campaign.trials[i].item,
            specs[i].seed_root,
            specs[i].seed_index,
            with_tracer,
        )

    def _absorb_group(lanes: "list[int]", outcomes) -> "list[int]":
        """Absorb a group's lanes; the lanes that diverged."""
        if len(outcomes) != len(lanes):
            raise ConfigurationError(
                f"batch_fn returned {len(outcomes)} results for a "
                f"{len(lanes)}-lane group"
            )
        peeled = []
        for i, value in zip(lanes, outcomes):
            if isinstance(value, Diverged):
                peeled.append(i)
            else:
                _absorb(i, value)
        return peeled

    # The batch's tasks by position: (is_group, grid lanes).
    tasks: "list[tuple[bool, list[int]]]" = []
    synced: "Future | None" = None  # the early barrier in flight

    def _land(position: int, value):
        nonlocal synced
        is_group, lanes = tasks[position]
        if is_group:
            follow = _absorb_group(lanes, value)
        else:
            _absorb(lanes[0], *value)
            follow = []
        if store is not None and pool.active and (synced is None or synced.done()):
            if synced is not None:
                synced.result()  # a failed early barrier ends the round
            synced = pool.defer(store.barrier)
        tasks.extend((False, [i]) for i in follow)
        return [_task(False, [i]) for i in follow]

    try:
        key = getattr(batch_fn, "lockstep_key", None)
        if batch_fn is None or not pending:
            tasks.extend((False, [i]) for i in pending)
        else:
            by_key: dict = {}
            for i in pending:
                lane_key = None if key is None else key(campaign.trials[i].item)
                by_key.setdefault(lane_key, []).append(i)
            groups = sorted(by_key.values(), key=len, reverse=True)
            tasks.extend((True, lanes) for lanes in groups)
        report = pmap_report(
            _execute_task,
            [_task(*task) for task in tasks],
            pool=pool,
            on_result=_land,
            supervision=supervision,
            metrics=metrics,
        )
        if synced is not None:
            synced.result()
    except BaseException:
        # Keep what the round finished, but never let a failing barrier
        # replace the round's own exception.
        if store is not None:
            try:
                if synced is not None:
                    wait_futures([synced])
                store.barrier()
            except (OSError, StoreWriteError):
                pass
        raise
    if store is not None:
        store.barrier()

    # Resolve pmap-level quarantines (task positions) to the campaign
    # identities of their lanes, and splice ground events into trial
    # traces.
    quarantined: "list[QuarantinedTrial]" = []
    if report.quarantined:
        from ..ground.supervision import QuarantinedTrial

        for q in report.quarantined:
            for i in tasks[q.index][1]:
                canonical[i] = None
                record_dicts[i] = None
                quarantined.append(
                    QuarantinedTrial(
                        index=i,
                        fingerprint=specs[i].fingerprint,
                        params=specs[i].params,
                        attempts=q.attempts,
                        error=q.error,
                    )
                )
        quarantined.sort(key=lambda q: q.index)
    if with_tracer and report.ground_events:
        for position, events in enumerate(report.ground_events):
            for i in tasks[position][1] if events else ():
                record_dicts[i] = [r.to_dict() for r in events] + (
                    record_dicts[i] or []
                )

    trace_missing = 0
    for i, entry in hits.items():
        canonical[i] = entry["result"]
        record_dicts[i] = entry.get("records")
        if with_tracer and record_dicts[i] is None:
            trace_missing += 1

    decode = campaign.decode if campaign.decode is not None else lambda v: v
    quarantined_grid = {q.index for q in quarantined}
    values = [
        None if i in quarantined_grid else decode(canonical[i])
        for i in range(len(specs))
    ]

    records = None
    if with_tracer:
        from ..obs import TraceRecord

        records = [
            [TraceRecord.from_dict(d) for d in (record_dicts[i] or [])]
            for i in range(len(specs))
        ]

    if metrics is not None:
        metrics.counter("campaign.trials.total").inc(len(specs))
        metrics.counter("campaign.trials.executed").inc(len(pending))
        if quarantined:
            metrics.counter("campaign.trials.quarantined").inc(
                len(quarantined)
            )
        if store is not None:
            metrics.counter("campaign.store.hits").inc(len(hits))
            metrics.counter("campaign.store.misses").inc(len(pending))
            if defect_count:
                metrics.counter("campaign.store.corrupt").inc(defect_count)
        if trace_missing:
            metrics.counter("campaign.trace.missing").inc(trace_missing)
        if batch_fn is not None and pending:
            metrics.counter("campaign.batch.lanes").inc(len(pending))
            diverged = sum(not is_group for is_group, _ in tasks)
            if diverged:
                metrics.counter("campaign.batch.diverged").inc(diverged)

    result = CampaignResult(
        name=campaign.name,
        values=values,
        specs=specs,
        executed=len(pending) - len(quarantined),
        store_hits=len(hits),
        report=report,
        quarantined=tuple(quarantined),
    )
    return RoundExecution(
        result=result,
        canonical=[canonical[i] for i in range(len(specs))],
        records=records,
    )


def execute(
    campaign: Campaign,
    *,
    workers: "int | None" = 1,
    store=None,
    trace_path: "str | None" = None,
    metrics=None,
    force_pool: bool = False,
    supervision=None,
    pool: "WorkerPool | None" = None,
) -> CampaignResult:
    """Run ``campaign``, skipping trials the store already holds.

    The static grid is the trivial one-round trial stream: this wraps
    the campaign in a :class:`~repro.campaign.stream.GridSource` and
    drains it through :func:`~repro.campaign.stream.execute_stream` —
    byte-identical to the historical one-shot executor (same
    fingerprints, same store entries, same trace bytes).

    With ``supervision`` (a :class:`repro.ground.GroundPolicy`) the
    missing trials run under the fault-tolerant ground executor:
    crashed/hung workers are replaced, failing trials retried with
    byte-identical seeds, and poison trials quarantined — the campaign
    then *completes* with ``result.quarantined`` naming the survivors'
    missing peers instead of the whole run dying. An untraced run of a
    campaign that declares a ``batch_fn`` runs the missing trials as
    lockstep groups (:func:`run_round`, :mod:`repro.campaign.batch`);
    supervision covers the group tasks and the lanes that diverged
    alike. ``pool`` (a
    :class:`~repro.parallel.WorkerPool`) runs the campaign on a caller's
    pool, whose ``workers`` and ``force_pool`` then apply.
    """
    from .stream import GridSource, execute_stream

    stream = execute_stream(
        GridSource(campaign),
        workers=workers,
        store=store,
        trace_path=trace_path,
        metrics=metrics,
        force_pool=force_pool,
        supervision=supervision,
        pool=pool,
    )
    return stream.rounds[0].result


def status(campaign: Campaign, store, *, fast: bool = False) -> CampaignStatus:
    """How many of ``campaign``'s trials ``store`` already holds.

    The default scan reads and checksums every held entry: defective
    entries found along the way are quarantined, counted in
    ``corrupt``, and reported as pending (they will re-run). With
    ``fast=True`` the scan is a pure existence probe
    (:meth:`TrialStore.contains`) — no reads, no checksum verification
    — which is O(stat) per trial on multi-thousand-trial grids; the
    full verify still happens on :func:`execute`'s hit path before any
    stored value is trusted.
    """
    store = TrialStore.coerce(store)
    specs = campaign.specs()
    completed = 0
    corrupt = 0
    if store is not None:
        if fast:
            completed = sum(
                1 for spec in specs if store.contains(spec.fingerprint)
            )
        else:
            defects_before = _defects(store)
            completed = sum(
                1 for spec in specs if store.get(spec.fingerprint) is not None
            )
            corrupt = _defects(store) - defects_before
    return CampaignStatus(
        name=campaign.name,
        total=len(specs),
        completed=completed,
        corrupt=corrupt,
    )
