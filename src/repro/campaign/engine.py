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
3. with a ``batch_fn``, advances the missing trials as lockstep groups
   (:mod:`repro.campaign.batch`): one in-process group, or — when the
   batch function declares a ``lockstep_key`` — one pool task per key,
   largest group first, through one ``pmap_report`` call;
4. runs every other missing trial (all of them without ``batch_fn``,
   else the lanes that diverged) through one ``pmap_report`` call — each in a
   worker with its own :func:`~repro.campaign.spec.trial_rng`
   generator and (when tracing) a fresh per-trial
   :class:`~repro.obs.TraceRecorder`;
5. canonicalises every result — stored hit or fresh execution alike —
   through an ``encode -> JSON -> decode`` round-trip, so resumed and
   cold runs aggregate **byte-identically**;
6. persists each fresh result (with its trace records) *as it lands*
   — not after the batch — so a run killed mid-grid keeps every
   completed trial, and ends the round with one
   :meth:`~repro.campaign.store.TrialStore.barrier` (also when the
   round raises) that makes those entries durable; finally the stream
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
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import ConfigurationError, StoreWriteError
from ..parallel import ParallelReport, pmap_report
from .batch import Diverged
from .spec import Campaign, TrialSpec, jsonify, trial_rng
from .store import STORE_SCHEMA, TrialStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..ground.supervision import QuarantinedTrial

__all__ = ["CampaignResult", "CampaignStatus", "execute", "status"]


def _execute_trial(payload):
    """Run one trial in a worker; top-level so the pool can pickle it.

    Returns ``(value, records)`` where ``records`` is the trial's
    trace (``None`` when tracing is off). The tracer is created here —
    not by ``pmap_report`` — so the records can ride into the store and a
    resumed run can replay them without re-executing the trial.
    """
    fn, item, seed_root, seed_index, with_tracer = payload
    tracer = None
    if with_tracer:
        from ..obs import TraceRecorder

        tracer = TraceRecorder(ring_size=None)
    value = fn(item, trial_rng(seed_root, seed_index), tracer)
    return value, (tracer.drain() if tracer is not None else None)


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
    workers: "int | None" = 1,
    store: "TrialStore | None" = None,
    with_tracer: bool = False,
    metrics=None,
    force_pool: bool = False,
    supervision=None,
    batch_fn=None,
) -> RoundExecution:
    """Execute one round (a fully resolved grid): the one round executor.

    Stored trials are replayed; with ``batch_fn`` the pending trials
    first advance as lockstep groups (:mod:`repro.campaign.batch`).
    Without a ``batch_fn.lockstep_key`` they form one group, run
    in-process. With one — a top-level ``lockstep_key(item)`` function
    attribute — the lanes are grouped by key, no group is ever split,
    and the groups run largest first as fail-fast pool tasks, each
    absorbed the moment it lands. Every trial left over — all of them
    without ``batch_fn``, else the lanes that returned
    :class:`~repro.campaign.batch.Diverged` — runs through one
    ``pmap_report`` call, so those lanes get ``workers``,
    ``supervision`` and quarantine; ``CampaignResult.report`` is that
    call's report. The round ends with one store barrier, also when it
    raises. Records are *returned* (``RoundExecution.records``) so the
    stream can merge every round into one file. Callers outside the
    stream machinery want :func:`execute` /
    :func:`~repro.campaign.stream.execute_stream`.
    """
    store = TrialStore.coerce(store)
    specs = campaign.specs()

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

    try:
        scalar = pending
        if batch_fn is not None and pending:
            key = getattr(batch_fn, "lockstep_key", None) or (lambda item: None)
            by_key: dict = {}
            for i in pending:
                by_key.setdefault(key(campaign.trials[i].item), []).append(i)
            groups = sorted(by_key.values(), key=len, reverse=True)
            diverged: "list[int]" = []

            def _absorb_group(position: int, outcomes) -> None:
                lanes = groups[position]
                if len(outcomes) != len(lanes):
                    raise ConfigurationError(
                        f"batch_fn returned {len(outcomes)} results for a "
                        f"{len(lanes)}-lane group"
                    )
                for i, value in zip(lanes, outcomes):
                    if isinstance(value, Diverged):
                        diverged.append(i)
                    else:
                        _absorb(i, value)

            # A keyless batch_fn makes one group, which pmap_report runs
            # in-process (one task never starts a pool).
            pmap_report(
                _execute_group,
                [
                    (
                        batch_fn,
                        [campaign.trials[i].item for i in lanes],
                        [(specs[i].seed_root, specs[i].seed_index) for i in lanes],
                    )
                    for lanes in groups
                ],
                workers=workers,
                force_pool=force_pool,
                on_result=_absorb_group,
            )
            scalar = sorted(diverged)

        report = pmap_report(
            _execute_trial,
            [
                (
                    campaign.trial_fn,
                    campaign.trials[i].item,
                    specs[i].seed_root,
                    specs[i].seed_index,
                    with_tracer,
                )
                for i in scalar
            ],
            workers=workers,
            force_pool=force_pool,
            on_result=lambda position, outcome: _absorb(scalar[position], *outcome),
            supervision=supervision,
            metrics=metrics if supervision is not None else None,
        )
    except BaseException:
        # Keep what the round finished, but never let a failing barrier
        # replace the round's own exception.
        if store is not None:
            try:
                store.barrier()
            except (OSError, StoreWriteError):
                pass
        raise
    if store is not None:
        store.barrier()

    # Resolve pmap-level quarantines (positions in `scalar`) to their
    # campaign identities, and splice ground events into trial traces.
    quarantined: "list[QuarantinedTrial]" = []
    if report.quarantined:
        from ..ground.supervision import QuarantinedTrial

        for q in report.quarantined:
            i = scalar[q.index]
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
    if with_tracer and report.ground_events:
        for position, events in enumerate(report.ground_events):
            if not events:
                continue
            i = scalar[position]
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
            if scalar:
                metrics.counter("campaign.batch.diverged").inc(len(scalar))

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
    batch_fn=None,
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
    missing peers instead of the whole run dying. ``batch_fn`` runs
    the missing trials as lockstep groups first (:func:`run_round`,
    :func:`~repro.campaign.batch.execute_batched`); supervision then
    covers the lanes that diverged.
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
        batch_fn=batch_fn,
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
