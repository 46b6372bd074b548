"""Round-based trial streams: drain a ``TrialSource`` to exhaustion.

The pre-stream campaign layer executed one *static grid*: every trial
was known before the first one ran. That structurally blocks adaptive
fault campaigns (:mod:`repro.adaptive`), where round *k+1*'s trials
are chosen from round *k*'s outcomes. This module generalises the
executor without giving up any of the campaign layer's guarantees:

* A :class:`TrialSource` emits **rounds**, and each round *is* a
  :class:`~repro.campaign.spec.Campaign` — so every round flows
  through the existing fingerprint / store / trace / quarantine /
  metrics machinery completely unchanged. A static grid is the
  trivial one-round source (:class:`GridSource`), which is exactly
  how :func:`repro.campaign.execute` is implemented now.
* Each completed round is folded into a :class:`StreamHistory` whose
  per-round **outcome digests** (SHA-256 over the round's canonical
  JSON values, grid order) are the only channel through which
  outcomes influence later rounds. :func:`round_seed` derives round
  *k+1*'s seed root from round *k*'s digest, so an adaptive run is
  **deterministic by construction**: serial, pooled, and resumed
  executions see identical histories and therefore make identical
  adaptive choices — byte-identical at any ``--workers``.
* Resume needs no extra bookkeeping. Replaying the stream against a
  warm :class:`~repro.campaign.store.TrialStore` re-derives every
  round from store hits (same digests → same next rounds → all hits)
  until it reaches the first trial that never ran.
  :func:`stream_status` does this replay read-only to report progress
  without executing anything.

``execute_stream`` is the single drain loop behind
:func:`repro.campaign.execute` (scalar / supervised / traced, or SoA
lockstep via a campaign's ``batch_fn``); every round goes through the
one round executor, :func:`~repro.campaign.engine.run_round`, which is
what makes static-grid campaigns through the round core byte-identical
to the historical one-shot executors.
"""

from __future__ import annotations

import hashlib
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from ..errors import ConfigurationError
from ..parallel import WorkerPool
from .engine import CampaignStatus, RoundExecution, run_round, status
from .spec import Campaign, canonical_json
from .store import TrialStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..ground.supervision import QuarantinedTrial
    from .engine import CampaignResult
    from .spec import TrialSpec

__all__ = [
    "GridSource",
    "RoundResult",
    "StreamHistory",
    "StreamResult",
    "StreamStatus",
    "TrialSource",
    "execute_stream",
    "replay_round",
    "round_seed",
    "stream_status",
    "values_digest",
]


def values_digest(canonical_values: "list[object]") -> str:
    """SHA-256 over a round's canonical JSON values, grid order.

    This is the round's *outcome identity*: two executions that
    produced these bytes are interchangeable, so anything derived
    from the digest (the next round's seeds, the stream digest) is
    reproducible across worker counts and resumes. Quarantined slots
    participate as ``null`` — the adaptive choices downstream of a
    quarantine are deterministic given the quarantine pattern.
    """
    return hashlib.sha256(
        canonical_json(canonical_values).encode("utf-8")
    ).hexdigest()


def round_seed(seed: int, round_index: int, digest: str) -> int:
    """Derive round ``round_index``'s seed root from the stream state.

    Mixes the stream's base seed, the round ordinal, and the digest
    of everything observed so far (:attr:`StreamHistory.digest`)
    through SHA-256, so (a) replay is deterministic by construction
    and (b) no two rounds — and no two streams with different bases —
    share a seed root. The result fits ``numpy.random.SeedSequence``.
    """
    material = canonical_json(
        {"digest": digest, "round": round_index, "seed": seed}
    )
    return int.from_bytes(
        hashlib.sha256(material.encode("utf-8")).digest()[:8], "big"
    )


@dataclass(frozen=True)
class RoundResult:
    """One drained round: its ordinal, result, and outcome digest."""

    index: int
    result: "CampaignResult"
    digest: str


@dataclass
class StreamHistory:
    """Everything a :class:`TrialSource` may condition the next round on.

    Sources must treat this as read-only and derive *all*
    outcome-dependent choices from it (typically: train on
    ``values()``, seed with :func:`round_seed` over :attr:`digest`).
    """

    rounds: "list[RoundResult]" = field(default_factory=list)

    @property
    def digest(self) -> str:
        """Digest over the per-round digests (uniform even when empty)."""
        return values_digest([r.digest for r in self.rounds])

    @property
    def trials(self) -> int:
        return sum(len(r.result.specs) for r in self.rounds)

    def values(self) -> "list[object]":
        """All decoded trial values so far, round-major grid order.

        Quarantined slots are ``None`` — callers training models on
        outcomes must skip them.
        """
        out: "list[object]" = []
        for r in self.rounds:
            out.extend(r.result.values)
        return out

    def specs(self) -> "list[TrialSpec]":
        out: "list[TrialSpec]" = []
        for r in self.rounds:
            out.extend(r.result.specs)
        return out


@runtime_checkable
class TrialSource(Protocol):
    """A stream of trial rounds; the unit the stream executor drains.

    ``next_round(history)`` returns the next round as a fully
    resolved :class:`~repro.campaign.spec.Campaign`, or ``None`` when
    the stream is exhausted. The contract that makes streams
    resumable and worker-count independent: the returned campaign
    must be a **pure function of ``history``** (same history ⇒ same
    campaign, fingerprint-for-fingerprint), with all randomness
    seeded via :func:`round_seed` from ``history.digest``.
    """

    @property
    def name(self) -> str:  # pragma: no cover - protocol
        ...

    def next_round(
        self, history: StreamHistory
    ) -> "Campaign | None":  # pragma: no cover - protocol
        ...


@dataclass
class GridSource:
    """A static grid as the trivial one-round trial stream.

    This is the compatibility bridge: ``execute(campaign)`` ≡
    ``execute_stream(GridSource(campaign)).rounds[0].result``, and the
    single round reuses the campaign object untouched — same
    fingerprints, same store entries, same trace bytes as the
    pre-stream executor.
    """

    campaign: Campaign

    @property
    def name(self) -> str:
        return self.campaign.name

    def next_round(self, history: StreamHistory) -> "Campaign | None":
        return self.campaign if not history.rounds else None

    def aggregate(self, stream: "StreamResult", metrics=None):
        """The campaign's aggregate over the drained grid's values."""
        return self.campaign.aggregate(stream.values, metrics)


@dataclass
class StreamResult:
    """A fully drained stream, with per-round and flattened views."""

    name: str
    rounds: "tuple[RoundResult, ...]"
    exhausted: bool

    @property
    def digest(self) -> str:
        """The stream's outcome identity (see :func:`values_digest`)."""
        return values_digest([r.digest for r in self.rounds])

    @property
    def values(self) -> "list[object]":
        out: "list[object]" = []
        for r in self.rounds:
            out.extend(r.result.values)
        return out

    @property
    def specs(self) -> "list[TrialSpec]":
        out: "list[TrialSpec]" = []
        for r in self.rounds:
            out.extend(r.result.specs)
        return out

    @property
    def quarantined(self) -> "tuple[QuarantinedTrial, ...]":
        """All quarantined trials, stamped with their round ordinal."""
        out: "list[QuarantinedTrial]" = []
        for r in self.rounds:
            out.extend(
                replace(q, round=r.index) for q in r.result.quarantined
            )
        return tuple(out)

    @property
    def executed(self) -> int:
        return sum(r.result.executed for r in self.rounds)

    @property
    def store_hits(self) -> int:
        return sum(r.result.store_hits for r in self.rounds)

    @property
    def trials(self) -> int:
        return sum(len(r.result.specs) for r in self.rounds)


def execute_stream(
    source: TrialSource,
    *,
    workers: "int | None" = 1,
    store=None,
    trace_path: "str | None" = None,
    metrics=None,
    force_pool: bool = False,
    supervision=None,
    max_rounds: "int | None" = None,
    on_round=None,
    pool: "WorkerPool | None" = None,
) -> StreamResult:
    """Drain ``source`` round by round until it declines to continue.

    Each round runs through the one round executor
    (:func:`~repro.campaign.engine.run_round`): store skip/persist per
    trial, the lockstep groups of a round that declares a ``batch_fn``,
    supervision/quarantine for every task of the round's
    ``pmap_report`` batch, per-round metrics. Every round runs on one
    :class:`~repro.parallel.WorkerPool`: ``pool`` when given (its
    ``workers`` and ``force_pool`` then apply), else one the stream
    opens from ``workers`` and ``force_pool`` and closes at its end, so
    a pooled stream forks each worker once. Trace records are accumulated across rounds and merged
    into **one** file at the end, in round-major grid order — for a
    one-round stream that is byte-identical to the pre-stream trace
    output.

    ``on_round(round_result)`` fires after each round (progress
    reporting); ``max_rounds`` is a hard cap for callers that want a
    safety net around a buggy source. A traced stream (``trace_path``)
    runs every round's ``trial_fn``: lockstep lanes have no per-trial
    tracer.
    """
    if max_rounds is not None and max_rounds < 1:
        raise ConfigurationError("max_rounds must be >= 1")
    store = TrialStore.coerce(store)

    history = StreamHistory()
    rounds: "list[RoundResult]" = []
    all_records: "list[list]" = []
    exhausted = False

    scope = WorkerPool(workers, force_pool=force_pool) if pool is None else nullcontext(pool)
    with scope as pool:
        while max_rounds is None or len(rounds) < max_rounds:
            campaign = source.next_round(history)
            if campaign is None:
                exhausted = True
                break
            execution: RoundExecution = run_round(
                campaign,
                pool=pool,
                store=store,
                with_tracer=trace_path is not None,
                metrics=metrics,
                supervision=supervision,
            )
            round_result = RoundResult(
                index=len(rounds),
                result=execution.result,
                digest=values_digest(execution.canonical),
            )
            rounds.append(round_result)
            history.rounds.append(round_result)
            if execution.records is not None:
                all_records.extend(execution.records)
            if metrics is not None:
                metrics.counter("campaign.rounds").inc()
            if on_round is not None:
                on_round(round_result)

    if trace_path is not None:
        from ..obs import merge_task_records

        merge_task_records(all_records, trace_path)

    return StreamResult(
        name=source.name,
        rounds=tuple(rounds),
        exhausted=exhausted,
    )


def replay_round(campaign: Campaign, store: "TrialStore | None"):
    """Rebuild one fully stored round without executing anything.

    Returns the ``(result, canonical)`` pair :func:`run_round` would
    have produced — values decoded, digest material in grid order —
    or ``None`` if any of the round's trials is missing from the
    store (the round is incomplete; replay must stop here).
    """
    if store is None:
        return None
    specs = campaign.specs()
    canonical: "list[object]" = []
    for spec in specs:
        entry = store.get(spec.fingerprint)
        if entry is None:
            return None
        canonical.append(entry["result"])
    decode = campaign.decode if campaign.decode is not None else lambda v: v
    from .engine import CampaignResult

    result = CampaignResult(
        name=campaign.name,
        values=[decode(c) for c in canonical],
        specs=specs,
        executed=0,
        store_hits=len(specs),
        report=None,
    )
    return result, canonical


@dataclass(frozen=True)
class StreamStatus:
    """How far through a stream a store has gotten.

    ``current`` is the per-trial status of the first incomplete round
    (``None`` when the stream replayed to exhaustion). ``exhausted``
    means every round the source will ever emit is fully stored.
    """

    name: str
    rounds_complete: int
    trials_stored: int
    current: "CampaignStatus | None"
    exhausted: bool


def stream_status(
    source: TrialSource,
    store,
    *,
    fast: bool = False,
    max_rounds: "int | None" = None,
) -> StreamStatus:
    """Replay ``source`` against ``store`` read-only and report progress.

    Complete rounds are rebuilt from stored entries (their digests
    feed the source exactly as live execution would); the first
    incomplete round is counted per-trial — with ``fast=True`` via
    the O(stat) :meth:`TrialStore.contains` probe instead of full
    read+checksum scans. Nothing is ever executed; defective entries
    encountered during replay are quarantined and counted as pending,
    exactly like the default :func:`~repro.campaign.engine.status`
    scan.
    """
    store = TrialStore.coerce(store)
    history = StreamHistory()
    trials_stored = 0
    while True:
        if max_rounds is not None and len(history.rounds) >= max_rounds:
            return StreamStatus(
                name=source.name,
                rounds_complete=len(history.rounds),
                trials_stored=trials_stored,
                current=None,
                exhausted=False,
            )
        campaign = source.next_round(history)
        if campaign is None:
            return StreamStatus(
                name=source.name,
                rounds_complete=len(history.rounds),
                trials_stored=trials_stored,
                current=None,
                exhausted=True,
            )
        replayed = replay_round(campaign, store)
        if replayed is None:
            current = status(campaign, store, fast=fast)
            return StreamStatus(
                name=source.name,
                rounds_complete=len(history.rounds),
                trials_stored=trials_stored + current.completed,
                current=current,
                exhausted=False,
            )
        result, canonical = replayed
        trials_stored += len(result.specs)
        history.rounds.append(
            RoundResult(
                index=len(history.rounds),
                result=result,
                digest=values_digest(canonical),
            )
        )
