"""Batched campaign execution through the SoA tick engine.

:func:`execute_batched` is the campaign-layer entry point for the
structure-of-arrays backend (:mod:`repro.sim.batch`). Where
:func:`repro.campaign.engine.execute` hands each trial to a worker
process, ``execute_batched`` hands the pending trials to one
``batch_fn(items, rngs)`` call per lockstep group that advances the
group's lanes in lockstep — one :class:`~repro.sim.batch.BatchMachines`
sweep instead of N scalar tick loops. Without a
``batch_fn.lockstep_key`` the round's pending trials are one group,
run in-process; with one (a top-level ``key(item)``), they are grouped
by key and the groups run as fail-fast pool tasks, largest first.
Both go through the one round executor,
:func:`repro.campaign.engine.run_round`.

The determinism contract is unchanged. Each lane receives exactly the
generator the scalar engine would have built —
``trial_rng(seed_root, seed_index)`` — and the batch engine's RNG lane
discipline (see ``docs/batch.md``) guarantees the draws it takes from
that generator are byte-identical to the scalar ones. Results are
canonicalised through the same ``encode -> JSON -> decode`` round-trip
and persisted under the same fingerprints and
:data:`~repro.campaign.store.STORE_SCHEMA` entry shape, so a store
written by a batched run resumes a scalar run byte-identically and
vice versa.

Divergence is the escape hatch: trials that leave lockstep (a
power-cycle, a reboot, any per-lane control flow the SoA engine cannot
express) are *peeled* — the batch function returns the
:class:`Diverged` sentinel for that lane and the executor re-runs the
whole trial through the scalar ``campaign.trial_fn`` with a fresh
``trial_rng``, in the same ``pmap_report`` call as any other scalar trial (so
``workers`` and ``supervision`` apply to it). Because a trial's stream
depends only on ``(seed_root, seed_index)``, the scalar re-run is the
same trial the scalar engine would have produced, not an
approximation.

Tracing is deliberately unsupported here: a batched sweep has no
per-trial tracer to thread through lockstep lanes. Campaigns that need
traces use the scalar :func:`~repro.campaign.engine.execute`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import CampaignResult
    from .spec import Campaign

__all__ = ["Diverged", "execute_batched"]


class Diverged:
    """Per-lane sentinel: this trial left lockstep, peel it to scalar.

    A batch function returns ``Diverged(reason)`` in a lane's result
    slot instead of a value; the executor then re-runs that trial
    through the scalar ``campaign.trial_fn`` with its own
    ``trial_rng``. ``reason`` is free-form ("power-cycle", "reboot",
    ...) and never lands in results.
    """

    __slots__ = ("reason",)

    def __init__(self, reason: str = "") -> None:
        self.reason = reason

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Diverged({self.reason!r})"


def execute_batched(
    campaign: "Campaign",
    batch_fn,
    *,
    store=None,
    metrics=None,
) -> "CampaignResult":
    """Run ``campaign`` as one lockstep group, skipping stored trials.

    ``batch_fn(items, rngs)`` receives a lockstep group's ``item``
    payloads and their per-lane generators (grid order) and must
    return one result per lane — a trial value, or :class:`Diverged`
    for lanes that left lockstep and need the scalar fallback. A
    ``batch_fn.lockstep_key`` attribute splits the pending trials into
    one group per key (:func:`~repro.campaign.engine.run_round`).

    This is :func:`~repro.campaign.engine.execute` with ``batch_fn``
    set; pass that directly to add ``workers`` or ``supervision`` for
    the diverged lanes.
    """
    from .engine import execute

    return execute(campaign, store=store, metrics=metrics, batch_fn=batch_fn)
