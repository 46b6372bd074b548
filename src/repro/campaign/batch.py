"""Batched campaign execution through the SoA tick engine.

``execute(campaign, batch_fn=...)`` (:func:`repro.campaign.engine.execute`)
runs a campaign through the structure-of-arrays backend
(:mod:`repro.sim.batch`). Where a scalar run hands each trial to a
worker process, a batched run hands the pending trials to one
``batch_fn(items, rngs)`` call per lockstep group that advances the
group's lanes in lockstep — one :class:`~repro.sim.batch.BatchMachines`
sweep instead of N scalar tick loops. Without a
``batch_fn.lockstep_key`` the round's pending trials are one group,
run in-process; with one (a top-level ``key(item)``), they are grouped
by key and the groups are the first tasks of the round's pool batch,
largest first. Both go through the one round executor,
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
``trial_rng``, as a task that joins the round's running ``pmap_report``
batch when its group lands (so ``workers`` and ``supervision`` apply to
it, as they do to the group). Because a trial's stream
depends only on ``(seed_root, seed_index)``, the scalar re-run is the
same trial the scalar engine would have produced, not an
approximation.

Tracing is deliberately unsupported here: a batched sweep has no
per-trial tracer to thread through lockstep lanes. Campaigns that need
traces run :func:`~repro.campaign.engine.execute` without ``batch_fn``.
"""

from __future__ import annotations

__all__ = ["Diverged"]


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

