"""``repro.ground`` — fault tolerance for the *host* side of campaigns.

The recovery stack makes the simulated spacecraft dependable on
unreliable hardware; this package applies the same discipline to the ground
segment that actually runs the campaigns.
:mod:`repro.ground.supervision` holds the :class:`GroundPolicy` that
turns the one worker pool underneath :func:`repro.parallel.pmap_report`
and :func:`repro.campaign.execute` from fail-fast into supervised:
per-trial wall-clock timeouts, bounded retry with **byte-identical
reseeding** (a retried trial that succeeds is indistinguishable from a
first-try success), crashed/hung-worker replacement, poison-trial
quarantine (the campaign completes with a manifest instead of dying),
and graceful degradation to serial execution when the pool is
repeatedly lost.

Store-side integrity (checksums, a per-round fsync barrier, quarantine) lives
with the store itself in :mod:`repro.campaign.store`. The host faults
both layers must survive are injected by the test suite
(``tests/test_ground.py``, ``tests/test_store_machine.py``).

See ``docs/ground.md``.
"""

from .supervision import (
    GroundPolicy,
    QuarantinedTask,
    QuarantinedTrial,
    quarantine_manifest,
)

__all__ = [
    "GroundPolicy",
    "QuarantinedTask",
    "QuarantinedTrial",
    "quarantine_manifest",
]
